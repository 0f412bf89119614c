"""Request lists of the benchmark workloads, generated from a seed, and the
checks every response must pass.

A workload is a list of requests that one closed-loop client sends in
order; one pass of the list is the unit ``wall_s`` times.  A request is
one ``cavity_raman.cli.main`` call.  Its check returns a list of problems
(empty when the output is right) and its ``extract`` the numbers compared
with the references recorded for the reference seed.
"""
from __future__ import annotations

import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("sweep", "refit", "spectrum", "validate")

# Reference operating point (cavity_raman.model.ModelParams defaults).
REFERENCE = {"g": 0.80, "omega_drive": 2.58, "kappa": 53.7, "delta_laser": 55.0}


# Untimed before every run: touches each command once at a small size so
# lazy imports and first-call set-up are done before the clock starts.
WARMUP = (
    ["rates"],
    ["spectrum", "--grid-points", "2001"],
    ["sweep-detuning", "--sweep-count", "3"],
    ["sweep-cavity", "--sweep-count", "3"],
)


@dataclass
class Request:
    name: str
    argv: list[str]
    check: Callable[[str], list[str]]
    extract: Callable[[str], dict[str, list[float]]]
    out: str | None = None
    # Client work on the output before the next request (part of the pass).
    then: Callable[[str], None] | None = None


@dataclass
class Workload:
    name: str
    requests: list[Request]
    # Input files written, and requests sent, once before timing starts.
    inputs: list[tuple[str, str]] = field(default_factory=list)
    setup: list[Request] = field(default_factory=list)
    # Untimed argv lists sent before timing starts; only exit codes checked.
    warmup: list[list[str]] = field(default_factory=lambda: list(WARMUP))


def _operating_point(rng: random.Random) -> dict[str, float]:
    """g, omega_drive and kappa within +/-30% of the reference point."""
    return {key: REFERENCE[key] * rng.uniform(0.7, 1.3) for key in ("g", "omega_drive", "kappa")}


def _point_flags(point: dict[str, float]) -> list[str]:
    flags = []
    for key, value in point.items():
        flags += [f"--{key.replace('_', '-')}", repr(value)]
    return flags


def _data_rows(text: str) -> np.ndarray:
    """Comma separated rows as a 2-D array; '#' lines skipped."""
    return np.loadtxt(io.StringIO(text), delimiter=",", comments="#", ndmin=2)


# --- sweep -----------------------------------------------------------------


def _check_detuning(count: int, start: float, stop: float):
    def check(text: str) -> list[str]:
        rows = _data_rows(text)
        if rows.shape != (count, 6):
            return [f"expected {count} rows of 6 columns, got {rows.shape}"]
        problems = []
        if not np.array_equal(rows[:, 0], np.linspace(start, stop, count)):
            problems.append("detuning column is not the requested grid")
        delta, ratio, err, r_peak, s_peak, vanishing = rows.T
        if np.any(vanishing != 0.0):
            problems.append(f"{int(np.sum(vanishing))} points flagged vanishing")
        if not (np.all(ratio > 0.0) and np.all(err > 0.0) and np.all(np.isfinite(rows))):
            problems.append("ratio or ratio_err not positive and finite")
        if np.max(np.abs(r_peak + delta)) >= 2.0 or np.max(np.abs(s_peak)) >= 3.0:
            problems.append("line centres off their expected positions")
        return problems

    return check


def _check_cavity(count: int, start: float, stop: float, delta_laser: float):
    def check(text: str) -> list[str]:
        rows = _data_rows(text)
        if rows.shape != (count, 3):
            return [f"expected {count} rows of 3 columns, got {rows.shape}"]
        problems = []
        grid = np.linspace(start, stop, count)
        if not np.array_equal(rows[:, 0], grid):
            problems.append("cavity detuning column is not the requested grid")
        if not (np.all(rows[:, 1:] > 0.0) and np.all(np.isfinite(rows))):
            problems.append("line intensities not positive and finite")
        peak = rows[int(np.argmax(rows[:, 1])), 0]
        if abs(peak - delta_laser) > (stop - start) / max(count - 1, 1):
            problems.append(f"Raman line peaks at cavity detuning {peak}, not {delta_laser}")
        return problems

    return check


def _extract_csv(text: str) -> dict[str, list[float]]:
    return {"rows": _data_rows(text).ravel().tolist()}


def sweep(seed: int, size: str, workdir: str) -> Workload:
    """Many solves with few spectrum samples each, across the CLI's pool."""
    rng = random.Random(seed * 1000 + 1)
    n_points, n_det, n_cav = (3, 81, 41) if size == "full" else (1, 9, 5)
    requests = []
    for i in range(n_points):
        point = _operating_point(rng)
        flags = _point_flags(point)
        requests.append(
            Request(
                name=f"sweep-detuning.{i}",
                argv=["sweep-detuning", "--sweep-count", str(n_det),
                      "--sweep-start", "15", "--sweep-stop", "95"] + flags,
                check=_check_detuning(n_det, 15.0, 95.0),
                extract=_extract_csv,
            )
        )
        requests.append(
            Request(
                name=f"sweep-cavity.{i}",
                argv=["sweep-cavity", "--sweep-count", str(n_cav),
                      "--sweep-start", "5", "--sweep-stop", "105"] + flags,
                check=_check_cavity(n_cav, 5.0, 105.0, REFERENCE["delta_laser"]),
                extract=_extract_csv,
            )
        )
    return Workload("sweep", requests)


# --- refit -----------------------------------------------------------------


def _phonon_table(path: str):
    def then(text: str) -> None:
        rows = _data_rows(text)
        with open(path, "w", encoding="utf-8") as handle:
            for delta, ratio, err in rows[:, :3]:
                handle.write(f"{float(delta)!r},{float(ratio)!r},{float(err)!r}\n")

    return then


def _check_refit(alpha: float, exponent: float):
    def check(text: str) -> list[str]:
        payload = json.loads(text)
        if abs(payload["n"] - exponent) > 1e-6 or abs(payload["alpha"] / alpha - 1.0) > 1e-6:
            return [
                f"refit gave (alpha, n) = ({payload['alpha']}, {payload['n']}), "
                f"drawn ({alpha}, {exponent})"
            ]
        return []

    return check


def _extract_refit(text: str) -> dict[str, list[float]]:
    payload = json.loads(text)
    return {"alpha_n": [payload["alpha"], payload["n"]]}


# (alpha, n) pairs refit by every pass, away from the reference pair (1, 0)
# where the start is exact and a refit takes 54 pipeline calls.  Each takes
# 918 calls at this commit, so the two latencies are comparable samples.
REFIT_PAIRS = ((0.8, 0.4), (1.4, 0.3))


def refit(seed: int, size: str, workdir: str) -> Workload:
    """The LM outer loop calling the full pipeline serially.

    The ratio data of each pair is made by the CLI once, before timing; a
    pass refits every pair.  The pairs do not depend on the seed: the
    number of pipeline calls a refit needs jumps between about 370 and
    1,400 for draws from one range (0.7 < alpha < 1.4, 0.2 < n < 0.5), so
    seed-drawn pairs made wall_s measure the draw more than the code.
    """
    pairs = REFIT_PAIRS if size == "full" else REFIT_PAIRS[:1]
    setup, requests = [], []
    for i, (alpha, exponent) in enumerate(pairs):
        table = os.path.join(workdir, f"phonon.{i}.csv")
        setup.append(
            Request(
                name=f"refit-data.{i}",
                argv=["sweep-detuning", "--sweep-count", "9", "--sweep-start", "15",
                      "--sweep-stop", "95", "--phonon-alpha1", repr(alpha),
                      "--phonon-alpha2", repr(alpha), "--phonon-n", repr(exponent)],
                check=_check_detuning(9, 15.0, 95.0),
                extract=_extract_csv,
                then=_phonon_table(table),
            )
        )
        requests.append(
            Request(
                name=f"refit.{i}",
                argv=["fit", "phonon-n", table],
                check=_check_refit(alpha, exponent),
                extract=_extract_refit,
            )
        )
    return Workload("refit", requests, setup=setup)


# --- spectrum --------------------------------------------------------------

GRID = (-120.0, 40.0)


def _check_spectrum_csv(points: int, parsed: dict):
    def check(text: str) -> list[str]:
        lines = text[:4096].splitlines()
        if "# columns: nu_lab_GHz,intensity_per_ns_per_GHz" not in lines:
            return ["missing column header"]
        rows = parsed["rows"] = _data_rows(text)
        if rows.shape != (points, 2):
            return [f"expected {points} rows of 2 columns, got {rows.shape}"]
        problems = []
        if rows[0, 0] != GRID[0] or rows[-1, 0] != GRID[1] or np.any(np.diff(rows[:, 0]) <= 0):
            problems.append("frequency column is not the requested grid")
        values = rows[:, 1]
        if not np.all(np.isfinite(values)) or np.min(values) < -1e-12 * np.max(values):
            problems.append("intensities not finite and nonnegative")
        return problems

    return check


def _extract_spectrum_csv(points: int):
    stride = max((points - 1) // 100, 1)

    def extract(text: str) -> dict[str, list[float]]:
        return {"sampled_rows": _data_rows(text)[::stride].ravel().tolist()}

    return extract


def _check_spectrum_json(points: int, center: float, width: float, parsed: dict, csv_points: int):
    """Filter band zeroed outside, and inside equal to the unfiltered CSV
    the previous request wrote, on the grid points the two share."""
    stride = (csv_points - 1) // (points - 1)

    def check(text: str) -> list[str]:
        payload = json.loads(text)
        freqs = np.asarray(payload["nu_lab_GHz"])
        values = np.asarray(payload["intensity_per_ns_per_GHz"])
        if freqs.size != points or values.size != points:
            return [f"expected {points} samples, got {freqs.size}"]
        if payload["filter_center"] != center or payload["filter_width"] != width:
            return ["filter window not echoed"]
        inside = np.abs(freqs - center) <= width / 2.0
        problems = []
        if np.any(values[~inside] != 0.0) or not np.any(values[inside] > 0.0):
            problems.append("filter does not zero exactly the out-of-band samples")
        full = parsed.pop("rows")[::stride]
        if full.shape[0] != points or np.max(np.abs(full[:, 0] - freqs)) > 1e-9:
            problems.append("filtered grid does not match the unfiltered grid")
        else:
            scale = np.max(full[:, 1])
            gap = np.abs(full[inside, 1] - values[inside])
            if np.any(gap > 1e-9 * np.abs(full[inside, 1]) + 1e-12 * scale):
                problems.append("filtered band differs from the unfiltered spectrum")
        return problems

    return check


def _extract_spectrum_json(points: int):
    stride = max((points - 1) // 100, 1)

    def extract(text: str) -> dict[str, list[float]]:
        payload = json.loads(text)
        return {
            "sampled": payload["intensity_per_ns_per_GHz"][::stride]
            + payload["nu_lab_GHz"][::stride]
        }

    return extract


def _lorentzians(freqs: np.ndarray, peaks, baseline: float) -> np.ndarray:
    total = np.full(freqs.size, baseline)
    for center, fwhm, amplitude in peaks:
        total += amplitude / (1.0 + ((freqs - center) / (fwhm / 2.0)) ** 2)
    return total


def _check_lorentzian2(peaks):
    def check(text: str) -> list[str]:
        fitted = sorted(json.loads(text)["peaks"], key=lambda p: p["center"])
        if len(fitted) != 2:
            return [f"expected 2 peaks, got {len(fitted)}"]
        problems = []
        for got, (center, fwhm, _) in zip(fitted, peaks):
            if abs(got["center"] - center) > 0.05 * fwhm or abs(got["fwhm"] / fwhm - 1.0) > 0.05:
                problems.append(f"peak at {got['center']} (fwhm {got['fwhm']}) misses {center} ({fwhm})")
        return problems

    return check


def _extract_lorentzian2(text: str) -> dict[str, list[float]]:
    payload = json.loads(text)
    values = [payload["baseline"]]
    for peak in sorted(payload["peaks"], key=lambda p: p["center"]):
        values += [peak["center"], peak["fwhm"], peak["amplitude"], peak["area"]]
    return {"fit": values}


def spectrum(seed: int, size: str, workdir: str) -> Workload:
    """One solve with a huge evaluation grid and output, plus a data read.

    The 1,000,001-point grid makes each (points x modes) temporary larger
    than the last-level cache; the JSON request formats 200,001 samples.
    """
    rng = random.Random(seed * 1000 + 3)
    csv_points, json_points, rows = (1_000_001, 200_001, 2000) if size == "full" else (20_001, 4_001, 200)
    flags = _point_flags(_operating_point(rng))
    # A fixed width keeps the share of nonzero samples, and so the JSON
    # size, the same for every seed.
    center, width = rng.uniform(-90.0, 10.0), 60.0
    grid = ["--grid-min", repr(GRID[0]), "--grid-max", repr(GRID[1])]
    csv_path = os.path.join(workdir, "spectrum.csv")
    parsed: dict[str, np.ndarray] = {}

    data_rng = np.random.default_rng(seed)
    peaks = sorted(
        (
            (data_rng.uniform(-40.0, -10.0), data_rng.uniform(3.0, 8.0), data_rng.uniform(0.5, 2.0)),
            (data_rng.uniform(10.0, 40.0), data_rng.uniform(3.0, 8.0), data_rng.uniform(0.5, 2.0)),
        )
    )
    freqs = np.linspace(-80.0, 80.0, rows)
    clean = _lorentzians(freqs, peaks, 0.05)
    noisy = clean + data_rng.normal(0.0, 0.01, rows)
    data_path = os.path.join(workdir, "lines.csv")
    data_text = "".join(f"{f!r},{v!r}\n" for f, v in zip(freqs.tolist(), noisy.tolist()))

    requests = [
        Request(
            name="spectrum-csv",
            argv=["spectrum", "--grid-points", str(csv_points), "--out", csv_path] + grid + flags,
            check=_check_spectrum_csv(csv_points, parsed),
            extract=_extract_spectrum_csv(csv_points),
            out=csv_path,
        ),
        Request(
            name="spectrum-json",
            argv=["spectrum", "--grid-points", str(json_points), "--json",
                  "--filter-center", repr(center), "--filter-width", repr(width)] + grid + flags,
            check=_check_spectrum_json(json_points, center, width, parsed, csv_points),
            extract=_extract_spectrum_json(json_points),
        ),
        Request(
            name="lorentzian2",
            argv=["fit", "lorentzian2", data_path],
            check=_check_lorentzian2(peaks),
            extract=_extract_lorentzian2,
        ),
    ]
    # The first 1,000,001-point request of a process can run slower than
    # the next ones, so one is sent before timing.
    return Workload(
        "spectrum", requests, inputs=[(data_path, data_text)],
        warmup=list(WARMUP) + [requests[0].argv],
    )


# --- validate --------------------------------------------------------------

VALIDATE_CHECKS = 10


def _check_validate(text: str) -> list[str]:
    lines = text.splitlines()
    passed = [line for line in lines[:-1] if line.startswith("PASS ")]
    if len(passed) != VALIDATE_CHECKS or lines[-1] != "validation passed":
        return [f"{len(passed)} of {VALIDATE_CHECKS} checks pass: {lines[-1]!r}"]
    return []


def _extract_validate(text: str) -> dict[str, list[float]]:
    # Check names and verdicts only: the details print round-off residues.
    return {"verdicts": [float(line.startswith("PASS ")) for line in text.splitlines()]}


def validate(seed: int, size: str, workdir: str) -> Workload:
    """The oracle path at the reference point; the seed changes nothing."""
    return Workload(
        "validate",
        [Request(name="validate", argv=["validate"], check=_check_validate, extract=_extract_validate)],
    )


BUILDERS = {"sweep": sweep, "refit": refit, "spectrum": spectrum, "validate": validate}

def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    workload = BUILDERS[name](seed, size, workdir)
    for path, text in workload.inputs:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return workload


def close_enough(got: list[float], ref: list[float], rtol: float, atol_frac: float) -> bool:
    """Elementwise |got - ref| <= rtol |ref| + atol_frac max|ref|."""
    if len(got) != len(ref):
        return False
    scale = max((abs(v) for v in ref), default=0.0)
    return all(
        math.isfinite(g) and abs(g - r) <= rtol * abs(r) + atol_frac * scale
        for g, r in zip(got, ref)
    )
