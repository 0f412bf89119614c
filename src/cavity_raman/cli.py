"""Command line interface.

Subcommands: ``rates`` (closed-form summary), ``spectrum`` (emission
spectrum CSV), ``sweep-detuning`` and ``sweep-cavity`` (ratio pipelines
over a detuning grid), ``fit`` (standalone least-squares fits of data
files) and ``validate`` (internal consistency suite).

Exit codes: 0 success, 1 validation failure, 2 configuration or input
errors, 3 numerically unusable operating points, 4 fit failures.
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import fit as fit_mod
from . import liouvillian as lv
from . import oracle
from . import rates as rates_mod
from . import spectrum as spectrum_mod
from .errors import (
    CavityRamanError,
    ConfigError,
    DegenerateSpectrum,
    DomainError,
    FitError,
    NonUniqueSteadyState,
    ParseError,
    UnstableLiouvillian,
    VanishingSpontaneous,
)
from .model import G2_0, ModelParams

_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))
_RUN_FLOAT_KEYS = (
    "gamma_bare",
    "nu0_thz",
    "grid_min",
    "grid_max",
    "sweep_start",
    "sweep_stop",
    "filter_center",
    "filter_width",
)
_RUN_INT_KEYS = ("grid_points", "sweep_count")
_RUN_STR_KEYS = ("rs_mode",)


@dataclass(frozen=True)
class RunConfig:
    """Resolved runtime configuration: physics plus sweep and output knobs."""

    params: ModelParams
    gamma_bare: float = 0.0021
    nu0_thz: float = 406.8
    grid_min: float = -120.0
    grid_max: float = 40.0
    grid_points: int = 1601
    sweep_start: float = 15.0
    sweep_stop: float = 95.0
    sweep_count: int = 9
    filter_center: float | None = None
    filter_width: float = 120.0
    rs_mode: str = "area"

    def __post_init__(self):
        for key in _RUN_FLOAT_KEYS:
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if self.grid_points < 16:
            raise ConfigError(f"grid_points must be at least 16, got {self.grid_points}")
        if not self.grid_min < self.grid_max:
            raise ConfigError(
                f"grid_min {self.grid_min} must lie below grid_max {self.grid_max}"
            )
        if self.sweep_count < 1:
            raise ConfigError(f"sweep_count must be positive, got {self.sweep_count}")
        if not self.sweep_start <= self.sweep_stop:
            raise ConfigError(
                f"sweep_start {self.sweep_start} must not exceed sweep_stop {self.sweep_stop}"
            )
        for low, high in (("grid_min", "grid_max"), ("sweep_start", "sweep_stop")):
            if not math.isfinite(getattr(self, high) - getattr(self, low)):
                raise ConfigError(f"the span from {low} to {high} overflows a float")
        if self.rs_mode not in ("area", "amplitude"):
            raise ConfigError(f"rs_mode must be 'area' or 'amplitude', got {self.rs_mode!r}")
        if self.filter_width <= 0.0:
            raise ConfigError(f"filter_width must be positive, got {self.filter_width}")


def _read_lines(path: str, error: type[CavityRamanError], name: str) -> list[str]:
    """The lines of a UTF-8 text file; a file that cannot be opened or
    decoded raises ``error`` "cannot read ``name``"."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text ({exc.reason})"
        raise error(f"cannot read {name}: {reason}") from exc


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blank lines ignored."""
    mapping: dict[str, str] = {}
    lines = _read_lines(path, ConfigError, f"config file {path}")
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"expected 'key = value', got {text!r}", line=lineno)
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("missing key before '='", line=lineno)
        if not value:
            raise ConfigError(f"missing value for required key {key!r}", line=lineno)
        if key in mapping:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        mapping[key] = value
    return mapping


def _convert(key: str, value: str) -> float | int | str:
    if key in _PARAM_KEYS or key in _RUN_FLOAT_KEYS:
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"key {key!r} needs a number, got {value!r}") from None
    if key in _RUN_INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"key {key!r} needs an integer, got {value!r}") from None
    if key in _RUN_STR_KEYS:
        return value
    raise ConfigError(f"unknown configuration key {key!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and command line flags, in that order."""
    values: dict[str, float | int | str] = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            values[key] = _convert(key, raw)
    for key in _PARAM_KEYS + _RUN_FLOAT_KEYS + _RUN_INT_KEYS + _RUN_STR_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    params = ModelParams(**{k: values.pop(k) for k in list(values) if k in _PARAM_KEYS})
    return RunConfig(params=params, **values)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _header(command: str, config: RunConfig, extra: dict) -> list[str]:
    entries = {key: getattr(config.params, key) for key in _PARAM_KEYS}
    entries.update(extra)
    lines = [f"# cavity-raman {command}"]
    lines.extend(f"# {key} = {_fmt(entries[key])}" for key in sorted(entries))
    return lines


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout without one; a file
    that cannot be written raises ConfigError "cannot write ``out``"."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _check_out(out: str) -> None:
    """Refuse, before any work, an ``out`` that names a directory or whose
    directory cannot be found, with the ConfigError :func:`_emit` would
    raise.  The file is not opened: a failing command leaves it as it was."""
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(out.rstrip(os.sep)) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        # A trailing separator names a directory even where none exists yet.
        if out.endswith(os.sep) or os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc


def _read_numeric_csv(path: str, min_cols: int, max_cols: int) -> np.ndarray:
    """Rows of comma separated floats; '#' lines and blank lines skipped."""
    rows: list[list[float]] = []
    lines = _read_lines(path, ParseError, path)
    width = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = [part.strip() for part in text.split(",")]
        if width is None:
            width = len(parts)
            if not min_cols <= width <= max_cols:
                raise ParseError(
                    f"expected {min_cols} to {max_cols} columns, found {width}",
                    line=lineno,
                )
        elif len(parts) != width:
            raise ParseError(
                f"inconsistent column count {len(parts)} (expected {width})",
                line=lineno,
            )
        try:
            rows.append([float(part) for part in parts])
        except ValueError:
            raise ParseError(f"non-numeric entry in {text!r}", line=lineno) from None
    if not rows:
        raise ParseError(f"no data rows in {path}")
    return np.asarray(rows, dtype=float)


def cmd_rates(config: RunConfig, out: str | None, as_json: bool) -> int:
    report = rates_mod.rate_report(config.params, config.gamma_bare)
    quality = rates_mod.quality_factor(config.nu0_thz, config.params.kappa)
    payload = {
        "omega_eff_GHz": report.omega_eff,
        "r_cavity_per_ns": report.r_cavity,
        "r_bare_per_ns": report.r_bare,
        "enhancement": report.enhancement,
        "purcell": report.purcell,
        "quality_factor": quality,
    }
    if as_json:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)
    else:
        text = "".join(f"{key} = {_fmt(value)}\n" for key, value in payload.items())
        _emit(text, out)
    return 0


def cmd_spectrum(config: RunConfig, out: str | None, as_json: bool) -> int:
    grid = np.linspace(config.grid_min, config.grid_max, config.grid_points)
    spec = spectrum_mod.emission_spectrum(config.params, grid)
    window = None
    if config.filter_center is not None:
        window = spectrum_mod.FilterWindow(config.filter_center, config.filter_width)
        spec = spectrum_mod.apply_filter(spec, window)
    if as_json:
        payload = {
            "nu_lab_GHz": list(spec.freqs),
            "intensity_per_ns_per_GHz": list(spec.intensity),
            "frame": "lab",
            "filter_center": window.center if window else None,
            "filter_width": window.width if window else None,
        }
        _emit(json.dumps(payload, sort_keys=True) + "\n", out)
        return 0
    extra = {
        "grid_min": config.grid_min,
        "grid_max": config.grid_max,
        "grid_points": config.grid_points,
        "filter_center": config.filter_center if window else "none",
        "filter_width": config.filter_width if window else "none",
    }
    lines = _header("spectrum", config, extra)
    lines.append("# columns: nu_lab_GHz,intensity_per_ns_per_GHz")
    lines.extend(
        f"{_fmt(nu)},{_fmt(val)}" for nu, val in zip(spec.freqs, spec.intensity)
    )
    _emit("\n".join(lines) + "\n", out)
    return 0


def _sweep_grid(config: RunConfig) -> np.ndarray:
    return np.linspace(config.sweep_start, config.sweep_stop, config.sweep_count)


def _detuning_rows(config: RunConfig) -> list[tuple]:
    """Ratio pipeline over a laser-detuning grid, in grid order; the whole
    grid is fitted in one call, and the first failing point raises."""
    grid = [float(value) for value in _sweep_grid(config)]
    trials = [replace(config.params, delta_laser=value, delta_cavity=value) for value in grid]
    rows = []
    for value, outcome in zip(grid, fit_mod.predict_rs(trials, mode=config.rs_mode)):
        if isinstance(outcome, VanishingSpontaneous):
            point = outcome.point
            ratio, err = (math.nan, math.nan) if point is None else (point.ratio, point.ratio_err)
            rows.append((value, ratio, err, math.nan, math.nan, 1))
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            point, (raman_fit, spont_fit) = outcome
            centers = (raman_fit.peaks[0].center, spont_fit.peaks[0].center)
            rows.append((value, point.ratio, point.ratio_err, *centers, 0))
    return rows


def _cavity_rows(config: RunConfig) -> list[tuple]:
    """Line intensities over a cavity-detuning grid at fixed laser detuning;
    the whole grid is fitted in one call, and the first failing point raises."""
    grid = [float(value) for value in _sweep_grid(config)]
    trials = [replace(config.params, delta_cavity=value) for value in grid]
    rows = []
    for value, outcome in zip(grid, fit_mod.fit_emission_lines(trials)):
        if isinstance(outcome, Exception):
            raise outcome
        raman_fit, spont_fit = outcome
        rows.append((value, raman_fit.peaks[0].area, spont_fit.peaks[0].area))
    return rows


def _cmd_sweep(config: RunConfig, out: str | None, as_json: bool, variable: str) -> int:
    if variable == "delta":
        command = "sweep-detuning"
        names = ("delta_GHz", "ratio", "ratio_err", "r_peak_GHz", "s_peak_GHz", "vanishing")
        rows = _detuning_rows(config)
        formatted = [
            ",".join(_fmt(float(v)) if i < 5 else str(v) for i, v in enumerate(row))
            for row in rows
        ]
    else:
        command = "sweep-cavity"
        names = ("delta_cavity_GHz", "raman_intensity", "spont_intensity")
        rows = _cavity_rows(config)
        formatted = [",".join(_fmt(float(v)) for v in row) for row in rows]
    if as_json:
        payload = [dict(zip(names, row)) for row in rows]
        _emit(json.dumps(payload, sort_keys=True) + "\n", out)
        return 0
    extra = {
        "sweep_start": config.sweep_start,
        "sweep_stop": config.sweep_stop,
        "sweep_count": config.sweep_count,
        "rs_mode": config.rs_mode,
    }
    lines = _header(command, config, extra)
    lines.append("# columns: " + ",".join(names))
    lines.extend(formatted)
    _emit("\n".join(lines) + "\n", out)
    return 0


def cmd_fit(config: RunConfig, kind: str, path: str, out: str | None) -> int:
    if kind in ("lorentzian1", "lorentzian2", "exponential"):
        data = _read_numeric_csv(path, 2, 3)
        errors = data[:, 2] if data.shape[1] == 3 else None
        if kind == "exponential":
            result = fit_mod.fit_exponential(data[:, 0], data[:, 1], errors=errors)
        else:
            n_peaks = 1 if kind == "lorentzian1" else 2
            result = fit_mod.fit_lorentzian(data[:, 0], data[:, 1], n_peaks=n_peaks, errors=errors)
        # Every field of the fit but its iteration count, peaks included.
        payload = asdict(result)
        del payload["iterations"]
    elif kind == "phonon-n":
        data = _read_numeric_csv(path, 2, 3)
        points = [
            fit_mod.RsPoint(row[0], row[1], row[2] if data.shape[1] == 3 else 0.0) for row in data
        ]
        result = fit_mod.fit_phonon_exponent(points, config.params, mode=config.rs_mode)
        payload = {
            "n": result.exponent,
            "n_err": result.exponent_err,
            "alpha": result.prefactor,
            "alpha_err": result.prefactor_err,
            "covariance": [list(row) for row in result.covariance],
        }
    else:
        raise ConfigError(f"unknown fit kind {kind!r}")
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)
    return 0


def _validation_checks(config: RunConfig) -> list[dict]:
    params = config.params
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def run(name: str, thunk) -> None:
        try:
            passed, detail = thunk()
        except CavityRamanError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        record(name, passed, detail)

    def regime_adiabatic():
        coupling = max(params.omega_drive / 2.0, params.g)
        return (
            params.adiabatic_valid,
            f"max(omega/2, g) = {coupling:.4g} GHz vs delta_laser/10 = "
            f"{params.delta_laser / 10.0:.4g} GHz",
        )

    def regime_truncation():
        return (
            params.truncation_valid,
            f"gamma_flip = {params.gamma_flip:.4g} GHz vs kappa/10 = "
            f"{params.kappa / 10.0:.4g} GHz",
        )

    # Each solve is made once and read by every check that needs it; a
    # solve that raises is retried by the next check, which fails the same.
    generator = functools.cache(lambda: lv.build_liouvillian(params))
    steady = functools.cache(lambda: lv.steady_state(generator()))
    ladder = functools.cache(lambda n_max: oracle.full_ladder_steady_state(params, n_max))

    def trace_preservation():
        gen = generator()
        probe = lv.vec(np.eye(4)).conj() @ gen
        worst = float(np.max(np.abs(probe)))
        scale = float(np.max(np.abs(gen)))
        return worst <= 1e-10 * scale, f"|Tr L rho| <= {worst:.3e} (scale {scale:.3e})"

    def steady_physical():
        rho = steady()
        lowest = float(np.min(np.linalg.eigvalsh(rho)))
        trace = float(np.trace(rho).real)
        ok = lowest >= -1e-9 and abs(trace - 1.0) <= 1e-9
        return ok, f"min eigenvalue {lowest:.3e}, trace {trace:.12f}"

    def sum_rule():
        lambdas, residues, photons = spectrum_mod.generator_modes(generator(), steady())
        gap = abs(complex(np.sum(residues)) - photons)
        return gap <= 1e-10, f"|sum residues - <n>| = {gap:.3e}"

    def truncation_distance():
        solved = ladder(3)
        distance = oracle.truncation_distance(steady(), solved)
        return distance < 1e-3, f"trace distance {distance:.3e} (tolerance 1e-3)"

    def ladder_convergence():
        distance = oracle.ladder_distance(ladder(3), ladder(4))
        return distance < 1e-9, f"n_max 3 vs 4 trace distance {distance:.3e}"

    def adiabatic_numeric():
        omega_eff = rates_mod.effective_rabi(
            params.omega_drive, params.g, params.delta_laser
        )
        if omega_eff == 0.0:
            return True, "no drive, nothing to compare"
        period = 1.0 / (2.0 * abs(omega_eff))
        grid = np.linspace(0.0, 1.2 * period, 400)
        report = oracle.adiabatic_error(
            params.omega_drive, params.g, params.delta_laser, grid
        )
        ok = report.max_population_error < 5e-3 and report.max_excited_population < 5e-3
        return ok, (
            f"population error {report.max_population_error:.3e}, "
            f"excited weight {report.max_excited_population:.3e}"
        )

    def bare_rate_consistency():
        # Scaled operating point, kept so the output does not change; the
        # detuning-to-linewidth ratio is what the closed form is tested on.
        gamma, ratio = 0.2, 50.0
        delta = gamma * ratio
        omega = delta / 10.0
        target = rates_mod.raman_rate_bare_ideal(omega, delta, gamma)
        t_start = 30.0 / (2.0 * math.pi * gamma)
        # Three decay times: over a small part of one decay the trace is
        # nearly a straight line, on which amplitude, tau and baseline
        # trade off, and the fit stalls (300 iterations at 5%, against 6).
        horizon = t_start + 3.0 / target
        grid = np.linspace(t_start, horizon, 200)
        pops = oracle.bare_lambda_evolve(omega, delta, gamma, gamma, grid)
        decay = fit_mod.fit_exponential(grid, pops[:, 1])
        fitted = 1.0 / decay.tau
        gap = abs(fitted / target - 1.0)
        return gap < 0.02, f"fitted {fitted:.6e} vs closed form {target:.6e} (rel {gap:.2e})"

    def cavity_rate_consistency():
        # Cavity decay is the only open channel here so the transfer is a
        # clean single exponential at the closed-form rate.
        stripped = replace(
            params,
            gamma1=0.0,
            gamma2=0.0,
            gamma_flip=0.0,
            phonon_alpha1=0.0,
            phonon_alpha2=0.0,
        )
        target = rates_mod.raman_rate_cavity(
            params.omega_drive, params.g, params.delta_laser, params.kappa
        )
        if target == 0.0:
            return True, "no drive, nothing to compare"
        gen = lv.build_liouvillian(stripped)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        grid = np.linspace(0.0, 0.5 / target, 120)
        dt = float(grid[1] - grid[0])
        states = oracle.propagate_steps(gen, lv.vec(rho0), dt, grid.size - 1)
        trapped = states.reshape(-1, 4, 4)[:, G2_0, G2_0].real
        decay = fit_mod.fit_exponential(grid, trapped)
        fitted = 1.0 / decay.tau
        gap = abs(fitted / target - 1.0)
        return gap < 0.05, f"fitted {fitted:.6e} vs closed form {target:.6e} (rel {gap:.2e})"

    run("adiabatic_regime", regime_adiabatic)
    run("truncation_regime", regime_truncation)
    run("trace_preservation", trace_preservation)
    run("steady_state_physical", steady_physical)
    run("spectrum_sum_rule", sum_rule)
    run("truncation_error", truncation_distance)
    run("ladder_convergence", ladder_convergence)
    run("adiabatic_elimination", adiabatic_numeric)
    run("bare_rate_consistency", bare_rate_consistency)
    run("cavity_rate_consistency", cavity_rate_consistency)
    return checks


def cmd_validate(config: RunConfig, out: str | None, as_json: bool) -> int:
    checks = _validation_checks(config)
    all_passed = all(check["passed"] for check in checks)
    if as_json:
        _emit(json.dumps({"checks": checks, "passed": all_passed}, sort_keys=True, indent=2) + "\n", out)
    else:
        lines = []
        for check in checks:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"{status} {check['name']}: {check['detail']}")
        lines.append("validation " + ("passed" if all_passed else "FAILED"))
        _emit("\n".join(lines) + "\n", out)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value configuration file")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    for key in _PARAM_KEYS + _RUN_FLOAT_KEYS + _RUN_INT_KEYS:
        flags = [f"--{key.replace('_', '-')}"]
        if "_" in key:
            flags.append(f"--{key}")
        if key == "omega_drive":
            flags.append("--omega")
        kind = int if key in _RUN_INT_KEYS else float
        common.add_argument(*flags, dest=key, type=kind, default=None)
    common.add_argument("--rs-mode", "--rs_mode", dest="rs_mode", default=None)

    parser = argparse.ArgumentParser(
        prog="cavity-raman",
        description="Raman emission of a driven three-level emitter in a lossy cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("rates", parents=[common], help="closed-form rate summary")
    sub.add_parser("spectrum", parents=[common], help="steady-state emission spectrum")
    sub.add_parser("sweep-detuning", parents=[common], help="ratio vs shared detuning")
    sub.add_parser("sweep-cavity", parents=[common], help="ratio vs cavity detuning")
    fit_parser = sub.add_parser("fit", parents=[common], help="fit a data file")
    fit_parser.add_argument(
        "kind", choices=["lorentzian1", "lorentzian2", "exponential", "phonon-n"]
    )
    fit_parser.add_argument("input", help="CSV data file")
    sub.add_parser("validate", parents=[common], help="internal consistency checks")
    return parser


# parse_args leaves a parser as it was, so main builds one per process.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = resolve_config(args)
        if args.out:
            _check_out(args.out)
        if args.command == "rates":
            return cmd_rates(config, args.out, args.json)
        if args.command == "spectrum":
            return cmd_spectrum(config, args.out, args.json)
        if args.command == "sweep-detuning":
            return _cmd_sweep(config, args.out, args.json, "delta")
        if args.command == "sweep-cavity":
            return _cmd_sweep(config, args.out, args.json, "delta_cavity")
        if args.command == "fit":
            return cmd_fit(config, args.kind, args.input, args.out)
        if args.command == "validate":
            return cmd_validate(config, args.out, args.json)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnstableLiouvillian, NonUniqueSteadyState, DegenerateSpectrum) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
