"""Command line interface.

The subcommands are the ``_COMMANDS`` table: a closed-form rate summary,
the emission spectrum CSV, the two ratio pipelines over a detuning grid,
standalone least-squares fits of data files and the internal consistency
suite.

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
from .model import DIM, FIELDS, G1_0, G2_0, ModelParams


@dataclass(frozen=True)
class RunConfig:
    """Resolved runtime configuration: physics plus sweep and output knobs."""

    params: ModelParams
    gamma_bare: float = 0.0021
    nu0_thz: float = 406.8
    grid_min: float = -120.0
    grid_max: float = 40.0
    sweep_start: float = 15.0
    sweep_stop: float = 95.0
    filter_center: float | None = None
    filter_width: float = 120.0
    # The int fields come last: flags are registered in field order.
    grid_points: int = 1601
    sweep_count: int = 9

    def __post_init__(self):
        for key, kind in _RUN_KINDS.items():
            value = getattr(self, key)
            if kind is float and value is not None and not math.isfinite(value):
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
        if self.filter_width <= 0.0:
            raise ConfigError(f"filter_width must be positive, got {self.filter_width}")


# Config key -> type of each run knob, in field order; every ModelParams
# key is a float.
_RUN_KINDS = {
    f.name: int if f.type == "int" else float for f in fields(RunConfig) if f.name != "params"
}


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


def _convert(key: str, value: str) -> float | int:
    kind = float if key in FIELDS else _RUN_KINDS.get(key)
    if kind is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return kind(value)
    except ValueError:
        need = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r} needs {need}, got {value!r}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and command line flags, in that order."""
    values: dict[str, float | int] = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            values[key] = _convert(key, raw)
    for key in (*FIELDS, *_RUN_KINDS):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    params = ModelParams(**{k: values.pop(k) for k in list(values) if k in FIELDS})
    return RunConfig(params=params, **values)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(
    command: str, config: RunConfig, extra: dict, names: tuple[str, ...], rows, out: str | None
) -> None:
    """:func:`_emit` a table: every parameter and ``extra`` as sorted
    ``# key = value`` lines, the ``# columns:`` line, then ``rows``, an
    iterable of rows, each cell of a float or int as :func:`_fmt` writes it."""
    entries = {key: getattr(config.params, key) for key in FIELDS} | extra
    lines = [f"# cavity-raman {command}"]
    lines.extend(f"# {key} = {_fmt(entries[key])}" for key in sorted(entries))
    lines.append("# columns: " + ",".join(names))
    # One % writes the whole text, so a million-row table is never copied:
    # "%.17g" writes a float as _fmt does, and the integer 0 or 1 as str does.
    cells = tuple(cell for row in rows for cell in row)
    row_format = ",".join(["%.17g"] * len(names)) + "\n"
    header = "".join(line.replace("%", "%%") + "\n" for line in lines)
    _emit((header + row_format * (len(cells) // len(names))) % cells, out)


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


def _emit_json(payload, out: str | None, indent: int | None = None) -> None:
    """:func:`_emit` ``payload`` as strict JSON (RFC 8259): a non-finite
    number is written as null."""
    dumps = functools.partial(json.dumps, allow_nan=False, sort_keys=True, indent=indent)
    try:
        text = dumps(payload)
    except ValueError:  # a non-finite number: read back as None
        text = dumps(json.loads(json.dumps(payload), parse_constant=lambda name: None))
    _emit(text + "\n", out)


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


def cmd_rates(config: RunConfig, args: argparse.Namespace) -> int:
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
    if args.json:
        _emit_json(payload, args.out, indent=2)
    else:
        text = "".join(f"{key} = {_fmt(value)}\n" for key, value in payload.items())
        _emit(text, args.out)
    return 0


def cmd_spectrum(config: RunConfig, args: argparse.Namespace) -> int:
    grid = np.linspace(config.grid_min, config.grid_max, config.grid_points)
    spec = spectrum_mod.emission_spectrum(config.params, grid)
    window = None
    if config.filter_center is not None:
        window = spectrum_mod.FilterWindow(config.filter_center, config.filter_width)
        spec = spectrum_mod.apply_filter(spec, window)
    if args.json:
        payload = {
            "nu_lab_GHz": list(spec.freqs),
            "intensity_per_ns_per_GHz": list(spec.intensity),
            "frame": "lab",
            "filter_center": window.center if window else None,
            "filter_width": window.width if window else None,
        }
        _emit_json(payload, args.out)
        return 0
    extra = {
        "grid_min": config.grid_min,
        "grid_max": config.grid_max,
        "grid_points": config.grid_points,
        "filter_center": config.filter_center if window else "none",
        "filter_width": config.filter_width if window else "none",
    }
    names = ("nu_lab_GHz", "intensity_per_ns_per_GHz")
    rows = zip(spec.freqs.tolist(), spec.intensity.tolist())
    _write_csv(args.command, config, extra, names, rows, args.out)
    return 0


def _sweep_grid(config: RunConfig) -> list[float]:
    return np.linspace(config.sweep_start, config.sweep_stop, config.sweep_count).tolist()


def _detuning_rows(config: RunConfig) -> tuple[tuple[str, ...], list[tuple]]:
    """Columns and rows of the ratio pipeline over a laser-detuning grid; the
    whole grid is fitted in one call, and the first failing point raises."""
    grid = _sweep_grid(config)
    trials = [replace(config.params, delta_laser=value, delta_cavity=value) for value in grid]
    rows = []
    for value, outcome in zip(grid, fit_mod.predict_rs(trials)):
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
    names = ("delta_GHz", "ratio", "ratio_err", "r_peak_GHz", "s_peak_GHz", "vanishing")
    return names, rows


def _cavity_rows(config: RunConfig) -> tuple[tuple[str, ...], list[tuple]]:
    """Columns and rows of the line intensities over a cavity-detuning grid at
    fixed laser detuning, fitted as :func:`_detuning_rows` fits its grid."""
    grid = _sweep_grid(config)
    trials = [replace(config.params, delta_cavity=value) for value in grid]
    rows = []
    for value, outcome in zip(grid, fit_mod.fit_emission_lines(trials)):
        if isinstance(outcome, Exception):
            raise outcome
        raman_fit, spont_fit = outcome
        rows.append((value, raman_fit.peaks[0].area, spont_fit.peaks[0].area))
    return ("delta_cavity_GHz", "raman_intensity", "spont_intensity"), rows


def _cmd_sweep(sweep_rows, config: RunConfig, args: argparse.Namespace) -> int:
    """Write the columns and rows that ``sweep_rows(config)`` returns."""
    names, rows = sweep_rows(config)
    if args.json:
        _emit_json([dict(zip(names, row)) for row in rows], args.out)
        return 0
    extra = {
        "sweep_start": config.sweep_start,
        "sweep_stop": config.sweep_stop,
        "sweep_count": config.sweep_count,
        # The ratio is always of fitted line areas; the header says so.
        "rs_mode": "area",
    }
    _write_csv(args.command, config, extra, names, rows, args.out)
    return 0


def cmd_fit(config: RunConfig, args: argparse.Namespace) -> int:
    data = _read_numeric_csv(args.input, 2, 3)
    errors = data[:, 2] if data.shape[1] == 3 else None
    if args.kind == "phonon-n":
        points = [
            fit_mod.RsPoint(row[0], row[1], row[2] if errors is not None else 0.0) for row in data
        ]
        result = fit_mod.fit_phonon_exponent(points, config.params)
        payload = {
            "n": result.exponent,
            "n_err": result.exponent_err,
            "alpha": result.prefactor,
            "alpha_err": result.prefactor_err,
            "covariance": [list(row) for row in result.covariance],
        }
    else:
        if args.kind == "exponential":
            result = fit_mod.fit_exponential(data[:, 0], data[:, 1], errors=errors)
        else:
            n_peaks = 1 if args.kind == "lorentzian1" else 2
            result = fit_mod.fit_lorentzian(data[:, 0], data[:, 1], n_peaks=n_peaks, errors=errors)
        # Every field of the fit but its iteration count, peaks included.
        payload = asdict(result)
        del payload["iterations"]
    _emit_json(payload, args.out, indent=2)
    return 0


def _validation_checks(config: RunConfig) -> list[dict]:
    params = config.params
    checks: list[dict] = []

    def run(name: str, thunk) -> None:
        try:
            passed, detail = thunk()
        except CavityRamanError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

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
    # The generator is solved on its charge blocks, as every sweep, fit and
    # spectrum solves it.
    blocks = functools.cache(lambda: lv.charge_blocks(params))
    steady = functools.cache(lambda: lv.block_steady_state(*blocks()))
    ladder = functools.cache(lambda n_max: oracle.full_ladder_steady_state(params, n_max))

    def trace_preservation():
        # The trace functional vec(I) lives in the q = 0 block, and the
        # blocks hold every nonzero entry of the generator (the q = +1
        # block is the conjugate of the q = -1 one).
        state, modes = blocks()
        probe = lv.vec(np.eye(4)).conj()[lv.STATE_BLOCK] @ state
        worst = float(np.max(np.abs(probe)))
        scale = float(max(np.max(np.abs(state)), np.max(np.abs(modes))))
        return worst <= 1e-10 * scale, f"|Tr L rho| <= {worst:.3e} (scale {scale:.3e})"

    def steady_physical():
        rho = steady()
        lowest = float(np.min(np.linalg.eigvalsh(rho)))
        trace = float(np.trace(rho).real)
        ok = lowest >= -1e-9 and abs(trace - 1.0) <= 1e-9
        return ok, f"min eigenvalue {lowest:.3e}, trace {trace:.12f}"

    def sum_rule():
        lambdas, residues, photons = spectrum_mod.block_modes(blocks()[1], steady())
        gap = abs(complex(np.sum(residues)) - photons)
        return gap <= 1e-10, f"|sum residues - <n>| = {gap:.3e}"

    def truncation_distance():
        solved = ladder(3)
        distance = oracle.truncation_distance(blocks()[0], steady(), solved)
        return distance < 1e-3, f"trace distance {distance:.3e} (tolerance 1e-3)"

    def ladder_convergence():
        distance = oracle.ladder_distance(ladder(3), ladder(4))
        return distance < 1e-9, f"n_max 3 vs 4 trace distance {distance:.3e}"

    # Only a drive that is off is no drive: one whose closed-form rate
    # underflows to zero is too small to resolve.
    undriven = params.omega_drive == 0.0 or params.g == 0.0

    def adiabatic_numeric():
        if undriven:
            return True, "no drive, nothing to compare"
        omega_eff = rates_mod.effective_rabi(
            params.omega_drive, params.g, params.delta_laser
        )
        period = 1.0 / (2.0 * abs(omega_eff)) if omega_eff != 0.0 else math.inf
        if math.isinf(period):
            raise DomainError(
                f"effective Rabi frequency Omega_eff = {omega_eff:.3e} GHz is too small to "
                "resolve: its Rabi period overflows a float"
            )
        grid = np.linspace(0.0, 1.2 * period, 400)
        exact, effective, excited = oracle.adiabatic_populations(
            params.omega_drive, params.g, params.delta_laser, grid
        )
        error = float(np.max(np.abs(exact - effective)))
        weight = float(np.max(excited))
        ok = error < 5e-3 and weight < 5e-3
        return ok, f"population error {error:.3e}, excited weight {weight:.3e}"

    # 1/tau of an exponential fitted to ``trace`` against the closed form.
    def decay_rate(grid, trace, target: float, tolerance: float):
        fitted = 1.0 / fit_mod.fit_exponential(grid, trace).tau
        gap = abs(fitted / target - 1.0)
        return gap < tolerance, f"fitted {fitted:.6e} vs closed form {target:.6e} (rel {gap:.2e})"

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
        return decay_rate(grid, pops[:, 1], target, 0.02)

    def cavity_rate_consistency():
        if undriven:
            return True, "no drive, nothing to compare"
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
            raise DomainError("cavity Raman rate 0 1/ns is too small to resolve: it underflows")
        # The fit's Jacobian divides by the decay time squared, and its
        # normal equations hold the rate squared times the samples: refuse a
        # rate whose square comes within 1e8 of overflowing.
        if target > 1e-4 * math.sqrt(sys.float_info.max):
            raise DomainError(
                f"cavity Raman rate {target:.3e} 1/ns is too large to resolve: the "
                "exponential fit's normal equations would overflow a float"
            )
        # The populations evolve in the q = 0 block alone.
        state, _ = lv.charge_blocks(stripped)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[G1_0, G1_0] = 1.0
        with np.errstate(invalid="ignore"):  # propagate refuses an infinite grid
            grid = np.linspace(0.0, 0.5 / target, 120)
        try:
            states = oracle.propagate(state, lv.vec(rho0)[lv.STATE_BLOCK], grid)
        except DomainError as exc:
            raise DomainError(
                f"cavity Raman rate {target:.3e} 1/ns is too small to resolve: {exc}"
            ) from None
        # The |g2,0> population, vec position G2_0 * (DIM + 1), in the block.
        trapped = np.searchsorted(lv.STATE_BLOCK, G2_0 * (DIM + 1))
        return decay_rate(grid, states[:, trapped].real, target, 0.05)

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


def cmd_validate(config: RunConfig, args: argparse.Namespace) -> int:
    checks = _validation_checks(config)
    all_passed = all(check["passed"] for check in checks)
    if args.json:
        _emit_json({"checks": checks, "passed": all_passed}, args.out, indent=2)
    else:
        lines = []
        for check in checks:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"{status} {check['name']}: {check['detail']}")
        lines.append("validation " + ("passed" if all_passed else "FAILED"))
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_passed else 1


# Subcommand -> (help, handler(config, args) returning the exit code, then
# its positional arguments as (name, add_argument keywords)), in help order.
_COMMANDS = {
    "rates": ("closed-form rate summary", cmd_rates),
    "spectrum": ("steady-state emission spectrum", cmd_spectrum),
    "sweep-detuning": ("ratio vs shared detuning", functools.partial(_cmd_sweep, _detuning_rows)),
    "sweep-cavity": ("ratio vs cavity detuning", functools.partial(_cmd_sweep, _cavity_rows)),
    "fit": (
        "fit a data file",
        cmd_fit,
        ("kind", {"choices": ["lorentzian1", "lorentzian2", "exponential", "phonon-n"]}),
        ("input", {"help": "CSV data file"}),
    ),
    "validate": ("internal consistency checks", cmd_validate),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value configuration file")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    for key in (*FIELDS, *_RUN_KINDS):
        flags = [f"--{key.replace('_', '-')}"]
        if "_" in key:
            flags.append(f"--{key}")
        if key == "omega_drive":
            flags.append("--omega")
        common.add_argument(*flags, dest=key, type=_RUN_KINDS.get(key, float), default=None)

    parser = argparse.ArgumentParser(
        prog="cavity-raman",
        description="Raman emission of a driven three-level emitter in a lossy cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, *positionals) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        for dest, options in positionals:
            command.add_argument(dest, **options)
    return parser


# parse_args leaves a parser as it was, so main builds one per process.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = resolve_config(args)
        if args.out:
            _check_out(args.out)
        return _COMMANDS[args.command][1](config, args)
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
