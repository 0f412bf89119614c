"""End-to-end command line checks, run in process through cli.main, plus
subprocess smoke tests of the module entry points."""
import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

import cavity_raman
from cavity_raman import AmbiguousAssignment, ModelParams, cli
from cavity_raman import errors as errors_mod
from cavity_raman import fit as fit_mod
from cavity_raman import liouvillian as lv
from cavity_raman import oracle
from cavity_raman import rates as rates_mod
from cavity_raman import stack

# Same frozen pipeline value the fit suite pins for predict_rs at the
# default operating point; the sweep row must reproduce it bit for bit
# modulo the 17-digit text round trip.
PREDICT_RS_AREA_REF = 0.11419118598996021


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def test_rates_payload_matches_library(capsys):
    code, out, _ = run_cli(capsys, ["rates", "--json"])
    assert code == 0
    payload = json.loads(out)
    report = rates_mod.rate_report(ModelParams(), 0.0021)
    assert payload["omega_eff_GHz"] == pytest.approx(report.omega_eff, rel=1e-12)
    assert payload["r_cavity_per_ns"] == pytest.approx(report.r_cavity, rel=1e-12)
    assert payload["r_bare_per_ns"] == pytest.approx(report.r_bare, rel=1e-12)
    assert payload["enhancement"] == pytest.approx(report.enhancement, rel=1e-12)
    assert payload["purcell"] == pytest.approx(report.purcell, rel=1e-12)
    assert payload["quality_factor"] == pytest.approx(
        rates_mod.quality_factor(406.8, 53.7), rel=1e-12
    )


def test_flag_overrides_file_overrides_default(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("omega_drive = 1.0  # overridden by the flag\nkappa = 60.0\n")
    code, out, _ = run_cli(
        capsys, ["rates", "--json", "--config", str(config), "--omega", "2.0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["omega_eff_GHz"] == pytest.approx(
        rates_mod.effective_rabi(2.0, 0.8, 55.0), rel=1e-12
    )
    assert payload["r_cavity_per_ns"] == pytest.approx(
        rates_mod.raman_rate_cavity(2.0, 0.8, 55.0, 60.0), rel=1e-12
    )
    assert payload["quality_factor"] == pytest.approx(
        rates_mod.quality_factor(406.8, 60.0), rel=1e-12
    )


def test_spectrum_deterministic_with_full_header(capsys, tmp_path):
    argv = ["spectrum", "--grid-points", "401"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    code, second, _ = run_cli(capsys, argv)
    assert code == 0
    assert first == second
    header = [line for line in first.splitlines() if line.startswith("#")]
    for key in ("g", "kappa", "omega_drive", "delta_laser", "kT", "phonon_n"):
        assert any(line.startswith(f"# {key} = ") for line in header)
    assert header[-1] == "# columns: nu_lab_GHz,intensity_per_ns_per_GHz"
    rows = data_rows(first)
    assert len(rows) == 401
    assert all(float(row.split(",")[1]) >= 0.0 for row in rows)

    target = tmp_path / "spectrum.csv"
    code, piped, _ = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert piped == ""
    assert target.read_text() == first


def test_csv_writer_formats_every_cell_as_fmt(capsys):
    """The table writer's one-% formatting writes each float, the
    non-finite ones, signed zero and the extremes included, and the 0/1
    flags exactly as _fmt does."""
    values = [
        float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
        1.7976931348623157e308, 0.1, 1.0 / 3.0, 0, 1,
    ]
    rows = [(value,) for value in values]
    cli._write_csv("test", cli.RunConfig(ModelParams()), {}, ("value",), rows, None)
    text = capsys.readouterr().out
    assert text.splitlines()[-len(values) - 1] == "# columns: value"
    assert data_rows(text) == [cli._fmt(value) for value in values]


def test_spectrum_filter_zeroes_outside_band(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "spectrum",
            "--grid-points",
            "401",
            "--filter-center",
            "0",
            "--filter-width",
            "60",
            "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["frame"] == "lab"
    assert payload["filter_center"] == 0.0
    assert payload["filter_width"] == 60.0
    freqs = np.asarray(payload["nu_lab_GHz"])
    intensity = np.asarray(payload["intensity_per_ns_per_GHz"])
    outside = np.abs(freqs) > 30.0
    assert np.all(intensity[outside] == 0.0)
    assert np.max(intensity[~outside]) > 0.0


def test_sweep_detuning_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "sweep-detuning",
            "--sweep-start",
            "15",
            "--sweep-stop",
            "95",
            "--sweep-count",
            "3",
        ],
    )
    assert code == 0
    rows = [row.split(",") for row in data_rows(out)]
    assert len(rows) == 3
    deltas = [float(row[0]) for row in rows]
    assert deltas == [15.0, 55.0, 95.0]
    for row in rows:
        delta, ratio, err, r_peak, s_peak, vanishing = (float(v) for v in row)
        assert ratio > 0.0 and err > 0.0
        assert abs(r_peak + delta) < 2.0
        assert abs(s_peak) < 3.0
        assert vanishing == 0.0
    assert float(rows[1][1]) == pytest.approx(PREDICT_RS_AREA_REF, rel=1e-9)


@pytest.mark.parametrize(
    "flags",
    [["--kT", "0"], ["--phonon-n", "-1"], ["--phonon-n", "-3"],
     ["--kT", "0", "--phonon-n", "-1"]],
    ids=["cold", "phonon_n_-1", "phonon_n_-3", "cold_phonon_n_-1"],
)
def test_sweep_at_envelope_edges(capsys, flags):
    """At the edges of the validity envelope, zero temperature and negative
    phonon exponents, a sweep runs without a numeric warning, every ratio
    and error is positive and finite, and the ratio rises with detuning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["sweep-detuning", "--sweep-count", "9", *flags])
    assert code == 0, err
    rows = np.array([[float(v) for v in row.split(",")] for row in data_rows(out)])
    assert rows[:, 0].tolist() == [15.0 + 10.0 * k for k in range(9)]
    ratios, errors, vanishing = rows[:, 1], rows[:, 2], rows[:, 5]
    assert np.all(np.isfinite(ratios) & (ratios > 0.0))
    assert np.all(np.isfinite(errors) & (errors > 0.0))
    assert not vanishing.any()
    assert np.all(np.diff(ratios) > 0.0)


def test_sweep_cavity_rows_show_line_contrast(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "sweep-cavity",
            "--sweep-start",
            "55",
            "--sweep-stop",
            "155",
            "--sweep-count",
            "2",
        ],
    )
    assert code == 0
    rows = [[float(v) for v in row.split(",")] for row in data_rows(out)]
    assert [row[0] for row in rows] == [55.0, 155.0]
    matched, detuned = rows[0][1], rows[1][1]
    assert matched > 10.0 * detuned


def test_sweep_degenerate_bounds(capsys):
    """Equal bounds give equal rows in both sweeps, whose headers name the
    ratio's estimator, the fitted line areas."""
    for command in ("sweep-detuning", "sweep-cavity"):
        code, out, _ = run_cli(
            capsys, [command, "--sweep-start", "55", "--sweep-stop", "55", "--sweep-count", "2"]
        )
        assert code == 0
        assert "# rs_mode = area" in out.splitlines()
        rows = data_rows(out)
        assert len(rows) == 2
        assert rows[0] == rows[1]


def test_config_errors_exit_2(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("kappa =\n")
    code, _, err = run_cli(capsys, ["rates", "--config", str(config)])
    assert code == 2
    assert "line 1" in err and "'kappa'" in err

    code, _, err = run_cli(capsys, ["rates", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "cannot read" in err

    config.write_bytes(b"kappa = 53.7 \xb5m\n")
    code, _, err = run_cli(capsys, ["rates", "--config", str(config)])
    assert code == 2
    assert "cannot read config file" in err and "not UTF-8" in err

    config.write_text("not_a_key = 3\n")
    code, _, err = run_cli(capsys, ["rates", "--config", str(config)])
    assert code == 2
    assert "not_a_key" in err

    code, _, err = run_cli(capsys, ["spectrum", "--grid-points", "4"])
    assert code == 2
    assert "grid_points" in err


def _refusal(name, argv, message, files=(), marks=()):
    return pytest.param(dict(files), argv, message, id=name, marks=marks)


@pytest.mark.parametrize(
    "files, argv, message",
    [
        _refusal("no_equals", ["rates", "--config", "run.cfg"],
                 "line 1: expected 'key = value', got 'g 0.9'", {"run.cfg": "g 0.9\n"}),
        _refusal("no_key", ["rates", "--config", "run.cfg"],
                 "line 1: missing key before '='", {"run.cfg": " = 3\n"}),
        _refusal("duplicate_key", ["rates", "--config", "run.cfg"],
                 "line 2: duplicate key 'g'", {"run.cfg": "g = 0.9\ng = 1\n"}),
        _refusal("not_a_number", ["rates", "--config", "run.cfg"],
                 "key 'g' needs a number, got 'x'", {"run.cfg": "g = x\n"}),
        _refusal("not_an_integer", ["rates", "--config", "run.cfg"],
                 "key 'sweep_count' needs an integer, got '2.5'",
                 {"run.cfg": "sweep_count = 2.5\n"}),
        _refusal("comment_and_blank_lines", ["rates", "--config", "run.cfg"],
                 None, {"run.cfg": "# a comment\n\n"}),
        _refusal("empty_grid", ["spectrum", "--grid-min", "5", "--grid-max", "5"],
                 "grid_min 5.0 must lie below grid_max 5.0"),
        _refusal("no_sweep_points", ["rates", "--sweep-count", "0"],
                 "sweep_count must be positive, got 0"),
        _refusal("reversed_sweep", ["sweep-detuning", "--sweep-start", "50", "--sweep-stop", "40"],
                 "sweep_start 50.0 must not exceed sweep_stop 40.0"),
        _refusal("zero_filter_width", ["spectrum", "--filter-center", "0", "--filter-width", "0"],
                 "filter_width must be positive, got 0.0"),
        _refusal("four_columns", ["fit", "lorentzian1", "rows.csv"],
                 "line 1: expected 2 to 3 columns, found 4", {"rows.csv": "1,2,3,4\n"}),
        _refusal("non_numeric", ["fit", "lorentzian1", "rows.csv"],
                 "line 1: non-numeric entry in '1,a'", {"rows.csv": "1,a\n"}),
        _refusal("no_data_rows", ["fit", "lorentzian1", "rows.csv"],
                 "no data rows in rows.csv", {"rows.csv": "# only a comment\n"}),
        _refusal("negative_ratio_error", ["fit", "phonon-n", "rows.csv"],
                 "ratio_err must be nonnegative, got -0.001",
                 {"rows.csv": "15,0.04,-0.001\n55,0.1,0.002\n95,0.2,0.002\n"}),
        _refusal("full_device", ["rates", "--out", "/dev/full"],
                 "cannot write /dev/full: No space left on device",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
    ],
)
def test_refused_input_exits_2_with_its_message(
    capsys, monkeypatch, tmp_path, files, argv, message
):
    """Config file lines, run settings, data files and output files that
    cannot be used exit 2 with one line naming the fault, and print nothing
    else; comment and blank lines of a config file are skipped."""
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run_cli(capsys, argv)
    if message is None:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_plain_rates_are_the_json_payload(capsys):
    """Without --json, rates prints the JSON payload's six values as
    ``key = value`` lines, each reading back to the same float."""
    code, text, _ = run_cli(capsys, ["rates"])
    assert code == 0
    _, out, _ = run_cli(capsys, ["rates", "--json"])
    lines = [line.split(" = ") for line in text.splitlines()]
    assert all(len(pair) == 2 for pair in lines) and len(lines) == 6
    assert {key: float(value) for key, value in lines} == json.loads(out)


def test_help_says_what_each_sweep_writes(capsys):
    """sweep-cavity writes the two lines' intensities, not their ratio."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "sweep-cavity line intensities vs cavity detuning" in out
    assert "sweep-detuning ratio vs shared detuning" in out


@pytest.mark.parametrize(
    "key, value",
    [("seed", "0"), ("sweep_variable", "delta"), ("rs_mode", "area"), ("delta_g", "544")],
    ids=["seed", "sweep_variable", "rs_mode", "delta_g"],
)
def test_removed_seed_knob_exits_2(capsys, tmp_path, key, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep-detuning", "--" + key.replace("_", "-"), value])
    assert exc.value.code == 2
    config = tmp_path / "removed.cfg"
    config.write_text(f"{key} = {value}\n")
    code, _, err = run_cli(capsys, ["sweep-detuning", "--config", str(config)])
    assert code == 2
    assert f"'{key}'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--grid-max", "inf"],
        ["rates", "--gamma-bare", "inf"],
        ["rates", "--gamma-bare", "nan"],
        ["rates", "--json", "--nu0-thz", "inf"],
        ["sweep-detuning", "--sweep-stop", "inf", "--sweep-count", "2"],
    ],
    ids=["grid_max", "gamma_bare_inf", "gamma_bare_nan", "nu0_thz", "sweep_stop"],
)
def test_non_finite_run_value_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


# The documented exit code of each public error class.
EXIT_CODES = {
    "ConfigError": 2,
    "ParseError": 2,
    "DomainError": 2,
    "UnstableLiouvillian": 3,
    "NonUniqueSteadyState": 3,
    "DegenerateSpectrum": 3,
    "FitError": 4,
    "NoConvergence": 4,
    "NonDecaying": 4,
    "DegeneratePeaks": 4,
    "AmbiguousAssignment": 4,
    "IllConditioned": 4,
    "VanishingSpontaneous": 4,
}


def test_every_public_error_has_an_exit_code():
    public = {
        name
        for name, value in vars(errors_mod).items()
        if isinstance(value, type)
        and issubclass(value, errors_mod.CavityRamanError)
        and value is not errors_mod.CavityRamanError
        and not name.startswith("_")
    }
    assert public == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_error_raised_in_main_exits_with_its_code(capsys, monkeypatch, name):
    """Each error class that reaches cli.main ends the run with its code
    and one error line, and no traceback."""

    def failing(args):
        raise getattr(errors_mod, name)("the message")

    monkeypatch.setattr(cli, "resolve_config", failing)
    code, out, err = run_cli(capsys, ["rates"])
    assert code == EXIT_CODES[name]
    assert out == ""
    assert err == "error: the message\n"


def test_unusable_operating_point_exits_3(capsys):
    code, _, err = run_cli(
        capsys, ["sweep-detuning", "--omega", "0", "--sweep-count", "1"]
    )
    assert code == 3
    assert err.startswith("error:")


def test_zero_emission_sweep_exits_3(capsys):
    # gamma_flip = 0 traps the emitter in |g2,0>; the photon number left is
    # rounding noise, so there are no lines to take a ratio of.
    code, out, err = run_cli(
        capsys,
        [
            "sweep-detuning",
            "--gamma-flip",
            "0",
            "--phonon-alpha1",
            "0",
            "--phonon-alpha2",
            "0",
            "--sweep-count",
            "3",
        ],
    )
    assert code == 3
    assert out == ""
    assert "photon number" in err


def test_each_operating_point_is_solved_once(capsys, monkeypatch, paper_params):
    """Every point's charge blocks are assembled once, in grid order,
    counting the points of each stacked assembly."""
    built = []
    build = lv.charge_blocks

    def counting_build(points):
        built.extend(points)
        return build(points)

    monkeypatch.setattr(lv, "charge_blocks", counting_build)
    stack.alone(fit_mod.predict_rs, paper_params)
    assert built == [paper_params]
    built.clear()
    stack.alone(fit_mod.fit_emission_lines, paper_params)
    assert built == [paper_params]
    built.clear()
    code, _, _ = run_cli(capsys, ["sweep-detuning", "--sweep-count", "3"])
    assert code == 0
    assert [params.delta_laser for params in built] == [15.0, 55.0, 95.0]


def test_a_sweep_request_is_one_stack(capsys, monkeypatch, tmp_path):
    """A sweep of up to stack.POINTS = 128 points assembles its charge
    blocks once, as one stack; a 200-point sweep in stacks of 128 and 72
    points, and it writes the CSV, byte for byte, that stacks of 48
    write."""
    built = []
    build = lv.charge_blocks

    def counting_build(points):
        built.append(len(points))
        return build(points)

    monkeypatch.setattr(lv, "charge_blocks", counting_build)
    code, _, err = run_cli(capsys, ["sweep-detuning", "--sweep-count", "81"])
    assert code == 0, err
    assert built == [81]
    built.clear()
    tables = []
    for points in (128, 48):
        monkeypatch.setattr(stack, "POINTS", points)
        path = tmp_path / f"stacks-of-{points}.csv"
        assert cli.main(["sweep-detuning", "--sweep-count", "200", "--out", str(path)]) == 0
        tables.append(path.read_bytes())
    assert built == [128, 72, 48, 48, 48, 48, 8]
    assert len(data_rows(tables[0].decode())) == 200
    assert tables[0] == tables[1]


def test_sweep_raises_first_failure_after_vanishing_point(capsys):
    """The whole grid is fitted in one call, yet a vanishing point is still
    a flagged row, and the first failing point after it ends the sweep
    with that point's own exit code and message."""
    flags = ["--phonon-alpha2", "3", "--sweep-start", "5"]
    code, out, _ = run_cli(
        capsys, ["sweep-detuning", *flags, "--sweep-stop", "5", "--sweep-count", "1"]
    )
    assert code == 0
    (row,) = data_rows(out)
    assert row.startswith("5,") and row.endswith(",nan,nan,1")
    code, out, _ = run_cli(
        capsys, ["sweep-detuning", "--json", *flags, "--sweep-stop", "5", "--sweep-count", "1"]
    )
    assert code == 0
    # RFC 8259 has no NaN, Infinity or -Infinity.
    (payload,) = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
    assert payload["r_peak_GHz"] is None and payload["s_peak_GHz"] is None
    assert payload["vanishing"] == 1

    code, out, err = run_cli(
        capsys, ["sweep-detuning", *flags, "--sweep-stop", "15", "--sweep-count", "11"]
    )
    assert code == 4
    assert out == ""
    first = replace(ModelParams(), phonon_alpha2=3.0, delta_laser=6.0, delta_cavity=6.0)
    with pytest.raises(AmbiguousAssignment) as raised:
        stack.alone(fit_mod.predict_rs, first)
    assert err == f"error: {raised.value}\n"


def test_validate_solves_each_generator_once(capsys, monkeypatch):
    """validate assembles the four-state generator's charge blocks and
    solves their steady state once, and each photon ladder once: n_max = 3
    serves both the truncation and the convergence check, and each ladder
    is one block solve (one lv._sector_null_vectors call on its size)."""
    built, steady, ladders, block_solves = [], [0], [], []
    assemble, solve = lv.charge_blocks, lv.block_steady_state
    ladder, block_solve = oracle.full_ladder_steady_state, lv._sector_null_vectors

    def counting_blocks(params):
        built.append(params)
        return assemble(params)

    def counting_steady(state, modes):
        steady[0] += 1
        return solve(state, modes)

    def counting_ladder(params, n_max=3):
        ladders.append(n_max)
        return ladder(params, n_max)

    def counting_block_solve(zero, others, positions, size):
        block_solves.append(size)
        return block_solve(zero, others, positions, size)

    monkeypatch.setattr(lv, "charge_blocks", counting_blocks)
    monkeypatch.setattr(lv, "block_steady_state", counting_steady)
    monkeypatch.setattr(oracle, "full_ladder_steady_state", counting_ladder)
    monkeypatch.setattr(lv, "_sector_null_vectors", counting_block_solve)
    code, _, _ = run_cli(capsys, ["validate"])
    assert code == 0
    # The second assembly is the cavity-only generator of the rate check.
    assert len(built) == 2 and built[0] == [ModelParams()]
    assert built[1] == [replace(
        ModelParams(),
        gamma1=0.0,
        gamma2=0.0,
        gamma_flip=0.0,
        phonon_alpha1=0.0,
        phonon_alpha2=0.0,
    )]
    assert ladders == [3, 4]
    # The four-state steady state's block solve, then one for each ladder.
    assert block_solves == [16, oracle.LadderBasis(3).dim ** 2, oracle.LadderBasis(4).dim ** 2]
    # The four-state steady state only.
    assert steady[0] == 1


@pytest.mark.parametrize("kappa", ["1e20", "1e300", "2e307"])
def test_validate_refuses_a_cavity_rate_too_small_to_resolve(capsys, kappa):
    """A cavity so lossy that its Raman rate cannot be resolved against
    the generator fails the cavity-rate check with a DomainError naming
    the rate, before the propagation's squarings, its steps or its time
    grid overflow a float, and validate ends with its verdict."""
    code, out, err = run_cli(capsys, ["validate", "--kappa", kappa])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-1] == "validation FAILED"
    (check,) = [line for line in lines if "cavity_rate_consistency" in line]
    assert check.startswith("FAIL cavity_rate_consistency: DomainError: cavity Raman rate ")
    assert "is too small to resolve" in check


# Both ladder checks fail with the four-state checks' error.
_AS_FOUR_STATE = "the error of trace_preservation"
_UNRESOLVABLE = [
    (f"--{flag}={value}", "truncation_error", "", _AS_FOUR_STATE)
    for flag in ("delta-laser", "delta-cavity")
    for value in ("1e308", "-1e308")
] + [
    (f"--{flag}={value}", "adiabatic_elimination", "DomainError: ",
     "its Rabi period overflows a float")
    for flag in ("g", "omega")
    for value in ("1e-308", "1e-320")
] + [("--kappa=1e-308", "cavity_rate_consistency", "DomainError: ", "too large to resolve")] + [
    (argument, "cavity_rate_consistency", "fitted ", "vs closed form")
    for argument in ("--kappa=1e-33", "--kappa=1e-40", "--kappa=3e-48", "--g=1e30",
                     "--delta-laser=-1e-25")
]


@pytest.mark.parametrize(
    "argument, check, kind, reason", _UNRESOLVABLE, ids=[case[0][2:] for case in _UNRESOLVABLE]
)
def test_validate_fails_an_unresolvable_check_without_a_warning(
    capsys, argument, check, kind, reason
):
    """A parameter at which a validate check would overflow a float (the
    adiabatic check's Rabi period, the cavity-rate fit's squared decay
    time) fails that check with a DomainError naming the quantity, raises
    no numeric warning, and validate ends with its verdict.  At a laser or
    cavity detuning of +-1e308 the ladder checks fail with the four-state
    checks' error: the channel prologue's, or the assembler's for an
    overflowing Hamiltonian.  So does a cavity-rate fit whose decay time
    underflows its exponential, leaving a zero on the diagonal of its
    Gram matrix at zero cost: it fails its closed form, with a finite
    covariance."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["validate", argument])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-1] == "validation FAILED"
    failed = {line.split()[1].rstrip(":"): line for line in lines if line.startswith("FAIL ")}
    if reason == _AS_FOUR_STATE:
        error = failed["trace_preservation"].removeprefix("FAIL trace_preservation: ")
        for name in ("truncation_error", "ladder_convergence"):
            assert failed[name] == f"FAIL {name}: {error}"
    else:
        assert failed[check].startswith(f"FAIL {check}: {kind}") and reason in failed[check]


@pytest.mark.parametrize("value", ["1e308", "-1e308"])
def test_validate_names_an_overflowing_hamiltonian(capsys, value):
    """At a cavity detuning whose 2 pi (delta_laser - delta_cavity)
    overflows, the four checks that assemble the four-state generator and
    the two ladder checks fail with one message, the assembler's, naming
    the Hamiltonian, not the rates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["validate", f"--delta-cavity={value}"])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    failed = {line.split()[1].rstrip(":"): line for line in lines if line.startswith("FAIL ")}
    four_state = ["trace_preservation", "steady_state_physical", "spectrum_sum_rule",
                  "cavity_rate_consistency"]
    assert sorted(failed) == sorted(four_state + ["truncation_error", "ladder_convergence"])
    for name in four_state + ["truncation_error", "ladder_convergence"]:
        assert failed[name] == (
            f"FAIL {name}: DomainError: generator has a non-finite entry: its Hamiltonian "
            "times 2 pi overflows a float"
        )


def test_validate_refuses_an_overflowing_ladder_coupling_without_a_warning(capsys):
    """A coupling g whose ladder term g sqrt(n) overflows, with phonons off
    so that the channel prologue passes, fails the ladder checks with the
    four-state checks' error, the assembler's, and raises no numeric
    warning: that term was once added outside the errstate that covers
    the detuning terms, and its "overflow encountered in multiply" ended
    validate in a traceback under warnings-as-errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, ["validate", "--g=1.5e308", "--phonon-alpha1", "0", "--phonon-alpha2", "0"]
        )
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-1] == "validation FAILED"
    error = (
        "DomainError: generator has a non-finite entry: its Hamiltonian times 2 pi overflows "
        "a float"
    )
    for name in ("trace_preservation", "truncation_error", "ladder_convergence"):
        assert f"FAIL {name}: {error}" in lines


_UNDERFLOWING_DRIVE = {
    "g=1e-200": (["--g", "1e-200"], ["cavity_rate_consistency"]),
    "omega=1e-170": (["--omega", "1e-170"], ["cavity_rate_consistency"]),
    "g=1e-300,omega=1e-30": (
        ["--g", "1e-300", "--omega", "1e-30"],
        ["adiabatic_elimination", "cavity_rate_consistency"],
    ),
}


def test_validate_passes_no_drive_only_when_the_drive_is_off(capsys):
    """A zero coupling passes both drive checks as "no drive".  A drive
    that is on, but whose cavity Raman rate or Omega_eff underflows to
    zero, fails that check with a DomainError as too small to resolve,
    with no numeric warning, and validate ends with its verdict."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["validate", "--g", "0"])
        assert (code, err) == (0, "")
        for name in ("adiabatic_elimination", "cavity_rate_consistency"):
            assert f"PASS {name}: no drive, nothing to compare" in out.splitlines()
        for case, (flags, failing) in _UNDERFLOWING_DRIVE.items():
            code, out, err = run_cli(capsys, ["validate", *flags])
            assert (code, err) == (1, ""), case
            lines = out.splitlines()
            assert lines[-1] == "validation FAILED", case
            assert not any("no drive" in line for line in lines), case
            for name in failing:
                (line,) = [line for line in lines if line.startswith(f"FAIL {name}: ")]
                assert line.startswith(f"FAIL {name}: DomainError: "), case
                assert "is too small to resolve" in line, case


@pytest.mark.parametrize(
    "changes",
    [{}, {"gamma_flip": 0.0, "phonon_alpha1": 0.0, "phonon_alpha2": 0.0}],
    ids=["default", "no_flip_no_phonons"],
)
def test_validate_truncation_detail_is_the_oracle_distance(capsys, changes):
    """validate's truncation_error detail prints oracle.truncation_error of
    its point: the four-state state refined once, through the same code.
    Without spin flip and phonons the refinement shows: the unrefined
    state lies 1.457e-10 from the ladder, the refined one 2.988e-13."""
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in changes.items()]
    code, out, _ = run_cli(capsys, ["validate", "--json", *flags])
    assert code == 0
    (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "truncation_error"]
    distance = oracle.truncation_error(replace(ModelParams(), **changes))
    assert check["detail"] == f"trace distance {distance:.3e} (tolerance 1e-3)"


def test_fit_failure_exits_4(capsys, tmp_path):
    grid = np.linspace(0.0, 5.0, 41)
    path = tmp_path / "growth.csv"
    path.write_text(
        "".join(f"{t},{np.exp(0.9 * t)}\n" for t in grid)
    )
    code, _, err = run_cli(capsys, ["fit", "exponential", str(path)])
    assert code == 4
    assert "convergence" in err


@pytest.mark.parametrize(
    "kind, rows, code, message",
    [
        # Detunings of 1 to 9 GHz: the refit's reference sweep finds no two
        # sub-cavity-width lines to fit.
        ("phonon-n", "1,0.04\n5,0.1\n9,0.2\n", 3,
         "expected two sub-cavity-width lines, found 0"),
        ("exponential",
         "".join(f"{t},{v}\n" for t, v in enumerate([0.74, 2.52, 0.2, 0.82, 0.45, 2.8, -0.37, 0.98])),
         4, "fitted time constant -3.18891 ns is not a decay"),
        # Flat noise: the fitted tau overflows its square in the Jacobian,
        # and exp(-span / tau) rounds to 1.
        ("exponential", "0.542,-0.818\n3.459,0.149\n5.286,0.136\n6.309,-0.669\n7.678,-0.199\n",
         4, "fitted time constant 6.3912e+159 ns shows no decay over the 7.136 ns of data"),
    ],
    ids=["phonon_n_no_lines", "exponential_growth", "exponential_flat"],
)
def test_unusable_fit_data_exits_with_its_code_and_message(
    capsys, tmp_path, kind, rows, code, message
):
    """Data whose fit has no answer exits with the fit's code, 3 for an
    unusable operating point and 4 for a failed fit, with one line naming
    the fault and no warning on the way (the suite makes one an error)."""
    path = tmp_path / "rows.csv"
    path.write_text(rows)
    assert run_cli(capsys, ["fit", kind, str(path)]) == (code, "", f"error: {message}\n")


def test_non_finite_fit_input_exits_2(capsys, tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("0,1.0\n1,0.5\n2,nan\n3,0.12\n4,0.06\n")
    code, _, err = run_cli(capsys, ["fit", "exponential", str(path)])
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize(
    "kind, rows, value",
    [
        ("lorentzian1", [(float(x), 1.0) for x in range(-20, 21)], "1.0"),
        ("lorentzian2", [(float(x), -0.0 if x % 2 else 0.0) for x in range(-20, 21)], "0.0"),
        ("exponential", [(0.1 * t, 2.0) for t in range(20)], "2.0"),
    ],
    ids=["lorentzian1", "lorentzian2", "exponential"],
)
def test_constant_fit_data_exits_2(capsys, tmp_path, kind, rows, value):
    """Values that do not vary hold no line and no decay: the fit refuses
    them at exit 2, naming the value, with no warning.  Unrefused, the 41
    rows of 1.0 fitted a line of amplitude 1e-300 at the axis edge, -20,
    with a center error of 0, and the 20 rows of 2.0 a decay time of
    0.657 ns with an error of 0."""
    path = tmp_path / "constant.csv"
    path.write_text("".join(f"{x!r},{y!r}\n" for x, y in rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(capsys, ["fit", kind, str(path)])
    assert result == (2, "", f"error: the data do not vary: every value is {value}\n")


@pytest.mark.parametrize("kind", ["lorentzian1", "lorentzian2", "exponential"])
def test_fit_at_any_axis_scale_exits_cleanly(capsys, tmp_path, kind):
    """Clean data whose axis is scaled by 10^k, k = -320 ... 300 in steps
    of 10, fits with no warning and no traceback.  Within |k| <= 150 the
    fitted center (the first line's) or decay time is the unscaled fit's
    times 10^k.  Beyond, the axis's squares overflow or the square of its
    span underflows, and the data are refused at exit 2: unrefused, the
    Lorentzian fits at k = 170 ... 300 return a 17% narrow line with zero
    center errors, their center and width columns underflowing in the
    Gram matrix, and the decays warn or crash in their start."""
    if kind == "exponential":
        axis = np.linspace(0.0, 8.0, 30)
        values = 2.0 * np.exp(-axis / 1.7) + 0.3
    else:
        axis = np.linspace(-40.0, 40.0, 161)
        values = fit_mod.lorentzian_profile(axis, 2.3, -12.0, 6.0, baseline=0.1)
        values += fit_mod.lorentzian_profile(axis, 0.9, 15.0, 4.0)

    def fitted(k):
        path = tmp_path / f"scaled{k}.csv"
        path.write_text("".join(f"{x:.17g},{y:.17g}\n" for x, y in zip(axis * float(f"1e{k}"), values)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["fit", kind, str(path)])
        if code != 0:
            return code, err
        payload = json.loads(out)
        return code, payload["tau"] if kind == "exponential" else payload["peaks"][0]["center"]

    unscaled = fitted(0)[1]
    for k in range(-320, 301, 10):
        code, result = fitted(k)
        if abs(k) <= 150:
            assert code == 0, (k, result)
            assert result == pytest.approx(unscaled * float(f"1e{k}"), rel=1e-6), k
        else:
            assert code == 2, (k, result)
            assert result.startswith("error: the axis "), (k, result)


@pytest.mark.parametrize("kind", ["lorentzian1", "exponential"])
def test_unreadable_data_file_exits_2(capsys, tmp_path, kind):
    """A data file that is absent or not UTF-8 text exits 2 naming it."""
    path = tmp_path / "latin1.csv"
    code, _, err = run_cli(capsys, ["fit", kind, str(path)])
    assert code == 2
    assert f"cannot read {path}" in err
    path.write_bytes(b"# \xb5s\n0,1.0\n1,0.5\n")
    code, _, err = run_cli(capsys, ["fit", kind, str(path)])
    assert code == 2
    assert f"cannot read {path}: not UTF-8 text" in err


@pytest.mark.parametrize(
    "target, errno_code",
    [
        ("missing_directory", errno.ENOENT),
        ("directory", errno.EISDIR),
        ("trailing_separator", errno.EISDIR),
        ("not_a_directory", errno.ENOTDIR),
    ],
)
def test_unwritable_out_exits_2(capsys, tmp_path, target, errno_code):
    """An --out path in a directory that does not exist, naming a
    directory, ending in a separator or under a file exits 2 naming the
    path with the message the write itself gives, and writes nothing to
    stdout."""
    (tmp_path / "file").write_text("")
    path = {
        "missing_directory": tmp_path / "absent" / "rates.txt",
        "directory": tmp_path,
        "trailing_separator": f"{tmp_path / 'absent'}{os.sep}",
        "not_a_directory": tmp_path / "file" / "rates.txt",
    }[target]
    with pytest.raises(OSError) as written:
        open(path, "w", encoding="utf-8")
    assert written.value.errno == errno_code
    code, out, err = run_cli(capsys, ["rates", "--out", str(path)])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: {os.strerror(errno_code)}\n"


def test_unwritable_out_is_refused_before_the_work(capsys, monkeypatch, tmp_path):
    """An --out in a directory that does not exist exits 2 with the
    write-time message before any charge block is built, and
    a command that fails in its work leaves an existing --out file as it
    was."""
    built = []
    blocks = lv.charge_blocks

    def counting_blocks(params):
        built.append(params)
        return blocks(params)

    monkeypatch.setattr(lv, "charge_blocks", counting_blocks)
    path = "/nonexistent-dir/x"
    for command in (["validate"], ["sweep-detuning", "--sweep-count", "81"]):
        code, out, err = run_cli(capsys, [*command, "--out", path])
        assert (code, out, built) == (2, "", [])
        assert err == f"error: cannot write {path}: {os.strerror(errno.ENOENT)}\n"

    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    code, _, _ = run_cli(capsys, ["sweep-detuning", "--g", "0", "--out", str(kept)])
    assert code == 3 and built
    assert kept.read_text() == "earlier output\n"


def test_ragged_csv_exits_2(capsys, tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0.0,1.0\n1.0,0.5,0.1\n")
    code, _, err = run_cli(capsys, ["fit", "exponential", str(path)])
    assert code == 2
    assert "column" in err


def test_fit_lorentzian_cli_round_trip(capsys, tmp_path):
    freqs = np.linspace(-300.0, 300.0, 601)
    intensity = fit_mod.lorentzian_profile(freqs, 2.3, -55.0, 53.7, baseline=0.1)
    path = tmp_path / "line.csv"
    path.write_text(
        "# nu,intensity\n"
        + "".join(f"{nu:.17g},{val:.17g}\n" for nu, val in zip(freqs, intensity))
    )
    code, out, _ = run_cli(capsys, ["fit", "lorentzian1", str(path)])
    assert code == 0
    payload = json.loads(out)
    peak = payload["peaks"][0]
    assert peak["center"] == pytest.approx(-55.0, abs=1e-6)
    assert peak["fwhm"] == pytest.approx(53.7, rel=1e-6)
    assert peak["amplitude"] == pytest.approx(2.3, rel=1e-6)
    assert payload["baseline"] == pytest.approx(0.1, abs=1e-6)
    assert payload["residual_rms"] < 1e-8


def test_fit_exponential_cli_round_trip(capsys, tmp_path):
    times = np.linspace(0.0, 8.0, 81)
    values = 3.0 * np.exp(-times / 1.74)
    path = tmp_path / "decay.csv"
    path.write_text(
        "".join(f"{t:.17g},{v:.17g},1.0\n" for t, v in zip(times, values))
    )
    code, out, _ = run_cli(capsys, ["fit", "exponential", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == pytest.approx(1.74, abs=1e-8)
    assert payload["amplitude"] == pytest.approx(3.0, rel=1e-8)
    assert payload["baseline"] == pytest.approx(0.0, abs=1e-8)


def test_fit_phonon_cli_recovers_exponent(capsys, tmp_path):
    rows = []
    for delta in (15.0, 35.0, 55.0, 95.0):
        trial = replace(
            ModelParams(), delta_laser=delta, delta_cavity=delta,
            phonon_alpha1=1.0, phonon_alpha2=1.0, phonon_n=0.31,
        )
        point, _ = stack.alone(fit_mod.predict_rs, trial)
        rows.append(f"{delta:.17g},{point.ratio:.17g}\n")
    path = tmp_path / "ratios.csv"
    path.write_text("".join(rows))
    code, out, _ = run_cli(capsys, ["fit", "phonon-n", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == pytest.approx(0.31, abs=1e-3)
    assert payload["alpha"] == pytest.approx(1.0, rel=1e-2)
    assert len(payload["covariance"]) == 2


@pytest.mark.parametrize("bad_delta", ["0", "-10"])
def test_fit_phonon_rejects_nonpositive_detuning(capsys, tmp_path, bad_delta):
    """A detuning that is not positive is refused before any solve."""
    path = tmp_path / "ratios.csv"
    path.write_text(f"{bad_delta},0.1\n35,0.05\n55,0.1\n95,0.4\n")
    code, _, err = run_cli(capsys, ["fit", "phonon-n", str(path)])
    assert code == 2
    assert "positive" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("ratio", ["1e300", "5e-320"])
def test_fit_phonon_overflowing_density_exits_2(capsys, tmp_path, ratio):
    """A ratio so far from the pipeline's that a trial density overflows a
    float is refused at exit 2, not raised as an OverflowError."""
    path = tmp_path / "ratios.csv"
    path.write_text("".join(f"{d},{ratio},1e299\n" for d in (15, 55, 95)))
    code, _, err = run_cli(capsys, ["fit", "phonon-n", str(path)])
    assert code == 2
    assert "trial phonon density inf" in err


def test_fit_phonon_error_bars_without_finite_weight_exit_2(capsys, tmp_path):
    """Ratio errors whose inverse overflows a float cannot weight the refit:
    exit 2 before any solve, with no numeric warning."""
    path = tmp_path / "ratios.csv"
    path.write_text("15,0.04,1e-320\n55,0.1,1e-320\n95,0.2,1e-320\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["fit", "phonon-n", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: error bar 1e-320 is too small to weight: its inverse overflows\n"


@pytest.mark.parametrize("error, code", [("1e-153", 0), ("1e-154", 2), ("1e-300", 2)])
def test_fit_phonon_error_bars_whose_weighted_squares_overflow_exit_2(
    capsys, tmp_path, error, code
):
    """Ratio errors whose weighted squares overflow a float, as the LM's
    Gram matrix would, are refused at exit 2 with no numeric warning; the
    table with errors just above that refits."""
    deltas = np.linspace(15.0, 95.0, 9)
    trials = [
        replace(ModelParams(), delta_laser=d, delta_cavity=d,
                phonon_alpha1=0.8, phonon_alpha2=0.8, phonon_n=0.4)
        for d in deltas
    ]
    path = tmp_path / "ratios.csv"
    path.write_text("".join(
        f"{d:.17g},{point.ratio:.17g},{error}\n"
        for d, (point, _) in zip(deltas, fit_mod.predict_rs(trials))
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(capsys, ["fit", "phonon-n", str(path)])
    if code == 0:
        assert (got, err) == (0, "")
        assert json.loads(out)["n"] == pytest.approx(0.4, abs=1e-6)
    else:
        assert (got, out) == (2, "")
        assert err == (
            f"error: error bar {error} is too small to weight: the weighted squares overflow\n"
        )


def test_fit_phonon_error_bars_mixed_with_zeros_exit_2(capsys, tmp_path):
    """A ratio table whose errors are zero on some rows and positive on
    others is refused, not fitted unweighted."""
    path = tmp_path / "ratios.csv"
    path.write_text("15,0.04,0.001\n55,0.1,0\n95,0.2,0.002\n")
    code, out, err = run_cli(capsys, ["fit", "phonon-n", str(path)])
    assert code == 2
    assert out == ""
    assert err == (
        "error: ratio error is zero at detuning 55.0 but not at every detuning: "
        "give every ratio a positive error, or none\n"
    )


@pytest.mark.parametrize(
    "argv, rows, message",
    [
        (["sweep-detuning", "--sweep-count", "5", "--phonon-n", "300"], None,
         "phonon rates overflow a float at g = 0.8, omega_drive = 2.58, delta_laser = 15,"),
        (["sweep-detuning", "--sweep-count", "5", "--g", "1e200"], None,
         "phonon rates overflow a float at g = 1e+200,"),
        (["spectrum", "--delta-laser", "1e-200", "--delta-cavity", "1e-200",
          "--grid-points", "16"], None, "delta_laser = 1e-200,"),
        (["spectrum", "--kappa", "2e307", "--gamma1", "2e307", "--gamma2", "2e307",
          "--grid-points", "16"], None, "generator has a non-finite entry"),
        (["fit", "lorentzian1"], "".join(f"{x},{2 - abs(x)},1e-320\n" for x in range(-3, 3)),
         "error bar 1e-320 is too small to weight: its inverse overflows"),
        (["fit", "exponential"], "".join(f"{t},{0.5**t},1e-320\n" for t in range(6)),
         "error bar 1e-320 is too small to weight: its inverse overflows"),
        (["fit", "lorentzian1"], "".join(f"{x},{2 - abs(x)},1e-300\n" for x in range(-3, 3)),
         "error bar 1e-300 is too small to weight: the weighted squares overflow"),
        (["fit", "exponential"], "".join(f"{t},{0.5**t},1e-300\n" for t in range(6)),
         "error bar 1e-300 is too small to weight: the weighted squares overflow"),
        (["spectrum", "--kappa", "1e307", "--phonon-alpha1", "1e306", "--grid-points", "16"],
         None, "the spectrum normalization (2 pi)^2 kappa overflows a float"),
        (["spectrum", "--grid-points", "16", "--grid-min=-1e308", "--grid-max=1e308"], None,
         "error: the span from grid_min to grid_max overflows a float\n"),
        (["spectrum", "--grid-points", "16", "--grid-min=1e307", "--grid-max=1e308"], None,
         "error: rotating-frame frequency 3.4000000000000003e+307 GHz is too large: "
         "2 pi nu overflows a float\n"),
        (["sweep-detuning", "--sweep-count", "3", "--sweep-start=-1e308", "--sweep-stop=1e308"],
         None, "error: the span from sweep_start to sweep_stop overflows a float\n"),
        (["fit", "lorentzian1"], "".join(f"{x},{1e300 / (1 + x * x)}\n" for x in range(-3, 3)),
         "error: the data are too large to fit: their squares overflow\n"),
        (["fit", "exponential"], "".join(f"{t},{1e300 * 0.5**t}\n" for t in range(6)),
         "error: the data are too large to fit: their squares overflow\n"),
        (["rates", "--g", "1e200"], None,
         "error: computing the cavity Raman rate overflows a float\n"),
        (["rates", "--json", "--omega", "1e200"], None,
         "error: computing the cavity Raman rate overflows a float\n"),
        (["rates", "--delta-laser", "1e-200"], None,
         "error: computing the cavity Raman rate overflows a float\n"),
        (["rates", "--delta-laser", "1e-320"], None,
         "error: computing the effective Rabi frequency overflows a float\n"),
        (["rates", "--delta-laser", "1e160"], None,
         "error: computing the bare Raman rate overflows a float\n"),
        (["rates", "--kappa", "1e-320"], None,
         "error: computing the cavity Raman rate overflows a float\n"),
        (["rates", "--gamma-bare", "1e-320"], None,
         "error: computing the cavity enhancement overflows a float\n"),
        (["rates", "--json", "--nu0-thz", "1e308"], None,
         "error: computing the quality factor overflows a float\n"),
        (["sweep-cavity", "--sweep-count", "3", "--kappa", "1e308"], None,
         "error: collapse rate overflows a float (got inf 1/ns): a rate in GHz times 2 pi, "
         "or a phonon rate, is too large\n"),
        (["sweep-detuning", "--sweep-count", "3", "--phonon-alpha1", "1e308"], None,
         "error: collapse rate overflows a float (got inf 1/ns): a rate in GHz times 2 pi, "
         "or a phonon rate, is too large\n"),
        # At kT = 0 the zero occupation must not turn the infinite rate into NaN.
        (["sweep-detuning", "--sweep-count", "3", "--kT", "0", "--phonon-alpha1", "1e308"], None,
         "error: collapse rate overflows a float (got inf 1/ns): a rate in GHz times 2 pi, "
         "or a phonon rate, is too large\n"),
        (["sweep-detuning", "--sweep-count", "3", "--gamma1", "2e307", "--gamma2", "2e307"],
         None, "error: generator has a non-finite entry: its rates overflow a float\n"),
        # 2 pi (delta_laser - delta_cavity) overflows, not a rate.
        (["spectrum", "--grid-points", "16", "--delta-cavity=-1e308"], None,
         "error: generator has a non-finite entry: its Hamiltonian times 2 pi overflows a "
         "float\n"),
        (["sweep-cavity", "--sweep-count", "3", "--sweep-start=-1e308", "--sweep-stop=-1e308"],
         None, "error: generator has a non-finite entry: its Hamiltonian times 2 pi overflows "
         "a float\n"),
    ],
    ids=["phonon_n_power", "g_squared", "tiny_detuning", "generator_sum", "lorentzian_errors",
         "exponential_errors", "lorentzian_weighted_squares", "exponential_weighted_squares",
         "spectrum_normalization", "grid_span", "grid_frequency", "sweep_span",
         "lorentzian_unweighted_squares", "exponential_unweighted_squares", "rates_g",
         "rates_omega", "rates_small_detuning", "rates_denormal_detuning", "rates_large_detuning",
         "rates_kappa", "rates_enhancement", "rates_quality_factor", "collapse_rate",
         "phonon_rate", "phonon_rate_cold", "generator_sum_sweep", "hamiltonian_spectrum",
         "hamiltonian_sweep"],
)
def test_overflowing_input_exits_2(capsys, tmp_path, argv, rows, message):
    """Inputs that overflow a float on the way to a solve, a fit weight or a
    closed-form rate are refused at exit 2 with no traceback and no numeric
    warning."""
    if rows is not None:
        path = tmp_path / "data.csv"
        path.write_text(rows)
        argv = argv + [str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_one_parser_serves_many_calls(capsys, monkeypatch, tmp_path):
    """main builds its parser once per process; each call of a sequence,
    a refused flag among them, prints and returns what the same call does
    with a freshly built parser."""
    freqs = np.linspace(-40.0, 40.0, 161)
    intensity = fit_mod.lorentzian_profile(freqs, 2.3, -12.0, 6.0, baseline=0.1)
    intensity += fit_mod.lorentzian_profile(freqs, 0.9, 15.0, 4.0)
    path = tmp_path / "two.csv"
    path.write_text("".join(f"{nu:.17g},{val:.17g}\n" for nu, val in zip(freqs, intensity)))
    calls = [
        ["sweep-detuning", "--json"],
        ["sweep-detuning"],
        ["sweep-detuning", "--no-such-flag"],
        ["fit", "lorentzian2", str(path)],
        ["validate"],
    ]

    def run_all():
        results = []
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses a flag this way
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    assert cli._parser() is cli._parser()
    shared = run_all()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared == run_all()
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
    assert "unrecognized arguments: --no-such-flag" in shared[2][2]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-detuning", "--kT", "1", "--sweep-start", "100", "--sweep-stop", "800",
         "--sweep-count", "3"],
        ["spectrum", "--kT", "1", "--delta-laser", "800", "--delta-cavity", "800"],
    ],
)
def test_splitting_past_thermal_range_runs(capsys, argv):
    """A splitting of more than about 709 kT has no thermal occupation; the
    run completes instead of overflowing in n_thermal."""
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert data_rows(out)


def test_validate_default_point_passes(capsys):
    code, out, _ = run_cli(capsys, ["validate"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "validation passed"
    assert sum(line.startswith("PASS ") for line in lines) == 10
    assert not any(line.startswith("FAIL ") for line in lines)


def test_validate_flags_broken_truncation(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--gamma-flip", "53.7", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failed = [check["name"] for check in payload["checks"] if not check["passed"]]
    assert failed == ["truncation_regime"]


def test_validate_flags_broken_adiabaticity(capsys):
    """Near resonance, and at a drive whose closed forms overflow a float:
    all ten checks are listed, and an overflow fails its own check with a
    DomainError detail instead of ending the run."""
    for flags, overflowing in (
        (["--delta-laser", "2.58"], []),
        (["--omega", "1e200"], ["adiabatic_elimination", "cavity_rate_consistency"]),
    ):
        code, out, _ = run_cli(capsys, ["validate", *flags])
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 11 and lines[-1] == "validation FAILED"
        failed = {line.split()[1].rstrip(":"): line for line in lines if line.startswith("FAIL ")}
        assert "adiabatic_regime" in failed
        assert "adiabatic_elimination" in failed
        for name in overflowing:
            assert failed[name].startswith(f"FAIL {name}: DomainError: computing ")


def test_validate_flags_a_degenerate_ladder(capsys):
    """Without any dissipation the steady state is not unique: each check
    that solves one fails with NonUniqueSteadyState, the two ladder checks
    among them, and the cavity rate check has no decay to fit; the run
    lists all ten checks and exits 1."""
    code, out, _ = run_cli(capsys, [
        "validate", "--json", "--kappa", "0", "--gamma1", "0", "--gamma2", "0",
        "--gamma-flip", "0", "--phonon-alpha1", "0", "--phonon-alpha2", "0",
    ])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False and len(payload["checks"]) == 10
    failed = {check["name"]: check["detail"] for check in payload["checks"] if not check["passed"]}
    assert list(failed) == [
        "truncation_regime", "steady_state_physical", "spectrum_sum_rule",
        "truncation_error", "ladder_convergence", "cavity_rate_consistency",
    ]
    for name in ("truncation_error", "ladder_convergence"):
        assert failed[name].startswith("NonUniqueSteadyState: ")


def fresh_python(*args, **env):
    """Run a fresh interpreter on the package in this checkout."""
    src = str(Path(cavity_raman.__file__).resolve().parent.parent)
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["cavity_raman", "cavity_raman.cli"])
def test_module_entry_points_run(module):
    assert "omega_eff_GHz" in fresh_python("-m", module, "rates")


NO_SCIPY = """
import contextlib, io, json, sys
from cavity_raman import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
scipy = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(json.dumps([codes, scipy]))
"""


def test_no_command_imports_scipy(tmp_path):
    """scipy is a test dependency only: in a fresh interpreter, every
    command, validate's time-domain checks included, runs without
    importing any scipy module."""
    freqs = np.linspace(-40.0, 40.0, 161)
    one_line = fit_mod.lorentzian_profile(freqs, 2.3, -12.0, 6.0, baseline=0.1)
    two_lines = one_line + fit_mod.lorentzian_profile(freqs, 0.9, 15.0, 4.0)
    times = np.linspace(0.0, 8.0, 81)
    ratios = []
    for delta in (15.0, 55.0, 95.0):
        trial = replace(
            ModelParams(), delta_laser=delta, delta_cavity=delta,
            phonon_alpha1=1.0, phonon_alpha2=1.0, phonon_n=0.31,
        )
        ratios.append((delta, stack.alone(fit_mod.predict_rs, trial)[0].ratio))
    files = {
        "lorentzian1": zip(freqs, one_line),
        "lorentzian2": zip(freqs, two_lines),
        "exponential": zip(times, 3.0 * np.exp(-times / 1.74)),
        "phonon-n": ratios,
    }
    calls = [
        ["rates"],
        ["spectrum"],
        ["sweep-detuning", "--sweep-count", "9"],
        ["sweep-cavity", "--sweep-count", "9"],
        ["validate"],
    ]
    for kind, rows in files.items():
        path = tmp_path / f"{kind}.csv"
        path.write_text("".join(f"{x:.17g},{y:.17g}\n" for x, y in rows))
        calls.append(["fit", kind, str(path)])
    codes, scipy = json.loads(fresh_python("-c", NO_SCIPY, json.dumps(calls)))
    assert codes == [0] * len(calls)
    assert scipy == []
