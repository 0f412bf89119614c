"""End-to-end command line checks, run in process through cli.main, plus
subprocess smoke tests of the module entry points."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

import cavity_raman
from cavity_raman import ModelParams, cli
from cavity_raman import fit as fit_mod
from cavity_raman import liouvillian as lv
from cavity_raman import rates as rates_mod

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
    code, out, _ = run_cli(
        capsys,
        [
            "sweep-detuning",
            "--sweep-start",
            "55",
            "--sweep-stop",
            "55",
            "--sweep-count",
            "2",
        ],
    )
    assert code == 0
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

    config.write_text("not_a_key = 3\n")
    code, _, err = run_cli(capsys, ["rates", "--config", str(config)])
    assert code == 2
    assert "not_a_key" in err

    code, _, err = run_cli(capsys, ["spectrum", "--grid-points", "4"])
    assert code == 2
    assert "grid_points" in err


def test_removed_seed_knob_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep-detuning", "--seed", "0"])
    assert exc.value.code == 2
    config = tmp_path / "seeded.cfg"
    config.write_text("seed = 0\n")
    code, _, err = run_cli(capsys, ["sweep-detuning", "--config", str(config)])
    assert code == 2
    assert "'seed'" in err


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
    built = []
    build = lv.build_liouvillian

    def counting_build(params):
        built.append(params)
        return build(params)

    monkeypatch.setattr(lv, "build_liouvillian", counting_build)
    fit_mod.predict_rs(paper_params)
    assert built == [paper_params]
    built.clear()
    fit_mod.fit_emission_lines(paper_params)
    assert built == [paper_params]
    built.clear()
    code, _, _ = run_cli(capsys, ["sweep-detuning", "--sweep-count", "3"])
    assert code == 0
    assert [params.delta_laser for params in built] == [15.0, 55.0, 95.0]


def test_fit_failure_exits_4(capsys, tmp_path):
    grid = np.linspace(0.0, 5.0, 41)
    path = tmp_path / "growth.csv"
    path.write_text(
        "".join(f"{t},{np.exp(0.9 * t)}\n" for t in grid)
    )
    code, _, err = run_cli(capsys, ["fit", "exponential", str(path)])
    assert code == 4
    assert "convergence" in err


def test_non_finite_fit_input_exits_2(capsys, tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("0,1.0\n1,0.5\n2,nan\n3,0.12\n4,0.06\n")
    code, _, err = run_cli(capsys, ["fit", "exponential", str(path)])
    assert code == 2
    assert "finite" in err


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
        point, _ = fit_mod.predict_rs(trial)
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
    code, out, _ = run_cli(capsys, ["validate", "--delta-laser", "2.58"])
    assert code == 1
    failed = [
        line.split()[1].rstrip(":")
        for line in out.splitlines()
        if line.startswith("FAIL ")
    ]
    assert "adiabatic_regime" in failed
    assert "adiabatic_elimination" in failed


@pytest.mark.parametrize("module", ["cavity_raman", "cavity_raman.cli"])
def test_module_entry_points_run(module):
    src = str(Path(cavity_raman.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", module, "rates"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "omega_eff_GHz" in done.stdout
