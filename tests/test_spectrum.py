"""Emission spectra: mode decomposition, frames, filtering, line roles."""
import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
from cavity_raman import (
    DegenerateSpectrum,
    DomainError,
    FilterWindow,
    FrameError,
    ModelParams,
    NonUniqueSteadyState,
    Spectrum,
    apply_filter,
    build_hamiltonian,
    build_liouvillian,
    classify_lines,
    correlation_modes,
    emission_spectrum,
    frame_shift,
    rotating_spectrum,
    steady_state,
)
from cavity_raman import liouvillian as lv
from cavity_raman import oracle
from cavity_raman import spectrum as spectrum_mod
from cavity_raman.model import COHERENT_BLOCK, G2_0
from cavity_raman.spectrum import mixture_intensity
from reference_values import PHOTON_NUMBER_REF

TWO_PI = 2.0 * math.pi

# Frozen from this code at the default operating point; guards refactors.
RS_RATIO_REF = 0.11399970748751928
RATIO_OF_RATIOS_SMALL_ALPHA_REF = 226.59768691207938
RATIO_OF_RATIOS_UNIT_ALPHA_REF = 12.04908407989722


def test_residues_sum_to_photon_number(paper_params):
    lambdas, residues, nbar = correlation_modes(paper_params)
    assert nbar == pytest.approx(PHOTON_NUMBER_REF, rel=1e-9)
    assert np.sum(residues).real == pytest.approx(nbar, rel=1e-12)
    assert abs(np.sum(residues).imag) < 1e-12 * nbar
    # All relaxing modes decay.
    assert np.max(lambdas[np.abs(residues) > 0].real) < 0.0


def test_generator_modes_match_correlation_modes(paper_params):
    gen = build_liouvillian(paper_params)
    modes = spectrum_mod.generator_modes(gen, steady_state(gen))
    for got, expected in zip(modes, correlation_modes(paper_params)):
        np.testing.assert_array_equal(got, expected)


def test_generator_splits_into_charge_blocks_with_three_modes():
    """The generator is block-diagonal in the charge q = [i = g2,0] -
    [j = g2,0] of |i><j|: every entry between two charges is exactly 0.  So
    the field correlation has exactly three modes, which correlation_modes
    reads from the q = +1 block.  The oracle solves the whole 16 x 16
    np.kron generator with np.linalg.svd, eig and solve, sharing no code
    with the block route."""
    rng = np.random.default_rng(43)
    drawn = [helpers.random_valid_params(rng) for _ in range(30)]
    points = (
        drawn[:10]
        + [replace(p, phonon_alpha1=0.0, phonon_alpha2=0.0) for p in drawn[10:20]]
        + [replace(p, kT=0.0) for p in drawn[20:]]
    )
    # Charge of each vec index i + 4 j, |i><j|.
    charge = np.array([(i == G2_0) - (j == G2_0) for j in range(4) for i in range(4)])
    between = charge[:, None] != charge[None, :]
    a_op = lv.cavity_annihilation()
    gens = build_liouvillian(points)
    assert gens.shape == (len(points), 16, 16)
    for params, gen, modes in zip(points, gens, correlation_modes(points)):
        assert np.all(gen[between] == 0.0)

        full = helpers.kron_liouvillian(params)
        rho = np.linalg.svd(full)[2][-1].conj().reshape(4, 4, order="F")
        rho = rho / np.trace(rho)
        lambdas, rvecs = np.linalg.eig(full)
        weights = np.linalg.solve(rvecs, lv.vec(a_op @ rho))
        residues = (lv.vec(a_op).conj() @ rvecs) * weights
        carrying = np.abs(residues) > 1e-20 * np.max(np.abs(residues))
        assert np.count_nonzero(carrying) == 3

        block_lambdas, block_residues, _ = modes
        assert block_lambdas.shape == block_residues.shape == (3,)
        scale = np.sum(np.abs(block_residues))
        for lam, res in zip(lambdas[carrying], residues[carrying]):
            j = np.argmin(np.abs(block_lambdas - lam))
            assert abs(block_lambdas[j] - lam) <= 1e-11 * abs(lam)
            assert abs(block_residues[j] - res) <= 1e-11 * scale


def test_dark_cavity_emits_nothing(paper_params):
    dark = replace(paper_params, g=0.0, phonon_alpha1=0.0, phonon_alpha2=0.0)
    _, residues, nbar = correlation_modes(dark)
    assert nbar < 1e-15
    assert np.sum(np.abs(residues)) < 1e-15


@pytest.mark.parametrize(
    "changes",
    [
        {"gamma_flip": 0.0},
        {"gamma_flip": 0.0, "phonon_alpha1": 0.0, "phonon_alpha2": 0.0},
        {"g": 0.0, "phonon_alpha1": 0.0, "phonon_alpha2": 0.0},
    ],
    ids=["no_flip", "no_flip_no_phonons", "dark_cavity"],
)
def test_classify_rejects_zero_emission(paper_params, changes):
    # The photon number here is rounding noise of either sign (|n| < 1e-16),
    # and so are the areas of any lines read from it.
    silent = replace(paper_params, **changes)
    with pytest.raises(DegenerateSpectrum, match="photon number"):
        classify_lines(silent)


def test_classified_modes_are_the_correlation_modes(paper_params):
    lines = classify_lines(paper_params)
    lambdas, residues, nbar = correlation_modes(paper_params)
    assert np.array_equal(lines.lambdas, lambdas)
    assert np.array_equal(lines.residues, residues)
    assert lines.photon_number == nbar


def test_correlation_routes_agree(paper_params):
    gen = build_liouvillian(paper_params)
    rho_ss = steady_state(gen)
    lambdas, residues, nbar = correlation_modes(paper_params)
    taus = np.linspace(0.0, 0.5, 33)
    # Stepping the propagator avoids the eigendecomposition, so the two
    # routes are independent.
    a_op = lv.cavity_annihilation()
    states = oracle.propagate_steps(gen, lv.vec(a_op @ rho_ss), taus[1], taus.size - 1)
    direct = states @ lv.vec(a_op).conj()
    from_modes = np.array([np.sum(residues * np.exp(lambdas * t)) for t in taus])
    assert direct[0].real == pytest.approx(nbar, rel=1e-12)
    assert np.max(np.abs(direct - from_modes)) < 1e-10 * nbar
    assert np.max(np.abs(direct)) <= abs(direct[0]) * (1.0 + 1e-12)


def test_total_flux_sum_rule(paper_params):
    _, _, nbar = correlation_modes(paper_params)
    grid = np.linspace(-1255.0, 1145.0, 300001)
    spectrum = emission_spectrum(paper_params, grid)
    flux = np.trapezoid(spectrum.intensity, grid)
    # Cavity-wide pedestal tails leak ~0.5% past +-1200 GHz.
    assert flux == pytest.approx(TWO_PI * paper_params.kappa * nbar, rel=1e-2)


def test_line_areas_sum_to_flux(paper_params):
    _, _, nbar = correlation_modes(paper_params)
    lines = classify_lines(paper_params)
    areas = [lines.raman[2], lines.spontaneous[2]] + [line[2] for line in lines.background]
    assert np.sum(areas) == pytest.approx(TWO_PI * paper_params.kappa * nbar, rel=1e-10)


def test_classified_line_positions(paper_params):
    lines = classify_lines(paper_params)
    # Rotating frame: transfer line near zero, spontaneous near the drive
    # detuning, both pulled slightly by light shifts.
    assert abs(lines.raman[0]) < 2.0
    assert abs(lines.spontaneous[0] - paper_params.delta_laser) < 3.0
    assert 0.0 < lines.raman[1] < paper_params.kappa / 2.0
    assert 0.0 < lines.spontaneous[1] < paper_params.kappa / 2.0
    assert lines.raman[2] > 0.0
    assert lines.spontaneous[2] > 0.0
    # The broad remainder is the cavity-filtered pedestal.
    assert any(width > paper_params.kappa / 2.0 for _, width, _ in lines.background)


def test_classify_degenerate_roles(paper_params):
    collapsed = replace(
        paper_params,
        delta_laser=0.0,
        delta_cavity=0.0,
        phonon_alpha1=0.0,
        phonon_alpha2=0.0,
    )
    with pytest.raises(DegenerateSpectrum):
        classify_lines(collapsed)


def _area_ratio(params):
    lines = classify_lines(params)
    return lines.raman[2] / lines.spontaneous[2]


def test_rs_ratio_regression(paper_params):
    assert _area_ratio(paper_params) == pytest.approx(RS_RATIO_REF, rel=1e-9)


def _ratio_of_ratios(params, alpha):
    def ratio(detuning):
        point = replace(
            params,
            delta_laser=detuning,
            delta_cavity=detuning,
            phonon_alpha1=alpha,
            phonon_alpha2=alpha,
        )
        return _area_ratio(point)

    return ratio(88.0) / ratio(15.0)


def test_ratio_of_ratios_alpha_independent_when_weak(paper_params):
    base = _ratio_of_ratios(paper_params, 1e-12)
    assert base == pytest.approx(RATIO_OF_RATIOS_SMALL_ALPHA_REF, rel=1e-7)
    assert _ratio_of_ratios(paper_params, 2e-12) == pytest.approx(base, rel=1e-6)


def test_ratio_of_ratios_saturates_at_unit_alpha(paper_params):
    value = _ratio_of_ratios(paper_params, 1.0)
    assert value == pytest.approx(RATIO_OF_RATIOS_UNIT_ALPHA_REF, rel=1e-7)
    # Saturation: away from the weak-coupling limit the invariance is gone.
    assert abs(_ratio_of_ratios(paper_params, 2.0) / value - 1.0) > 0.1


def test_frame_shift_moves_axis(paper_params):
    grid = np.linspace(-10.0, 120.0, 27)
    rot = rotating_spectrum(paper_params, grid)
    assert rot.frame == "rotating"
    lab = frame_shift(rot, paper_params)
    assert lab.frame == "lab"
    assert np.allclose(lab.freqs, grid - paper_params.delta_cavity)
    np.testing.assert_array_equal(lab.intensity, rot.intensity)
    with pytest.raises(FrameError):
        frame_shift(lab, paper_params)


def test_emission_spectrum_equals_shifted_rotating(paper_params):
    lab_grid = np.linspace(-80.0, 20.0, 51)
    via_lab = emission_spectrum(paper_params, lab_grid)
    via_rot = frame_shift(
        rotating_spectrum(paper_params, lab_grid + paper_params.delta_cavity),
        paper_params,
    )
    np.testing.assert_allclose(via_lab.intensity, via_rot.intensity, rtol=1e-13)
    np.testing.assert_allclose(via_lab.freqs, via_rot.freqs)


def test_filter_band_selects_lines(paper_params):
    grid = np.array([-70.0, -55.0, 0.0, 30.0])
    window = FilterWindow(center=0.0, width=120.0)
    passing = apply_filter(emission_spectrum(paper_params, grid), window)
    assert passing.intensity[0] == 0.0
    assert np.all(passing.intensity[1:] > 0.0)
    assert passing.filter_window == window
    shifted = replace(paper_params, delta_laser=70.0, delta_cavity=70.0)
    clipped = apply_filter(emission_spectrum(shifted, grid), window)
    # The transfer line at -70 GHz now falls outside the pass band.
    assert clipped.intensity[0] == 0.0
    assert clipped.intensity[2] > 0.0


def test_filter_frame_and_reuse_guards(paper_params):
    grid = np.linspace(-80.0, 20.0, 11)
    window = FilterWindow(0.0, 120.0)
    with pytest.raises(FrameError):
        apply_filter(rotating_spectrum(paper_params, grid + 55.0), window)
    filtered = apply_filter(emission_spectrum(paper_params, grid), window)
    with pytest.raises(DomainError):
        apply_filter(filtered, window)
    with pytest.raises(DomainError):
        FilterWindow(0.0, 0.0)
    with pytest.raises(DomainError):
        FilterWindow(math.nan, 10.0)


def test_mixture_intensity_zero_modes():
    values = mixture_intensity(
        np.linspace(-5.0, 5.0, 7),
        np.array([-1.0 + 0.0j]),
        np.array([0.0 + 0.0j]),
        53.7,
    )
    np.testing.assert_array_equal(values, np.zeros(7))


def test_mixture_intensity_blocks_are_bitwise_one_call(monkeypatch, paper_params):
    """Evaluating in blocks bounds memory and changes no bit: a 2-d axis in
    blocks of 7 points equals the same axis in one block, in its shape."""
    lambdas, residues, _ = correlation_modes(paper_params)
    nu = np.linspace(-120.0, 40.0, 150).reshape(3, 50)
    whole = mixture_intensity(nu, lambdas, residues, paper_params.kappa)
    monkeypatch.setattr(spectrum_mod, "MIXTURE_BLOCK", 7)
    blocked = mixture_intensity(nu, lambdas, residues, paper_params.kappa)
    assert blocked.shape == nu.shape
    np.testing.assert_array_equal(blocked, whole)
    np.testing.assert_array_equal(
        blocked[1], mixture_intensity(nu[1], lambdas, residues, paper_params.kappa)
    )


def test_mixture_intensity_refuses_overflowing_normalization(paper_params):
    """(2 pi)^2 kappa overflows a float above about 4.5e306 GHz: refused,
    with no warning, instead of NaN intensities."""
    lambdas, residues, _ = correlation_modes(paper_params)
    with pytest.raises(DomainError, match="normalization"):
        mixture_intensity(np.linspace(-5.0, 5.0, 7), lambdas, residues, 1e307)
    with pytest.raises(DomainError, match="normalization"):
        mixture_intensity(
            np.zeros((2, 3)), np.stack([lambdas] * 2), np.stack([residues] * 2),
            np.array([53.7, 1e307]),
        )


def test_spectrum_validation():
    freqs = np.array([0.0, 1.0, 2.0])
    good = np.array([0.0, 1.0, 0.5])
    with pytest.raises(DomainError):
        Spectrum(freqs=np.array([0.0, 2.0, 1.0]), intensity=good, frame="lab")
    with pytest.raises(DomainError):
        Spectrum(freqs=freqs, intensity=np.array([0.0, -1.0, 0.0]), frame="lab")
    with pytest.raises(DomainError):
        Spectrum(freqs=freqs, intensity=good, frame="galactic")
    with pytest.raises(DomainError):
        Spectrum(freqs=freqs, intensity=good[:2], frame="lab")
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            Spectrum(freqs=freqs, intensity=np.array([0.0, bad, 0.5]), frame="lab")
    # Tiny negative rounding noise is tolerated.
    ok = Spectrum(freqs=freqs, intensity=np.array([0.0, -1e-13, 0.1]), frame="lab")
    assert ok.frame == "lab"


def _same_classification(a, b):
    """Bitwise equality of two LineClassification results."""
    return (
        helpers.same_bits(np.array([a.raman, a.spontaneous]), np.array([b.raman, b.spontaneous]))
        and helpers.same_bits(
            np.array(a.background).reshape(-1, 3), np.array(b.background).reshape(-1, 3)
        )
        and helpers.same_bits(a.lambdas, b.lambdas)
        and helpers.same_bits(a.residues, b.residues)
        and helpers.same_bits(np.float64(a.photon_number), np.float64(b.photon_number))
    )


def _assert_each_as_alone(points, outcomes):
    """Each stacked outcome is the classification, or the exception type and
    message, that its point gets from a call of its own."""
    assert len(outcomes) == len(points)
    for params, outcome in zip(points, outcomes):
        try:
            alone = classify_lines(params)
        except Exception as exc:
            assert type(outcome) is type(exc) and str(outcome) == str(exc)
            continue
        assert _same_classification(outcome, alone)


def test_stacked_classification_matches_each_point_alone(paper_params):
    """One classify_lines call over 60 points, two stacks, gives every point
    its own call's lambdas, residues and lines bit for bit, with phonon-off,
    kT = 0, phonon_n < 0, and kT = 0 with phonon_n < 0 points among them.
    Points that fail at the build, the steady state or the classification
    fail in the stack with the same exception and message, and leave their
    neighbours as they are alone."""
    rng = np.random.default_rng(31)
    drawn = [helpers.random_valid_params(rng) for _ in range(60)]
    points = (
        drawn[:20]
        + [replace(p, phonon_alpha1=0.0, phonon_alpha2=0.0) for p in drawn[20:30]]
        + [replace(p, kT=0.0) for p in drawn[30:40]]
        + [replace(p, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[40:45]]
        + [replace(p, kT=0.0, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[45:50]]
        + drawn[50:]
    )
    no_phonons = {"phonon_alpha1": 0.0, "phonon_alpha2": 0.0}
    closed = {"kappa": 0.0, "gamma1": 0.0, "gamma2": 0.0, "gamma_flip": 0.0}
    failing = {
        7: (replace(points[7], g=0.0, **no_phonons), DegenerateSpectrum, "photon number"),
        23: (
            replace(paper_params, delta_laser=0.0, delta_cavity=0.0, **no_phonons),
            DegenerateSpectrum,
            "collapse onto one line",
        ),
        35: (replace(points[35], delta_laser=-5.0), DomainError, "positive laser detuning"),
        52: (
            replace(paper_params, **closed, **no_phonons),
            NonUniqueSteadyState,
            "both vanish",
        ),
    }
    for k, (params, _, _) in failing.items():
        points[k] = params

    outcomes = classify_lines(points)
    for k, (_, error, message) in failing.items():
        assert isinstance(outcomes[k], error) and message in str(outcomes[k])
    assert sum(isinstance(o, Exception) for o in outcomes) == len(failing)
    _assert_each_as_alone(points, outcomes)

    modes = correlation_modes(points)
    for outcome, mode in zip(outcomes, modes):
        if not isinstance(outcome, Exception):
            lambdas, residues, photons = mode
            assert helpers.same_bits(lambdas, outcome.lambdas)
            assert helpers.same_bits(residues, outcome.residues)
            assert helpers.same_bits(np.float64(photons), np.float64(outcome.photon_number))


def test_line_table_matches_per_point_loop(paper_params):
    """The stacked classification equals the per-point loop it replaced
    (helpers.loop_classification) bit for bit, with the same errors, on
    random points, the ROADMAP edge cases (kT = 0, phonon_n < 0, both) and
    points that emit nothing, keep one line or collapse both roles."""
    rng = np.random.default_rng(43)
    drawn = [helpers.random_valid_params(rng) for _ in range(40)]
    no_phonons = {"phonon_alpha1": 0.0, "phonon_alpha2": 0.0}
    points = (
        drawn[:25]
        + [replace(p, kT=0.0) for p in drawn[25:30]]
        + [replace(p, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[30:35]]
        + [replace(p, kT=0.0, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[35:]]
        + [
            replace(paper_params, g=0.0, **no_phonons),
            replace(paper_params, omega_drive=0.0),
            replace(paper_params, delta_laser=0.0, delta_cavity=0.0, **no_phonons),
        ]
    )
    failures = 0
    for params, outcome, modes in zip(points, classify_lines(points), correlation_modes(points)):
        expected = helpers.loop_classification(params, modes)
        if isinstance(expected, Exception):
            assert type(outcome) is type(expected) and str(outcome) == str(expected)
            failures += 1
            continue
        raman, spont, background = expected
        got = [outcome.raman, outcome.spontaneous, *outcome.background]
        assert [tuple(map(float.hex, line)) for line in got] == [
            tuple(map(float.hex, line)) for line in (raman, spont, *background)
        ]
    assert failures == 3


def test_mixture_intensity_matches_per_mode_sum(paper_params):
    """Adding the three modes' terms in turn gives numpy's sum over them,
    signed zeros included, one point or a stack of rows."""
    rng = np.random.default_rng(47)
    lambdas = -np.abs(rng.normal(size=(8, 3))) * 10.0 + 1j * rng.normal(size=(8, 3)) * 40.0
    residues = (rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))) * 1e-4
    residues[1, 0] = 0.0
    residues[2] = -0.0
    kappa = rng.uniform(20.0, 80.0, 8)
    nu = np.concatenate([rng.uniform(-150.0, 150.0, (8, 60)), np.zeros((8, 1)), -np.zeros((8, 1))], 1)
    rows = mixture_intensity(nu, lambdas, residues, kappa)
    for k in range(8):
        expected = helpers.loop_mixture_intensity(nu[k], lambdas[k], residues[k], kappa[k])
        assert helpers.same_bits(rows[k], expected)
        assert helpers.same_bits(
            mixture_intensity(nu[k], lambdas[k], residues[k], kappa[k]), expected
        )


@pytest.mark.parametrize("routine", ["eigh", "svd", "eig", "solve"])
def test_stacked_lapack_failure_retries_each_point(monkeypatch, routine):
    """When a stacked LAPACK call raises LinAlgError, its stack is solved one
    point at a time: only the point that fails alone fails, with the same
    error, and every other point gets its own call's result."""
    rng = np.random.default_rng(37)
    points = [helpers.random_valid_params(rng) for _ in range(12)]
    bad = points[5]
    gen = build_liouvillian(bad)
    # The modes are solved in the q = +1 charge block, |g2,0><j| for j in
    # COHERENT_BLOCK.
    charge = [G2_0 + 4 * j for j in COHERENT_BLOCK]
    block = gen[np.ix_(charge, charge)]
    poison = {
        "eigh": build_hamiltonian(bad)[np.ix_(COHERENT_BLOCK, COHERENT_BLOCK)].real,
        "svd": gen,
        "eig": block,
        "solve": np.linalg.eig(block)[1],
    }[routine]
    lapack = getattr(np.linalg, routine)
    calls = []

    def failing(a, *args):
        a = np.asarray(a)
        calls.append(a.ndim)
        if any(helpers.same_bits(m, poison) for m in a.reshape((-1,) + a.shape[-2:])):
            raise np.linalg.LinAlgError(f"{routine} refused")
        return lapack(a, *args)

    monkeypatch.setattr(np.linalg, routine, failing)
    outcomes = classify_lines(points)
    assert calls.count(3) >= 1 and calls.count(2) >= len(points)
    assert isinstance(outcomes[5], np.linalg.LinAlgError)
    assert str(outcomes[5]) == f"{routine} refused"
    _assert_each_as_alone(points, outcomes)
