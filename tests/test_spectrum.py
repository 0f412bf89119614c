"""Emission spectra: mode decomposition, the lab axis, filtering, and the
line table of a solved stack."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
from cavity_raman import (
    DegenerateSpectrum,
    DomainError,
    FilterWindow,
    NonUniqueSteadyState,
    Spectrum,
    UnstableLiouvillian,
    apply_filter,
    build_hamiltonian,
    emission_spectrum,
    fit_emission_lines,
)
from cavity_raman import cli, oracle, stack
from cavity_raman import liouvillian as lv
from cavity_raman import spectrum as spectrum_mod
from cavity_raman.model import COHERENT_BLOCK, G2_0
from cavity_raman.spectrum import mixture_intensity
from helpers import build_liouvillian, generator_modes, steady_state
from reference_values import PHOTON_NUMBER_REF

TWO_PI = 2.0 * math.pi

# Frozen from this code at the default operating point; guards refactors.
RS_RATIO_REF = 0.11399970748751928
RATIO_OF_RATIOS_SMALL_ALPHA_REF = 226.59768691207938
RATIO_OF_RATIOS_UNIT_ALPHA_REF = 12.04908407989722


def _alone(params):
    """line_table of one point: its one-row table, or the exception that
    stack.Failed names the point with."""
    try:
        return spectrum_mod.line_table([params])
    except stack.Failed as failed:
        return failed.errors[0]


def test_residues_sum_to_photon_number(paper_params):
    lambdas, residues, nbar = helpers.point_modes(paper_params)
    assert nbar == pytest.approx(PHOTON_NUMBER_REF, rel=1e-9)
    assert np.sum(residues).real == pytest.approx(nbar, rel=1e-12)
    assert abs(np.sum(residues).imag) < 1e-12 * nbar
    # All relaxing modes decay.
    assert np.max(lambdas[np.abs(residues) > 0].real) < 0.0


def test_generator_modes_match_correlation_modes(paper_params):
    """The correlation modes in a point's line-table row are the modes of
    its own charge blocks, solved alone, bit for bit."""
    table = spectrum_mod.line_table([paper_params])
    lambdas, residues, nbar = helpers.point_modes(paper_params)
    assert helpers.same_bits(table.lambdas[0], lambdas)
    assert helpers.same_bits(table.residues[0], residues)
    assert table.photons[0] == nbar


def test_unstable_generator_fails_only_its_point(paper_params):
    """A generator with a growing mode is the only point of its stack that
    generator_modes names, with UnstableLiouvillian; the healthy one, alone,
    gets bitwise its slice of an all-healthy stack."""
    healthy = build_liouvillian([replace(paper_params, delta_laser=35.0, delta_cavity=35.0),
                                 paper_params])
    states = steady_state(healthy)
    unstable = healthy.copy()
    unstable[1] = -unstable[1]
    with pytest.raises(stack.Failed) as failed:
        generator_modes(unstable, states)
    assert list(failed.value.errors) == [1]
    error = failed.value.errors[1]
    assert isinstance(error, UnstableLiouvillian)
    assert str(error) == "relaxing eigenvalue with real part 1.712e+02 1/ns >= 1e-10"
    lambdas, residues, photons = generator_modes(healthy, states)
    alone = generator_modes(unstable[0], states[0])
    assert helpers.same_bits(alone[0], lambdas[0])
    assert helpers.same_bits(alone[1], residues[0])
    assert alone[2] == photons[0]


def test_classified_modes_are_the_correlation_modes(paper_params):
    """The Raman and spontaneous rows of line_table([p]) are two distinct
    correlation modes of the point, read as (Im lambda / 2 pi, -Re lambda /
    pi, 2 pi kappa Re residue), bit for bit."""
    table = spectrum_mod.line_table([paper_params])
    lambdas, residues, _ = helpers.point_modes(paper_params)
    modes = np.stack(
        [
            lambdas.imag / TWO_PI,
            -lambdas.real / math.pi,
            TWO_PI * paper_params.kappa * residues.real,
        ],
        axis=-1,
    )
    matched = [
        [j for j, mode in enumerate(modes) if helpers.same_bits(role, mode)]
        for role in table.roles[0]
    ]
    assert [len(js) for js in matched] == [1, 1]
    assert matched[0] != matched[1]


def test_generator_splits_into_charge_blocks_with_three_modes():
    """The generator is block-diagonal in the charge q = [i = g2,0] -
    [j = g2,0] of |i><j| (minus the charge of liouvillian.EXCITATIONS):
    every entry between two charges is exactly 0.  So the field correlation
    has exactly three modes, which generator_modes reads from the block of
    |g2,0><j|.  The oracle solves the whole 16 x 16
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
    a_op = helpers.cavity_annihilation()
    gens = build_liouvillian(points)
    assert gens.shape == (len(points), 16, 16)
    stacked_lambdas, stacked_residues, _ = generator_modes(gens, steady_state(gens))
    for params, gen, block_lambdas, block_residues in zip(
        points, gens, stacked_lambdas, stacked_residues
    ):
        assert np.all(gen[between] == 0.0)

        full = helpers.kron_liouvillian(params)
        rho = np.linalg.svd(full)[2][-1].conj().reshape(4, 4, order="F")
        rho = rho / np.trace(rho)
        lambdas, rvecs = np.linalg.eig(full)
        weights = np.linalg.solve(rvecs, lv.vec(a_op @ rho))
        residues = (lv.vec(a_op).conj() @ rvecs) * weights
        carrying = np.abs(residues) > 1e-20 * np.max(np.abs(residues))
        assert np.count_nonzero(carrying) == 3

        assert block_lambdas.shape == block_residues.shape == (3,)
        scale = np.sum(np.abs(block_residues))
        for lam, res in zip(lambdas[carrying], residues[carrying]):
            j = np.argmin(np.abs(block_lambdas - lam))
            assert abs(block_lambdas[j] - lam) <= 1e-11 * abs(lam)
            assert abs(block_residues[j] - res) <= 1e-11 * scale


def test_dark_cavity_emits_nothing(paper_params):
    dark = replace(paper_params, g=0.0, phonon_alpha1=0.0, phonon_alpha2=0.0)
    _, residues, nbar = helpers.point_modes(dark)
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
    error = _alone(replace(paper_params, **changes))
    assert isinstance(error, DegenerateSpectrum) and "photon number" in str(error)


def test_correlation_routes_agree(paper_params):
    gen = build_liouvillian(paper_params)
    rho_ss = steady_state(gen)
    lambdas, residues, nbar = helpers.point_modes(paper_params)
    taus = np.linspace(0.0, 0.5, 33)
    # Stepping the propagator avoids the eigendecomposition, so the two
    # routes are independent.
    a_op = helpers.cavity_annihilation()
    states = oracle.propagate(gen, lv.vec(a_op @ rho_ss), taus)
    direct = states @ lv.vec(a_op).conj()
    from_modes = np.array([np.sum(residues * np.exp(lambdas * t)) for t in taus])
    assert direct[0].real == pytest.approx(nbar, rel=1e-12)
    assert np.max(np.abs(direct - from_modes)) < 1e-10 * nbar
    assert np.max(np.abs(direct)) <= abs(direct[0]) * (1.0 + 1e-12)


def test_total_flux_sum_rule(paper_params):
    _, _, nbar = helpers.point_modes(paper_params)
    grid = np.linspace(-1255.0, 1145.0, 300001)
    spectrum = emission_spectrum(paper_params, grid)
    flux = np.trapezoid(spectrum.intensity, grid)
    # Cavity-wide pedestal tails leak ~0.5% past +-1200 GHz.
    assert flux == pytest.approx(TWO_PI * paper_params.kappa * nbar, rel=1e-2)


def test_line_areas_sum_to_flux(paper_params):
    _, _, nbar = helpers.point_modes(paper_params)
    table = spectrum_mod.line_table([paper_params])
    areas = [*table.roles[0, :, 2], *table.lines[0, table.background[0], 2]]
    assert np.sum(areas) == pytest.approx(TWO_PI * paper_params.kappa * nbar, rel=1e-10)


def test_classified_line_positions(paper_params):
    table = spectrum_mod.line_table([paper_params])
    raman, spontaneous = table.roles[0]
    # Rotating frame: transfer line near zero, spontaneous near the drive
    # detuning, both pulled slightly by light shifts.
    assert abs(raman[0]) < 2.0
    assert abs(spontaneous[0] - paper_params.delta_laser) < 3.0
    assert 0.0 < raman[1] < paper_params.kappa / 2.0
    assert 0.0 < spontaneous[1] < paper_params.kappa / 2.0
    assert raman[2] > 0.0
    assert spontaneous[2] > 0.0
    # The broad remainder is the cavity-filtered pedestal.
    background = table.lines[0, table.background[0]]
    assert np.any(background[:, 1] > paper_params.kappa / 2.0)


def test_classify_degenerate_roles(paper_params):
    collapsed = replace(
        paper_params,
        delta_laser=0.0,
        delta_cavity=0.0,
        phonon_alpha1=0.0,
        phonon_alpha2=0.0,
    )
    assert isinstance(_alone(collapsed), DegenerateSpectrum)


def _area_ratio(params):
    areas = spectrum_mod.line_table([params]).roles[0, :, 2]
    return areas[0] / areas[1]


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


def test_frame_shift_moves_axis(capsys, paper_params):
    """emission_spectrum returns the lab axis as the rotating-frame offsets
    grid + delta_cavity minus delta_cavity, bit for bit: on the CLI's
    5-300 GHz grid it differs from the grid in the last bit of some
    samples, and the CLI writes that axis as the lab frame."""
    assert paper_params.delta_cavity == 55.0
    grid = np.linspace(5.0, 300.0, 200)
    spectrum = emission_spectrum(paper_params, grid)
    assert helpers.same_bits(spectrum.freqs, (grid + 55.0) - 55.0)
    assert np.any(spectrum.freqs != grid)

    argv = ["spectrum", "--grid-min", "5", "--grid-max", "300", "--grid-points", "200", "--json"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["frame"] == "lab"
    assert payload["nu_lab_GHz"] == spectrum.freqs.tolist()


def test_emission_spectrum_equals_shifted_rotating(paper_params):
    """The lab spectrum is the mode mixture evaluated at the rotating-frame
    offsets grid + delta_cavity, bit for bit."""
    for grid in (np.linspace(5.0, 300.0, 200), np.linspace(-80.0, 20.0, 51)):
        spectrum = emission_spectrum(paper_params, grid)
        lambdas, residues, _ = helpers.point_modes(paper_params)
        rotating = grid + paper_params.delta_cavity
        expected = mixture_intensity(rotating, lambdas, residues, paper_params.kappa)
        assert helpers.same_bits(spectrum.intensity, expected)


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
    """A filter passes the band on the lab axis, which emission_spectrum
    returns, and refuses a spectrum filtered before and an empty or
    non-finite window."""
    grid = np.linspace(-80.0, 20.0, 11)
    window = FilterWindow(0.0, 120.0)
    spectrum = emission_spectrum(paper_params, grid)
    filtered = apply_filter(spectrum, window)
    # -80 and -70 GHz lie below the band; on the rotating axis (+55 GHz)
    # the two samples above it would be cut instead.
    assert helpers.same_bits(filtered.freqs, spectrum.freqs)
    assert np.all(filtered.intensity[:2] == 0.0)
    assert helpers.same_bits(filtered.intensity[2:], spectrum.intensity[2:])
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
    lambdas, residues, _ = helpers.point_modes(paper_params)
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
    lambdas, residues, _ = helpers.point_modes(paper_params)
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
        Spectrum(freqs=np.array([0.0, 2.0, 1.0]), intensity=good)
    with pytest.raises(DomainError):
        Spectrum(freqs=freqs, intensity=np.array([0.0, -1.0, 0.0]))
    with pytest.raises(DomainError):
        Spectrum(freqs=freqs, intensity=good[:2])
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            Spectrum(freqs=freqs, intensity=np.array([0.0, bad, 0.5]))
    # Tiny negative rounding noise is tolerated.
    ok = Spectrum(freqs=freqs, intensity=np.array([0.0, -1e-13, 0.1]))
    assert ok.intensity[1] == -1e-13 and ok.filter_window is None


def _assert_each_as_alone(points, errors, table):
    """Each point named in ``errors`` meets the exception, type and message,
    that line_table names it with alone; ``table``, the line table of the
    other points in order, holds in each row its point's table alone, bit
    for bit."""
    healthy = [params for k, params in enumerate(points) if k not in errors]
    assert len(table.photons) == len(healthy)
    for k, error in errors.items():
        assert helpers.same_outcome(error, _alone(points[k]))
    for row, params in enumerate(healthy):
        alone = _alone(params)
        for name, rows in vars(table).items():
            assert helpers.same_bits(rows[row], getattr(alone, name)[0]), name


def test_stacked_classification_matches_each_point_alone(paper_params):
    """Points that fail at the build, the steady state or the classification
    fail in a 60-point fit_emission_lines call, two stacks, with the
    exception and message that line_table gives them alone.  The line
    table of the other 56 points gives every point its own call's modes
    and lines bit for bit, with phonon-off, kT = 0, phonon_n < 0, and
    kT = 0 with phonon_n < 0 points among them."""
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

    outcomes = fit_emission_lines(points)
    for k, (_, error, message) in failing.items():
        assert isinstance(outcomes[k], error) and message in str(outcomes[k])
    errors = {k: o for k, o in enumerate(outcomes) if isinstance(o, Exception)}
    assert sorted(errors) == sorted(failing)
    healthy = [params for k, params in enumerate(points) if k not in failing]
    table = spectrum_mod.line_table(healthy)
    _assert_each_as_alone(points, errors, table)

    state, block = lv.charge_blocks(healthy)
    modes = spectrum_mod.block_modes(block, lv.block_steady_state(state, block))
    for got, expected in zip((table.lambdas, table.residues, table.photons), modes):
        assert helpers.same_bits(got, expected)


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
    expected = [helpers.loop_classification(p, helpers.point_modes(p)) for p in points]
    errors = {k: e for k, e in enumerate(expected) if isinstance(e, Exception)}
    assert len(errors) == 3
    with pytest.raises(stack.Failed) as failed:
        spectrum_mod.line_table(points)
    assert sorted(failed.value.errors) == sorted(errors)
    for k, error in errors.items():
        assert helpers.same_outcome(failed.value.errors[k], error)
    table = spectrum_mod.line_table([p for k, p in enumerate(points) if k not in errors])
    lines = [e for e in expected if not isinstance(e, Exception)]
    for row, (raman, spont, background) in enumerate(lines):
        got = [*table.roles[row].tolist(), *table.lines[row, table.background[row]].tolist()]
        assert [tuple(map(float.hex, line)) for line in got] == [
            tuple(map(float.hex, line)) for line in (raman, spont, *background)
        ]


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


@pytest.mark.parametrize("case", ["eigh", "svd", "svd_modes", "eig", "solve"])
def test_stacked_lapack_failure_retries_each_point(monkeypatch, case):
    """When a stacked LAPACK call raises LinAlgError, its stack is solved one
    point at a time: line_table names only the point that fails alone, with
    the same error, and every other point, solved again without it, gets
    its own call's result.  The SVD is refused on the q = 0 block, whose
    singular vectors give the steady state, or on the q = -1 block, whose
    singular values join the kernel test."""
    rng = np.random.default_rng(37)
    points = [helpers.random_valid_params(rng) for _ in range(12)]
    bad = points[5]
    # The steady state is solved on the q = 0 charge block, the modes on the
    # q = -1 block, |g2,0><j| for j in COHERENT_BLOCK.
    state, block = lv.charge_blocks(bad)
    routine, poison = {
        "eigh": ("eigh", build_hamiltonian(bad)[np.ix_(COHERENT_BLOCK, COHERENT_BLOCK)].real),
        "svd": ("svd", state),
        "svd_modes": ("svd", block),
        "eig": ("eig", block),
        "solve": ("solve", np.linalg.eig(block)[1]),
    }[case]
    lapack = getattr(np.linalg, routine)
    calls = []

    def failing(a, *args, **kwargs):
        a = np.asarray(a)
        calls.append(a.ndim)
        if any(helpers.same_bits(m, poison) for m in a.reshape((-1,) + a.shape[-2:])):
            raise np.linalg.LinAlgError(f"{routine} refused")
        return lapack(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, routine, failing)
    with pytest.raises(stack.Failed) as failed:
        spectrum_mod.line_table(points)
    assert calls.count(3) >= 1 and calls.count(2) >= len(points)
    assert list(failed.value.errors) == [5]
    error = failed.value.errors[5]
    assert isinstance(error, np.linalg.LinAlgError) and str(error) == f"{routine} refused"
    table = spectrum_mod.line_table(points[:5] + points[6:])
    _assert_each_as_alone(points, failed.value.errors, table)
