"""Brute-force validators: photon ladder, bare-emitter ODE, elimination check."""
import numpy as np
import pytest
from dataclasses import replace

from cavity_raman import DomainError, ModelParams
from cavity_raman import liouvillian as lv
from helpers import (
    loop_ladder_liouvillian,
    random_valid_params,
    rk45_adiabatic_populations,
    rk45_bare_populations,
    same_bits,
)
from cavity_raman.oracle import (
    LadderBasis,
    adiabatic_error,
    adiabatic_populations,
    bare_lambda_evolve,
    full_ladder_steady_state,
    ladder_convergence,
    ladder_liouvillian,
    truncation_error,
)

# Frozen breakdown magnitude at gamma_flip = kappa; see also criterion 06 of
# the acceptance suite, which checks the phonon-free part of this
# configuration against its closed form omega_eff / (2 kappa).
TRUNCATION_AT_EQUAL_RATES_REF = 6.901413236531992e-4


def test_ladder_basis_indexing():
    basis = LadderBasis(3)
    assert basis.dim == 12
    assert basis.index("g1", 0) == 0
    assert basis.index("g2", 1) == 5
    with pytest.raises(DomainError):
        LadderBasis(0)
    with pytest.raises(DomainError):
        basis.index("f", 0)
    with pytest.raises(DomainError):
        basis.index("g1", 4)


def test_ladder_generator_matches_index_loop_reference(paper_params):
    """The ladder generator, built from emitter (x) photon products, is
    bit for bit the generator of an index-loop build summed with np.kron
    superoperators, for n_max 1 to 4, on random valid points, a point at
    negative detunings and a point without phonons."""
    rng = np.random.default_rng(31)
    no_phonons = {"phonon_alpha1": 0.0, "phonon_alpha2": 0.0}
    cases = [random_valid_params(rng) for _ in range(12)] + [
        replace(paper_params, delta_laser=-40.0, delta_cavity=-35.0, **no_phonons),
        replace(paper_params, **no_phonons),
    ]
    for n_max in (1, 2, 3, 4):
        for params in cases:
            gen, basis = ladder_liouvillian(params, n_max)
            assert gen.shape == (basis.dim**2, basis.dim**2)
            assert same_bits(gen, loop_ladder_liouvillian(params, n_max))


def test_ladder_generator_structure(paper_params):
    gen, basis = ladder_liouvillian(paper_params)
    probe = lv.vec(np.eye(basis.dim)).conj()
    assert np.max(np.abs(probe @ gen)) <= 1e-12 * np.max(np.abs(gen))
    rho, _, _ = full_ladder_steady_state(paper_params)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_excess_unreachable_without_reshuffling(paper_params):
    _, _, excess = full_ladder_steady_state(replace(paper_params, gamma_flip=0.0))
    assert abs(excess) < 1e-12


def test_excess_small_at_default_point(paper_params):
    _, _, excess = full_ladder_steady_state(paper_params)
    assert 0.0 < excess < 1e-3


def test_excess_grows_with_reshuffling(paper_params):
    _, _, reference = full_ladder_steady_state(paper_params)
    _, _, broken = full_ladder_steady_state(
        replace(paper_params, gamma_flip=paper_params.kappa)
    )
    assert broken > 10.0 * reference


def test_excess_monotone_in_reshuffling(paper_params):
    values = []
    for gamma_flip in (0.05, 0.2, 0.8, 3.0, 12.0):
        _, _, excess = full_ladder_steady_state(
            replace(paper_params, gamma_flip=gamma_flip)
        )
        values.append(excess)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_truncation_error_tiers(paper_params):
    exact_regime = truncation_error(
        replace(paper_params, gamma_flip=0.0, phonon_alpha1=0.0, phonon_alpha2=0.0)
    )
    assert exact_regime < 1e-10
    assert truncation_error(paper_params) < 1e-3
    broken = truncation_error(replace(paper_params, gamma_flip=paper_params.kappa))
    # omega_eff / (2 kappa) = 3.5e-4 of this is the phonon-free coherence
    # damping; most of the rest is a |g1,0>/|e,0> population shift of
    # 5.2e-4, fed by the phonon channels through the |g2,1> component of
    # the minus dressed state. Frozen against refactors.
    assert broken == pytest.approx(TRUNCATION_AT_EQUAL_RATES_REF, rel=1e-6)
    assert broken > 10.0 * truncation_error(paper_params)


def test_ladder_converged_at_default_depth(paper_params):
    assert ladder_convergence(paper_params) < 1e-9
    assert ladder_convergence(
        replace(paper_params, gamma_flip=paper_params.kappa)
    ) < 1e-9


def test_bare_emitter_idle_without_drive():
    grid = np.linspace(0.0, 3.0, 61)
    pops = bare_lambda_evolve(0.0, 55.0, 0.05, 0.1, grid)
    np.testing.assert_array_equal(pops[:, 1], np.zeros(grid.size))
    np.testing.assert_array_equal(pops[:, 2], np.zeros(grid.size))
    np.testing.assert_array_equal(pops[:, 0], np.ones(grid.size))


def test_bare_emitter_conserves_probability():
    grid = np.linspace(0.0, 40.0, 201)
    pops = bare_lambda_evolve(0.4, 4.0, 0.1, 0.2, grid)
    totals = pops.sum(axis=1)
    assert np.max(np.abs(totals - 1.0)) < 1e-9
    assert np.min(pops) > -1e-9


def test_bare_emitter_resonant_rabi():
    grid = np.linspace(0.0, 1.2, 481)
    pops = bare_lambda_evolve(1.0, 0.0, 1e-6, 2e-6, grid)
    excited = pops[:, 2]
    # Nearly lossless resonant drive: full inversion at half the Rabi period.
    first_max = grid[np.argmax(excited[: grid.size // 2])]
    assert first_max == pytest.approx(0.5, rel=0.01)
    assert excited.max() > 0.99


def test_bare_emitter_input_validation():
    grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(DomainError):
        bare_lambda_evolve(1.0, 10.0, 0.3, 0.2, grid)
    with pytest.raises(DomainError):
        bare_lambda_evolve(1.0, 10.0, -0.1, 0.2, grid)


def test_adiabatic_error_small_in_symmetric_regime():
    grid = np.linspace(0.0, 12.0, 241)
    report = adiabatic_error(0.4, 0.2, 40.0, grid)
    assert report.max_population_error < 1e-3
    bound = 4.0 * ((0.4 / 2.0) ** 2 + 0.2**2) / 40.0**2
    assert report.max_excited_population < bound


def test_adiabatic_error_decreases_with_detuning():
    grid = np.linspace(0.0, 12.0, 241)
    near = adiabatic_error(0.4, 0.2, 40.0, grid)
    far = adiabatic_error(0.4, 0.2, 80.0, grid)
    assert far.max_population_error < near.max_population_error


def test_adiabatic_static_without_drive():
    grid = np.linspace(0.0, 5.0, 51)
    exact, effective, excited = adiabatic_populations(0.0, 0.2, 40.0, grid)
    assert np.max(np.abs(exact - effective)) == 0.0
    assert excited.max() == 0.0


def test_adiabatic_rejects_zero_detuning():
    with pytest.raises(DomainError):
        adiabatic_error(0.4, 0.2, 0.0, np.linspace(0.0, 1.0, 11))


def test_exact_oracles_match_rk45_reference():
    # Short horizons keep the time-stepped references cheap: a nanosecond
    # of the 55 GHz phase winding, five of the bare emitter's transfer.
    grid = np.linspace(0.0, 1.0, 101)
    exact = adiabatic_populations(2.58, 0.8, 55.0, grid)
    stepped = rk45_adiabatic_populations(2.58, 0.8, 55.0, grid)
    for ours, reference in zip(exact, stepped):
        np.testing.assert_allclose(ours, reference, rtol=0.0, atol=1e-8)
    assert exact[0].max() > 1e-2

    grid = np.linspace(0.0, 5.0, 101)
    pops = bare_lambda_evolve(0.4, 4.0, 0.1, 0.2, grid)
    reference = rk45_bare_populations(0.4, 4.0, 0.1, 0.2, grid)
    np.testing.assert_allclose(pops, reference, rtol=0.0, atol=1e-8)
    assert pops[:, 1].max() > 1e-3


@pytest.mark.parametrize(
    "grid",
    [np.array([0.5]), np.linspace(-1.0, 1.0, 11), np.array([0.0, 1.0, 1.0, 2.0])],
    ids=["one_point", "negative_start", "not_increasing"],
)
def test_oracles_reject_bad_grids(grid):
    with pytest.raises(DomainError):
        bare_lambda_evolve(0.4, 4.0, 0.1, 0.2, grid)
    with pytest.raises(DomainError):
        adiabatic_populations(0.4, 0.2, 40.0, grid)


def test_offset_grid_matches_slice_from_zero():
    full = np.linspace(0.0, 8.0, 81)
    late = full[30:]
    np.testing.assert_allclose(
        bare_lambda_evolve(0.4, 4.0, 0.1, 0.2, late),
        bare_lambda_evolve(0.4, 4.0, 0.1, 0.2, full)[30:],
        rtol=0.0,
        atol=1e-12,
    )
    for sliced, offset in zip(
        adiabatic_populations(0.4, 0.2, 40.0, full),
        adiabatic_populations(0.4, 0.2, 40.0, late),
    ):
        np.testing.assert_allclose(offset, sliced[30:], rtol=0.0, atol=1e-12)
