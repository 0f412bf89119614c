"""Brute-force validators: photon ladder, bare-emitter ODE, elimination check."""
import numpy as np
import pytest
from dataclasses import replace
from scipy.linalg import expm as scipy_expm

from cavity_raman import DomainError, NonUniqueSteadyState
from cavity_raman import liouvillian as lv
from cavity_raman import oracle
from cavity_raman import rates as rates_mod
from helpers import (
    bare_lambda_generator,
    build_liouvillian,
    dense_steady_state,
    expm_bare_populations,
    ladder_liouvillian,
    loop_ladder_liouvillian,
    random_valid_params,
    rk45_adiabatic_populations,
    rk45_bare_populations,
    same_bits,
)
from cavity_raman.oracle import (
    LadderBasis,
    adiabatic_populations,
    bare_lambda_evolve,
    full_ladder_steady_state,
    ladder_convergence,
    truncation_error,
)

# Frozen breakdown magnitude at gamma_flip = kappa; see also criterion 06 of
# the acceptance suite, which checks the phonon-free part of this
# configuration against its closed form omega_eff / (2 kappa).
TRUNCATION_AT_EQUAL_RATES_REF = 6.901413236531992e-4

EPS = np.finfo(float).eps
TWO_PI = 2.0 * np.pi
_NO_PHONONS = {"phonon_alpha1": 0.0, "phonon_alpha2": 0.0}


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


def test_ladder_basis_refuses_a_non_integer_n_max(paper_params):
    """A float, a string, a bool or None is no photon cutoff, and is
    refused as bad input; numpy integers are taken as the int they hold."""
    for n_max in (2.5, 3.0, "3", True, None):
        with pytest.raises(DomainError, match="^n_max must be an integer, got "):
            full_ladder_steady_state(paper_params, n_max)
    assert LadderBasis(np.int32(3)) == LadderBasis(3)
    assert same_bits(
        full_ladder_steady_state(paper_params, np.int64(3))[0],
        full_ladder_steady_state(paper_params, 3)[0],
    )


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


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_ladder_blocks_match_index_loop_generator(paper_params, n_max):
    """Every charge block of the ladder, negative q included, is the slice
    of the index-loop generator at its vec positions, and that generator
    is exactly zero between sectors; on random valid points, without
    phonons, at g = 0 and at negative detunings.  The operators the
    blocks are built from keep the charge: the Hamiltonian keeps the
    excitation number N, and each jump shifts N by one amount.

    Bound, with s = 2 pi max|H| + sum_c rate_c max_k (L_c^dag L_c)[k,k]:
    on either route an entry is a floating-point sum of at most 58
    products: the Hamiltonian's two, and for each of at most 8 jumps its
    sandwich rate L[i,k] L*[j,l] and its decay on either side, an entry of
    rate L^dag L / 2, which sums at most three products (a phonon jump is
    rank one on the three states of the coherent block; the other jumps
    have one product per entry of L^dag L).  |L[i,k]|^2 and
    |(L^dag L)[k,l]| are at most max_k (L^dag L)[k,k] (Cauchy-Schwarz), so
    the moduli of an entry's products add up to at most 2 s.  Each product
    carries at most four roundings of its own (two of a complex product,
    the rate, 2 pi) and the sum at most 57, so each route is within
    61 eps * 2 s of the exact entry, and the routes within 244 eps s."""
    rng = np.random.default_rng(43)
    cases = [random_valid_params(rng) for _ in range(8)] + [
        replace(paper_params, **_NO_PHONONS),
        replace(paper_params, g=0.0),
        replace(paper_params, g=0.0, **_NO_PHONONS),
        replace(paper_params, delta_cavity=-20.0),
        replace(paper_params, delta_laser=-40.0, delta_cavity=-35.0, **_NO_PHONONS),
    ]
    every = range(-(n_max + 1), n_max + 2)
    for params in cases:
        operators = oracle._ladder_operators(params, n_max)
        h, rates, jumps, basis = operators
        counts = basis.excitations
        shifts = counts[:, None] - counts[None, :]
        assert set(shifts[h != 0.0].tolist()) == {0}
        for jump in jumps:
            assert len(set(shifts[jump != 0.0].tolist())) <= 1
        gen = loop_ladder_liouvillian(params, n_max)
        charges = lv._charges(basis.excitations)
        assert np.all(gen[charges[:, None] != charges] == 0.0)
        decays = np.max(np.linalg.norm(jumps, axis=1) ** 2, axis=1)
        scale = TWO_PI * np.max(np.abs(h)) + np.sum(rates * decays)
        blocks = [block[0] for block in oracle._ladder_blocks(*operators, every)]
        assert sum(block.size for block in blocks) == gen.size - np.sum(
            charges[:, None] != charges
        )
        for q, block in zip(every, blocks):
            positions = np.flatnonzero(charges == q)
            reference = gen[np.ix_(positions, positions)]
            assert block.shape == reference.shape
            assert np.max(np.abs(block - reference)) <= 244 * EPS * scale


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_sector_steady_state_matches_dense_reference(paper_params, n_max):
    """The ladder's steady state, solved on its charge blocks, is the
    dense-SVD state of the whole generator within 1e-12 in trace distance,
    with every entry between sectors exactly zero, and the union of the
    blocks' singular values, each q > 0 block's counted twice for itself
    and its conjugate -q block, is the dense spectrum within 1e-13 of the
    largest; at the default point, without phonons, at g = 0 and at
    gamma_flip = kappa."""
    for params in (
        paper_params,
        replace(paper_params, **_NO_PHONONS),
        replace(paper_params, g=0.0),
        replace(paper_params, gamma_flip=paper_params.kappa),
    ):
        gen, basis = ladder_liouvillian(params, n_max)
        rho, _, _ = full_ladder_steady_state(params, n_max)
        assert lv.trace_distance(rho, dense_steady_state(gen)) <= 1e-12
        charges = lv._charges(basis.excitations)
        assert np.all(lv.vec(rho)[charges != 0] == 0.0)
        operators = oracle._ladder_operators(params, n_max)
        zero, *others = oracle._ladder_blocks(*operators, range(n_max + 2))
        positions = np.flatnonzero(charges == 0)
        _, union = lv._sector_null_vectors(zero, others, positions, basis.dim**2)
        dense = np.linalg.svd(gen, compute_uv=False)
        assert union.shape == (1, dense.size)
        assert np.max(np.abs(union[0] - dense)) <= 1e-13 * dense[0]


def test_ladder_refuses_overflowing_rates(paper_params):
    """A rate that overflows a float is refused as bad input, as the
    four-state channels refuse it, and so is a generator whose rates
    overflow only in their sum: its blocks would hold non-finite entries,
    which no SVD is given."""
    with pytest.raises(
        DomainError,
        match=r"^collapse rate overflows a float \(got inf 1/ns\): a rate in GHz times 2 pi, "
        "or a phonon rate, is too large$",
    ):
        full_ladder_steady_state(replace(paper_params, kappa=1e308))
    with pytest.raises(
        DomainError, match="^generator has a non-finite entry: its rates overflow a float$"
    ):
        full_ladder_steady_state(replace(paper_params, gamma1=2e307, gamma2=2e307))


def test_ladder_without_dissipation_has_no_unique_state(paper_params):
    """With every decay and the phonons off, the sectors' union of
    singular values holds a degenerate kernel, as the dense SVD does."""
    params = replace(
        paper_params,
        kappa=0.0,
        gamma1=0.0,
        gamma2=0.0,
        gamma_flip=0.0,
        phonon_alpha1=0.0,
        phonon_alpha2=0.0,
    )
    with pytest.raises(NonUniqueSteadyState):
        full_ladder_steady_state(params)
    with pytest.raises(NonUniqueSteadyState):
        dense_steady_state(ladder_liouvillian(params)[0])


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


def _assert_expm_matches_scipy(ours, matrices):
    """Each exponential within 1e-12 of scipy's largest entry."""
    for mine, matrix in zip(ours, matrices):
        reference = scipy_expm(matrix)
        assert np.max(np.abs(mine - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("point", ["default", "cavity_only"])
def test_expm_matches_scipy_on_four_state_generators(paper_params, point):
    """The oracle's Pade expm against scipy's on the default-point
    generator and on validate's cavity-only one, at criterion 11's step
    and three longer ones, alone and as one stack."""
    if point == "cavity_only":
        paper_params = replace(
            paper_params, gamma1=0.0, gamma2=0.0, gamma_flip=0.0,
            phonon_alpha1=0.0, phonon_alpha2=0.0,
        )
    gen = build_liouvillian(paper_params)
    steps = gen * np.array([1.0 / 1024.0, 0.1, 1.0, 5.0])[:, None, None]
    _assert_expm_matches_scipy([oracle._expm(step) for step in steps], steps)
    _assert_expm_matches_scipy(oracle._expm(steps), steps)


@pytest.mark.parametrize("rates", [(0.4, 4.0, 0.1, 0.2), (1.0, 10.0, 0.2, 0.2)])
def test_expm_matches_scipy_on_bare_emitter_generator(rates):
    """From 1 ps to 50 ns, as one stack (as propagate takes its steps) and
    one matrix at a time."""
    steps = bare_lambda_generator(*rates) * np.geomspace(1e-3, 50.0, 30)[:, None, None]
    _assert_expm_matches_scipy(oracle._expm(steps), steps)
    _assert_expm_matches_scipy([oracle._expm(step) for step in steps], steps)


def test_expm_of_zero_is_the_identity():
    ours = oracle._expm(np.zeros((3, 5, 5)))
    assert same_bits(ours, np.broadcast_to(np.eye(5), (3, 5, 5)))


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


@pytest.mark.parametrize("case", ["validate", "non_uniform", "four_state"])
def test_bare_emitter_steps_match_per_time_expm(case, paper_params):
    """Stepping with one exponential per distinct step agrees with one
    exponential per grid time, on validate's bare-emitter grid, on a grid
    whose steps all differ, and there through oracle.propagate on the
    default point's complex 16x16 generator; the total population stays
    at one.  On the bare emitter the two sides are independent
    formulations: the oracle's 3 x 3 Lindblad generator against the
    helpers' hand-derived five-component one."""
    grid = 0.3 + np.cumsum(np.random.default_rng(5).uniform(0.01, 0.5, 150))
    rates = (0.4, 4.0, 0.1, 0.2)
    if case == "validate":
        # bare_rate_consistency's grid.
        gamma, delta, omega = 0.2, 10.0, 1.0
        target = rates_mod.raman_rate_bare_ideal(omega, delta, gamma)
        t_start = 30.0 / (2.0 * np.pi * gamma)
        rates = (omega, delta, gamma, gamma)
        grid = np.linspace(t_start, t_start + 3.0 / target, 200)
    if case == "four_state":
        gen = build_liouvillian(paper_params)
        start = lv.vec(np.diag([1.0 + 0j, 0.0, 0.0, 0.0]))
        found = oracle.propagate(gen, start, grid)
        expected = np.array([oracle._expm(gen * t) @ start for t in grid])
        totals = np.trace(found.reshape(-1, 4, 4), axis1=1, axis2=2)
    else:
        found = bare_lambda_evolve(*rates, grid)
        expected = expm_bare_populations(*rates, grid)
        totals = found.sum(axis=1)
    np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-11)
    assert np.max(np.abs(totals - 1.0)) <= 1e-12


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


def _elimination_errors(delta):
    """Worst transfer-population error and excited weight over 12 ns."""
    exact, effective, excited = adiabatic_populations(0.4, 0.2, delta, np.linspace(0.0, 12.0, 241))
    return np.max(np.abs(exact - effective)), excited.max()


def test_adiabatic_error_small_in_symmetric_regime():
    error, weight = _elimination_errors(40.0)
    assert error < 1e-3
    bound = 4.0 * ((0.4 / 2.0) ** 2 + 0.2**2) / 40.0**2
    assert weight < bound


def test_adiabatic_error_decreases_with_detuning():
    assert _elimination_errors(80.0)[0] < _elimination_errors(40.0)[0]


def test_adiabatic_static_without_drive():
    grid = np.linspace(0.0, 5.0, 51)
    exact, effective, excited = adiabatic_populations(0.0, 0.2, 40.0, grid)
    assert np.max(np.abs(exact - effective)) == 0.0
    assert excited.max() == 0.0


def test_adiabatic_rejects_zero_detuning():
    with pytest.raises(DomainError):
        adiabatic_populations(0.4, 0.2, 0.0, np.linspace(0.0, 1.0, 11))


def test_adiabatic_refuses_phases_that_overflow():
    """A grid so long that a phase E t overflows a float is refused as bad
    input, with no numeric warning."""
    with pytest.raises(DomainError, match="^phases E t overflow a float"):
        adiabatic_populations(0.4, 0.2, 40.0, np.array([0.0, 1e307]))


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
