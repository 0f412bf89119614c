"""Dissipators, generator structure, propagation and steady states."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import helpers
from cavity_raman import liouvillian as lv
from cavity_raman import oracle, stack
from cavity_raman import spectrum as spectrum_mod
from cavity_raman import (
    CavityRamanError,
    DomainError,
    ModelParams,
    NonUniqueSteadyState,
    build_hamiltonian,
    dressed_states,
    n_thermal,
    phonon_channels,
    trace_distance,
)
from cavity_raman.liouvillian import vec
from cavity_raman.model import G1_0, G2_0, G2_1
from helpers import build_liouvillian, generator_modes, steady_state
from reference_values import PHOTON_NUMBER_REF, STEADY_POPULATIONS_REF

TWO_PI = 2.0 * math.pi


def _evolve(gen, rho0, t):
    """rho0 after a time t (ns) under the generator, one expm step."""
    return oracle.propagate(gen, vec(rho0), [0.0, t])[1].reshape((4, 4), order="F")


def _index(row, col):
    # Column stacking: matrix entry (row, col) sits at row + 4 col.
    return row + 4 * col


def _whole_generators(h, rates, jumps):
    """lv.generator_blocks on one sector of every vec position: the whole
    (K, n^2, n^2) generators."""
    n = jumps.shape[-1]
    return lv.generator_blocks(h, rates, jumps, [np.arange(n * n)])[0]


def test_cavity_dissipator_population_elements():
    dis = _whole_generators(
        np.zeros((1, 4, 4)), np.array([[TWO_PI * 53.7]]), helpers.cavity_annihilation()[None, None]
    )[0]
    drain = _index(G2_1, G2_1)
    fill = _index(G2_0, G2_0)
    assert dis[drain, drain] == pytest.approx(-TWO_PI * 53.7, rel=1e-15)
    assert dis[fill, drain] == pytest.approx(TWO_PI * 53.7, rel=1e-15)


def test_dissipator_trace_preserving_on_random_channels():
    """100 random dense jumps, each the one channel of its generator in
    one stack: the trace functional annihilates every dissipator."""
    rng = np.random.default_rng(3)
    probe = vec(np.eye(4)).conj()
    ops = rng.normal(size=(100, 1, 4, 4)) + 1j * rng.normal(size=(100, 1, 4, 4))
    for dis in _whole_generators(np.zeros((100, 4, 4)), rng.uniform(0.1, 10.0, (100, 1)), ops):
        worst = np.max(np.abs(probe @ dis))
        assert worst <= 1e-12 * np.max(np.abs(dis))


@pytest.mark.parametrize("dim", [4, 12])
def test_generator_blocks_match_kron_reference(dim):
    """The assembler, given every vec position as one sector, builds the
    whole generator of a random Hamiltonian and three random dense jumps:
    within rounding of its np.kron sum, and each generator of a stack of
    20 bitwise the one it gets alone.

    Bound, with s = 2 pi max|H| + sum_c rate_c max_k (L_c^dag L_c)[k,k]:
    an entry sums N = 2 + 3 (2 dim + 1) products (the Hamiltonian's two,
    and each jump's sandwich and the dim products of its decay on either
    side), whose moduli add up to at most 2 s (Cauchy-Schwarz, as in
    test_ladder_blocks_match_index_loop_generator).  Each product carries
    at most four roundings and the sum N - 1, so each route is within
    (N + 3) eps * 2 s of the exact entry, and the routes 4 (N + 3) eps s."""
    rng = np.random.default_rng(17 + dim)
    shape = (20, 3, dim, dim)
    ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rates = rng.uniform(0.1, 10.0, (20, 3))
    h = rng.normal(size=(20, dim, dim)) + 1j * rng.normal(size=(20, dim, dim))
    h = h + np.swapaxes(h.conj(), 1, 2)
    gens = _whole_generators(h, rates, ops)
    bound = 4 * (2 + 3 * (2 * dim + 1) + 3) * EPS
    for k, gen in enumerate(gens):
        reference = helpers.kron_hamiltonian_superoperator(h[k])
        for op, rate in zip(ops[k], rates[k]):
            reference += helpers.kron_lindblad_dissipator(op, rate)
        decays = np.linalg.norm(ops[k], axis=1) ** 2
        scale = TWO_PI * np.max(np.abs(h[k])) + np.sum(rates[k] * np.max(decays, axis=1))
        assert np.max(np.abs(gen - reference)) <= bound * scale
        alone = _whole_generators(h[k : k + 1], rates[k : k + 1], ops[k : k + 1])
        assert helpers.same_bits(gen, alone[0])


def test_generators_match_kron_reference_bitwise():
    """One stacked build of 100 operating points, half of them without
    phonons, gives each point bit for bit the generator of a per-point
    np.kron build that shares none of its code."""
    rng = np.random.default_rng(23)
    drawn = [helpers.random_valid_params(rng) for _ in range(50)]
    cases = drawn + [replace(p, phonon_alpha1=0.0, phonon_alpha2=0.0) for p in drawn]
    gens = build_liouvillian(cases)
    assert gens.shape == (100, 16, 16)
    for gen, params in zip(gens, cases):
        assert helpers.same_bits(gen, helpers.kron_liouvillian(params))


def test_non_finite_generator_refused_alone(paper_params):
    """Rates that are finite alone but overflow in the generator's sum are
    refused with a DomainError, with no numeric warning.  A stacked build
    names that point alone in its stack.Failed, and the points stacked
    beside it, built again without it, keep the generators they get alone."""
    huge = replace(paper_params, kappa=2e307, gamma1=2e307, gamma2=2e307)
    with pytest.raises(DomainError, match="non-finite entry") as alone:
        build_liouvillian(huge)
    neighbour = replace(paper_params, g=1.1)
    with pytest.raises(stack.Failed) as failed:
        build_liouvillian([paper_params, huge, neighbour])
    assert list(failed.value.errors) == [1]
    assert helpers.same_outcome(failed.value.errors[1], alone.value)
    gens = build_liouvillian([paper_params, neighbour])
    assert helpers.same_bits(gens[0], build_liouvillian(paper_params))
    assert helpers.same_bits(gens[1], build_liouvillian(neighbour))


def test_generator_trace_preserving_on_random_params():
    rng = np.random.default_rng(5)
    probe = vec(np.eye(4)).conj()
    for _ in range(50):
        gen = build_liouvillian(helpers.random_valid_params(rng))
        assert np.max(np.abs(probe @ gen)) <= 1e-12 * np.max(np.abs(gen))


def test_generator_without_dissipation_conserves_purity(paper_params):
    closed = replace(
        paper_params,
        kappa=0.0,
        gamma1=0.0,
        gamma2=0.0,
        gamma_flip=0.0,
        phonon_alpha1=0.0,
        phonon_alpha2=0.0,
    )
    gen = build_liouvillian(closed)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    for t in (0.13, 1.7, 9.2):
        rho_t = _evolve(gen, rho0, t)
        purity = np.trace(rho_t @ rho_t).real
        assert purity == pytest.approx(1.0, abs=1e-9)


def test_propagate_pure_cavity_decay():
    params = ModelParams(
        g=0.0,
        omega_drive=0.0,
        gamma1=0.0,
        gamma2=0.0,
        gamma_flip=0.0,
        phonon_alpha1=0.0,
        phonon_alpha2=0.0,
    )
    gen = build_liouvillian(params)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[G2_1, G2_1] = 1.0
    for t in (0.001, 0.005, 0.02):
        rho_t = _evolve(gen, rho0, t)
        expected = math.exp(-TWO_PI * params.kappa * t)
        assert rho_t[G2_1, G2_1].real == pytest.approx(expected, rel=1e-9)
        assert rho_t[G2_0, G2_0].real == pytest.approx(1.0 - expected, rel=1e-9)


def test_propagate_reaches_steady_state(paper_params):
    gen = build_liouvillian(paper_params)
    target = np.diag(steady_state(gen)).real
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    # Horizon from the computed spectral gap; e^-16 leaves margin under 1e-6.
    gap = -np.sort(np.linalg.eigvals(gen).real)[::-1][1]
    pops = np.diag(_evolve(gen, rho0, 16.0 / gap)).real
    assert np.max(np.abs(pops - target)) < 1e-6
    # Ten reshuffling times gets close but not all the way; pin the scale.
    pops_short = np.diag(_evolve(gen, rho0, 10.0 / paper_params.gamma_flip)).real
    assert np.max(np.abs(pops_short - target)) < 1e-5


def test_propagate_refuses_a_horizon_rounding_cannot_resolve(paper_params):
    """Past eps |L|_1 t = 1 scaling and squaring leaves nothing of the
    state, and an infinite grid has no steps: both are DomainErrors, raised
    before any product overflows.  Inside the bound, at eps |L|_1 t = 1/2,
    the trace is off by no more than that bound."""
    gen = build_liouvillian(paper_params)
    start = vec(np.diag([1.0 + 0j, 0.0, 0.0, 0.0]))
    resolved = 0.5 / (np.finfo(float).eps * np.max(np.sum(np.abs(gen), axis=0)))
    states = oracle.propagate(gen, start, [0.0, resolved])
    assert abs(np.sum(states[-1][::5]) - 1.0) <= 0.5
    with pytest.raises(DomainError, match="rounding bound eps .* exceeds 1$"):
        oracle.propagate(gen, start, [0.0, 4.0 * resolved])
    with pytest.raises(DomainError, match=r"up to t = 1\.000e\+300 ns: .* exceeds 1$"):
        oracle.propagate(gen, start, [0.0, 1e300])
    with pytest.raises(DomainError, match="^time grid must be finite$"):
        oracle.propagate(gen, start, [0.0, np.inf])


def test_propagate_preserves_density_matrix_structure():
    rng = np.random.default_rng(17)
    for _ in range(10):
        gen = build_liouvillian(helpers.random_valid_params(rng))
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        rho_t = _evolve(gen, rho0, rng.uniform(0.01, 30.0))
        assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho_t - rho_t.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho_t)) > -1e-10


def test_steady_state_against_reference(paper_params):
    rho = steady_state(build_liouvillian(paper_params))
    pops = np.diag(rho).real
    for value, expected in zip(pops, STEADY_POPULATIONS_REF):
        assert value == pytest.approx(expected, rel=1e-9)
    assert rho[G2_1, G2_1].real == pytest.approx(PHOTON_NUMBER_REF, rel=1e-9)


def test_steady_state_trapped_without_couplings():
    params = ModelParams(
        g=0.0, omega_drive=0.0, phonon_alpha1=0.0, phonon_alpha2=0.0
    )
    rho = steady_state(build_liouvillian(params))
    expected = np.zeros((4, 4), dtype=complex)
    expected[G1_0, G1_0] = 1.0
    assert np.max(np.abs(rho - expected)) < 1e-12


def test_steady_state_degenerate_kernel_raises():
    params = ModelParams(
        kappa=0.0,
        gamma1=0.0,
        gamma2=0.0,
        gamma_flip=0.0,
        phonon_alpha1=0.0,
        phonon_alpha2=0.0,
    )
    with pytest.raises(NonUniqueSteadyState):
        steady_state(build_liouvillian(params))


def test_steady_state_without_excitations_is_the_dense_reference():
    """steady_state solves the whole generator as one sector: the
    four-state steady states are bitwise the dense-SVD reference's, on a
    full stack and alone."""
    rng = np.random.default_rng(20)
    gens = build_liouvillian([helpers.random_valid_params(rng) for _ in range(stack.POINTS)])
    assert helpers.same_bits(steady_state(gens), helpers.dense_steady_state(gens))
    for gen in gens:
        assert helpers.same_bits(steady_state(gen), helpers.dense_steady_state(gen))


def test_no_reverse_ground_flip(paper_params):
    gen = build_liouvillian(paper_params)
    # Population flow |g1,0> -> |g2,0> has no direct incoherent channel.
    assert gen[_index(G2_0, G2_0), _index(G1_0, G1_0)] == 0.0


def test_raman_funnel_monotone_without_reshuffling(paper_params):
    gen = build_liouvillian(replace(paper_params, gamma_flip=0.0))
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    # 41 samples on [0, 200] ns, 5 ns apart.
    states = oracle.propagate(gen, vec(rho0), 5.0 * np.arange(41))
    trapped = states.reshape(-1, 4, 4)[:, G2_0, G2_0].real
    assert np.all(np.diff(trapped) > -1e-12)


def test_phonon_channels_zero_temperature_and_zero_coupling(paper_params):
    cold, jumps = stack.alone(phonon_channels, replace(paper_params, kT=0.0))
    assert cold.shape == (4,) and jumps.shape == (4, 4, 4)
    # Upward channels first in each pair; both must be switched off, and
    # spontaneous phonon emission keeps both downward ones.
    assert cold[0] == 0.0
    assert cold[2] == 0.0
    assert cold[1] > 0.0
    assert cold[3] > 0.0
    assert cold[1] == pytest.approx(0.016576, abs=5e-7)
    silent, _ = stack.alone(
        phonon_channels,
        replace(paper_params, phonon_alpha1=0.0, phonon_alpha2=0.0)
    )
    assert np.all(silent == 0.0)


def test_phonon_detailed_balance(paper_params):
    rates, _ = stack.alone(phonon_channels, paper_params)
    occupation = n_thermal(paper_params.delta_laser, paper_params.kT)
    boltzmann = math.exp(-paper_params.delta_laser / paper_params.kT)
    for up, down in (rates[0:2], rates[2:4]):
        ratio = up / down
        assert ratio == pytest.approx(occupation / (1.0 + occupation), rel=1e-12)
        assert ratio == pytest.approx(boltzmann, rel=1e-12)
    assert rates[0] / rates[1] == pytest.approx(0.5155, abs=1e-4)


def test_phonon_dressed_splittings(paper_params):
    # The channels evaluate the bath at the laser detuning; the exact
    # dressed splittings it stands in for sit within 5% of it.
    _, (omega_dark, omega_minus, omega_plus) = stack.alone(dressed_states, paper_params)
    for lower in (omega_minus, omega_dark):
        split = omega_plus - lower
        assert split != paper_params.delta_laser
        assert abs(split / paper_params.delta_laser - 1.0) < 0.05


def test_stacked_channel_rates_match_the_per_point_oracle(paper_params):
    """One stack of random valid points, some with phonons off, some at
    kT = 0 and some with a negative phonon_n, gets from lv._channels the
    fixed rates 2 pi (kappa, gamma1, gamma2, gamma_flip) and the phonon
    rates and jumps of helpers.kron_phonon_channels, Python floats point
    by point, bit for bit; a point without phonons gets zero phonon rates
    and jumps.  In a second stack, a power that overflows, a product
    that overflows at kT = 0 and a square that underflows to a zero
    divisor each fail with their own class and message, in one
    stack.Failed, and the others keep the rates of a stack of one."""
    # 96 points with phonons: np.power or np.expm1 in place of Python's
    # ** and math.expm1 would round some of them differently.
    rng = np.random.default_rng(97)
    drawn = [helpers.random_valid_params(rng) for _ in range(128)]
    points = (
        drawn[:32]
        + [replace(p, phonon_alpha1=0.0, phonon_alpha2=0.0) for p in drawn[32:64]]
        + [replace(p, kT=0.0) for p in drawn[64:96]]
        + [replace(p, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[96:]]
    )
    rates, jumps = lv._channels(points)
    for params, row, ops in zip(points, rates, jumps):
        fixed = [TWO_PI * params.kappa, TWO_PI * params.gamma1, TWO_PI * params.gamma2,
                 TWO_PI * params.gamma_flip]
        channels = helpers.kron_phonon_channels(params)
        phonons = [rate for _, rate in channels] or [0.0] * 4
        assert helpers.same_bits(row, np.array(fixed + phonons))
        expected = [op for op, _ in channels] or np.zeros((4, 4, 4), dtype=complex)
        assert helpers.same_bits(ops[4:], np.array(expected))

    overflow = "phonon rates overflow a float at g = 0.8, omega_drive = 2.58, delta_laser = "
    failing = {
        1: (replace(paper_params, phonon_n=300.0),
            overflow + "55, phonon_alpha1 = 1, phonon_alpha2 = 1, phonon_n = 300"),
        3: (replace(paper_params, phonon_alpha1=1e308, kT=0.0),
            "collapse rate overflows a float (got inf 1/ns): a rate in GHz times 2 pi, "
            "or a phonon rate, is too large"),
        4: (replace(paper_params, delta_laser=1e-200, delta_cavity=1e-200),
            overflow + "1e-200, phonon_alpha1 = 1, phonon_alpha2 = 1, phonon_n = 0.31"),
    }
    mixed = [points[0], points[32], points[64], points[96]]
    for k, (point, _) in sorted(failing.items()):
        mixed.insert(k, point)
    with pytest.raises(stack.Failed) as failed:
        lv._channels(mixed)
    assert list(failed.value.errors) == sorted(failing)
    for k, (point, message) in failing.items():
        error = failed.value.errors[k]
        assert type(error) is DomainError and str(error) == message
        with pytest.raises(stack.Failed) as alone:
            lv._channels([point])
        assert helpers.same_outcome(alone.value.errors[0], error)
    kept = [point for k, point in enumerate(mixed) if k not in failing]
    for point, *outputs in zip(kept, *lv._channels(kept)):
        for got, expected in zip(outputs, lv._channels([point])):
            assert helpers.same_bits(got, expected[0])


def test_trace_distance_extremes():
    rho_a = np.zeros((4, 4), dtype=complex)
    rho_a[0, 0] = 1.0
    rho_b = np.zeros((4, 4), dtype=complex)
    rho_b[1, 1] = 1.0
    assert trace_distance(rho_a, rho_a) == 0.0
    assert trace_distance(rho_a, rho_b) == pytest.approx(1.0, abs=1e-14)


EPS = np.finfo(float).eps
_NO_PHONONS = {"phonon_alpha1": 0.0, "phonon_alpha2": 0.0}


def _whole_route(params):
    """Generator, steady state and modes of a point from the whole
    (16, 16) generator: the oracle of the charge-block route."""
    gen = build_liouvillian(params)
    rho = steady_state(gen)
    return gen, rho, generator_modes(gen, rho)


def _block_route(params):
    """Charge blocks, steady state and modes of a point, as line_table
    solves them."""
    state, modes = stack.alone(lv.charge_blocks, params)
    rho = stack.alone(lv.block_steady_state, state, modes)
    return state, modes, rho, stack.alone(spectrum_mod.block_modes, modes, rho)


def _outcome(route, params):
    try:
        return route(params)
    except (CavityRamanError, np.linalg.LinAlgError) as exc:
        return exc


def test_charge_blocks_match_the_whole_generator(paper_params):
    """The charge-block route (blocks from dense jumps, the 10 x 10
    steady state, the 3 x 3 modes) agrees with the whole generator's (the
    helpers' build_liouvillian, the 16 x 16 SVD and generator_modes on its
    slice) within rounding bounds stated from the computation, on random
    points, kT = 0, phonon_n < 0 and no phonons, and every point of the
    failure grid fails with the same exception on both routes.

    Bounds, with s = 2 pi max|H| + the sum of the eight rates (about
    max|L|, so about sigma_max), kappa(V) the condition number of the
    3 x 3 block's eigenvectors and g = sigma_max / sigma_(n-1) the
    singular-value gap of the whole generator:
    - blocks: on each route an entry sums at most 26 terms (the
      Hamiltonian's two, the eight channels' halved decays twice and their
      eight sandwiches; a phonon jump's decay term, L^dag L of a rank-one
      jump, sums three products of one phase, so it rounds within a few
      eps of its own modulus), whose moduli add up to at most 2 s; a sum
      of n terms rounds by at most n eps of that, so the routes differ by
      at most 2 * 26 * 2 eps s = 104 eps s;
    - the two SVDs then see generators within about 104 eps sigma_max of
      each other and add backward errors of a few eps sigma_max, 128 eps
      sigma_max in all: the singular values move by at most that (Weyl),
      the steady state by at most that over sigma_(n-1), 128 eps g;
    - eigenvalues: Bauer-Fike, 128 eps kappa(V) max|L|;
    - residues: the eigenvector solve multiplies the state's error by
      kappa(V) twice, 128 eps kappa(V)^2 g.
    A NonUniqueSteadyState message prints the two vanishing singular values,
    which are rounding noise and differ between the routes; the largest,
    against which the kernel test compares them, must agree to its
    printed digits."""
    rng = np.random.default_rng(71)
    drawn = [helpers.random_valid_params(rng) for _ in range(40)]
    healthy = (
        drawn[:20]
        + [replace(p, kT=0.0) for p in drawn[20:25]]
        + [replace(p, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[25:30]]
        + [replace(p, kT=0.0, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[30:35]]
        + [replace(p, **_NO_PHONONS) for p in drawn[35:]]
        + [
            replace(paper_params, g=0.0, **_NO_PHONONS),
            replace(paper_params, omega_drive=0.0),
            replace(paper_params, gamma_flip=0.0),
            replace(paper_params, gamma_flip=0.0, **_NO_PHONONS),
            replace(paper_params, phonon_alpha1=1e3, phonon_alpha2=1e3),
            replace(paper_params, delta_laser=0.0, delta_cavity=0.0, **_NO_PHONONS),
        ]
    )
    for params in healthy:
        gen, rho, (lambdas, residues, photons) = _whole_route(params)
        state, modes, block_rho, (block_lambdas, block_residues, block_photons) = (
            _block_route(params)
        )
        rates = lv._channels([params])[0][0]
        scale = TWO_PI * np.max(np.abs(stack.alone(build_hamiltonian, params))) + np.sum(rates)
        for block, positions in ((state, lv.STATE_BLOCK), (modes, lv.MODE_BLOCK)):
            assert np.max(np.abs(block - gen[np.ix_(positions, positions)])) <= 104 * EPS * scale
        svals = np.linalg.svd(gen, compute_uv=False)
        gap = svals[0] / svals[-2]
        # The kernel test reads the blocks' singular values, the q = -1
        # block's twice: they are the whole generator's.
        _, union = lv._sector_null_vectors(state[None], [modes[None]], lv.STATE_BLOCK, 16)
        assert np.max(np.abs(union[0] - svals)) <= 128 * EPS * svals[0]
        assert np.max(np.abs(block_rho - rho)) <= 128 * EPS * gap
        condition = np.linalg.cond(np.linalg.eig(modes)[1])
        order, block_order = np.argsort(lambdas.imag), np.argsort(block_lambdas.imag)
        assert np.max(np.abs(block_lambdas[block_order] - lambdas[order])) <= (
            128 * EPS * condition * np.max(np.abs(gen))
        )
        assert np.max(np.abs(block_residues[block_order] - residues[order])) <= (
            128 * EPS * condition**2 * gap
        )
        assert abs(block_photons - photons) <= 128 * EPS * gap

    failing = [
        ModelParams(g=0.0, omega_drive=0.0),
        replace(paper_params, delta_laser=-5.0),
        replace(paper_params, delta_laser=0.0, delta_cavity=0.0),
        replace(paper_params, kappa=0.0, gamma1=0.0, gamma2=0.0, gamma_flip=0.0, **_NO_PHONONS),
        replace(paper_params, phonon_n=300.0),
        replace(paper_params, kappa=1e308),
        replace(paper_params, phonon_alpha1=1e308),
        replace(paper_params, kappa=2e307, gamma1=2e307, gamma2=2e307),
        replace(paper_params, gamma1=2e307, gamma2=2e307),
    ]
    noise = re.compile(r"singular values \S+, \S+ both vanish")
    for params in failing:
        whole, block = _outcome(_whole_route, params), _outcome(_block_route, params)
        assert isinstance(whole, Exception) and type(block) is type(whole)
        if isinstance(whole, NonUniqueSteadyState):
            assert noise.sub("", str(block)) == noise.sub("", str(whole))
        else:
            assert str(block) == str(whole)
