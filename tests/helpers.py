"""Shared test utilities: random operating points, plain ``np.kron``
superoperators, the whole four-state generator, its one-sector steady
state and its correlation modes (the charge blocks' oracle), the whole
photon-ladder generator and an index-loop reference for it, a dense-SVD
steady state, finite-horizon transforms for the time-domain spectrum
check, short-horizon RK45 and per-time ``expm`` references for the
exactly propagated oracles, and per-point loop references for the
stacked line classification, windows, spectrum sums and peak read-back.
"""
import math
from dataclasses import astuple, is_dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from cavity_raman import (
    DegeneratePeaks,
    DegenerateSpectrum,
    DomainError,
    ModelParams,
    NonUniqueSteadyState,
    lorentzian_profile,
    n_thermal,
)
from cavity_raman import liouvillian as lv
from cavity_raman import model, oracle, stack
from cavity_raman.liouvillian import KERNEL_RTOL, block_steady_state, charge_blocks
from cavity_raman.spectrum import block_modes

TWO_PI = 2.0 * np.pi


def random_valid_params(rng: np.random.Generator) -> ModelParams:
    """Draw one parameter set inside the model's validity envelope.

    Couplings stay an order of magnitude under the detuning and the
    ground-state reshuffling well under the cavity linewidth, so every
    draw satisfies both regime flags and keeps the two narrow emission
    lines classifiable.
    """
    delta = rng.uniform(30.0, 100.0)
    return ModelParams(
        g=rng.uniform(0.3, delta / 25.0),
        kappa=rng.uniform(25.0, 80.0),
        omega_drive=rng.uniform(0.8, delta / 12.0),
        delta_laser=delta,
        delta_cavity=delta + rng.uniform(-15.0, 15.0),
        gamma1=rng.uniform(0.01, 0.2),
        gamma2=rng.uniform(0.01, 0.2),
        gamma_flip=rng.uniform(0.05, 1.5),
        kT=rng.uniform(40.0, 160.0),
        phonon_alpha1=rng.uniform(0.1, 2.0),
        phonon_alpha2=rng.uniform(0.1, 2.0),
        phonon_n=rng.uniform(0.0, 1.0),
    )


def build_liouvillian(params) -> np.ndarray:
    """The whole four-state generator, 1/ns: the oracle of
    ``liouvillian.charge_blocks``, built from the shared channel prologue
    ``liouvillian._channels`` and the model Hamiltonian as a sum of the
    ``np.kron`` superoperators below, point by point.

    Given one operating point, returns its (16, 16) generator or raises.
    Given a sequence of K, returns the (K, 16, 16) stack, or raises
    stack.Failed for the points that fail.  Each generator is bitwise the
    one its point gets alone, and bitwise :func:`kron_liouvillian`.
    """
    if isinstance(params, ModelParams):
        return stack.alone(_build, params)
    return _build(params)


@np.errstate(over="ignore", invalid="ignore")  # refused at the end
def _build(points) -> np.ndarray:
    rates, jumps = lv._channels(points)
    hamiltonians = model.build_hamiltonian(points)
    gens = []
    for params, h, row, ops in zip(points, hamiltonians, rates, jumps):
        dissipators = [kron_lindblad_dissipator(op, rate) for op, rate in zip(ops, row)]
        gen = kron_hamiltonian_superoperator(h)
        for dissipator in dissipators[:4]:
            gen += dissipator
        # The phonon terms are summed on their own, from 0, and added last,
        # as kron_liouvillian sums them: the last bits depend on this order.
        if params.phonon_alpha1 != 0.0 or params.phonon_alpha2 != 0.0:
            gen += sum(dissipators[4:])
        gens.append(gen)
    gens = np.array(gens).reshape(-1, 16, 16)
    lv._refuse_non_finite(-1j * TWO_PI * hamiltonians, gens)
    return gens


def steady_state(gen) -> np.ndarray:
    """Unique trace-one null vector of a whole generator, solved as one
    sector by the package's kernel test: the (n, n) state of one
    generator, or the (K, n, n) states of a stack or stack.Failed for the
    generators that fail."""
    gen = np.asarray(gen, dtype=complex)
    size = gen.shape[-1]

    def solve(gens):
        return lv._kernel_test(*lv._sector_null_vectors(gens, [], np.arange(size), size))

    return stack.alone(solve, gen) if gen.ndim == 2 else solve(gen)


def generator_modes(gen, rho_ss):
    """``spectrum.block_modes`` of a whole generator's q = -1 block, at
    ``liouvillian.MODE_BLOCK``: a (16, 16) generator and a (4, 4) state,
    or stacks of K of each."""
    return block_modes(gen[..., lv.MODE_BLOCK[:, None], lv.MODE_BLOCK], rho_ss)


def cavity_annihilation() -> np.ndarray:
    """Photon annihilation |g2,0><g2,1| on the truncated basis."""
    op = np.zeros((model.DIM, model.DIM), dtype=complex)
    op[model.G2_0, model.G2_1] = 1.0
    return op


def kron_lindblad_dissipator(op, rate) -> np.ndarray:
    """Vectorized dissipator rate * (O . O^dag - {O^dag O, .} / 2) of the
    jump ``op`` O at ``rate``, written with ``np.kron``."""
    op = np.asarray(op, dtype=complex)
    eye = np.eye(op.shape[0], dtype=complex)
    opdop = op.conj().T @ op
    return rate * (
        np.kron(op.conj(), op)
        - 0.5 * np.kron(eye, opdop)
        - 0.5 * np.kron(opdop.T, eye)
    )


def kron_hamiltonian_superoperator(h) -> np.ndarray:
    """Coherent generator -i 2pi [H, .] of a Hamiltonian in GHz, written
    with ``np.kron``."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * TWO_PI * (np.kron(eye, h) - np.kron(h.T, eye))


def kron_liouvillian(params) -> np.ndarray:
    """The four-state generator of one operating point, built as
    :func:`build_liouvillian` builds it, in the same products and
    the same order of sums, but alone and with ``np.kron``: its own
    Hamiltonian, a 2-D ``eigh`` for the dressed states and per-channel
    dissipators.  Only ``model.n_thermal`` is shared."""
    g1_0, g2_0, g2_1, e_0 = range(4)
    h = np.zeros((4, 4), dtype=complex)
    h[e_0, e_0] = params.delta_laser
    h[g2_1, g2_1] = params.delta_laser - params.delta_cavity
    h[e_0, g1_0] = h[g1_0, e_0] = params.omega_drive / 2.0
    h[e_0, g2_1] = h[g2_1, e_0] = params.g
    gen = kron_hamiltonian_superoperator(h)
    for upper, lower, rate in (
        (g2_1, g2_0, params.kappa),
        (e_0, g1_0, params.gamma1),
        (e_0, g2_0, params.gamma2),
        (g2_0, g1_0, params.gamma_flip),
    ):
        op = np.zeros((4, 4), dtype=complex)
        op[lower, upper] = 1.0
        gen += kron_lindblad_dissipator(op, TWO_PI * rate)
    channels = kron_phonon_channels(params)
    if channels:
        gen += sum(kron_lindblad_dissipator(op, rate) for op, rate in channels)
    return gen


def kron_phonon_channels(params) -> list:
    """(operator, rate) of one point's four phonon channels on the
    truncated basis, in ``liouvillian.phonon_channels`` order, from a 2-D
    ``eigh`` of its own coherent block; none without phonons."""
    if params.phonon_alpha1 == 0.0 and params.phonon_alpha2 == 0.0:
        return []
    # The coherent block |g1,0>, |g2,1>, |e,0>.
    block = (0, 2, 3)
    h = np.zeros((3, 3))
    h[2, 2] = params.delta_laser
    h[1, 1] = params.delta_laser - params.delta_cavity
    h[2, 0] = h[0, 2] = params.omega_drive / 2.0
    h[2, 1] = h[1, 2] = params.g
    vals, vecs = np.linalg.eigh(h)
    assert np.min(np.diff(vals)) >= 1e-9

    def embedded(column):
        if column[np.argmax(np.abs(column))] < 0.0:
            column = -column
        full = np.zeros(4, dtype=complex)
        full[list(block)] = column
        return full

    # Ordered by |e,0> weight: dark, minus, plus.
    dark, minus, plus = (embedded(vecs[:, i]) for i in np.argsort(np.abs(vecs[2]) ** 2))
    split = params.delta_laser
    occupation = 0.0 if params.kT == 0.0 else n_thermal(split, params.kT)
    prefactor = (params.g**2 + (params.omega_drive / 2.0) ** 2) / params.delta_laser**2
    channels = []
    for alpha, lower_state in ((params.phonon_alpha1, minus), (params.phonon_alpha2, dark)):
        rate = TWO_PI * prefactor * (alpha * split**params.phonon_n)
        channels += [
            (np.outer(plus, lower_state.conj()), rate * occupation),
            (np.outer(lower_state, plus.conj()), rate * (1.0 + occupation)),
        ]
    return channels


def ladder_liouvillian(params, n_max=3):
    """The whole photon-ladder generator of one point, (dim^2, dim^2) in
    1/ns, and its ``oracle.LadderBasis``: the oracle's ladder Hamiltonian
    and jumps summed as whole superoperators, the Hamiltonian's first, then
    each jump's dissipator in channel order, with the ``np.kron``
    superoperators above.  The oracle of the ladder's charge blocks, and
    bitwise :func:`loop_ladder_liouvillian`."""
    h, _, rates, jumps, basis = oracle._ladder_operators(params, n_max)
    gen = kron_hamiltonian_superoperator(h)
    for op, rate in zip(jumps, rates):
        gen += kron_lindblad_dissipator(op, rate)
    return gen, basis


def loop_ladder_liouvillian(params, n_max) -> np.ndarray:
    """The photon-ladder generator of one point, its operators written
    entry by entry in index loops on the emitter x photon basis, |level, n>
    at level * (n_max + 1) + n with levels g1, g2, e, and summed with the
    ``np.kron`` superoperators above in :func:`ladder_liouvillian`'s
    order.  The phonon channels are :func:`kron_phonon_channels`, placed at
    the ladder positions of the four truncated-basis states."""
    g1, g2, e = range(3)
    dim = 3 * (n_max + 1)

    def at(level, n):
        return level * (n_max + 1) + n

    delta2 = params.delta_laser - params.delta_cavity
    h = np.zeros((dim, dim), dtype=complex)
    a_full, decay1, decay2, flip = (np.zeros((dim, dim), dtype=complex) for _ in range(4))
    for n in range(n_max + 1):
        h[at(g1, n), at(g1, n)] = n * delta2
        h[at(g2, n), at(g2, n)] = n * delta2
        h[at(e, n), at(e, n)] = params.delta_laser + n * delta2
        h[at(e, n), at(g1, n)] = h[at(g1, n), at(e, n)] = params.omega_drive / 2.0
        if n < n_max:
            h[at(e, n), at(g2, n + 1)] = params.g * math.sqrt(n + 1)
            h[at(g2, n + 1), at(e, n)] = params.g * math.sqrt(n + 1)
        if n >= 1:
            for level in (g1, g2, e):
                a_full[at(level, n - 1), at(level, n)] = math.sqrt(n)
        decay1[at(g1, n), at(e, n)] = 1.0
        decay2[at(g2, n), at(e, n)] = 1.0
        flip[at(g1, n), at(g2, n)] = 1.0
    gen = kron_hamiltonian_superoperator(h)
    for op, rate in (
        (a_full, params.kappa),
        (decay1, params.gamma1),
        (decay2, params.gamma2),
        (flip, params.gamma_flip),
    ):
        gen += kron_lindblad_dissipator(op, TWO_PI * rate)
    kept = (at(g1, 0), at(g2, 0), at(g2, 1), at(e, 0))
    for op4, rate in kron_phonon_channels(params):
        op = np.zeros((dim, dim), dtype=complex)
        for row4, row in enumerate(kept):
            for col4, col in enumerate(kept):
                op[row, col] = op4[row4, col4]
        gen += kron_lindblad_dissipator(op, rate)
    return gen


def dense_steady_state(gen) -> np.ndarray:
    """:func:`steady_state` as one full SVD of each whole generator,
    with no sectors: the (n, n) state of one generator, or the (K, n, n)
    states of a stack or stack.Failed for the generators that fail."""
    gen = np.asarray(gen, dtype=complex)
    if gen.ndim == 2:
        return stack.alone(dense_steady_state, gen)
    count, size = gen.shape[0], gen.shape[-1]
    dim = math.isqrt(size)
    (_, svals, vh), errors = stack.linalg(np.linalg.svd, gen)
    stack.fail(errors)
    rho = np.swapaxes(vh[:, -1].conj().reshape(count, dim, dim), -1, -2)
    rho = 0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))
    traces = np.trace(rho, axis1=-2, axis2=-1).real
    degenerate = svals[:, -2] < KERNEL_RTOL * svals[:, 0]
    stack.fail({
        k: NonUniqueSteadyState(
            f"singular values {svals[k, -2]:.3e}, {svals[k, -1]:.3e} both vanish "
            f"against {svals[k, 0]:.3e}"
            if degenerate[k]
            else "null vector is traceless, no physical state"
        )
        for k in np.flatnonzero(degenerate | (np.abs(traces) < 1e-14)).tolist()
    })
    return rho / traces[:, None, None]


def point_modes(params):
    """(lambdas, residues, photon_number) of one point's correlation modes,
    solved alone on its charge blocks, as ``spectrum.line_table`` solves
    them."""
    state, modes = charge_blocks(params)
    return block_modes(modes, block_steady_state(state, modes))


def same_bits(a, b) -> bool:
    """True when two arrays hold the same dtype, shape and bytes: unlike
    ``np.array_equal``, a -0.0 does not match a +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_outcome(a, b) -> bool:
    """True when two outcomes of a point-taking solve are the same to the
    bit: exceptions by type and message, dataclasses field by field,
    tuples and lists item by item, numbers and arrays by ``same_bits``."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if is_dataclass(a):
        return type(a) is type(b) and same_outcome(astuple(a), astuple(b))
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(same_outcome(x, y) for x, y in zip(a, b))
        )
    return same_bits(a, b)


def windowed_transform(taus, series, nu, kappa):
    """Finite-horizon transform of a correlation series, flux-normalized.

    Trapezoid quadrature of g1(tau) exp(-i 2 pi nu tau) over the sampled
    horizon, scaled like the mode mixture so the two routes are directly
    comparable.  ``taus`` must be uniform, tau_k = tau_0 + k dt.  Over
    k = 128 a + b the kernel factors into exp(-i 2 pi nu (tau_0 +
    128 a dt)) times exp(-i 2 pi nu b dt), so two small exponential
    tables and one contraction stand in for the dense nu x tau kernel.
    """
    block = 128
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    taus = np.asarray(taus, dtype=float)
    dt = taus[1] - taus[0]
    np.testing.assert_allclose(taus, taus[0] + np.arange(taus.size) * dt, rtol=1e-12, atol=0.0)
    rows = -(-taus.size // block)
    weights = np.zeros(rows * block, dtype=complex)
    weights[: taus.size] = series * dt
    weights[[0, taus.size - 1]] *= 0.5  # trapezoid end points
    outer = np.exp(-1j * TWO_PI * np.outer(nu, taus[0] + block * dt * np.arange(rows)))
    inner = np.exp(-1j * TWO_PI * np.outer(nu, dt * np.arange(block)))
    integral = np.sum(outer * (inner @ weights.reshape(rows, block).T), axis=1)
    return TWO_PI**2 * kappa * integral.real / np.pi


def windowed_mode_sum(lambdas, residues, nu, kappa, horizon):
    """The eigendecomposition route cut off at the same finite horizon.

    Identical analytic window as :func:`windowed_transform`, so any
    disagreement between the two is numerics, not truncation of slowly
    decaying lines.
    """
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    denom = 1j * TWO_PI * nu[:, None] - lambdas[None, :]
    window = 1.0 - np.exp((lambdas[None, :] - 1j * TWO_PI * nu[:, None]) * horizon)
    values = np.sum((residues[None, :] * window / denom).real, axis=1) / np.pi
    return TWO_PI**2 * kappa * values


def _rk45(rhs, y0, t_grid):
    """Adaptive RK45 from t = 0 at rtol 1e-10, sampled on ``t_grid``."""
    solution = solve_ivp(
        rhs,
        (0.0, float(t_grid[-1])),
        np.asarray(y0, dtype=complex),
        method="RK45",
        t_eval=t_grid,
        rtol=1e-10,
        atol=1e-12,
    )
    assert solution.success, solution.message
    return solution.y


def rk45_bare_populations(omega, delta, gamma, gamma_tot, t_grid):
    """(initial ground, target ground, excited) populations of the driven
    emitter by stepping its 3x3 Lindblad equation, with no shared
    generator: jumps e -> g2 at ``gamma`` and e -> g1 at the remainder of
    ``gamma_tot``, so the dipole dephases at gamma_tot / 2.
    """
    ham = TWO_PI * np.array(
        [[0.0, 0.0, omega / 2.0], [0.0, 0.0, 0.0], [omega / 2.0, 0.0, delta]]
    )
    jumps = []
    for target, rate in ((1, gamma), (0, gamma_tot - gamma)):
        jump = np.zeros((3, 3))
        jump[target, 2] = np.sqrt(TWO_PI * rate)
        jumps.append(jump)
    # -i H_eff rho + h.c. carries the Hamiltonian and the anticommutator.
    h_eff = ham - 0.5j * sum(jump.T @ jump for jump in jumps)

    def rhs(_t, y):
        rho = y.reshape(3, 3)
        drho = -1j * (h_eff @ rho)
        drho += drho.conj().T
        for jump in jumps:
            drho += jump @ rho @ jump.T
        return drho.ravel()

    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    rho = _rk45(rhs, rho0.ravel(), t_grid).reshape(3, 3, -1)
    return np.stack([rho[0, 0].real, rho[1, 1].real, rho[2, 2].real], axis=1)


def bare_lambda_generator(omega, delta, gamma, gamma_tot):
    """Hand-derived generator of the bare driven emitter on five real
    components, d/dt (p1, p2, p3, re13, im13) = gen @ (...): the three
    populations and the drive coherence, decaying at gamma_tot / 2.  An
    independent reference for ``oracle.bare_lambda_evolve``, which builds
    its 3 x 3 Lindblad generator from the shared superoperators instead."""
    w_drive, w_delta, w_gamma, w_tot = (TWO_PI * x for x in (omega, delta, gamma, gamma_tot))
    w_deph = 0.5 * w_tot
    return np.array(
        [
            [0.0, 0.0, w_tot - w_gamma, 0.0, w_drive],
            [0.0, 0.0, w_gamma, 0.0, 0.0],
            [0.0, 0.0, -w_tot, 0.0, -w_drive],
            [0.0, 0.0, 0.0, -w_deph, w_delta],
            [-0.5 * w_drive, 0.0, 0.5 * w_drive, -w_delta, -w_deph],
        ]
    )


def expm_bare_populations(omega, delta, gamma, gamma_tot, t_grid):
    """(initial ground, target ground, excited) populations of the bare
    emitter from :func:`bare_lambda_generator`, with one scipy matrix
    exponential per grid time, expm(gen * t) applied to the initial
    state; shares no generator with ``oracle.bare_lambda_evolve``."""
    gen = bare_lambda_generator(omega, delta, gamma, gamma_tot)
    return expm(gen * np.asarray(t_grid, dtype=float)[:, None, None])[:, :3, 0]


def rk45_adiabatic_populations(omega, g, delta, t_grid):
    """(exact target, effective target, exact excited) populations by
    stepping the three-amplitude Schroedinger equation and its eliminated
    two-state model, light shifts -omega^2/(4 delta), -g^2/delta and
    coupling -omega g / (2 delta).
    """
    ham = TWO_PI * np.array(
        [[0.0, 0.0, omega / 2.0], [0.0, 0.0, g], [omega / 2.0, g, delta]]
    )
    ham_eff = -TWO_PI / delta * np.array(
        [[omega**2 / 4.0, omega * g / 2.0], [omega * g / 2.0, g**2]]
    )
    exact = _rk45(lambda _t, c: -1j * (ham @ c), [1.0, 0.0, 0.0], t_grid)
    effective = _rk45(lambda _t, b: -1j * (ham_eff @ b), [1.0, 0.0], t_grid)
    return np.abs(exact[1]) ** 2, np.abs(effective[1]) ** 2, np.abs(exact[2]) ** 2


# --- Per-point loop references of the stacked line pipeline ----------------
# The package classifies lines, builds fit windows, sums spectrum modes and
# reads fitted peaks back as array operations over a stack.  These are the
# loops they replaced, one point, window or peak at a time, kept as the
# references the stacked code must match bit for bit.


def loop_mixture_intensity(nu_rot, lambdas, residues, kappa):
    """One point's spectrum as numpy's sum over its (samples x modes) terms."""
    nu_rot = np.atleast_1d(np.asarray(nu_rot, dtype=float))
    denom = 1j * TWO_PI * nu_rot.reshape(-1)[:, None] - lambdas[None, :]
    values = np.sum((residues[None, :] / denom).real, axis=1) / math.pi
    return (TWO_PI**2 * kappa * values).reshape(nu_rot.shape)


def loop_classification(params, modes):
    """(raman, spontaneous, background) line triples of one point's
    correlation modes, or the DegenerateSpectrum it raises."""
    lambdas, residues, photon_number = modes
    if photon_number < 1e-15:
        return DegenerateSpectrum(
            f"steady photon number {photon_number:.3e} is below 1e-15; "
            "the cavity emits no lines"
        )
    centers = lambdas.imag / TWO_PI
    fwhms = -lambdas.real / math.pi
    areas = TWO_PI * params.kappa * residues.real
    keep = np.abs(areas) > 1e-13 * max(np.max(np.abs(areas)), 1e-300)
    order = np.argsort(centers[keep])
    centers, fwhms, areas = centers[keep][order], fwhms[keep][order], areas[keep][order]
    narrow = fwhms < params.kappa / 2.0
    if np.count_nonzero(narrow) < 2:
        return DegenerateSpectrum(
            f"expected two sub-cavity-width lines, found {np.count_nonzero(narrow)}"
        )
    candidates = np.flatnonzero(narrow)
    raman = candidates[np.argmin(np.abs(centers[candidates]))]
    spont = candidates[np.argmin(np.abs(centers[candidates] - params.delta_laser))]
    if raman == spont:
        return DegenerateSpectrum(
            "Raman and spontaneous roles collapse onto one line at "
            f"center {centers[raman]:.3f} GHz"
        )
    triples = [(float(c), float(f), float(a)) for c, f, a in zip(centers, fwhms, areas)]
    rest = tuple(line for j, line in enumerate(triples) if j not in (raman, spont))
    return triples[raman], triples[spont], rest


def loop_windows(params, table, k):
    """Axis, spectrum samples and start (amplitude, center, fwhm, baseline)
    of the Raman and spontaneous windows of one point, row ``k`` of the
    line table ``table``, or for each window the DomainError it meets
    before its fit."""
    roles = table.roles[k].tolist()
    shifts = [line[0] - params.delta_laser for line in roles]
    midpoint = 0.5 * (shifts[0] + shifts[1])
    windows = []
    for (center, width, area), shifted in zip(roles, shifts):
        lo, hi = shifted - 4.0 * width, shifted + 4.0 * width
        if shifted < midpoint:
            hi = min(hi, midpoint)
        else:
            lo = max(lo, midpoint)
        axis = np.linspace(lo, hi, 97)
        values = loop_mixture_intensity(
            axis + params.delta_laser, table.lambdas[k], table.residues[k], params.kappa
        )
        if not (np.all(np.isfinite(axis)) and np.all(np.isfinite(values))):
            windows.append(DomainError("data must be finite"))
        elif width == 0.0:
            windows.append(DomainError("initial fwhm must be nonzero"))
        else:
            start = (2.0 * abs(area) / (math.pi * width), shifted, abs(width))
            windows.append((axis, values, np.array(start + (float(np.min(values)),))))
    return windows


def summed_profiles(freqs, x):
    """The stacked Lorentzian model as first written: each row's baseline
    repeated along the row, plus each peak's lorentzian_profile in turn."""
    total = np.repeat(x[:, -1:], freqs.shape[1], axis=1)
    for k in range(0, x.shape[1] - 1, 3):
        total += lorentzian_profile(freqs, x[:, k, None], x[:, k + 1, None], x[:, k + 2, None])
    return total


def loop_peaks(x, sigma, cov, n_peaks):
    """PeakFit field tuples of one fitted row, sorted by center, with area
    errors from the covariance; or the DegeneratePeaks it raises."""
    peaks = []
    for k in range(n_peaks):
        amplitude, center, fwhm = x[3 * k], x[3 * k + 1], abs(x[3 * k + 2])
        amp_err, cen_err, width_err = sigma[3 * k : 3 * k + 3]
        cross = cov[3 * k, 3 * k + 2]
        area = amplitude * fwhm * math.pi / 2.0
        with np.errstate(over="ignore"):
            area_var = (math.pi / 2.0) ** 2 * max(
                fwhm**2 * amp_err**2 + amplitude**2 * width_err**2
                + 2.0 * amplitude * fwhm * cross,
                0.0,
            )
        fields = (center, fwhm, amplitude, area, cen_err, width_err, amp_err)
        peaks.append(tuple(map(float, fields)) + (float(math.sqrt(area_var)),))
    peaks.sort(key=lambda peak: peak[0])
    for i in range(len(peaks)):
        for j in range(i + 1, len(peaks)):
            if abs(peaks[i][0] - peaks[j][0]) < 0.1 * min(peaks[i][1], peaks[j][1]):
                return DegeneratePeaks(f"fitted centers {peaks[i][0]} and {peaks[j][0]} coincide")
    return tuple(peaks)
