"""Independent cross-checks: full photon ladder and exact time propagation.

Nothing here reuses the truncated four-state machinery beyond the block
assembler (held against whole np.kron generators in the tests), the
channel prologue (the rates, their refusal and the phonon jumps) and the
package's one kernel test, so agreement between these routines and the
fast paths is a real consistency statement, not a tautology.  The ladder's jumps are one dense
(C, dim, dim) array at (C,) rates, as the four-state model's are.  Only
:func:`truncation_error` solves the four-state model, on its charge
blocks as the pipeline does; :func:`truncation_distance`, which
``validate`` shares, refines that state once to compare it with the ladder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import liouvillian as lv, stack
from .errors import DomainError
from .model import ModelParams

TWO_PI = 2.0 * math.pi

LEVELS = ("g1", "g2", "e")


@dataclass(frozen=True)
class LadderBasis:
    """Product basis emitter x photon number, |level, n> with n <= n_max."""

    n_max: int

    def __post_init__(self):
        if isinstance(self.n_max, bool) or not isinstance(self.n_max, (int, np.integer)):
            raise DomainError(f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max < 1:
            raise DomainError(f"need at least one photon level, got n_max={self.n_max}")

    @property
    def dim(self) -> int:
        return 3 * (self.n_max + 1)

    @property
    def excitations(self) -> np.ndarray:
        """Excitation number N = n + [level != g2] of each basis state: every
        term of the ladder generator keeps N_i - N_j of each |i><j|."""
        photons = np.arange(self.n_max + 1)
        return np.concatenate([photons + (level != "g2") for level in LEVELS])

    def index(self, level: str, n: int) -> int:
        if level not in LEVELS:
            raise DomainError(f"unknown level {level!r}")
        if not 0 <= n <= self.n_max:
            raise DomainError(f"photon number {n} outside 0..{self.n_max}")
        return LEVELS.index(level) * (self.n_max + 1) + n


def _kept_positions(basis: LadderBasis) -> list[int]:
    """Ladder indices of the four truncated-basis states, in model order."""
    return [basis.index(level, n) for level, n in (("g1", 0), ("g2", 0), ("g2", 1), ("e", 0))]


def _emitter(row: str, col: str) -> np.ndarray:
    """|row><col| on the emitter levels."""
    op = np.zeros((len(LEVELS), len(LEVELS)))
    op[LEVELS.index(row), LEVELS.index(col)] = 1.0
    return op


def _ladder_operators(
    params: ModelParams, n_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, LadderBasis]:
    """Hamiltonian (GHz), rates (8,) in 1/ns, dense jumps (8, dim, dim) of
    the four-state model's channels, in its order, and basis of the
    untruncated photon ladder: emitter (x) photon products, but for the
    thermal jumps, which live between dressed states of the
    single-excitation manifold (no |g2,0> component, so each keeps N) and
    are embedded at the four matching ladder positions.  A point without
    phonons has zero phonon jumps and rates, as in the four-state model.
    The rates and the phonon jumps are the model's channel prologue, which
    refuses what it refuses; the block assembler refuses an overflowing
    Hamiltonian, as it does the model's."""
    basis = LadderBasis(n_max)
    eye = np.eye(n_max + 1)
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), 1)
    drive = np.kron(_emitter("e", "g1"), eye)
    coupling = np.kron(_emitter("e", "g2"), a)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by generator_blocks
        h = (params.delta_laser - params.delta_cavity) * np.kron(
            np.eye(len(LEVELS)), np.diag(np.arange(n_max + 1.0))
        )
        h += params.delta_laser * np.kron(_emitter("e", "e"), eye)
        h += params.omega_drive / 2.0 * (drive + drive.T)
        h += params.g * (coupling + coupling.T)
    rates, model_jumps = stack.alone(lv._channels, params)
    jumps = np.zeros((len(rates), basis.dim, basis.dim), dtype=complex)
    # a, then |g1><e|, |g2><e| and |g1><g2| on every photon number.
    jumps[0] = np.kron(np.eye(len(LEVELS)), a)
    for j, pair in enumerate((("g1", "e"), ("g2", "e"), ("g1", "g2")), start=1):
        jumps[j] = np.kron(_emitter(*pair), eye)
    kept = _kept_positions(basis)
    jumps[np.ix_(range(4, len(rates)), kept, kept)] = model_jumps[4:]
    return h, rates, jumps, basis


def _ladder_blocks(
    h: np.ndarray, rates: np.ndarray, jumps: np.ndarray, basis: LadderBasis, charges
) -> tuple[np.ndarray, ...]:
    """The ladder generator's block at each charge q = N_i - N_j of
    ``charges``, 1/ns, from its Hamiltonian ``h`` (GHz) and its ``jumps``
    at ``rates``, as :func:`_ladder_operators` returns them, as a stack of
    one: ``liouvillian.generator_blocks``, which raises stack.Failed for a
    non-finite entry.  The generator keeps q (Buca and Prosen, New J.
    Phys. 14, 073007 (2012)), because H keeps N and each jump shifts N by
    one amount."""
    vec_charges = lv._charges(basis.excitations)
    sectors = [np.flatnonzero(vec_charges == q) for q in charges]
    return lv.generator_blocks(h[None], rates[None], jumps[None], sectors)


def full_ladder_steady_state(
    params: ModelParams, n_max: int = 3
) -> tuple[np.ndarray, LadderBasis, float]:
    """Steady state on the full ladder plus the weight outside the truncation.

    Solved on the generator's blocks q = 0 ... n_max + 1, never the whole
    generator, as a stack of one.  The last element of the return triple
    sums the populations the four-state model discards: every n >= 2 state
    together with |g1,1> and |e,1>.
    """
    h, rates, jumps, basis = _ladder_operators(params, n_max)
    positions = np.flatnonzero(lv._charges(basis.excitations) == 0)

    def solve():
        # Each q > 0 block stands for itself and its conjugate -q block.
        zero, *others = _ladder_blocks(h, rates, jumps, basis, range(basis.n_max + 2))
        return lv._kernel_test(*lv._sector_null_vectors(zero, others, positions, basis.dim**2))

    rho = stack.alone(solve)
    kept = set(_kept_positions(basis))
    excess = float(sum(rho[j, j].real for j in range(basis.dim) if j not in kept))
    return rho, basis, excess


def _restricted(rho: np.ndarray, positions: list[int]) -> np.ndarray:
    """The block of ``rho`` on ``positions``, renormalized to unit trace."""
    block = rho[np.ix_(positions, positions)]
    return block / np.trace(block).real


def truncation_error(params: ModelParams, n_max: int = 3) -> float:
    """Trace distance between truncated and full-ladder steady states.

    The ladder state is restricted to the four kept basis states and
    renormalized before comparing.

    With phonons off, the two states differ only in the |g1,0>-|g2,1>
    coherence: the ladder's flip channel also acts on |g2,1>, damping it
    at (kappa + gamma_flip) / 2 rather than kappa / 2. To leading order
    the distance is omega_eff * gamma_flip / (kappa * (kappa + gamma_flip))
    with omega_eff = omega_drive * g / delta_laser, so it never exceeds
    omega_eff / kappa.

    The four-state state is the pipeline's, refined by
    :func:`truncation_distance`.
    """
    ladder = full_ladder_steady_state(params, n_max)
    state, modes = stack.alone(lv.charge_blocks, params)
    return truncation_distance(state, stack.alone(lv.block_steady_state, state, modes), ladder)


def _refined(state_block: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """A steady state ``rho`` of the q = 0 block ``state_block`` after one
    step of refinement with the block's SVD, x -= V' S'^-1 U'^H (L x) over
    every singular triplet but the last, made hermitian and of trace one.

    The SVD's null vector carries rounding up to eps sigma_max /
    sigma_(n-1), which a slow Raman transfer makes large (2.7e-10 with no
    spin flip and no phonons), though a change of the block's entries by
    one ulp moves the kernel far less; one step removes that rounding.
    ``rho`` passed the kernel test, so no sigma but the last vanishes.
    """
    u, svals, vh = np.linalg.svd(state_block)
    x = lv.vec(rho)
    null = x[lv.STATE_BLOCK]
    correction = (u[:, :-1].conj().T @ (state_block @ null)) / svals[:-1]
    x[lv.STATE_BLOCK] = null - vh[:-1].conj().T @ correction
    rho = x.reshape(rho.shape, order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def truncation_distance(
    state_block: np.ndarray, rho4: np.ndarray, ladder: tuple[np.ndarray, LadderBasis, float]
) -> float:
    """:func:`truncation_error` of a four-state steady state ``rho4``, solved
    on the q = 0 block ``state_block``, and a solved ladder, as
    :func:`full_ladder_steady_state` returns it.  ``rho4`` is refined once
    against its block first, so that the distance is truncation and not
    rounding."""
    rho_full, basis, _ = ladder
    refined = _refined(state_block, rho4)
    return lv.trace_distance(refined, _restricted(rho_full, _kept_positions(basis)))


def ladder_convergence(params: ModelParams, n_max: int = 3) -> float:
    """Trace distance between ladder steady states at n_max and n_max + 1,
    both restricted to the smaller ladder."""
    small = full_ladder_steady_state(params, n_max)
    return ladder_distance(small, full_ladder_steady_state(params, n_max + 1))


def ladder_distance(
    small: tuple[np.ndarray, LadderBasis, float],
    large: tuple[np.ndarray, LadderBasis, float],
) -> float:
    """:func:`ladder_convergence` of two solved ladders, as
    :func:`full_ladder_steady_state` returns them."""
    rho_a, basis_a, _ = small
    rho_b, basis_b, _ = large
    positions = [
        basis_b.index(level, n) for level in LEVELS for n in range(basis_a.n_max + 1)
    ]
    return lv.trace_distance(rho_a, _restricted(rho_b, positions))


def _check_grid(t_grid) -> np.ndarray:
    """The grid as floats: at least two points, finite, nonnegative,
    strictly increasing."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise DomainError("time grid must hold at least two points")
    if not np.all(np.isfinite(t_grid)):
        raise DomainError("time grid must be finite")
    if t_grid[0] < 0.0 or np.min(np.diff(t_grid)) <= 0.0:
        raise DomainError("time grid must be nonnegative and strictly increasing")
    return t_grid


# Coefficients b_j = (26 - j)! 13! / (26! j! (13 - j)!) of the degree-13
# Pade approximant to exp: numerator sum_j b_j A^j, denominator
# sum_j b_j (-A)^j.  b_0 = 1, so expm(0) is exactly the identity.
_PADE13 = [
    math.factorial(26 - j) * math.factorial(13)
    / (math.factorial(26) * math.factorial(j) * math.factorial(13 - j))
    for j in range(14)
]
# Largest 1-norm at which the degree-13 approximant is accurate to double
# precision without scaling.
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of each square matrix along the last two axes.

    Scaling and squaring of the degree-13 Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)): each matrix is divided by 2^s,
    the power of two at or above its 1-norm over ``_THETA13``, and its
    approximant is squared s times.  No eigendecomposition, so the
    propagators stay independent of the spectrum's ``eig`` route.
    """
    b = _PADE13
    # frexp writes norm / theta as m * 2^e with m < 1, so s = max(e, 0).
    _, s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(s, 0)
    a = a / (2.0**s)[..., None, None]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    # Odd part u and even part v of the numerator: the approximant is
    # (v - u)^-1 (v + u).
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max())):
        more = s > k  # matrices that still need a squaring
        r[more] = r[more] @ r[more]
    return r


def bare_lambda_evolve(
    omega: float,
    delta: float,
    gamma: float,
    gamma_tot: float,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Populations of the bare driven three-level emitter on ``t_grid``.

    Propagates the emitter's Lindblad equation from |g1><g1| exactly, by
    :func:`propagate`: the drive omega / 2 on g1 <-> e at detuning
    ``delta``, and jumps e -> g2 at ``gamma`` (the decay into the target
    state) and e -> g1 at the rest of ``gamma_tot``, so the dipole
    decoheres at gamma_tot / 2.  All rates and frequencies in GHz, times
    in ns.  Returns an array of shape (len(t_grid), 3) with columns
    (initial ground, target ground, excited).  The initial ground
    population is propagated explicitly rather than inferred from the
    trace, so probability conservation stays a meaningful check on the
    result.
    """
    if gamma < 0.0 or gamma_tot <= 0.0:
        raise DomainError("gamma must be nonnegative and gamma_tot positive")
    if gamma > gamma_tot:
        raise DomainError(f"gamma={gamma} cannot exceed gamma_tot={gamma_tot}")

    drive = _emitter("e", "g1")
    h = delta * _emitter("e", "e") + omega / 2.0 * (drive + drive.T)
    jumps = np.array([_emitter("g2", "e"), _emitter("g1", "e")])
    rates = TWO_PI * np.array([gamma, gamma_tot - gamma])
    # The populations evolve in the q = 0 block of excitations g1, g2, e =
    # 1, 0, 1: vec positions 0, 2, 4, 6 and 8, the populations at 0, 4, 8.
    positions = np.flatnonzero(lv._charges(np.array([1, 0, 1])) == 0)
    (gen,) = stack.alone(
        lambda: lv.generator_blocks(h[None], rates[None], jumps[None], [positions])
    )
    return propagate(gen, lv.vec(_emitter("g1", "g1"))[positions], t_grid)[:, ::2].real


def propagate(gen: np.ndarray, start: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """States expm(gen * t) @ start at each time t of ``t_grid``, one row each.

    The generator is constant, so expm(gen * t_{k+1}) is expm(gen * dt_k)
    applied to the state at t_k, with dt_k = t_{k+1} - t_k: one matrix
    exponential for t_grid[0] and one per distinct step, in one stack,
    then one matrix-vector product per step.  That is exact on any
    increasing grid, uniform or not; a linspace grid has a handful of
    distinct steps.  No eigendecomposition anywhere.

    Raises DomainError where rounding leaves nothing of the state: scaling
    and squaring loses about eps |gen t|_1 of it, and the steps add up to
    the grid's end, so a grid whose end makes eps |gen|_1 t_end exceed 1
    is refused before any product overflows, as is a generator whose
    1-norm is not finite.
    """
    t_grid = _check_grid(t_grid)
    with np.errstate(over="ignore"):  # an infinite norm is refused below
        loss = np.finfo(float).eps * np.abs(gen).sum(axis=-2).max() * t_grid[-1]
    if not loss <= 1.0:
        raise DomainError(
            f"expm(L t) cannot be resolved up to t = {t_grid[-1]:.3e} ns: its "
            f"rounding bound eps |L t|_1 = {loss:.1e} exceeds 1"
        )
    steps, which = np.unique(np.diff(t_grid), return_inverse=True)
    times = np.concatenate(([t_grid[0]], steps))
    first, *propagators = _expm(gen * times[:, None, None])
    states = np.empty((t_grid.size, start.size), dtype=np.result_type(first, start))
    states[0] = first @ start
    for k, step in enumerate(which.tolist()):
        states[k + 1] = propagators[step] @ states[k]
    return states


def _evolve_from_first(h: np.ndarray, sign: float, t_grid: np.ndarray) -> np.ndarray:
    """Amplitudes exp(sign * i h t) e0 for real symmetric ``h``, one row per
    time; DomainError where a phase E t overflows a float."""
    energies, vecs = np.linalg.eigh(h)
    with np.errstate(over="ignore"):  # refused next
        angles = np.outer(t_grid, energies)
    if not np.isfinite(angles).all():
        raise DomainError(
            f"phases E t overflow a float: eigenfrequency {np.max(np.abs(energies)):.3e} "
            f"rad/ns up to t = {t_grid[-1]:.3e} ns"
        )
    return (np.exp(sign * 1j * angles) * vecs[0]) @ vecs.T


def adiabatic_populations(
    omega: float,
    g: float,
    delta: float,
    t_grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transfer populations with and without eliminating the excited state.

    Propagates the lossless three-amplitude Schroedinger dynamics starting
    from the driven ground state, and the effective two-state model with
    light shifts -omega^2/(4 delta), -g^2/delta and coupling
    -omega g / (2 delta).  Returns (exact target population, effective
    target population, exact excited population) on ``t_grid``.  Both
    generators are real symmetric, so one ``eigh`` each gives the
    amplitudes at every grid time exactly.  A Hamiltonian entry that
    overflows a float raises DomainError.
    """
    if delta == 0.0:
        raise DomainError("adiabatic elimination is undefined at zero detuning")
    t_grid = _check_grid(t_grid)
    w_drive = TWO_PI * omega
    w_g = TWO_PI * g
    w_delta = TWO_PI * delta

    # i dc/dt = h_exact c for the amplitudes (c1, c2, c3), and
    # -i db/dt = h_effective b for the eliminated pair (b1, b2).
    h_exact = np.array(
        [
            [0.0, 0.0, w_drive / 2.0],
            [0.0, 0.0, w_g],
            [w_drive / 2.0, w_g, w_delta],
        ]
    )
    try:
        h_effective = np.array(
            [
                [w_drive**2 / (4.0 * w_delta), w_drive * w_g / (2.0 * w_delta)],
                [w_drive * w_g / (2.0 * w_delta), w_g**2 / w_delta],
            ]
        )
        finite = np.all(np.isfinite(h_exact)) and np.all(np.isfinite(h_effective))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"computing the eliminated Hamiltonian at omega = {omega:.6g}, g = {g:.6g}, "
            f"delta = {delta:.6g} GHz overflows a float"
        )
    exact = _evolve_from_first(h_exact, -1.0, t_grid)
    effective = _evolve_from_first(h_effective, 1.0, t_grid)
    p_exact = np.abs(exact[:, 1]) ** 2
    p_effective = np.abs(effective[:, 1]) ** 2
    p_excited = np.abs(exact[:, 2]) ** 2
    return p_exact, p_effective, p_excited

