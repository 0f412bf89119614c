"""Independent cross-checks: full photon ladder and exact time propagation.

Nothing here reuses the truncated four-state machinery beyond the generic
superoperator algebra, so agreement between these routines and the fast
paths is a real consistency statement, not a tautology.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import liouvillian as lv
from .errors import DomainError
from .model import ModelParams

TWO_PI = 2.0 * math.pi

LEVELS = ("g1", "g2", "e")


@dataclass(frozen=True)
class LadderBasis:
    """Product basis emitter x photon number, |level, n> with n <= n_max."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError(f"need at least one photon level, got n_max={self.n_max}")

    @property
    def dim(self) -> int:
        return 3 * (self.n_max + 1)

    def index(self, level: str, n: int) -> int:
        if level not in LEVELS:
            raise DomainError(f"unknown level {level!r}")
        if not 0 <= n <= self.n_max:
            raise DomainError(f"photon number {n} outside 0..{self.n_max}")
        return LEVELS.index(level) * (self.n_max + 1) + n

    def labels(self) -> list[str]:
        return [f"|{level},{n}>" for level in LEVELS for n in range(self.n_max + 1)]


def _ladder_hamiltonian(params: ModelParams, basis: LadderBasis) -> np.ndarray:
    """Drive, Jaynes-Cummings coupling and detunings on the full ladder, GHz."""
    delta2 = params.delta_laser - params.delta_cavity
    h = np.zeros((basis.dim, basis.dim), dtype=complex)
    for n in range(basis.n_max + 1):
        h[basis.index("g1", n), basis.index("g1", n)] = n * delta2
        h[basis.index("g2", n), basis.index("g2", n)] = n * delta2
        h[basis.index("e", n), basis.index("e", n)] = params.delta_laser + n * delta2
        e_n = basis.index("e", n)
        g1_n = basis.index("g1", n)
        h[e_n, g1_n] = params.omega_drive / 2.0
        h[g1_n, e_n] = params.omega_drive / 2.0
        if n < basis.n_max:
            g2_up = basis.index("g2", n + 1)
            h[e_n, g2_up] = params.g * math.sqrt(n + 1)
            h[g2_up, e_n] = params.g * math.sqrt(n + 1)
    return h


def _ladder_collapse(params: ModelParams, basis: LadderBasis) -> list[lv.CollapseChannel]:
    dim = basis.dim
    a_full = np.zeros((dim, dim), dtype=complex)
    decay1 = np.zeros((dim, dim), dtype=complex)
    decay2 = np.zeros((dim, dim), dtype=complex)
    flip = np.zeros((dim, dim), dtype=complex)
    for n in range(basis.n_max + 1):
        if n >= 1:
            for level in LEVELS:
                a_full[basis.index(level, n - 1), basis.index(level, n)] = math.sqrt(n)
        decay1[basis.index("g1", n), basis.index("e", n)] = 1.0
        decay2[basis.index("g2", n), basis.index("e", n)] = 1.0
        flip[basis.index("g1", n), basis.index("g2", n)] = 1.0
    return [
        lv.CollapseChannel(a_full, TWO_PI * params.kappa),
        lv.CollapseChannel(decay1, TWO_PI * params.gamma1),
        lv.CollapseChannel(decay2, TWO_PI * params.gamma2),
        lv.CollapseChannel(flip, TWO_PI * params.gamma_flip),
    ]


def _embed_truncated(op4: np.ndarray, basis: LadderBasis) -> np.ndarray:
    """Place a truncated-basis operator at its four ladder positions."""
    positions = [
        basis.index("g1", 0),
        basis.index("g2", 0),
        basis.index("g2", 1),
        basis.index("e", 0),
    ]
    full = np.zeros((basis.dim, basis.dim), dtype=complex)
    for row4, row in enumerate(positions):
        for col4, col in enumerate(positions):
            full[row, col] = op4[row4, col4]
    return full


def ladder_liouvillian(params: ModelParams, n_max: int = 3) -> tuple[np.ndarray, LadderBasis]:
    """Master-equation generator on the untruncated photon ladder, 1/ns.

    The thermal jump operators live between dressed states defined inside
    the single-excitation manifold, so they are embedded at the matching
    four ladder positions.
    """
    basis = LadderBasis(n_max)
    gen = lv.hamiltonian_superoperator(_ladder_hamiltonian(params, basis))
    for channel in _ladder_collapse(params, basis):
        gen += lv.lindblad_dissipator(channel)
    if params.phonon_alpha1 > 0.0 or params.phonon_alpha2 > 0.0:
        for channel in lv.phonon_channels(params):
            gen += lv.lindblad_dissipator(
                lv.CollapseChannel(_embed_truncated(channel.operator, basis), channel.rate)
            )
    return gen, basis


def full_ladder_steady_state(
    params: ModelParams, n_max: int = 3
) -> tuple[np.ndarray, LadderBasis, float]:
    """Steady state on the full ladder plus the weight outside the truncation.

    The last element of the return triple sums the populations the
    four-state model discards: every n >= 2 state together with |g1,1> and
    |e,1>.
    """
    gen, basis = ladder_liouvillian(params, n_max)
    rho = lv.steady_state(gen)
    kept = {
        basis.index("g1", 0),
        basis.index("g2", 0),
        basis.index("g2", 1),
        basis.index("e", 0),
    }
    excess = float(
        sum(rho[j, j].real for j in range(basis.dim) if j not in kept)
    )
    return rho, basis, excess


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
    """
    rho_full, basis, _ = full_ladder_steady_state(params, n_max)
    positions = [
        basis.index("g1", 0),
        basis.index("g2", 0),
        basis.index("g2", 1),
        basis.index("e", 0),
    ]
    restricted = rho_full[np.ix_(positions, positions)]
    restricted = restricted / np.trace(restricted).real

    gen4 = lv.build_liouvillian(params)
    rho4 = lv.steady_state(gen4)
    return lv.trace_distance(rho4, restricted)


def ladder_convergence(params: ModelParams, n_max: int = 3) -> float:
    """Trace distance between ladder steady states at n_max and n_max + 1,
    both restricted to the smaller ladder."""
    rho_a, basis_a, _ = full_ladder_steady_state(params, n_max)
    rho_b, basis_b, _ = full_ladder_steady_state(params, n_max + 1)
    positions = [basis_b.index(level, n) for level in LEVELS for n in range(n_max + 1)]
    restricted = rho_b[np.ix_(positions, positions)]
    restricted = restricted / np.trace(restricted).real
    return lv.trace_distance(rho_a, restricted)


def _check_grid(t_grid) -> np.ndarray:
    """The grid as floats: at least two points, nonnegative, strictly increasing."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise DomainError("time grid must hold at least two points")
    if t_grid[0] < 0.0 or np.min(np.diff(t_grid)) <= 0.0:
        raise DomainError("time grid must be nonnegative and strictly increasing")
    return t_grid


def bare_lambda_evolve(
    omega: float,
    delta: float,
    gamma: float,
    gamma_tot: float,
    t_grid: np.ndarray,
    gamma_dephase: float | None = None,
) -> np.ndarray:
    """Populations of the bare driven three-level emitter on ``t_grid``.

    Propagates the coupled equations for the drive coherence, the excited
    population and both ground populations exactly, one matrix exponential
    per grid time, with ``gamma`` the decay into the target state,
    ``gamma_tot`` the total excited-state decay and ``gamma_dephase`` the
    dipole decoherence rate (defaults to gamma_tot / 2).  All rates and
    frequencies in GHz, times in ns.  Returns an array of shape
    (len(t_grid), 3) with columns (initial ground, target ground,
    excited).  The initial ground population is propagated explicitly
    rather than inferred from the trace, so probability conservation stays
    a meaningful check on the result.
    """
    if gamma < 0.0 or gamma_tot <= 0.0:
        raise DomainError("gamma must be nonnegative and gamma_tot positive")
    if gamma > gamma_tot:
        raise DomainError(f"gamma={gamma} cannot exceed gamma_tot={gamma_tot}")
    if gamma_dephase is None:
        gamma_dephase = gamma_tot / 2.0
    if gamma_dephase <= 0.0:
        raise DomainError("dephasing rate must be positive")
    t_grid = _check_grid(t_grid)

    w_drive = TWO_PI * omega
    w_delta = TWO_PI * delta
    w_gamma = TWO_PI * gamma
    w_tot = TWO_PI * gamma_tot
    w_deph = TWO_PI * gamma_dephase

    # d/dt (p1, p2, p3, re13, im13) = gen @ (...); constant coefficients,
    # so the state at time t is expm(gen * t) applied to e0.
    gen = np.array(
        [
            [0.0, 0.0, w_tot - w_gamma, 0.0, w_drive],
            [0.0, 0.0, w_gamma, 0.0, 0.0],
            [0.0, 0.0, -w_tot, 0.0, -w_drive],
            [0.0, 0.0, 0.0, -w_deph, w_delta],
            [-0.5 * w_drive, 0.0, 0.5 * w_drive, -w_delta, -w_deph],
        ]
    )
    propagators = scipy.linalg.expm(gen * t_grid[:, None, None])
    return propagators[:, :3, 0]


def _evolve_from_first(h: np.ndarray, sign: float, t_grid: np.ndarray) -> np.ndarray:
    """Amplitudes exp(sign * i h t) e0 for real symmetric ``h``, one row per time."""
    energies, vecs = np.linalg.eigh(h)
    phases = np.exp(sign * 1j * np.outer(t_grid, energies))
    return (phases * vecs[0]) @ vecs.T


@dataclass(frozen=True)
class AdiabaticReport:
    """Worst-case disagreement between exact and eliminated dynamics."""

    max_population_error: float
    max_excited_population: float


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
    amplitudes at every grid time exactly.
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
    h_effective = np.array(
        [
            [w_drive**2 / (4.0 * w_delta), w_drive * w_g / (2.0 * w_delta)],
            [w_drive * w_g / (2.0 * w_delta), w_g**2 / w_delta],
        ]
    )
    exact = _evolve_from_first(h_exact, -1.0, t_grid)
    effective = _evolve_from_first(h_effective, 1.0, t_grid)
    p_exact = np.abs(exact[:, 1]) ** 2
    p_effective = np.abs(effective[:, 1]) ** 2
    p_excited = np.abs(exact[:, 2]) ** 2
    return p_exact, p_effective, p_excited


def adiabatic_error(
    omega: float,
    g: float,
    delta: float,
    t_grid: np.ndarray,
) -> AdiabaticReport:
    """Validity report for the excited-state elimination; see
    :func:`adiabatic_populations`."""
    p_exact, p_effective, p_excited = adiabatic_populations(omega, g, delta, t_grid)
    return AdiabaticReport(
        max_population_error=float(np.max(np.abs(p_exact - p_effective))),
        max_excited_population=float(np.max(p_excited)),
    )
