"""Lindblad dissipators and the vectorized Liouvillian.

Density matrices are vectorized by stacking columns, vec = rho.reshape(-1,
order="F"), so a sandwich A rho B is the Kronecker product B.T (x) A acting
on vec(rho).  Superoperators are in 1/ns: rates and Hamiltonians enter in
GHz and are scaled by 2pi on the way in.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model, stack
from .errors import DomainError, NonUniqueSteadyState
from .model import DIM, E_0, G1_0, G2_0, G2_1, ModelParams

TWO_PI = 2.0 * math.pi


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


@dataclass(frozen=True)
class CollapseChannel:
    """One Lindblad jump operator with its angular rate in 1/ns.

    A stack of channels holds operators of shape (..., n, n) and one rate
    per leading index, an array of the leading shape.
    """

    operator: np.ndarray
    rate: float | np.ndarray

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim < 2 or op.shape[-1] != op.shape[-2]:
            raise DomainError(f"collapse operator must be square, got shape {op.shape}")
        rates = np.ravel(self.rate)
        refused = ~(np.isfinite(rates) & (rates >= 0.0))
        if refused.any():
            stack.unwrap(_rate_error(float(rates[np.argmax(refused)])))
        object.__setattr__(self, "operator", op)


def _rate_error(rate: float) -> DomainError | None:
    if not math.isfinite(rate) or rate < 0.0:
        return DomainError(f"collapse rate must be nonnegative, got {rate}")
    return None


def _sandwich(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> left rho right, over any leading axes; C
    order makes the reshape free."""
    outer = np.multiply(
        np.swapaxes(right, -1, -2)[..., :, None, :, None],
        left[..., None, :, None, :],
        order="C",
    )
    n = left.shape[-1]
    return outer.reshape(outer.shape[:-4] + (n * n, n * n))


def lindblad_dissipator(channel: CollapseChannel) -> np.ndarray:
    """Vectorized dissipator rate * (O . O^dag - {O^dag O, .} / 2), over the
    leading axes of a stacked channel."""
    op = channel.operator
    eye = np.eye(op.shape[-1], dtype=complex)
    op_dag = np.swapaxes(op.conj(), -1, -2)
    opdop = op_dag @ op
    # In place where the products allow it: a 48-point stack's terms are
    # 200 kB each.
    dissipator = _sandwich(op, op_dag)
    dissipator -= _halved(_sandwich(opdop, eye))
    dissipator -= _halved(_sandwich(eye, opdop))
    rate = np.asarray(channel.rate, dtype=complex)[..., None, None]
    fits = np.broadcast_shapes(rate.shape, dissipator.shape) == dissipator.shape
    return np.multiply(rate, dissipator, out=dissipator if fits else None)


def _halved(term: np.ndarray) -> np.ndarray:
    term *= 0.5
    return term


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    """Coherent generator -i 2pi [H, .] for a Hamiltonian given in GHz, over
    any leading axes."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[-1], dtype=complex)
    generator = _sandwich(h, eye)
    generator -= _sandwich(eye, h)
    generator *= -1j * TWO_PI
    return generator


def cavity_annihilation() -> np.ndarray:
    """Photon annihilation restricted to the truncated basis."""
    a = np.zeros((DIM, DIM), dtype=complex)
    a[G2_0, G2_1] = 1.0
    return a


def transition(upper: int, lower: int) -> np.ndarray:
    """Jump operator |lower><upper| on the truncated basis."""
    op = np.zeros((DIM, DIM), dtype=complex)
    op[lower, upper] = 1.0
    return op


def phonon_channels(params: ModelParams) -> list[CollapseChannel]:
    """Thermal jump operators between the dressed branches.

    The two channels connect plus <-> minus and plus <-> dark; downward
    rates carry (1 + n) and upward rates n, with n the Bose occupation at
    the branch splitting.  The spectral density and the occupation are
    evaluated with both splittings set to the laser detuning, the
    leading-order choice.  Returned in the order up, down (minus branch),
    up, down (dark branch).
    """
    ops, rates = stack.alone(_phonon_terms, params)
    return [CollapseChannel(op, float(rate)) for op, rate in zip(ops, rates)]


def _phonon_terms(points: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray]:
    """Operators (K, 4, 4, 4) and rates (K, 4) of every point's phonon
    channels, in :func:`phonon_channels` order."""
    stack.fail({
        k: DomainError(f"phonon channels need a positive laser detuning, got {point.delta_laser}")
        for k, point in enumerate(points)
        if point.delta_laser <= 0.0
    })
    vectors, _ = model.dressed_states(points)
    rates = [_phonon_rates(point) for point in points]
    stack.fail(rates)
    # np.outer(left, right.conj()) of each point, for the (left, right)
    # pairs (plus, minus), (minus, plus), (plus, dark), (dark, plus).
    left, right = vectors[:, [2, 1, 2, 0], :, None], vectors.conj()[:, [1, 2, 0, 2], None, :]
    return left * right, np.array(rates)


def _phonon_rates(params: ModelParams) -> list[float] | DomainError:
    """Rates of the four phonon channels of one point, or the DomainError
    of the first that CollapseChannel refuses, or of a power or quotient
    that overflows a float."""
    split = params.delta_laser
    occupation = 0.0 if params.kT == 0.0 else model.n_thermal(split, params.kT)
    try:
        # Perturbative weight of the phonon coupling on the dressed branches.
        prefactor = (params.g**2 + (params.omega_drive / 2.0) ** 2) / params.delta_laser**2
        power = split**params.phonon_n
    except ArithmeticError:
        return DomainError(
            "phonon rates overflow a float at "
            f"g = {params.g:.6g}, omega_drive = {params.omega_drive:.6g}, "
            f"delta_laser = {params.delta_laser:.6g}, "
            f"phonon_alpha1 = {params.phonon_alpha1:.6g}, "
            f"phonon_alpha2 = {params.phonon_alpha2:.6g}, phonon_n = {params.phonon_n:.6g}"
        )
    rates = []
    for alpha in (params.phonon_alpha1, params.phonon_alpha2):
        rate = TWO_PI * prefactor * (alpha * power)
        rates += [rate * occupation, rate * (1.0 + occupation)]
    return next(filter(None, map(_rate_error, rates)), rates)


# Cavity decay, spontaneous emission, and ground-state reshuffling.
_FIXED_CHANNELS = (
    (cavity_annihilation(), "kappa"),
    (transition(E_0, G1_0), "gamma1"),
    (transition(E_0, G2_0), "gamma2"),
    (transition(G2_0, G1_0), "gamma_flip"),
)


def build_liouvillian(params: ModelParams | Sequence[ModelParams]) -> np.ndarray:
    """Full generator of the master equation on the truncated basis, 1/ns.

    Given one operating point, returns its (16, 16) generator or raises.
    Given a sequence of K, builds all K in one pass and returns the
    (K, 16, 16) stack, or raises stack.Failed for the points that fail.
    Each generator is bitwise the one its point gets alone.
    """
    if isinstance(params, ModelParams):
        return stack.alone(_build, params)
    return _build(params)


# Rates that are finite alone can overflow in their sum; such a generator
# is refused at the end, before any LAPACK routine sees it.
@np.errstate(over="ignore", invalid="ignore")
def _build(points: Sequence[ModelParams]) -> np.ndarray:
    rates = np.array(
        [[TWO_PI * getattr(point, name) for _, name in _FIXED_CHANNELS] for point in points]
    ).reshape(-1, len(_FIXED_CHANNELS))
    stack.fail([next(filter(None, map(_rate_error, row)), None) for row in rates.tolist()])

    # The phonon terms are summed on their own, from 0, and added last: the
    # last bits of every output depend on this order.  They are summed
    # first, so that at most three stack-sized arrays are alive at a time.
    # Points without phonons get no term, as alone, so they never meet the
    # phonon channels' errors (a non-positive laser detuning, coinciding
    # dressed frequencies).
    phonon = [
        k
        for k, point in enumerate(points)
        if point.phonon_alpha1 > 0.0 or point.phonon_alpha2 > 0.0
    ]
    total = 0
    if phonon:
        try:
            ops, phonon_rates = _phonon_terms([points[k] for k in phonon])
        except stack.Failed as failed:
            stack.fail({phonon[j]: error for j, error in failed.errors.items()})
        for j in range(ops.shape[1]):
            total += lindblad_dissipator(CollapseChannel(ops[:, j], phonon_rates[:, j]))

    gens = hamiltonian_superoperator(model.build_hamiltonian(points))
    for j, (op, _) in enumerate(_FIXED_CHANNELS):
        gens += lindblad_dissipator(CollapseChannel(op, rates[:, j]))
    if phonon:
        gens[phonon] += total
    stack.fail({
        k: DomainError("generator has a non-finite entry: its rates overflow a float")
        for k in np.flatnonzero(~np.isfinite(gens).all(axis=(1, 2))).tolist()
    })
    return gens


#: Kernel test of steady_state: the second-smallest singular value must
#: exceed this fraction of the largest.
KERNEL_RTOL = 1e-10


def steady_state(gen: np.ndarray, excitations: np.ndarray | None = None) -> np.ndarray:
    """Unique trace-one null vector of the generator.

    Raises NonUniqueSteadyState when the second-smallest singular value is
    below KERNEL_RTOL times the largest, i.e. when the kernel is degenerate
    at working precision.  Given a (K, n, n) stack of generators, makes one
    stacked SVD per sector and returns the (K, m, m) states, or raises
    stack.Failed for the generators that fail.

    ``excitations``, one integer N per basis state, declares the generator
    block-diagonal in the charge q = N_i - N_j of each |i><j| (a weak U(1)
    symmetry).  The solve then checks that every entry coupling two
    sectors is exactly zero, or raises DomainError for that generator;
    takes the null vector from the q = 0 sector alone, with every other
    entry of the state exactly zero; and reads the kernel test from the
    union of all sectors' singular values.  Without it the generator is
    one sector, solved by one SVD of the whole.
    """
    gen = np.asarray(gen, dtype=complex)
    solve = functools.partial(_steady_states, excitations=excitations)
    if gen.ndim == 2:
        return stack.alone(solve, gen)
    return solve(gen)


def _steady_states(gen: np.ndarray, excitations: np.ndarray | None) -> np.ndarray:
    count, size = gen.shape[0], gen.shape[-1]
    dim = math.isqrt(size)
    if dim * dim != size:
        raise DomainError(f"vector of length {size} is not a stacked square matrix")
    vectors, svals = _null_vectors(gen, _charges(excitations, dim))
    # Each row is a column-stacked square matrix: undo the stacking.
    rho = np.swapaxes(vectors.reshape(count, dim, dim), -1, -2)
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


def _charges(excitations: np.ndarray | None, dim: int) -> np.ndarray:
    """Charge N_i - N_j of each vec position of a dim x dim matrix; all
    zero without ``excitations``."""
    if excitations is None:
        return np.zeros(dim * dim, dtype=int)
    counts = np.asarray(excitations)
    if counts.shape != (dim,):
        raise DomainError(f"need {dim} excitation numbers, got shape {counts.shape}")
    return (counts[:, None] - counts[None, :]).reshape(-1, order="F")


def _null_vectors(gen: np.ndarray, charges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null vectors (K, n) of a stack of generators, each the last right
    singular vector of its q = 0 sector placed at that sector's positions,
    and the (K, n) union of every sector's singular values in descending
    order; raises Failed for a generator with a nonzero entry between
    sectors, or whose SVD fails."""
    # Not np.unique: its first call in a process adds about 0.5 MB to the
    # peak memory of every sweep.
    sectors = [charges == q for q in [0] + sorted(set(charges.tolist()) - {0})]
    leaks = (gen != 0.0) & (charges[:, None] != charges[None, :])
    stack.fail({
        k: DomainError(
            f"generator entry ({row}, {col}) couples excitation sectors "
            f"{charges[row]} and {charges[col]}"
        )
        for k in np.flatnonzero(leaks.any(axis=(1, 2))).tolist()
        for row, col in [np.unravel_index(np.argmax(leaks[k]), leaks.shape[1:])]
    })
    zero = sectors[0]
    (_, svals, vh), errors = stack.linalg(np.linalg.svd, gen[:, zero][:, :, zero])
    values = [svals]
    for sector in sectors[1:]:
        (sector_values,), sector_errors = stack.linalg(
            functools.partial(np.linalg.svd, compute_uv=False), gen[:, sector][:, :, sector]
        )
        values.append(sector_values)
        errors = [first or later for first, later in zip(errors, sector_errors)]
    stack.fail(errors)
    union = np.sort(np.concatenate(values, axis=1), axis=1)[:, ::-1]
    vectors = np.zeros(gen.shape[:2], dtype=complex)
    vectors[:, zero] = vh[:, -1].conj()
    # Where another sector holds the smallest singular value, the kernel
    # lies off the diagonal, so the null vector of the whole generator is
    # traceless: zero, as the trace test reads it.
    vectors[svals[:, -1] > union[:, -1]] = 0.0
    return vectors, union


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Half the trace norm of the difference of two hermitian matrices."""
    diff = np.asarray(rho_a, dtype=complex) - np.asarray(rho_b, dtype=complex)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
