"""Lindblad dissipators, the vectorized Liouvillian and its charge blocks.

Density matrices are vectorized by stacking columns, vec = rho.reshape(-1,
order="F"), so a sandwich A rho B is the Kronecker product B.T (x) A acting
on vec(rho).  Superoperators are in 1/ns: rates and Hamiltonians enter in
GHz and are scaled by 2pi on the way in.

Two builders share one list of jump channels and one set of failure rules:
:func:`build_liouvillian`, the whole (16, 16) generator, and
:func:`charge_blocks`, only its two blocks that the ratio pipeline reads,
assembled from rank-one jumps.  The whole generator is their oracle.
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


def _charges(excitations: np.ndarray) -> np.ndarray:
    """Charge N_i - N_j of each vec position of a matrix on a basis whose
    states hold ``excitations``, one excitation number N each."""
    return (excitations[:, None] - excitations[None, :]).reshape(-1, order="F")


#: Excitation number N of each basis state, in model order: |g1,0>, |g2,1>
#: and |e,0> hold the one quantum of drive or cavity, |g2,0> none.  No term
#: of the generator changes the charge q = N_i - N_j of |i><j|, so it is
#: block-diagonal in q.
EXCITATIONS = np.array([1, 0, 1, 1])
#: Vec positions of the q = 0 block, which holds the steady state: the ten
#: |i><j| with N_i = N_j, in vec order.  And of the q = -1 block,
#: |g2,0><j| for j in COHERENT_BLOCK: vec(a rho) of every q = 0 state rho
#: lies in it, and so do the three correlation modes.  The q = +1 block is
#: its complex conjugate.
STATE_BLOCK, MODE_BLOCK = (np.flatnonzero(_charges(EXCITATIONS) == q) for q in (0, -1))


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
            raise DomainError(
                f"collapse rate must be nonnegative, got {float(rates[np.argmax(refused)])}"
            )
        object.__setattr__(self, "operator", op)


def _rate_error(rate: float) -> DomainError | None:
    """The DomainError of a builder's channel rate in 1/ns, or None.  Every
    rate comes from finite, nonnegative parameters, so the only one refused
    is a rate that overflowed a float on its way in."""
    if math.isfinite(rate):
        return None
    return DomainError(
        f"collapse rate overflows a float (got {rate} 1/ns): a rate in GHz times "
        "2 pi, or a phonon rate, is too large"
    )


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
    return transition(G2_1, G2_0)


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
    kets, bras, rates = stack.alone(_phonon_terms, params)
    return [
        CollapseChannel(np.outer(u, v.conj()), float(rate))
        for u, v, rate in zip(kets, bras, rates)
    ]


def _phonon_terms(points: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every point's phonon jumps |u><v| as their vectors u and v, (K, 4, 4)
    each, and their rates (K, 4), in :func:`phonon_channels` order."""
    stack.fail({
        k: DomainError(f"phonon channels need a positive laser detuning, got {point.delta_laser}")
        for k, point in enumerate(points)
        if point.delta_laser <= 0.0
    })
    vectors, _ = model.dressed_states(points)
    rates = [_phonon_rates(point) for point in points]
    stack.fail(rates)
    # The (u, v) pairs (plus, minus), (minus, plus), (plus, dark), (dark, plus).
    return vectors[:, [2, 1, 2, 0]], vectors[:, [1, 2, 0, 2]], np.array(rates)


def _phonon_rates(params: ModelParams) -> list[float] | DomainError:
    """Rates of the four phonon channels of one point, or the DomainError
    of the first that overflows, or of a power or quotient that overflows
    a float."""
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
    # Tested before the occupation scales them: inf * 0 at kT = 0 is NaN.
    alphas = (params.phonon_alpha1, params.phonon_alpha2)
    bare = [TWO_PI * prefactor * (alpha * power) for alpha in alphas]
    rates = [scaled for rate in bare for scaled in (rate * occupation, rate * (1.0 + occupation))]
    return next(filter(None, map(_rate_error, bare + rates)), rates)


# Cavity decay, spontaneous emission, and ground-state reshuffling: the
# jump |lower><upper| of each, and the parameter of its rate in GHz.
_FIXED_CHANNELS = (
    (G2_1, G2_0, "kappa"),
    (E_0, G1_0, "gamma1"),
    (E_0, G2_0, "gamma2"),
    (G2_0, G1_0, "gamma_flip"),
)


def _channels(points: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """The eight jump channels of every point, the prologue of both
    builders: rates (K, 8) in 1/ns, and each jump L = |u><v| as its vectors
    u and v, (K, 8, 4) each.  The four fixed channels come first, in
    ``_FIXED_CHANNELS`` order, then the phonon channels, in
    :func:`phonon_channels` order.  Also returns the positions of the
    points with phonons; the others get no phonon term, as alone, so they
    never meet the phonon channels' errors (a non-positive laser detuning,
    coinciding dressed frequencies).  Raises stack.Failed for the points
    whose rates overflow or whose phonon channels fail, in that order."""
    count = len(points)
    rates = np.zeros((count, 8))
    rates[:, :4] = np.reshape(
        [[TWO_PI * getattr(point, name) for *_, name in _FIXED_CHANNELS] for point in points],
        (-1, 4),
    )
    stack.fail([next(filter(None, map(_rate_error, row)), None) for row in rates.tolist()])
    u, v = np.zeros((2, count, 8, DIM), dtype=complex)
    for j, (upper, lower, _) in enumerate(_FIXED_CHANNELS):
        u[:, j, lower] = v[:, j, upper] = 1.0
    phonon = [
        k
        for k, point in enumerate(points)
        if point.phonon_alpha1 > 0.0 or point.phonon_alpha2 > 0.0
    ]
    if phonon:
        try:
            u[phonon, 4:], v[phonon, 4:], rates[phonon, 4:] = _phonon_terms(
                [points[k] for k in phonon]
            )
        except stack.Failed as failed:
            stack.fail({phonon[j]: error for j, error in failed.errors.items()})
    return rates, u, v, phonon


def _refuse_non_finite(*blocks: np.ndarray) -> None:
    """Raise stack.Failed for the generators with a non-finite entry in any
    of ``blocks``, stacks of their (n, n) blocks: rates that are finite
    alone can overflow in their sum, and such a generator is refused before
    any LAPACK routine sees it."""
    finite = np.logical_and.reduce([np.isfinite(block).all(axis=(1, 2)) for block in blocks])
    stack.fail({
        k: DomainError("generator has a non-finite entry: its rates overflow a float")
        for k in np.flatnonzero(~finite).tolist()
    })


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


@np.errstate(over="ignore", invalid="ignore")  # refused at the end
def _build(points: Sequence[ModelParams]) -> np.ndarray:
    rates, u, v, phonon = _channels(points)
    # The phonon terms are summed on their own, from 0, and added last: the
    # last bits of every generator depend on this order.  They are summed
    # first, so that at most three stack-sized arrays are alive at a time.
    total = 0
    for j in range(4, 8) if phonon else ():
        ops = u[phonon, j, :, None] * v[phonon, j, None, :].conj()
        total += lindblad_dissipator(CollapseChannel(ops, rates[phonon, j]))

    gens = hamiltonian_superoperator(model.build_hamiltonian(points))
    for j, (upper, lower, _) in enumerate(_FIXED_CHANNELS):
        gens += lindblad_dissipator(CollapseChannel(transition(upper, lower), rates[:, j]))
    if phonon:
        gens[phonon] += total
    _refuse_non_finite(gens)
    return gens


def charge_blocks(
    params: ModelParams | Sequence[ModelParams],
) -> tuple[np.ndarray, np.ndarray]:
    """The generator's q = 0 block at ``STATE_BLOCK`` and its q = -1 block
    at ``MODE_BLOCK``, 1/ns, without the whole generator.

    Every jump is rank one, L = |u><v|, so with the effective
    non-Hermitian Hamiltonian G = -2 pi i H - (1/2) sum_c rate_c L_c^dag L_c
    (Dalibard, Castin and Molmer, PRL 68, 580 (1992)) the entry of row
    |i><j| and column |k><l| is
    G[i,k] d[j,l] + d[i,k] G*[j,l] + sum_c rate_c u_i u_j* v_k* v_l.
    The blocks equal the slices of :func:`build_liouvillian` up to
    rounding, and fail as it does.  Given one operating point, returns its
    (10, 10) and (3, 3) blocks or raises; given a sequence of K, the
    (K, 10, 10) and (K, 3, 3) stacks, or raises stack.Failed for the
    points that fail.  Each point's blocks are bitwise the ones it gets
    alone.
    """
    if isinstance(params, ModelParams):
        return stack.alone(_charge_blocks, params)
    return _charge_blocks(params)


@np.errstate(over="ignore", invalid="ignore")  # refused at the end
def _charge_blocks(points: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray]:
    rates, u, v, _ = _channels(points)
    # L^dag L = <u|u> |v><v|.
    decay = (rates * np.sum(np.abs(u) ** 2, axis=-1))[:, None, :] * np.swapaxes(v, 1, 2)
    g = -1j * TWO_PI * model.build_hamiltonian(points) - 0.5 * (decay @ v.conj())
    blocks = []
    for positions in (STATE_BLOCK, MODE_BLOCK):
        i, j = positions % DIM, positions // DIM
        block = np.where(j[:, None] == j, g[:, i[:, None], i], 0.0)
        block += np.where(i[:, None] == i, g[:, j[:, None], j].conj(), 0.0)
        # One (n, 8) @ (8, n) product sums the eight jumps' sandwiches.
        left = rates[:, None, :] * np.swapaxes(u[:, :, i] * u[:, :, j].conj(), 1, 2)
        block += left @ (v[:, :, i].conj() * v[:, :, j])
        blocks.append(block)
    _refuse_non_finite(*blocks)
    return tuple(blocks)


#: Kernel test of steady_state: the second-smallest singular value must
#: exceed this fraction of the largest.
KERNEL_RTOL = 1e-10


def steady_state(gen: np.ndarray) -> np.ndarray:
    """Unique trace-one null vector of the generator.

    Raises NonUniqueSteadyState when the second-smallest singular value is
    below KERNEL_RTOL times the largest, i.e. when the kernel is degenerate
    at working precision.  Given a (K, n, n) stack of generators, makes one
    stacked SVD and returns the (K, m, m) states, or raises stack.Failed
    for the generators that fail.
    """
    gen = np.asarray(gen, dtype=complex)
    size = gen.shape[-1]
    if math.isqrt(size) ** 2 != size:
        raise DomainError(f"vector of length {size} is not a stacked square matrix")

    def solve(gens: np.ndarray) -> np.ndarray:
        # One sector: the whole generator.
        return _kernel_test(*_sector_null_vectors(gens, [], np.arange(size), size))

    return stack.alone(solve, gen) if gen.ndim == 2 else solve(gen)


def block_steady_state(state_block: np.ndarray, mode_block: np.ndarray) -> np.ndarray:
    """Unique trace-one steady state (4, 4) of the generator whose
    :func:`charge_blocks` are ``state_block`` and ``mode_block``, solved on
    the blocks alone.  Its kernel test reads the union of the q = 0 block's
    singular values and the q = -1 block's, counted twice: the q = +1
    block is the conjugate of the q = -1 block, so it has the same ones.
    Given (K, 10, 10) and (K, 3, 3) stacks, returns the (K, 4, 4) states
    or raises stack.Failed for the generators that fail.
    """
    if np.ndim(state_block) == 2:
        return stack.alone(block_steady_state, state_block, mode_block)
    return _kernel_test(*_block_null_vectors(state_block, mode_block))


def _block_null_vectors(state_block: np.ndarray, mode_block: np.ndarray):
    """:func:`_sector_null_vectors` of generators given by their charge
    blocks: the q = -1 block stands for itself and its conjugate."""
    return _sector_null_vectors(state_block, [mode_block], STATE_BLOCK, DIM * DIM)


def _kernel_test(vectors: np.ndarray, svals: np.ndarray) -> np.ndarray:
    """The states (K, dim, dim) of a stack of column-stacked null vectors
    (K, dim * dim), hermitian and of trace one, or stack.Failed for the
    generators whose kernel is degenerate (by the union of their sectors'
    singular values ``svals``, in descending order) or whose null vector
    is traceless: the one kernel test of the package."""
    count, dim = len(vectors), math.isqrt(vectors.shape[-1])
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


def _sector_null_vectors(
    zero: np.ndarray, others: Sequence[np.ndarray], positions: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Null vectors (K, size) of a stack of generators given by their
    charge sectors, and the (K, size) union of every sector's singular
    values in descending order; raises Failed for a generator whose SVD
    fails.

    ``zero`` holds the q = 0 blocks, at the vec ``positions``: each null
    vector is its block's last right singular vector there, and exactly
    zero elsewhere.  Each of ``others`` holds the blocks of a sector q != 0,
    counted twice for the -q sector, their conjugate."""
    (_, svals, vh), errors = stack.linalg(np.linalg.svd, zero)
    values = [svals]
    for block in others:
        (sector_values,), sector_errors = stack.linalg(
            functools.partial(np.linalg.svd, compute_uv=False), block
        )
        values += [sector_values] * 2
        errors = [first or later for first, later in zip(errors, sector_errors)]
    stack.fail(errors)
    union = np.sort(np.concatenate(values, axis=1), axis=1)[:, ::-1]
    vectors = np.zeros((len(zero), size), dtype=complex)
    vectors[:, positions] = vh[:, -1].conj()
    # Where another sector holds the smallest singular value, the kernel
    # lies off the diagonal, so the null vector of the whole generator is
    # traceless: zero, as the trace test reads it.
    vectors[svals[:, -1] > union[:, -1]] = 0.0
    return vectors, union


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Half the trace norm of the difference of two hermitian matrices."""
    diff = np.asarray(rho_a, dtype=complex) - np.asarray(rho_b, dtype=complex)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
