"""The vectorized Lindblad generator, assembled by charge blocks.

Density matrices are vectorized by stacking columns, vec = rho.reshape(-1,
order="F"), so a sandwich A rho B is the Kronecker product B.T (x) A acting
on vec(rho).  Superoperators are in 1/ns: rates and Hamiltonians enter in
GHz and are scaled by 2pi on the way in.

One assembler, :func:`generator_blocks`, builds the blocks of any
generator on the vec positions of its charge sectors from a Hamiltonian
and dense jumps: the four-state model's two blocks (:func:`charge_blocks`,
solved by :func:`block_steady_state`), the photon ladder's and the bare
emitter's.
"""
from __future__ import annotations

import functools
import math
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


def _rate_errors(rates: np.ndarray) -> dict[int, DomainError]:
    """The DomainError of each row of ``rates`` (K, n), channel rates in
    1/ns, that holds a non-finite rate, naming the first.  Every rate comes
    from finite, nonnegative parameters, so it overflowed a float on its
    way in."""
    bad = ~np.isfinite(rates)
    return {
        k: DomainError(
            f"collapse rate overflows a float (got {float(rates[k, bad[k]][0])} 1/ns): "
            "a rate in GHz times 2 pi, or a phonon rate, is too large"
        )
        for k in np.flatnonzero(bad.any(axis=1)).tolist()
    }


def phonon_channels(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Thermal jump operators between the dressed branches: their rates
    (4,) in 1/ns and jumps (4, 4, 4) on the truncated basis.

    The two channels connect plus <-> minus and plus <-> dark; downward
    rates carry (1 + n) and upward rates n, with n the Bose occupation at
    the branch splitting.  The spectral density and the occupation are
    evaluated with both splittings set to the laser detuning, the
    leading-order choice.  Returned in the order up, down (minus branch),
    up, down (dark branch).
    """
    return stack.alone(_phonon_terms, params)


def _phonon_terms(points: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray]:
    """Every point's phonon rates (K, 4) and jumps (K, 4, 4, 4), in
    :func:`phonon_channels` order.  Raises stack.Failed for the points
    with a non-positive laser detuning, then for those whose dressed states
    fail, then for those whose rates overflow: where a power overflows or a
    quotient divides by zero, a DomainError naming the parameters, and
    otherwise the first rate that is not finite."""
    g, omega, split, kT, alpha1, alpha2, exponent = model.columns(
        points, "g", "omega_drive", "delta_laser", "kT", "phonon_alpha1", "phonon_alpha2",
        "phonon_n",
    )
    stack.fail({
        k: DomainError(
            f"phonon channels need a positive laser detuning, got {points[k].delta_laser}"
        )
        for k in np.flatnonzero(split <= 0.0).tolist()
    })
    vectors, _ = model.dressed_states(points)
    # n_thermal's math.expm1 per point: np.expm1 rounds some splittings differently.
    occupation = np.array([
        0.0 if temperature == 0.0 else model.n_thermal(delta, temperature)
        for delta, temperature in zip(split.tolist(), kT.tolist())
    ])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # float_power rounds as Python's ** does, squares included.
        squares = np.float_power([g, omega / 2.0, split], 2.0)
        power = np.float_power(split, exponent)
        # Perturbative weight of the phonon coupling on the dressed branches.
        prefactor = (squares[0] + squares[1]) / squares[2]
        bare = TWO_PI * prefactor * (np.array([alpha1, alpha2]) * power)
        # Up then down for each branch: rate * n and rate * (1 + n).
        scales = np.array([occupation, 1.0 + occupation]).T
        rates = (bare.T[:, :, None] * scales[:, None]).reshape(-1, 4)
    # Tested before the occupation scales them: inf * 0 at kT = 0 is NaN.
    errors = _rate_errors(np.concatenate([bare.T, rates], axis=1))
    # A power that overflows, or a square that underflows to a zero divisor.
    overflow = np.isinf(squares).any(axis=0) | (squares[2] == 0.0) | np.isinf(power)
    stack.fail(errors | {
        k: DomainError(
            "phonon rates overflow a float at "
            f"g = {g[k]:.6g}, omega_drive = {omega[k]:.6g}, delta_laser = {split[k]:.6g}, "
            f"phonon_alpha1 = {alpha1[k]:.6g}, phonon_alpha2 = {alpha2[k]:.6g}, "
            f"phonon_n = {exponent[k]:.6g}"
        )
        for k in np.flatnonzero(overflow).tolist()
    })
    # Jumps |u><v| of (u, v) = (plus, minus), (minus, plus), (plus, dark), (dark, plus).
    kets, bras = vectors[:, [2, 1, 2, 0]], vectors[:, [1, 2, 0, 2]]
    return rates, kets[..., :, None] * bras[..., None, :].conj()


# Cavity decay, spontaneous emission, and ground-state reshuffling: the
# jump |lower><upper| of each, and the parameter of its rate in GHz.
_FIXED_CHANNELS = (
    (G2_1, G2_0, "kappa"),
    (E_0, G1_0, "gamma1"),
    (E_0, G2_0, "gamma2"),
    (G2_0, G1_0, "gamma_flip"),
)


def _channels(points: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray]:
    """The eight jump channels of every point, the prologue of
    :func:`charge_blocks`: rates (K, 8) in 1/ns and jumps (K, 8, 4, 4).
    The four fixed channels come first, in ``_FIXED_CHANNELS`` order, then
    the phonon channels, in :func:`phonon_channels` order.  A point
    without phonons gets zero phonon jumps and rates, as alone, so it
    never meets the phonon channels' errors (a non-positive laser
    detuning, coinciding dressed frequencies).  Raises stack.Failed for
    the points whose rates overflow or whose phonon channels fail, in that
    order."""
    count = len(points)
    values = model.columns(
        points, *(name for *_, name in _FIXED_CHANNELS), "phonon_alpha1", "phonon_alpha2"
    )
    rates = np.zeros((count, 8))
    with np.errstate(over="ignore"):  # refused next
        rates[:, :4] = TWO_PI * values[:4].T
    stack.fail(_rate_errors(rates[:, :4]))
    jumps = np.zeros((count, 8, DIM, DIM), dtype=complex)
    for j, (upper, lower, _) in enumerate(_FIXED_CHANNELS):
        jumps[:, j, lower, upper] = 1.0
    phonon = np.flatnonzero((values[4:] > 0.0).any(axis=0)).tolist()
    if phonon:
        try:
            rates[phonon, 4:], jumps[phonon, 4:] = _phonon_terms([points[k] for k in phonon])
        except stack.Failed as failed:
            stack.fail({phonon[j]: error for j, error in failed.errors.items()})
    return rates, jumps


def _refuse_non_finite(coherent: np.ndarray, *blocks: np.ndarray) -> None:
    """Raise stack.Failed for the generators with a non-finite entry in any
    of ``blocks``, stacks of their (n, n) blocks: rates that are finite
    alone can overflow in their sum, and such a generator is refused before
    any LAPACK routine sees it.  The error names the Hamiltonian where the
    coherent term ``coherent`` (K, n, n), -2 pi i H, is not finite."""
    finite = np.logical_and.reduce([np.isfinite(block).all(axis=(1, 2)) for block in blocks])
    stack.fail({
        k: DomainError(
            "generator has a non-finite entry: "
            + ("its rates overflow a float" if np.isfinite(coherent[k]).all()
               else "its Hamiltonian times 2 pi overflows a float")
        )
        for k in np.flatnonzero(~finite).tolist()
    })


@np.errstate(over="ignore", invalid="ignore")  # refused at the end
def generator_blocks(
    h: np.ndarray, rates: np.ndarray, jumps: np.ndarray, sectors: Sequence[np.ndarray]
) -> tuple[np.ndarray, ...]:
    """The blocks of a stack of K Lindblad generators, 1/ns, one (K, m, m)
    block for each array of m vec positions in ``sectors``: its rows and
    columns.  Of the whole generator only the jumps' part is formed, as
    one (n^2, n^2) sum of the channels' sandwiches per generator.

    The generators are given by their Hamiltonians ``h`` (K, n, n) in GHz
    and their jumps ``jumps`` (K, C, n, n) at ``rates`` (K, C) in 1/ns.
    With the effective non-Hermitian Hamiltonian
    G = -2 pi i H - (1/2) sum_c rate_c L_c^dag L_c (Dalibard, Castin and
    Molmer, PRL 68, 580 (1992)), the entry of row |i><j| and column |k><l|
    is G[i,k] d[j,l] + d[i,k] G*[j,l] + sum_c rate_c L_c[i,k] L_c*[j,l].
    Raises stack.Failed for the generators with a non-finite entry in any
    block, naming the Hamiltonian where 2 pi H overflows and the rates
    otherwise.  Each generator's blocks are bitwise the ones it gets alone.
    """
    count, channels, n = jumps.shape[:3]
    # sum_c rate_c L_c[i,k] L_c*[j,l] at row i n + k and column j n + l:
    # one (n^2, C) @ (C, n^2) product sums the channels' sandwiches.
    flat = jumps.reshape(count, channels, n * n)
    sandwiches = np.swapaxes(rates[:, :, None] * flat, 1, 2) @ flat.conj()
    # Their trace over i = j is sum_c rate_c (L_c^dag L_c)[l,k].
    decay = np.trace(sandwiches.reshape((count,) + (n,) * 4), axis1=1, axis2=3)
    coherent = -1j * TWO_PI * h
    g = coherent - 0.5 * np.swapaxes(decay, 1, 2)
    blocks = []
    for positions in sectors:
        i, j = positions % n, positions // n
        block = np.where(j[:, None] == j, g[:, i[:, None], i], 0.0)
        block += np.where(i[:, None] == i, g[:, j[:, None], j].conj(), 0.0)
        block += sandwiches[:, i[:, None] * n + i, j[:, None] * n + j]
        blocks.append(block)
    _refuse_non_finite(coherent, *blocks)
    return tuple(blocks)


def charge_blocks(
    params: ModelParams | Sequence[ModelParams],
) -> tuple[np.ndarray, np.ndarray]:
    """The generator's q = 0 block at ``STATE_BLOCK`` and its q = -1 block
    at ``MODE_BLOCK``, 1/ns, by :func:`generator_blocks` of the model
    Hamiltonian and the eight jump channels.  Given one operating point,
    returns its (10, 10) and (3, 3) blocks or raises; given a sequence of
    K, the (K, 10, 10) and (K, 3, 3) stacks, or raises stack.Failed for
    the points that fail.  Each point's blocks are bitwise the ones it
    gets alone.
    """
    if isinstance(params, ModelParams):
        return stack.alone(_charge_blocks, params)
    return _charge_blocks(params)


def _charge_blocks(points: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray]:
    rates, jumps = _channels(points)
    return generator_blocks(
        model.build_hamiltonian(points), rates, jumps, (STATE_BLOCK, MODE_BLOCK)
    )


#: Kernel test of the steady state: the second-smallest singular value
#: must exceed this fraction of the largest.
KERNEL_RTOL = 1e-10


def block_steady_state(state_block: np.ndarray, mode_block: np.ndarray) -> np.ndarray:
    """Unique trace-one steady state (4, 4) of the generator whose
    :func:`charge_blocks` are ``state_block`` and ``mode_block``, solved on
    the blocks alone.  Its kernel test reads the union of the q = 0 block's
    singular values and the q = -1 block's, counted twice: the q = +1
    block is the conjugate of the q = -1 block, so it has the same ones.
    Given (K, 10, 10) and (K, 3, 3) stacks, returns the (K, 4, 4) states
    or raises stack.Failed for the generators that fail.
    """

    def solve(states: np.ndarray, modes: np.ndarray) -> np.ndarray:
        return _kernel_test(*_sector_null_vectors(states, [modes], STATE_BLOCK, DIM * DIM))

    if np.ndim(state_block) == 2:
        return stack.alone(solve, state_block, mode_block)
    return solve(state_block, mode_block)


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
