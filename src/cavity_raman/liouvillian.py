"""Lindblad dissipators and the vectorized Liouvillian.

Density matrices are vectorized by stacking columns, vec = rho.reshape(-1,
order="F"), so a sandwich A rho B is the Kronecker product B.T (x) A acting
on vec(rho).  Superoperators are in 1/ns: rates and Hamiltonians enter in
GHz and are scaled by 2pi on the way in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError, NonUniqueSteadyState
from .model import DIM, E_0, G1_0, G2_0, G2_1, ModelParams

TWO_PI = 2.0 * math.pi


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a square matrix into a vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v, dtype=complex)
    dim = math.isqrt(v.size)
    if dim * dim != v.size:
        raise DomainError(f"vector of length {v.size} is not a stacked square matrix")
    return v.reshape((dim, dim), order="F")


@dataclass(frozen=True)
class CollapseChannel:
    """One Lindblad jump operator with its angular rate in 1/ns."""

    operator: np.ndarray
    rate: float

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise DomainError(f"collapse operator must be square, got shape {op.shape}")
        if not math.isfinite(self.rate) or self.rate < 0.0:
            raise DomainError(f"collapse rate must be nonnegative, got {self.rate}")
        object.__setattr__(self, "operator", op)


def _sandwich(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> left rho right; C order makes the reshape free."""
    outer = np.multiply(right.T[:, None, :, None], left[None, :, None, :], order="C")
    return outer.reshape(left.size, left.size)


def lindblad_dissipator(channel: CollapseChannel) -> np.ndarray:
    """Vectorized dissipator rate * (O . O^dag - {O^dag O, .} / 2)."""
    op = channel.operator
    eye = np.eye(op.shape[0], dtype=complex)
    opdop = op.conj().T @ op
    return channel.rate * (
        _sandwich(op, op.conj().T)
        - 0.5 * _sandwich(opdop, eye)
        - 0.5 * _sandwich(eye, opdop)
    )


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    """Coherent generator -i 2pi [H, .] for a Hamiltonian given in GHz."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * TWO_PI * (_sandwich(h, eye) - _sandwich(eye, h))


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


def collapse_channels(params: ModelParams) -> list[CollapseChannel]:
    """Cavity decay, spontaneous emission, and ground-state reshuffling."""
    return [
        CollapseChannel(cavity_annihilation(), TWO_PI * params.kappa),
        CollapseChannel(transition(E_0, G1_0), TWO_PI * params.gamma1),
        CollapseChannel(transition(E_0, G2_0), TWO_PI * params.gamma2),
        CollapseChannel(transition(G2_0, G1_0), TWO_PI * params.gamma_flip),
    ]


def phonon_channels(params: ModelParams) -> list[CollapseChannel]:
    """Thermal jump operators between the dressed branches.

    The two channels connect plus <-> minus and plus <-> dark; downward
    rates carry (1 + n) and upward rates n, with n the Bose occupation at
    the branch splitting.  The spectral density and the occupation are
    evaluated with both splittings set to the laser detuning, the
    leading-order choice.
    """
    if params.delta_laser <= 0.0:
        raise DomainError(
            "phonon channels need a positive laser detuning, "
            f"got {params.delta_laser}"
        )
    dressed = model.dressed_states(params)
    split = params.delta_laser
    occupation = 0.0 if params.kT == 0.0 else model.n_thermal(split, params.kT)

    # Perturbative weight of the phonon coupling on the dressed branches.
    prefactor = (params.g**2 + (params.omega_drive / 2.0) ** 2) / params.delta_laser**2

    channels = []
    for alpha, lower in (
        (params.phonon_alpha1, dressed.minus),
        (params.phonon_alpha2, dressed.dark),
    ):
        density = alpha * split**params.phonon_n
        rate = TWO_PI * prefactor * density
        upward = np.outer(dressed.plus, lower.conj())
        downward = np.outer(lower, dressed.plus.conj())
        channels.append(CollapseChannel(upward, rate * occupation))
        channels.append(CollapseChannel(downward, rate * (1.0 + occupation)))
    return channels


def build_liouvillian(params: ModelParams) -> np.ndarray:
    """Full generator of the master equation on the truncated basis, 1/ns."""
    gen = hamiltonian_superoperator(model.build_hamiltonian(params))
    for channel in collapse_channels(params):
        gen += lindblad_dissipator(channel)
    if params.phonon_alpha1 > 0.0 or params.phonon_alpha2 > 0.0:
        # The phonon terms are summed on their own, then added: the last
        # bits of every output depend on this order.
        gen += sum(lindblad_dissipator(channel) for channel in phonon_channels(params))
    return gen


def steady_state(gen: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Unique trace-one null vector of the generator.

    Raises NonUniqueSteadyState when the second-smallest singular value is
    below rtol times the largest, i.e. when the kernel is degenerate at
    working precision.
    """
    gen = np.asarray(gen, dtype=complex)
    _, svals, vh = np.linalg.svd(gen)
    if svals[-2] < rtol * svals[0]:
        raise NonUniqueSteadyState(
            f"singular values {svals[-2]:.3e}, {svals[-1]:.3e} both vanish "
            f"against {svals[0]:.3e}"
        )
    rho = unvec(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if abs(trace) < 1e-14:
        raise NonUniqueSteadyState("null vector is traceless, no physical state")
    return rho / trace


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Half the trace norm of the difference of two hermitian matrices."""
    diff = np.asarray(rho_a, dtype=complex) - np.asarray(rho_b, dtype=complex)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
