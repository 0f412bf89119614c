"""Lindblad dissipators and the vectorized Liouvillian.

Density matrices are vectorized by stacking columns, vec = rho.reshape(-1,
order="F"), so a sandwich A rho B maps to (B.T kron A) vec(rho).  All
superoperators generated here are in 1/ns: rates and Hamiltonians enter in
GHz and are scaled by 2pi on the way in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def lindblad_dissipator(channel: CollapseChannel) -> np.ndarray:
    """Vectorized dissipator rate * (O . O^dag - {O^dag O, .} / 2)."""
    op = channel.operator
    eye = np.eye(op.shape[0], dtype=complex)
    opdop = op.conj().T @ op
    return channel.rate * (
        np.kron(op.conj(), op)
        - 0.5 * np.kron(eye, opdop)
        - 0.5 * np.kron(opdop.T, eye)
    )


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    """Coherent generator -i 2pi [H, .] for a Hamiltonian given in GHz."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * TWO_PI * (np.kron(eye, h) - np.kron(h.T, eye))


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


def phonon_channels(params: ModelParams, lambda_mode: str = "laser") -> list[CollapseChannel]:
    """Thermal jump operators between the dressed branches.

    The two channels connect plus <-> minus and plus <-> dark; downward
    rates carry (1 + n) and upward rates n, with n the Bose occupation at
    the branch splitting.  ``lambda_mode="laser"`` evaluates the spectral
    density and occupation at the laser detuning, the leading-order choice;
    ``"dressed"`` uses the exact splittings omega_plus - omega_minus and
    omega_plus - omega_dark instead.  Splittings must be positive.
    """
    if params.delta_laser <= 0.0:
        raise DomainError(
            "phonon channels need a positive laser detuning, "
            f"got {params.delta_laser}"
        )
    dressed = model.dressed_states(params)
    if lambda_mode == "laser":
        split1 = split2 = params.delta_laser
    elif lambda_mode == "dressed":
        split1 = dressed.omega_plus - dressed.omega_minus
        split2 = dressed.omega_plus - dressed.omega_dark
        if split1 <= 0.0 or split2 <= 0.0:
            raise DomainError("dressed splittings must be positive")
    else:
        raise DomainError(f"unknown lambda mode {lambda_mode!r}")

    # Perturbative weight of the phonon coupling on the dressed branches.
    prefactor = (params.g**2 + (params.omega_drive / 2.0) ** 2) / params.delta_laser**2

    channels = []
    for split, alpha, lower in (
        (split1, params.phonon_alpha1, dressed.minus),
        (split2, params.phonon_alpha2, dressed.dark),
    ):
        density = alpha * split**params.phonon_n
        rate = TWO_PI * prefactor * density
        occupation = 0.0 if params.kT == 0.0 else model.n_thermal(split, params.kT)
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


def check_density_matrix(rho: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """Validate hermiticity, unit trace and positivity; returns rho as complex."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DomainError(f"density matrix must be square, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise DomainError("density matrix is not hermitian")
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        raise DomainError(f"density matrix trace is {np.trace(rho)}, expected 1")
    if np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))) < -atol:
        raise DomainError("density matrix has a negative eigenvalue")
    return rho


def propagate(gen: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve rho0 for a time t (ns) under the generator via expm."""
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"propagation time must be nonnegative, got {t}")
    rho0 = check_density_matrix(rho0)
    rho_t = unvec(scipy.linalg.expm(gen * t) @ vec(rho0))
    return 0.5 * (rho_t + rho_t.conj().T)


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
