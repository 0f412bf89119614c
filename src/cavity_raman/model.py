"""System parameters, truncated basis, Hamiltonian and dressed states.

Every frequency crossing a module boundary is an ordinary frequency in GHz
(nu = omega / 2pi); times are in ns.  Dynamical code multiplies by 2pi
internally wherever angular frequencies are required, so decay at rate
kappa GHz empties the cavity as exp(-2*pi*kappa*t).

The Hamiltonian and the dressed states are stages of a stacked solve:
they take a sequence of K operating points and return arrays whose
leading axis numbers them; ``stack.alone`` solves one point.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import stack
from .errors import DegenerateSpectrum, DomainError

# Fixed ordering of the truncated basis, shared by every module:
# |g1,0>, |g2,0>, |g2,1>, |e,0>.
G1_0, G2_0, G2_1, E_0 = range(4)
DIM = 4

# The drive and the cavity couple only these three states; |g2,0> talks to
# the rest of the basis through dissipation alone.
COHERENT_BLOCK = (G1_0, G2_1, E_0)

# phonon_n is exempt: the spectral density alpha * delta**n stays positive
# for any real exponent, and exponent fits need a neighborhood around 0.
_RATE_FIELDS = (
    "g",
    "kappa",
    "omega_drive",
    "gamma1",
    "gamma2",
    "gamma_flip",
    "kT",
    "phonon_alpha1",
    "phonon_alpha2",
)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the driven emitter-cavity system.

    Parameters
    ----------
    g : float
        Emitter-cavity coupling on the |e,0> <-> |g2,1> transition, GHz.
    kappa : float
        Cavity field energy decay rate, GHz.
    omega_drive : float
        Rabi frequency of the classical drive on |g1,0> <-> |e,0>, GHz.
    delta_laser, delta_cavity : float
        Drive and cavity detunings from their respective transitions, GHz.
        May be negative.
    gamma1, gamma2 : float
        Spontaneous decay rates of |e> into |g1> and |g2>, GHz.
    gamma_flip : float
        Incoherent ground-state reshuffling rate |g2> -> |g1|, GHz.  There
        is no reverse channel.
    kT : float
        Thermal energy of the phonon bath divided by h, GHz.
    phonon_alpha1, phonon_alpha2 : float
        Spectral-density prefactors for the two phonon-assisted channels,
        GHz / GHz**phonon_n.
    phonon_n : float
        Exponent of the power-law phonon spectral density.

    Defaults reproduce the reference operating point used throughout the
    test suite.
    """

    g: float = 0.80
    kappa: float = 53.7
    omega_drive: float = 2.58
    delta_laser: float = 55.0
    delta_cavity: float = 55.0
    gamma1: float = 0.046
    gamma2: float = 0.046
    gamma_flip: float = 0.8
    kT: float = 83.0
    phonon_alpha1: float = 1.0
    phonon_alpha2: float = 1.0
    phonon_n: float = 0.31

    def __post_init__(self):
        # Every field is checked and made a float before any rate's sign.
        for name in FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        for name in _RATE_FIELDS:
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be nonnegative, got {getattr(self, name)}")

    @property
    def adiabatic_valid(self) -> bool:
        """True when both couplings sit an order of magnitude below the detuning."""
        return max(self.omega_drive / 2.0, self.g) < self.delta_laser / 10.0

    @property
    def truncation_valid(self) -> bool:
        """True when ground-state reshuffling is slow against cavity decay."""
        return self.gamma_flip < self.kappa / 10.0


#: The fields of ModelParams, in order.
FIELDS = tuple(field.name for field in fields(ModelParams))


def n_thermal(delta: float, kT: float) -> float:
    """Bose occupation 1 / (exp(delta/kT) - 1) at splitting ``delta``.

    Both arguments in GHz; requires delta > 0 and kT > 0.  Zero where
    delta/kT is past the largest argument expm1 can take (about 709.78):
    the occupation there is below 1e-308.
    """
    if delta <= 0.0:
        raise DomainError(f"n_thermal needs delta > 0, got {delta}")
    if kT <= 0.0:
        raise DomainError(f"n_thermal needs kT > 0, got {kT}")
    try:
        return 1.0 / math.expm1(delta / kT)
    except OverflowError:
        return 0.0


def columns(points: Sequence[ModelParams], *names: str) -> np.ndarray:
    """The fields ``names`` of every point as an array (len(names), K), one
    row per field, read in one pass over the points."""
    read = operator.attrgetter(*names)
    return np.array([read(point) for point in points], dtype=float).reshape(-1, len(names)).T


def build_hamiltonian(points: Sequence[ModelParams]) -> np.ndarray:
    """Rotating-frame Hamiltonians (K, 4, 4) of K operating points on the
    truncated basis, entries in GHz."""
    entries = np.array(
        [(p.delta_laser, p.delta_laser - p.delta_cavity, p.omega_drive / 2.0, p.g) for p in points]
    ).reshape(-1, 4)
    h = np.zeros((len(points), DIM, DIM), dtype=complex)
    h[:, E_0, E_0] = entries[:, 0]
    h[:, G2_1, G2_1] = entries[:, 1]
    h[:, E_0, G1_0] = h[:, G1_0, E_0] = entries[:, 2]
    h[:, E_0, G2_1] = h[:, G2_1, E_0] = entries[:, 3]
    return h


def dressed_states(points: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenstates of the driven three-state block and their frequencies.

    Branch labels follow excited-state content: ``plus`` carries the
    largest |e,0> weight, ``dark`` the smallest, and ``minus`` the rest.
    Returns the vectors of K operating points in the full four-state
    basis, with an exactly zero |g2,0> component, and their frequencies in
    GHz in the drive frame, both in label order dark, minus, plus: shapes
    (K, 3, 4) and (K, 3), diagonalized in one stacked ``eigh``.

    Valid at any coupling.  Raises stack.Failed for the points that fail:
    DomainError at zero laser detuning, DegenerateSpectrum when two dressed
    frequencies coincide.
    """
    block = np.array(COHERENT_BLOCK)
    h = build_hamiltonian(points)
    (vals, vecs), errors = stack.linalg(np.linalg.eigh, h[:, block[:, None], block].real)
    degenerate = np.any(np.diff(np.sort(vals, axis=1), axis=1) < 1e-9, axis=1)
    # Each point's first error, in the order of a call of its own.
    first = [
        DomainError("dressed states are undefined at zero laser detuning")
        if point.delta_laser == 0.0
        else error
        for point, error in zip(points, errors)
    ]
    stack.fail({
        k: first[k]
        or DegenerateSpectrum(f"dressed frequencies separated by less than 1e-9 GHz: {vals[k]}")
        for k in range(len(points))
        if first[k] or degenerate[k]
    })

    # The block index of |e,0> within COHERENT_BLOCK is 2.
    order = np.argsort(np.abs(vecs[:, 2, :]) ** 2, axis=-1)
    columns = np.take_along_axis(vecs, order[:, None, :], axis=2)
    # Canonical sign: the largest component of each column is positive.
    anchor = np.argmax(np.abs(columns), axis=1)
    flip = np.take_along_axis(columns, anchor[:, None, :], axis=1)[:, 0, :] < 0.0
    columns = np.where(flip[:, None, :], -columns, columns)
    full = np.zeros((len(points), 3, DIM), dtype=complex)
    full[:, :, block] = columns.transpose(0, 2, 1)
    return full, np.take_along_axis(vals, order, axis=1)
