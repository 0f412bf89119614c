"""Closed-form Raman emission rates, Purcell quantities and lifetime algebra.

Rates returned by the raman_* functions are in 1/ns so they can be compared
directly against exponential fits of time traces; everything else stays in
GHz at the module boundary.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError
from .model import ModelParams

TWO_PI = 2.0 * math.pi


def _finite(quantity: str):
    """Make a closed form raise DomainError naming ``quantity`` where its
    value, or a power or quotient on the way to it, overflows a float."""

    def decorate(func):
        @functools.wraps(func)
        def checked(*args, **kwargs):
            try:
                value = func(*args, **kwargs)
            except ArithmeticError:
                value = math.inf
            if not math.isfinite(value):
                raise DomainError(f"computing {quantity} overflows a float")
            return value

        return checked

    return decorate


@_finite("the effective Rabi frequency")
def effective_rabi(omega: float, g: float, delta: float) -> float:
    """Two-photon Rabi frequency omega * g / delta in GHz."""
    if delta == 0.0:
        raise DomainError("effective Rabi frequency diverges at zero detuning")
    return omega * g / delta


@_finite("the cavity Raman rate")
def raman_rate_cavity(omega: float, g: float, delta: float, kappa: float) -> float:
    """Cavity-assisted Raman transfer rate in 1/ns.

    Overdamped limit of the effective two-state problem: the coherent
    transfer at the two-photon Rabi frequency is interrupted by cavity
    decay, leaving 2pi * (omega g / delta)^2 / kappa.
    """
    if kappa <= 0.0:
        raise DomainError("cavity decay rate must be positive")
    return TWO_PI * effective_rabi(omega, g, delta) ** 2 / kappa


@_finite("the bare Raman rate")
def raman_rate_bare(
    omega: float,
    delta: float,
    gamma: float,
    gamma_tot: float,
    gamma_dephase: float | None = None,
) -> float:
    """Spontaneous Raman scattering rate of the bare emitter, 1/ns.

    ``gamma`` is the radiative rate into the target ground state,
    ``gamma_tot`` the total population decay of the excited state and
    ``gamma_dephase`` the dipole decoherence rate, defaulting to
    gamma_tot / 2 (no pure dephasing).  All rates in GHz.
    """
    if gamma <= 0.0 or gamma_tot <= 0.0:
        raise DomainError("decay rates must be positive")
    if gamma_dephase is None:
        gamma_dephase = gamma_tot / 2.0
    if gamma_dephase <= 0.0:
        raise DomainError("dephasing rate must be positive")
    pump = (omega**2 / 2.0) * gamma_dephase / (delta**2 + gamma_dephase**2)
    return TWO_PI * gamma * pump / (2.0 * pump + gamma_tot)


def raman_rate_bare_ideal(omega: float, delta: float, gamma: float) -> float:
    """Bare Raman rate for a transform-limited emitter that only decays
    radiatively into the target state."""
    return raman_rate_bare(omega, delta, gamma, gamma, gamma / 2.0)


@_finite("the Purcell factor")
def purcell_factor(g: float, kappa: float, gamma_bare: float) -> float:
    """Single-emitter cooperativity 4 g^2 / (kappa * gamma_bare)."""
    if g <= 0.0 or kappa <= 0.0 or gamma_bare <= 0.0:
        raise DomainError("purcell factor needs positive g, kappa and gamma_bare")
    return 4.0 * g**2 / (kappa * gamma_bare)


@dataclass(frozen=True)
class PurcellBoundInputs:
    """Branching and collection figures bounding the bare radiative rate.

    ``eta_radiative`` is the radiative quantum yield, ``eta_zpl`` the
    zero-phonon-line fraction, ``eta_d`` the fraction of zero-phonon-line
    emission reaching the cavity-coupled dipole, and ``tau_off`` the
    off-resonant excited-state lifetime in ns.
    """

    eta_radiative: float
    eta_zpl: float
    eta_d: float
    tau_off: float

    def __post_init__(self):
        for name in ("eta_radiative", "eta_zpl", "eta_d"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {value}")
        if self.tau_off <= 0.0:
            raise DomainError(f"tau_off must be positive, got {self.tau_off}")


def gamma_bare_bound(inputs: PurcellBoundInputs) -> float:
    """Upper bound on the cavity-coupled bare linewidth in GHz.

    The off-resonant lifetime caps the total decay 1/tau_off; multiplying
    by the three branching fractions and converting to an ordinary
    frequency gives the largest linewidth the coupled dipole can have.
    """
    total = 1.0 / (TWO_PI * inputs.tau_off)
    return inputs.eta_radiative * inputs.eta_zpl * inputs.eta_d * total


def lifetime_on(g: float, kappa: float, tau_off: float) -> float:
    """Excited-state lifetime in ns with the cavity decay channel open."""
    if g < 0.0 or kappa <= 0.0 or tau_off <= 0.0:
        raise DomainError("lifetime_on needs g >= 0, kappa > 0, tau_off > 0")
    return 1.0 / (TWO_PI * 4.0 * g**2 / kappa + 1.0 / tau_off)


def g_from_lifetimes(tau_on: float, tau_off: float, kappa: float) -> float:
    """Coupling in GHz inferred from lifetimes with and without the cavity."""
    if tau_on <= 0.0 or tau_off <= 0.0 or kappa <= 0.0:
        raise DomainError("lifetimes and kappa must be positive")
    if tau_on >= tau_off:
        raise DomainError(
            f"cavity must shorten the lifetime, got tau_on={tau_on} >= tau_off={tau_off}"
        )
    return math.sqrt(kappa * (1.0 / tau_on - 1.0 / tau_off) / (8.0 * math.pi))


@_finite("the quality factor")
def quality_factor(nu0_thz: float, kappa: float) -> float:
    """Loaded quality factor of the cavity at optical frequency nu0 (THz)."""
    if nu0_thz <= 0.0 or kappa <= 0.0:
        raise DomainError("quality factor needs positive frequency and linewidth")
    return 1000.0 * nu0_thz / kappa


@_finite("the cavity enhancement")
def _enhancement(r_cavity: float, r_bare: float) -> float:
    """r_cavity / r_bare, or 0 where the cavity rate vanishes."""
    return r_cavity / r_bare if r_cavity else 0.0


@dataclass(frozen=True)
class RateReport:
    """Summary rates for one operating point.

    ``omega_eff`` in GHz; ``r_cavity`` and ``r_bare`` in 1/ns;
    ``enhancement`` is their ratio (0 when both vanish); ``purcell`` is the
    dimensionless cooperativity.
    """

    omega_eff: float
    r_cavity: float
    r_bare: float
    enhancement: float
    purcell: float


def rate_report(params: ModelParams, gamma_bare: float) -> RateReport:
    """Closed-form rate summary for the operating point ``params``.

    ``gamma_bare`` (GHz) is the bare emission rate into the target ground
    state, used both for the free-space Raman reference and the Purcell
    factor.
    """
    omega_eff = effective_rabi(params.omega_drive, params.g, params.delta_laser)
    r_cavity = raman_rate_cavity(
        params.omega_drive, params.g, params.delta_laser, params.kappa
    )
    r_bare = raman_rate_bare_ideal(params.omega_drive, params.delta_laser, gamma_bare)
    return RateReport(
        omega_eff=omega_eff,
        r_cavity=r_cavity,
        r_bare=r_bare,
        enhancement=_enhancement(r_cavity, r_bare),
        purcell=purcell_factor(params.g, params.kappa, gamma_bare),
    )
