"""Closed-form rate formulas against independently frozen references."""
import math

import pytest

from cavity_raman import (
    DomainError,
    PurcellBoundInputs,
    effective_rabi,
    g_from_lifetimes,
    gamma_bare_bound,
    lifetime_on,
    purcell_factor,
    quality_factor,
    raman_rate_bare,
    raman_rate_bare_ideal,
    raman_rate_cavity,
    rate_report,
)
from reference_values import (
    EFFECTIVE_RABI_REF,
    ENHANCEMENT_REF,
    G_FROM_LIFETIMES_REF,
    GAMMA_BARE_BOUND_REF,
    GAMMA_BARE_UNITY_REF,
    LIFETIME_ON_REF,
    PURCELL_ROUNDED_REF,
    PURCELL_UNROUNDED_REF,
    QUALITY_FACTOR_REF,
    RAMAN_RATE_BARE_IDEAL_REF,
    RAMAN_RATE_CAVITY_REF,
)

TWO_PI = 2.0 * math.pi
BRANCHING = PurcellBoundInputs(
    eta_radiative=0.30, eta_zpl=0.80, eta_d=0.10, tau_off=1.74
)


def test_effective_rabi_reference():
    assert effective_rabi(2.58, 0.80, 55.0) == pytest.approx(
        EFFECTIVE_RABI_REF, rel=1e-14
    )


def test_raman_rate_cavity_reference():
    assert raman_rate_cavity(2.58, 0.80, 55.0, 53.7) == pytest.approx(
        RAMAN_RATE_CAVITY_REF, rel=1e-14
    )


def test_gamma_bare_bound_references():
    assert gamma_bare_bound(BRANCHING) == pytest.approx(
        GAMMA_BARE_BOUND_REF, rel=1e-14
    )
    unity = PurcellBoundInputs(1.0, 1.0, 1.0, 1.74)
    assert gamma_bare_bound(unity) == pytest.approx(GAMMA_BARE_UNITY_REF, rel=1e-14)


def test_raman_rate_bare_ideal_reference():
    rate = raman_rate_bare_ideal(2.58, 55.0, GAMMA_BARE_BOUND_REF)
    assert rate == pytest.approx(RAMAN_RATE_BARE_IDEAL_REF, rel=1e-13)


def test_purcell_references():
    assert purcell_factor(0.80, 53.7, 0.0021) == pytest.approx(
        PURCELL_ROUNDED_REF, rel=1e-14
    )
    assert purcell_factor(0.80, 53.7, GAMMA_BARE_BOUND_REF) == pytest.approx(
        PURCELL_UNROUNDED_REF, rel=1e-14
    )


def test_lifetime_references():
    assert lifetime_on(0.80, 53.7, 1.74) == pytest.approx(LIFETIME_ON_REF, rel=1e-14)
    assert g_from_lifetimes(1.14, 1.74, 53.7) == pytest.approx(
        G_FROM_LIFETIMES_REF, rel=1e-14
    )


def test_lifetime_coupling_round_trip():
    for g in (0.3, 0.80, 1.7):
        tau_on = lifetime_on(g, 53.7, 1.74)
        assert g_from_lifetimes(tau_on, 1.74, 53.7) == pytest.approx(g, rel=1e-12)


def test_quality_factor_reference():
    assert quality_factor(406.8, 53.7) == pytest.approx(QUALITY_FACTOR_REF, rel=1e-14)


def test_bare_rate_weak_drive_limit():
    # Far off resonance the rate collapses to 2pi * omega^2 gamma / (4 delta^2);
    # the leading correction omega^2 / (2 delta^2) is ~1.1e-3 here.
    rate = raman_rate_bare_ideal(2.58, 55.0, 0.0021)
    limit = TWO_PI * 2.58**2 * 0.0021 / (4.0 * 55.0**2)
    assert abs(rate / limit - 1.0) < 2e-3
    # Quadruple the detuning and the deviation must drop ~16x.
    far = raman_rate_bare_ideal(2.58, 220.0, 0.0021)
    far_limit = TWO_PI * 2.58**2 * 0.0021 / (4.0 * 220.0**2)
    assert abs(far / far_limit - 1.0) < abs(rate / limit - 1.0) / 12.0


def test_rates_scale_quadratically_in_drive():
    base_c = raman_rate_cavity(0.5, 0.8, 55.0, 53.7)
    assert raman_rate_cavity(1.0, 0.8, 55.0, 53.7) == pytest.approx(
        4.0 * base_c, rel=1e-14
    )
    base_b = raman_rate_bare_ideal(0.05, 55.0, 0.0021)
    assert raman_rate_bare_ideal(0.10, 55.0, 0.0021) == pytest.approx(
        4.0 * base_b, rel=1e-5
    )


def test_rates_decrease_with_detuning():
    cavity = [raman_rate_cavity(2.58, 0.8, d, 53.7) for d in (20.0, 40.0, 80.0)]
    bare = [raman_rate_bare_ideal(2.58, d, 0.0021) for d in (20.0, 40.0, 80.0)]
    assert cavity[0] > cavity[1] > cavity[2]
    assert bare[0] > bare[1] > bare[2]


def test_bare_rate_saturates_at_strong_drive():
    # Pump term dominating the denominator caps the rate at pi * gamma.
    rate = raman_rate_bare(5000.0, 1.0, 0.002, 0.002)
    assert rate == pytest.approx(math.pi * 0.002, rel=1e-5)


def test_dephasing_assisted_scattering_peaks_at_detuning():
    # Off resonance the pump Lorentzian grows with linewidth up to
    # gamma_dephase = delta, then shrinks again.
    low = raman_rate_bare(2.58, 55.0, 0.002, 0.002, gamma_dephase=0.5)
    matched = raman_rate_bare(2.58, 55.0, 0.002, 0.002, gamma_dephase=55.0)
    high = raman_rate_bare(2.58, 55.0, 0.002, 0.002, gamma_dephase=5500.0)
    assert matched > low
    assert matched > high


def test_rate_report_consistency(paper_params):
    report = rate_report(paper_params, GAMMA_BARE_BOUND_REF)
    assert report.omega_eff == pytest.approx(EFFECTIVE_RABI_REF, rel=1e-14)
    assert report.r_cavity == pytest.approx(RAMAN_RATE_CAVITY_REF, rel=1e-14)
    assert report.enhancement == pytest.approx(
        report.r_cavity / report.r_bare, rel=1e-14
    )
    assert report.enhancement == pytest.approx(ENHANCEMENT_REF, rel=1e-13)
    # Enhancement reproduces the cooperativity once the drive is weak.
    assert report.enhancement == pytest.approx(PURCELL_UNROUNDED_REF, rel=1e-2)
    assert report.purcell == pytest.approx(PURCELL_UNROUNDED_REF, rel=1e-14)


def test_rate_domain_errors():
    with pytest.raises(DomainError):
        effective_rabi(2.58, 0.8, 0.0)
    with pytest.raises(DomainError):
        raman_rate_cavity(2.58, 0.8, 55.0, 0.0)
    with pytest.raises(DomainError):
        raman_rate_bare(2.58, 55.0, 0.0, 0.002)
    with pytest.raises(DomainError):
        raman_rate_bare(2.58, 55.0, 0.002, 0.002, gamma_dephase=0.0)
    with pytest.raises(DomainError):
        purcell_factor(0.0, 53.7, 0.0021)
    with pytest.raises(DomainError, match="computing the Purcell factor overflows a float"):
        purcell_factor(2e154, 53.7, 0.0021)
    with pytest.raises(DomainError, match="computing the Purcell factor overflows a float"):
        purcell_factor(0.8, 1e-200, 1e-200)
    with pytest.raises(DomainError):
        PurcellBoundInputs(1.2, 0.8, 0.1, 1.74)
    with pytest.raises(DomainError):
        PurcellBoundInputs(0.3, 0.8, 0.1, 0.0)
    with pytest.raises(DomainError):
        lifetime_on(0.8, 53.7, 0.0)
    with pytest.raises(DomainError):
        g_from_lifetimes(1.74, 1.74, 53.7)
    with pytest.raises(DomainError):
        g_from_lifetimes(2.0, 1.74, 53.7)
    with pytest.raises(DomainError):
        quality_factor(-406.8, 53.7)
