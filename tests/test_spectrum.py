"""Emission spectra: mode decomposition, frames, filtering, line roles."""
import math
from dataclasses import replace

import numpy as np
import pytest

from cavity_raman import (
    DegenerateSpectrum,
    DomainError,
    FilterWindow,
    FrameError,
    ModelParams,
    Spectrum,
    apply_filter,
    build_liouvillian,
    classify_lines,
    correlation_modes,
    emission_spectrum,
    first_order_correlation,
    frame_shift,
    line_parameters,
    rotating_spectrum,
    rs_area_ratio,
    steady_state,
)
from cavity_raman.spectrum import mixture_intensity
from reference_values import PHOTON_NUMBER_REF

TWO_PI = 2.0 * math.pi

# Frozen from this code at the default operating point; guards refactors.
RS_RATIO_REF = 0.11399970748751928
RATIO_OF_RATIOS_SMALL_ALPHA_REF = 226.59768691207938
RATIO_OF_RATIOS_UNIT_ALPHA_REF = 12.04908407989722


def test_residues_sum_to_photon_number(paper_params):
    lambdas, residues, nbar = correlation_modes(paper_params)
    assert nbar == pytest.approx(PHOTON_NUMBER_REF, rel=1e-9)
    assert np.sum(residues).real == pytest.approx(nbar, rel=1e-12)
    assert abs(np.sum(residues).imag) < 1e-12 * nbar
    # All relaxing modes decay.
    assert np.max(lambdas[np.abs(residues) > 0].real) < 0.0


def test_dark_cavity_emits_nothing(paper_params):
    dark = replace(paper_params, g=0.0, phonon_alpha1=0.0, phonon_alpha2=0.0)
    _, residues, nbar = correlation_modes(dark)
    assert nbar < 1e-15
    assert np.sum(np.abs(residues)) < 1e-15


@pytest.mark.parametrize(
    "changes",
    [
        {"gamma_flip": 0.0},
        {"gamma_flip": 0.0, "phonon_alpha1": 0.0, "phonon_alpha2": 0.0},
        {"g": 0.0, "phonon_alpha1": 0.0, "phonon_alpha2": 0.0},
    ],
    ids=["no_flip", "no_flip_no_phonons", "dark_cavity"],
)
def test_classify_rejects_zero_emission(paper_params, changes):
    # The photon number here is rounding noise of either sign (|n| < 1e-16),
    # and so are the areas of any lines read from it.
    silent = replace(paper_params, **changes)
    with pytest.raises(DegenerateSpectrum, match="photon number"):
        classify_lines(silent)


def test_classified_modes_are_the_correlation_modes(paper_params):
    lines = classify_lines(paper_params)
    lambdas, residues, nbar = correlation_modes(paper_params)
    assert np.array_equal(lines.lambdas, lambdas)
    assert np.array_equal(lines.residues, residues)
    assert lines.photon_number == nbar


def test_correlation_routes_agree(paper_params):
    gen = build_liouvillian(paper_params)
    rho_ss = steady_state(gen)
    lambdas, residues, nbar = correlation_modes(paper_params)
    taus = np.linspace(0.0, 0.5, 33)
    direct = first_order_correlation(gen, rho_ss, taus)
    from_modes = np.array([np.sum(residues * np.exp(lambdas * t)) for t in taus])
    assert direct[0].real == pytest.approx(nbar, rel=1e-12)
    assert np.max(np.abs(direct - from_modes)) < 1e-10 * nbar
    assert np.max(np.abs(direct)) <= abs(direct[0]) * (1.0 + 1e-12)


def test_correlation_input_validation(paper_params):
    gen = build_liouvillian(paper_params)
    rho_ss = steady_state(gen)
    with pytest.raises(DomainError):
        first_order_correlation(gen, rho_ss, np.array([-0.1, 0.0]))
    with pytest.raises(DomainError):
        first_order_correlation(gen, rho_ss, np.array([0.2, 0.1]))
    with pytest.raises(DomainError):
        first_order_correlation(gen, rho_ss, np.array([]))


def test_total_flux_sum_rule(paper_params):
    _, _, nbar = correlation_modes(paper_params)
    grid = np.linspace(-1255.0, 1145.0, 300001)
    spectrum = emission_spectrum(paper_params, grid)
    flux = np.trapezoid(spectrum.intensity, grid)
    # Cavity-wide pedestal tails leak ~0.5% past +-1200 GHz.
    assert flux == pytest.approx(TWO_PI * paper_params.kappa * nbar, rel=1e-2)


def test_line_areas_sum_to_flux(paper_params):
    _, _, nbar = correlation_modes(paper_params)
    _, _, areas = line_parameters(paper_params)
    assert np.sum(areas) == pytest.approx(TWO_PI * paper_params.kappa * nbar, rel=1e-10)


def test_classified_line_positions(paper_params):
    lines = classify_lines(paper_params)
    # Rotating frame: transfer line near zero, spontaneous near the drive
    # detuning, both pulled slightly by light shifts.
    assert abs(lines.raman[0]) < 2.0
    assert abs(lines.spontaneous[0] - paper_params.delta_laser) < 3.0
    assert 0.0 < lines.raman[1] < paper_params.kappa / 2.0
    assert 0.0 < lines.spontaneous[1] < paper_params.kappa / 2.0
    assert lines.raman[2] > 0.0
    assert lines.spontaneous[2] > 0.0
    # The broad remainder is the cavity-filtered pedestal.
    assert any(width > paper_params.kappa / 2.0 for _, width, _ in lines.background)


def test_classify_degenerate_roles(paper_params):
    collapsed = replace(
        paper_params,
        delta_laser=0.0,
        delta_cavity=0.0,
        phonon_alpha1=0.0,
        phonon_alpha2=0.0,
    )
    with pytest.raises(DegenerateSpectrum):
        classify_lines(collapsed)


def test_rs_ratio_regression(paper_params):
    assert rs_area_ratio(paper_params) == pytest.approx(RS_RATIO_REF, rel=1e-9)


def _ratio_of_ratios(params, alpha):
    def ratio(detuning):
        point = replace(
            params,
            delta_laser=detuning,
            delta_cavity=detuning,
            phonon_alpha1=alpha,
            phonon_alpha2=alpha,
        )
        return rs_area_ratio(point)

    return ratio(88.0) / ratio(15.0)


def test_ratio_of_ratios_alpha_independent_when_weak(paper_params):
    base = _ratio_of_ratios(paper_params, 1e-12)
    assert base == pytest.approx(RATIO_OF_RATIOS_SMALL_ALPHA_REF, rel=1e-7)
    assert _ratio_of_ratios(paper_params, 2e-12) == pytest.approx(base, rel=1e-6)


def test_ratio_of_ratios_saturates_at_unit_alpha(paper_params):
    value = _ratio_of_ratios(paper_params, 1.0)
    assert value == pytest.approx(RATIO_OF_RATIOS_UNIT_ALPHA_REF, rel=1e-7)
    # Saturation: away from the weak-coupling limit the invariance is gone.
    assert abs(_ratio_of_ratios(paper_params, 2.0) / value - 1.0) > 0.1


def test_frame_shift_moves_axis(paper_params):
    grid = np.linspace(-10.0, 120.0, 27)
    rot = rotating_spectrum(paper_params, grid)
    assert rot.frame == "rotating"
    lab = frame_shift(rot, paper_params)
    assert lab.frame == "lab"
    assert np.allclose(lab.freqs, grid - paper_params.delta_cavity)
    np.testing.assert_array_equal(lab.intensity, rot.intensity)
    with pytest.raises(FrameError):
        frame_shift(lab, paper_params)


def test_emission_spectrum_equals_shifted_rotating(paper_params):
    lab_grid = np.linspace(-80.0, 20.0, 51)
    via_lab = emission_spectrum(paper_params, lab_grid)
    via_rot = frame_shift(
        rotating_spectrum(paper_params, lab_grid + paper_params.delta_cavity),
        paper_params,
    )
    np.testing.assert_allclose(via_lab.intensity, via_rot.intensity, rtol=1e-13)
    np.testing.assert_allclose(via_lab.freqs, via_rot.freqs)


def test_filter_band_selects_lines(paper_params):
    grid = np.array([-70.0, -55.0, 0.0, 30.0])
    window = FilterWindow(center=0.0, width=120.0)
    passing = apply_filter(emission_spectrum(paper_params, grid), window)
    assert passing.intensity[0] == 0.0
    assert np.all(passing.intensity[1:] > 0.0)
    assert passing.filter_window == window
    shifted = replace(paper_params, delta_laser=70.0, delta_cavity=70.0)
    clipped = apply_filter(emission_spectrum(shifted, grid), window)
    # The transfer line at -70 GHz now falls outside the pass band.
    assert clipped.intensity[0] == 0.0
    assert clipped.intensity[2] > 0.0


def test_filter_frame_and_reuse_guards(paper_params):
    grid = np.linspace(-80.0, 20.0, 11)
    window = FilterWindow(0.0, 120.0)
    with pytest.raises(FrameError):
        apply_filter(rotating_spectrum(paper_params, grid + 55.0), window)
    filtered = apply_filter(emission_spectrum(paper_params, grid), window)
    with pytest.raises(DomainError):
        apply_filter(filtered, window)
    with pytest.raises(DomainError):
        FilterWindow(0.0, 0.0)
    with pytest.raises(DomainError):
        FilterWindow(math.nan, 10.0)


def test_mixture_intensity_zero_modes():
    values = mixture_intensity(
        np.linspace(-5.0, 5.0, 7),
        np.array([-1.0 + 0.0j]),
        np.array([0.0 + 0.0j]),
        53.7,
    )
    np.testing.assert_array_equal(values, np.zeros(7))


def test_spectrum_validation():
    freqs = np.array([0.0, 1.0, 2.0])
    good = np.array([0.0, 1.0, 0.5])
    with pytest.raises(DomainError):
        Spectrum(freqs=np.array([0.0, 2.0, 1.0]), intensity=good, frame="lab")
    with pytest.raises(DomainError):
        Spectrum(freqs=freqs, intensity=np.array([0.0, -1.0, 0.0]), frame="lab")
    with pytest.raises(DomainError):
        Spectrum(freqs=freqs, intensity=good, frame="galactic")
    with pytest.raises(DomainError):
        Spectrum(freqs=freqs, intensity=good[:2], frame="lab")
    # Tiny negative rounding noise is tolerated.
    ok = Spectrum(freqs=freqs, intensity=np.array([0.0, -1e-13, 0.1]), frame="lab")
    assert ok.frame == "lab"
