"""Steady-state cavity emission spectra via the quantum regression theorem.

The field correlation <a^dag(tau) a(0)> evolves under the same generator as
the density matrix, so its Laplace transform is a finite sum of complex
Lorentzians, one per Liouvillian eigenvalue.  Everything here works with
that exact mode decomposition; no time grid is involved except in
:func:`first_order_correlation`, which exists as an independent check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import liouvillian as lv
from .errors import DegenerateSpectrum, DomainError, FrameError, UnstableLiouvillian
from .model import ModelParams

TWO_PI = 2.0 * math.pi

#: Largest acceptable real part of a nonstationary Liouvillian eigenvalue.
STABILITY_TOL = 1e-10


@dataclass(frozen=True)
class FilterWindow:
    """Rectangular pass band of the collection monochromator, GHz, lab frame."""

    center: float
    width: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise DomainError(f"filter center must be finite, got {self.center}")
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise DomainError(f"filter width must be positive, got {self.width}")


@dataclass(frozen=True)
class Spectrum:
    """Sampled emission spectrum.

    ``freqs`` is strictly increasing, in GHz; ``intensity`` is the emitted
    photon flux density in 1/ns per GHz, so integrating over the full axis
    gives the total cavity output flux.  ``frame`` is "rotating" (offsets
    from the drive rotating frame zero) or "lab" (offsets from the bare
    cavity resonance).
    """

    freqs: np.ndarray
    intensity: np.ndarray
    frame: str
    filter_window: FilterWindow | None = None

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        intensity = np.asarray(self.intensity, dtype=float)
        if freqs.ndim != 1 or freqs.shape != intensity.shape:
            raise DomainError("freqs and intensity must be matching 1-d arrays")
        if freqs.size >= 2 and np.min(np.diff(freqs)) <= 0.0:
            raise DomainError("frequency axis must be strictly increasing")
        if self.frame not in ("rotating", "lab"):
            raise DomainError(f"unknown frame {self.frame!r}")
        if intensity.size and np.min(intensity) < -1e-12:
            raise DomainError(
                f"negative intensity {np.min(intensity):.3e} exceeds rounding tolerance"
            )
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "intensity", intensity)


def correlation_modes(params: ModelParams) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues and spectral residues of the field correlation function.

    Returns ``(lambdas, residues, photon_number)`` where
    <a^dag(tau) a> = sum_j residues[j] * exp(lambdas[j] tau), lambdas in
    1/ns.  The residues sum to the steady photon number by construction
    (the final linear solve enforces it), which the spectrum normalization
    below relies on.  The stationary mode is forced to a zero residue; a
    genuinely nondecaying correlation component raises UnstableLiouvillian,
    as does any relaxing eigenvalue with a nonnegative real part.
    """
    gen = lv.build_liouvillian(params)
    rho_ss = lv.steady_state(gen)
    a_op = lv.cavity_annihilation()

    lambdas, rvecs = scipy.linalg.eig(gen)
    stationary = int(np.argmin(np.abs(lambdas)))
    relaxing = np.delete(np.arange(lambdas.size), stationary)
    worst = np.max(lambdas[relaxing].real)
    if worst >= STABILITY_TOL:
        raise UnstableLiouvillian(
            f"relaxing eigenvalue with real part {worst:.3e} 1/ns >= {STABILITY_TOL:.0e}"
        )

    # residue_j = (vec(a)^H r_j) (l_j^H vec(a rho_ss)); solving against the
    # eigenvector matrix instead of inverting keeps sum(residues) equal to
    # Tr[a^dag a rho_ss] to machine precision.
    weights = np.linalg.solve(rvecs, lv.vec(a_op @ rho_ss))
    probe = lv.vec(a_op).conj() @ rvecs
    residues = probe * weights

    photon_number = float(np.real(np.trace(a_op.conj().T @ a_op @ rho_ss)))
    scale = max(float(np.sum(np.abs(residues))), 1e-300)
    if abs(residues[stationary]) > 1e-8 * scale:
        raise UnstableLiouvillian(
            "correlation function has a nondecaying component "
            f"of relative weight {abs(residues[stationary]) / scale:.3e}"
        )
    residues[stationary] = 0.0
    return lambdas, residues, photon_number


def mixture_intensity(
    nu_rot: np.ndarray,
    lambdas: np.ndarray,
    residues: np.ndarray,
    kappa: float,
) -> np.ndarray:
    """Evaluate the Lorentzian mode mixture on a rotating-frame axis.

    Normalized so the integral over frequency equals the steady cavity
    output flux 2pi * kappa * <a^dag a> in 1/ns.
    """
    nu_rot = np.atleast_1d(np.asarray(nu_rot, dtype=float))
    denom = 1j * TWO_PI * nu_rot[:, None] - lambdas[None, :]
    values = np.sum((residues[None, :] / denom).real, axis=1) / math.pi
    return TWO_PI**2 * kappa * values


def rotating_spectrum(params: ModelParams, nu_rot: np.ndarray) -> Spectrum:
    """Emission spectrum on a rotating-frame frequency axis (GHz)."""
    lambdas, residues, _ = correlation_modes(params)
    intensity = mixture_intensity(nu_rot, lambdas, residues, params.kappa)
    return Spectrum(freqs=np.asarray(nu_rot, dtype=float), intensity=intensity, frame="rotating")


def emission_spectrum(params: ModelParams, freqs_lab: np.ndarray) -> Spectrum:
    """Emission spectrum on a lab-frame axis relative to the bare cavity."""
    freqs_lab = np.asarray(freqs_lab, dtype=float)
    spectrum = rotating_spectrum(params, freqs_lab + params.delta_cavity)
    return frame_shift(spectrum, params)


def frame_shift(spectrum: Spectrum, params: ModelParams) -> Spectrum:
    """Translate a rotating-frame spectrum onto the lab axis.

    The rotating frame sits at the drive frequency, which is detuned by
    delta_cavity from the bare cavity line, so lab offsets are rotating
    offsets minus delta_cavity.
    """
    if spectrum.frame != "rotating":
        raise FrameError(f"cannot shift a spectrum already in frame {spectrum.frame!r}")
    return replace(spectrum, freqs=spectrum.freqs - params.delta_cavity, frame="lab")


def apply_filter(spectrum: Spectrum, window: FilterWindow) -> Spectrum:
    """Zero the intensity outside a rectangular lab-frame pass band."""
    if spectrum.frame != "lab":
        raise FrameError("filters are defined on the lab axis; shift frames first")
    if spectrum.filter_window is not None:
        raise DomainError("spectrum has already been filtered")
    low = window.center - window.width / 2.0
    high = window.center + window.width / 2.0
    passband = (spectrum.freqs >= low) & (spectrum.freqs <= high)
    return replace(
        spectrum,
        intensity=np.where(passband, spectrum.intensity, 0.0),
        filter_window=window,
    )


def line_parameters(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers, widths and areas of the resolvable emission lines.

    All in the rotating frame: centers and full widths at half maximum in
    GHz, areas in 1/ns (they sum to the total output flux up to the lines
    dropped as negligible).  Sorted by center.
    """
    lambdas, residues, _ = correlation_modes(params)
    return _lines(lambdas, residues, params.kappa)


def _lines(
    lambdas: np.ndarray, residues: np.ndarray, kappa: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    centers = lambdas.imag / TWO_PI
    fwhms = -lambdas.real / math.pi
    areas = TWO_PI * kappa * residues.real
    keep = np.abs(areas) > 1e-13 * max(np.max(np.abs(areas)), 1e-300)
    order = np.argsort(centers[keep])
    return centers[keep][order], fwhms[keep][order], areas[keep][order]


#: Smallest steady photon number that counts as emission; below it the
#: residues are rounding noise and no line has a physical area.
EMISSION_FLOOR = 1e-15


@dataclass(frozen=True)
class LineClassification:
    """Emission lines sorted into roles, rotating frame.

    ``raman`` and ``spontaneous`` are (center GHz, fwhm GHz, area 1/ns)
    triples for the two emitter-dynamics lines; ``background`` holds the
    remaining (cavity-broad or negligible) lines.  ``lambdas``,
    ``residues`` and ``photon_number`` are the correlation modes the lines
    were read from, as returned by :func:`correlation_modes`.
    """

    raman: tuple[float, float, float]
    spontaneous: tuple[float, float, float]
    background: tuple[tuple[float, float, float], ...]
    lambdas: np.ndarray
    residues: np.ndarray
    photon_number: float


def classify_lines(params: ModelParams) -> LineClassification:
    """Label the emission lines by physical role.

    Lines wider than half the cavity linewidth are cavity-like background
    (the broad pedestal of strongly filtered emission); among the narrow
    remainder, the Raman line sits nearest the rotating-frame zero and the
    spontaneous line nearest the laser detuning.  Raises DegenerateSpectrum
    when the cavity emits nothing (steady photon number below
    ``EMISSION_FLOOR``) or when the two roles land on one line.
    """
    lambdas, residues, photon_number = correlation_modes(params)
    if photon_number < EMISSION_FLOOR:
        raise DegenerateSpectrum(
            f"steady photon number {photon_number:.3e} is below {EMISSION_FLOOR:.0e}; "
            "the cavity emits no lines"
        )
    centers, fwhms, areas = _lines(lambdas, residues, params.kappa)
    narrow = fwhms < params.kappa / 2.0
    if np.count_nonzero(narrow) < 2:
        raise DegenerateSpectrum(
            f"expected two sub-cavity-width lines, found {np.count_nonzero(narrow)}"
        )
    candidates = np.flatnonzero(narrow)
    raman_idx = candidates[np.argmin(np.abs(centers[candidates]))]
    spont_idx = candidates[np.argmin(np.abs(centers[candidates] - params.delta_laser))]
    if raman_idx == spont_idx:
        raise DegenerateSpectrum(
            "Raman and spontaneous roles collapse onto one line at "
            f"center {centers[raman_idx]:.3f} GHz"
        )
    rest = tuple(
        (float(centers[j]), float(fwhms[j]), float(areas[j]))
        for j in range(centers.size)
        if j not in (raman_idx, spont_idx)
    )
    return LineClassification(
        raman=(float(centers[raman_idx]), float(fwhms[raman_idx]), float(areas[raman_idx])),
        spontaneous=(
            float(centers[spont_idx]),
            float(fwhms[spont_idx]),
            float(areas[spont_idx]),
        ),
        background=rest,
        lambdas=lambdas,
        residues=residues,
        photon_number=photon_number,
    )


def rs_area_ratio(params: ModelParams) -> float:
    """Raman to spontaneous area ratio straight from the mode decomposition."""
    lines = classify_lines(params)
    return lines.raman[2] / lines.spontaneous[2]


def first_order_correlation(
    gen: np.ndarray,
    rho_ss: np.ndarray,
    taus: np.ndarray,
) -> np.ndarray:
    """Field correlation <a^dag(tau) a(0)> by stepping the propagator.

    Deliberately avoids the eigendecomposition used by the spectrum
    functions so the two routes can be checked against each other.  ``taus``
    must be nonnegative and ascending, in ns.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise DomainError("taus must be a nonempty 1-d array")
    if taus[0] < 0.0 or (taus.size >= 2 and np.min(np.diff(taus)) < 0.0):
        raise DomainError("taus must be nonnegative and ascending")

    a_op = lv.cavity_annihilation()
    state = lv.vec(a_op @ rho_ss)
    probe = lv.vec(a_op).conj()
    propagators: dict[float, np.ndarray] = {}
    values = np.empty(taus.size, dtype=complex)
    previous = 0.0
    for i, tau in enumerate(taus):
        dt = tau - previous
        if dt > 0.0:
            step = propagators.get(dt)
            if step is None:
                step = scipy.linalg.expm(gen * dt)
                propagators[dt] = step
            state = step @ state
        values[i] = probe @ state
        previous = tau
    return values
