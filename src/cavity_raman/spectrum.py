"""Steady-state cavity emission spectra via the quantum regression theorem.

The field correlation <a^dag(tau) a(0)> evolves under the same generator as
the density matrix, so its Laplace transform is a finite sum of complex
Lorentzians, one per Liouvillian eigenvalue.  Everything here works with
that exact mode decomposition; no time grid is involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import liouvillian as lv
from . import stack
from .errors import DegenerateSpectrum, DomainError, FrameError, UnstableLiouvillian
from .model import ModelParams

TWO_PI = 2.0 * math.pi

#: Largest acceptable real part of a nonstationary Liouvillian eigenvalue.
STABILITY_TOL = 1e-10

#: Grid points per block in mixture_intensity: its complex temporaries hold
#: 65,536 x 16 modes, about 17 MB each, whatever the grid size.
MIXTURE_BLOCK = 65536


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


Modes = tuple[np.ndarray, np.ndarray, float]


def correlation_modes(
    params: ModelParams | Sequence[ModelParams],
) -> Modes | list[Modes | Exception]:
    """Eigenvalues and spectral residues of the field correlation function.

    Returns ``(lambdas, residues, photon_number)`` where
    <a^dag(tau) a> = sum_j residues[j] * exp(lambdas[j] tau), lambdas in
    1/ns.  The residues sum to the steady photon number by construction
    (the final linear solve enforces it), which the spectrum normalization
    below relies on.  The stationary mode is forced to a zero residue; a
    genuinely nondecaying correlation component raises UnstableLiouvillian,
    as does any relaxing eigenvalue with a nonnegative real part.

    Given a sequence, solves it in stacks of up to ``stack.POINTS``
    points, each one build, SVD, ``eig`` and ``solve``, and returns each
    point's modes, or the exception it raises alone.
    """
    if isinstance(params, ModelParams):
        return stack.unwrap(_modes([params])[0])
    points = list(params)
    return [
        outcome
        for start in range(0, len(points), stack.POINTS)
        for outcome in _modes(points[start : start + stack.POINTS])
    ]


def _modes(points: Sequence[ModelParams]) -> list[Modes | Exception]:
    """correlation_modes of one stack of points.  Each point meets its
    errors in the order build, steady state, modes, as it does alone."""
    outcomes: list = [None] * len(points)
    alive = np.arange(len(points))

    def survivors(errors: list[Exception | None]) -> np.ndarray:
        for k, error in zip(alive, errors):
            if error is not None:
                outcomes[k] = error
        return np.array([error is None for error in errors], dtype=bool)

    gens, errors = lv.build_liouvillian(points)
    ok = survivors(errors)
    alive, gens = alive[ok], gens[ok]
    if alive.size:
        rhos, errors = lv.steady_state(gens)
        ok = survivors(errors)
        alive, gens, rhos = alive[ok], gens[ok], rhos[ok]
    if alive.size:
        lambdas, residues, photons, errors = generator_modes(gens, rhos)
        for j, k in enumerate(alive):
            outcomes[k] = errors[j] or (lambdas[j], residues[j], float(photons[j]))
    return outcomes


def generator_modes(
    gen: np.ndarray, rho_ss: np.ndarray
) -> Modes | tuple[np.ndarray, np.ndarray, np.ndarray, list[Exception | None]]:
    """:func:`correlation_modes` of a built generator ``gen`` and its steady
    state ``rho_ss``, for a caller that already holds both.

    Given stacks, (K, 16, 16) generators and (K, 4, 4) states, makes one
    stacked ``eig`` and ``solve`` and returns ``(lambdas, residues,
    photon_numbers, errors)``, each point's error None where it solved.
    """
    if np.ndim(gen) == 2:
        lambdas, residues, photons, errors = _stacked_modes(gen[None], rho_ss[None])
        stack.unwrap(errors[0])
        return lambdas[0], residues[0], float(photons[0])
    return _stacked_modes(gen, rho_ss)


def _stacked_modes(
    gen: np.ndarray, rho_ss: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Exception | None]]:
    a_op = lv.cavity_annihilation()
    rows = np.arange(len(gen))
    (lambdas, rvecs), errors = stack.linalg(np.linalg.eig, gen)
    stationary = np.argmin(np.abs(lambdas), axis=1)
    relaxing = lambdas.real.copy()
    relaxing[rows, stationary] = -np.inf
    worst = np.max(relaxing, axis=1)

    # residue_j = (vec(a)^H r_j) (l_j^H vec(a rho_ss)); solving against the
    # eigenvector matrix instead of inverting keeps sum(residues) equal to
    # Tr[a^dag a rho_ss] to machine precision.
    targets = np.swapaxes(a_op @ rho_ss, -1, -2).reshape(len(gen), -1, 1)
    (weights,), solve_errors = stack.linalg(np.linalg.solve, rvecs, targets)
    residues = (lv.vec(a_op).conj() @ rvecs) * weights[:, :, 0]
    photons = np.real(np.trace(a_op.conj().T @ a_op @ rho_ss, axis1=-2, axis2=-1))
    scale = np.maximum(np.sum(np.abs(residues), axis=1), 1e-300)
    nondecaying = np.abs(residues[rows, stationary])

    # Each point's first error, in the order eig, stability, solve, residues.
    for k in rows:
        if errors[k] is not None:
            continue
        if worst[k] >= STABILITY_TOL:
            errors[k] = UnstableLiouvillian(
                f"relaxing eigenvalue with real part {worst[k]:.3e} 1/ns >= {STABILITY_TOL:.0e}"
            )
        elif solve_errors[k] is not None:
            errors[k] = solve_errors[k]
        elif nondecaying[k] > 1e-8 * scale[k]:
            errors[k] = UnstableLiouvillian(
                "correlation function has a nondecaying component "
                f"of relative weight {nondecaying[k] / scale[k]:.3e}"
            )
    residues[rows, stationary] = 0.0
    return lambdas, residues, photons, errors


def mixture_intensity(
    nu_rot: np.ndarray,
    lambdas: np.ndarray,
    residues: np.ndarray,
    kappa: float,
) -> np.ndarray:
    """Evaluate the Lorentzian mode mixture on a rotating-frame axis.

    Normalized so the integral over frequency equals the steady cavity
    output flux 2pi * kappa * <a^dag a> in 1/ns.  ``nu_rot`` may have any
    shape; the result has the same one (at least 1-d).  The (points x
    modes) terms are summed ``MIXTURE_BLOCK`` points at a time, so memory
    stays bounded on any grid; each point's sum is the same in any block.
    """
    nu_rot = np.atleast_1d(np.asarray(nu_rot, dtype=float))
    flat = nu_rot.reshape(-1)
    values = np.empty(flat.size)
    for start in range(0, flat.size, MIXTURE_BLOCK):
        block = slice(start, start + MIXTURE_BLOCK)
        denom = 1j * TWO_PI * flat[block, None] - lambdas[None, :]
        values[block] = np.sum((residues[None, :] / denom).real, axis=1) / math.pi
    return (TWO_PI**2 * kappa * values).reshape(nu_rot.shape)


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


def classify_lines(
    params: ModelParams | Sequence[ModelParams],
) -> LineClassification | list[LineClassification | Exception]:
    """Label the emission lines by physical role.

    Lines wider than half the cavity linewidth are cavity-like background
    (the broad pedestal of strongly filtered emission); among the narrow
    remainder, the Raman line sits nearest the rotating-frame zero and the
    spontaneous line nearest the laser detuning.  Raises DegenerateSpectrum
    when the cavity emits nothing (steady photon number below
    ``EMISSION_FLOOR``) or when the two roles land on one line.

    Given a sequence, solves it as :func:`correlation_modes` does and
    returns each point's classification, or the exception it raises alone.
    """
    if isinstance(params, ModelParams):
        return stack.unwrap(_classified(params, correlation_modes(params)))
    points = list(params)
    return [
        _classified(point, modes) if not isinstance(modes, Exception) else modes
        for point, modes in zip(points, correlation_modes(points))
    ]


def _classified(params: ModelParams, modes: Modes) -> LineClassification | DegenerateSpectrum:
    """The lines of one point's correlation modes, or why they have no roles."""
    lambdas, residues, photon_number = modes
    if photon_number < EMISSION_FLOOR:
        return DegenerateSpectrum(
            f"steady photon number {photon_number:.3e} is below {EMISSION_FLOOR:.0e}; "
            "the cavity emits no lines"
        )
    centers, fwhms, areas = _lines(lambdas, residues, params.kappa)
    narrow = fwhms < params.kappa / 2.0
    if np.count_nonzero(narrow) < 2:
        return DegenerateSpectrum(
            f"expected two sub-cavity-width lines, found {np.count_nonzero(narrow)}"
        )
    candidates = np.flatnonzero(narrow)
    raman_idx = candidates[np.argmin(np.abs(centers[candidates]))]
    spont_idx = candidates[np.argmin(np.abs(centers[candidates] - params.delta_laser))]
    if raman_idx == spont_idx:
        return DegenerateSpectrum(
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
