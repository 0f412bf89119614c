"""Steady-state cavity emission spectra via the quantum regression theorem.

The field correlation <a^dag(tau) a(0)> evolves under the same generator as
the density matrix, so its Laplace transform is a sum of three complex
Lorentzians, one per eigenvalue of the generator's 3 x 3 block that holds
a rho_ss.  Everything here works with that exact mode decomposition; no
time grid is involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import liouvillian as lv
from . import stack
from .errors import DegenerateSpectrum, DomainError, FrameError, UnstableLiouvillian
from .model import COHERENT_BLOCK, DIM, G2_0, G2_1, ModelParams

TWO_PI = 2.0 * math.pi

#: Largest acceptable real part of a correlation mode's eigenvalue.
STABILITY_TOL = 1e-10

#: Samples per block in mixture_intensity: its complex temporaries hold
#: 65,536 samples of one mode, about 1 MB each, whatever the grid size.
MIXTURE_BLOCK = 65536

#: Vec indices of |g2,0><j|, j in COHERENT_BLOCK: the block of charge
#: q = +1, where q = [i = g2,0] - [j = g2,0] of |i><j|.  No term of the
#: generator changes q, and vec(a rho_ss) lies in this block.
_CHARGE_BLOCK = np.array([G2_0 + DIM * j for j in COHERENT_BLOCK])


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
        if not np.all(np.isfinite(intensity)):
            raise DomainError("intensity must be finite")
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


@stack.per_point
def correlation_modes(points: list[ModelParams]) -> list[Modes]:
    """Eigenvalues and spectral residues of the field correlation function.

    Returns ``(lambdas, residues, photon_number)`` where
    <a^dag(tau) a> = sum_j residues[j] * exp(lambdas[j] tau), lambdas in
    1/ns.  The three modes are those of the generator's q = +1 block
    (``_CHARGE_BLOCK``); none is stationary.  The residues sum to the
    steady photon number by construction (the final linear solve enforces
    it), which the spectrum normalization below relies on.  An eigenvalue
    with real part of at least ``STABILITY_TOL`` raises UnstableLiouvillian.

    Takes one point or a sequence (see :func:`stack.per_point`); a stack
    is one 16 x 16 build and SVD and one 3 x 3 ``eig`` and ``solve``.
    """
    lambdas, residues, photons = _stack_modes(points)
    return [(lambdas[k], residues[k], float(photons[k])) for k in range(len(points))]


def _stack_modes(points: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """correlation_modes of one stack of points as (K, 3) ``lambdas`` and
    ``residues`` and (K,) photon numbers."""
    gens = lv.build_liouvillian(points)
    return generator_modes(gens, lv.steady_state(gens))


def generator_modes(
    gen: np.ndarray, rho_ss: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | float]:
    """:func:`correlation_modes` of a built generator ``gen`` and its steady
    state ``rho_ss``, for a caller that already holds both.

    Given stacks, (K, 16, 16) generators and (K, 4, 4) states, makes one
    ``eig`` and one ``solve`` of the (K, 3, 3) q = +1 blocks and returns
    ``(lambdas, residues, photon_numbers)``, of shapes (K, 3) and (K,), or
    raises stack.Failed for the points that fail.
    """
    if np.ndim(gen) == 2:
        lambdas, residues, photons = stack.alone(generator_modes, gen, rho_ss)
        return lambdas, residues, float(photons)
    block = gen[:, _CHARGE_BLOCK[:, None], _CHARGE_BLOCK]
    (lambdas, rvecs), errors = stack.linalg(np.linalg.eig, block)
    stack.fail(errors)
    worst = np.max(lambdas.real, axis=1)
    stack.fail({
        k: UnstableLiouvillian(
            f"relaxing eigenvalue with real part {worst[k]:.3e} 1/ns >= {STABILITY_TOL:.0e}"
        )
        for k in np.flatnonzero(worst >= STABILITY_TOL).tolist()
    })

    # residue_j = (vec(a)^H r_j) (l_j^H vec(a rho_ss)) in the block, where
    # vec(a) is the unit vector of |g2,0><g2,1| and the |g2,0> row of
    # a rho_ss is the |g2,1> row of rho_ss.  Solving against the
    # eigenvector matrix instead of inverting keeps sum(residues) equal to
    # Tr[a^dag a rho_ss] to machine precision.
    targets = rho_ss[:, G2_1, COHERENT_BLOCK, None]
    (weights,), errors = stack.linalg(np.linalg.solve, rvecs, targets)
    stack.fail(errors)
    residues = rvecs[:, COHERENT_BLOCK.index(G2_1)] * weights[:, :, 0]
    return lambdas, residues, rho_ss[:, G2_1, G2_1].real


def mixture_intensity(
    nu_rot: np.ndarray,
    lambdas: np.ndarray,
    residues: np.ndarray,
    kappa: float | np.ndarray,
) -> np.ndarray:
    """Evaluate the Lorentzian mode mixture on a rotating-frame axis.

    Normalized so the integral over frequency equals the steady cavity
    output flux 2pi * kappa * <a^dag a> in 1/ns.  ``nu_rot`` may have any
    shape; the result has the same one (at least 1-d).  Given the modes of
    K points, (K, 3) ``lambdas`` and ``residues`` and K ``kappa``, the
    leading axis of ``nu_rot`` is K and row k is evaluated with the modes
    of point k.  The modes' terms are added in turn, ``MIXTURE_BLOCK``
    samples of a row at a time, so memory stays bounded on any grid; each
    sample's sum is the same in any block or row.  Raises DomainError when
    the normalization (2pi)^2 kappa, or 2pi nu of a finite frequency,
    overflows a float.
    """
    lambdas, residues = np.asarray(lambdas), np.asarray(residues)
    with np.errstate(over="ignore"):  # checked below
        norm = TWO_PI**2 * np.asarray(kappa, dtype=float)[..., None]
    if not np.all(np.isfinite(norm)):
        raise DomainError(
            f"kappa {float(np.max(np.abs(kappa)))!r} GHz is too large: the spectrum "
            "normalization (2 pi)^2 kappa overflows a float"
        )
    nu_rot = np.atleast_1d(np.asarray(nu_rot, dtype=float))
    rows = lambdas.shape[:-1]
    flat = nu_rot.reshape(rows + (math.prod(nu_rot.shape[len(rows) :]),))
    values = np.empty(flat.shape)
    for start in range(0, flat.shape[-1], MIXTURE_BLOCK):
        block = np.s_[..., start : start + MIXTURE_BLOCK]
        with np.errstate(over="ignore"):  # checked below
            phase = 1j * TWO_PI * flat[block]
        overflow = np.isinf(phase.imag) & np.isfinite(flat[block])
        if overflow.any():
            raise DomainError(
                f"rotating-frame frequency {float(flat[block][overflow][0])!r} GHz is too "
                "large: 2 pi nu overflows a float"
            )
        total = np.zeros(phase.shape)
        for j in range(lambdas.shape[-1]):
            total += (residues[..., j, None] / (phase - lambdas[..., j, None])).real
        values[block] = total / math.pi
    return (norm * values).reshape(nu_rot.shape)


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


@dataclass(frozen=True)
class LineTable:
    """The emission lines of a stack of K points as arrays, point k in row k.

    ``lambdas``, ``residues`` and ``photons`` are the correlation modes;
    ``lines`` holds each point's (center GHz, fwhm GHz, area 1/ns) rows in
    center order; ``roles`` holds its Raman and spontaneous rows, and
    ``background`` marks the kept lines of neither role.
    """

    lambdas: np.ndarray
    residues: np.ndarray
    photons: np.ndarray
    kappa: np.ndarray
    delta_laser: np.ndarray
    lines: np.ndarray
    roles: np.ndarray
    background: np.ndarray


@stack.per_point
def classify_lines(points: list[ModelParams]) -> list[LineClassification]:
    """Label the emission lines by physical role.

    Lines wider than half the cavity linewidth are cavity-like background
    (the broad pedestal of strongly filtered emission); among the narrow
    remainder, the Raman line sits nearest the rotating-frame zero and the
    spontaneous line nearest the laser detuning.  Raises DegenerateSpectrum
    when the cavity emits nothing (steady photon number below
    ``EMISSION_FLOOR``) or when the two roles land on one line.

    Takes one point or a sequence (see :func:`stack.per_point`); a stack
    is classified as arrays by :func:`line_table`.
    """
    table = line_table(points)
    return [
        LineClassification(
            raman=tuple(table.roles[k, 0].tolist()),
            spontaneous=tuple(table.roles[k, 1].tolist()),
            background=tuple(map(tuple, table.lines[k, table.background[k]].tolist())),
            lambdas=table.lambdas[k],
            residues=table.residues[k],
            photon_number=float(table.photons[k]),
        )
        for k in range(len(points))
    ]


def line_table(points: Sequence[ModelParams]) -> LineTable:
    """:func:`classify_lines` of one stack of points, as arrays.

    Solves the stack's correlation modes, keeps the lines whose area
    exceeds 1e-13 of the largest, sorts them by center (ties in mode
    order) and picks each point's roles among its narrow lines (ties to
    the first in center order).  A point that fails raises stack.Failed,
    in the solve or with the first of its checks: the emission floor,
    fewer than two narrow lines, then the roles' collapse.
    """
    lambdas, residues, photons = _stack_modes(points)
    kappa = np.array([p.kappa for p in points])
    delta_laser = np.array([p.delta_laser for p in points])
    areas = TWO_PI * kappa[:, None] * residues.real
    kept = np.abs(areas) > 1e-13 * np.maximum(np.max(np.abs(areas), axis=1, keepdims=True), 1e-300)
    # argsort keeps ties in mode order on three entries, as it did on the
    # kept lines alone; the unkept lines among them are masked below.
    centers = lambdas.imag / TWO_PI
    order = np.argsort(centers, axis=1)[..., None]
    lines = np.take_along_axis(np.stack([centers, -lambdas.real / math.pi, areas], -1), order, 1)
    kept = np.take_along_axis(kept, order[..., 0], axis=1)
    narrow = kept & (lines[..., 1] < kappa[:, None] / 2.0)
    raman = np.argmin(np.where(narrow, np.abs(lines[..., 0]), np.inf), axis=1)
    offsets = np.abs(lines[..., 0] - delta_laser[:, None])
    spont = np.argmin(np.where(narrow, offsets, np.inf), axis=1)
    counts = np.count_nonzero(narrow, axis=1)
    dark = photons < EMISSION_FLOOR
    errors: dict[int, DegenerateSpectrum] = {}
    for k in np.flatnonzero(dark | (counts < 2) | (raman == spont)).tolist():
        if dark[k]:
            errors[k] = DegenerateSpectrum(
                f"steady photon number {photons[k]:.3e} is below {EMISSION_FLOOR:.0e}; "
                "the cavity emits no lines"
            )
        elif counts[k] < 2:
            errors[k] = DegenerateSpectrum(
                f"expected two sub-cavity-width lines, found {counts[k]}"
            )
        else:
            errors[k] = DegenerateSpectrum(
                "Raman and spontaneous roles collapse onto one line at "
                f"center {lines[k, raman[k], 0]:.3f} GHz"
            )
    stack.fail(errors)
    roles = np.take_along_axis(lines, np.stack([raman, spont], axis=1)[..., None], axis=1)
    position = np.arange(lines.shape[1])
    background = kept & (position != raman[:, None]) & (position != spont[:, None])
    return LineTable(lambdas, residues, photons, kappa, delta_laser, lines, roles, background)
