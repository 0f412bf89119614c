"""Steady-state cavity emission spectra via the quantum regression theorem.

The field correlation <a^dag(tau) a(0)> evolves under the same generator as
the density matrix, so its Laplace transform is a sum of three complex
Lorentzians, one per eigenvalue of the generator's 3 x 3 block that holds
a rho_ss.  Everything here works with that exact mode decomposition; no
time grid is involved.  Every consumer, the spectra, the line table and
``validate``, solves a point on its two charge blocks
(``liouvillian.charge_blocks``), never forming the whole generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import liouvillian as lv
from . import stack
from .errors import DegenerateSpectrum, DomainError, UnstableLiouvillian
from .model import COHERENT_BLOCK, G2_1, ModelParams, columns

TWO_PI = 2.0 * math.pi

#: Largest acceptable real part of a correlation mode's eigenvalue.
STABILITY_TOL = 1e-10

#: Samples per block in mixture_intensity: its complex temporaries hold
#: 65,536 samples of one mode, about 1 MB each, whatever the grid size.
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
    """Sampled lab-frame emission spectrum.

    ``freqs`` is strictly increasing, in GHz from the bare cavity
    resonance; ``intensity`` is the emitted photon flux density in 1/ns per
    GHz, so integrating over the full axis gives the total cavity output
    flux.
    """

    freqs: np.ndarray
    intensity: np.ndarray
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
        if intensity.size and np.min(intensity) < -1e-12:
            raise DomainError(
                f"negative intensity {np.min(intensity):.3e} exceeds rounding tolerance"
            )
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "intensity", intensity)


def block_modes(
    block: np.ndarray, rho_ss: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues and spectral residues of the field correlation function
    of a stack of generators' q = -1 blocks ``block`` (K, 3, 3), at
    ``liouvillian.MODE_BLOCK``, and their steady states ``rho_ss``
    (K, 4, 4), in one ``eig`` and one ``solve``.

    Returns ``(lambdas, residues, photon_number)``, of shapes (K, 3),
    (K, 3) and (K,), where <a^dag(tau) a> = sum_j residues[j] *
    exp(lambdas[j] tau), lambdas in 1/ns.  The three modes are those of
    the block; none is stationary.  The residues sum to the steady photon
    number by construction (the final linear solve enforces it), which the
    spectrum normalization relies on.  Raises stack.Failed for the points
    that fail: UnstableLiouvillian where an eigenvalue's real part is at
    least ``STABILITY_TOL``.
    """
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


def _solved_modes(points: Sequence[ModelParams]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The correlation modes (K, 3), (K, 3) and photon numbers (K,) of a
    stack of points, solved on their charge blocks, or stack.Failed."""
    state, modes = lv.charge_blocks(points)
    return block_modes(modes, lv.block_steady_state(state, modes))


def mixture_intensity(
    nu_rot: np.ndarray,
    lambdas: np.ndarray,
    residues: np.ndarray,
    kappa: np.ndarray,
) -> np.ndarray:
    """The Lorentzian mode mixture of a stack of K points, row k of the
    rotating-frame axes ``nu_rot`` (K, ...) evaluated with point k's modes,
    row k of ``lambdas`` and ``residues`` (K, M), and cavity rate
    ``kappa[k]``.

    Normalized so the integral over frequency equals the steady cavity
    output flux 2pi * kappa * <a^dag a> in 1/ns.  The result has the shape
    of ``nu_rot``.  The modes' terms are added in turn, ``MIXTURE_BLOCK``
    samples of every row at a time, so memory stays bounded on any grid;
    each sample's sum is the same in any block or row.  Raises stack.Failed
    for the rows that fail, with DomainError: where the normalization
    (2pi)^2 kappa overflows a float, else at the row's first finite
    frequency, in sample order, where 2pi nu does.
    """
    nu_rot, kappa = np.asarray(nu_rot, dtype=float), np.asarray(kappa, dtype=float)
    with np.errstate(over="ignore"):  # refused below
        norm = TWO_PI**2 * kappa[:, None]
    flat = nu_rot.reshape(len(nu_rot), math.prod(nu_rot.shape[1:]))
    values = np.empty(flat.shape)
    first = np.full(len(flat), np.nan)  # each row's first overflowing frequency
    for start in range(0, flat.shape[1], MIXTURE_BLOCK):
        block = np.s_[:, start : start + MIXTURE_BLOCK]
        with np.errstate(over="ignore"):  # refused below
            phase = 1j * TWO_PI * flat[block]
        overflow = np.isinf(phase.imag) & np.isfinite(flat[block])
        rows = overflow.any(axis=1)
        if rows.any():
            fresh = np.flatnonzero(rows & np.isnan(first))
            first[fresh] = flat[fresh, start + np.argmax(overflow[fresh], axis=1)]
            phase[overflow] = 0.0  # a stand-in: the row is refused below
        total = np.zeros(phase.shape)
        for j in range(lambdas.shape[1]):
            total += (residues[:, j, None] / (phase - lambdas[:, j, None])).real
        values[block] = total / math.pi
    bad_norm = ~np.isfinite(norm[:, 0])
    stack.fail({
        k: DomainError(
            f"kappa {float(abs(kappa[k]))!r} GHz is too large: the spectrum "
            "normalization (2 pi)^2 kappa overflows a float"
            if bad_norm[k] else
            f"rotating-frame frequency {float(first[k])!r} GHz is too large: "
            "2 pi nu overflows a float"
        )
        for k in np.flatnonzero(bad_norm | ~np.isnan(first)).tolist()
    })
    return (norm * values).reshape(nu_rot.shape)


def emission_spectrum(params: ModelParams, freqs_lab: np.ndarray) -> Spectrum:
    """Emission spectrum on a lab-frame axis relative to the bare cavity.

    The modes' frequencies are offsets in the drive's rotating frame, which
    sits delta_cavity from the bare cavity line, so the spectrum is
    evaluated at freqs_lab + delta_cavity; its axis is those offsets minus
    delta_cavity, which may differ from ``freqs_lab`` in the last bit.
    A non-finite axis raises DomainError before the point is solved.  The
    point's modes and its spectrum are each a stack of one
    (``stack.alone``), so a point that fails raises its own exception.
    """
    freqs_lab = np.asarray(freqs_lab, dtype=float)
    if not np.isfinite(freqs_lab).all():
        raise DomainError("frequency axis must be finite")
    lambdas, residues, _ = stack.alone(_solved_modes, params)
    nu_rot = freqs_lab + params.delta_cavity
    intensity = stack.alone(mixture_intensity, nu_rot, lambdas, residues, params.kappa)
    return Spectrum(freqs=nu_rot - params.delta_cavity, intensity=intensity)


def apply_filter(spectrum: Spectrum, window: FilterWindow) -> Spectrum:
    """Zero the intensity outside a rectangular lab-frame pass band."""
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
class LineTable:
    """The one record of a solved stack of K points: its correlation modes
    and emission lines as arrays, point k in row k.

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


def line_table(points: Sequence[ModelParams]) -> LineTable:
    """Solve a stack of points and label their emission lines by role.

    Solves the stack's correlation modes on its charge blocks (one block
    assembly, one 10 x 10 and one 3 x 3 SVD, one 3 x 3 ``eig`` and
    ``solve``), keeps the lines whose area exceeds
    1e-13 of the largest and sorts them by center (ties in mode order).
    Lines wider than half the cavity linewidth are cavity-like background
    (the broad pedestal of strongly filtered emission); among the narrow
    remainder, the Raman line sits nearest the rotating-frame zero and the
    spontaneous line nearest the laser detuning (ties to the first in
    center order).  A point that fails raises stack.Failed, in the solve
    or with the first of its DegenerateSpectrum checks: the cavity emits
    nothing (steady photon number below ``EMISSION_FLOOR``), fewer than
    two narrow lines, then the roles' collapse onto one line.
    """
    lambdas, residues, photons = _solved_modes(points)
    kappa, delta_laser = columns(points, "kappa", "delta_laser")
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
