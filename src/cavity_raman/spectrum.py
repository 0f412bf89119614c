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
from .errors import DegenerateSpectrum, DomainError, UnstableLiouvillian
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


def generator_modes(
    gen: np.ndarray, rho_ss: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | float]:
    """Eigenvalues and spectral residues of the field correlation function
    of a built generator ``gen`` and its steady state ``rho_ss``.

    Returns ``(lambdas, residues, photon_number)`` where
    <a^dag(tau) a> = sum_j residues[j] * exp(lambdas[j] tau), lambdas in
    1/ns.  The three modes are those of the generator's q = +1 block
    (``_CHARGE_BLOCK``); none is stationary.  The residues sum to the
    steady photon number by construction (the final linear solve enforces
    it), which the spectrum normalization relies on.  An eigenvalue with
    real part of at least ``STABILITY_TOL`` raises UnstableLiouvillian.

    Given stacks, (K, 16, 16) generators and (K, 4, 4) states, makes one
    ``eig`` and one ``solve`` of the (K, 3, 3) q = +1 blocks and returns
    arrays of shapes (K, 3) and (K,), or raises stack.Failed for the
    points that fail.
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


def emission_spectrum(params: ModelParams, freqs_lab: np.ndarray) -> Spectrum:
    """Emission spectrum on a lab-frame axis relative to the bare cavity.

    The modes' frequencies are offsets in the drive's rotating frame, which
    sits delta_cavity from the bare cavity line, so the spectrum is
    evaluated at freqs_lab + delta_cavity; its axis is those offsets minus
    delta_cavity, which may differ from ``freqs_lab`` in the last bit.
    """
    gen = lv.build_liouvillian(params)
    lambdas, residues, _ = generator_modes(gen, lv.steady_state(gen))
    nu_rot = np.asarray(freqs_lab, dtype=float) + params.delta_cavity
    intensity = mixture_intensity(nu_rot, lambdas, residues, params.kappa)
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

    Solves the stack's correlation modes (one generator build and SVD,
    one 3 x 3 ``eig`` and ``solve``), keeps the lines whose area exceeds
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
    gens = lv.build_liouvillian(points)
    lambdas, residues, photons = generator_modes(gens, lv.steady_state(gens))
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
