"""Least-squares fitting of spectra and time traces, and the ratio pipeline.

A small Levenberg-Marquardt core drives every fit in the package so that
convergence behaviour and error reporting are uniform: analytic Jacobians
for the Lorentzian and exponential models, finite differences for the
phonon-exponent refit where each model evaluation is itself a full
steady-state calculation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import spectrum as spectrum_mod
from .errors import (
    AmbiguousAssignment,
    DegeneratePeaks,
    DomainError,
    IllConditioned,
    NoConvergence,
    NonDecaying,
    VanishingSpontaneous,
)
from .model import ModelParams

_DAMPING_START = 1e-3
_DAMPING_STEP = 10.0
_MAX_ITERATIONS = 500
_GRADIENT_TOL = 1e-8

# Local fit windows of fit_emission_lines: half-width in line widths, and
# the number of spectrum samples in each.
_LINE_WINDOW = 4.0
_LINE_POINTS = 97


def _lm_minimize(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_iterations: int = _MAX_ITERATIONS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Damped least squares with multiplicative damping control.

    Returns (solution, jacobian, residual, iterations).  Convergence is a
    relative gradient test plus a step-size floor; exceeding the iteration
    cap raises NoConvergence.
    """
    x = np.array(x0, dtype=float)
    r = np.asarray(residual(x), dtype=float)
    cost = float(r @ r)
    damping = _DAMPING_START

    for iteration in range(1, max_iterations + 1):
        jac = np.asarray(jacobian(x), dtype=float)
        grad = jac.T @ r
        if cost <= 1e-300:
            return x, jac, r, iteration
        if np.max(np.abs(grad) * np.maximum(np.abs(x), 1.0)) <= _GRADIENT_TOL * cost:
            return x, jac, r, iteration

        gram = jac.T @ jac
        scale = np.diag(gram).copy()
        scale[scale <= 0.0] = 1.0
        try:
            step = np.linalg.solve(gram + damping * np.diag(scale), -grad)
        except np.linalg.LinAlgError:
            damping = min(damping * _DAMPING_STEP, 1e12)
            continue

        with np.errstate(over="ignore", invalid="ignore"):
            r_trial = np.asarray(residual(x + step), dtype=float)
            cost_trial = float(r_trial @ r_trial)
        small_step = np.max(np.abs(step) / np.maximum(np.abs(x), 1.0)) < 1e-13
        if math.isfinite(cost_trial) and cost_trial < cost:
            x = x + step
            r = r_trial
            cost = cost_trial
            damping = max(damping / _DAMPING_STEP, 1e-14)
            if small_step:
                return x, np.asarray(jacobian(x), dtype=float), r, iteration
        else:
            damping = min(damping * _DAMPING_STEP, 1e12)
            if small_step:
                # No downhill direction left at the smallest trust region.
                return x, jac, r, iteration
    raise NoConvergence(f"no convergence within {max_iterations} iterations")


def _covariance(jac: np.ndarray, r: np.ndarray, n_params: int) -> np.ndarray:
    """Parameter covariance scaled by the reduced chi square."""
    dof = max(r.size - n_params, 1)
    variance = float(r @ r) / dof
    gram = jac.T @ jac
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        inverse = np.linalg.pinv(gram)
    return inverse * variance


def lorentzian_profile(
    freqs: np.ndarray,
    amplitude: float,
    center: float,
    fwhm: float,
    baseline: float = 0.0,
) -> np.ndarray:
    """Single Lorentzian line parametrized by its full width at half maximum."""
    u = (np.asarray(freqs, dtype=float) - center) / (fwhm / 2.0)
    return amplitude / (1.0 + u * u) + baseline


@dataclass(frozen=True)
class PeakFit:
    """One fitted Lorentzian line; area = amplitude * fwhm * pi / 2."""

    center: float
    fwhm: float
    amplitude: float
    area: float
    center_err: float
    fwhm_err: float
    amplitude_err: float
    area_err: float


@dataclass(frozen=True)
class LorentzianFit:
    """Multi-peak fit result; peaks are sorted by center."""

    peaks: tuple[PeakFit, ...]
    baseline: float
    baseline_err: float
    residual_rms: float
    iterations: int


def _lorentzian_model(freqs: np.ndarray, x: np.ndarray) -> np.ndarray:
    total = np.full(freqs.size, x[-1], dtype=float)
    for k in range(0, x.size - 1, 3):
        total += lorentzian_profile(freqs, x[k], x[k + 1], x[k + 2])
    return total


def _lorentzian_jacobian(freqs: np.ndarray, x: np.ndarray) -> np.ndarray:
    jac = np.empty((freqs.size, x.size), dtype=float)
    jac[:, -1] = 1.0
    for k in range(0, x.size - 1, 3):
        amplitude, center, fwhm = x[k], x[k + 1], x[k + 2]
        u = (freqs - center) / (fwhm / 2.0)
        d = 1.0 + u * u
        jac[:, k] = 1.0 / d
        jac[:, k + 1] = 4.0 * amplitude * u / (fwhm * d * d)
        jac[:, k + 2] = 2.0 * amplitude * u * u / (fwhm * d * d)
    return jac


def _initial_peaks(
    freqs: np.ndarray, values: np.ndarray, n_peaks: int
) -> tuple[list[tuple[float, float, float]], float]:
    """Greedy tallest-first initial peaks with half-maximum width estimates."""
    baseline = float(np.min(values))
    work = values - baseline
    spacing = float(np.median(np.diff(freqs)))
    available = np.ones(values.size, dtype=bool)
    guesses = []
    for _ in range(n_peaks):
        masked = np.where(available, work, -np.inf)
        index = int(np.argmax(masked))
        height = max(work[index], 1e-300)
        lo = index
        while lo > 0 and work[lo - 1] > height / 2.0 and available[lo - 1]:
            lo -= 1
        hi = index
        while hi < values.size - 1 and work[hi + 1] > height / 2.0 and available[hi + 1]:
            hi += 1
        width = max(freqs[hi] - freqs[lo], 2.0 * spacing)
        guesses.append((height, float(freqs[index]), width))
        available &= ~(
            (freqs >= freqs[index] - 3.0 * width) & (freqs <= freqs[index] + 3.0 * width)
        )
    return guesses, baseline


def fit_lorentzian(
    freqs: np.ndarray,
    intensity: np.ndarray,
    n_peaks: int = 1,
    init: Sequence[tuple[float, float, float]] | None = None,
    baseline: float | None = None,
    errors: np.ndarray | None = None,
) -> LorentzianFit:
    """Fit a sum of Lorentzians plus a constant baseline.

    ``init`` starts each peak at (amplitude, center, fwhm); without it the
    tallest remaining sample starts each peak in turn.  ``errors`` are
    per-point standard deviations used as inverse-variance weights.  Raises
    DegeneratePeaks when two fitted centers collapse within a tenth of the
    narrower width.
    """
    freqs, intensity = _check_samples(
        freqs, intensity, "freqs and intensity", 4 * n_peaks + 1, f"for {n_peaks} peaks"
    )
    n_params = 3 * n_peaks + 1
    sqrt_w = _weights(errors, freqs.size)

    if init is None:
        guesses, base0 = _initial_peaks(freqs, intensity, n_peaks)
    else:
        if len(init) != n_peaks:
            raise DomainError(f"expected {n_peaks} initial triples, got {len(init)}")
        guesses = [tuple(map(float, triple)) for triple in init]
        base0 = float(np.min(intensity))
    if baseline is not None:
        base0 = float(baseline)
    x0 = np.empty(n_params)
    for k, (amplitude, center, fwhm) in enumerate(guesses):
        if fwhm == 0.0:
            raise DomainError("initial fwhm must be nonzero")
        x0[3 * k : 3 * k + 3] = (amplitude, center, abs(fwhm))
    x0[-1] = base0

    def residual(x: np.ndarray) -> np.ndarray:
        return (_lorentzian_model(freqs, x) - intensity) * sqrt_w

    def jacobian(x: np.ndarray) -> np.ndarray:
        return _lorentzian_jacobian(freqs, x) * sqrt_w[:, None]

    x, jac, r, iterations = _lm_minimize(residual, jacobian, x0)
    cov = _covariance(jac, r, n_params)
    sigma = np.sqrt(np.maximum(np.diag(cov), 0.0))

    peaks = []
    for k in range(n_peaks):
        amplitude, center, fwhm = x[3 * k], x[3 * k + 1], abs(x[3 * k + 2])
        amp_err, cen_err, width_err = sigma[3 * k : 3 * k + 3]
        cross = cov[3 * k, 3 * k + 2]
        area = amplitude * fwhm * math.pi / 2.0
        area_var = (math.pi / 2.0) ** 2 * max(
            fwhm**2 * amp_err**2 + amplitude**2 * width_err**2
            + 2.0 * amplitude * fwhm * cross,
            0.0,
        )
        peaks.append(
            PeakFit(
                center=float(center),
                fwhm=float(fwhm),
                amplitude=float(amplitude),
                area=float(area),
                center_err=float(cen_err),
                fwhm_err=float(width_err),
                amplitude_err=float(amp_err),
                area_err=float(math.sqrt(area_var)),
            )
        )
    peaks.sort(key=lambda p: p.center)

    for i in range(len(peaks)):
        for j in range(i + 1, len(peaks)):
            closeness = 0.1 * min(peaks[i].fwhm, peaks[j].fwhm)
            if abs(peaks[i].center - peaks[j].center) < closeness:
                raise DegeneratePeaks(
                    f"fitted centers {peaks[i].center} and {peaks[j].center} coincide"
                )

    unweighted = _lorentzian_model(freqs, x) - intensity
    return LorentzianFit(
        peaks=tuple(peaks),
        baseline=float(x[-1]),
        baseline_err=float(sigma[-1]),
        residual_rms=float(np.sqrt(np.mean(unweighted**2))),
        iterations=iterations,
    )


def _check_samples(
    x: np.ndarray, y: np.ndarray, names: str, min_size: int, purpose: str
) -> tuple[np.ndarray, np.ndarray]:
    """Matching finite 1-d float arrays holding at least ``min_size`` samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DomainError(f"{names} must be matching 1-d arrays")
    if x.size < min_size:
        raise DomainError(f"need at least {min_size} samples {purpose}, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("data must be finite")
    return x, y


def _weights(errors: np.ndarray | None, size: int) -> np.ndarray:
    if errors is None:
        return np.ones(size)
    errors = np.asarray(errors, dtype=float)
    if errors.shape != (size,):
        raise DomainError("errors must match the data length")
    if not np.all(np.isfinite(errors) & (errors > 0.0)):
        raise DomainError("error bars must be positive and finite")
    return 1.0 / errors


@dataclass(frozen=True)
class ExponentialFit:
    """Fitted decay amplitude * exp(-t / tau) + baseline; tau in ns."""

    tau: float
    amplitude: float
    baseline: float
    tau_err: float
    amplitude_err: float
    baseline_err: float
    residual_rms: float
    iterations: int


def fit_exponential(
    times: np.ndarray,
    values: np.ndarray,
    init: tuple[float, float, float] | None = None,
    errors: np.ndarray | None = None,
) -> ExponentialFit:
    """Fit amplitude * exp(-t/tau) + baseline to a time trace.

    ``init`` is (amplitude, tau, baseline).  A nonpositive fitted tau
    raises NonDecaying; growing saturation traces are handled by a
    negative amplitude, not a negative tau.
    """
    times, values = _check_samples(
        times, values, "times and values", 4, "for a three-parameter fit"
    )
    if np.min(np.diff(times)) <= 0.0:
        raise DomainError("times must be strictly ascending")
    sqrt_w = _weights(errors, times.size)

    if init is None:
        tail = max(times.size // 10, 1)
        base0 = float(np.mean(values[-tail:]))
        amp0 = float(values[0] - base0)
        if amp0 == 0.0:
            amp0 = float(np.max(values) - np.min(values)) or 1.0
        shifted = (values - base0) / amp0
        usable = shifted > 0.05
        if np.count_nonzero(usable) >= 2:
            slope = np.polyfit(times[usable], np.log(shifted[usable]), 1)[0]
            tau0 = -1.0 / slope if slope < 0.0 else (times[-1] - times[0]) / 3.0
        else:
            tau0 = (times[-1] - times[0]) / 3.0
        x0 = np.array([amp0, tau0, base0])
    else:
        x0 = np.array(init, dtype=float)
    if x0[1] <= 0.0:
        x0[1] = (times[-1] - times[0]) / 3.0

    def model(x: np.ndarray) -> np.ndarray:
        exponent = np.clip(-times / x[1], -700.0, 700.0)
        return x[0] * np.exp(exponent) + x[2]

    def residual(x: np.ndarray) -> np.ndarray:
        return (model(x) - values) * sqrt_w

    def jacobian(x: np.ndarray) -> np.ndarray:
        exponent = np.clip(-times / x[1], -700.0, 700.0)
        decay = np.exp(exponent)
        jac = np.empty((times.size, 3))
        jac[:, 0] = decay
        jac[:, 1] = x[0] * decay * times / x[1] ** 2
        jac[:, 2] = 1.0
        return jac * sqrt_w[:, None]

    x, jac, r, iterations = _lm_minimize(residual, jacobian, x0)
    if x[1] <= 0.0:
        raise NonDecaying(f"fitted time constant {x[1]:.6g} ns is not a decay")
    cov = _covariance(jac, r, 3)
    sigma = np.sqrt(np.maximum(np.diag(cov), 0.0))
    unweighted = model(x) - values
    return ExponentialFit(
        tau=float(x[1]),
        amplitude=float(x[0]),
        baseline=float(x[2]),
        tau_err=float(sigma[1]),
        amplitude_err=float(sigma[0]),
        baseline_err=float(sigma[2]),
        residual_rms=float(np.sqrt(np.mean(unweighted**2))),
        iterations=iterations,
    )


@dataclass(frozen=True)
class RsPoint:
    """Raman to spontaneous intensity ratio at one detuning."""

    delta: float
    ratio: float
    ratio_err: float

    def __post_init__(self):
        if not (math.isfinite(self.ratio) and self.ratio > 0.0):
            raise DomainError(f"ratio must be positive and finite, got {self.ratio}")
        if not (math.isfinite(self.ratio_err) and self.ratio_err >= 0.0):
            raise DomainError(f"ratio_err must be nonnegative, got {self.ratio_err}")


def rs_ratio(
    peaks: Sequence[PeakFit],
    delta: float,
    mode: str = "area",
) -> RsPoint:
    """Label a fitted peak pair and form the Raman / spontaneous ratio.

    Expects centers on an axis where the Raman line sits near -delta and
    the spontaneous line near zero.  Labels are chosen by total assignment
    cost; a cost margin under 1 GHz raises AmbiguousAssignment, except for
    exactly coincident centers, where the labels are arbitrary and the
    ratio is reported as 1.  A spontaneous peak weaker than three of its
    standard errors raises VanishingSpontaneous with the offending point
    attached.
    """
    if len(peaks) != 2:
        raise DomainError(f"need exactly two peaks, got {len(peaks)}")
    if mode == "area":
        values = [(p.area, p.area_err) for p in peaks]
    elif mode == "amplitude":
        values = [(p.amplitude, p.amplitude_err) for p in peaks]
    else:
        raise DomainError(f"unknown ratio mode {mode!r}")

    first, second = peaks
    if abs(first.center - second.center) < 1e-9:
        err = math.hypot(
            values[0][1] / max(abs(values[0][0]), 1e-300),
            values[1][1] / max(abs(values[1][0]), 1e-300),
        )
        return RsPoint(delta=delta, ratio=1.0, ratio_err=err)

    cost_direct = abs(first.center + delta) + abs(second.center)
    cost_swapped = abs(second.center + delta) + abs(first.center)
    if abs(cost_direct - cost_swapped) < 1.0:
        raise AmbiguousAssignment(
            f"peak centers {first.center:.3f} and {second.center:.3f} GHz do not "
            f"separate into Raman and spontaneous lines at delta {delta:.3f}"
        )
    if cost_direct <= cost_swapped:
        (raman, raman_err), (spont, spont_err) = values
    else:
        (spont, spont_err), (raman, raman_err) = values

    point = None
    ratio_ok = spont > 0.0 and raman > 0.0
    if ratio_ok:
        ratio = raman / spont
        ratio_err = ratio * math.hypot(
            raman_err / raman if raman else 0.0, spont_err / spont
        )
        if math.isfinite(ratio) and ratio > 0.0:
            point = RsPoint(delta=delta, ratio=ratio, ratio_err=ratio_err)
    if spont <= 0.0 or spont < 3.0 * spont_err:
        raise VanishingSpontaneous(
            f"spontaneous peak {spont:.3e} is below three standard errors "
            f"({spont_err:.3e}) at delta {delta:.3f}",
            point=point,
        )
    if point is None:
        raise DomainError(f"ratio {raman / spont!r} is not a positive finite number")
    return point


def fit_emission_lines(params: ModelParams) -> tuple[LorentzianFit, LorentzianFit]:
    """Fit the two narrow emission lines, each in its own local window.

    The spectrum carries a cavity-wide background pedestal whose level
    differs between the line positions, so a joint fit with one shared
    constant offset misattributes pedestal light to the weaker line.  Each
    line instead gets a single-Lorentzian fit over +/- four widths
    around it, with a free constant absorbing the locally flat pedestal.
    Windows are clipped at the midpoint between the lines so they never
    cover each other's peak.  Centers land on an axis shifted so the Raman
    line sits near -delta_laser and the spontaneous line near zero.
    """
    lines = spectrum_mod.classify_lines(params)

    shifts = [line[0] - params.delta_laser for line in (lines.raman, lines.spontaneous)]
    midpoint = 0.5 * (shifts[0] + shifts[1])
    fits = []
    for (center, width, area), shifted in zip(
        (lines.raman, lines.spontaneous), shifts
    ):
        lo = shifted - _LINE_WINDOW * width
        hi = shifted + _LINE_WINDOW * width
        if shifted < midpoint:
            hi = min(hi, midpoint)
        else:
            lo = max(lo, midpoint)
        axis = np.linspace(lo, hi, _LINE_POINTS)
        values = spectrum_mod.mixture_intensity(
            axis + params.delta_laser, lines.lambdas, lines.residues, params.kappa
        )
        guess = ((2.0 * abs(area) / (math.pi * width), shifted, width),)
        fits.append(fit_lorentzian(axis, values, n_peaks=1, init=guess))
    return fits[0], fits[1]


def predict_rs(
    params: ModelParams, mode: str = "area"
) -> tuple[RsPoint, tuple[LorentzianFit, LorentzianFit]]:
    """Full ratio pipeline at one operating point.

    Fits the Raman and spontaneous lines via fit_emission_lines, labels the
    pair, and forms the intensity ratio.  Returns the labelled point
    together with the two underlying fits, Raman first.
    """
    raman_fit, spont_fit = fit_emission_lines(params)
    point = rs_ratio(
        (raman_fit.peaks[0], spont_fit.peaks[0]), delta=params.delta_laser, mode=mode
    )
    return point, (raman_fit, spont_fit)


@dataclass(frozen=True)
class PhononFit:
    """Power-law exponent and prefactor recovered from a detuning sweep.

    ``covariance`` is the 2x2 matrix over (exponent, prefactor).
    """

    exponent: float
    prefactor: float
    exponent_err: float
    prefactor_err: float
    covariance: np.ndarray


def fit_phonon_exponent(
    points: Sequence[RsPoint],
    params: ModelParams,
    mode: str = "area",
) -> PhononFit:
    """Recover the phonon spectral-density power law from ratio data.

    Refits (prefactor, exponent) by running the full ratio pipeline at each
    detuning, driving both phonon channels with the same trial power law.
    The generator depends on the pair only through alpha * delta**n, so the
    fit runs in (log alpha, n); initial values come from a reference sweep
    at alpha = 1, n = 0 followed by a log-log regression, after which the
    damped least-squares refinement uses central finite differences.
    Reported errors transform back to (exponent, prefactor) and carry the
    full covariance; a covariance condition number above 1e8 raises
    IllConditioned.
    """
    deltas = np.array([point.delta for point in points], dtype=float)
    if deltas.size < 3 or np.unique(deltas).size < 3:
        raise DomainError("need at least three distinct detunings")
    if np.max(deltas) < 3.0 * np.min(deltas):
        raise DomainError(
            "detunings must span at least a factor of three to constrain the exponent"
        )
    ratios = np.array([point.ratio for point in points], dtype=float)
    errs = np.array([point.ratio_err for point in points], dtype=float)
    sqrt_w = 1.0 / errs if np.all(errs > 0.0) else np.ones_like(ratios)

    def pipeline(delta: float, alpha: float, exponent: float) -> float:
        trial = replace(
            params,
            delta_laser=delta,
            delta_cavity=delta,
            phonon_alpha1=alpha,
            phonon_alpha2=alpha,
            phonon_n=exponent,
        )
        point, _ = predict_rs(trial, mode)
        return point.ratio

    # The ratio scales as 1/(alpha delta^n) to leading order, so a single
    # reference sweep linearizes the start: ln(ref/data) = ln a + n ln d.
    reference = np.array([pipeline(d, 1.0, 0.0) for d in deltas])
    design = np.column_stack([np.ones_like(deltas), np.log(deltas)])
    start, *_ = np.linalg.lstsq(design, np.log(reference / ratios), rcond=None)

    def residual(x: np.ndarray) -> np.ndarray:
        out = np.empty(deltas.size)
        for i, d in enumerate(deltas):
            try:
                out[i] = pipeline(d, math.exp(x[0]), x[1]) - ratios[i]
            except VanishingSpontaneous:
                # Penalize trial parameters that extinguish the line.
                out[i] = 1e6 * (1.0 + abs(ratios[i]))
        return out * sqrt_w

    def jacobian(x: np.ndarray) -> np.ndarray:
        jac = np.empty((deltas.size, 2))
        for j in range(2):
            step = 1e-6 * max(abs(x[j]), 1.0)
            forward = x.copy()
            backward = x.copy()
            forward[j] += step
            backward[j] -= step
            jac[:, j] = (residual(forward) - residual(backward)) / (2.0 * step)
        return jac

    x, jac, r, _ = _lm_minimize(residual, jacobian, np.asarray(start, dtype=float))
    log_alpha, exponent = float(x[0]), float(x[1])
    alpha = math.exp(log_alpha)

    cov_internal = _covariance(jac, r, 2)
    # Delta method from (log alpha, n) onto (n, alpha).
    covariance = np.array(
        [
            [cov_internal[1, 1], alpha * cov_internal[1, 0]],
            [alpha * cov_internal[0, 1], alpha**2 * cov_internal[0, 0]],
        ]
    )
    # Residual scaling cancels out of the condition number, except on exact
    # data where it zeros the covariance outright; the curvature keeps the
    # degeneracy test meaningful there.
    condition = float(np.linalg.cond(jac.T @ jac))
    if condition > 1e8:
        raise IllConditioned(
            f"covariance condition number {condition:.3e} exceeds 1e8"
        )
    return PhononFit(
        exponent=exponent,
        prefactor=alpha,
        exponent_err=float(math.sqrt(max(covariance[0, 0], 0.0))),
        prefactor_err=float(math.sqrt(max(covariance[1, 1], 0.0))),
        covariance=covariance,
    )
