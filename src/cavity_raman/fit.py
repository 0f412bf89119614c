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
    cap raises NoConvergence.  As in MINPACK lmder, the Jacobian is taken
    once per accepted point: a rejected step leaves x unchanged.
    """
    x = np.array(x0, dtype=float)
    r = np.asarray(residual(x), dtype=float)
    cost = float(r @ r)
    jac = np.asarray(jacobian(x), dtype=float)
    damping = _DAMPING_START

    for iteration in range(1, max_iterations + 1):
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
            jac = np.asarray(jacobian(x), dtype=float)
        else:
            damping = min(damping * _DAMPING_STEP, 1e12)
        if small_step:
            # At the step floor: converged if accepted, stalled if rejected.
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
    ``build_liouvillian`` always evaluates the spectral density at the laser
    detuning, so at detuning d the generator sees the pair only through
    s = alpha * d**n.  Every trial solves at phonon_alpha1 = phonon_alpha2 = s
    and phonon_n = 0, the same generator bit for bit, and no (d, s) is solved
    twice in one call.  The fit runs in (log alpha, n).  Its start: from a
    reference sweep at s = 1, a secant finds the ln s that meets each ratio,
    and a regression of those roots on ln d, weighted by |d ratio / d ln s|
    over the ratio error; if a secant trial extinguishes the spontaneous
    line, the unweighted log-log regression of the reference sweep instead.
    Damped least squares refines it with one central difference in ln s per
    detuning, times ln d for the exponent column.  Reported errors transform
    back to (exponent, prefactor) with the full covariance; a covariance
    condition number above 1e8 raises IllConditioned.
    """
    deltas = np.array([point.delta for point in points], dtype=float)
    if deltas.size < 3 or np.unique(deltas).size < 3:
        raise DomainError("need at least three distinct detunings")
    if np.min(deltas) <= 0.0:
        raise DomainError(f"detunings must be positive, got {float(np.min(deltas))!r}")
    if np.max(deltas) < 3.0 * np.min(deltas):
        raise DomainError(
            "detunings must span at least a factor of three to constrain the exponent"
        )
    ratios = np.array([point.ratio for point in points], dtype=float)
    errs = np.array([point.ratio_err for point in points], dtype=float)
    sqrt_w = 1.0 / errs if np.all(errs > 0.0) else np.ones_like(ratios)
    detunings, log_deltas = deltas.tolist(), np.log(deltas)
    solved: dict[tuple[float, float], float | VanishingSpontaneous] = {}

    def ratio_at(i: int, s: float) -> float | VanishingSpontaneous:
        """Pipeline ratio at detuning i and spectral density s, solved once."""
        key = (detunings[i], s)
        if key not in solved:
            trial = replace(params, delta_laser=key[0], delta_cavity=key[0],
                            phonon_alpha1=s, phonon_alpha2=s, phonon_n=0.0)
            try:
                solved[key] = predict_rs(trial, mode)[0].ratio
            except VanishingSpontaneous as vanished:
                solved[key] = vanished
        return solved[key]

    reference = [ratio_at(i, 1.0) for i in range(deltas.size)]
    for ratio in reference:
        if isinstance(ratio, VanishingSpontaneous):
            raise ratio

    def secant(i: int) -> tuple[float, float]:
        """ln s where the pipeline meets ratio i, and d ln ratio / d ln s."""
        target = math.log(ratios[i])
        # To leading order ratio ~ 1/s: the first step is u = ln(ref/data).
        u_prev, g_prev = 0.0, math.log(reference[i]) - target
        u, slope = g_prev, -1.0
        for _ in range(20):
            # Stop above the ~1e-10 noise; the cap ends a search with no root.
            if abs(u - u_prev) <= 1e-8:
                break
            ratio = ratio_at(i, math.exp(u))
            if isinstance(ratio, VanishingSpontaneous):
                raise ratio
            g = math.log(ratio) - target
            if g == g_prev:
                break
            slope = (g - g_prev) / (u - u_prev)
            u_prev, g_prev, u = u, g, u - g / slope
        return u, slope

    try:
        logs, slopes = np.array([secant(i) for i in range(deltas.size)]).T
    except VanishingSpontaneous:
        weights, logs = np.ones_like(deltas), np.log(np.array(reference) / ratios)
    else:
        # Delta method: ln s_i carries the error ratio_err / |d ratio / d ln s|.
        weights = np.abs(slopes * ratios) * sqrt_w
    design = np.column_stack([np.ones_like(deltas), log_deltas]) * weights[:, None]
    start, *_ = np.linalg.lstsq(design, logs * weights, rcond=None)

    def row(i: int, s: float) -> float:
        ratio = ratio_at(i, s)
        if isinstance(ratio, VanishingSpontaneous):
            # Penalize trial parameters that extinguish the line.
            return 1e6 * (1.0 + abs(ratios[i])) * sqrt_w[i]
        return (ratio - ratios[i]) * sqrt_w[i]

    def densities(x: np.ndarray) -> list[float]:
        alpha, exponent = math.exp(x[0]), float(x[1])
        return [alpha * d**exponent for d in detunings]

    def residual(x: np.ndarray) -> np.ndarray:
        return np.array([row(i, s) for i, s in enumerate(densities(x))])

    def jacobian(x: np.ndarray) -> np.ndarray:
        # Step 1e-4 in ln s: the ~1e-10 pipeline noise moves the slope ~1e-6.
        up = math.exp(1e-4)
        column = np.array(
            [row(i, s * up) - row(i, s / up) for i, s in enumerate(densities(x))]
        ) / 2e-4
        return np.column_stack([column, column * log_deltas])

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
