"""Least-squares fitting of spectra and time traces, and the ratio pipeline.

Every fit runs through the stacked Levenberg-Marquardt core of
:mod:`leastsq`: analytic Jacobians for the Lorentzian and exponential
models, finite differences for the phonon-exponent refit where each model
evaluation is itself a full steady-state calculation.  The line windows of
a sweep, or of one refit trial, are fitted as one stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import leastsq, stack
from . import spectrum as spectrum_mod
from .errors import (
    AmbiguousAssignment,
    CavityRamanError,
    DegeneratePeaks,
    DomainError,
    FitError,
    IllConditioned,
    NonDecaying,
    VanishingSpontaneous,
)
from .model import ModelParams

# Local fit windows of fit_emission_lines: half-width in line widths, and
# the number of spectrum samples in each.
_LINE_WINDOW = 4.0
_LINE_POINTS = 97
# Step floor of the phonon refit's LM in (log alpha, n).  On the detuning
# diagonal its ratios carry about 1e-10 relative noise from the two line
# fits, and steps of that size only chase it.  A step of 1e-9 moves each
# ln s = log alpha + n ln d by at most 1e-9 * (1 + ln d), under 6e-9 up to
# d = 150 GHz: below the 1e-8 at which the secant start stops, and ten
# times the diagonal's noise.  Off it the noise is larger (5e-10 at (d, s)
# = (35, 10), 3.6e-9 to 6.8e-9 at s = 50): steps there chase it too.
_REFIT_STEP_FLOOR = 1e-9


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
    """Baseline plus amplitude / (u^2 + 1), u = (f - center) / (fwhm / 2), for
    each peak (at least one), with the parameters of row k of ``x`` on row k
    of ``freqs``: bitwise the baseline plus each lorentzian_profile in turn."""
    # + 0.0: no sum below is -0.0, so a -0.0 line adds as lorentzian_profile's 0.0.
    total = x[:, -1:] + 0.0
    for k in range(0, x.shape[1] - 1, 3):
        line = freqs - x[:, k + 1, None]
        line /= x[:, k + 2, None] / 2.0
        line *= line
        line += 1.0
        np.divide(x[:, k, None], line, out=line)
        total = np.add(line, total, out=line)
    return total


def _lorentzian_jacobian(freqs: np.ndarray, x: np.ndarray) -> np.ndarray:
    jac = np.empty(freqs.shape + (x.shape[1],), dtype=float)
    jac[:, :, -1] = 1.0
    for k in range(0, x.shape[1] - 1, 3):
        amplitude, center, fwhm = x[:, k, None], x[:, k + 1, None], x[:, k + 2, None]
        # In place, term for term: u = (f - center) / (fwhm / 2), d = 1 + u^2.
        u = freqs - center
        u /= fwhm / 2.0
        d = u * u
        d += 1.0
        np.divide(1.0, d, out=jac[:, :, k])
        denominator = fwhm * d
        denominator *= d
        numerator = 4.0 * amplitude * u
        np.divide(numerator, denominator, out=jac[:, :, k + 1])
        np.multiply(2.0 * amplitude, u, out=numerator)
        numerator *= u
        np.divide(numerator, denominator, out=jac[:, :, k + 2])
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
    errors: np.ndarray | None = None,
) -> LorentzianFit:
    """Fit a sum of Lorentzians plus a constant baseline.

    ``init`` starts each peak at (amplitude, center, fwhm); without it the
    tallest remaining sample starts each peak in turn.  ``errors`` are
    per-point standard deviations used as inverse-variance weights.  Raises
    DegeneratePeaks when two fitted centers collapse within a tenth of the
    narrower width.
    """
    if isinstance(n_peaks, bool) or not isinstance(n_peaks, (int, np.integer)) or n_peaks < 1:
        raise DomainError(f"n_peaks must be a positive integer, got {n_peaks!r}")
    freqs, intensity = _check_samples(
        freqs, intensity, "freqs and intensity", 4 * n_peaks + 1, f"for {n_peaks} peaks"
    )
    sqrt_w = _weights(errors, intensity)

    if init is None:
        guesses, base0 = _initial_peaks(freqs, intensity, n_peaks)
    else:
        if len(init) != n_peaks:
            raise DomainError(f"expected {n_peaks} initial triples, got {len(init)}")
        guesses = [tuple(map(float, triple)) for triple in init]
        base0 = float(np.min(intensity))
    if any(fwhm == 0.0 for _, _, fwhm in guesses):
        raise DomainError("initial fwhm must be nonzero")
    x0 = np.array([v for a, c, fwhm in guesses for v in (a, c, abs(fwhm))] + [base0])
    return stack.alone(_fit_lorentzians, freqs, intensity, sqrt_w, x0)


def _fit_lorentzians(
    freqs: np.ndarray, intensity: np.ndarray, sqrt_w: np.ndarray | None, x0: np.ndarray
) -> list[LorentzianFit | FitError]:
    """Fit row k of ``intensity`` on row k of ``freqs`` from start ``x0[k]``,
    weighted by ``sqrt_w[k]`` (unit weights if None), for every k in one LM
    stack.

    Returns each row's fit, or the FitError that row raised; a failing row
    leaves the others as they would be alone.
    """
    def residual(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        rows = slice(None) if rows.size == len(x0) else rows  # views, not copies
        r = _lorentzian_model(freqs[rows], x)
        r -= intensity[rows]
        if sqrt_w is not None:
            r *= sqrt_w[rows]
        return r

    def jacobian(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        rows = slice(None) if rows.size == len(x0) else rows
        jac = _lorentzian_jacobian(freqs[rows], x)
        if sqrt_w is not None:
            jac *= sqrt_w[rows][:, :, None]
        return jac

    solution = leastsq.minimize(residual, jacobian, x0)
    fits: list[LorentzianFit | FitError] = [solution.error(k) for k in range(len(x0))]
    converged = [k for k, error in enumerate(fits) if error is None]
    x = solution.x[converged]
    cov = leastsq.covariance(
        solution.gram[converged], solution.cost[converged], freqs.shape[1], x0.shape[1]
    )
    sigmas = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0))
    unweighted = _lorentzian_model(freqs[converged], x) - intensity[converged]
    rms = np.sqrt(np.mean(unweighted**2, axis=1))

    # Every row's peaks at once, in PeakFit field order, sorted by center.
    amplitude, center, fwhm = x[:, 0:-1:3], x[:, 1:-1:3], np.abs(x[:, 2:-1:3])
    amp_err, center_err, fwhm_err = (sigmas[:, k:-1:3] for k in range(3))
    cross = np.diagonal(cov[:, 0:-1:3, 2:-1:3], axis1=1, axis2=2)
    area = amplitude * fwhm * math.pi / 2.0
    with np.errstate(over="ignore"):  # a huge error bar is inf, not a warning
        # float_power squares with C pow, as a float64 scalar's ** does;
        # an array's ** squares by x * x, which can differ in the last bit.
        area_var = (
            np.float_power(fwhm, 2) * np.float_power(amp_err, 2)
            + np.float_power(amplitude, 2) * np.float_power(fwhm_err, 2)
            + 2.0 * amplitude * fwhm * cross
        )
        area_var = (math.pi / 2.0) ** 2 * np.where(0.0 > area_var, 0.0, area_var)
    table = np.stack(
        [center, fwhm, amplitude, area, center_err, fwhm_err, amp_err, np.sqrt(area_var)],
        axis=-1,
    )
    # Tied centers are refused below as coincident, so their order never
    # shows.  Two centers within a tenth of the narrower width coincide;
    # min(a, b) is b only where b < a, as Python's min.
    table = np.take_along_axis(table, np.argsort(center, axis=1)[..., None], 1)
    first, second = np.triu_indices(center.shape[1], 1)
    centers, widths = table[..., 0], table[..., 1]
    narrower = np.where(widths[:, second] < widths[:, first], widths[:, second], widths[:, first])
    close = np.abs(centers[:, first] - centers[:, second]) < 0.1 * narrower
    for j, k in enumerate(converged):
        if close[j].any():
            pair = int(np.argmax(close[j]))
            fits[k] = DegeneratePeaks(
                f"fitted centers {float(centers[j, first[pair]])} and "
                f"{float(centers[j, second[pair]])} coincide"
            )
            continue
        fits[k] = LorentzianFit(
            peaks=tuple(PeakFit(*fields) for fields in table[j].tolist()),
            baseline=float(x[j, -1]),
            baseline_err=float(sigmas[j, -1]),
            residual_rms=float(rms[j]),
            iterations=int(solution.iterations[k]),
        )
    return fits


def _check_samples(
    x: np.ndarray, y: np.ndarray, names: str, min_size: int, purpose: str
) -> tuple[np.ndarray, np.ndarray]:
    """Matching finite 1-d float arrays holding at least ``min_size`` samples,
    on an axis ``x`` whose squares sum and whose nonzero span squares with no
    overflow or underflow: the fits' normal equations square both.  Values
    ``y`` that do not vary hold no line and no decay, and are refused."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DomainError(f"{names} must be matching 1-d arrays")
    if x.size < min_size:
        raise DomainError(f"need at least {min_size} samples {purpose}, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("data must be finite")
    if np.all(y == y[0]):
        raise DomainError(f"the data do not vary: every value is {float(y[0])!r}")
    with np.errstate(over="ignore"):  # checked below
        squares, span = np.sum(np.square(x)), float(np.max(x) - np.min(x))
    if not np.isfinite(squares):
        raise DomainError("the axis is too large to fit: its squares overflow")
    if 0.0 < span and span * span < np.finfo(float).tiny:
        raise DomainError(f"the axis spans {span!r}, too little to fit: its square underflows")
    return x, y


def _weights(errors: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """Square-root weights 1 / errors of ``values`` (ones without errors).
    Refuses weights, or weighted values, that overflow a float when squared
    and summed, as the LM's Gram matrix and cost would."""
    if errors is None:
        weights = np.ones(values.size)
        refusal = "the data are too large to fit: their squares overflow"
    else:
        errors = np.asarray(errors, dtype=float)
        if errors.shape != values.shape:
            raise DomainError("errors must match the data length")
        if not np.all(np.isfinite(errors) & (errors > 0.0)):
            raise DomainError("error bars must be positive and finite")
        bar = f"error bar {float(np.min(errors))!r} is too small to weight"
        with np.errstate(over="ignore"):  # checked below
            weights = 1.0 / errors
        if not np.all(np.isfinite(weights)):
            raise DomainError(f"{bar}: its inverse overflows")
        refusal = f"{bar}: the weighted squares overflow"
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        squares = [np.sum(np.square(weights)), np.sum(np.square(values * weights))]
    if not np.all(np.isfinite(squares)):
        raise DomainError(refusal)
    return weights


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
    errors: np.ndarray | None = None,
) -> ExponentialFit:
    """Fit amplitude * exp(-t/tau) + baseline to a time trace.

    A fitted tau that is nonpositive, or so long that exp(-span / tau) is 1
    over the span of the times, raises NonDecaying; growing saturation
    traces are handled by a negative amplitude, not a negative tau.
    """
    times, values = _check_samples(
        times, values, "times and values", 4, "for a three-parameter fit"
    )
    if np.min(np.diff(times)) <= 0.0:
        raise DomainError("times must be strictly ascending")
    sqrt_w = _weights(errors, values)

    # The start tau is positive: the times ascend strictly.
    tail = max(times.size // 10, 1)
    base0 = float(np.mean(values[-tail:]))
    amp0 = float(values[0] - base0)
    if amp0 == 0.0:
        amp0 = float(np.max(values) - np.min(values))
    shifted = (values - base0) / amp0
    usable = shifted > 0.05
    if np.count_nonzero(usable) >= 2:
        slope = np.polyfit(times[usable], np.log(shifted[usable]), 1)[0]
        tau0 = -1.0 / slope if slope < 0.0 else (times[-1] - times[0]) / 3.0
    else:
        tau0 = (times[-1] - times[0]) / 3.0
    x0 = np.array([amp0, tau0, base0])

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
        jac[:, 1] = x[0] * decay * times / x[1] ** 2  # overflows under the LM's errstate
        jac[:, 2] = 1.0
        return jac * sqrt_w[:, None]

    solution = leastsq.minimize(leastsq.single(residual), leastsq.single(jacobian), x0[None])
    if solution.error(0) is not None:
        raise solution.error(0)
    x = solution.x[0]
    if x[1] <= 0.0:
        raise NonDecaying(f"fitted time constant {x[1]:.6g} ns is not a decay")
    span = times[-1] - times[0]
    if math.exp(-span / x[1]) == 1.0:
        raise NonDecaying(
            f"fitted time constant {x[1]:.6g} ns shows no decay over the {span:.6g} ns of data"
        )
    cov = leastsq.covariance(solution.gram, solution.cost, times.size, 3)[0]
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
        iterations=int(solution.iterations[0]),
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


def rs_ratio(peaks: Sequence[PeakFit], delta: float) -> RsPoint:
    """Label a fitted peak pair and form the Raman / spontaneous area ratio.

    Expects centers on an axis where the Raman line sits near -delta and
    the spontaneous line near zero.  Labels are chosen by total assignment
    cost; a cost margin under 1 GHz raises AmbiguousAssignment, as
    coincident centers do.  A spontaneous peak weaker than three of its
    standard errors raises VanishingSpontaneous with the offending point
    attached; after it, a Raman peak of no positive area raises FitError.
    """
    if len(peaks) != 2:
        raise DomainError(f"need exactly two peaks, got {len(peaks)}")

    first, second = peaks
    cost_direct = abs(first.center + delta) + abs(second.center)
    cost_swapped = abs(second.center + delta) + abs(first.center)
    if abs(cost_direct - cost_swapped) < 1.0:
        raise AmbiguousAssignment(
            f"peak centers {first.center:.3f} and {second.center:.3f} GHz do not "
            f"separate into Raman and spontaneous lines at delta {delta:.3f}"
        )
    labelled = (first, second) if cost_direct <= cost_swapped else (second, first)
    (raman, raman_err), (spont, spont_err) = ((p.area, p.area_err) for p in labelled)

    point = None
    if spont > 0.0 and raman > 0.0:
        ratio = raman / spont
        ratio_err = ratio * math.hypot(raman_err / raman, spont_err / spont)
        if math.isfinite(ratio) and ratio > 0.0:
            point = RsPoint(delta=delta, ratio=ratio, ratio_err=ratio_err)
    if spont <= 0.0 or spont < 3.0 * spont_err:
        raise VanishingSpontaneous(
            f"spontaneous peak {spont:.3e} is below three standard errors "
            f"({spont_err:.3e}) at delta {delta:.3f}",
            point=point,
        )
    if raman <= 0.0:
        raise FitError(f"Raman peak area {raman:.3e} is not positive at delta {delta:.3f}")
    if point is None:
        raise DomainError(f"ratio {raman / spont!r} is not a positive finite number")
    return point


LinePair = tuple[LorentzianFit, LorentzianFit]


@stack.per_point
def fit_emission_lines(points: list[ModelParams]) -> list[LinePair | Exception]:
    """Fit the two narrow emission lines, each in its own local window.

    The spectrum carries a cavity-wide background pedestal whose level
    differs between the line positions, so a joint fit with one shared
    constant offset misattributes pedestal light to the weaker line.  Each
    line instead gets a single-Lorentzian fit over +/- four widths
    around it, with a free constant absorbing the locally flat pedestal.
    Windows are clipped at the midpoint between the lines so they never
    cover each other's peak.  Centers land on an axis shifted so the Raman
    line sits near -delta_laser and the spontaneous line near zero.

    Returns each point's (Raman, spontaneous) fits or exception, in order
    (see :func:`stack.per_point`); a stack's points are classified and all
    its windows sampled and fitted in one stacked LM call, each fit bit for
    bit the one it gets alone.
    """
    plan, fitted, axes, samples, starts = _line_plans(spectrum_mod.line_table(points))
    if fitted.any():
        plan[fitted] = _fit_lorentzians(axes, samples, None, starts)
    # A point's outcome is its first failed window, or both fits.
    return [next((f for f in pair if isinstance(f, Exception)), tuple(pair)) for pair in plan]


def _line_plans(
    table: spectrum_mod.LineTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Raman and spontaneous line windows of a classified stack of K
    points, stacked for one LM call.

    Returns (plan, fitted, axes, samples, starts).  ``plan`` is a (K, 2)
    object array holding the error each window meets before its fit, as
    fit_lorentzian would raise it: non-finite data, or a zero start width.
    ``fitted`` marks the windows without one; their axes, spectrum samples
    and starts follow in that order.  Errors wait in the plan, so a caller
    meets them in its own order.  A point whose spectrum normalization or
    window frequency overflows fails in mixture_intensity, which raises
    stack.Failed.
    """
    delta = table.delta_laser[:, None]
    # A non-finite center or width is refused below, from its axis.  As NaN
    # it passes the window arithmetic quietly, where inf would meet inf - inf.
    roles = np.where(np.isfinite(table.roles[:, :, :2]), table.roles[:, :, :2], np.nan)
    centers = roles[:, :, 0] - delta
    widths = roles[:, :, 1]
    midpoint = 0.5 * (centers[:, :1] + centers[:, 1:])
    lo = centers - _LINE_WINDOW * widths
    hi = centers + _LINE_WINDOW * widths
    # Each window is clipped at the midpoint between the lines; min(hi, m)
    # is m only where m < hi, and max(lo, m) m only where m > lo.
    below = centers < midpoint
    hi = np.where(below & (midpoint < hi), midpoint, hi)
    lo = np.where(~below & (midpoint > lo), midpoint, lo)
    axes = _window_axes(lo, hi)
    # A window whose axis is not finite is refused below; it samples the
    # stand-in axis 0 instead, so that no NaN reaches the spectrum.
    finite_axes = np.isfinite(axes).all(axis=-1)
    nu = np.where(finite_axes[..., None], axes, 0.0) + delta[..., None]
    samples = spectrum_mod.mixture_intensity(nu, table.lambdas, table.residues, table.kappa)
    finite = finite_axes & np.isfinite(samples).all(axis=-1)
    fitted = finite & (widths != 0.0)
    plan = np.full(fitted.shape, None, dtype=object)
    for k, w in zip(*np.nonzero(~fitted)):
        plan[k, w] = DomainError(
            "data must be finite" if not finite[k, w] else "initial fwhm must be nonzero"
        )
    with np.errstate(divide="ignore", invalid="ignore"):  # refused above
        amplitudes = 2.0 * np.abs(table.roles[:, :, 2]) / (math.pi * widths)
    starts = np.stack([amplitudes, centers, np.abs(widths), np.min(samples, axis=-1)], axis=-1)
    return plan, fitted, axes[fitted], samples[fitted], starts[fitted]


def _window_axes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``np.linspace(lo, hi, _LINE_POINTS)`` of every window, each bitwise
    its own call: a stacked call takes the zero-step route in every row
    once one row needs it, so those rows are evaluated apart."""
    zero_step = (hi - lo) / (_LINE_POINTS - 1) == 0.0
    axes = np.empty(lo.shape + (_LINE_POINTS,))
    for rows in (zero_step, ~zero_step):
        axes[rows] = np.linspace(lo[rows], hi[rows], _LINE_POINTS, axis=-1)
    return axes


def predict_rs(points: Iterable[ModelParams]) -> list[tuple[RsPoint, LinePair] | Exception]:
    """Full ratio pipeline at each of an iterable of operating points.

    Fits the Raman and spontaneous lines via fit_emission_lines, labels the
    pair, and forms the intensity ratio.  Returns one outcome per point:
    the labelled point together with the two underlying fits, Raman first,
    or its exception, VanishingSpontaneous included, so a caller can raise
    the first failure in its own order.  ``stack.alone`` solves one point.
    """
    points = list(points)
    outcomes = []
    for trial, fits in zip(points, fit_emission_lines(points)):
        if not isinstance(fits, Exception):
            raman_fit, spont_fit = fits
            try:
                point = rs_ratio((raman_fit.peaks[0], spont_fit.peaks[0]), trial.delta_laser)
            except CavityRamanError as exc:
                fits = exc
            else:
                fits = (point, fits)
        outcomes.append(fits)
    return outcomes


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


def _exp_or_inf(u: float) -> float:
    """exp(u), or inf where it overflows: a trial density that ModelParams
    refuses with a DomainError."""
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def fit_phonon_exponent(points: Sequence[RsPoint], params: ModelParams) -> PhononFit:
    """Recover the phonon spectral-density power law from ratio data.

    Refits (prefactor, exponent) by running the full ratio pipeline at each
    detuning, driving both phonon channels with the same trial power law.
    The generator always evaluates the spectral density at the laser
    detuning, so at detuning d the generator sees the pair only through
    s = alpha * d**n.  Every trial solves at phonon_alpha1 = phonon_alpha2 = s
    and phonon_n = 0, the same generator bit for bit, and no (d, s) is solved
    twice in one call.  The reference sweep, each secant round and each LM
    residual, with the Jacobian keys at its point, send their unsolved
    (d, s) points to predict_rs as one batch, fitted as one stack.  The fit
    runs in (log alpha, n).  Its start: from a reference sweep at s = 1, a
    secant per detuning finds the ln s that meets each ratio, all secants
    stepped together, and a regression of those roots on ln d, weighted by
    |d ratio / d ln s| over the ratio error.  If a secant trial fails, the
    first failure in detuning order decides, as if the secants ran one at a
    time: a VanishingSpontaneous gives the unweighted log-log regression of
    the reference sweep instead, any other is raised.  Damped least squares
    refines the start with one central difference in ln s per detuning,
    times ln d for the exponent column, and stops at steps below 1e-9 in
    (log alpha, n), where the ratios' ~1e-10 noise sets in.  A
    VanishingSpontaneous trial is a penalty row of the LM, and one left at
    the LM's solution is raised, the first in detuning order.  A trial
    density that overflows a float raises DomainError, and so do ratio
    errors that are zero at some detunings but not all, or so small that
    the weighted squares overflow; with every error zero the fit is
    unweighted.  Reported errors transform back to
    (exponent, prefactor) with the full covariance; a covariance condition
    number above 1e8 raises IllConditioned.
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
    zero = errs == 0.0
    if zero.any() and not zero.all():
        raise DomainError(
            f"ratio error is zero at detuning {float(deltas[np.argmax(zero)])!r} but not at "
            "every detuning: give every ratio a positive error, or none"
        )
    sqrt_w = _weights(None if zero.all() else errs, ratios)
    detunings, log_deltas = deltas.tolist(), np.log(deltas)
    solved: dict[tuple[float, float], float | Exception] = {}

    def solve(keys: list[tuple[float, float]]) -> list[float | Exception]:
        """Pipeline ratio or failure at each (detuning, density) key, solving
        the keys not yet solved as one batch.  A failure is returned, not
        raised, so each caller meets the first one in its own order."""
        fresh, trials = [], []
        for d, s in dict.fromkeys(keys):
            if (d, s) in solved:
                continue
            try:
                trials.append(replace(params, delta_laser=d, delta_cavity=d,
                                      phonon_alpha1=s, phonon_alpha2=s, phonon_n=0.0))
            except DomainError as exc:
                # An overflowing trial density: refused, not solved.
                solved[(d, s)] = DomainError(
                    f"trial phonon density {s!r} at detuning {d!r} GHz: {exc}"
                )
            else:
                fresh.append((d, s))
        for key, outcome in zip(fresh, predict_rs(trials) if trials else []):
            solved[key] = outcome if isinstance(outcome, Exception) else outcome[0].ratio
        return [solved[key] for key in keys]

    reference = solve([(d, 1.0) for d in detunings])
    for ratio in reference:
        if isinstance(ratio, Exception):
            raise ratio

    # A secant in ln s per detuning, all stepped together: each round solves
    # the next trial of every secant still running as one batch.  Each ends
    # by its own tests, as it would alone, and the first failure in detuning
    # order counts only once all have ended.  To leading order ratio ~ 1/s,
    # so the first step is u = ln(ref/data).
    targets = [math.log(ratio) for ratio in ratios]
    u_prev = [0.0] * deltas.size
    g_prev = [math.log(ref) - target for ref, target in zip(reference, targets)]
    logs, slopes = list(g_prev), [-1.0] * deltas.size
    failures: dict[int, Exception] = {}
    running = list(range(deltas.size))
    for _ in range(20):
        # Stop above the ~1e-10 noise; the cap ends a search with no root.
        running = [i for i in running if abs(logs[i] - u_prev[i]) > 1e-8]
        if not running:
            break
        outcomes = solve([(detunings[i], _exp_or_inf(logs[i])) for i in running])
        stepped = []
        for i, ratio in zip(running, outcomes):
            if isinstance(ratio, Exception):
                failures[i] = ratio
                continue
            g = math.log(ratio) - targets[i]
            if g == g_prev[i]:
                continue
            slopes[i] = (g - g_prev[i]) / (logs[i] - u_prev[i])
            u_prev[i], g_prev[i], logs[i] = logs[i], g, logs[i] - g / slopes[i]
            stepped.append(i)
        running = stepped

    first_failure = failures[min(failures)] if failures else None
    if isinstance(first_failure, VanishingSpontaneous):
        weights, logs = np.ones_like(deltas), np.log(np.array(reference) / ratios)
    elif first_failure is not None:
        raise first_failure
    else:
        # Delta method: ln s_i carries the error ratio_err / |d ratio / d ln s|.
        weights = np.abs(np.array(slopes) * ratios) * sqrt_w
        logs = np.array(logs)
    design = np.column_stack([np.ones_like(deltas), log_deltas]) * weights[:, None]
    start, *_ = np.linalg.lstsq(design, logs * weights, rcond=None)

    def row(i: int, s: float) -> float:
        """Weighted residual of the solved key (detuning i, density s)."""
        ratio = solved[(detunings[i], s)]
        if isinstance(ratio, VanishingSpontaneous):
            # Penalize trial parameters that extinguish the line.
            return 1e6 * (1.0 + abs(ratios[i])) * sqrt_w[i]
        if isinstance(ratio, Exception):
            raise ratio
        return (ratio - ratios[i]) * sqrt_w[i]

    def densities(x: np.ndarray) -> list[float]:
        # A density that overflows is inf, which solve refuses.
        alpha, exponent = _exp_or_inf(x[0]), float(x[1])
        try:
            return [alpha * d**exponent for d in detunings]
        except OverflowError:
            return [math.inf] * len(detunings)

    # Step 1e-4 in ln s: the ~1e-10 pipeline noise moves the slope ~1e-6.
    up = math.exp(1e-4)

    def residual(x: np.ndarray) -> np.ndarray:
        # The LM takes its Jacobian only where it took a residual: the
        # Jacobian's keys, each density up and down, join the residual's batch.
        trials = densities(x)
        shifted = [(d, t) for d, s in zip(detunings, trials) for t in (s * up, s / up)]
        solve(list(zip(detunings, trials)) + shifted)
        return np.array([row(i, s) for i, s in enumerate(trials)])

    def jacobian(x: np.ndarray) -> np.ndarray:
        rises = [row(i, s * up) - row(i, s / up) for i, s in enumerate(densities(x))]
        column = np.array(rises) / 2e-4
        return np.column_stack([column, column * log_deltas])

    x0 = np.asarray(start, dtype=float)[None]
    solution = leastsq.minimize(
        leastsq.single(residual), leastsq.single(jacobian), x0, step_floor=_REFIT_STEP_FLOOR
    )
    if solution.error(0) is not None:
        raise solution.error(0)
    x = solution.x[0]
    # A penalty row has no slope, so a fit that ends on one means nothing.
    for key in zip(detunings, densities(x)):
        if isinstance(solved[key], VanishingSpontaneous):
            raise solved[key]
    log_alpha, exponent = float(x[0]), float(x[1])
    alpha = math.exp(log_alpha)

    cov_internal = leastsq.covariance(solution.gram, solution.cost, deltas.size, 2)[0]
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
    condition = float(np.linalg.cond(solution.gram[0]))
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
