"""Least-squares fitters: round trips, Monte-Carlo recovery, ratio labeling."""
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

import helpers
from cavity_raman import (
    AmbiguousAssignment,
    CavityRamanError,
    DegeneratePeaks,
    DegenerateSpectrum,
    DomainError,
    FitError,
    IllConditioned,
    ModelParams,
    NoConvergence,
    PeakFit,
    PhononFit,
    RsPoint,
    VanishingSpontaneous,
    dressed_states,
    fit_emission_lines,
    fit_exponential,
    fit_lorentzian,
    fit_phonon_exponent,
    lorentzian_profile,
    predict_rs,
    rs_ratio,
)
from cavity_raman import fit as fit_mod
from cavity_raman import leastsq, stack
from cavity_raman import liouvillian as lv

# Frozen pipeline outputs at the default operating point.
PREDICT_RS_AREA_REF = 0.11419118598996021
PIPELINE_RATIO_OF_RATIOS_REF = 219.29681779164713


def _peak(center, value, err=0.0):
    return PeakFit(
        center=center,
        fwhm=1.0,
        amplitude=value,
        area=value,
        center_err=0.0,
        fwhm_err=0.0,
        amplitude_err=err,
        area_err=err,
    )


def _curved_valley(x):
    # Rosenbrock's valley plus a third residual that moves the optimum off
    # (1, 1), so the solution carries rounding from the whole path.
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0], 0.5 * (x[0] * x[1] - 0.3)])


def _curved_valley_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0], [0.5 * x[1], 0.5 * x[0]]])


@pytest.mark.parametrize(
    "start, solution, iterations, stop",
    [
        (
            (-1.2, 1.0),
            ("0x1.af313b867f213p-1", "0x1.6ad180e022acep-1"),
            54,
            leastsq.STOP_STALLED,
        ),
        (
            (-3.0, -4.0),
            ("0x1.af313b894bd46p-1", "0x1.6ad180e4d9a89p-1"),
            21,
            leastsq.STOP_GRADIENT,
        ),
    ],
    ids=["stalls_at_step_floor", "gradient_converges"],
)
def test_lm_takes_one_jacobian_per_accepted_point(start, solution, iterations, stop):
    """A rejected step leaves x unchanged, so its Jacobian is reused.

    The solutions and iteration counts were recorded while the Jacobian was
    still recomputed after every rejected step (54 and 21 Jacobians at 25
    and 16 distinct points); keeping it must not move the path by a bit.
    The first start ends on a rejected step under the step floor, the
    second on the gradient test.
    """
    costs, jacobian_points = [], []

    def residual(rows, x):
        r = _curved_valley(x[0])
        costs.append(float(r @ r))
        return r[None]

    def jacobian(rows, x):
        jacobian_points.append(tuple(x[0]))
        return _curved_valley_jacobian(x[0])[None]

    result = leastsq.minimize(residual, jacobian, np.array([start]))
    (x,) = result.x
    # A trial step is accepted exactly when it lowers the lowest cost so far.
    accepted = sum(1 for i in range(1, len(costs)) if costs[i] < min(costs[:i]))
    assert accepted < len(costs) - 1, "the path must contain rejected steps"
    assert len(set(jacobian_points)) == len(jacobian_points) == 1 + accepted
    assert (float(x[0]).hex(), float(x[1]).hex()) == solution
    assert result.iterations.tolist() == [iterations]
    assert result.stops == (stop,)


def test_lm_stack_keeps_failing_problems_apart(monkeypatch):
    """In one stack, a problem whose damped system is singular and one that
    never converges leave the other problems exactly where they end alone,
    and each failing problem fails as it does alone.

    A finite problem's damped system is positive definite, so the singular
    solve is forced: LAPACK's report of an exactly singular matrix is
    raised for any system holding the marked entry.
    """
    mark = 12345.0
    solve = np.linalg.solve

    def marked_singular(a, b):
        if np.any(np.asarray(a) == mark):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", marked_singular)
    # Start 0 and 1: the curved valley; 2: singular; 3: non-finite residual
    # from the start, so no step is ever accepted.
    starts = [(-1.2, 1.0), (-3.0, -4.0), (0.5, 0.5), (np.nan, 1.0)]

    def residual(rows, x):
        return np.array([_curved_valley(xk) for xk in x])

    def jacobian(rows, x):
        jac = np.array([_curved_valley_jacobian(xk) for xk in x])
        jac[rows == 2] = [[1.0, mark], [1.0, 0.0], [0.0, 0.0]]
        return jac

    stacked = leastsq.minimize(residual, jacobian, np.array(starts))
    for k, start in enumerate(starts):
        alone = leastsq.minimize(
            lambda rows, x: residual(rows + k, x),
            lambda rows, x: jacobian(rows + k, x),
            np.array([start]),
        )
        np.testing.assert_array_equal(stacked.x[k], alone.x[0])
        np.testing.assert_array_equal(stacked.gram[k], alone.gram[0])
        np.testing.assert_array_equal(stacked.cost[k], alone.cost[0])
        assert stacked.iterations[k] == alone.iterations[0]
        assert stacked.stops[k] == alone.stops[0]
    assert stacked.stops == (
        leastsq.STOP_STALLED,
        leastsq.STOP_GRADIENT,
        leastsq.STOP_MAX_ITERATIONS,
        leastsq.STOP_MAX_ITERATIONS,
    )
    assert stacked.error(0) is None and stacked.error(1) is None
    for k in (2, 3):
        assert isinstance(stacked.error(k), NoConvergence)
        assert str(stacked.error(k)) == "no convergence within 500 iterations"
    assert stacked.iterations.tolist() == [54, 21, 500, 500]


def test_covariance_takes_pinv_only_for_a_singular_gram():
    """A stack holding one exactly singular Gram matrix inverts the others
    as one stack, each bitwise its own 2-D inverse, and gives the singular
    one its pseudo-inverse, all scaled by the reduced chi square."""
    rng = np.random.default_rng(71)
    jac = rng.normal(size=(5, 9, 3))
    gram = jac.transpose(0, 2, 1) @ jac
    gram[2] = np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0])  # rank one
    cost = rng.uniform(0.5, 2.0, 5)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(gram[2])
    cov = leastsq.covariance(gram, cost, 9, 3)
    for k in range(5):
        inverse = np.linalg.pinv(gram[k]) if k == 2 else np.linalg.inv(gram[k])
        assert helpers.same_bits(cov[k], inverse * (cost[k] / 6))


@pytest.mark.parametrize("stack_points", [None, 5])
def test_stacked_line_fits_match_stacks_of_one(monkeypatch, stack_points):
    """One stacked pipeline call over random valid operating points gives
    each point the window fits of a fit_lorentzian call per window (a stack
    of one) and the ratio rs_ratio forms from them, bit for bit; so does a
    call split into stacks of five points.  Points without a thermal bath
    (kT = 0), with a falling spectral density (phonon_n < 0) and with both
    are among them."""
    if stack_points is not None:
        monkeypatch.setattr(stack, "POINTS", stack_points)
    rng = np.random.default_rng(2024)
    drawn = [helpers.random_valid_params(rng) for _ in range(24)]
    points = (
        drawn
        + [replace(p, kT=0.0) for p in drawn[:4]]
        + [replace(p, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[4:8]]
        + [replace(p, kT=0.0, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[8:12]]
    )
    fields = ("center", "fwhm", "amplitude", "area",
              "center_err", "fwhm_err", "amplitude_err", "area_err")
    compared = 0
    for params, outcome in zip(points, predict_rs(points)):
        try:
            table = fit_mod.spectrum_mod.line_table([params])
            plan, _, axes, values, starts = fit_mod._line_plans(table)
            windows = iter(zip(axes, values, starts))
            alone = []
            for error in plan[0]:
                if error is not None:
                    raise error
                axis, value, start = next(windows)
                alone.append(fit_lorentzian(axis, value, n_peaks=1, init=(tuple(start[:3]),)))
            point_alone = rs_ratio(
                (alone[0].peaks[0], alone[1].peaks[0]), delta=params.delta_laser
            )
        except CavityRamanError as exc:
            assert type(outcome) is type(exc) and str(outcome) == str(exc)
            continue
        point, fits = outcome
        assert np.array_equal(
            [point.ratio, point.ratio_err], [point_alone.ratio, point_alone.ratio_err]
        )
        for fit, fit_alone in zip(fits, alone):
            assert fit.iterations == fit_alone.iterations
            assert np.array_equal(
                [getattr(fit.peaks[0], name) for name in fields]
                + [fit.baseline, fit.baseline_err, fit.residual_rms],
                [getattr(fit_alone.peaks[0], name) for name in fields]
                + [fit_alone.baseline, fit_alone.baseline_err, fit_alone.residual_rms],
            )
        compared += 1
    assert compared >= 30


_NO_PHONONS = {"phonon_alpha1": 0.0, "phonon_alpha2": 0.0}
_CLOSED = {"kappa": 0.0, "gamma1": 0.0, "gamma2": 0.0, "gamma_flip": 0.0}


def _mixed_points(paper_params):
    """Three random points and eight that fail, in turn: at zero detuning
    (in dressed_states, and in classification elsewhere), in the phonon
    channels' dressed states, in classification, in the phonon channels'
    detuning check, in the steady state, in the phonon rates, in the ratio
    and in the fit."""
    rng = np.random.default_rng(83)
    return [helpers.random_valid_params(rng) for _ in range(3)] + [
        replace(paper_params, delta_laser=0.0, delta_cavity=0.0, **_NO_PHONONS),
        ModelParams(g=0.0, omega_drive=0.0),
        replace(paper_params, g=0.0, **_NO_PHONONS),
        replace(paper_params, delta_laser=-5.0),
        replace(paper_params, **_CLOSED, **_NO_PHONONS),
        replace(paper_params, phonon_n=300.0),
        replace(paper_params, phonon_alpha1=1e3, phonon_alpha2=1e3),
        replace(paper_params, delta_laser=3.0, delta_cavity=3.0),
    ]


def test_stacked_dressed_states_fail_as_each_point_alone(monkeypatch, paper_params):
    """On the mixed points, one stacked dressed_states call raises
    stack.Failed naming exactly the points that fail alone, each with the
    type and message of its error alone; the stack solved again without
    them gives every other point its vectors and frequencies alone, bit for
    bit; an empty sequence gives empty arrays.  A predict_rs of the mixed
    points diagonalizes dressed states in one stacked eigh per charge-block
    assembly that has phonon points, and re-solves nothing inside one."""
    points = _mixed_points(paper_params)
    alone = []
    for params in points:
        try:
            alone.append(dressed_states(params))
        except CavityRamanError as exc:
            alone.append(exc)
    failing = [k for k, outcome in enumerate(alone) if isinstance(outcome, Exception)]
    assert failing == [3, 4]
    with pytest.raises(stack.Failed) as failed:
        dressed_states(points)
    assert list(failed.value.errors) == failing
    for k, error in failed.value.errors.items():
        assert helpers.same_outcome(error, alone[k])
    live = [k for k in range(len(points)) if k not in failing]
    vectors, omegas = dressed_states([points[k] for k in live])
    for j, k in enumerate(live):
        assert helpers.same_outcome((vectors[j], omegas[j]), alone[k])
    vectors, omegas = dressed_states([])
    assert vectors.shape == (0, 3, 4) and omegas.shape == (0, 3)

    built, diagonalized = [], []
    build, eigh = lv.charge_blocks, np.linalg.eigh

    def counting_build(points):
        built.append(len(points))
        return build(points)

    def counting_eigh(matrices):
        diagonalized.append(len(matrices))
        return eigh(matrices)

    monkeypatch.setattr(lv, "charge_blocks", counting_build)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    predict_rs(points)
    assert built == [11, 10, 9, 8, 7, 5]
    assert diagonalized == [7, 6, 5, 5, 5]


@pytest.mark.parametrize(
    "solve",
    [fit_emission_lines, predict_rs],
    ids=["fit_emission_lines", "predict_rs"],
)
def test_point_taking_solves_keep_the_per_point_contract(monkeypatch, paper_params, solve):
    """Every function decorated by stack.per_point gives a point what a
    stack of one gives it: one point returns its result or raises its
    exception; a list, a tuple or a generator of points, and a sequence cut
    into stacks of two, return each point's result or exception in order;
    an empty sequence returns [].  Among the points, some fail in the
    build, the steady state, the classification, the fit and the ratio."""
    points = _mixed_points(paper_params)
    alone = [solve([params])[0] for params in points]
    failed = [isinstance(outcome, Exception) for outcome in alone]
    assert any(failed) and not all(failed)
    for params, expected in zip(points, alone):
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as raised:
                solve(params)
            assert helpers.same_outcome(raised.value, expected)
        else:
            assert helpers.same_outcome(solve(params), expected)
    for form in (list, tuple, iter):
        assert helpers.same_outcome(solve(form(points)), alone)
        assert solve(form([])) == []
    monkeypatch.setattr(stack, "POINTS", 2)
    assert helpers.same_outcome(solve(points), alone)


@pytest.mark.parametrize(
    "solve", [fit_emission_lines, predict_rs], ids=["fit_emission_lines", "predict_rs"],
)
def test_stacks_are_solved_again_only_where_points_fail(monkeypatch, paper_params, solve):
    """A stack whose points all solve has its charge blocks assembled once.
    A stack with failing points is assembled once more for each stage that
    some of its points fail in, each time without them: on the mixed
    points above, the phonon channels' detuning check, their dressed
    states, the phonon rates, the steady state and the classification.
    Failed fits and ratios are outcomes of the last stage, and solve
    nothing again."""
    built = []
    build = lv.charge_blocks

    def counting_build(points):
        built.append(len(points))
        return build(points)

    monkeypatch.setattr(lv, "charge_blocks", counting_build)
    rng = np.random.default_rng(61)
    healthy = [helpers.random_valid_params(rng) for _ in range(12)]
    assert not any(isinstance(outcome, Exception) for outcome in solve(healthy))
    assert built == [12]
    built.clear()
    solve(_mixed_points(paper_params))
    assert built == [11, 10, 9, 8, 7, 5]


def test_overflowing_normalization_fails_only_its_point(paper_params):
    """A point whose spectrum normalization (2 pi)^2 kappa overflows is the
    only point its stack.Failed names, with mixture_intensity's DomainError;
    the other point of its stack, planned again without it, keeps the
    windows it gets alone, bit for bit."""
    table = fit_mod.spectrum_mod.line_table([paper_params, paper_params])
    kappa = table.kappa.copy()
    kappa[1] = 1e307
    with pytest.raises(stack.Failed) as failed:
        fit_mod._line_plans(replace(table, kappa=kappa))
    assert list(failed.value.errors) == [1]
    error = failed.value.errors[1]
    assert isinstance(error, DomainError) and "normalization" in str(error)
    first = replace(table, **{name: rows[:1] for name, rows in vars(table).items()})
    plan, fitted, *windows = fit_mod._line_plans(first)
    assert fitted.tolist() == [[True, True]] and plan.tolist() == [[None, None]]
    _, _, *alone = fit_mod._line_plans(fit_mod.spectrum_mod.line_table([paper_params]))
    for got, expected in zip(windows, alone):
        assert helpers.same_bits(got, expected)


def test_overflowing_window_frequency_fails_only_its_point(paper_params):
    """A point whose line windows reach a finite frequency where 2 pi nu
    overflows is the only point its stack.Failed names, with
    mixture_intensity's DomainError naming that frequency."""
    table = fit_mod.spectrum_mod.line_table([paper_params, paper_params])
    roles = table.roles.copy()
    roles[1, :, 0] = 3e307
    with pytest.raises(stack.Failed) as failed:
        fit_mod._line_plans(replace(table, roles=roles))
    assert list(failed.value.errors) == [1]
    error = failed.value.errors[1]
    assert isinstance(error, DomainError)
    assert "rotating-frame frequency" in str(error) and "2 pi nu overflows" in str(error)


def _assert_window_refused(monkeypatch, params, column, value, message):
    """Setting the Raman line's ``column`` (0 center, 1 width) of ``params``
    to ``value`` makes DomainError(``message``) its outcome, stacked and
    alone, with no warning on the way (the suite makes one an error); the
    other point of the stack keeps bitwise the fits it gets alone."""
    other = replace(params, delta_laser=35.0, delta_cavity=35.0)
    expected = fit_emission_lines(other)
    line_table = fit_mod.spectrum_mod.line_table

    def patched_raman_line(points):
        table = line_table(points)
        roles = table.roles.copy()
        roles[table.delta_laser == params.delta_laser, 0, column] = value
        return replace(table, roles=roles)

    monkeypatch.setattr(fit_mod.spectrum_mod, "line_table", patched_raman_line)
    refused, kept = fit_emission_lines([params, other])
    assert type(refused) is DomainError and str(refused) == message
    with pytest.raises(DomainError, match=f"^{message}$"):
        fit_emission_lines(params)
    assert helpers.same_outcome(kept, expected)


def test_zero_width_window_is_refused_before_its_fit(monkeypatch, paper_params):
    _assert_window_refused(monkeypatch, paper_params, 1, 0.0, "initial fwhm must be nonzero")


@pytest.mark.parametrize(
    "column, value",
    [(0, math.nan), (1, math.nan), (0, math.inf), (1, math.inf)],
    ids=["nan_center", "nan_width", "inf_center", "inf_width"],
)
def test_non_finite_window_is_refused_before_its_fit(monkeypatch, paper_params, column, value):
    """The window of a NaN or infinite center or width is refused from its
    axis, before the spectrum is sampled on it."""
    _assert_window_refused(monkeypatch, paper_params, column, value, "data must be finite")


def test_line_windows_match_per_point_loop():
    """The stacked windows, samples and starts of fit_emission_lines equal
    the per-point loop they replaced (helpers.loop_windows) bit for bit,
    on random points and the ROADMAP edge cases kT = 0, phonon_n < 0 and
    both."""
    rng = np.random.default_rng(53)
    drawn = [helpers.random_valid_params(rng) for _ in range(30)]
    points = (
        drawn[:15]
        + [replace(p, kT=0.0) for p in drawn[15:20]]
        + [replace(p, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[20:25]]
        + [replace(p, kT=0.0, phonon_n=-rng.uniform(0.1, 2.0)) for p in drawn[25:]]
    )
    table = fit_mod.spectrum_mod.line_table(points)
    plan, fitted, axes, samples, starts = fit_mod._line_plans(table)
    assert fitted.all()
    expected = [
        window
        for k, params in enumerate(points)
        for window in helpers.loop_windows(params, table, k)
    ]
    for row, (axis, values, start) in enumerate(expected):
        assert helpers.same_bits(axes[row], axis)
        assert helpers.same_bits(samples[row], values)
        assert helpers.same_bits(starts[row], start)


@pytest.mark.parametrize("n_peaks", [1, 2, 3])
def test_peak_read_back_matches_per_peak_loop(monkeypatch, n_peaks):
    """Areas, area errors, center order and the coincidence test of a
    stacked read-back equal the per-peak loop they replaced
    (helpers.loop_peaks) bit for bit, for any number of peaks."""
    rng = np.random.default_rng(59 + n_peaks)
    freqs = np.linspace(-30.0, 30.0, 121)
    rows, starts = [], []
    for _ in range(12):
        centers = np.sort(rng.uniform(-25.0, 25.0, n_peaks))
        peaks = [(rng.uniform(0.5, 4.0), c, rng.uniform(0.5, 6.0)) for c in centers]
        values = sum(lorentzian_profile(freqs, *peak) for peak in peaks) + 0.2
        rows.append(values + rng.normal(0.0, 0.02, freqs.size))
        starts.append([v for peak in peaks for v in peak] + [0.2])
    # One line fitted by equal peaks: they stay equal, so they coincide.
    rows[0] = lorentzian_profile(freqs, *starts[0][:3]) + 0.2
    starts[0][:-1] = starts[0][:3] * n_peaks
    solutions, minimize = [], leastsq.minimize

    def recording(*args, **kwargs):
        solutions.append(minimize(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(leastsq, "minimize", recording)
    fits = fit_mod._fit_lorentzians(
        np.tile(freqs, (12, 1)), np.array(rows), None, np.array(starts)
    )
    (solution,) = solutions
    cov = leastsq.covariance(solution.gram, solution.cost, freqs.size, 3 * n_peaks + 1)
    sigmas = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0))
    compared = degenerate = 0
    for k, fit in enumerate(fits):
        if isinstance(fit, NoConvergence):
            continue
        expected = helpers.loop_peaks(solution.x[k], sigmas[k], cov[k], n_peaks)
        if isinstance(expected, Exception):
            assert type(fit) is type(expected) and str(fit) == str(expected)
            degenerate += 1
            continue
        got = [tuple(map(float.hex, astuple(peak))) for peak in fit.peaks]
        assert got == [tuple(map(float.hex, peak)) for peak in expected]
        compared += 1
    assert compared >= 8 and degenerate >= (n_peaks > 1)


def test_area_errors_square_as_the_per_peak_loop(monkeypatch):
    """The per-peak loop squared float64 scalars, which calls C pow; numpy
    squares an array by x * x, which with some C libraries differs from pow
    in the last bit for about one x in a thousand.  Over 20,000 read-backs
    of chosen solutions, every area error equals the loop's."""
    rng = np.random.default_rng(61)
    count = 20000
    x0 = np.column_stack([
        rng.uniform(0.1, 10.0, count), rng.uniform(-5.0, 5.0, count),
        rng.uniform(0.1, 10.0, count), np.zeros(count),
    ])
    gram = np.broadcast_to(np.diag(rng.uniform(0.5, 2.0, 4)), (count, 4, 4)).copy()
    cost = rng.uniform(0.5, 2.0, count)
    chosen = leastsq.Solution(
        x0, gram, cost, np.ones(count, dtype=int), (leastsq.STOP_GRADIENT,) * count
    )
    monkeypatch.setattr(leastsq, "minimize", lambda *args, **kwargs: chosen)
    freqs = np.tile(np.linspace(-1.0, 1.0, 5), (count, 1))
    fits = fit_mod._fit_lorentzians(freqs, np.zeros_like(freqs), None, x0)
    cov = leastsq.covariance(gram, cost, 5, 4)
    sigmas = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 0.0))
    area_errors = [fit.peaks[0].area_err for fit in fits]
    expected = [helpers.loop_peaks(x0[k], sigmas[k], cov[k], 1)[0][7] for k in range(count)]
    assert helpers.same_bits(np.array(area_errors), np.array(expected))


def test_window_axes_are_each_windows_linspace():
    """A stacked linspace takes its zero-step route in every row once one
    row has a zero step; the window axes keep each row its own call's bits."""
    lo = np.array([[-3.7, 12.25], [5.0, 1e-310]])
    hi = np.array([[4.1, 19.0], [5.0, 2e-310]])
    axes = fit_mod._window_axes(lo, hi)
    for index in np.ndindex(lo.shape):
        expected = np.linspace(lo[index], hi[index], fit_mod._LINE_POINTS)
        assert helpers.same_bits(axes[index], expected)


def test_single_lorentzian_exact_round_trip():
    freqs = np.linspace(-200.0, 200.0, 401)
    clean = lorentzian_profile(freqs, 2.3, 0.0, 53.7, baseline=0.1)
    fit = fit_lorentzian(freqs, clean, n_peaks=1)
    peak = fit.peaks[0]
    assert peak.amplitude == pytest.approx(2.3, rel=1e-8)
    assert peak.center == pytest.approx(0.0, abs=1e-6)
    assert peak.fwhm == pytest.approx(53.7, rel=1e-8)
    assert fit.baseline == pytest.approx(0.1, rel=1e-8)
    assert peak.area == pytest.approx(peak.amplitude * peak.fwhm * math.pi / 2.0)
    assert fit.residual_rms < 1e-8 * 2.3


def test_double_lorentzian_centers_under_noise():
    freqs = np.linspace(-120.0, 40.0, 1601)
    clean = (
        lorentzian_profile(freqs, 1.0, -55.0, 3.0)
        + lorentzian_profile(freqs, 0.4, 0.0, 3.0)
        + 0.05
    )
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        fit = fit_lorentzian(freqs, clean + rng.normal(0.0, 0.05, freqs.size), n_peaks=2)
        low, high = sorted(peak.center for peak in fit.peaks)
        assert abs(low + 55.0) < 1.0
        assert abs(high) < 1.0


def test_transmission_linewidth_recovery():
    freqs = np.linspace(-300.0, 300.0, 1201)
    clean = lorentzian_profile(freqs, 1.0, 0.0, 53.7)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        fit = fit_lorentzian(freqs, clean + rng.normal(0.0, 0.01, freqs.size), n_peaks=1)
        assert fit.peaks[0].fwhm == pytest.approx(53.7, abs=0.4)


def test_lorentzian_input_validation():
    freqs = np.linspace(-5.0, 5.0, 21)
    clean = lorentzian_profile(freqs, 1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        fit_lorentzian(freqs[:4], clean[:4], n_peaks=1)
    with pytest.raises(DomainError):
        fit_lorentzian(freqs, clean[:-1], n_peaks=1)
    with pytest.raises(DomainError):
        fit_lorentzian(freqs, np.where(freqs > 0, np.inf, clean), n_peaks=1)
    with pytest.raises(DomainError):
        fit_lorentzian(freqs, clean, n_peaks=2, init=((1.0, 0.0, 2.0),))
    with pytest.raises(DomainError):
        fit_lorentzian(freqs, clean, n_peaks=1, init=((1.0, 0.0, 0.0),))
    with pytest.raises(DomainError):
        fit_lorentzian(freqs, clean, n_peaks=1, errors=np.zeros(freqs.size))
    with pytest.raises(DomainError, match="their squares overflow"):
        fit_lorentzian(freqs, 1e300 * clean, n_peaks=1)


def test_degenerate_peaks_detected():
    freqs = np.linspace(-50.0, 50.0, 201)
    single = lorentzian_profile(freqs, 1.0, 0.0, 8.0)
    with pytest.raises(DegeneratePeaks):
        fit_lorentzian(
            freqs, single, n_peaks=2, init=((0.6, -1.0, 8.0), (0.6, 1.0, 8.0))
        )


def test_exponential_noiseless_round_trips():
    times = np.linspace(0.0, 8.0, 81)
    for tau in (1.74, 1.14):
        fit = fit_exponential(times, 3.0 * np.exp(-times / tau) + 0.2)
        assert fit.tau == pytest.approx(tau, abs=1e-10)
        assert fit.amplitude == pytest.approx(3.0, rel=1e-9)
        assert fit.baseline == pytest.approx(0.2, rel=1e-8)


def test_exponential_poisson_counting_noise():
    times = np.linspace(0.0, 10.0, 501)
    truth = 1e4 * np.exp(-times / 1.74) + 20.0
    hits = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        counts = rng.poisson(truth).astype(float)
        fit = fit_exponential(
            times, counts, errors=np.sqrt(np.maximum(counts, 1.0))
        )
        hits += abs(fit.tau - 1.74) <= 0.01
    assert hits >= 190


def test_exponential_rejects_growth():
    times = np.linspace(0.0, 5.0, 41)
    with pytest.raises(NoConvergence):
        fit_exponential(times, np.exp(times / 2.0))


def test_exponential_input_validation():
    times = np.linspace(0.0, 5.0, 21)
    decay = np.exp(-times / 2.0)
    with pytest.raises(DomainError):
        fit_exponential(times[:3], decay[:3])
    with pytest.raises(DomainError):
        fit_exponential(times[::-1], decay)
    with pytest.raises(DomainError):
        fit_exponential(times, decay, errors=np.full(times.size, -1.0))


def test_exponential_rejects_non_finite_data():
    times = np.linspace(0.0, 5.0, 21)
    decay = np.exp(-times / 2.0)
    with pytest.raises(DomainError, match="finite"):
        fit_exponential(times, np.where(times == 2.0, np.nan, decay))
    with pytest.raises(DomainError, match="finite"):
        fit_exponential(np.where(times == 5.0, np.inf, times), decay)
    with pytest.raises(DomainError, match="finite"):
        fit_exponential(times, decay, errors=np.where(times == 1.0, np.nan, 0.1))


def test_rs_ratio_twin_peaks():
    twin = _peak(-27.5, 0.8, err=0.01)
    point = rs_ratio((twin, twin), delta=55.0)
    assert point.ratio == 1.0
    assert point.ratio_err > 0.0


def test_rs_ratio_labels_by_position():
    raman = _peak(-55.2, 0.25, err=0.001)
    spont = _peak(0.3, 2.0, err=0.002)
    for pair in ((raman, spont), (spont, raman)):
        point = rs_ratio(pair, delta=55.0)
        assert point.ratio == pytest.approx(0.125, rel=1e-10)


def test_rs_ratio_ambiguous_assignment():
    with pytest.raises(AmbiguousAssignment):
        rs_ratio((_peak(-27.2, 1.0), _peak(-27.5, 1.0)), delta=55.0)


def test_rs_ratio_vanishing_spontaneous():
    raman = _peak(-55.0, 1.0, err=0.001)
    weak = _peak(0.0, 0.01, err=0.02)
    with pytest.raises(VanishingSpontaneous) as excinfo:
        rs_ratio((raman, weak), delta=55.0)
    attached = excinfo.value.point
    assert attached is not None
    assert attached.ratio == pytest.approx(100.0, rel=1e-9)
    # A nonpositive peak leaves nothing to attach.
    with pytest.raises(VanishingSpontaneous) as excinfo:
        rs_ratio((raman, _peak(0.0, -0.5, err=0.1)), delta=55.0)
    assert excinfo.value.point is None


def test_rs_ratio_refuses_a_nonpositive_raman_area_as_a_fit_failure():
    """A Raman line of no positive area is a failed fit (exit 4), as a
    non-positive spontaneous line is, not a domain error of the input: at
    delta_laser = 3, delta_cavity = 27 the pipeline fits one from a valid
    point."""
    spont = _peak(0.0, 2.0, err=0.001)
    for area in (-0.5, 0.0):
        message = f"Raman peak area {area:.3e} is not positive at delta 55.000"
        with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
            rs_ratio((_peak(-55.0, area), spont), delta=55.0)
    with pytest.raises(FitError, match="^Raman peak area -") as raised:
        predict_rs(replace(ModelParams(), delta_laser=3.0, delta_cavity=27.0))
    assert type(raised.value) is FitError


def test_rs_ratio_input_validation():
    peak = _peak(0.0, 1.0)
    with pytest.raises(DomainError):
        rs_ratio((peak,), delta=55.0)
    with pytest.raises(DomainError):
        RsPoint(delta=55.0, ratio=0.0, ratio_err=0.0)
    with pytest.raises(DomainError):
        RsPoint(delta=55.0, ratio=math.inf, ratio_err=0.0)


def test_predict_rs_regression(paper_params):
    area_point, (raman_fit, spont_fit) = predict_rs(paper_params)
    assert area_point.ratio == pytest.approx(PREDICT_RS_AREA_REF, rel=1e-7)
    # Window fits place the pair on the shifted axis: transfer line near
    # -delta, spontaneous near zero.
    assert raman_fit.peaks[0].center == pytest.approx(-55.0, abs=2.0)
    assert spont_fit.peaks[0].center == pytest.approx(0.0, abs=3.0)


def test_fit_invariant_under_intensity_rescaling():
    freqs = np.linspace(-120.0, 40.0, 801)
    rng = np.random.default_rng(7)
    data = (
        lorentzian_profile(freqs, 1.0, -55.0, 3.0)
        + lorentzian_profile(freqs, 0.4, 0.0, 3.0)
        + 0.05
        + rng.normal(0.0, 0.02, freqs.size)
    )
    base = fit_lorentzian(freqs, data, n_peaks=2)
    scaled = fit_lorentzian(freqs, 1000.0 * data, n_peaks=2)
    for a, b in zip(base.peaks, scaled.peaks):
        assert b.center == pytest.approx(a.center, abs=1e-8)
        assert b.fwhm == pytest.approx(a.fwhm, rel=1e-8)
        assert b.amplitude == pytest.approx(1000.0 * a.amplitude, rel=1e-8)
        assert b.area == pytest.approx(1000.0 * a.area, rel=1e-8)
    ratio_base = rs_ratio(base.peaks, delta=55.0)
    ratio_scaled = rs_ratio(scaled.peaks, delta=55.0)
    assert ratio_scaled.ratio == pytest.approx(ratio_base.ratio, rel=1e-9)


def test_rs_ratio_invariant_under_axis_translation():
    freqs = np.linspace(-120.0, 40.0, 801)
    data = (
        lorentzian_profile(freqs, 1.0, -55.0, 3.0)
        + lorentzian_profile(freqs, 0.4, 0.0, 3.0)
        + 0.05
    )
    base = rs_ratio(fit_lorentzian(freqs, data, n_peaks=2).peaks, delta=55.0)
    shift = 20.0
    moved = fit_lorentzian(freqs + shift, data, n_peaks=2)
    translated = rs_ratio(moved.peaks, delta=55.0 - shift)
    assert translated.ratio == pytest.approx(base.ratio, rel=1e-10)


def _pipeline_ratio(params, detuning, alpha):
    trial = replace(
        params,
        delta_laser=detuning,
        delta_cavity=detuning,
        phonon_alpha1=alpha,
        phonon_alpha2=alpha,
    )
    point, _ = predict_rs(trial)
    return point.ratio


def test_pipeline_ratio_of_ratios_alpha_independent(paper_params):
    def rr(alpha):
        return _pipeline_ratio(paper_params, 88.0, alpha) / _pipeline_ratio(
            paper_params, 15.0, alpha
        )

    base = rr(1e-12)
    assert base == pytest.approx(PIPELINE_RATIO_OF_RATIOS_REF, rel=1e-7)
    assert rr(2e-12) == pytest.approx(base, rel=1e-6)


def test_phonon_fit_input_validation(paper_params):
    points = [RsPoint(d, 1.0, 0.1) for d in (25.0, 55.0, 95.0)]
    with pytest.raises(DomainError):
        fit_phonon_exponent(points[:2], paper_params)
    with pytest.raises(DomainError):
        fit_phonon_exponent(
            [RsPoint(d, 1.0, 0.1) for d in (40.0, 50.0, 60.0)], paper_params
        )
    with pytest.raises(DomainError):
        fit_phonon_exponent(
            [RsPoint(40.0, 1.0, 0.1)] * 3 + [RsPoint(95.0, 1.0, 0.1)], paper_params
        )


def test_phonon_fit_refuses_error_bars_mixed_with_zeros(monkeypatch, paper_params):
    """Ratio errors that are zero at some detunings but not all cannot
    weight the refit: DomainError names the first zero's detuning before
    any solve.  All zero is the unweighted fit, which unit errors give bit
    for bit."""
    table = _five_detuning_table(paper_params)
    zeros = [replace(point, ratio_err=0.0) for point in table]
    ones = [replace(point, ratio_err=1.0) for point in table]
    assert helpers.same_outcome(
        fit_phonon_exponent(zeros, paper_params), fit_phonon_exponent(ones, paper_params)
    )
    mixed = [zeros[0], *table[1:3], zeros[3], table[4]]

    def no_solve(points):
        raise AssertionError("solved before the errors were checked")

    monkeypatch.setattr(fit_mod, "predict_rs", no_solve)
    with pytest.raises(DomainError) as refused:
        fit_phonon_exponent(mixed, paper_params)
    assert str(refused.value) == (
        "ratio error is zero at detuning 15.0 but not at every detuning: "
        "give every ratio a positive error, or none"
    )


def test_phonon_fit_degenerate_weights_ill_conditioned(paper_params):
    deltas = (25.0, 55.0, 95.0)
    ratios = [
        _pipeline_ratio(replace(paper_params, phonon_n=0.31), d, 1.0) for d in deltas
    ]
    # Two points with enormous error bars leave one informative row, which
    # cannot pin down two parameters.
    points = [
        RsPoint(deltas[0], ratios[0], 1e-4),
        RsPoint(deltas[1], ratios[1], 1e9),
        RsPoint(deltas[2], ratios[2], 1e9),
    ]
    with pytest.raises(IllConditioned):
        fit_phonon_exponent(points, paper_params)


def test_refit_repeats_no_jacobian(monkeypatch, paper_params):
    """Every operating point a refit solves twice is a trial step that
    lands on an earlier point, never a recomputed Jacobian.

    On this five-detuning table the refit once took 635 pipeline calls on
    370 distinct operating points: 265 repeats, from Jacobians recomputed
    at an unchanged x after rejected steps.  It now solves 59 distinct
    points in 12 calls and repeats none: a trial that lands on an earlier
    (detuning, density) reuses its solve.
    """
    deltas = (15.0, 35.0, 55.0, 75.0, 95.0)
    points = [
        predict_rs(
            replace(
                paper_params,
                delta_laser=d,
                delta_cavity=d,
                phonon_alpha1=0.8,
                phonon_alpha2=0.8,
                phonon_n=0.4,
            )
        )[0]
        for d in deltas
    ]
    solved, in_jacobian = [], [False]
    predict = fit_mod.predict_rs
    lm_minimize = leastsq.minimize

    def recording_predict(trials):
        solved.extend((params, in_jacobian[0]) for params in trials)
        return predict(trials)

    def marking_lm(residual, jacobian, x0, *args, **kwargs):
        def marked_jacobian(rows, x):
            in_jacobian[0] = True
            try:
                return jacobian(rows, x)
            finally:
                in_jacobian[0] = False

        # Only the outer refit has two parameters; the line fits have four.
        outer = np.shape(x0)[1] == 2
        return lm_minimize(
            residual, marked_jacobian if outer else jacobian, x0, *args, **kwargs
        )

    monkeypatch.setattr(fit_mod, "predict_rs", recording_predict)
    monkeypatch.setattr(leastsq, "minimize", marking_lm)
    result = fit_phonon_exponent(points, paper_params)
    assert result.exponent == pytest.approx(0.4, abs=1e-6)
    assert result.prefactor == pytest.approx(0.8, rel=1e-6)

    seen, repeats = set(), []
    for params, from_jacobian in solved:
        if params in seen:
            repeats.append(from_jacobian)
        seen.add(params)
    assert not any(repeats), "a Jacobian repeated earlier solves"
    assert len(repeats) <= len(deltas)


def test_predict_rs_sees_phonon_law_only_through_density():
    """At detuning d the pipeline sees (alpha, n) only through alpha * d**n.

    build_liouvillian evaluates the spectral density at the laser detuning,
    so (alpha, n) and (alpha * d**n, 0) build the same generator bit for
    bit; the phonon refit solves every trial in that one variable.
    """
    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(200):
        params = helpers.random_valid_params(rng)
        d = params.delta_laser
        params = replace(params, delta_cavity=d)
        density = replace(
            params,
            phonon_alpha1=params.phonon_alpha1 * d**params.phonon_n,
            phonon_alpha2=params.phonon_alpha2 * d**params.phonon_n,
            phonon_n=0.0,
        )
        try:
            expected = predict_rs(params)
        except CavityRamanError:
            continue
        assert predict_rs(density) == expected
        checked += 1
        if checked == 20:
            break
    assert checked == 20


def _five_detuning_table(params, alpha=0.8, exponent=0.4):
    """Exact ratio table of the power law (alpha, n) at five detunings."""
    return [
        predict_rs(
            replace(
                params,
                delta_laser=d,
                delta_cavity=d,
                phonon_alpha1=alpha,
                phonon_alpha2=alpha,
                phonon_n=exponent,
            )
        )[0]
        for d in (15.0, 35.0, 55.0, 75.0, 95.0)
    ]


@pytest.mark.parametrize("alpha, exponent", [(0.8, 0.4), (1.0, 0.0)])
def test_refit_solves_no_operating_point_twice(
    monkeypatch, paper_params, alpha, exponent
):
    """Trials that map to an earlier (detuning, density) reuse its solve.

    A trial whose log alpha is one ulp from an earlier one maps to the same
    density; at (1, 0) the start is exact, so the first residual of the
    refinement lands on the reference sweep at density 1.
    """
    points = _five_detuning_table(paper_params, alpha, exponent)
    solved = []
    predict = fit_mod.predict_rs

    def recording_predict(trials):
        solved.extend(trials)
        return predict(trials)

    monkeypatch.setattr(fit_mod, "predict_rs", recording_predict)
    fit_phonon_exponent(points, paper_params)
    assert solved
    assert len(set(solved)) == len(solved)


def test_refit_secant_start_and_one_column_jacobian(monkeypatch, paper_params):
    """The secant start lands on the exact table's (ln alpha, n), the LM's
    first residual and Jacobian are solved as one pipeline call of three
    points per detuning before it starts, each later Jacobian solves two
    points per detuning in one call, each residual at most one call, and
    the exponent column is the density column times ln d.

    On this five-detuning table the refit took 375 pipeline solves with the
    log-log start and a two-column Jacobian; it now takes 59.
    """
    points = _five_detuning_table(paper_params)
    log_deltas = np.log([point.delta for point in points])
    batches, starts, jacobians, residuals, opening = [], [], [], [], []
    predict = fit_mod.predict_rs
    lm_minimize = leastsq.minimize

    def counting_predict(trials):
        batches.append(len(trials))
        return predict(trials)

    def recording_lm(residual, jacobian, x0, *args, **kwargs):
        if np.shape(x0)[1] != 2:
            return lm_minimize(residual, jacobian, x0, *args, **kwargs)

        def recorded_residual(rows, x):
            before = len(batches)
            r = residual(rows, x)
            residuals.append(batches[before:])
            return r

        def recorded_jacobian(rows, x):
            before = len(batches)
            jac = jacobian(rows, x)
            jacobians.append((batches[before:], jac[0]))
            return jac

        starts.append(np.array(x0[0]))
        opening.append(batches[-1])
        return lm_minimize(recorded_residual, recorded_jacobian, x0, *args, **kwargs)

    monkeypatch.setattr(fit_mod, "predict_rs", counting_predict)
    monkeypatch.setattr(leastsq, "minimize", recording_lm)
    result = fit_phonon_exponent(points, paper_params)
    assert result.exponent == pytest.approx(0.4, abs=1e-6)
    assert result.prefactor == pytest.approx(0.8, rel=1e-6)

    (start,) = starts
    assert abs(start[0] - math.log(0.8)) <= 1e-8
    assert abs(start[1] - 0.4) <= 1e-8
    assert opening == [3 * len(points)]
    assert jacobians and jacobians[0][0] == []
    for k, (sizes, jac) in enumerate(jacobians):
        assert sizes == ([2 * len(points)] if k else [])
        assert np.array_equal(jac[:, 1], jac[:, 0] * log_deltas)
    assert residuals
    assert all(len(sizes) <= 1 and sum(sizes) <= len(points) for sizes in residuals)
    assert sum(batches) < 250


def test_refit_falls_back_when_a_secant_trial_vanishes(monkeypatch, paper_params):
    """A secant trial that extinguishes the spontaneous line hands the start
    to the log-log regression of the reference sweep, and the refit still
    recovers the table's power law."""
    points = _five_detuning_table(paper_params)
    ratios = np.array([point.ratio for point in points])
    log_deltas = np.log([point.delta for point in points])
    reference, starts, raised = [], [], []
    predict = fit_mod.predict_rs
    lm_minimize = leastsq.minimize

    def failing_predict(trials):
        outcomes = predict(trials)
        for k, params in enumerate(trials):
            if params.phonon_alpha1 == 1.0:
                reference.append(outcomes[k][0].ratio)
            elif not starts and not raised:
                raised.append(params)
                outcomes[k] = VanishingSpontaneous("spontaneous line extinguished")
        return outcomes

    def recording_lm(residual, jacobian, x0, *args, **kwargs):
        if np.shape(x0)[1] == 2:
            starts.append(np.array(x0[0]))
        return lm_minimize(residual, jacobian, x0, *args, **kwargs)

    monkeypatch.setattr(fit_mod, "predict_rs", failing_predict)
    monkeypatch.setattr(leastsq, "minimize", recording_lm)
    result = fit_phonon_exponent(points, paper_params)
    assert len(raised) == 1 and len(reference) == len(points)
    design = np.column_stack([np.ones_like(log_deltas), log_deltas])
    leading, *_ = np.linalg.lstsq(design, np.log(np.array(reference) / ratios), rcond=None)
    np.testing.assert_allclose(starts[0], leading, rtol=1e-12)
    assert result.exponent == pytest.approx(0.4, abs=1e-6)
    assert result.prefactor == pytest.approx(0.8, rel=1e-6)


def test_refit_penalizes_lm_trials_that_vanish(monkeypatch, paper_params):
    """A detuning whose spontaneous line vanishes at every density but the
    reference s = 1 sends the refit to its log-log fallback start, and its
    LM rows become the 1e6 (1 + |ratio|) penalty instead of raising, and
    the LM solved that detuning again.  A penalty row has no slope, so the
    LM stops where the other rows allow: the refit raises that detuning's
    VanishingSpontaneous at the LM's solution instead of returning a fit
    whose numbers mean nothing."""
    points = _nine_detuning_table(paper_params)
    ratios = np.array([point.ratio for point in points])
    log_deltas = np.log([point.delta for point in points])
    vanishing = points[4].delta
    reference, starts, solves, batches, opening = [], [], [], [], []
    predict = fit_mod.predict_rs
    lm_minimize = leastsq.minimize

    def vanishing_predict(trials):
        batches.append(len(trials))
        outcomes = predict(trials)
        for k, params in enumerate(trials):
            if params.phonon_alpha1 == 1.0:
                reference.append(outcomes[k][0].ratio)
            elif params.delta_laser == vanishing:
                solves.append(len(batches))
                outcomes[k] = VanishingSpontaneous("spontaneous line extinguished")
        return outcomes

    def recording_lm(residual, jacobian, x0, *args, **kwargs):
        if np.shape(x0)[1] == 2:
            starts.append(np.array(x0[0]))
            opening.append(len(batches))
        return lm_minimize(residual, jacobian, x0, *args, **kwargs)

    monkeypatch.setattr(fit_mod, "predict_rs", vanishing_predict)
    monkeypatch.setattr(leastsq, "minimize", recording_lm)
    with pytest.raises(VanishingSpontaneous, match="^spontaneous line extinguished$"):
        fit_phonon_exponent(points, paper_params)
    assert len(reference) == len(points)
    design = np.column_stack([np.ones_like(log_deltas), log_deltas])
    leading, *_ = np.linalg.lstsq(design, np.log(np.array(reference) / ratios), rcond=None)
    np.testing.assert_allclose(starts[0], leading, rtol=1e-12)
    # Solved in the secant, then in the batch of the LM's start, the last
    # before the LM began.
    assert solves[0] < opening[0]
    assert opening[0] in solves


def _sequential_start(points, params):
    """The refit's LM start with one secant at a time and one pipeline call
    per trial: the loop the lockstep secants must match bit for bit."""
    deltas = np.array([point.delta for point in points])
    ratios = np.array([point.ratio for point in points])
    errs = np.array([point.ratio_err for point in points])
    sqrt_w = 1.0 / errs if np.all(errs > 0.0) else np.ones_like(ratios)

    def ratio_at(d, s):
        trial = replace(params, delta_laser=d, delta_cavity=d,
                        phonon_alpha1=s, phonon_alpha2=s, phonon_n=0.0)
        return predict_rs(trial)[0].ratio

    roots = []
    for d, data in zip(deltas.tolist(), ratios):
        target = math.log(data)
        u_prev, g_prev = 0.0, math.log(ratio_at(d, 1.0)) - target
        u, slope = g_prev, -1.0
        for _ in range(20):
            if abs(u - u_prev) <= 1e-8:
                break
            g = math.log(ratio_at(d, math.exp(u))) - target
            if g == g_prev:
                break
            slope = (g - g_prev) / (u - u_prev)
            u_prev, g_prev, u = u, g, u - g / slope
        roots.append((u, slope))
    logs, slopes = np.array(roots).T
    weights = np.abs(slopes * ratios) * sqrt_w
    design = np.column_stack([np.ones_like(deltas), np.log(deltas)]) * weights[:, None]
    start, *_ = np.linalg.lstsq(design, logs * weights, rcond=None)
    return start


def _record_secant_rounds(monkeypatch, fail_at=None):
    """Record the detunings of each secant round (every predict_rs call after
    the reference sweep and before the LM, but the last, which solves the
    LM's first residual and Jacobian) and the LM start.  ``fail_at`` maps a
    round number (1 for the first) to the detuning whose trial fails in
    that round and the exception it fails with."""
    rounds, reference, starts = [], [], []
    predict = fit_mod.predict_rs
    lm_minimize = leastsq.minimize

    def recording_predict(trials):
        outcomes = predict(trials)
        if not reference:
            reference.extend(outcome[0].ratio for outcome in outcomes)
        elif not starts:
            rounds.append([params.delta_laser for params in trials])
            failing, error = (fail_at or {}).get(len(rounds), (None, None))
            for k, params in enumerate(trials):
                if params.delta_laser == failing:
                    outcomes[k] = error
        return outcomes

    def recording_lm(residual, jacobian, x0, *args, **kwargs):
        if np.shape(x0)[1] == 2:
            starts.append(np.array(x0[0]))
            rounds.pop()
        return lm_minimize(residual, jacobian, x0, *args, **kwargs)

    monkeypatch.setattr(fit_mod, "predict_rs", recording_predict)
    monkeypatch.setattr(leastsq, "minimize", recording_lm)
    return rounds, reference, starts


def test_refit_secants_step_in_lockstep(monkeypatch, paper_params):
    """Each secant round is one pipeline call of at most one trial per
    detuning, secants only ever leave the batch, and the LM start is bit for
    bit the one of secants run one at a time."""
    points = _five_detuning_table(paper_params)
    expected = _sequential_start(points, paper_params)
    rounds, _, starts = _record_secant_rounds(monkeypatch)
    result = fit_phonon_exponent(points, paper_params)

    assert 1 < len(rounds) <= 20
    assert len(rounds[0]) == len(points)
    for before, after in zip(rounds, rounds[1:]):
        assert len(set(before)) == len(before)
        assert set(after) <= set(before)
    np.testing.assert_array_equal(starts[0], expected)
    assert result.exponent == pytest.approx(0.4, abs=1e-6)
    assert result.prefactor == pytest.approx(0.8, rel=1e-6)


@pytest.mark.parametrize("later_error", [VanishingSpontaneous, DegenerateSpectrum])
def test_refit_secant_failures_count_in_detuning_order(
    monkeypatch, paper_params, later_error
):
    """A trial that fails in a later detuning's first round and one that
    vanishes in an earlier detuning's second round each end only their own
    secant.  The earlier detuning's failure counts first, as if the secants
    ran one at a time, so the start is the log-log regression of the
    reference sweep, whatever the later detuning raised."""
    points = _five_detuning_table(paper_params)
    deltas = [point.delta for point in points]
    ratios = np.array([point.ratio for point in points])
    rounds, reference, starts = _record_secant_rounds(
        monkeypatch,
        fail_at={
            1: (deltas[3], later_error("injected in the first round")),
            2: (deltas[1], VanishingSpontaneous("spontaneous line extinguished")),
        },
    )
    result = fit_phonon_exponent(points, paper_params)

    assert deltas[3] in rounds[0] and deltas[1] in rounds[1]
    assert all(deltas[3] not in batch for batch in rounds[1:])
    assert all(deltas[1] not in batch for batch in rounds[2:])
    assert len(rounds) > 2
    design = np.column_stack([np.ones_like(ratios), np.log(deltas)])
    leading, *_ = np.linalg.lstsq(design, np.log(np.array(reference) / ratios), rcond=None)
    np.testing.assert_allclose(starts[0], leading, rtol=1e-12)
    assert result.exponent == pytest.approx(0.4, abs=1e-6)
    assert result.prefactor == pytest.approx(0.8, rel=1e-6)


def _nine_detuning_table(params):
    """Exact ratio table of the power law (0.8, 0.4) at nine detunings from
    15 to 95 GHz, the table of the benchmark's first refit."""
    return [
        predict_rs(
            replace(params, delta_laser=d, delta_cavity=d,
                    phonon_alpha1=0.8, phonon_alpha2=0.8, phonon_n=0.4)
        )[0]
        for d in np.linspace(15.0, 95.0, 9).tolist()
    ]


def test_refit_solves_the_lm_start_as_one_batch(monkeypatch, paper_params):
    """The nine-detuning table's refit sends the LM's first residual and
    Jacobian, 27 keys, to predict_rs as one batch before the LM starts: 11
    batches in all, one fewer than when the LM solved them apart.  The
    count depends on rounding, through the secant rounds and LM steps."""
    points = _nine_detuning_table(paper_params)
    batches = []
    predict = fit_mod.predict_rs

    def counting_predict(trials):
        batches.append(len(trials))
        return predict(trials)

    monkeypatch.setattr(fit_mod, "predict_rs", counting_predict)
    fit_phonon_exponent(points, paper_params)
    assert batches[0] == len(points) and batches.count(3 * len(points)) == 1
    assert len(batches) == 11


def test_refit_recovers_benchmark_table(paper_params):
    """The nine-detuning (0.8, 0.4) table of 15..95 GHz refits to the pinned
    (alpha, n) within 1e-8 relative: the refinement's noise floor moves the
    result by about 2e-13 there, far inside the pin."""
    points = _nine_detuning_table(paper_params)
    result = fit_phonon_exponent(points, paper_params)
    assert result.prefactor == pytest.approx(0.7999999999936683, rel=1e-8)
    assert result.exponent == pytest.approx(0.4000000000017811, rel=1e-8)
