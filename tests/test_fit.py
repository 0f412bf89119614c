"""Least-squares fitters: round trips, Monte-Carlo recovery, ratio labeling."""
import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
from cavity_raman import (
    AmbiguousAssignment,
    CavityRamanError,
    DegeneratePeaks,
    DomainError,
    IllConditioned,
    NoConvergence,
    PeakFit,
    RsPoint,
    VanishingSpontaneous,
    fit_exponential,
    fit_lorentzian,
    fit_phonon_exponent,
    lorentzian_profile,
    predict_rs,
    rs_ratio,
)
from cavity_raman import fit as fit_mod

# Frozen pipeline outputs at the default operating point.
PREDICT_RS_AREA_REF = 0.11419118598996021
PREDICT_RS_AMPLITUDE_REF = 0.12954580690585688
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
    "start, solution, iterations",
    [
        ((-1.2, 1.0), ("0x1.af313b867f213p-1", "0x1.6ad180e022acep-1"), 54),
        ((-3.0, -4.0), ("0x1.af313b894bd46p-1", "0x1.6ad180e4d9a89p-1"), 21),
    ],
    ids=["stalls_at_step_floor", "gradient_converges"],
)
def test_lm_takes_one_jacobian_per_accepted_point(start, solution, iterations):
    """A rejected step leaves x unchanged, so its Jacobian is reused.

    The solutions and iteration counts were recorded while the Jacobian was
    still recomputed after every rejected step (54 and 21 Jacobians at 25
    and 16 distinct points); keeping it must not move the path by a bit.
    """
    costs, jacobian_points = [], []

    def residual(x):
        r = _curved_valley(x)
        costs.append(float(r @ r))
        return r

    def jacobian(x):
        jacobian_points.append(tuple(x))
        return _curved_valley_jacobian(x)

    x, _, _, taken = fit_mod._lm_minimize(residual, jacobian, np.array(start))
    # A trial step is accepted exactly when it lowers the lowest cost so far.
    accepted = sum(1 for i in range(1, len(costs)) if costs[i] < min(costs[:i]))
    assert accepted < len(costs) - 1, "the path must contain rejected steps"
    assert len(set(jacobian_points)) == len(jacobian_points) == 1 + accepted
    assert (float(x[0]).hex(), float(x[1]).hex()) == solution
    assert taken == iterations


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
    amp_point = rs_ratio((raman, spont), delta=55.0, mode="amplitude")
    assert amp_point.ratio == pytest.approx(0.125, rel=1e-10)


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


def test_rs_ratio_input_validation():
    peak = _peak(0.0, 1.0)
    with pytest.raises(DomainError):
        rs_ratio((peak,), delta=55.0)
    with pytest.raises(DomainError):
        rs_ratio((peak, _peak(-55.0, 1.0)), delta=55.0, mode="energy")
    with pytest.raises(DomainError):
        RsPoint(delta=55.0, ratio=0.0, ratio_err=0.0)
    with pytest.raises(DomainError):
        RsPoint(delta=55.0, ratio=math.inf, ratio_err=0.0)


def test_predict_rs_regression(paper_params):
    area_point, (raman_fit, spont_fit) = predict_rs(paper_params, mode="area")
    assert area_point.ratio == pytest.approx(PREDICT_RS_AREA_REF, rel=1e-7)
    amp_point, _ = predict_rs(paper_params, mode="amplitude")
    assert amp_point.ratio == pytest.approx(PREDICT_RS_AMPLITUDE_REF, rel=1e-7)
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
    at an unchanged x after rejected steps.  It now takes 375 calls; the 5
    repeats are one trial whose log alpha is one ulp from an earlier
    trial's, which exp() maps to the same alpha.
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
    lm_minimize = fit_mod._lm_minimize

    def recording_predict(params, mode="area"):
        solved.append((params, in_jacobian[0]))
        return predict(params, mode)

    def marking_lm(residual, jacobian, x0, *args):
        def marked_jacobian(x):
            in_jacobian[0] = True
            try:
                return jacobian(x)
            finally:
                in_jacobian[0] = False

        # Only the outer refit has two parameters; the line fits have more.
        outer = np.size(x0) == 2
        return lm_minimize(residual, marked_jacobian if outer else jacobian, x0, *args)

    monkeypatch.setattr(fit_mod, "predict_rs", recording_predict)
    monkeypatch.setattr(fit_mod, "_lm_minimize", marking_lm)
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

    def recording_predict(params, mode="area"):
        solved.append(params)
        return predict(params, mode)

    monkeypatch.setattr(fit_mod, "predict_rs", recording_predict)
    fit_phonon_exponent(points, paper_params)
    assert solved
    assert len(set(solved)) == len(solved)


def test_refit_secant_start_and_one_column_jacobian(monkeypatch, paper_params):
    """The secant start lands on the exact table's (ln alpha, n), each
    Jacobian costs two solves per detuning, and its exponent column is the
    density column times ln d.

    On this five-detuning table the refit took 375 pipeline calls with the
    log-log start and a two-column Jacobian; it now takes 99.
    """
    points = _five_detuning_table(paper_params)
    log_deltas = np.log([point.delta for point in points])
    calls, starts, jacobians = [0], [], []
    predict = fit_mod.predict_rs
    lm_minimize = fit_mod._lm_minimize

    def counting_predict(params, mode="area"):
        calls[0] += 1
        return predict(params, mode)

    def recording_lm(residual, jacobian, x0, *args):
        if np.size(x0) != 2:
            return lm_minimize(residual, jacobian, x0, *args)

        def recorded_jacobian(x):
            before = calls[0]
            jac = jacobian(x)
            jacobians.append((calls[0] - before, jac))
            return jac

        starts.append(np.array(x0))
        return lm_minimize(residual, recorded_jacobian, x0, *args)

    monkeypatch.setattr(fit_mod, "predict_rs", counting_predict)
    monkeypatch.setattr(fit_mod, "_lm_minimize", recording_lm)
    result = fit_phonon_exponent(points, paper_params)
    assert result.exponent == pytest.approx(0.4, abs=1e-6)
    assert result.prefactor == pytest.approx(0.8, rel=1e-6)

    (start,) = starts
    assert abs(start[0] - math.log(0.8)) <= 1e-8
    assert abs(start[1] - 0.4) <= 1e-8
    assert jacobians
    for cost, jac in jacobians:
        assert cost == 2 * len(points)
        assert np.array_equal(jac[:, 1], jac[:, 0] * log_deltas)
    assert calls[0] < 250


def test_refit_falls_back_when_a_secant_trial_vanishes(monkeypatch, paper_params):
    """A secant trial that extinguishes the spontaneous line hands the start
    to the log-log regression of the reference sweep, and the refit still
    recovers the table's power law."""
    points = _five_detuning_table(paper_params)
    ratios = np.array([point.ratio for point in points])
    log_deltas = np.log([point.delta for point in points])
    reference, starts, raised = [], [], []
    predict = fit_mod.predict_rs
    lm_minimize = fit_mod._lm_minimize

    def failing_predict(params, mode="area"):
        if params.phonon_alpha1 == 1.0:
            point, fits = predict(params, mode)
            reference.append(point.ratio)
            return point, fits
        if not starts and not raised:
            raised.append(params)
            raise VanishingSpontaneous("spontaneous line extinguished")
        return predict(params, mode)

    def recording_lm(residual, jacobian, x0, *args):
        if np.size(x0) == 2:
            starts.append(np.array(x0))
        return lm_minimize(residual, jacobian, x0, *args)

    monkeypatch.setattr(fit_mod, "predict_rs", failing_predict)
    monkeypatch.setattr(fit_mod, "_lm_minimize", recording_lm)
    result = fit_phonon_exponent(points, paper_params)
    assert len(raised) == 1 and len(reference) == len(points)
    design = np.column_stack([np.ones_like(log_deltas), log_deltas])
    leading, *_ = np.linalg.lstsq(design, np.log(np.array(reference) / ratios), rcond=None)
    np.testing.assert_allclose(starts[0], leading, rtol=1e-12)
    assert result.exponent == pytest.approx(0.4, abs=1e-6)
    assert result.prefactor == pytest.approx(0.8, rel=1e-6)
