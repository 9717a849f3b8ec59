"""Penalized spline smoother."""

import dataclasses

import numpy as np
import pytest

from wordbits.gam import DEGREE, GamFit, _knot_vector, design_matrix, fit_gam, gcv_score


def _sine_data(n=400, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0 * np.pi, n)
    y = np.sin(x) + rng.normal(0.0, noise, n)
    return x, y


def test_recovers_sine_shape():
    x, y = _sine_data()
    fit = fit_gam(x, y)
    assert fit.pseudo_r2 > 0.8
    grid = np.linspace(0.3, 2.0 * np.pi - 0.3, 40)
    assert np.max(np.abs(fit.predict(grid) - np.sin(grid))) < 0.25


def test_linear_data_matches_ols():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 4.0, 300)
    y = 2.0 * x + 1.0 + rng.normal(0.0, 0.05, 300)
    fit = fit_gam(x, y)
    slope, intercept = np.polyfit(x, y, 1)
    grid = np.linspace(x.min(), x.max(), 50)
    assert fit.predict(grid) == pytest.approx(slope * grid + intercept, abs=0.05)


def test_infinite_penalty_collapses_to_least_squares_line():
    # the penalty null space is straight lines, so a huge lambda must
    # reproduce np.polyfit
    x, y = _sine_data(seed=7)
    fit = fit_gam(x, y, lambda_grid=[1e9])
    slope, intercept = np.polyfit(x, y, 1)
    grid = np.linspace(x.min(), x.max(), 25)
    assert np.max(np.abs(fit.predict(grid) - (slope * grid + intercept))) < 1e-3
    assert fit.edf == pytest.approx(2.0, abs=0.05)


def test_sample_size_and_range_guards():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 49)
    with pytest.raises(ValueError, match="at least 50"):
        fit_gam(x, x)
    # nan pairs do not count toward the minimum
    x60 = np.concatenate([rng.uniform(0, 1, 45), [np.nan] * 15])
    with pytest.raises(ValueError, match="at least 50"):
        fit_gam(x60, np.ones(60))
    with pytest.raises(ValueError, match="degenerate"):
        fit_gam(np.full(80, 2.5), rng.normal(size=80))


def test_curve_returns_banded_grid():
    x, y = _sine_data(seed=5)
    fit = fit_gam(x, y)
    xs, yhat, lo, hi = fit.curve()
    assert len(xs) == len(yhat) == len(lo) == len(hi) == 100
    assert xs[0] == pytest.approx(x.min()) and xs[-1] == pytest.approx(x.max())
    assert np.all(lo <= yhat) and np.all(yhat <= hi)
    assert np.any(hi - lo > 0.0)
    xs37, *_ = fit.curve(n=37)
    assert len(xs37) == 37


def test_predict_clips_outside_training_range():
    x, y = _sine_data(seed=9)
    fit = fit_gam(x, y)
    lo, hi = fit.x_range
    assert fit.predict([hi + 5.0])[0] == pytest.approx(fit.predict([hi])[0])
    assert fit.predict([lo - 5.0])[0] == pytest.approx(fit.predict([lo])[0])


def test_lambda_selected_from_grid_by_gcv():
    x, y = _sine_data(seed=2)
    grid = [0.01, 1.0, 100.0]
    fit = fit_gam(x, y, lambda_grid=grid)
    assert fit.lam in grid
    BSpline = pytest.importorskip("scipy.interpolate").BSpline
    from wordbits.gam import _greville, _second_diff_penalty
    B = BSpline.design_matrix(np.clip(x, *fit.x_range), fit.knots, DEGREE).toarray()
    P = _second_diff_penalty(_greville(fit.knots, len(fit.coef)))
    scores = [gcv_score(B, y, P, lam)[0] for lam in grid]
    assert fit.gcv == pytest.approx(min(scores))


def test_random_noisy_fits_stay_sane():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 10, 120)
        y = 0.5 * x + rng.normal(0, 1.0, 120)
        fit = fit_gam(x, y)
        assert 0.0 <= fit.pseudo_r2 <= 1.0
        assert np.all(np.isfinite(fit.predict(np.linspace(0, 10, 30))))
        assert fit.sigma2 > 0.0


def test_fit_gam_equals_a_loop_of_gcv_score():
    # B'B and B'y are formed once per fit; every value must stay the one a
    # gcv_score per lambda gives, bit for bit
    BSpline = pytest.importorskip("scipy.interpolate").BSpline
    from wordbits.gam import _greville, _second_diff_penalty
    x, y = _sine_data(n=600, seed=4, noise=0.25)
    fit = fit_gam(x, y)
    B = BSpline.design_matrix(x, fit.knots, DEGREE).toarray()
    P = _second_diff_penalty(_greville(fit.knots, len(fit.coef)))
    grid = [float(lam) for lam in np.logspace(-3.0, 3.0, 11)]
    scores = [gcv_score(B, y, P, lam) for lam in grid]
    best = min(range(len(grid)), key=lambda i: scores[i][0])  # the first minimum
    gcv, coef, rss, edf = scores[best]
    assert fit.lam == grid[best]
    assert (fit.gcv, fit.edf) == (gcv, edf)
    assert np.array_equal(fit.coef, coef)
    sigma2 = rss / (len(y) - edf)
    assert fit.sigma2 == sigma2
    assert fit.pseudo_r2 == 1.0 - rss / float(((y - y.mean()) ** 2).sum())
    Ainv = np.linalg.inv(B.T @ B + fit.lam * P)
    assert np.array_equal(fit.cov, sigma2 * (Ainv @ (B.T @ B) @ Ainv))


@pytest.mark.parametrize("grid, match", [
    ([], "empty lambda_grid"),
    ([np.nan], r"finite and >= 0, got \[nan\]"),
    ([1.0, np.inf], r"got \[inf\]"),
    ([0.5, -1.0], r"got \[-1.0\]"),
])
def test_bad_lambda_grid_rejected(grid, match):
    x, y = _sine_data()
    with pytest.raises(ValueError, match=match):
        fit_gam(x, y, lambda_grid=grid)


def test_zero_lambda_is_unpenalized_least_squares():
    x, y = _sine_data(seed=8)
    fit = fit_gam(x, y, lambda_grid=[0.0])
    B = fit.design(x)
    want = np.linalg.lstsq(B, y, rcond=None)[0]
    np.testing.assert_allclose(fit.coef, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("n_splines", range(4, 13))
def test_design_matrix_equals_scipy_bspline(n_splines):
    BSpline = pytest.importorskip("scipy.interpolate").BSpline
    rng = np.random.default_rng(n_splines)
    lo, hi = sorted(rng.uniform(-5.0, 5.0, 2))
    t = _knot_vector(lo, hi, n_splines)
    x = np.concatenate([rng.uniform(lo, hi, 500), t, [lo, hi]])  # every knot, both ends
    B = design_matrix(x, t)
    assert B.shape == (len(x), n_splines)
    assert np.array_equal(B, BSpline.design_matrix(x, t, DEGREE).toarray())
    np.testing.assert_allclose(B.sum(axis=1), 1.0, rtol=0, atol=4 * np.spacing(1.0))


@pytest.mark.parametrize("t", [
    [0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1, 1],  # an empty last interval
    [0, 0, 0, 0, 0.3, 0.3, 0.3, 0.7, 1, 1, 1, 1],
    [-1, -1, -1, -1, 0.5, 0.5, 0.5, 0.5, 2, 2, 2, 2],
])
def test_design_matrix_equals_scipy_bspline_on_repeated_knots(t):
    BSpline = pytest.importorskip("scipy.interpolate").BSpline
    t = np.array(t, dtype=float)
    x = np.concatenate([np.linspace(t[DEGREE], t[-DEGREE - 1], 41), t])
    x = x[(x >= t[DEGREE]) & (x <= t[-DEGREE - 1])]
    assert np.array_equal(design_matrix(x, t),
                          BSpline.design_matrix(x, t, DEGREE).toarray())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9, 1.0 + 1e-9])
def test_design_matrix_rejects_nonfinite_and_out_of_range_x(bad):
    t = _knot_vector(0.0, 1.0, 6)
    with pytest.raises(ValueError, match="infs or nans|outside the knot range"):
        design_matrix([0.5, bad], t)


def test_predict_rejects_nan_and_x_beyond_the_knots():
    x, y = _sine_data(seed=11)
    fit = fit_gam(x, y)
    with pytest.raises(ValueError, match="infs or nans"):
        fit.predict([0.5, np.nan])
    lo, hi = fit.x_range
    wide = dataclasses.replace(fit, x_range=(lo - 1.0, hi))  # clips short of lo - 1
    with pytest.raises(ValueError, match="outside the knot range"):
        wide.predict([lo - 0.5])


@pytest.mark.parametrize("n_splines", [-1, 0, 3])
def test_too_few_splines_rejected(n_splines):
    x, y = _sine_data()
    with pytest.raises(ValueError, match=f"n_splines={n_splines}"):
        fit_gam(x, y, n_splines=n_splines)


@pytest.mark.parametrize("n", [-3, 0, 1])
def test_curve_needs_two_grid_points(n):
    x, y = _sine_data()
    fit = fit_gam(x, y)
    with pytest.raises(ValueError, match=f"n={n}"):
        fit.curve(n)
    assert len(fit.curve(2)[0]) == 2
