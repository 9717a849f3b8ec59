"""Penalized cubic B-spline regression (one smooth term) with GCV-selected
smoothing, for the LM-vs-MT surprisal curve.

The penalty is the sum of squared second divided differences of the spline
coefficients taken over the Greville abscissae, so its null space is exactly
the coefficient patterns that make the spline a straight line in x.  As
lambda grows the fit therefore collapses to the ordinary least-squares line.
The basis is evaluated by de Boor's recurrence (design_matrix) with numpy
alone.
"""

from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass, field

N_SPLINES = 5
DEGREE = 3


@dataclass
class GamFit:
    knots: np.ndarray
    coef: np.ndarray
    lam: float
    pseudo_r2: float
    gcv: float
    edf: float
    sigma2: float
    cov: np.ndarray = field(repr=False, default=None)
    x_range: tuple = (0.0, 1.0)

    def design(self, x) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=float), *self.x_range)
        return design_matrix(x, self.knots)

    def predict(self, x) -> np.ndarray:
        return self.design(x) @ self.coef

    def curve(self, n: int = 100):
        """(x, yhat, lower, upper) over an even grid of n >= 2 points for
        plotting/export."""
        if n < 2:
            raise ValueError(f"curve needs n >= 2 grid points, got n={n}")
        xs = np.linspace(*self.x_range, n)
        B = self.design(xs)
        yhat = B @ self.coef
        if self.cov is not None:
            se = np.sqrt(np.clip(np.einsum("ij,jk,ik->i", B, self.cov, B), 0.0, None))
        else:
            se = np.zeros_like(yhat)
        return xs, yhat, yhat - 1.96 * se, yhat + 1.96 * se


def design_matrix(x, t) -> np.ndarray:
    """Dense (len(x), len(t) - DEGREE - 1) matrix of the B-spline basis on
    knots t at points x, by de Boor's recurrence (de Boor 1978, A Practical
    Guide to Splines).  Each row holds the DEGREE + 1 basis functions that
    are non-zero on the knot interval t[l] <= x < t[l + 1] (the last
    non-empty one at the right end).  Row by row it does the arithmetic of
    scipy's BSpline.design_matrix, and like it raises ValueError for a
    non-finite x or one outside [t[DEGREE], t[-DEGREE - 1]]."""
    x = np.asarray(x, dtype=float).ravel()
    t = np.asarray(t, dtype=float)
    k = DEGREE
    n_basis = len(t) - k - 1
    if n_basis < k + 1 or np.any(t[1:] < t[:-1]):
        raise ValueError(f"need a sorted knot vector of at least {2 * k + 2} "
                         f"knots, got {len(t)}")
    if not np.isfinite(x).all():
        raise ValueError("x must not contain infs or nans")
    if x.size and (x.min() < t[k] or x.max() > t[n_basis]):
        raise ValueError(f"x outside the knot range [{t[k]!r}, {t[n_basis]!r}]")
    # interval index l, with t[l] <= x < t[l + 1] and k <= l < n_basis
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n_basis - 1)
    h = np.zeros((k + 1, x.size))
    h[0] = 1.0
    for j in range(1, k + 1):
        hh = h[:j].copy()
        h[0] = 0.0
        for i in range(1, j + 1):
            xb = t[ell + i]
            xa = t[ell + i - j]
            span = xb - xa
            # span is 0 only where x == xa == xb, so both terms below are 0
            w = hh[i - 1] / np.where(span == 0.0, 1.0, span)
            h[i - 1] += w * (xb - x)
            h[i] = w * (x - xa)
    B = np.zeros((x.size, n_basis))
    np.put_along_axis(B, (ell - k)[:, None] + np.arange(k + 1), h.T, axis=1)
    return B


def _knot_vector(lo: float, hi: float, n_splines: int) -> np.ndarray:
    # clamped cubic: n_splines - DEGREE - 1 internal knots, uniformly placed
    n_internal = n_splines - DEGREE - 1
    inner = np.linspace(lo, hi, n_internal + 2)[1:-1]
    return np.concatenate([[lo] * (DEGREE + 1), inner, [hi] * (DEGREE + 1)])


def _greville(t: np.ndarray, n_basis: int) -> np.ndarray:
    return np.array([t[i + 1:i + 1 + DEGREE].mean() for i in range(n_basis)])


def _second_diff_penalty(xi: np.ndarray) -> np.ndarray:
    """P = D'D where D takes second divided differences over xi; straight
    lines in xi are its null space."""
    m = len(xi)
    D = np.zeros((m - 2, m))
    for j in range(m - 2):
        h1 = xi[j + 1] - xi[j]
        h2 = xi[j + 2] - xi[j + 1]
        D[j, j] = 2.0 / (h1 * (h1 + h2))
        D[j, j + 1] = -2.0 / (h1 * h2)
        D[j, j + 2] = 2.0 / (h2 * (h1 + h2))
    return D.T @ D


def gcv_score(B, y, P, lam: float):
    """(GCV score, coefficients, residual sum of squares, effective degrees
    of freedom) of the penalized fit at one lambda."""
    return _gcv_score(B, y, P, lam, B.T @ B, B.T @ y)


def _gcv_score(B, y, P, lam, BtB, Bty):
    """gcv_score with B'B and B'y given, so that a grid search forms them
    once."""
    A = BtB + lam * P
    coef = np.linalg.solve(A, Bty)
    resid = y - B @ coef
    rss = float(resid @ resid)
    edf = float(np.trace(np.linalg.solve(A, BtB)))
    n = len(y)
    denom = max(n - edf, 1e-8)
    return n * rss / denom**2, coef, rss, edf


def fit_gam(x, y, n_splines: int = N_SPLINES, lambda_grid=None) -> GamFit:
    """Grid-searched penalized spline regression of y on x.

    Requires n_splines >= DEGREE + 1, at least 50 paired finite samples, a
    non-degenerate x range and a non-empty lambda_grid of finite,
    non-negative values.
    """
    if lambda_grid is None:
        lambda_grid = np.logspace(-3.0, 3.0, 11)
    lambda_grid = [float(lam) for lam in lambda_grid]
    if not lambda_grid:
        raise ValueError("empty lambda_grid")
    bad = [lam for lam in lambda_grid if not (math.isfinite(lam) and lam >= 0.0)]
    if bad:
        raise ValueError(f"lambda_grid values must be finite and >= 0, got {bad}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    if n_splines < DEGREE + 1:
        raise ValueError(f"n_splines must be at least {DEGREE + 1}, "
                         f"got n_splines={n_splines}")
    if len(x) < 50:
        raise ValueError(f"need at least 50 finite samples, have {len(x)}")
    lo, hi = float(x.min()), float(x.max())
    if hi - lo < 1e-12:
        raise ValueError("degenerate x range")

    t = _knot_vector(lo, hi, n_splines)
    B = design_matrix(x, t)
    P = _second_diff_penalty(_greville(t, n_splines))
    BtB, Bty = B.T @ B, B.T @ y

    best = None
    for lam in lambda_grid:
        score, coef, rss, edf = _gcv_score(B, y, P, lam, BtB, Bty)
        if best is None or score < best[0]:
            best = (score, lam, coef, rss, edf)
    gcv, lam, coef, rss, edf = best

    tss = float(((y - y.mean()) ** 2).sum())
    pseudo_r2 = 1.0 - rss / tss if tss > 0 else 0.0
    sigma2 = rss / max(len(y) - edf, 1e-8)
    Ainv = np.linalg.inv(BtB + lam * P)
    cov = sigma2 * (Ainv @ BtB @ Ainv)
    return GamFit(knots=t, coef=coef, lam=lam, pseudo_r2=pseudo_r2, gcv=gcv,
                  edf=edf, sigma2=sigma2, cov=cov, x_range=(lo, hi))
