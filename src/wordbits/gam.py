"""Penalized cubic B-spline regression (one smooth term) with GCV-selected
smoothing, for the LM-vs-MT surprisal curve.

The penalty is the sum of squared second divided differences of the spline
coefficients taken over the Greville abscissae, so its null space is exactly
the coefficient patterns that make the spline a straight line in x.  As
lambda grows the fit therefore collapses to the ordinary least-squares line.
scipy.interpolate is loaded by the calls that build a design matrix, not at
import.
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
        from scipy.interpolate import BSpline

        x = np.clip(np.asarray(x, dtype=float), *self.x_range)
        return BSpline.design_matrix(x, self.knots, DEGREE).toarray()

    def predict(self, x) -> np.ndarray:
        return self.design(x) @ self.coef

    def curve(self, n: int = 100):
        """(x, yhat, lower, upper) over an even grid for plotting/export."""
        xs = np.linspace(*self.x_range, n)
        B = self.design(xs)
        yhat = B @ self.coef
        if self.cov is not None:
            se = np.sqrt(np.clip(np.einsum("ij,jk,ik->i", B, self.cov, B), 0.0, None))
        else:
            se = np.zeros_like(yhat)
        return xs, yhat, yhat - 1.96 * se, yhat + 1.96 * se


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

    Requires at least 50 paired finite samples, a non-degenerate x range
    and a non-empty lambda_grid of finite, non-negative values.
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
    if len(x) < 50:
        raise ValueError(f"need at least 50 finite samples, have {len(x)}")
    lo, hi = float(x.min()), float(x.max())
    if hi - lo < 1e-12:
        raise ValueError("degenerate x range")

    from scipy.interpolate import BSpline

    t = _knot_vector(lo, hi, n_splines)
    B = BSpline.design_matrix(x, t, DEGREE).toarray()
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
