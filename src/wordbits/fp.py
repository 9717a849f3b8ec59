"""Filler-particle prediction: dataset assembly, mixed-effects logistic
regression, concordance, and model comparison.

The estimator is a penalized-likelihood logistic fit with Gaussian random
intercepts.  At fixed variances, damped Newton steps run jointly over fixed
effects and group deviations; each variance is chosen by a bounded scalar
search over log sigma^2 that maximizes the Laplace approximation to the
marginal likelihood, which also gives the AIC.  The Laplace term
(0.5 log det D - 0.5 log det H_uu), the standard errors and the fitted
values come from what each penalized IRLS run holds at its optimum: its
linear predictor and the Hessian of its last Newton step, built less than
tol away; no Hessian is built after the Newton steps.  Within one fit, each
penalized IRLS run of that search starts from the optimum of the run
before it, whose penalty is close; the first starts cold, and nothing is
kept between fits.  Group membership is kept as integer level codes, so no
n x q indicator matrix is built.  Each fit sorts its observations stably by
the first factor's level and keeps the design transposed (p x n), so that
factor's sums are one np.add.reduceat over contiguous runs, and the
Hessian is handed on as blocks with that factor's diagonal block
eliminated in closed form; the fitted values are returned in input order.
The variance search is Brent's bounded minimizer, kept in this module
(_fminbound); the module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

PREDICTORS = ("nxtwS_tgt", "nxtwS_src", "nxtwS_mt",
              "AvS_tgt", "AvS_src", "AvS_mt")
GROUPING_FIELDS = ("speaker_id", "doc_id", "direction")


class SeparationError(RuntimeError):
    def __init__(self, predictor):
        super().__init__(f"complete separation on predictor {predictor!r}")
        self.predictor = predictor


class ConvergenceError(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(f"{message}; penalized log-likelihood trace: "
                         f"{[round(v, 4) for v in trace[-8:]]}")
        self.trace = trace


@dataclass
class FPObservation:
    outcome: int  # 1 iff the word is immediately preceded by an FP
    nxtwS_tgt: float = 0.0
    nxtwS_src: float = 0.0
    nxtwS_mt: float = 0.0
    AvS_tgt: float = 0.0
    AvS_src: float = 0.0
    AvS_mt: float = 0.0
    speaker_id: str = None
    doc_id: str = None
    direction: str = None


@dataclass
class FitResult:
    coefficients: dict  # name -> estimate
    std_errors: dict
    aic: float
    c: float
    n_obs: int
    loglik: float = None
    variances: dict = field(default_factory=dict)  # factor -> sigma^2
    fitted: np.ndarray = None


def zscore(values, name):
    arr = np.asarray(values, dtype=float)
    sd = arr.std()  # population sd
    if sd == 0.0 or not np.isfinite(sd):
        raise ValueError(f"predictor {name} is constant; z-score undefined")
    return (arr - arr.mean()) / sd


def build_fp_dataset(tgt_rows, src_rows, direction: str,
                     variant: str = "base") -> list:
    """One observation per eligible target surface word.

    Eligible: not an FP, not an expansion row, has LM and MT surprisal, and
    at least one aligned source word whose LM surprisal resolves.  Outcome is
    whether the immediately preceding surface row in the segment is an FP
    (expansion rows are skipped when looking back; no cross-segment lookback).
    """
    lm_col = f"srp_{variant}_gpt2"
    mt_col = f"srp_{variant}_mt"
    src_by_id = {str(r.word_id): r for r in src_rows}

    src_seg_means = {}
    for r in src_rows:
        if r.is_fp or r.is_expansion:
            continue
        v = getattr(r, lm_col)
        if v is not None:
            src_seg_means.setdefault((r.doc_id, r.seg_id), []).append(v)
    src_seg_means = {k: float(np.mean(v)) for k, v in src_seg_means.items()}

    segments = {}
    for r in tgt_rows:
        segments.setdefault((r.doc_id, r.seg_id), []).append(r)

    raw = []
    for key, seg_rows in segments.items():
        rows = [r for r in seg_rows if not r.is_expansion]
        lm_vals = [getattr(r, lm_col) for r in rows
                   if not r.is_fp and getattr(r, lm_col) is not None]
        mt_vals = [getattr(r, mt_col) for r in rows
                   if not r.is_fp and getattr(r, mt_col) is not None]
        avs_tgt = float(np.mean(lm_vals)) if lm_vals else None
        avs_mt = float(np.mean(mt_vals)) if mt_vals else None
        avs_src = src_seg_means.get(key)
        prev = None
        for r in rows:
            outcome = 1 if (prev is not None and prev.is_fp) else 0
            prev = r
            if r.is_fp:
                continue
            lm = getattr(r, lm_col)
            mt = getattr(r, mt_col)
            if lm is None or mt is None or not r.aligned_word_id:
                continue
            src_vals = []
            for sid in r.aligned_word_id:
                src_row = src_by_id.get(sid)
                if src_row is not None and getattr(src_row, lm_col) is not None:
                    src_vals.append(getattr(src_row, lm_col))
            if not src_vals:
                continue
            if avs_tgt is None or avs_mt is None or avs_src is None:
                continue
            raw.append(FPObservation(
                outcome=outcome, nxtwS_tgt=lm, nxtwS_src=float(np.mean(src_vals)),
                nxtwS_mt=mt, AvS_tgt=avs_tgt, AvS_src=avs_src, AvS_mt=avs_mt,
                speaker_id=r.speaker_id, doc_id=r.doc_id, direction=direction))

    if not raw:
        return []
    cols = {name: zscore([getattr(o, name) for o in raw], name)
            for name in PREDICTORS}
    for i, obs in enumerate(raw):
        for name in PREDICTORS:
            setattr(obs, name, float(cols[name][i]))
    return raw


def _sigmoid(eta):
    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def _check_separation(Xt, y, names):
    pos = y == 1
    for row, name in zip(Xt, names):
        a, b = row[pos], row[~pos]
        if a.size and b.size and (a.min() > b.max() or a.max() < b.min()):
            raise SeparationError(name)


def _group_codes(factor, labels, offset):
    """Sorted levels of one grouping factor and each observation's level
    code plus offset, so that the codes index the factor's part of the
    random-effects vector directly (see _Design.codes) and no n x q
    indicator matrix is formed."""
    missing = labels.count(None)
    if missing:
        raise ValueError(f"random intercept {factor!r}: {missing} of "
                         f"{len(labels)} observations have no label")
    levels = sorted(set(labels))
    index = {g: offset + k for k, g in enumerate(levels)}
    return np.array([index[g] for g in labels], dtype=np.intp), levels


@dataclass
class _Design:
    """The data of one fit, its observations stably sorted by the first
    factor's level, so that each of that factor's levels is one run of
    consecutive observations.

    Xt is the design transposed, p x n and C-contiguous, intercept row
    first: every per-observation product runs along a contiguous row.  y
    and codes are in the same order, and order[i] is the input index of
    sorted observation i.  codes holds one array per factor: the first
    factor's level codes, then the other factors' codes offset into the
    random effects that follow the first factor's (u[m:]).  starts and
    counts are the first factor's runs; sizes the factors' level counts."""
    Xt: np.ndarray
    y: np.ndarray
    order: np.ndarray
    codes: list
    sizes: list
    starts: np.ndarray
    counts: np.ndarray

    @property
    def m(self):
        """Levels of the first factor, the one eliminated in closed form."""
        return self.sizes[0] if self.sizes else 0

    def z(self, u):
        """Z @ u: the first factor's effects repeated over their runs,
        gathers for the other factors."""
        m = self.m
        if not m:
            return 0.0
        return sum((u[m:][c] for c in self.codes[1:]),
                   np.repeat(u[:m], self.counts))

    def zt(self, v):
        """Z' @ v: sums over the first factor's runs, bincounts for the
        other factors."""
        m, q = self.m, sum(self.sizes)
        out = np.zeros(q)
        out[:m] = np.add.reduceat(v, self.starts)
        for c in self.codes[1:]:
            out[m:] += np.bincount(c, weights=v, minlength=q - m)
        return out


def _design(data, predictors, factors):
    """The _Design of a fit: the outcome, the predictors after an intercept
    and each factor's level codes.

    The numbers stream straight into one float array, one observation at a
    time, so no per-observation tuple outlives its row: a table of n live
    tuples sets off garbage-collector passes, and a full pass walks every
    object the process holds, the caller's n observations included.  One
    pass, not one per column: over a shuffled list of 20,000 observations,
    whose objects lie scattered in memory, seven column passes took twice
    as long."""
    names = ("outcome", *predictors)
    values = map(attrgetter(*names), data)
    if predictors:  # attrgetter of several names gives tuples, of one the value
        values = chain.from_iterable(values)
    n = len(data)
    X = np.fromiter(values, float, n * len(names)).reshape(n, len(names))
    codes, sizes = [], []
    for factor in factors:
        labels = list(map(attrgetter(factor), data))
        c, levels = _group_codes(factor, labels, sum(sizes[1:]))
        codes.append(c)
        sizes.append(len(levels))
    order = np.argsort(codes[0], kind="stable") if codes else np.arange(n)
    Xt = X.T.take(order, axis=1)  # a fresh C-contiguous p x n array
    del X  # freed before the arrays below are allocated
    y = Xt[0].copy()
    Xt[0] = 1.0  # the intercept row
    codes = [c[order] for c in codes]
    counts = np.bincount(codes[0]) if codes else np.zeros(0, np.intp)
    starts = np.cumsum(counts) - counts
    return _Design(Xt, y, order, codes, sizes, starts, counts)


def _linear_predictor(design, beta, u):
    return beta @ design.Xt + design.z(u)


def _hessian(design, w, d, out=None):
    """Blocks of the penalized Hessian H = [[X'WX, X'WZ], [Z'WX, Z'WZ + D_d]]
    of the joint (beta, u) problem, D_d = diag(d), split at the first
    factor's levels a from the rest r, the fixed effects then the other
    factors' levels: (H_rr, H_ra, D), with D the diagonal of H_aa.

    Z'WZ is diagonal within a factor, so H_aa is diag(D); with the
    observations in runs of the first factor, D and X'WZ_a (p x m) are
    np.add.reduceat sums of w and of W X' over the runs.  With one factor
    H_rr is X'WX alone, p x p.  Crossed factors add the other factors'
    levels to the dense H_rr: bincounts for X'WZ_r and its diagonal, and
    w-weighted cross-tabulations of the codes for Z_r'WZ_a and between two
    other factors.  out, an array shaped like Xt, receives W X': a fit
    passes one buffer to all its Newton steps, since a fresh p x n array
    per step can cost a fresh memory mapping and its page faults each time."""
    Xt, m, q = design.Xt, design.m, d.size
    p, k = Xt.shape[0], q - m  # k: levels of the other factors
    WXt = np.multiply(Xt, w, out=out)
    XtWX = WXt @ Xt.T
    H_ra = np.add.reduceat(WXt, design.starts, axis=1)
    D = np.add.reduceat(w, design.starts) + d[:m]
    if not k:
        return XtWX, H_ra, D
    first, others = design.codes[0], design.codes[1:]
    H_rr = np.zeros((p + k, p + k))
    H_rr[:p, :p] = XtWX
    H_xr, H_uu = H_rr[:p, p:], H_rr[p:, p:]
    H_ra = np.concatenate([H_ra, np.zeros((k, m))])
    diag = d[m:].copy()
    for i, c in enumerate(others):
        for j in range(p):
            H_xr[j] += np.bincount(c, weights=WXt[j], minlength=k)
        diag += np.bincount(c, weights=w, minlength=k)
        H_ra[p:] += np.bincount(c * m + first, weights=w,
                                minlength=k * m).reshape(k, m)
        for c2 in others[i + 1:]:
            cross = np.bincount(c * k + c2, weights=w,
                                minlength=k * k).reshape(k, k)
            H_uu += cross + cross.T
    H_uu[np.diag_indices(k)] += diag
    H_rr[p:, :p] = H_xr.T
    return H_rr, H_ra, D


class _Reduced:
    """The penalized Hessian with the first factor's levels eliminated,
    from _hessian's blocks (H_rr, H_ra, D).

    H_aa = diag(D) is eliminated in closed form.  What remains is the Schur
    complement S = H_rr - H_ra D^-1 H_ar over the fixed effects and the
    other factors' levels: p x p for one factor, where H is (p+q) x (p+q).
    Solves with H, log det of its random-effects block and the
    fixed-effects block of H^-1 all come from S.  LAPACK runs its
    (p+q)-square factorizations on several threads, whose workers spin
    between Newton steps and make the fit's wall time depend on what else
    the machine runs; the small S is factored on the calling thread alone."""

    def __init__(self, blocks, p):
        H_rr, self.B, self.D = blocks
        self.p, self.m = p, self.D.size
        self.S = H_rr - (self.B / self.D) @ self.B.T

    def solve(self, g):
        """H^-1 g, for g ordered (beta, u)."""
        p, m = self.p, self.m
        g_a = g[p:p + m] / self.D
        rhs = np.concatenate([g[:p], g[p + m:]]) - self.B @ g_a
        try:
            x_r = np.linalg.solve(self.S, rhs)
        except np.linalg.LinAlgError:
            x_r = np.linalg.lstsq(self.S, rhs, rcond=None)[0]
        return np.concatenate([x_r[:p], g_a - (self.B.T @ x_r) / self.D,
                               x_r[p:]])

    def logdet_uu(self):
        """log det of the random-effects block H[p:, p:]."""
        _sign, rest = np.linalg.slogdet(self.S[self.p:, self.p:])
        return float(np.sum(np.log(self.D))) + float(rest)

    def fixed_cov(self):
        """The fixed-effects block of H^-1."""
        return np.linalg.inv(self.S)[:self.p, :self.p]


def _softplus(eta):
    """log(1 + exp(eta)), the branches of np.logaddexp(0, eta) in ufuncs
    numpy vectorizes (logaddexp's loop it does not): about 5x faster."""
    return np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0)


def _penalized_loglik(y, eta, u, d):
    ll = float(np.sum(y * eta - _softplus(eta)))
    return ll - 0.5 * float(u @ (d * u))


def _pirls(design, d, max_iter, tol, start=None, scratch=None):
    """Joint damped Newton over (beta, u) at fixed penalty d; scratch is
    _hessian's out.

    start is a (beta, u) to begin from, such as the optimum at a nearby
    penalty; without one the fit starts cold, at the marginal log-odds and
    u = 0.  Each accepted line-search point carries its linear predictor
    and penalized log-likelihood into the next iteration.  Returns beta, u,
    trace, the penalized log-likelihood and linear predictor at the end of
    the first step shorter than tol, and that step's _Reduced Hessian."""
    y = design.y
    p = design.Xt.shape[0]
    if start is None:
        beta = np.zeros(p)
        pbar = min(max(float(y.mean()), 1e-9), 1.0 - 1e-9)
        beta[0] = math.log(pbar / (1.0 - pbar))
        u = np.zeros(d.size)
    else:
        beta, u = start
    eta = _linear_predictor(design, beta, u)
    cur = _penalized_loglik(y, eta, u, d)
    trace = []
    for _ in range(max_iter):
        mu = _sigmoid(eta)
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        resid = y - mu
        grad = np.concatenate([design.Xt @ resid, design.zt(resid) - d * u])
        hessian = _Reduced(_hessian(design, w, d, scratch), p)
        step = hessian.solve(grad)

        trace.append(cur)
        scale = 1.0
        for halvings in range(31):
            nb = beta + scale * step[:p]
            nu = u + scale * step[p:]
            eta = _linear_predictor(design, nb, nu)
            new = _penalized_loglik(y, eta, nu, d)
            # after 30 halvings the smallest step is taken anyway
            if new >= cur - 1e-12 or halvings == 30:
                break
            scale *= 0.5
        beta, u, cur = nb, nu, new

        if np.abs(beta).max() > 50.0:
            raise ConvergenceError("coefficients diverged (|beta| > 50)", trace)
        if float(np.abs(scale * step).max()) < tol:
            return beta, u, trace, cur, eta, hessian
    raise ConvergenceError(f"no convergence in {max_iter} iterations", trace)


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _fminbound(func, lo, hi, xatol, maxfun=500):
    """The x in [lo, hi] that minimizes func, by Brent's bounded search
    (golden sections with parabolic steps; Brent 1973, as in Forsythe,
    Malcolm & Moler's fmin).  It evaluates func at the same points, in the
    same order, and returns the same x as scipy.optimize.minimize_scalar(
    method="bounded", options={"xatol": xatol}); after maxfun evaluations
    it returns the best point so far."""
    sqrt_eps = math.sqrt(2.2e-16)
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf


def fit_logistic(data, random_intercepts=("speaker_id",), predictors=PREDICTORS,
                 max_iter: int = 200, tol: float = 1e-9) -> FitResult:
    """Mixed-effects logistic regression of FP occurrence.

    random_intercepts names GROUPING_FIELDS of the observations (empty for a
    plain GLM); an unknown name, or an observation without a label for a
    named field, raises ValueError.  The variance of each random intercept
    maximizes the Laplace marginal likelihood (bounded scalar search in log
    space; the EM update crawls when a variance sits near zero).  AIC
    counts one variance parameter per factor; C is the concordance of the
    conditional fitted probabilities.
    """
    data = list(data)
    if not data:
        raise ValueError("empty dataset")
    factors = tuple(random_intercepts or ())
    unknown = [f for f in factors if f not in GROUPING_FIELDS]
    if unknown:
        raise ValueError(f"unknown random-intercept factor(s) {unknown}; "
                         f"grouping fields are {', '.join(GROUPING_FIELDS)}")
    repeated = sorted({f for f in factors if factors.count(f) > 1})
    if repeated:
        raise ValueError(f"random-intercept factor(s) {repeated} named "
                         f"more than once")
    design = _design(data, predictors, factors)
    y = design.y
    if y.min() == y.max():
        raise ValueError("outcomes are single-class")
    _check_separation(design.Xt[1:], y, predictors)

    sigma2 = {f: 1.0 for f in factors}

    def d_vector(s2):
        return np.repeat([1.0 / s2[f] for f in factors], design.sizes)

    start = None  # each PIRLS run starts at the previous run's optimum
    scratch = np.empty_like(design.Xt)  # W X', rewritten by every Hessian build

    def profile(s2):
        nonlocal start
        d = d_vector(s2)
        beta, u, _, loglik, eta, hessian = _pirls(design, d, max_iter, tol,
                                                  start, scratch)
        start = beta, u
        if d.size:  # the Laplace term
            loglik += 0.5 * (float(np.sum(np.log(d))) - hessian.logdet_uu())
        return loglik, eta, hessian

    if factors:
        log_lo, log_hi = math.log(1e-8), math.log(1e3)
        for _sweep in range(8):
            previous = dict(sigma2)
            for f in factors:
                def neg(log_s2, f=f):
                    trial = dict(sigma2)
                    trial[f] = math.exp(log_s2)
                    return -profile(trial)[0]
                sigma2[f] = math.exp(_fminbound(neg, log_lo, log_hi, 1e-6))
            if len(factors) == 1 or max(
                    abs(sigma2[f] - previous[f]) for f in factors) < 1e-8:
                break

    loglik, eta, hessian = profile(sigma2)
    beta, _u = start  # the optimum that profile just evaluated
    # standard errors from the beta block of the inverse penalized Hessian
    se = np.sqrt(np.clip(np.diag(hessian.fixed_cov()), 0.0, None))
    mu = _sigmoid(eta)
    del eta  # freed before concordance allocates its n-sized arrays

    fitted = np.empty_like(mu)
    fitted[design.order] = mu  # back in input order
    names = ("intercept",) + tuple(predictors)
    k_params = len(names) + len(factors)
    aic = 2.0 * k_params - 2.0 * loglik
    return FitResult(
        coefficients=dict(zip(names, beta.tolist())),
        std_errors=dict(zip(names, se.tolist())),
        aic=aic,
        c=concordance(mu, y.astype(int)),
        n_obs=len(y),
        loglik=loglik,
        variances=dict(sigma2),
        fitted=fitted,
    )


def concordance(probs, outcomes) -> float:
    """C statistic: fraction of (positive, negative) pairs ranked correctly,
    ties counted as half."""
    probs = np.asarray(probs, dtype=float)
    outcomes = np.asarray(outcomes)
    n1 = int((outcomes == 1).sum())
    n0 = int((outcomes == 0).sum())
    if n1 == 0 or n0 == 0:
        raise ValueError("concordance needs both outcome classes")
    if np.isnan(probs).any():
        return float("nan")  # no ranking, as rankdata propagates NaN
    s = _average_ranks(probs)[outcomes == 1].sum()
    return float((s - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def _average_ranks(values):
    """1-based ranks with each tie group given the mean of its ranks, as
    scipy.stats.rankdata's default; the ranks are exact halves."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    bounds = np.r_[np.flatnonzero(starts), values.size]  # each group's start, then n
    group = np.cumsum(starts) - 1
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def compare_models(fit_a: FitResult, fit_b: FitResult) -> dict:
    if fit_a.n_obs != fit_b.n_obs:
        raise ValueError(f"fits cover different data: {fit_a.n_obs} vs {fit_b.n_obs}")
    return {
        "delta_aic": fit_b.aic - fit_a.aic,
        "delta_c": fit_b.c - fit_a.c,
        "preferred": "a" if fit_a.aic <= fit_b.aic else "b",
    }


def simulate_observations(n: int, beta, group_sd: float = 0.3,
                          n_groups: int = 40, seed: int = 0,
                          direction: str = "DE-EN") -> list:
    """Draw FPObservations from a known mixed logistic model.

    beta = (intercept, then one coefficient per PREDICTORS entry).  Predictor
    columns are z-scored like the real dataset so recovered coefficients are
    directly comparable to beta.
    """
    beta = np.asarray(beta, dtype=float)
    assert beta.shape == (1 + len(PREDICTORS),)
    rng = np.random.default_rng(seed)
    Xs = rng.normal(size=(n, len(PREDICTORS)))
    Xs = (Xs - Xs.mean(axis=0)) / Xs.std(axis=0)
    groups = rng.integers(0, n_groups, size=n)
    u = rng.normal(scale=group_sd, size=n_groups)
    eta = beta[0] + Xs @ beta[1:] + u[groups]
    y = (rng.random(n) < _sigmoid(eta)).astype(int)
    speakers = [f"spk{g:03d}" for g in range(n_groups)]
    docs = [f"{g % 7:03d}" for g in range(n_groups)]
    codes = groups.tolist()
    # FPObservation's fields in order: the outcome, the PREDICTORS, then the
    # labels.  Built from columns, with no list per row: that halves the
    # objects the garbage collector tracks while the sample is built.
    return list(map(FPObservation, y.tolist(), *Xs.T.tolist(),
                    [speakers[c] for c in codes], [docs[c] for c in codes],
                    repeat(direction, n)))
