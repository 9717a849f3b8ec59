"""Filler-particle prediction: dataset assembly, mixed-effects logistic
regression, concordance, and model comparison.

The estimator is a penalized-likelihood logistic fit with Gaussian random
intercepts.  At fixed variances, damped Newton steps run jointly over fixed
effects and group deviations; each variance is chosen by a bounded scalar
search over log sigma^2 that maximizes the Laplace approximation to the
marginal likelihood, which also gives the AIC.  Within one fit, each
penalized IRLS run of that search starts from the optimum of the run
before it, whose penalty is close; the first starts cold, and nothing is
kept between fits.  Group membership is kept as integer level codes, so no
n x q indicator matrix is built.  Numpy/scipy only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import rankdata

log = logging.getLogger(__name__)

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
    predictors: tuple = ()
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
    order = []
    for r in tgt_rows:
        key = (r.doc_id, r.seg_id)
        if key not in segments:
            segments[key] = []
            order.append(key)
        segments[key].append(r)

    raw = []
    for key in order:
        rows = [r for r in segments[key] if not r.is_expansion]
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


def _check_separation(X, y, names):
    pos = y == 1
    for j, name in enumerate(names):
        col = X[:, j]
        a, b = col[pos], col[~pos]
        if a.size and b.size and (a.min() > b.max() or a.max() < b.min()):
            raise SeparationError(name)


def _group_codes(factor, labels, offset):
    """Sorted levels of one grouping factor and each observation's level
    code, offset by the levels of the factors before it so the codes index
    the joint random-effects vector u directly: Z @ u is a gather and
    Z' @ v a bincount, and the n x q indicator matrix Z is never formed."""
    missing = labels.count(None)
    if missing:
        raise ValueError(f"random intercept {factor!r}: {missing} of "
                         f"{len(labels)} observations have no label")
    levels = sorted(set(labels))
    index = {g: offset + k for k, g in enumerate(levels)}
    return np.array([index[g] for g in labels], dtype=np.intp), levels


def _design(data, predictors, factors):
    """X (intercept first), y, and per factor its offset level codes and
    level count.

    The numbers stream straight into one float array, so no per-observation
    tuple outlives its row: a table of n live tuples sets off
    garbage-collector passes, and a full pass walks every object the
    process holds, the caller's n observations included."""
    names = ("outcome", *predictors)
    get = attrgetter(*names)
    # attrgetter of a single name returns the bare value, not a 1-tuple
    row = get if len(names) > 1 else (lambda o: (get(o),))
    n, k = len(data), len(predictors)
    flat = np.fromiter((v for o in data for v in row(o)), dtype=float,
                       count=n * len(names)).reshape(n, len(names))
    y = flat[:, 0].copy()
    X = np.ones((n, 1 + k))
    X[:, 1:] = flat[:, 1:]
    codes, sizes = [], []
    for factor in factors:
        labels = list(map(attrgetter(factor), data))
        c, levels = _group_codes(factor, labels, sum(sizes))
        codes.append(c)
        sizes.append(len(levels))
    return X, y, codes, sizes


def _linear_predictor(X, codes, beta, u):
    return X @ beta + sum(u[c] for c in codes)


def _hessian(X, codes, w, d):
    """Penalized Hessian [[X'WX, X'WZ], [Z'WX, Z'WZ + diag(d)]] of the joint
    (beta, u) problem, with Z given by its offset level codes.

    Z'WZ is diagonal within a factor; between two crossed factors it is the
    w-weighted cross-tabulation of their codes."""
    p, q = X.shape[1], d.size
    Xw = X * w[:, None]
    H = np.zeros((p + q, p + q))
    H[:p, :p] = X.T @ Xw
    H_bu, H_uu = H[:p, p:], H[p:, p:]
    diag = d.copy()
    for k, c in enumerate(codes):
        for j in range(p):
            H_bu[j] += np.bincount(c, weights=Xw[:, j], minlength=q)
        diag += np.bincount(c, weights=w, minlength=q)
        for c2 in codes[k + 1:]:
            cross = np.bincount(c * q + c2, weights=w,
                                minlength=q * q).reshape(q, q)
            H_uu += cross + cross.T
    H_uu[np.diag_indices(q)] += diag
    H[p:, :p] = H_bu.T
    return H


class _Reduced:
    """The penalized Hessian H with the first factor's levels eliminated.

    Within one factor Z'WZ is diagonal, so that block D is eliminated in
    closed form.  What remains is the Schur complement
    S = H_rr - H_ra D^-1 H_ar over the fixed effects and the other factors'
    levels: p x p for one factor, where H is (p+q) x (p+q).  Solves with H,
    log det of its random-effects block and the fixed-effects block of H^-1
    all come from S.  LAPACK runs its (p+q)-square factorizations on
    several threads, whose workers spin between Newton steps and make the
    fit's wall time depend on what else the machine runs; the small S is
    factored on the calling thread alone."""

    def __init__(self, H, p, m):
        a = slice(p, p + m)
        self.p, self.a = p, a
        self.keep = np.r_[0:p, p + m:H.shape[0]]
        self.D = np.diagonal(H)[a].copy()
        self.B = H[self.keep, a]
        self.S = H[np.ix_(self.keep, self.keep)] - (self.B / self.D) @ self.B.T

    def solve(self, g):
        g_a = g[self.a] / self.D
        rhs = g[self.keep] - self.B @ g_a
        try:
            x_r = np.linalg.solve(self.S, rhs)
        except np.linalg.LinAlgError:
            x_r = np.linalg.lstsq(self.S, rhs, rcond=None)[0]
        x = np.empty_like(g)
        x[self.keep] = x_r
        x[self.a] = g_a - (self.B.T @ x_r) / self.D
        return x

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


def _weights(eta):
    mu = _sigmoid(eta)
    return mu, np.clip(mu * (1.0 - mu), 1e-10, None)


def _pirls(X, y, codes, d, m, max_iter, tol, start=None):
    """Joint damped Newton over (beta, u) at fixed penalty d; m is the
    first factor's level count.

    start is a (beta, u) to begin from, such as the optimum at a nearby
    penalty; without one the fit starts cold, at the marginal log-odds and
    u = 0.  Each accepted line-search point carries its linear predictor
    and penalized log-likelihood into the next iteration."""
    p = X.shape[1]
    q = d.size
    if start is None:
        beta = np.zeros(p)
        pbar = min(max(float(y.mean()), 1e-9), 1.0 - 1e-9)
        beta[0] = math.log(pbar / (1.0 - pbar))
        u = np.zeros(q)
    else:
        beta, u = start
    eta = _linear_predictor(X, codes, beta, u)
    cur = _penalized_loglik(y, eta, u, d)
    trace = []
    for _ in range(max_iter):
        mu, w = _weights(eta)
        resid = y - mu
        g_u = sum(np.bincount(c, weights=resid, minlength=q) for c in codes)
        grad = np.concatenate([X.T @ resid, g_u - d * u])
        step = _Reduced(_hessian(X, codes, w, d), p, m).solve(grad)

        trace.append(cur)
        scale = 1.0
        for halvings in range(31):
            nb = beta + scale * step[:p]
            nu = u + scale * step[p:]
            eta = _linear_predictor(X, codes, nb, nu)
            new = _penalized_loglik(y, eta, nu, d)
            # after 30 halvings the smallest step is taken anyway
            if new >= cur - 1e-12 or halvings == 30:
                break
            scale *= 0.5
        beta, u, cur = nb, nu, new

        if np.abs(beta).max() > 50.0:
            raise ConvergenceError("coefficients diverged (|beta| > 50)", trace)
        if float(np.abs(scale * step).max()) < tol:
            return beta, u, trace
    raise ConvergenceError(f"no convergence in {max_iter} iterations", trace)


def _laplace_loglik(X, y, codes, d, m, beta, u):
    eta = _linear_predictor(X, codes, beta, u)
    _mu, w = _weights(eta)
    ll_data = float(np.sum(y * eta - _softplus(eta)))
    if not d.size:
        return ll_data
    logdet_huu = _Reduced(_hessian(X, codes, w, d), X.shape[1], m).logdet_uu()
    return (ll_data - 0.5 * float(u @ (d * u))
            + 0.5 * float(np.sum(np.log(d))) - 0.5 * float(logdet_huu))


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
    X, y, codes, sizes = _design(data, predictors, factors)
    if y.min() == y.max():
        raise ValueError("outcomes are single-class")
    _check_separation(X[:, 1:], y, predictors)

    p = X.shape[1]
    m = sizes[0] if sizes else 0  # levels of the factor eliminated first
    sigma2 = {f: 1.0 for f in factors}

    def d_vector(s2):
        return np.repeat([1.0 / s2[f] for f in factors], sizes)

    start = None  # each PIRLS run starts at the previous run's optimum

    def profile(s2):
        nonlocal start
        d = d_vector(s2)
        beta, u, _ = _pirls(X, y, codes, d, m, max_iter, tol, start)
        start = beta, u
        return _laplace_loglik(X, y, codes, d, m, beta, u), beta, u

    if factors:
        log_lo, log_hi = math.log(1e-8), math.log(1e3)
        for _sweep in range(8):
            previous = dict(sigma2)
            for f in factors:
                def neg(log_s2, f=f):
                    trial = dict(sigma2)
                    trial[f] = math.exp(log_s2)
                    return -profile(trial)[0]
                res = minimize_scalar(neg, bounds=(log_lo, log_hi),
                                      method="bounded",
                                      options={"xatol": 1e-6})
                sigma2[f] = math.exp(res.x)
            if len(factors) == 1 or max(
                    abs(sigma2[f] - previous[f]) for f in factors) < 1e-8:
                break

    d = d_vector(sigma2)
    loglik, beta, u = profile(sigma2)
    mu, w = _weights(_linear_predictor(X, codes, beta, u))

    # standard errors from the beta block of the inverse penalized Hessian
    cov = _Reduced(_hessian(X, codes, w, d), p, m).fixed_cov()
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    names = ("intercept",) + tuple(predictors)
    k_params = p + len(factors)
    aic = 2.0 * k_params - 2.0 * loglik
    return FitResult(
        coefficients=dict(zip(names, beta.tolist())),
        std_errors=dict(zip(names, se.tolist())),
        aic=aic,
        c=concordance(mu, y.astype(int)),
        n_obs=len(y),
        loglik=loglik,
        variances=dict(sigma2),
        predictors=tuple(predictors),
        fitted=mu,
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
    ranks = rankdata(probs)  # average ranks handle ties
    s = ranks[outcomes == 1].sum()
    return float((s - n1 * (n1 + 1) / 2.0) / (n1 * n0))


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
    labels = [(f"spk{g:03d}", f"{g % 7:03d}") for g in range(n_groups)]
    out = []
    # FPObservation's predictor fields follow PREDICTORS, in order
    for row, outcome, g in zip(Xs.tolist(), y.tolist(), groups.tolist()):
        speaker, doc = labels[g]
        out.append(FPObservation(outcome, *row, speaker_id=speaker, doc_id=doc,
                                 direction=direction))
    return out
