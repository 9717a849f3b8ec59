"""Mixed logistic model and FP dataset construction."""

import dataclasses
import gc
import math

import numpy as np
import pytest

from wordbits import fp
from wordbits.fp import (
    PREDICTORS,
    ConvergenceError,
    FPObservation,
    SeparationError,
    build_fp_dataset,
    compare_models,
    concordance,
    fit_logistic,
    simulate_observations,
    zscore,
)
from wordbits.ids import ItemId
from wordbits.records import WordRow


# ---------------------------------------------------------------- simulate

def test_simulate_observations_deterministic():
    beta = (-3.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    a = simulate_observations(300, beta, seed=5)
    b = simulate_observations(300, beta, seed=5)
    assert len(a) == 300
    assert [o.outcome for o in a] == [o.outcome for o in b]
    assert all(o.nxtwS_tgt == p.nxtwS_tgt for o, p in zip(a, b))
    assert all(o.direction == "DE-EN" for o in a)
    assert a[0].speaker_id.startswith("spk")


def test_simulate_observations_columns_are_zscored():
    data = simulate_observations(800, (-2.0,) + (0.0,) * 6, seed=2)
    for name in PREDICTORS:
        col = np.array([getattr(o, name) for o in data])
        assert abs(col.mean()) < 1e-9
        assert abs(col.std() - 1.0) < 1e-9


def test_simulate_observations_matches_reference_loop():
    # the per-element construction simulate_observations replaced
    beta = np.array((-1.0, 0.4, -0.3, 0.2, 0.1, 0.0, -0.1))
    rng = np.random.default_rng(11)
    Xs = rng.normal(size=(500, len(PREDICTORS)))
    Xs = (Xs - Xs.mean(axis=0)) / Xs.std(axis=0)
    groups = rng.integers(0, 30, size=500)
    u = rng.normal(scale=0.5, size=30)
    eta = beta[0] + Xs @ beta[1:] + u[groups]
    y = (rng.random(500) < fp._sigmoid(eta)).astype(int)
    want = []
    for i in range(500):
        kw = {name: float(Xs[i, j]) for j, name in enumerate(PREDICTORS)}
        want.append(FPObservation(outcome=int(y[i]), speaker_id=f"spk{groups[i]:03d}",
                                  doc_id=f"{groups[i] % 7:03d}", direction="EN-DE",
                                  **kw))
    got = simulate_observations(500, beta, group_sd=0.5, n_groups=30, seed=11,
                                direction="EN-DE")
    assert got == want
    assert all(type(o.outcome) is int and type(o.nxtwS_tgt) is float for o in got)


def test_recovery_on_simulated_data():
    # module example: strong intercept, one active predictor, rest null
    beta = (-3.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    data = simulate_observations(5000, beta, group_sd=0.3, seed=0)
    fit = fit_logistic(data)
    names = ("intercept",) + PREDICTORS
    for name, truth in zip(names, beta):
        assert abs(fit.coefficients[name] - truth) < 0.15, name
    assert 0.0 < fit.variances["speaker_id"] < 1.0
    assert fit.n_obs == 5000
    assert 0.5 < fit.c < 1.0
    assert all(fit.std_errors[n] > 0.0 for n in names)


# ---------------------------------------------------------------- failure modes

def test_perfect_predictor_raises_separation_error():
    rng = np.random.default_rng(31)
    data = []
    for i in range(120):
        y = i % 2
        # nxtwS_tgt strictly positive iff outcome 1: complete separation
        x = (1.0 if y else -1.0) * (0.5 + rng.random())
        data.append(FPObservation(outcome=y, nxtwS_tgt=x,
                                  nxtwS_src=rng.normal(),
                                  speaker_id=f"s{i % 4}"))
    with pytest.raises(SeparationError) as exc:
        fit_logistic(data, predictors=("nxtwS_tgt", "nxtwS_src"),
                     random_intercepts=())
    assert "nxtwS_tgt" in str(exc.value)


def test_convergence_error_carries_trace():
    data = simulate_observations(400, (-1.0, 0.4, 0, 0, 0, 0, 0), seed=4)
    with pytest.raises(ConvergenceError) as exc:
        fit_logistic(data, max_iter=1)
    assert "trace" in str(exc.value)
    assert len(exc.value.trace) >= 1
    assert all(isinstance(v, float) for v in exc.value.trace)


def test_missing_group_label_names_factor_and_count():
    data = simulate_observations(200, (-1.0, 0.4, 0, 0, 0, 0, 0), seed=4)
    for o in data[:3]:
        o.speaker_id = None
    with pytest.raises(ValueError, match=r"'speaker_id': 3 of 200 observations"):
        fit_logistic(data)


def test_single_class_outcomes_rejected():
    data = simulate_observations(50, (-8.0, 0, 0, 0, 0, 0, 0), seed=1)
    for o in data:
        o.outcome = 0
    with pytest.raises(ValueError, match="single-class"):
        fit_logistic(data, random_intercepts=())


def test_empty_dataset_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit_logistic([])


# ---------------------------------------------------------------- invariants

def test_affine_rescaling_leaves_loglik_unchanged():
    data = simulate_observations(1500, (-2.5, 0.6, 0, 0, 0, 0, 0), seed=3)
    base = fit_logistic(data, random_intercepts=())

    vals = [o.nxtwS_tgt for o in data]
    rescaled = zscore([5.0 - 2.0 * v for v in vals], "nxtwS_tgt")
    moved = [dataclasses.replace(o, nxtwS_tgt=float(z))
             for o, z in zip(data, rescaled)]
    refit = fit_logistic(moved, random_intercepts=())

    assert abs(refit.loglik - base.loglik) < 1e-6
    # negative scale flips the sign, magnitude is preserved
    assert refit.coefficients["nxtwS_tgt"] == pytest.approx(
        -base.coefficients["nxtwS_tgt"], abs=1e-6)


def test_aic_drops_when_predictive_variable_added():
    data = simulate_observations(2000, (-2.0, 0.8, 0, 0, 0, 0, 0), seed=9)
    null = fit_logistic(data, predictors=(), random_intercepts=())
    full = fit_logistic(data, predictors=("nxtwS_tgt",), random_intercepts=())
    assert full.aic < null.aic
    report = compare_models(null, full)
    assert report["delta_aic"] < 0.0
    assert report["preferred"] == "b"


def test_compare_models_identical_and_mismatched():
    data = simulate_observations(300, (-2.0, 0.5, 0, 0, 0, 0, 0), seed=6)
    fit = fit_logistic(data, random_intercepts=())
    same = compare_models(fit, fit)
    assert same["delta_aic"] == 0.0
    assert same["delta_c"] == 0.0
    assert same["preferred"] == "a"

    other = dataclasses.replace(fit, n_obs=fit.n_obs + 1)
    with pytest.raises(ValueError, match="different data"):
        compare_models(fit, other)


def test_compare_models_prefers_lower_aic():
    data = simulate_observations(300, (-2.0, 0.5, 0, 0, 0, 0, 0), seed=6)
    fit = fit_logistic(data, random_intercepts=())
    a = dataclasses.replace(fit, aic=11359.0, c=0.6994)
    b = dataclasses.replace(fit, aic=11473.0, c=0.686)
    report = compare_models(a, b)
    assert report["preferred"] == "a"
    assert report["delta_aic"] == pytest.approx(114.0)


# ---------------------------------------------------------------- concordance

def test_concordance_trivial_cases():
    assert concordance([0.9, 0.1], [1, 0]) == 1.0
    assert concordance([0.1, 0.9], [1, 0]) == 0.0
    assert concordance([0.4] * 6, [0, 1, 0, 1, 1, 0]) == 0.5
    with pytest.raises(ValueError, match="both outcome classes"):
        concordance([0.2, 0.3], [1, 1])


def test_concordance_matches_brute_force():
    rng = np.random.default_rng(77)
    # coarse grid forces plenty of ties
    probs = rng.choice(np.linspace(0.0, 1.0, 11), size=200)
    outcomes = (rng.random(200) < 0.4).astype(int)
    fast = concordance(probs, outcomes)

    num = 0.0
    den = 0
    for i in range(200):
        for j in range(200):
            if outcomes[i] == 1 and outcomes[j] == 0:
                den += 1
                if probs[i] > probs[j]:
                    num += 1.0
                elif probs[i] == probs[j]:
                    num += 0.5
    assert fast == pytest.approx(num / den, abs=1e-9)


def test_concordance_invariant_under_monotone_transform():
    rng = np.random.default_rng(13)
    probs = rng.random(150)
    outcomes = (rng.random(150) < 0.5).astype(int)
    base = concordance(probs, outcomes)
    assert concordance(probs ** 3, outcomes) == pytest.approx(base, abs=1e-12)
    assert concordance(1.0 / (1.0 + np.exp(-(5.0 * probs - 2.0))),
                       outcomes) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------- zscore

def test_zscore_population_normalization():
    z = zscore([1.0, 2.0, 3.0, 4.0], "x")
    assert abs(z.mean()) < 1e-12
    assert z.std() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="constant"):
        zscore([2.0, 2.0, 2.0], "x")


# ---------------------------------------------------------------- dataset build

def _src_id(seg, word):
    return ItemId("ORG", "SP", "DE", "EN", "001", seg, word)


def _tgt_id(seg, word, sub=None):
    return ItemId("SI", "SP", "DE", "EN", "001", seg, word, sub)


def _src(seg, word, srp):
    return WordRow(word_id=_src_id(seg, word), token=f"s{word}",
                   srp_base_gpt2=srp, doc_id="001", seg_id=seg,
                   lang="DE", speaker_id="fDE1")


def _tgt(seg, word, token, lm=None, mt=None, aligned=None, pos=None, sub=None):
    return WordRow(word_id=_tgt_id(seg, word, sub), token=token, pos=pos,
                   srp_base_gpt2=lm, srp_base_mt=mt,
                   aligned_word_id=aligned, doc_id="001", seg_id=seg,
                   lang="EN", speaker_id="fEN3")


def test_build_fp_dataset_outcomes_and_eligibility():
    src_rows = [
        _src("01", "001", 2.0),
        _src("01", "002", 4.0),
        _src("01", "003", None),
        _src("02", "001", 6.0),
    ]
    sid = lambda seg, word: str(_src_id(seg, word))

    tgt_rows = [
        _tgt("01", "001", "euh", pos="FP"),
        _tgt("01", "002", "It's", lm=1.0, mt=2.0, aligned=[sid("01", "001")]),
        _tgt("01", "002", "It", sub="1"),
        _tgt("01", "002", "'s", sub="2"),
        _tgt("01", "003", "all", lm=3.0, mt=1.5,
             aligned=[sid("01", "001"), sid("01", "002")]),
        _tgt("01", "004", "very", lm=6.0, mt=2.5, aligned=None),
        _tgt("01", "005", "hm", pos="FP"),
        _tgt("01", "006", "good", lm=2.5, mt=0.5, aligned=[sid("01", "003")]),
        _tgt("01", "007", "stuff", lm=None, mt=3.0, aligned=[sid("01", "001")]),
        _tgt("01", "008", "here", lm=4.0, mt=2.0, aligned=[sid("01", "002")]),
        _tgt("01", "009", "euh", pos="FP"),
        _tgt("02", "001", "But", lm=5.0, mt=7.0, aligned=[sid("02", "001")]),
        _tgt("02", "002", "still", lm=1.0, mt=4.0, aligned=[sid("02", "001")]),
    ]

    data = build_fp_dataset(tgt_rows, src_rows, "DE-EN", variant="base")

    # excluded: FP rows, expansions, the unaligned word, the null-lm word,
    # and the word whose only aligned source has no surprisal
    assert len(data) == 5
    assert [o.outcome for o in data] == [1, 0, 0, 0, 0]
    assert all(o.direction == "DE-EN" for o in data)
    assert data[0].speaker_id == "fEN3"
    assert data[0].doc_id == "001"

    # seg 02 starts fresh: trailing FP of seg 01 never leaks across
    assert data[3].outcome == 0

    avs_mt_01 = np.mean([2.0, 1.5, 2.5, 0.5, 3.0, 2.0])
    expected = {
        "nxtwS_tgt": [1.0, 3.0, 4.0, 5.0, 1.0],
        "nxtwS_src": [2.0, 3.0, 4.0, 6.0, 6.0],
        "nxtwS_mt": [2.0, 1.5, 2.0, 7.0, 4.0],
        "AvS_tgt": [3.3, 3.3, 3.3, 3.0, 3.0],
        "AvS_src": [3.0, 3.0, 3.0, 6.0, 6.0],
        "AvS_mt": [avs_mt_01, avs_mt_01, avs_mt_01, 5.5, 5.5],
    }
    for name, raw in expected.items():
        want = zscore(raw, name)
        got = [getattr(o, name) for o in data]
        assert got == pytest.approx(want.tolist(), abs=1e-12), name


def test_build_fp_dataset_empty_and_constant():
    assert build_fp_dataset([], [], "DE-EN") == []

    # two clones of the same segment leave every predictor constant
    src_rows = [_src("01", "001", 2.0)]
    tgt_rows = [
        _tgt("01", "001", "word", lm=1.0, mt=2.0, aligned=[str(_src_id("01", "001"))]),
        _tgt("01", "002", "word", lm=1.0, mt=2.0, aligned=[str(_src_id("01", "001"))]),
    ]
    with pytest.raises(ValueError, match="constant"):
        build_fp_dataset(tgt_rows, src_rows, "DE-EN")


def test_build_fp_dataset_ft_variant_reads_ft_columns():
    src_rows = [_src("01", "001", 2.0), _src("02", "001", 9.0)]
    src_rows[0].srp_ft_gpt2 = 3.5
    src_rows[1].srp_ft_gpt2 = 7.0
    tgt_rows = []
    for w, (seg, lm, mt) in enumerate(
            [("01", 1.0, 2.0), ("01", 4.0, 5.0), ("02", 2.0, 8.0)], start=1):
        row = _tgt(seg, f"{w:03d}", "tok", aligned=[str(_src_id(seg, "001"))])
        row.srp_ft_gpt2 = lm
        row.srp_ft_mt = mt
        tgt_rows.append(row)
    data = build_fp_dataset(tgt_rows, src_rows, "DE-EN", variant="ft")
    assert len(data) == 3
    raw_tgt = zscore([1.0, 4.0, 2.0], "nxtwS_tgt")
    assert [o.nxtwS_tgt for o in data] == pytest.approx(raw_tgt.tolist())


# ---------------------------------------------------------------- pinned fits

# Fits of simulate_observations(3000, FIT_BETA, n_groups=40, seed=0) by the
# dense-indicator implementation that the group-code fit replaced.  The
# variance search stops at xatol=1e-6 on log sigma^2, so variances and SEs
# are pinned to 1e-5 relative, everything else to 1e-6.
FIT_BETA = (-1.2, 0.5, -0.4, 0.3, -0.25, 0.2, -0.15)

PINNED_FITS = {
    ("speaker_id",): {
        "coefficients": {
            "intercept": -1.1404721632755992, "nxtwS_tgt": 0.5754127040872412,
            "nxtwS_src": -0.4380561189237429, "nxtwS_mt": 0.3044004326099729,
            "AvS_tgt": -0.2304303653879107, "AvS_src": 0.15471339735145598,
            "AvS_mt": -0.11081805403851226},
        "std_errors": {
            "intercept": 0.06005302723448368, "nxtwS_tgt": 0.04658014250651974,
            "nxtwS_src": 0.04578713936479367, "nxtwS_mt": 0.04468818420436837,
            "AvS_tgt": 0.044312099361847886, "AvS_src": 0.04452908621507107,
            "AvS_mt": 0.0439066500627226},
        "variances": {"speaker_id": 0.05764326107537843},
        "loglik": -1576.3412647731616, "aic": 3168.682529546323,
        "c": 0.7266770221939481,
    },
    ("speaker_id", "doc_id"): {
        "coefficients": {
            "intercept": -1.1474036312579228, "nxtwS_tgt": 0.5751562406891763,
            "nxtwS_src": -0.4386871171982762, "nxtwS_mt": 0.30369347328088386,
            "AvS_tgt": -0.22802923263890607, "AvS_src": 0.15676506812179375,
            "AvS_mt": -0.11101255407365966},
        "std_errors": {
            "intercept": 0.0862898151765766, "nxtwS_tgt": 0.046582976716029505,
            "nxtwS_src": 0.045807144189861204, "nxtwS_mt": 0.04470746281375786,
            "AvS_tgt": 0.04430971464782747, "AvS_src": 0.04452283809656265,
            "AvS_mt": 0.04387577732895426},
        "variances": {"speaker_id": 0.02274393728941085,
                      "doc_id": 0.03283019334897171},
        "loglik": -1574.1687423051733, "aic": 3166.3374846103466,
        "c": 0.7250180397481404,
    },
}


def test_hessian_matches_dense_indicator_reference():
    data = simulate_observations(300, FIT_BETA, n_groups=12, seed=2)
    X, y, codes, sizes = fp._design(data, PREDICTORS, ("speaker_id", "doc_id"))
    n, q = len(y), sum(sizes)
    assert sizes == [len({o.speaker_id for o in data}), len({o.doc_id for o in data})]
    Z = np.zeros((n, q))  # the indicator matrix the codes stand for
    for c in codes:
        Z[np.arange(n), c] = 1.0
    rng = np.random.default_rng(0)
    w = rng.uniform(0.05, 0.25, n)
    d = rng.uniform(0.5, 3.0, q)
    beta = rng.normal(size=X.shape[1])
    u = rng.normal(size=q)
    Xw = X * w[:, None]
    dense = np.block([[X.T @ Xw, Xw.T @ Z],
                      [Z.T @ Xw, Z.T @ (Z * w[:, None]) + np.diag(d)]])
    np.testing.assert_allclose(fp._hessian(X, codes, w, d), dense,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fp._linear_predictor(X, codes, beta, u),
                               X @ beta + Z @ u, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("factors", list(PINNED_FITS), ids="+".join)
def test_fit_matches_pinned_dense_fit(factors):
    want = PINNED_FITS[factors]
    data = simulate_observations(3000, FIT_BETA, n_groups=40, seed=0)
    fit = fit_logistic(data, random_intercepts=factors)
    assert fit.coefficients == pytest.approx(want["coefficients"], rel=1e-6)
    assert fit.std_errors == pytest.approx(want["std_errors"], rel=1e-5)
    assert fit.variances == pytest.approx(want["variances"], rel=1e-5)
    for key in ("loglik", "aic", "c"):
        assert getattr(fit, key) == pytest.approx(want[key], rel=1e-6), key
        assert type(getattr(fit, key)) is float, key


@pytest.mark.parametrize("factors", [(), ("speaker_id",), ("speaker_id", "doc_id")],
                         ids=lambda f: "+".join(f) or "none")
def test_reduced_hessian_matches_dense_algebra(factors):
    data = simulate_observations(300, FIT_BETA, n_groups=12, seed=2)
    X, y, codes, sizes = fp._design(data, PREDICTORS, factors)
    p, q = X.shape[1], sum(sizes)
    rng = np.random.default_rng(1)
    w = rng.uniform(0.05, 0.25, len(y))
    d = rng.uniform(0.5, 3.0, q)
    H = fp._hessian(X, codes, w, d)
    g = rng.normal(size=p + q)
    reduced = fp._Reduced(H, p, sizes[0] if sizes else 0)
    np.testing.assert_allclose(reduced.solve(g), np.linalg.solve(H, g),
                               rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(reduced.fixed_cov(), np.linalg.inv(H)[:p, :p],
                               rtol=1e-10, atol=1e-12)
    want = np.linalg.slogdet(H[p:, p:])[1]
    assert reduced.logdet_uu() == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_design_read_sets_off_no_collection_of_older_objects():
    data = simulate_observations(20000, FIT_BETA, n_groups=40, seed=0)
    gc.collect()
    before = [s["collections"] for s in gc.get_stats()]
    fp._design(data, PREDICTORS, ("speaker_id", "doc_id"))
    after = [s["collections"] for s in gc.get_stats()]
    # a pass over generation 1 or 2 walks objects the caller already held
    assert after[1:] == before[1:]


def test_softplus_matches_logaddexp():
    rng = np.random.default_rng(0)
    edges = np.array([0.0, 1e-300, 36.7, 709.0, 745.0, 800.0, np.inf])
    eta = np.concatenate([rng.normal(size=100_000), edges, -edges])
    np.testing.assert_array_max_ulp(fp._softplus(eta), np.logaddexp(0.0, eta),
                                    maxulp=2)


def test_pirls_started_at_its_optimum_stops_at_once():
    data = simulate_observations(3000, FIT_BETA, n_groups=40, seed=0)
    X, y, codes, sizes = fp._design(data, PREDICTORS, ("speaker_id", "doc_id"))
    d = np.repeat([1.0 / 0.05, 1.0 / 0.03], sizes)
    tol = 1e-9
    beta, u, trace = fp._pirls(X, y, codes, d, sizes[0], 200, tol)
    beta2, u2, trace2 = fp._pirls(X, y, codes, d, sizes[0], 200, tol,
                                  start=(beta, u))
    assert len(trace2) <= 2 < len(trace)
    np.testing.assert_allclose(beta2, beta, rtol=0, atol=tol)
    np.testing.assert_allclose(u2, u, rtol=0, atol=tol)


# Newton steps (len(trace), summed over the _pirls runs) of one fit_logistic
# on the pinned sample when every PIRLS run started cold
COLD_START_STEPS = {("speaker_id",): 96, ("speaker_id", "doc_id"): 1596}


@pytest.mark.parametrize("factors", list(COLD_START_STEPS), ids="+".join)
def test_warm_start_cuts_newton_steps(factors, monkeypatch):
    steps = []
    pirls = fp._pirls

    def counting(*args, **kwargs):
        beta, u, trace = pirls(*args, **kwargs)
        steps.append(len(trace))
        return beta, u, trace

    monkeypatch.setattr(fp, "_pirls", counting)
    data = simulate_observations(3000, FIT_BETA, n_groups=40, seed=0)
    fit_logistic(data, random_intercepts=factors)
    assert sum(steps) <= COLD_START_STEPS[factors] * 2 / 3


def test_fit_repeats_exactly():
    # the warm start keeps no state between calls
    data = simulate_observations(3000, FIT_BETA, n_groups=40, seed=0)
    a, b = fit_logistic(data), fit_logistic(data)
    assert (a.coefficients, a.std_errors, a.variances, a.aic, a.c) == \
        (b.coefficients, b.std_errors, b.variances, b.aic, b.c)
