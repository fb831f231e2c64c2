"""Mechanism behaviour: draw order, zero-noise exactness, clipping, privacy smoke test."""

import math

import numpy as np
import pytest
import scipy.stats

from bezier_dp import (
    COVARIANCE_RANGE,
    VARIANCE_RANGE,
    Dataset,
    DomainError,
    MECHANISM_IDS,
    NoiseRows,
    NoiseSource,
    PreparedMechanism,
    ReplayExhaustedError,
    UndefinedStatisticError,
    basis_spec,
    bezier_release,
    correlation_exact,
    covariance_exact,
    derive_seeds,
    derive_substream,
    laplace_rows,
    moments_unnormalized,
    prepare,
    prepare_moment_release,
    variance_exact,
)
from bezier_dp.bernstein import bernstein_aggregate, tensor_apply_inverse
from bezier_dp import mechanisms, stats
from bezier_dp.mechanisms import REGISTRY
from bezier_dp.stats import (
    CENTERED_FOURTH_RANGE,
    CENTERED_THIRD_RANGE,
    centered_moment_exact,
    ratio_covariance,
    ratio_variance,
)

X3 = Dataset([0.2, 0.4, 0.9])  # n=3, sum=1.5, sum of squares=1.01
PAIRS3 = Dataset([[0.1, 0.3], [0.5, 0.9], [1.0, 0.2]])  # sx=1.6 sy=1.4 sxy=0.68

_VARCOV_IDS = (
    "swap_variance",
    "swap_covariance",
    "naive_variance",
    "naive_covariance",
    "improved_variance",
    "improved_covariance",
    "bezier_variance",
    "bezier_covariance",
    "variance_via_covariance",
    "transformed_variance",
)
_CORR_IDS = ("correlation_bezier", "correlation_composed", "correlation_naive")
# moments beyond the variance, with the degree of their basis release
_BEYOND_VARIANCE_IDS = {
    "bezier_skewness": 3,
    "bezier_kurtosis": 4,
    "bezier_centered_moment_3": 3,
    "bezier_centered_moment_4": 4,
}


def _random_dataset(rng, d):
    n = int(rng.integers(1, 60))
    return Dataset(rng.uniform(0.0, 1.0, (n, d)))


# ---------------------------------------------------------------------------
# zero-noise exactness
# ---------------------------------------------------------------------------

def test_zero_noise_reproduces_exact_statistic_bitwise():
    # every registry id, moment_release at k = 3, j = 2.  The four moments
    # beyond the variance are the exception: a release can only compute
    # them from power sums, while the exact statistic is a two-pass over
    # the records, so they agree to rounding only (see `mechanisms`)
    rng = np.random.default_rng(101)
    for _ in range(100):
        data = {d: _random_dataset(rng, d) for d in (1, 2)}
        for mid, spec in REGISTRY.items():
            kw = {"moment_k": 3, "moment_j": 2} if spec.params is not None else {}
            prep = prepare(mid, data[spec.d], **kw)
            if prep.exact_value is None:  # a correlation or skewness of one record
                continue
            got = prep.run_value(1.0, NoiseSource.zero())
            if mid in _BEYOND_VARIANCE_IDS:
                assert got == pytest.approx(prep.exact_value, rel=1e-9, abs=1e-12), mid
            else:
                assert got == prep.exact_value, (mid, data[spec.d].n)


def test_zero_noise_correlation_pipelines_close():
    rng = np.random.default_rng(102)
    for _ in range(20):
        n = int(rng.integers(3, 80))
        x = rng.uniform(0, 1, n)
        y = np.clip(0.6 * x + 0.4 * rng.uniform(0, 1, n), 0.0, 1.0)
        data = Dataset(np.column_stack([x, y]))
        want = correlation_exact(data)
        for mid in _CORR_IDS:
            got = prepare(mid, data).run_value(1.0, NoiseSource.zero())
            assert got == want, mid  # bit for bit, as the variances are


def test_zero_noise_moment_release_recovers_power_sums():
    rng = np.random.default_rng(103)
    x = rng.uniform(0, 1, 50)
    data = Dataset(x)
    for k in (1, 2, 3, 5):
        mu = bezier_release(data, k, 1, 1.0, NoiseSource.zero())
        want = [float(np.sum(x**j)) for j in range(k + 1)]
        want[0] = 50.0
        assert mu == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# draw order and counts, pinned with replay sources
# ---------------------------------------------------------------------------

def test_records_on_one_dataset_share_exact_statistic_and_power_sums(monkeypatch):
    # the variance records bound to one dataset make one variance and one
    # degree-2 power-sum pass; moment:8:4 one degree-8 pass for its sums and
    # its exact value; records that pick cells get the unshared bits
    calls = []
    real_sums, real_variances = mechanisms.power_sums, stats.variances
    monkeypatch.setattr(mechanisms, "power_sums", lambda v, k: calls.append(k) or real_sums(v, k))
    monkeypatch.setattr(stats, "variances", lambda v: calls.append("var") or real_variances(v))
    rng = np.random.default_rng(29)
    data = Dataset(rng.random((50, 1)))
    for mid in REGISTRY:
        if REGISTRY[mid].statistic == "variance":
            prepare(mid, data)
    assert calls == ["var", 2]
    calls.clear()
    p = prepare("moment_release", data, moment_k=8, moment_j=4)
    assert calls == [8] and p.exact_value == float(real_sums(data.values, 8)[4])
    pair = Dataset(rng.random((50, 2)))
    for mid, k, cells in (
        ("naive_covariance", 1, mechanisms._BASIS_COV), ("bezier_covariance", 1, None),
        ("correlation_naive", 2, mechanisms._BASIS_CORR), ("correlation_bezier", 2, None),
    ):
        got = prepare(mid, pair)._sums.T
        assert got.tobytes() == real_sums(pair.values, k, cells).tobytes(), mid


def test_swap_draw_and_scaling():
    est = prepare("swap_variance", X3).run(1.0, NoiseSource.replay([0.09]))
    want = variance_exact(X3) + 0.09 / 3.0
    assert est.value == want
    assert est.clip_applied is None  # unclipped
    assert est.noisy_aggregates == {"stat~": want}


def _sums1(data):
    """(count, sum x, sum x^2) exactly as the univariate mechanisms compute them."""
    s = moments_unnormalized(data, 2)
    return float(s[0]), float(s[1]), float(s[2])


def _sums2(data):
    """(count, sum x, sum y, sum xy) exactly as the bivariate mechanisms do."""
    x, y = data.column(0), data.column(1)
    return float(data.n), float(np.sum(x)), float(np.sum(y)), float(np.sum(x * y))


def test_naive_variance_draw_order():
    n, s1, s2 = _sums1(X3)
    z = [1.0, 2.0, 3.0]  # order: count, sum x, sum x^2
    est = prepare("naive_variance", X3).run(1.0, NoiseSource.replay(z))
    assert est.value == ratio_variance(n + 1.0, s1 + 2.0, s2 + 3.0)
    assert est.noisy_aggregates == {"n~": n + 1.0, "s_x~": s1 + 2.0, "s_x2~": s2 + 3.0}


def test_naive_covariance_draw_order():
    n, sx, sy, sxy = _sums2(PAIRS3)
    z = [0.1, -0.2, 0.3, 0.05]  # order: count, sum x, sum y, sum xy
    est = prepare("naive_covariance", PAIRS3).run(1.0, NoiseSource.replay(z))
    assert est.value == ratio_covariance(n + 0.1, sx + -0.2, sy + 0.3, sxy + 0.05)
    assert est.noisy_aggregates["s_x~"] == pytest.approx(1.4)
    assert est.noisy_aggregates["s_y~"] == pytest.approx(1.7)


def test_improved_draw_order():
    v = variance_exact(X3)
    z = [0.5, 0.1]  # order: count, unnormalized statistic
    est = prepare("improved_variance", X3).run(1.0, NoiseSource.replay(z))
    assert est.value == v + (0.1 - v * 0.5) / 3.5
    assert est.noisy_aggregates["n~"] == 3.5
    assert est.noisy_aggregates["u~"] == pytest.approx(3.0 * v + 0.1)
    # a large negative draw on the unnormalized cell clips to the floor
    low = prepare("improved_variance", X3).run(1.0, NoiseSource.replay([0.5, -0.3]))
    assert low.value == 0.0


def test_bezier_variance_cell_mapping():
    # cells in basis order; their count/sum/square images follow the exact
    # inverse matrix rows (1,1,1), (0,1/2,1), (0,0,1)
    n, s1, s2 = _sums1(X3)
    a, b, c = 0.3, -0.4, 0.12
    est = prepare("bezier_variance", X3).run(1.0, NoiseSource.replay([a, b, c]))
    nn = n + (a + b + c)
    sx = s1 + (0.5 * b + c)
    sq = s2 + c
    assert est.value == ratio_variance(nn, sx, sq)
    assert est.noisy_aggregates["n~"] == nn
    assert est.noisy_aggregates["s_x~"] == sx
    assert est.noisy_aggregates["s_x2~"] == sq
    # basis cells themselves: b0 = n - 2 s1 + s2, b1 = 2(s1 - s2), b2 = s2
    assert est.noisy_aggregates["b_0~"] == pytest.approx(n - 2 * s1 + s2 + a)
    assert est.noisy_aggregates["b_1~"] == pytest.approx(2.0 * (s1 - s2) + b)
    assert est.noisy_aggregates["b_2~"] == pytest.approx(s2 + c)


def test_bezier_covariance_cell_mapping_matches_tensor_inverse():
    n, sx, sy, sxy = _sums2(PAIRS3)
    z = np.array([0.1, -0.2, 0.3, 0.05])  # cells (0,0), (0,1), (1,0), (1,1)
    est = prepare("bezier_covariance", PAIRS3).run(1.0, NoiseSource.replay(list(z)))
    nn = n + (z[0] + z[1] + z[2] + z[3])
    ax = sx + (z[2] + z[3])
    ay = sy + (z[1] + z[3])
    axy = sxy + z[3]
    assert est.value == ratio_covariance(nn, ax, ay, axy)
    # independent route: invert the noisy 2x2 tensor aggregate directly
    cells = bernstein_aggregate(PAIRS3.values, 1) + z
    mu = tensor_apply_inverse(1, 2, cells)  # order: n, sum y, sum x, sum xy
    assert mu == pytest.approx([nn, ay, ax, axy], rel=1e-12)


def test_variance_via_covariance_duplicates_column():
    n, s1, s2 = _sums1(X3)
    z = [0.1, -0.2, 0.3, 0.05]
    est = prepare("variance_via_covariance", X3).run(1.0, NoiseSource.replay(z))
    nn = n + (z[0] + z[1] + z[2] + z[3])
    ax = s1 + (z[2] + z[3])
    ay = s1 + (z[1] + z[3])
    axy = s2 + z[3]
    assert est.value == ratio_covariance(nn, ax, ay, axy)
    assert est.clip_applied == VARIANCE_RANGE
    # noise pushing the inner covariance negative clips to the variance floor
    low = prepare("variance_via_covariance", X3).run(1.0, NoiseSource.replay([0, 0, 0, -5.0]))
    assert low.value == 0.0


def test_transformed_variance_cells():
    v = variance_exact(X3)
    z = [0.4, -0.1]  # cells: n - u, u
    est = prepare("transformed_variance", X3).run(1.0, NoiseSource.replay(z))
    zt = 0.4 + -0.1
    assert est.value == v + (-0.1 - v * zt) / (3.0 + zt)
    assert est.noisy_aggregates["b_0~"] == pytest.approx(3.0 - 3.0 * v + 0.4)
    assert est.noisy_aggregates["u~"] == pytest.approx(3.0 * v - 0.1)


def test_moment_release_replay_matches_manual_inverse():
    agg = bernstein_aggregate(X3.values, 2)
    z = np.array([0.3, -0.1, 0.2])
    est = prepare_moment_release(X3, 2, 1).run(1.0, NoiseSource.replay(list(z)))
    noisy = [est.noisy_aggregates[f"b_{j}~"] for j in range(3)]
    assert noisy == pytest.approx(agg + z, rel=1e-15)
    nb = agg + z
    want = [nb[0] + nb[1] + nb[2], 0.5 * nb[1] + nb[2], nb[2]]
    assert est.value == pytest.approx(want, rel=1e-12)
    assert [est.noisy_aggregates[f"mu_{j}~"] for j in range(3)] == list(est.value)


def test_correlation_naive_draw_order():
    z = [0.0, 0.0, 0.0, 0.0, 0.0, 0.3]  # only the xy sum perturbed
    est = prepare("correlation_naive", PAIRS3).run(1.0, NoiseSource.replay(z))
    vx = ratio_variance(3.0, 1.6, float(np.sum(PAIRS3.column(0) ** 2)))
    vy = ratio_variance(3.0, 1.4, float(np.sum(PAIRS3.column(1) ** 2)))
    c = ratio_covariance(3.0, 1.6, 1.4, 0.98)
    assert est.value == pytest.approx(c / math.sqrt(vx * vy))
    assert est.noisy_aggregates["s_xy~"] == pytest.approx(0.98)


def test_draw_counts():
    expected = {
        "swap_variance": 1,
        "swap_covariance": 1,
        "naive_variance": 3,
        "naive_covariance": 4,
        "improved_variance": 2,
        "improved_covariance": 2,
        "bezier_variance": 3,
        "bezier_covariance": 4,
        "variance_via_covariance": 4,
        "transformed_variance": 2,
        "correlation_bezier": 9,
        "correlation_composed": 10,
        "correlation_naive": 6,
        **{mid: k + 1 for mid, k in _BEYOND_VARIANCE_IDS.items()},
    }
    for mid, n_draws in expected.items():
        data = PAIRS3 if ("covariance" in mid or "correlation" in mid) else X3
        data = X3 if mid == "variance_via_covariance" else data
        src = NoiseSource.seeded(7)
        prepare(mid, data).run_value(1.0, src)
        assert src.draws == n_draws, mid
    src = NoiseSource.seeded(7)
    prepare("moment_release", X3, moment_k=4, moment_j=2).run_value(1.0, src)
    assert src.draws == 5


def test_replay_budget_exhaustion():
    with pytest.raises(ReplayExhaustedError):
        prepare("bezier_covariance", PAIRS3).run(1.0, NoiseSource.replay([0.1, 0.2]))
    with pytest.raises(ReplayExhaustedError):
        prepare("correlation_composed", PAIRS3).run(1.0, NoiseSource.replay([0.0] * 9))


# ---------------------------------------------------------------------------
# clipping and degenerate counts
# ---------------------------------------------------------------------------

def test_clipping_to_attainable_ranges():
    # deflating the middle cell shrinks count and sum but not the square sum,
    # so the variance ratio blows past its ceiling
    est = prepare("bezier_variance", X3).run(1.0, NoiseSource.replay([0.0, -2.8, 0.0]))
    assert est.value == VARIANCE_RANGE.hi
    est = prepare("bezier_variance", X3).run(1.0, NoiseSource.replay([-2.0, 0.0, 0.0]))
    assert est.value == VARIANCE_RANGE.lo
    est = prepare("naive_variance", X3).run(1.0, NoiseSource.replay([0.0, 0.0, -50.0]))
    assert est.value == VARIANCE_RANGE.lo
    est = prepare("bezier_covariance", PAIRS3).run(1.0, NoiseSource.replay([0.0, -1.3, -1.3, 1.3]))
    assert est.value == COVARIANCE_RANGE.hi
    est = prepare("bezier_covariance", PAIRS3).run(1.0, NoiseSource.replay([-2.0, 0.0, 0.0, 0.0]))
    assert est.value == COVARIANCE_RANGE.lo
    est = prepare("correlation_naive", PAIRS3).run(1.0, NoiseSource.replay([0, 0, 0, 0, 0, 9.0]))
    assert est.value == 1.0


def test_degenerate_noisy_count_returns_midpoint():
    z = [-1.0, -1.0, -1.0]  # count lands exactly on zero
    est = prepare("bezier_variance", X3).run(1.0, NoiseSource.replay(z))
    assert est.value == 0.125
    est = prepare("naive_covariance", PAIRS3).run(1.0, NoiseSource.replay([-3.0, 0, 0, 0]))
    assert est.value == 0.0
    est = prepare("variance_via_covariance", X3).run(1.0, NoiseSource.replay([-3.0, 0, 0, 0]))
    assert est.value == 0.0  # inner covariance midpoint, re-clipped
    # empty dataset, zero noise: improved falls back to the midpoint
    prep = prepare("improved_variance", Dataset.empty(1))
    assert prep.exact_value is None
    assert prep.run_value(1.0, NoiseSource.zero()) == 0.125


def test_degenerate_variance_product_gives_zero_correlation():
    flat = Dataset([[0.5, 0.2], [0.5, 0.8]])  # zero x-variance
    for mid in _CORR_IDS:
        prep = prepare(mid, flat)
        assert prep.exact_value is None
        assert prep.run_value(1.0, NoiseSource.zero()) == 0.0


def test_seeded_outputs_stay_in_clip_range():
    rng = np.random.default_rng(104)
    uni = Dataset(rng.uniform(0, 1, 40))
    biv = Dataset(rng.uniform(0, 1, (40, 2)))
    for mid in _VARCOV_IDS:
        if mid.startswith("swap"):
            continue  # unclipped by default
        data = biv if "covariance" in mid and mid != "variance_via_covariance" else uni
        prep = prepare(mid, data)
        lo, hi = prep.clip_range
        for t in range(200):
            val = prep.run_value(0.2, derive_substream(9, t, 0))
            assert lo <= val <= hi, mid


# ---------------------------------------------------------------------------
# moments beyond the variance and custom basis records
# ---------------------------------------------------------------------------

def test_skewness_kurtosis_zero_noise_vs_scipy():
    rng = np.random.default_rng(105)
    x = rng.uniform(0, 1, 300)
    data = Dataset(x)
    est = prepare("bezier_skewness", data).run(1.0, NoiseSource.zero())
    assert est.value == pytest.approx(float(scipy.stats.skew(x)), abs=1e-9)
    assert est.mechanism_id == "bezier_skewness"
    est = prepare("bezier_kurtosis", data).run(1.0, NoiseSource.zero())
    assert est.value == pytest.approx(
        float(scipy.stats.kurtosis(x, fisher=False)), abs=1e-9
    )


def test_centered_moment_records():
    rng = np.random.default_rng(106)
    x = rng.uniform(0, 1, 200)
    data = Dataset(x)
    for order, clip_range in ((3, CENTERED_THIRD_RANGE), (4, CENTERED_FOURTH_RANGE)):
        est = prepare(f"bezier_centered_moment_{order}", data).run(1.0, NoiseSource.zero())
        assert est.value == pytest.approx(centered_moment_exact(data, order), abs=1e-9)
        assert est.clip_applied == clip_range
    with pytest.raises(DomainError):
        prepare("bezier_centered_moment_2", data)


def test_custom_basis_spec_audit_trail():
    # a user-defined statistic on one degree-2, dimension-2 release: the mean
    # of x*y, recovered sum (1, 1) over the count
    spec = basis_spec(2, 2, id="mean_xy", statistic=None, post=lambda s, mu: mu[4] / mu[0])
    est = PreparedMechanism(spec, Dataset([[0.2, 0.8], [0.6, 0.4], [0.9, 0.9]])).run(
        1.0, NoiseSource.zero()
    )
    # 9 basis cells + 9 recovered power sums
    assert len(est.noisy_aggregates) == 18
    assert "b_{0,0}~" in est.noisy_aggregates
    assert est.noisy_aggregates["mu_{0,0}~"] == pytest.approx(3.0)
    assert est.noisy_aggregates["mu_{1,1}~"] == pytest.approx(
        float(np.sum([0.2 * 0.8, 0.6 * 0.4, 0.9 * 0.9])), rel=1e-12
    )
    assert est.value == pytest.approx(est.noisy_aggregates["mu_{1,1}~"] / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# interface contracts
# ---------------------------------------------------------------------------

# `--show-aggregates` prints these keys in this order
_B2 = ["b_{0,0}~", "b_{0,1}~", "b_{1,0}~", "b_{1,1}~"]
_TRAIL_KEYS = {
    "swap_variance": ["stat~"],
    "swap_covariance": ["stat~"],
    "naive_variance": ["n~", "s_x~", "s_x2~"],
    "naive_covariance": ["n~", "s_x~", "s_y~", "s_xy~"],
    "improved_variance": ["n~", "u~"],
    "improved_covariance": ["n~", "u~"],
    "bezier_variance": ["b_0~", "b_1~", "b_2~", "n~", "s_x~", "s_x2~"],
    "bezier_covariance": _B2 + ["n~", "s_x~", "s_y~", "s_xy~"],
    "variance_via_covariance": _B2 + ["n~", "s_x~", "s_y~", "s_xy~"],
    "transformed_variance": ["b_0~", "b_1~", "n~", "u~"],
    "correlation_bezier": [
        f"{p}_{{{a},{b}}}~" for p in ("b", "mu") for a in range(3) for b in range(3)
    ],
    "correlation_composed": ["c~", "v_x~", "v_y~"],
    "correlation_naive": ["n~", "s_x~", "s_y~", "s_x2~", "s_y2~", "s_xy~"],
    "moment_release": ["b_0~", "b_1~", "b_2~", "mu_0~", "mu_1~", "mu_2~"],
    **{
        mid: [f"{p}_{j}~" for p in ("b", "mu") for j in range(k + 1)]
        for mid, k in _BEYOND_VARIANCE_IDS.items()
    },
}


@pytest.mark.parametrize("mid", sorted(_TRAIL_KEYS))
def test_noisy_aggregate_keys_and_order(mid):
    two_col = mid in _CORR_IDS or ("covariance" in mid and mid != "variance_via_covariance")
    kw = {"moment_k": 2, "moment_j": 1} if mid == "moment_release" else {}
    est = prepare(mid, PAIRS3 if two_col else X3, **kw).run(1.0, NoiseSource.seeded(3))
    assert list(est.noisy_aggregates) == _TRAIL_KEYS[mid]


def test_trail_keys_cover_every_mechanism():
    assert set(_TRAIL_KEYS) == set(MECHANISM_IDS)


def test_prepare_registry_and_validation():
    ids = _VARCOV_IDS + _CORR_IDS + ("moment_release",) + tuple(_BEYOND_VARIANCE_IDS)
    assert set(ids) == set(MECHANISM_IDS)
    with pytest.raises(DomainError):
        prepare("no_such_mechanism", X3)
    with pytest.raises(DomainError):
        prepare("moment_release", X3)  # needs moment_k and moment_j
    with pytest.raises(DomainError):
        prepare("moment_release", X3, moment_k=2, moment_j=3)
    with pytest.raises(DomainError):
        prepare("naive_covariance", X3)  # d=1 data
    with pytest.raises(DomainError):
        prepare("transformed_variance", PAIRS3)
    with pytest.raises(UndefinedStatisticError):
        prepare("swap_variance", Dataset.empty(1))


def test_epsilon_validation():
    prep = prepare("bezier_variance", X3)
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            prep.run_value(bad, NoiseSource.zero())
        with pytest.raises(DomainError):
            prep.run(bad, NoiseSource.zero())


def test_run_and_run_value_agree_on_same_substream():
    prep = prepare("bezier_covariance", PAIRS3)
    for t in range(5):
        a = prep.run_value(0.7, derive_substream(3, t, 1))
        b = prep.run(0.7, derive_substream(3, t, 1))
        assert a == b.value
        assert b.epsilon == 0.7
        assert b.mechanism_id == "bezier_covariance"
    # different channel gives a different draw
    assert prep.run_value(0.7, derive_substream(3, 0, 1)) != prep.run_value(
        0.7, derive_substream(3, 0, 2)
    )


# ---------------------------------------------------------------------------
# array kernels: a block of trials releases what a per-trial loop releases
# ---------------------------------------------------------------------------

def _kernel_cases():
    rng = np.random.default_rng(107)
    uni = Dataset(rng.uniform(0.0, 1.0, 5))  # tiny n: noise often hits the clips
    biv = Dataset(rng.uniform(0.0, 1.0, (5, 2)))
    cases = []
    for mid in _VARCOV_IDS + _CORR_IDS:
        two_col = mid in _CORR_IDS or ("covariance" in mid and mid != "variance_via_covariance")
        cases.append((mid, biv if two_col else uni, {}))
    cases.append(("moment_release", uni, {"moment_k": 4, "moment_j": 2}))
    cases += [(mid, uni, {}) for mid in _BEYOND_VARIANCE_IDS]
    return cases


@pytest.mark.parametrize("mid, data, kw", _kernel_cases(), ids=[c[0] for c in _kernel_cases()])
def test_kernel_blocks_match_per_trial_releases(mid, data, kw):
    prep = prepare(mid, data, **kw)
    seed, channel, first = 31, 5, 3
    for eps in (0.1, 1.0):
        want = np.array(
            [prep.run_value(eps, derive_substream(seed, t, channel)) for t in range(first, first + 1000)]
        )
        for block in (1, 7, 64, 1000):
            trials = np.arange(first, first + block)
            unit = laplace_rows(derive_seeds(seed, trials, channel), prep.cells)
            assert np.array_equal(prep.kernel(unit * prep.scale(eps)), want[:block]), (eps, block)
            assert np.array_equal(prep.run_value(eps, NoiseRows(unit)), want[:block])
    # several budgets on one block: one kernel call, each row its budget's own
    unit = laplace_rows(derive_seeds(seed, np.arange(first, first + 64), channel), prep.cells)
    for epss in ([0.1, 1.0, 3.0], (2.0,), np.array([0.5, 0.5])):
        got = prep.run_value(epss, NoiseRows(unit))
        assert got.shape == (len(epss), 64)
        for e, row in zip(epss, got):
            assert np.array_equal(row, prep.run_value(e, NoiseRows(unit)))
    with pytest.raises(DomainError, match="NoiseRows"):
        prep.run_value([1.0, 2.0], derive_substream(seed, 0, channel))
    with pytest.raises(DomainError):
        prep.run_value([1.0, 0.0], NoiseRows(unit))
    zero = prep.run_value(1.0, NoiseSource.zero())
    for block in (1, 7, 64, 1000):
        got = prep.kernel(np.zeros((block, prep.cells)))
        assert np.array_equal(got, np.full(block, zero))


def test_kernel_cases_cover_every_mechanism():
    assert {c[0] for c in _kernel_cases()} == set(MECHANISM_IDS)


def test_kernel_mixes_degenerate_and_regular_rows():
    rows = [[-1.0, -1.0, -1.0], [0.1, 0.2, 0.3], [0.0, -2.8, 0.0], [-2.0, 0.0, 0.0]]
    prep = prepare("bezier_variance", X3)
    want = [prepare("bezier_variance", X3).run(1.0, NoiseSource.replay(r)).value for r in rows]
    assert prep.kernel(np.array(rows)).tolist() == want
    flat = Dataset([[0.5, 0.2], [0.5, 0.8]])  # zero x-variance
    for mid in _CORR_IDS:
        prep = prepare(mid, flat)
        z = np.vstack([np.zeros(prep.cells), np.full(prep.cells, 0.05)])
        want = [prep.run_value(1.0, NoiseSource.replay(row)) for row in z]
        assert prep.kernel(z).tolist() == want, mid


def test_kernel_rejects_wrong_cell_count():
    prep = prepare("bezier_variance", X3)
    assert prep.cells == 3 and prep.scale(0.5) == 1.0 / 0.5
    with pytest.raises(DomainError):
        prep.kernel(np.zeros((4, 2)))
    assert prepare("correlation_composed", PAIRS3).scale(0.3) == 1.0 / (0.3 / 3.0)


def test_scale_rejects_an_epsilon_too_small_for_a_finite_scale():
    # 5e-324 is positive and finite, but 1/eps overflows and eps/3 underflows
    for mid, data in (("bezier_variance", X3), ("swap_variance", X3),
                      ("correlation_composed", PAIRS3)):
        prep = prepare(mid, data)
        for eps in (5e-324, 1e-310):
            with pytest.raises(DomainError, match="too small"):
                prep.scale(eps)
            with pytest.raises(DomainError):
                prep.run(eps, NoiseSource.seeded(1))
        assert math.isfinite(prep.scale(1e-300))


# ---------------------------------------------------------------------------
# privacy smoke test: frequency ratios on neighboring datasets
# ---------------------------------------------------------------------------

def test_release_distribution_respects_privacy_ratio():
    """Empirical bin frequencies on add-remove neighbors obey the eps bound.

    One record at 0.3 versus the empty dataset; the degree-1 basis release
    (two cells, Lap(1/eps) each, eps = 1) is binned on a 2x2 grid.  Every
    bin's frequency ratio must lie within [exp(-eps), exp(eps)] up to
    sampling slack.  This catches scale errors in either direction: noise
    that is too small breaks the upper bound, noise charged to the wrong
    cells shifts the ratios asymmetrically.
    """
    eps = 1.0
    trials = 200_000
    edges = (0.35, 0.15)  # cell thresholds between the two aggregates

    def bin_counts(data, seed):
        rel = prepare_moment_release(data, 1, 1)
        src = NoiseSource.seeded(seed)
        noise = src.laplace_vector(rel.scale(eps), trials * rel.cells)
        mu = rel.kernel(noise.reshape(trials, rel.cells))
        noisy = np.column_stack([mu[:, 0] - mu[:, 1], mu[:, 1]])  # basis cells M mu
        cell = 2 * (noisy[:, 0] >= edges[0]) + (noisy[:, 1] >= edges[1])
        return np.bincount(cell, minlength=4).reshape(2, 2) / trials

    p_one = bin_counts(Dataset([0.3]), 20_260_825)
    p_empty = bin_counts(Dataset.empty(1), 825_602_02)
    slack = 1.05
    for i in range(2):
        for j in range(2):
            ratio = p_one[i, j] / p_empty[i, j]
            assert math.exp(-eps) / slack <= ratio <= math.exp(eps) * slack, (
                i,
                j,
                ratio,
            )
