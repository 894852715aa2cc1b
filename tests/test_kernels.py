import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

import nlirf.irf as irf
import nlirf.kernels as kernels
from nlirf.hermite import decompose_irf
from nlirf.irf import IrfRequest, decompose_lp_irf, irf_lp
from nlirf.kernels import (
    ClampedShockWarning,
    ConditionalEstimate,
    InsufficientLocalData,
    KernelConfig,
    cond_cdf,
    cond_quantile,
    g_hat,
    kde,
    nadaraya_watson,
    silverman_bandwidth,
)
from nlirf.models import Dar1, GaussianAr1, TimeSeries, simulate, transition_g

AR1 = GaussianAr1(rho=0.5, sigma=1.0)
DAR = Dar1.of(0.5, 1.0, 0.5)


@pytest.fixture(scope="module")
def ar1_series():
    return simulate(AR1, T=5000, y0=0.0, seed=101)


@pytest.fixture(scope="module")
def dar_series():
    return simulate(DAR, T=5000, y0=0.2, seed=102)


# ---------------------------------------------------------------------------
# bandwidth
# ---------------------------------------------------------------------------

def test_silverman_formula():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10_000)
    got = silverman_bandwidth(x)
    assert got == pytest.approx(1.06 * np.std(x, ddof=1) * 10_000 ** (-0.2), rel=1e-12)
    assert got == pytest.approx(0.168, abs=0.01)  # sd ~ 1


def test_silverman_homogeneous():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(500)
    assert silverman_bandwidth(3.5 * x) == pytest.approx(3.5 * silverman_bandwidth(x), rel=1e-14)


def test_silverman_constant_data_errors():
    with pytest.raises(ValueError):
        silverman_bandwidth(np.ones(100))


def test_kernel_config_validation():
    with pytest.raises(ValueError):
        KernelConfig(kernel="triangle")
    with pytest.raises(ValueError):
        KernelConfig(bandwidth=-1.0)
    with pytest.raises(ValueError):
        KernelConfig(bandwidth="cv")
    with pytest.raises(ValueError):
        KernelConfig(min_weight_sum=0.0)
    with pytest.raises(ValueError):
        KernelConfig(bandwidth=True)
    assert KernelConfig(bandwidth=np.float64(0.3)).bandwidth == 0.3
    assert KernelConfig(bandwidth=2).bandwidth == 2
    cfg = KernelConfig()
    assert KernelConfig.from_json_obj(cfg.to_json_obj()) == cfg
    with pytest.raises(ValueError):
        KernelConfig.from_json_obj({"kernel": "gaussian", "shape": 2})


# ---------------------------------------------------------------------------
# kde
# ---------------------------------------------------------------------------

def test_kde_standard_normal_at_zero():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(20_000)
    assert kde(x, 0.0) == pytest.approx(norm.pdf(0.0), abs=0.02)


def test_kde_far_tail_is_tiny():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2000)
    assert kde(x, 40.0) < 1e-6


def test_kde_integrates_to_one():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(4000)
    grid = np.linspace(-8, 8, 2001)
    dens = np.array([kde(x, g) for g in grid])
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=0.01)
    assert (dens >= 0).all()


def test_kde_rejects_nan_point():
    data = np.random.default_rng(5).normal(size=500)
    with pytest.raises(ValueError, match="at must not be NaN"):
        kde(data, math.nan)
    for kern in ("gaussian", "epanechnikov"):  # infinite points stay legal: no mass there
        cfg = KernelConfig(kernel=kern)
        assert kde(data, math.inf, cfg) == 0.0 and kde(data, -math.inf, cfg) == 0.0


def test_kde_epanechnikov():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(20_000)
    cfg = KernelConfig(kernel="epanechnikov")
    assert kde(x, 0.0, cfg) == pytest.approx(norm.pdf(0.0), abs=0.03)


# ---------------------------------------------------------------------------
# conditional cdf
# ---------------------------------------------------------------------------

def test_cond_cdf_saturates(ar1_series):
    assert cond_cdf(ar1_series, math.inf, 0.0).value == 1.0
    assert cond_cdf(ar1_series, -math.inf, 0.0).value == 0.0


def test_cond_cdf_ar1_oracle(ar1_series):
    # transition law is N(rho*y, 1), so F(z|y) = Phi(z - rho*y)
    est = cond_cdf(ar1_series, z=0.0, y=0.0)
    assert est.value == pytest.approx(0.5, abs=0.05)
    est = cond_cdf(ar1_series, z=0.5, y=1.0)
    assert est.value == pytest.approx(0.5, abs=0.05)
    est = cond_cdf(ar1_series, z=1.0, y=1.0)
    assert est.value == pytest.approx(norm.cdf(0.5), abs=0.05)


def test_cond_cdf_monotone_in_z_and_bounded(ar1_series):
    grid = np.linspace(-4, 4, 41)
    vals = [cond_cdf(ar1_series, z, 0.3).value for z in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_cond_cdf_outside_data_cloud_errors(ar1_series):
    with pytest.raises(InsufficientLocalData):
        cond_cdf(ar1_series, 0.0, 50.0)


def test_cond_cdf_rejects_nan_z(ar1_series):
    # searchsorted places NaN past every response, which read as a CDF of exactly 1
    with pytest.raises(ValueError, match="z must not be NaN"):
        cond_cdf(ar1_series, math.nan, 0.0)


@pytest.mark.parametrize("call", [
    lambda s, y: cond_cdf(s, 0.0, y), lambda s, y: cond_quantile(s, 0.5, y), lambda s, y: g_hat(s, y, 0.3),
    lambda s, y: nadaraya_watson(s, 1, y),
], ids=["cond_cdf", "cond_quantile", "g_hat", "nadaraya_watson"])
def test_nan_conditioning_value_is_a_bad_argument(ar1_series, call):
    # a NaN y is a bad argument, not thin local data; an infinite y still is thin local data
    with pytest.raises(ValueError, match="y must not be NaN") as err:
        call(ar1_series, math.nan)
    assert not isinstance(err.value, InsufficientLocalData)
    for y in (math.inf, -math.inf):
        with pytest.raises(InsufficientLocalData):
            call(ar1_series, y)


# ---------------------------------------------------------------------------
# conditional quantile
# ---------------------------------------------------------------------------

def test_cond_quantile_median_oracle(ar1_series):
    # conditional median of N(rho*y, 1) is rho*y
    est = cond_quantile(ar1_series, 0.5, 1.0)
    assert est.value == pytest.approx(0.5, abs=0.1)
    assert isinstance(est, ConditionalEstimate)
    assert est.effective_weight > 0 and est.bandwidth_used > 0


def test_cond_quantile_monotone_in_alpha(ar1_series):
    alphas = np.linspace(0.02, 0.98, 25)
    q = [cond_quantile(ar1_series, a, 0.5).value for a in alphas]
    assert all(a <= b for a, b in zip(q, q[1:]))


def test_cond_quantile_alpha_range(ar1_series):
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            cond_quantile(ar1_series, bad, 0.0)


def test_cond_quantile_epanechnikov(ar1_series):
    cfg = KernelConfig(kernel="epanechnikov", bandwidth=0.5)
    est = cond_quantile(ar1_series, 0.5, 1.0, cfg)
    assert est.value == pytest.approx(0.5, abs=0.15)
    # compact support: no kernel mass at all far outside the sample
    with pytest.raises(InsufficientLocalData):
        cond_quantile(ar1_series, 0.5, 50.0, cfg)


def test_cond_quantile_cdf_round_trip(ar1_series):
    y0, alpha = 0.4, 0.35
    cfg = KernelConfig()
    q = cond_quantile(ar1_series, alpha, y0, cfg)
    # normalized weight of the single heaviest neighbour bounds the gap
    x = ar1_series.y[:-1]
    w = np.exp(-0.5 * ((x - y0) / q.bandwidth_used) ** 2) / math.sqrt(2 * math.pi)
    w_max = w.max() / w.sum()
    f = cond_cdf(ar1_series, q.value, y0, cfg)
    assert alpha - w_max <= f.value <= alpha + w_max


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.floats(-10, 10, allow_nan=False), min_size=8, max_size=40),
    alpha=st.floats(0.05, 0.95),
)
def test_cond_quantile_minimizes_check_loss(data, alpha):
    # exhaustive oracle: no data point achieves strictly lower weighted check loss
    y = np.asarray(data)
    if np.std(y[:-1], ddof=1) == 0:
        return
    series = TimeSeries(values=y)
    y0 = float(np.median(y[:-1]))
    cfg = KernelConfig(bandwidth=max(1.0, float(np.std(y) or 1.0)))
    try:
        q = cond_quantile(series, alpha, y0, cfg).value
    except InsufficientLocalData:
        return
    x, v = y[:-1], y[1:]
    w = np.exp(-0.5 * ((x - y0) / cfg.bandwidth) ** 2) / math.sqrt(2 * math.pi)

    def loss(c):
        r = v - c
        return float(np.sum(w * (alpha * np.maximum(r, 0) + (1 - alpha) * np.maximum(-r, 0))))

    best = min(loss(c) for c in v)
    assert loss(q) <= best + 1e-9 * (1 + abs(best))


# ---------------------------------------------------------------------------
# g_hat
# ---------------------------------------------------------------------------

def test_g_hat_zero_shock_is_conditional_median(dar_series):
    assert g_hat(dar_series, 0.2, 0.0) == cond_quantile(dar_series, 0.5, 0.2).value


def test_g_hat_recovers_dar_transition(dar_series):
    oracle = transition_g(DAR, 0.2, 0.5)[0]  # 0.60498
    assert g_hat(dar_series, 0.2, 0.5) == pytest.approx(oracle, abs=0.1)


def test_g_hat_monotone_in_eps(dar_series):
    eps = np.linspace(-3, 3, 25)
    vals = [g_hat(dar_series, 0.2, e) for e in eps]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_g_hat_clamps_extreme_shock(dar_series):
    with pytest.warns(ClampedShockWarning):
        hi = g_hat(dar_series, 0.2, 9.0)
    assert hi == g_hat(dar_series, 0.2, 6.0)
    with pytest.raises(ValueError):
        g_hat(dar_series, 0.2, math.nan)


# ---------------------------------------------------------------------------
# Nadaraya-Watson
# ---------------------------------------------------------------------------

def test_nw_constant_series_returns_constant():
    series = TimeSeries(values=np.full(50, 3.25))
    est = nadaraya_watson(series, h=1, y=3.25, cfg=KernelConfig(bandwidth=1.0))
    assert est.value == pytest.approx(3.25, abs=1e-12)


def test_nw_ar1_two_step_oracle():
    # E[y_{t+2} | y_t = 1] = rho^2 for the unit-variance AR(1)
    series = simulate(AR1, T=20_000, y0=0.0, seed=103)
    est = nadaraya_watson(series, h=2, y=1.0)
    assert est.value == pytest.approx(0.25, abs=0.05)


def test_nw_rejects_lag_zero(ar1_series):
    with pytest.raises(ValueError):
        nadaraya_watson(ar1_series, h=0, y=0.0)


@pytest.mark.parametrize("h", [True, 2.5, 1.0, "1"])
def test_nw_rejects_non_integer_h(ar1_series, h):
    # True was fitted as lag 1 and 2.5 failed in slicing with a bare TypeError
    with pytest.raises(ValueError, match="h must be an integer"):
        nadaraya_watson(ar1_series, h=h, y=0.0)


def test_nw_accepts_numpy_integer_h(ar1_series):
    assert nadaraya_watson(ar1_series, h=np.int64(2), y=0.5) == nadaraya_watson(ar1_series, h=2, y=0.5)


def test_nw_outside_cloud_errors(ar1_series):
    with pytest.raises(InsufficientLocalData):
        nadaraya_watson(ar1_series, h=1, y=100.0)


def test_nw_short_series_errors():
    series = TimeSeries(values=np.arange(5.0))
    with pytest.raises(ValueError):
        nadaraya_watson(series, h=4, y=1.0)


# ---------------------------------------------------------------------------
# convergence rate
# ---------------------------------------------------------------------------

def test_cond_cdf_rmse_rate():
    # RMSE at a fixed interior point should track (T * b_T)^(-1/2); the
    # quadrupling ratio is checked within a factor of two of theory
    z, y0 = 0.3, 0.5
    oracle = norm.cdf(z - 0.5 * y0)
    sizes = [2000, 8000, 32000]
    rmse = []
    for T in sizes:
        errs = []
        for seed in range(12):
            s = simulate(AR1, T=T, y0=0.0, seed=1000 + seed)
            errs.append(cond_cdf(s, z, y0).value - oracle)
        rmse.append(float(np.sqrt(np.mean(np.square(errs)))))
    for a, b, Ta, Tb in [(rmse[0], rmse[1], 2000, 8000), (rmse[1], rmse[2], 8000, 32000)]:
        theory = ((Tb * Tb ** (-0.2)) / (Ta * Ta ** (-0.2))) ** (-0.5)
        assert theory / 2 <= b / a <= theory * 2


# ---------------------------------------------------------------------------
# the chunked in-place weight primitive against the plain expressions
# ---------------------------------------------------------------------------

def _ref_gaussian(u):
    return np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)


def _ref_epanechnikov(u):
    out = 0.75 * (1.0 - u * u)
    return np.where(np.abs(u) <= 1.0, out, 0.0)


REF_KERNELS = {"gaussian": _ref_gaussian, "epanechnikov": _ref_epanechnikov}


def _ref_quantile_batch(prep, ys, alphas):
    m = len(prep.x)
    n = len(ys)
    values = np.full(n, np.nan)
    ok = np.zeros(n, bool)
    chunk = max(16, kernels._CHUNK_CELLS // m)
    k = REF_KERNELS[prep.kernel]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        w = k((prep.x[None, :] - ys[lo:hi, None]) / prep.bandwidth)
        sum_w = w.sum(axis=1)
        max_w = w.max(axis=1)
        good = kernels._mass_ok(sum_w, max_w, prep.min_weight_sum)
        cw = np.cumsum(w, axis=1)
        ge = cw >= (alphas[lo:hi] * sum_w)[:, None]
        idx = ge.argmax(axis=1)
        idx[~ge[:, -1]] = m - 1
        vals = prep.v[idx]
        vals[~good] = np.nan
        values[lo:hi] = vals
        ok[lo:hi] = good
    return values, ok


def _ref_nw_batch(series, cfg, points, lag):
    y, T = series.y, series.T
    x, targets = y[: T - lag], y[lag:]
    b = kernels._resolve_bandwidth(cfg, x)
    k = REF_KERNELS[cfg.kernel]
    m, n = len(x), len(points)
    values = np.full(n, np.nan)
    ok = np.zeros(n, bool)
    weights = np.full(n, np.nan)
    chunk = max(16, kernels._CHUNK_CELLS // m)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        w = k((x[None, :] - points[lo:hi, None]) / b)
        sum_w = w.sum(axis=1)
        max_w = w.max(axis=1)
        good = kernels._mass_ok(sum_w, max_w, cfg.min_weight_sum)
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = (w @ targets) / sum_w
        vals[~good] = np.nan
        values[lo:hi] = vals
        ok[lo:hi] = good
        weights[lo:hi] = sum_w
    return values, ok, weights, b


def _ref_cond_cdf(series, z, y, cfg):
    prep = kernels._QuantilePrep.from_series(series, cfg)
    w = REF_KERNELS[prep.kernel]((prep.x - y) / prep.bandwidth)
    cw = np.cumsum(w)
    sum_w, max_w = float(cw[-1]), float(w.max())
    if not kernels._mass_ok(np.array(sum_w), np.array(max_w), cfg.min_weight_sum):
        raise InsufficientLocalData("thin")
    idx = int(np.searchsorted(prep.v, z, side="left"))
    return 0.0 if idx == 0 else float(cw[idx - 1] / sum_w), sum_w


def _ref_cond_quantile(series, alpha, y, cfg):
    prep = kernels._QuantilePrep.from_series(series, cfg)
    w = REF_KERNELS[prep.kernel]((prep.x - y) / prep.bandwidth)
    sum_w, max_w = float(w.sum()), float(w.max())
    if not kernels._mass_ok(np.array(sum_w), np.array(max_w), prep.min_weight_sum):
        raise InsufficientLocalData("thin")
    cw = np.cumsum(w)
    idx = min(int(np.searchsorted(cw, alpha * sum_w, side="left")), len(cw) - 1)
    return float(prep.v[idx]), sum_w


def _ref_kde(data, at, cfg):
    x = np.asarray(data, dtype=float).ravel()
    b = kernels._resolve_bandwidth(cfg, x)
    return float(np.sum(REF_KERNELS[cfg.kernel]((x - at) / b)) / (x.size * b))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientLocalData:
        return "insufficient"


KERNEL_CASES = [(kern, mass) for kern in ("gaussian", "epanechnikov") for mass in (None, 4.0)]


@pytest.fixture(scope="module")
def small_dar():
    return simulate(DAR, T=600, y0=0.2, seed=104)


@pytest.fixture(params=["one_chunk", "short_last_chunk"])
def chunking(request, monkeypatch):
    """40 points fit one chunk by default; a tiny budget gives the 16-row floor: 16 + 16 + 8."""
    if request.param == "short_last_chunk":
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", 1)
    return request.param


def _points(n=40):
    rng = np.random.default_rng(105)
    return np.concatenate([rng.normal(0.0, 1.5, n - 2), [7.5, -9.0]])  # the last two lack mass


@pytest.mark.parametrize("kern", ["gaussian", "epanechnikov"])
def test_weight_blocks_match_plain_expressions(small_dar, chunking, kern):
    x = small_dar.y[:-1]
    points = _points()
    points[3] = np.nan
    b = silverman_bandwidth(x)
    blocks = [(lo, hi, w.copy()) for lo, hi, w in kernels._weight_blocks(x, points, b, kern)]
    sizes = [hi - lo for lo, hi, _ in blocks]
    assert sizes == ([40] if chunking == "one_chunk" else [16, 16, 8])
    assert [lo for lo, _, _ in blocks] == list(np.cumsum([0] + sizes[:-1]))
    got = np.concatenate([w for _, _, w in blocks])
    assert_same_bits(got, REF_KERNELS[kern]((x[None, :] - points[:, None]) / b))


@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
def test_quantile_batch_matches_reference(small_dar, chunking, kern, mass):
    prep = kernels._QuantilePrep.from_series(small_dar, KernelConfig(kernel=kern, min_weight_sum=mass))
    alphas = np.random.default_rng(106).uniform(0.01, 0.99, 40)
    # even rows sit on a cumulative-weight knot, where only the pairwise row
    # sum of the reference gives the reference's crossing
    w = REF_KERNELS[kern]((prep.x[None, :] - _points()[:, None]) / prep.bandwidth)
    with np.errstate(invalid="ignore"):
        knots = np.cumsum(w, axis=1)[:, 299] / w.sum(axis=1)
    alphas[::2] = np.where(np.isfinite(knots), knots, 0.5)[::2]
    got, want = kernels._quantile_batch(prep, _points(), alphas), _ref_quantile_batch(prep, _points(), alphas)
    assert not got[1].all() and got[1].any()
    for g, w in zip(got, want):
        assert_same_bits(g, w)


@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
@pytest.mark.parametrize("lag", [1, 3])
def test_nw_batch_matches_reference(small_dar, chunking, kern, mass, lag):
    cfg = KernelConfig(kernel=kern, min_weight_sum=mass)
    values, ok, weights, b = kernels._nw_lags(small_dar, cfg, _points(), [lag])
    got = values[0], ok[0], weights[0], b
    want = _ref_nw_batch(small_dar, cfg, _points(), lag)
    assert not got[1].all() and got[1].any()
    for g, w in zip(got, want):
        assert_same_bits(g, w)


@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
def test_point_estimators_match_reference(small_dar, kern, mass):
    cfg = KernelConfig(kernel=kern, min_weight_sum=mass)
    outcomes = []
    for y in (-9.0, -0.8, 0.1, 1.3):
        for z in (-1.0, 0.3, 2.0):
            got = _outcome(cond_cdf, small_dar, z, y, cfg)
            if got != "insufficient":
                got = (got.value, got.effective_weight)
            assert_same_bits(got, _outcome(_ref_cond_cdf, small_dar, z, y, cfg))
        for alpha in (0.1, 0.5, 0.9):
            got = _outcome(cond_quantile, small_dar, alpha, y, cfg)
            if got != "insufficient":
                got = (got.value, got.effective_weight)
            outcomes.append(got)
            assert_same_bits(got, _outcome(_ref_cond_quantile, small_dar, alpha, y, cfg))
        assert_same_bits(kde(small_dar.y, y, cfg), _ref_kde(small_dar.y, y, cfg))
    assert "insufficient" in outcomes and outcomes != ["insufficient"] * len(outcomes)


def _ref_window_fit(x, targets, points, b, kern):
    """An NW fit of ``targets`` on ``x`` alone, each block evaluated by the plain expression."""
    out = np.empty((len(points),) + targets.shape[1:])
    sums, maxima = np.empty(len(points)), np.empty(len(points))
    chunk = max(16, kernels._CHUNK_CELLS // len(x))
    for lo in range(0, len(points), chunk):
        hi = min(lo + chunk, len(points))
        w = REF_KERNELS[kern]((x[None, :] - points[lo:hi, None]) / b)
        sums[lo:hi], maxima[lo:hi] = w.sum(axis=1), w.max(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[lo:hi] = (w @ targets) / sums[lo:hi].reshape((-1,) + (1,) * (targets.ndim - 1))
    return out, sums, maxima


@pytest.mark.parametrize("kern", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("q", [None, 3])
def test_nw_fit_windows_match_per_window_reference(small_dar, chunking, kern, q):
    # the Markov test's windows: forward on columns [:T-1], backward on [1:], at one bandwidth
    y = small_dar.y
    b = silverman_bandwidth(y)
    resp = np.column_stack([y, y * y, np.abs(y)]) if q else y
    windows = [(slice(None, -1), resp[1:]), (slice(1, None), resp[:-1])]
    fits, sum_w, max_w = kernels._nw_fit(y, _points(), b, kern, windows)
    for i, (x, targets) in enumerate(((y[:-1], resp[1:]), (y[1:], resp[:-1]))):
        want = _ref_window_fit(x, targets, _points(), b, kern)
        for g, w in zip((fits[i], sum_w[i], max_w[i]), want):
            assert_same_bits(g, w)


# ---------------------------------------------------------------------------
# prefix windows share their row reductions
# ---------------------------------------------------------------------------

SUM_LENGTHS = [1, 7, 8, 128, 129, 136, 599, 4999, 8192, 8200, 20001]


def _positive_block(rows, cols, seed):
    return np.exp(-2.0 * np.random.default_rng(seed).normal(size=(rows, cols)) ** 2)


def test_prefix_sums_match_numpy_row_sums():
    w = _positive_block(3, 20001, 110)
    sums = kernels._prefix_sums(w, SUM_LENGTHS)
    assert sorted(sums) == SUM_LENGTHS
    for n in SUM_LENGTHS:
        assert_same_bits(sums[n], w[:, :n].sum(axis=1))


@pytest.mark.parametrize("ends", [
    list(range(4993, 4999)),  # the local projection's lags at T=5000: one left part per level
    [4000, 4008, 4016, 4017, 9000, 9001, 9010],  # splits at 2000, 2000, 2008, 2008, 4496, ...
    list(range(120, 140)),  # leaves, single splits and pairs around the 128-value block
    [200, 263, 264, 271, 272, 8199, 8200, 8201],
])
def test_prefix_sums_match_for_diverging_splits(ends):
    w = _positive_block(4, 9100, 111)
    sums = kernels._prefix_sums(w, ends)
    for n in ends:
        assert_same_bits(sums[n], w[:, :n].sum(axis=1))


@pytest.mark.parametrize("view", ["columns_offset", "every_other_row", "short_buffer_rows"])
def test_prefix_sums_match_on_row_strided_views(view):
    # weight blocks are rows of a C-ordered buffer, so columns always have unit stride
    base = _positive_block(6, 9200, 112)
    w = {"columns_offset": base[:, 7:], "every_other_row": base[::2, 3:], "short_buffer_rows": base[2:5]}[view]
    ends = [1, 129, 600, 601, 607, 608, 8192, 8193, 8200, 9000, 9001]
    sums = kernels._prefix_sums(w, ends)
    for n in ends:
        assert_same_bits(sums[n], w[:, :n].sum(axis=1))


@pytest.mark.parametrize("kern", ["gaussian", "epanechnikov"])
def test_nw_fit_prefix_reductions_match_plain_reductions(chunking, kern):
    # a NaN point gives a Gaussian NaN row and an Epanechnikov zero row, and the far
    # Epanechnikov points rows of exact zeros
    x = np.random.default_rng(113).normal(size=1300)
    points = _points()
    points[5] = np.nan
    b = 0.4
    lengths = [1300, 1299, 1297, 1294, 700, 129, 128, 9]
    windows = [(slice(None, n), np.sin(np.arange(n))) for n in lengths]
    windows.append((slice(2, None), np.ones(1298)))  # not a prefix: reduces its own slice
    fits, sum_w, max_w = kernels._nw_fit(x, points, b, kern, windows)
    w = np.concatenate([blk.copy() for _, _, blk in kernels._weight_blocks(x, points, b, kern)])
    if kern == "gaussian":
        assert np.isnan(max_w[:, 5]).all() and np.isnan(sum_w[:, 5]).all()
    else:
        assert (max_w[:, [5, -2, -1]] == 0.0).all()
    for i, (columns, _) in enumerate(windows):
        assert_same_bits(sum_w[i], w[:, columns].sum(axis=1))
        assert_same_bits(max_w[i], w[:, columns].max(axis=1))


# ---------------------------------------------------------------------------
# one bandwidth and one weight block for every local-projection lag
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
def test_nw_lags_match_per_lag_reference(small_dar, chunking, kern, mass):
    cfg = KernelConfig(kernel=kern, min_weight_sum=mass)
    b = silverman_bandwidth(small_dar.y[:-1])
    values, ok, weights, used = kernels._nw_lags(small_dar, cfg, _points(), range(1, 5))
    assert used == b and values.shape == (4, 40)
    assert not ok.all() and ok.any()
    for i, lag in enumerate(range(1, 5)):
        want = _ref_nw_batch(small_dar, replace(cfg, bandwidth=b), _points(), lag)
        for g, w in zip((values[i], ok[i], weights[i]), want):
            assert_same_bits(g, w)


def _ref_lp_predictions(series, req, points, bandwidth):
    """Per-lag NW fits as before the lags shared a bandwidth; None re-derives it from y[:T-lag]."""
    cfg = req.cfg if bandwidth is None else replace(req.cfg, bandwidth=bandwidth)
    fits = [(points, np.ones(len(points), bool))]
    return fits + [_ref_nw_batch(series, cfg, points, lag)[:2] for lag in range(1, req.horizons)]


def _ref_irf_lp(series, req, bandwidth=None):
    _, _, eps1, base1, shock1, clamped = irf._simulate_step1(series, req)
    fits = _ref_lp_predictions(series, req, np.concatenate([base1, shock1]), bandwidth)
    outcomes = np.column_stack([np.where(ok, v, np.nan) for v, ok in fits])  # NaN where a fit fails
    sim = irf.PathSimulation(outcomes[: req.S], outcomes[req.S :], eps1, clamped, bandwidth)
    return irf._reduce(sim, req, "local_projection", irf._mean(sim.shock - sim.base))


def _ref_decompose_lp(series, req, bandwidth=None):
    _, _, eps1, base1, _, _ = irf._simulate_step1(series, req)
    fits = _ref_lp_predictions(series, req, base1, bandwidth)
    return [decompose_irf(v[ok], eps1[ok], req.delta, J=4, h=h) for h, (v, ok) in enumerate(fits, start=1)]


def _decomposition_bits(decs):
    return [(d.coefficients, d.contributions, d.reconstructed_total) for d in decs]


@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
@pytest.mark.parametrize("bandwidth", ["silverman", 0.35])
def test_lp_routes_match_per_lag_reference(small_dar, chunking, kern, mass, bandwidth):
    # S=20: the curve fits 40 points and the decomposition 20, in 16 + 16 + 8 and 16 + 4 rows when chunked
    req = IrfRequest(y0=0.2, horizons=5, delta=0.5, S=20, seed=107,
                     cfg=KernelConfig(kernel=kern, bandwidth=bandwidth, min_weight_sum=mass))
    curve, decs = irf_lp(small_dar, req), decompose_lp_irf(small_dar, req, J=4)
    b = curve.meta["bandwidth"]
    assert b == (silverman_bandwidth(small_dar.y[:-1]) if bandwidth == "silverman" else bandwidth)
    # bitwise at every horizon against per-lag fits at the series bandwidth
    shared = _ref_irf_lp(small_dar, req, b)
    assert_same_bits(curve.values, shared.values)
    assert_same_bits(curve.mc_se, shared.mc_se)
    for g, w in zip(_decomposition_bits(decs), _decomposition_bits(_ref_decompose_lp(small_dar, req, b))):
        for gi, wi in zip(g, w):
            assert_same_bits(gi, wi)
    # against per-lag bandwidths: horizons 1-2 (identity and lag 1) never change, and an
    # explicit bandwidth leaves every horizon unchanged; Silverman moves the rest slightly
    old, old_decs = _ref_irf_lp(small_dar, req), _ref_decompose_lp(small_dar, req)
    exact = req.horizons if bandwidth != "silverman" else 2
    assert_same_bits(curve.values[:exact], old.values[:exact])
    assert_same_bits(curve.mc_se[:exact], old.mc_se[:exact])
    for g, w in zip(_decomposition_bits(decs[:exact]), _decomposition_bits(old_decs[:exact])):
        for gi, wi in zip(g, w):
            assert_same_bits(gi, wi)
    if bandwidth == "silverman":  # the per-lag bandwidths really differ from the series one
        assert np.any(curve.values[exact:] != old.values[exact:])
    assert np.all(np.abs(curve.values - old.values) <= 0.01 * old.mc_se)
    totals = np.array([d.reconstructed_total for d in decs])
    old_totals = np.array([d.reconstructed_total for d in old_decs])
    assert np.all(np.abs(totals - old_totals) <= 0.01 * old.mc_se)
