import math
import mmap
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

import nlirf.irf as irf
import nlirf.kernels as kernels
from nlirf.hermite import decompose_irf
from nlirf.irf import IrfRequest, decompose_lp_irf, irf_direct, irf_lp
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


@pytest.mark.parametrize("field, bad", [("min_weight_sum", True), ("min_weight_sum", math.inf),
                                        ("min_weight_sum", "1"), ("min_weight_sum", math.nan),
                                        ("bandwidth", math.inf), ("bandwidth", math.nan), ("bandwidth", False)])
def test_kernel_config_rejects_by_type(field, bad):
    with pytest.raises(ValueError, match=field):
        KernelConfig(**{field: bad})


def test_kernel_config_accepts_numpy_numbers():
    cfg = KernelConfig(bandwidth=np.float32(0.5), min_weight_sum=np.int64(4))
    assert cfg.bandwidth == 0.5 and cfg.min_weight_sum == 4


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

def _plain_gaussian(u):
    return np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)


def _plain_epanechnikov(u):
    out = 0.75 * (1.0 - u * u)
    return np.where(np.abs(u) <= 1.0, out, 0.0)


# the normalised kernels K(u) at u = (x - point) / b
PLAIN_KERNELS = {"gaussian": _plain_gaussian, "epanechnikov": _plain_epanechnikov}


def _ref_gaussian(d, b):
    return np.exp(d * d * (-0.5 / b**2))


def _ref_epanechnikov(d, b):
    t = d * d * (1 / b**2)
    return np.where(t <= 1.0, 1.0 - t, 0.0)  # a NaN difference gives 0


# the weights without their constant, K(d / b) / kernels._MASS[kernel], on differences d = x - point
REF_KERNELS = {"gaussian": _ref_gaussian, "epanechnikov": _ref_epanechnikov}


def _row_total(w):
    """The scan's row total: the last entry of the cumsum of the row's 64-column block sums."""
    starts = np.arange(0, w.shape[-1], kernels._SCAN_BLOCK)
    return np.cumsum(np.add.reduceat(w, starts, axis=-1), axis=-1)[..., -1]


def _ref_quantile_batch(prep, ys, alphas):
    m = len(prep.x)
    n = len(ys)
    values = np.full(n, np.nan)
    ok = np.zeros(n, bool)
    chunk = max(16, kernels._CHUNK_CELLS // m)
    k = REF_KERNELS[prep.kernel]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        w = k(prep.x[None, :] - ys[lo:hi, None], prep.bandwidth)
        sum_w = _row_total(w)
        max_w = w.max(axis=1)
        good = kernels._mass_ok(sum_w, max_w, prep.threshold)
        cw = np.cumsum(w, axis=1)
        ge = cw >= (alphas[lo:hi] * sum_w)[:, None]
        idx = ge.argmax(axis=1)
        idx[~ge[:, -1]] = m - 1
        vals = prep.v[idx]
        vals[~good] = np.nan
        values[lo:hi] = vals
        ok[lo:hi] = good
    return values, ok


def _ref_quantile_at_point(prep, y0, alphas):
    """The single-point scan: one weight row at y0 and a left searchsorted per level."""
    w = next(kernels._weight_blocks(prep.x, np.array([y0], dtype=float), prep.bandwidth, prep.kernel))[2][0]
    sum_w, max_w = float(_row_total(w)), float(w.max())
    if not kernels._mass_ok(np.array(sum_w), np.array(max_w), prep.threshold):
        return np.full(len(alphas), np.nan), np.zeros(len(alphas), bool), sum_w
    cw = np.cumsum(w, out=w)
    idx = np.searchsorted(cw, np.asarray(alphas) * sum_w, side="left")
    idx = np.minimum(idx, len(cw) - 1)
    return prep.v[idx], np.ones(len(alphas), bool), sum_w


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
        w = k(x[None, :] - points[lo:hi, None], b)
        sum_w = w.sum(axis=1)
        max_w = w.max(axis=1)
        good = kernels._mass_ok(sum_w, max_w, kernels._threshold(cfg))
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = (w @ targets) / sum_w
        vals[~good] = np.nan
        values[lo:hi] = vals
        ok[lo:hi] = good
        weights[lo:hi] = sum_w
    return values, ok, weights, b


def _ref_cond_cdf(series, z, y, cfg):
    prep = kernels._QuantilePrep.from_series(series, cfg)
    w = REF_KERNELS[prep.kernel](prep.x - y, prep.bandwidth)
    cw = np.cumsum(w)
    sum_w, max_w = float(cw[-1]), float(w.max())
    if not kernels._mass_ok(np.array(sum_w), np.array(max_w), prep.threshold):
        raise InsufficientLocalData("thin")
    idx = int(np.searchsorted(prep.v, z, side="left"))
    return 0.0 if idx == 0 else float(cw[idx - 1] / sum_w), sum_w * kernels._MASS[prep.kernel]


def _ref_cond_quantile(series, alpha, y, cfg):
    prep = kernels._QuantilePrep.from_series(series, cfg)
    w = REF_KERNELS[prep.kernel](prep.x - y, prep.bandwidth)
    sum_w, max_w = float(_row_total(w)), float(w.max())
    if not kernels._mass_ok(np.array(sum_w), np.array(max_w), prep.threshold):
        raise InsufficientLocalData("thin")
    cw = np.cumsum(w)
    idx = min(int(np.searchsorted(cw, alpha * sum_w, side="left")), len(cw) - 1)
    return float(prep.v[idx]), sum_w * kernels._MASS[prep.kernel]


def _ref_kde(data, at, cfg):
    x = np.asarray(data, dtype=float).ravel()
    b = kernels._resolve_bandwidth(cfg, x)
    return float(np.sum(REF_KERNELS[cfg.kernel](x - at, b)) * (kernels._MASS[cfg.kernel] / (x.size * b)))


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
    assert_same_bits(got, REF_KERNELS[kern](x[None, :] - points[:, None], b))


def test_weight_block_buffer_is_a_mapping_kept_per_thread_and_never_shared(small_dar):
    x, points = small_dar.y[:-1], _points()
    b = silverman_bandwidth(x)
    want = REF_KERNELS["gaussian"](x[None, :] - points[:, None], b)
    list(kernels._weight_blocks(x, points, b, "gaussian"))
    kept = kernels._SCRATCH.buf
    assert isinstance(kept.base.obj, mmap.mmap)  # off the allocator's heap
    # a second call reuses it; a call made while it is out maps its own
    outer = kernels._weight_blocks(x, points, b, "gaussian")
    (_, _, w_outer) = next(outer)
    assert np.shares_memory(w_outer, kept)
    ((_, _, w_inner),) = kernels._weight_blocks(x, points[::-1], b, "gaussian")
    assert not np.shares_memory(w_inner, w_outer)
    assert_same_bits(w_outer, want)
    assert_same_bits(w_inner, want[::-1])
    outer.close()
    assert kernels._SCRATCH.buf is kept
    seen = []
    worker = threading.Thread(target=lambda: seen.append(next(kernels._weight_blocks(x, points, b, "gaussian"))[2]))
    worker.start()
    worker.join()
    assert not np.shares_memory(seen[0], kept)
    assert_same_bits(seen[0], want)


@pytest.mark.parametrize("width", [499, 1999, 2999, 4999])
def test_weight_blocks_keep_their_bits_and_the_buffer_size_at_every_width(width):
    # the subtract runs under a 64-element ufunc buffer; numpy's own size is back before each block
    x = simulate(DAR, T=width, y0=0.2, seed=106).y
    points, b = _points(), silverman_bandwidth(x)
    size = np.getbufsize()
    for lo, hi, w in kernels._weight_blocks(x, points, b, "gaussian"):
        assert np.getbufsize() == size
        assert_same_bits(w, REF_KERNELS["gaussian"](x[None, :] - points[lo:hi, None], b))


def test_weight_blocks_restore_the_buffer_size_when_closed_early_or_failing(monkeypatch):
    x, size = simulate(DAR, T=499, y0=0.2, seed=106).y, np.getbufsize()
    blocks = kernels._weight_blocks(x, _points(), 0.3, "gaussian")
    next(blocks)
    blocks.close()
    assert np.getbufsize() == size

    def failing(*args, **kwargs):
        assert np.getbufsize() == 64
        raise FloatingPointError("subtract")

    monkeypatch.setattr(kernels.np, "subtract", failing)
    with pytest.raises(FloatingPointError, match="subtract"):
        next(kernels._weight_blocks(x, _points(), 0.3, "gaussian"))
    monkeypatch.undo()
    assert np.getbufsize() == size


# ---------------------------------------------------------------------------
# the weights without their constant still mean the kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kern", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("bandwidth", ["silverman", 0.6])
def test_weights_times_their_constant_are_the_normalised_kernel(small_dar, kern, bandwidth):
    x = small_dar.y[:-1]
    b = silverman_bandwidth(x) if bandwidth == "silverman" else bandwidth
    ((_, _, w),) = kernels._weight_blocks(x, _points(), b, kern)
    got = w * kernels._MASS[kern]
    u = (x[None, :] - _points()[:, None]) / b
    plain = PLAIN_KERNELS[kern](u)
    if kern == "gaussian":  # where the plain value is a normal float
        kept = plain >= np.finfo(float).tiny
        spread = 0.5 * u[kept] ** 2
    else:  # inside the support, and exact zeros outside it
        kept = np.abs(u) < 1.0
        spread = u[kept] ** 2 / (1.0 - u[kept] ** 2)
        assert (got[~kept] == 0.0).all() and (plain[~kept] == 0.0).all()
    # 1e-13 relative, widened where the last step scales its input's few-ulp rounding: exp by its
    # exponent, and 1 - t, near the support's edge, by t / (1 - t)
    rel = np.abs(got[kept] - plain[kept]) / plain[kept]
    assert (rel <= np.maximum(1e-13, 1e-15 * spread)).all()
    assert kept.sum() > 0.15 * kept.size and rel.max() > 0.0


@pytest.mark.parametrize("kern", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("mass", [1.0, 4.0, 20.0])
def test_explicit_mass_threshold_decides_as_the_plain_kernel(small_dar, kern, mass):
    # min_weight_sum is a mass of the normalised kernel: the scan and the NW fit accept and refuse
    # the points of a grid as the plain kernel's sums do
    cfg = KernelConfig(kernel=kern, min_weight_sum=mass)
    prep = kernels._QuantilePrep.from_series(small_dar, cfg)
    grid = np.linspace(-10.0, 10.0, 201)
    want = PLAIN_KERNELS[kern]((small_dar.y[:-1][None, :] - grid[:, None]) / prep.bandwidth).sum(axis=1) >= mass
    assert want.any() and not want.all()
    assert_same_bits(kernels._quantile_batch(prep, grid, np.full(len(grid), 0.5))[1], want)
    assert_same_bits(kernels._nw_lags(small_dar, cfg, grid, [1])[1][0], want)


@pytest.mark.parametrize("kern", ["gaussian", "epanechnikov"])
def test_kernel_masses_match_the_plain_formulas(small_dar, kern):
    # the density and each reported effective weight carry the kernel's constant again
    cfg = KernelConfig(kernel=kern)
    y, x = small_dar.y, small_dar.y[:-1]
    b, b_all = silverman_bandwidth(x), silverman_bandwidth(y)
    for at in (-0.8, 0.1, 1.3):
        mass = PLAIN_KERNELS[kern]((x - at) / b).sum()
        estimates = (cond_cdf(small_dar, 0.3, at, cfg), cond_quantile(small_dar, 0.5, at, cfg),
                     nadaraya_watson(small_dar, 1, at, cfg))
        np.testing.assert_allclose([e.effective_weight for e in estimates], mass, rtol=1e-13, atol=0)
        density = PLAIN_KERNELS[kern]((y - at) / b_all).sum() / (y.size * b_all)
        np.testing.assert_allclose(kde(y, at, cfg), density, rtol=1e-13, atol=0)


@pytest.mark.parametrize("kern", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_bandwidths_whose_square_is_not_a_normal_float_are_refused(small_dar, kern, scale):
    # at b = 1e-160, -0.5 / b^2 is -inf and an exact match would weigh 0 * -inf = NaN; at 1e160, b^2
    # overflows: such bandwidths are refused by name, explicit or by Silverman's rule on data of that
    # scale (data whose rule gives more than 6.7e153 overflow np.std's squares first, refused below)
    with pytest.raises(ValueError, match="bandwidth must be a positive finite number in"):
        KernelConfig(kernel=kern, bandwidth=scale)
    if scale < 1.0:
        data = small_dar.y * scale
        series, cfg = TimeSeries(values=data), KernelConfig(kernel=kern)
        for call in (lambda: silverman_bandwidth(data), lambda: kde(data, 0.0, cfg),
                     lambda: cond_quantile(series, 0.5, data[3], cfg),
                     lambda: nadaraya_watson(series, 1, data[3], cfg)):
            with pytest.raises(ValueError, match="bandwidth must be a positive finite number in"):
                call()
    # bandwidths just inside the range keep finite weights: an exact match alone at the lower end, all at the upper
    x = small_dar.y[:-1]
    ((_, _, narrow),) = kernels._weight_blocks(x, x[:5], 1e-150, kern)
    assert_same_bits(narrow, (x[None, :] == x[:5, None]).astype(float))
    ((_, _, wide),) = kernels._weight_blocks(x, x[:5], 1e150, kern)
    assert (wide == 1.0).all()


def test_data_whose_spread_overflows_the_standard_deviation_is_refused_by_name(small_dar):
    # np.std squares the deviations, which overflow once the spread passes about 1.3e154
    data = small_dar.y * 1e160
    req = IrfRequest(y0=float(data[3]), horizons=3, delta=1e160, S=50, seed=1)
    for call in (lambda: silverman_bandwidth(data), lambda: irf_direct(TimeSeries(values=data), req)):
        with pytest.raises(ValueError, match=r"data spread \[-1e\+161, 8\.72e\+160\] overflows its standard deviation"):
            call()


@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
def test_quantile_batch_matches_reference(small_dar, chunking, kern, mass):
    prep = kernels._QuantilePrep.from_series(small_dar, KernelConfig(kernel=kern, min_weight_sum=mass))
    alphas = np.random.default_rng(106).uniform(0.01, 0.99, 40)
    # even rows sit on a cumulative-weight knot, where only the row total
    # of the reference gives the reference's crossing
    w = REF_KERNELS[kern](prep.x[None, :] - _points()[:, None], prep.bandwidth)
    with np.errstate(invalid="ignore"):
        knots = np.cumsum(w, axis=1)[:, 299] / _row_total(w)
    alphas[::2] = np.where(np.isfinite(knots), knots, 0.5)[::2]
    got, want = kernels._quantile_batch(prep, _points(), alphas), _ref_quantile_batch(prep, _points(), alphas)
    assert not got[1].all() and got[1].any()
    for g, w in zip(got, want):
        assert_same_bits(g, w)


# ---------------------------------------------------------------------------
# one weight row per distinct conditioning point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
def test_quantile_batch_with_repeated_points_matches_reference(small_dar, chunking, kern, mass):
    # 21 distinct points (two massless, one NaN), five levels each, shuffled over 105 pairs; chunked,
    # the reference's blocks of pairs and the deduplicated blocks of rows both split the repeats
    prep = kernels._QuantilePrep.from_series(small_dar, KernelConfig(kernel=kern, min_weight_sum=mass))
    distinct = np.append(_points(20), np.nan)
    w = REF_KERNELS[kern](prep.x[None, :] - distinct[:, None], prep.bandwidth)
    sum_w, cw = _row_total(w), np.cumsum(w, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        knots = cw[:, [0, 299, -1]] / sum_w[:, None]
    near_one = np.nextafter(1.0, 0.0)  # its target passes the last cumulative weight on some rows
    levels = np.column_stack([np.where(np.isfinite(knots), knots, 0.5), np.full(21, near_one),
                              np.random.default_rng(114).uniform(0.01, 0.99, 21)])
    order = np.random.default_rng(115).permutation(105)
    ys, alphas = np.repeat(distinct, 5)[order], levels.ravel()[order]
    got, want = kernels._quantile_batch(prep, ys, alphas), _ref_quantile_batch(prep, ys, alphas)
    for g, r in zip(got, want):
        assert_same_bits(g, r)
    good = kernels._mass_ok(sum_w, w.max(axis=1), prep.threshold)
    assert not good.all() and good.sum() >= 15 and not good[-1]
    assert np.any(near_one * sum_w[good] > cw[good, -1])


@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
def test_quantile_batch_at_one_point_matches_single_point_scan(small_dar, chunking, kern, mass):
    # one repeated point is one weight row: bitwise the single-row searchsorted scan, its sum repeated
    prep = kernels._QuantilePrep.from_series(small_dar, KernelConfig(kernel=kern, min_weight_sum=mass))
    near_one, passed_last = np.nextafter(1.0, 0.0), False  # its target can pass the last cumulative weight
    for y0 in (-0.8, 0.1, 1.3, 0.7, -9.0):  # the last lacks mass; 0.7 passes the last Epanechnikov weight
        w = REF_KERNELS[kern](prep.x - y0, prep.bandwidth)
        cw = np.cumsum(w)
        with np.errstate(invalid="ignore"):
            knots = cw[[0, 299, -2]] / _row_total(w)
        alphas = np.concatenate([np.where(np.isfinite(knots), knots, 0.5), [near_one],
                                 np.random.default_rng(117).uniform(0.01, 0.99, 40)])
        for n in (1, len(alphas)):  # one level (S=1), then all of them
            got = kernels._quantile_batch(prep, np.full(n, y0), alphas[:n])
            values, ok, sum_w = _ref_quantile_at_point(prep, y0, alphas[:n])
            for g, r in zip(got, (values, ok, np.full(n, sum_w))):
                assert_same_bits(g, r)
        assert (ok.all() or not ok.any()) and ok.any() == (y0 != -9.0)
        passed_last |= bool(ok.all() and near_one * sum_w > cw[-1])
    assert passed_last


@pytest.mark.parametrize("seed", [118, 119])
def test_step_one_states_match_single_point_scan(small_dar, seed):
    req = IrfRequest(y0=0.3, horizons=1, delta=0.7, S=300, seed=seed)
    prep, _, sim = irf._simulate_step1(small_dar, req)
    eps1, (base1, shock1) = sim.eps1, sim.paths[:, :, 0]
    alphas = np.concatenate([irf._rank(eps1), irf._rank(eps1 + req.delta)])
    values, ok, _ = _ref_quantile_at_point(prep, req.y0, alphas)
    assert ok.all()
    assert_same_bits(np.concatenate([base1, shock1]), values)


# ---------------------------------------------------------------------------
# the two-level search: certified crossings, and the full scan for every other pair
# ---------------------------------------------------------------------------

def _ref_crossings(cw, rows, target, n):
    """Per pair, the count of entries of its row ``cw[row, :n]`` below its target, one pair at a time."""
    return np.array([(cw[r, :n] < t).sum() for r, t in zip(rows, target)], dtype=np.intp)


@pytest.mark.parametrize("n", [1, 63, 64, 4999])
def test_crossings_on_one_row_match_reference(n):
    # step one's row at y0 and cond_quantile: every pair reads one row, searched by one searchsorted
    rng = np.random.default_rng(130)
    w = rng.exponential(size=(3, n + 5))  # columns past n are not read
    w[:, rng.integers(0, n + 5, size=(n + 5) // 3)] = 0.0  # ties: flat stretches of the cumulative weights
    cw = np.cumsum(w, axis=1)
    last = cw[1, n - 1]
    target = np.concatenate([cw[1, rng.integers(0, n, size=50)],  # on knots, where a right search differs
                             rng.uniform(-1.0, 1.2 * last, 400), [0.0, last, np.nextafter(last, np.inf)]])
    one_row = np.ones(len(target), np.intp)
    assert_same_bits(kernels._crossings(cw, one_row, target, n), _ref_crossings(cw, one_row, target, n))
    two_rows = np.where(np.arange(len(target)) % 7, 1, 2)  # the bisection
    assert_same_bits(kernels._crossings(cw, two_rows, target, n), _ref_crossings(cw, two_rows, target, n))


def _recording_results(monkeypatch, module, name, record):
    original = getattr(module, name)

    def recorded(*args):
        record.append(original(*args))
        return record[-1]

    monkeypatch.setattr(module, name, recorded)


@pytest.mark.parametrize("T", [41, 600, 641])  # m = 40 < 64, 599 with a partial last block, 640 = 10 blocks
@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
def test_two_level_search_matches_reference_where_most_pairs_fall_back(T, kern, mass, monkeypatch):
    series = simulate(DAR, T=T, y0=0.2, seed=120)
    prep = kernels._QuantilePrep.from_series(series, KernelConfig(kernel=kern, min_weight_sum=mass))
    m, distinct = T - 1, np.append(0.2, _points(29))  # the last two lack mass
    w = REF_KERNELS[kern](prep.x[None, :] - distinct[:, None], prep.bandwidth)
    sum_w, cw = _row_total(w), np.cumsum(w, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        knots = cw[:, [0, m // 4, m // 2, 3 * m // 4, m - 2]] / sum_w[:, None]
    # per row: five knot levels, nextafter(1, 0) and two uniform levels, eight pairs in all, and
    # the first row twelve uniform levels more, so that its 20 pairs exceed m / 64 for every m here
    levels = np.column_stack([np.where(np.isfinite(knots), knots, 0.5), np.full(30, np.nextafter(1.0, 0.0)),
                              np.random.default_rng(121).uniform(0.01, 0.99, (30, 2))])
    crowded = np.random.default_rng(122).uniform(0.01, 0.99, 12)
    rows = np.concatenate([np.repeat(np.arange(30), 8), np.zeros(12, int)])
    order = np.random.default_rng(123).permutation(len(rows))
    rows, alphas = rows[order], np.concatenate([levels.ravel(), crowded])[order]
    ys = distinct[rows]
    searched = []
    _recording_results(monkeypatch, kernels, "_two_level", searched)
    got, want = kernels._quantile_batch(prep, ys, alphas), _ref_quantile_batch(prep, ys, alphas)
    for g, r in zip(got, want):
        assert_same_bits(g, r)
    assert_same_bits(got[2], sum_w[rows])
    good = kernels._mass_ok(sum_w, w.max(axis=1), prep.threshold)
    assert good[0] and not good[-2:].any()
    if m < kernels._SCAN_BLOCK:  # one pair per row already exceeds m / 64
        assert searched == []
        return
    # one weight block: every pair of the uncrowded rows with mass was searched, the crowded row's not
    (idx,) = searched
    assert good.sum() >= 20 and len(idx) == 8 * good[1:].sum()
    # a knot's target lies within rounding of a cumulative weight, so no margin clears it: six of
    # each row's eight pairs fall back, and of the uniform levels all but a few are certified
    fell_back = np.count_nonzero(idx < 0)
    assert 6 * len(idx) // 8 <= fell_back < 7 * len(idx) // 8


def _gathered_two_level(prep, summaries, rows, levels, w):
    """``_two_level`` as it was on a freshly evaluated block: the target block's weights gathered from ``w``."""
    m, B = len(prep.x), kernels._SCAN_BLOCK
    starts, sum_w = np.arange(0, m, B), summaries[rows, -2]
    target, margin = levels * sum_w, 2 * (kernels._gamma(m) + kernels._gamma(2 * B + len(starts))) * sum_w
    block = np.minimum(kernels._crossings(summaries, rows, target, len(starts)), len(starts) - 1)
    seg = np.empty((len(rows), B + 1))
    seg[:, 0] = np.where(block > 0, summaries[rows, block - 1], 0.0)
    cols = np.minimum(starts[block, None] + np.arange(B), m - 1)
    seg[:, 1:] = w.ravel()[rows[:, None] * m + cols]
    cw = np.cumsum(seg, axis=1)
    k = (cw[:, 1:] < target[:, None]).sum(axis=1)
    pick = np.arange(len(rows))
    below, above = cw[pick, k], cw[pick, np.minimum(k + 1, B)]
    certified = (k < np.minimum(B, m - starts[block])) & (target - below > margin) & (above - target > margin)
    return np.where(certified, starts[block] + k, -1)


@pytest.mark.parametrize("T", [600, 641])  # 599 columns with a partial last block, 640 = 10 blocks
@pytest.mark.parametrize("kern", ["gaussian", "epanechnikov"])
def test_two_level_search_evaluates_the_gathered_indices(T, kern):
    # on a fresh weight block, the target blocks' weights evaluated by _two_level have the bits of the same
    # cells gathered from the block, so knot levels fall back and uniform levels are certified as before
    series = simulate(DAR, T=T, y0=0.2, seed=132)
    prep = kernels._QuantilePrep.from_series(series, KernelConfig(kernel=kern))
    m, distinct = T - 1, np.append(0.2, _points(29))
    ((_, _, w),) = kernels._weight_blocks(prep.x, distinct, prep.bandwidth, prep.kernel)
    summary = np.empty((len(distinct), len(range(0, m, kernels._SCAN_BLOCK)) + 1))  # block cumsums, then maximum
    np.cumsum(np.add.reduceat(w, np.arange(0, m, kernels._SCAN_BLOCK), axis=1), axis=1, out=summary[:, :-1])
    summary[:, -1] = w.max(axis=1)
    good = np.flatnonzero(kernels._mass_ok(summary[:, -2], summary[:, -1], None))
    with np.errstate(invalid="ignore", divide="ignore"):
        knots = np.cumsum(w, axis=1)[good][:, [0, m // 4, m // 2, 3 * m // 4, m - 2]] / summary[good, -2:-1]
    levels = np.column_stack([knots, np.full(len(good), np.nextafter(1.0, 0.0)),
                              np.random.default_rng(133).uniform(0.01, 0.99, (len(good), 6))])
    rows = np.repeat(good, levels.shape[1])
    got = kernels._two_level(prep, summary, rows, distinct[rows], levels.ravel())
    assert_same_bits(got, _gathered_two_level(prep, summary, rows, levels.ravel(), w))
    assert (got < 0).sum() >= 5 * len(good) and (got >= 0).sum() >= 5 * len(good)


@pytest.mark.parametrize("T", [600, 641])  # 599 columns with a partial last block, 640 = 10 blocks
@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
def test_two_level_search_on_memo_slots_matches_reference(T, chunking, kern, mass, monkeypatch):
    # the points are sample responses, so the first call stores their rows' summaries and the second
    # is served from the memo: rows 1-14 carry knot levels, whose memo pairs fall back to the full
    # row, rows 15-29 uniform levels only, and row 0 is crowded, so it takes the exact scan
    series = simulate(DAR, T=T, y0=0.2, seed=127)
    prep = kernels._QuantilePrep.from_series(series, KernelConfig(kernel=kern, min_weight_sum=mass))
    m = T - 1
    if chunking == "short_last_chunk":  # still 16-row weight blocks, and room in the memo for every row
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", 16 * m)
    picks = np.random.default_rng(128).choice(np.arange(1, m - 1), 28, replace=False)
    distinct = prep.v[np.concatenate([picks, [0, m - 1]])]  # the extreme responses lack mass in some cases
    w = REF_KERNELS[kern](prep.x[None, :] - distinct[:, None], prep.bandwidth)
    sum_w, cw = _row_total(w), np.cumsum(w, axis=1)
    knots = cw[:, [0, m // 4, m // 2, 3 * m // 4, m - 2]] / sum_w[:, None]
    uniform = np.random.default_rng(129).uniform(0.01, 0.99, (30, 8))
    levels = np.where(np.arange(30)[:, None] < 15, np.column_stack([knots, np.full(30, np.nextafter(1.0, 0.0)),
                                                                    uniform[:, :2]]), uniform)
    rows = np.concatenate([np.repeat(np.arange(30), 8), np.zeros(12, int)])
    order = np.random.default_rng(130).permutation(len(rows))
    alphas = np.concatenate([levels.ravel(), np.random.default_rng(131).uniform(0.01, 0.99, 12)])[order]
    rows = rows[order]
    ys = distinct[rows]
    searched, blocks = [], []
    search = kernels._two_level

    def recorded(prep, summaries, rows, points, levels):
        searched.append((summaries is prep.memo, points, search(prep, summaries, rows, points, levels)))
        return searched[-1][2]

    monkeypatch.setattr(kernels, "_two_level", recorded)
    _recording(monkeypatch, kernels, "_weight_blocks", blocks)
    for call in range(2):
        got, want = kernels._quantile_batch(prep, ys, alphas, keep=True), _ref_quantile_batch(prep, ys, alphas)
        for g, r in zip(got, want):
            assert_same_bits(g, r)
        assert_same_bits(got[2], sum_w[rows])
        if call == 0:  # every row evaluated and stored, and no pair served from the memo
            assert_same_bits(blocks[0][1], np.sort(distinct))
            assert prep.used == 30 and not any(on_memo for on_memo, _, _ in searched)
            del searched[:]
    good = kernels._mass_ok(sum_w, w.max(axis=1), prep.threshold)
    assert good[0] and good[1:15].sum() >= 10 and good[15:].sum() >= 10
    # the second call searched every pair of the uncrowded rows with mass on their slots; the knot
    # levels' pairs fall back, and only the crowded row and the rows of such pairs are evaluated again
    assert all(on_memo for on_memo, _, _ in searched)
    points, idx = (np.concatenate(a) for a in zip(*[(p, i) for _, p, i in searched]))
    assert len(idx) == 8 * good[1:].sum() and np.isin(points[idx < 0], distinct[1:15]).all()
    assert np.count_nonzero(idx < 0) >= 5 * good[1:15].sum()
    (_, evaluated, _, _), = blocks[1:]
    assert_same_bits(evaluated, np.union1d(distinct[0], points[idx < 0]))
    assert len(evaluated) == 1 + good[1:15].sum()


def _recording(monkeypatch, module, name, record):
    original = getattr(module, name)

    def recorded(*args):
        record.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recorded)


def _slots(prep, points):
    """The memo slot of each point's row, -1 where it has none."""
    j = np.minimum(np.searchsorted(prep.v, points), len(prep.v) - 1)
    return np.where(prep.v[j] == points, prep.slots[j], -1)


def _traced_simulation(series, req, monkeypatch):
    """simulate_paths, and per _quantile_batch call (a step): its states, the memo slots of its distinct
    states when it starts, the points it evaluates in full, its two-level searches as (on the memo,
    points, indices), and the memo's size when it returns."""
    steps = []
    batch, blocks, search = kernels._quantile_batch, kernels._weight_blocks, kernels._two_level

    def traced_batch(prep, ys, alphas, keep=False):
        steps.append({"prep": prep, "ys": ys.copy(), "slot": _slots(prep, np.unique(ys)), "full": [], "search": [],
                      "keep": keep})
        out = batch(prep, ys, alphas, keep)
        steps[-1]["memo_cells"] = 0 if prep.memo is None else prep.memo.size
        return out

    def traced_blocks(x, points, *args):
        steps[-1]["full"].append(points.copy())
        return blocks(x, points, *args)

    def traced_search(prep, summaries, rows, points, levels):
        idx = search(prep, summaries, rows, points, levels)
        steps[-1]["search"].append((summaries is prep.memo, points.copy(), idx))
        return idx

    monkeypatch.setattr(irf, "_quantile_batch", traced_batch)
    monkeypatch.setattr(kernels, "_weight_blocks", traced_blocks)
    monkeypatch.setattr(kernels, "_two_level", traced_search)
    return irf.simulate_paths(series, req), steps


def _assert_full_rows_are_the_unserved_states(series, req, steps):
    """Step one evaluates y0 alone; a later step evaluates exactly its distinct states without a memo
    slot, its crowded states (pairs x 64 > m) and the states of its uncertified memo-served pairs."""
    assert len(steps) == req.horizons and all(len(step["full"]) == 1 for step in steps)
    assert_same_bits(steps[0]["ys"], np.full(2 * req.S, req.y0))
    assert_same_bits(steps[0]["full"][0], np.array([req.y0]))
    for step in steps[1:]:
        distinct, counts = np.unique(step["ys"], return_counts=True)
        crowded = counts * kernels._SCAN_BLOCK > series.T - 1
        uncertified = [points[idx < 0] for on_memo, points, idx in step["search"] if on_memo]
        want = np.union1d(distinct[(step["slot"] < 0) | crowded], np.concatenate([[]] + uncertified))
        assert_same_bits(step["full"][0], want)


def test_simulated_steps_evaluate_each_response_row_once(small_dar, monkeypatch):
    req = IrfRequest(y0=0.2, horizons=5, delta=0.5, S=200, seed=116)
    sim, steps = _traced_simulation(small_dar, req, monkeypatch)
    assert np.isfinite(sim.base[:, -1]).any()
    _assert_full_rows_are_the_unserved_states(small_dar, req, steps)
    # here every searched pair is certified and no later state is crowded, so no response row is
    # evaluated twice in the simulation, and the memo serves a share of each later step's states
    assert all((idx >= 0).all() for step in steps for _, _, idx in step["search"])
    assert all(np.unique(step["ys"], return_counts=True)[1].max() * 64 <= 599 for step in steps[1:])
    later = np.concatenate([step["full"][0] for step in steps[1:]])
    assert len(np.unique(later)) == len(later)
    assert all(len(step["full"][0]) < len(np.unique(step["ys"])) for step in steps[2:])
    assert all((step["slot"] >= 0).any() for step in steps[2:])
    # every step but the first and the last keeps its rows: the last step's would never be read
    assert [step["keep"] for step in steps] == [False, True, True, True, False]
    assert steps[0]["prep"].used == sum(len(step["full"][0]) for step in steps[1:-1])


def _ref_simulate_paths(series, req):
    """simulate_paths with the full-row reference scan on a fresh prep at each step: no memo, no search."""
    rng = np.random.default_rng(req.seed)
    eps1 = rng.standard_normal(req.S)
    paths = np.full((2, req.S, req.horizons), np.nan)
    ys, alphas = np.full(2 * req.S, req.y0), irf._rank(np.concatenate([eps1, eps1 + req.delta]))
    vals, ok = _ref_quantile_batch(kernels._QuantilePrep.from_series(series, req.cfg), ys, alphas)
    assert ok.all()
    paths[:, :, 0] = vals.reshape(2, req.S)
    for k in range(1, req.horizons):
        eps_k = rng.standard_normal(req.S)
        for path in paths:  # each row steps on its own until its path leaves
            idx = np.flatnonzero(np.isfinite(path[:, k - 1]))
            vals, ok = _ref_quantile_batch(kernels._QuantilePrep.from_series(series, req.cfg), path[idx, k - 1],
                                           irf._rank(eps_k[idx]))
            path[idx[ok], k] = vals[ok]
    return paths


@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
def test_simulated_paths_match_memo_free_reference(small_dar, kern, mass):
    req = IrfRequest(y0=0.2, horizons=6, delta=0.5, S=200, seed=125, cfg=KernelConfig(kernel=kern, min_weight_sum=mass))
    assert_same_bits(irf.simulate_paths(small_dar, req).paths, _ref_simulate_paths(small_dar, req))


def test_memo_stays_within_its_budget(small_dar, monkeypatch):
    req = IrfRequest(y0=0.2, horizons=5, delta=0.5, S=200, seed=126)
    want = _ref_simulate_paths(small_dar, req)
    assert_same_bits(irf.simulate_paths(small_dar, req).paths, want)
    budget = 5 * (10 + 1)  # five summaries of a 599-column row: ten block prefixes, the last its total, and maximum
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", budget)
    sim, steps = _traced_simulation(small_dar, req, monkeypatch)
    assert_same_bits(sim.paths, want)
    prep = steps[0]["prep"]
    assert prep.memo.shape == (5, 11) and prep.used == 5 and (prep.slots >= 0).sum() == 5
    assert all(step["memo_cells"] <= budget for step in steps)
    # rows beyond the five slots are evaluated in full at every step
    _assert_full_rows_are_the_unserved_states(small_dar, req, steps)
    assert all(len(step["full"][0]) >= len(np.unique(step["ys"])) - 5 for step in steps[1:])
    assert any((step["slot"] >= 0).any() for step in steps[1:])
    # at T=50,000 the default budget holds 1277 of the 49,999 rows' 783-cell summaries (8 MB, not 313 MB)
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", 1_000_000)
    v = np.arange(49_999.0)
    big = kernels._QuantilePrep(v, v, 1.0, "gaussian", None, slots=np.full(len(v), -1))
    big.store(np.array([7]), np.zeros((1, 783)))
    assert big.memo.shape == (1277, 783) and big.memo.size <= 1_000_000 and big.slots[7] == 0


@pytest.mark.parametrize("kern, mass", KERNEL_CASES)
def test_nw_lags_fit_each_distinct_point_once(small_dar, chunking, kern, mass, monkeypatch):
    cfg = KernelConfig(kernel=kern, min_weight_sum=mass)
    p = _points()
    points = np.concatenate([p, p[::-1], p[:7], [np.nan, np.nan]])
    blocks = []
    _recording(monkeypatch, kernels, "_weight_blocks", blocks)
    values, ok, weights, _ = kernels._nw_lags(small_dar, cfg, points, range(1, 5))
    assert len(blocks) == 1 and len(blocks[0][1]) == 41  # 40 points and one NaN
    # equal points get identical bits, those of a fit at the distinct points alone
    want = kernels._nw_lags(small_dar, cfg, np.append(p, np.nan), range(1, 5))
    for g, w in zip((values, ok, weights), want):
        assert_same_bits(g[:, :40], w[:, :40])
        assert_same_bits(g[:, 40:80], w[:, 39::-1])
        assert_same_bits(g[:, 80:87], w[:, :7])
        assert_same_bits(g[:, 87:], w[:, [40, 40]])
    assert not ok.all() and ok.any()


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
        w = REF_KERNELS[kern](x[None, :] - points[lo:hi, None], b)
        sums[lo:hi], maxima[lo:hi] = w.sum(axis=1), w.max(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[lo:hi] = (w @ targets) / sums[lo:hi].reshape((-1,) + (1,) * (targets.ndim - 1))
    return out, sums, maxima


@pytest.mark.parametrize("kern", ["gaussian", "epanechnikov"])
@pytest.mark.parametrize("q", [None, 3])
def test_nw_fit_windows_match_per_window_reference(small_dar, chunking, kern, q):
    # the local projection's windows: lag L reads the prefix [:T-L] of one block, at one bandwidth
    y = small_dar.y
    b = silverman_bandwidth(y)
    resp = np.column_stack([y, y * y, np.abs(y)]) if q else y
    windows = [(len(y) - lag, resp[lag:]) for lag in (1, 3)]
    fits, sum_w, max_w = kernels._nw_fit(y[:-1], _points(), b, kern, windows)
    for i, (n, targets) in enumerate(windows):
        want = _ref_window_fit(y[:n], targets, _points(), b, kern)
        for g, w in zip((fits[i], sum_w[i], max_w[i]), want):
            assert_same_bits(g, w)


# ---------------------------------------------------------------------------
# the symmetric kernel matrix from its upper triangle
# ---------------------------------------------------------------------------

def _product_cases():
    rng = np.random.default_rng(114)
    repeated = np.repeat(rng.normal(size=150), rng.integers(1, 4, size=150))  # runs of equal values
    return {"repeated_values": repeated, "ragged_last_strip": rng.normal(size=1000), "one_strip": rng.normal(size=40)}


@pytest.mark.parametrize("case", ["repeated_values", "ragged_last_strip", "one_strip"])
@pytest.mark.parametrize("cells", [None, 1])
@pytest.mark.parametrize("kern", ["gaussian", "epanechnikov"])
def test_kernel_matrix_product_matches_dense_product(monkeypatch, case, cells, kern):
    # 64-row strips by default, 16 under a one-cell budget: 1000 rows end on a short strip either way, and
    # 40 rows fit one strip by default
    if cells is not None:
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
    y = _product_cases()[case]
    b = 0.5 * silverman_bandwidth(y)
    rng = np.random.default_rng(115)
    positive = np.column_stack([np.ones(len(y)), y * y, rng.exponential(size=len(y))])
    signed, zero = rng.normal(size=(len(y), 2)), np.zeros((len(y), 1))
    got = kernels._kernel_matrix_product(y, np.hstack([positive, signed, zero]), b, kern)
    K = REF_KERNELS[kern](y[None, :] - y[:, None], b)
    np.testing.assert_allclose(got[:, :3], K @ positive, rtol=1e-12, atol=0)
    # a signed column may cancel, so its error is bounded by the magnitudes summed
    assert (np.abs(got[:, 3:5] - K @ signed) <= 1e-12 * (K @ np.abs(signed))).all()
    assert (got[:, 5] == 0.0).all() and not np.signbit(got[:, 5]).any()


def test_kernel_matrix_product_evaluates_upper_strips_in_the_thread_scratch(small_dar, monkeypatch):
    list(kernels._weight_blocks(small_dar.y, _points(), 0.3, "gaussian"))
    kept = kernels._SCRATCH.buf  # 40 x 600 cells, room for 64 x 300
    y, blocks, kernel = np.random.default_rng(116).normal(size=300), [], kernels._kernel

    def recording(u, *args):
        blocks.append((u.shape, np.shares_memory(u, kept)))
        return kernel(u, *args)

    monkeypatch.setattr(kernels, "_kernel", recording)
    kernels._kernel_matrix_product(y, np.ones((300, 1)), 0.3, "gaussian")
    assert blocks == [((min(64, 300 - i0), 300 - i0), True) for i0 in range(0, 300, 64)]
    assert kernels._SCRATCH.buf is kept


def test_kernel_matrix_product_keeps_the_block_budget_on_long_series(monkeypatch):
    # at T=100,000 a strip takes the 16-row floor's cells, as a _weight_blocks block does (12.8 MB)
    class FirstStrip(Exception):
        pass

    def first_strip(u, *args):
        shapes.append(u.shape)
        raise FirstStrip

    shapes = []
    monkeypatch.setattr(kernels._SCRATCH, "buf", None, raising=False)  # the thread's own buffer comes back after
    monkeypatch.setattr(kernels, "_kernel", first_strip)
    with pytest.raises(FirstStrip):
        kernels._kernel_matrix_product(np.zeros(100_000), np.ones((100_000, 10)), 0.1, "gaussian")
    assert shapes == [(16, 100_000)]
    assert len(kernels._SCRATCH.buf) <= max(kernels._CHUNK_CELLS, 16 * 100_000)


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
    fits, sum_w, max_w = kernels._nw_fit(x, points, b, kern, [(n, np.sin(np.arange(n))) for n in lengths])
    w = np.concatenate([blk.copy() for _, _, blk in kernels._weight_blocks(x, points, b, kern)])
    if kern == "gaussian":
        assert np.isnan(max_w[:, 5]).all() and np.isnan(sum_w[:, 5]).all()
    else:
        assert (max_w[:, [5, -2, -1]] == 0.0).all()
    for i, n in enumerate(lengths):
        assert_same_bits(sum_w[i], w[:, :n].sum(axis=1))
        assert_same_bits(max_w[i], w[:, :n].max(axis=1))


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


def _ref_lp_predictions(series, req, points, bandwidth, distinct):
    """Per-lag NW fits as before the lags shared a bandwidth; None re-derives it from y[:T-lag].

    ``distinct`` fits each distinct point once and gathers the fits, as ``_nw_lags`` does;
    otherwise every point gets its own row.
    """
    cfg = req.cfg if bandwidth is None else replace(req.cfg, bandwidth=bandwidth)
    fitted, inverse = np.unique(points, return_inverse=True) if distinct else (points, slice(None))
    fits = [(points, np.ones(len(points), bool))]
    return fits + [tuple(a[inverse] for a in _ref_nw_batch(series, cfg, fitted, lag)[:2])
                   for lag in range(1, req.horizons)]


def _ref_irf_lp(series, req, bandwidth=None, distinct=True):
    _, _, sim = irf._simulate_step1(series, req)
    eps1, (base1, shock1) = sim.eps1, sim.paths[:, :, 0]
    fits = _ref_lp_predictions(series, req, np.concatenate([base1, shock1]), bandwidth, distinct)
    outcomes = np.column_stack([np.where(ok, v, np.nan) for v, ok in fits])  # NaN where a fit fails
    sim = irf.PathSimulation(np.stack([outcomes[: req.S], outcomes[req.S :]]), eps1, bandwidth)
    return irf._reduce(sim, req, "local_projection", irf._mean(sim.shock - sim.base))


def _ref_decompose_lp(series, req, bandwidth=None, distinct=True):
    _, _, sim = irf._simulate_step1(series, req)
    eps1, base1 = sim.eps1, sim.base[:, 0]
    fits = _ref_lp_predictions(series, req, base1, bandwidth, distinct)
    return [decompose_irf(v[ok], eps1[ok], req.delta, J=4, h=h) for h, (v, ok) in enumerate(fits, start=1)]


def _unpaired_lp_decomposition(series, req, J):
    """decompose_lp_irf as it was before it read a zero-shock pair: ``_lp_paths(paired=False)`` fitted the
    S baseline step-one states alone, as a one-row simulation, and ``_decomposition`` reduced it."""
    prep, _, sim = irf._simulate_step1(series, req)
    eps1, points = sim.eps1, sim.paths[:1, :, 0]
    vals = np.empty((req.horizons, points.size))
    vals[0] = points.ravel()
    if req.horizons > 1:
        vals[1:] = kernels._nw_lags(series, req.cfg, vals[0], range(1, req.horizons), prep.bandwidth)[0]
    base = vals.reshape(req.horizons, *points.shape).transpose(1, 2, 0)[0]
    kept = np.isfinite(base)
    irf._check_rejections(req.S - kept.sum(axis=0), req.S)
    return [decompose_irf(base[m, h - 1], eps1[m], req.delta, J=J, h=h) for h, m in enumerate(kept.T, start=1)]


@pytest.mark.parametrize("case", [*KERNEL_CASES, "shocked_exits"])
def test_lp_decomposition_matches_the_unpaired_fit(small_dar, chunking, case):
    # the zero-shock pair's 2S step-one states are S distinct states twice, so _nw_fit gets the call
    # the unpaired fit made, and the coefficients keep their bits
    if case == "shocked_exits":  # at delta=1.5 three shocked step-one states leave, no baseline one
        series = simulate(DAR, T=800, y0=0.2, seed=3)
        req = IrfRequest(y0=0.2, horizons=3, delta=1.5, S=300, seed=5, cfg=KernelConfig(min_weight_sum=5.0))
        assert (~irf._lp_paths(series, req).valid).sum(axis=0).tolist() == [0, 3, 3]
    else:
        series, (kern, mass) = small_dar, case
        req = IrfRequest(y0=0.2, horizons=5, delta=0.5, S=40, seed=108, cfg=KernelConfig(kern, min_weight_sum=mass))
    for got, want in zip(decompose_lp_irf(series, req, J=4), _unpaired_lp_decomposition(series, req, J=4),
                         strict=True):
        assert_same_bits(got.coefficients, want.coefficients)
        assert_same_bits(got.coef_se, want.coef_se)


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
    base1, shock1 = irf._simulate_step1(small_dar, req)[2].paths[:, :, 0]
    assert len(np.unique(np.concatenate([base1, shock1]))) < 2 * req.S  # the curve's fit has repeats
    # bitwise at every horizon against per-lag fits of the distinct points at the series bandwidth
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
    # against a row per point, as before the fits were deduplicated: per-lag bandwidths move
    # values by at most 1% of a Monte Carlo standard error, and the matvec's row count only
    # their last bits
    per_point = _ref_irf_lp(small_dar, req, distinct=False)
    per_point_decs = _ref_decompose_lp(small_dar, req, distinct=False)
    assert np.all(np.abs(curve.values - per_point.values) <= 0.01 * per_point.mc_se)
    totals = np.array([d.reconstructed_total for d in decs])
    per_point_totals = np.array([d.reconstructed_total for d in per_point_decs])
    assert np.all(np.abs(totals - per_point_totals) <= 0.01 * per_point.mc_se)
    same_bandwidth = _ref_irf_lp(small_dar, req, b, distinct=False)
    same_bandwidth_totals = [d.reconstructed_total for d in _ref_decompose_lp(small_dar, req, b, distinct=False)]
    np.testing.assert_allclose(curve.values, same_bandwidth.values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(totals, same_bandwidth_totals, rtol=1e-12, atol=0)
