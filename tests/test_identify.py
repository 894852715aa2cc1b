import math

import numpy as np
import pytest

import nlirf.identify as identify
import nlirf.kernels as kernels
from nlirf.identify import (
    DegenerateDynamics,
    MarkovTestResult,
    MixingEstimate,
    default_markov_basis,
    markov_moment_test,
    recover_mixing,
    recover_mixing_from_acf,
)
from nlirf.kernels import silverman_bandwidth
from nlirf.models import Dar1, GaussianAr1, TimeSeries, simulate

A_TRUE = np.array([[1.0, 0.5], [0.3, 1.0]])


def ar1_acvf(rho, H, sigma=1.0):
    h = np.arange(1, H + 1)
    return sigma**2 * rho**h / (1 - rho**2)


def observable_acvfs(A, rho1, rho2, H):
    gt1, gt2 = ar1_acvf(rho1, H), ar1_acvf(rho2, H)
    g11 = gt1 + A[0, 1] ** 2 * gt2
    g22 = A[1, 0] ** 2 * gt1 + gt2
    g12 = A[1, 0] * gt1 + A[0, 1] * gt2
    return g11, g22, g12


def mixed_sample(T, seed, rho1=0.9, rho2=0.2):
    x1 = simulate(GaussianAr1(rho1, 1.0), T=T, y0=0.0, seed=700 + seed).y
    x2 = simulate(GaussianAr1(rho2, 1.0), T=T, y0=0.0, seed=800 + seed).y
    return TimeSeries(values=(A_TRUE @ np.vstack([x1, x2])).T)


def sim_ar2(T, seed, phi1=0.5, phi2=0.3):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(T + 100)
    y = np.zeros(T + 100)
    for t in range(2, T + 100):
        y[t] = phi1 * y[t - 1] + phi2 * y[t - 2] + e[t]
    return TimeSeries(values=y[100:])


# ---------------------------------------------------------------------------
# mixing recovery
# ---------------------------------------------------------------------------

def test_analytic_acf_recovery_exact():
    g11, g22, g12 = observable_acvfs(A_TRUE, 0.9, 0.2, H=10)
    est = recover_mixing_from_acf(g11, g22, g12)
    assert isinstance(est, MixingEstimate)
    err = min(np.max(np.abs(c - A_TRUE)) for c in est.candidates)
    assert err < 1e-8
    assert est.residual_norm < 1e-10
    for c in est.candidates:
        assert c[0, 0] == 1.0 and c[1, 1] == 1.0


def test_candidates_are_permutation_duals():
    # swapping and rescaling the sources maps (a12, a21) to (1/a21, 1/a12)
    g11, g22, g12 = observable_acvfs(A_TRUE, 0.9, 0.2, H=8)
    est = recover_mixing_from_acf(g11, g22, g12)
    c1, c2 = est.candidates
    assert c2[0, 1] == pytest.approx(1.0 / c1[1, 0], rel=1e-9)
    assert c2[1, 0] == pytest.approx(1.0 / c1[0, 1], rel=1e-9)


def test_candidates_reproduce_cross_acf():
    g11, g22, g12 = observable_acvfs(A_TRUE, 0.85, 0.3, H=6)
    est = recover_mixing_from_acf(g11, g22, g12)
    for c in est.candidates:
        a12, a21 = c[0, 1], c[1, 0]
        implied = (a21 * g11 + a12 * g22) / (1.0 + a12 * a21)
        assert np.linalg.norm(implied - g12) <= est.residual_norm + 1e-8


def test_equal_dynamics_degenerate():
    gt = ar1_acvf(0.6, 8)
    with pytest.raises(DegenerateDynamics):
        recover_mixing_from_acf(gt, 2.0 * gt, 1.2 * gt)


def test_sampled_recovery_within_tolerance():
    est = recover_mixing(mixed_sample(50_000, seed=0), max_lag=3)
    err = min(np.max(np.abs(c - A_TRUE)) for c in est.candidates)
    assert err < 0.05
    assert est.sources is not None and est.sources.n == 2
    # recovered sources should be nearly uncorrelated at lag 0
    x = est.sources.values
    corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
    assert abs(corr) < 0.1


def test_equal_rho_sources_degenerate_from_exact_acf():
    # sources with identical dynamics make the regression design exactly
    # collinear; the identification hypothesis fails
    g11, g22, g12 = observable_acvfs(A_TRUE, 0.5, 0.5, H=8)
    with pytest.raises(DegenerateDynamics):
        recover_mixing_from_acf(g11, g22, g12)


def test_triangular_mixing_recovered():
    # a12 = 0: the regular root must survive the vanishing-product corner
    A = np.array([[1.0, 0.0], [0.4, 1.0]])
    gt1, gt2 = ar1_acvf(0.8, 6), ar1_acvf(0.1, 6)
    g11 = gt1
    g22 = A[1, 0] ** 2 * gt1 + gt2
    g12 = A[1, 0] * gt1
    est = recover_mixing_from_acf(g11, g22, g12)
    err = min(np.max(np.abs(c - A)) for c in est.candidates)
    assert err < 1e-8


def test_recover_mixing_validates_inputs():
    with pytest.raises(ValueError):
        recover_mixing(TimeSeries(values=np.random.default_rng(0).standard_normal(50)))
    ts = mixed_sample(200, seed=1)
    with pytest.raises(ValueError):
        recover_mixing(ts, max_lag=1)


# ---------------------------------------------------------------------------
# Markov moment test
# ---------------------------------------------------------------------------

def test_iid_single_triple_accepts():
    # independence factorizes every triple moment; acceptance should be
    # the norm across seeds
    idf = lambda x: x
    one = lambda x: np.ones_like(x)
    accepted = 0
    N = 40
    for s in range(N):
        ts = simulate(GaussianAr1(0.0, 1.0), T=500, y0=0.0, seed=400 + s)
        res = markov_moment_test(ts, basis=[(idf, idf, one)], B=300, seed=s)
        accepted += not res.reject
        assert res.statistic >= 0.0
    assert accepted >= 0.9 * N


def test_ar1_is_accepted_as_markov():
    ts = simulate(GaussianAr1(0.5, 1.0), T=5000, y0=0.0, seed=9001)
    res = markov_moment_test(ts, seed=1)
    assert isinstance(res, MarkovTestResult)
    assert not res.reject
    assert res.statistic < res.critical_value
    assert len(res.moments) == 4
    assert res.block_length == int(np.ceil(5000 ** (1 / 3)))


def test_ar2_is_rejected():
    rejections = sum(
        markov_moment_test(sim_ar2(5000, 8100 + s), seed=s).reject for s in range(5)
    )
    assert rejections >= 4


def test_decision_invariant_under_affine_rescaling():
    ts = simulate(GaussianAr1(0.5, 1.0), T=2000, y0=0.0, seed=9002)
    scale, shift = 3.0, 1.5
    ts2 = TimeSeries(values=scale * ts.values + shift)
    res1 = markov_moment_test(ts, seed=7)

    # basis transported through the affine map phi(x) = scale*x + shift
    med2 = float(np.median(ts2.y))
    inv = lambda x: (x - shift) / scale
    idf = lambda x: inv(x)
    one = lambda x: np.ones_like(x)
    sq = lambda x: inv(x) ** 2
    ind = lambda x: (x > med2).astype(float)
    basis2 = [(idf, idf, one), (idf, idf, idf), (sq, sq, one), (ind, ind, idf)]
    res2 = markov_moment_test(ts2, basis=basis2, seed=7)
    assert res1.reject == res2.reject
    assert res1.statistic == pytest.approx(res2.statistic, rel=1e-6)


def test_markov_test_validates_inputs():
    ts = simulate(GaussianAr1(0.5, 1.0), T=50, y0=0.0, seed=9003)
    with pytest.raises(ValueError):
        markov_moment_test(ts)
    ts = simulate(GaussianAr1(0.5, 1.0), T=500, y0=0.0, seed=9004)
    with pytest.raises(ValueError):
        markov_moment_test(ts, basis=[])
    bad = lambda x: np.where(x > 0, np.inf, x)
    idf = lambda x: x
    with pytest.raises(ValueError):
        markov_moment_test(ts, basis=[(bad, idf, idf)])


def test_singular_bootstrap_covariance_is_degenerate_dynamics():
    # c = 0 makes the second moment identically zero, so its bootstrap
    # variance is zero and the covariance matrix is singular
    ts = simulate(GaussianAr1(0.5, 1.0), T=500, y0=0.0, seed=9006)
    idf = lambda x: x
    zero = lambda x: np.zeros_like(x)
    with pytest.raises(DegenerateDynamics, match="singular"):
        markov_moment_test(ts, basis=[(idf, idf, idf), (idf, idf, zero)], B=50)


def test_default_basis_shape():
    ts = simulate(GaussianAr1(0.5, 1.0), T=500, y0=0.0, seed=9005)
    basis = default_markov_basis(ts)
    assert len(basis) == 4
    for a, b, c in basis:
        assert np.isfinite(a(ts.y)).all()
        assert np.isfinite(b(ts.y)).all()
        assert np.isfinite(c(ts.y)).all()


def _ref_nw_multi(x, targets, points, b):
    """The Markov test's former NW fit: unnormalised Gaussian weights, (q, m) targets."""
    out = np.empty((targets.shape[0], len(points)))
    chunk = max(16, 4_000_000 // len(x))
    for lo in range(0, len(points), chunk):
        hi = min(lo + chunk, len(points))
        d = x[None, :] - points[lo:hi, None]
        w = np.exp(d * d * (-0.5 / b**2))
        out[:, lo:hi] = (targets @ w.T) / w.sum(axis=1)[None, :]
    return out


def _recording_product(monkeypatch):
    """Hook identify's kernel-matrix product; the returned list gets each call's (arguments, result)."""
    calls = []

    def recording(*args):
        calls.append((args, kernels._kernel_matrix_product(*args)))
        return calls[-1][1]

    monkeypatch.setattr(identify, "_kernel_matrix_product", recording)
    return calls


def _fits(sums, q):
    """Forward and backward fits at y[1:-1] from the product's rows: each target block over its ones column."""
    rows = sums[1:-1]
    return rows[:, :q] / rows[:, q, None], rows[:, q + 1 : -1] / rows[:, -1, None]


def test_markov_nw_fits_match_former_unnormalised_fit(monkeypatch):
    # the product's weights are these unnormalised ones; the fits differ from the former transposed
    # product only in the last bits
    calls = _recording_product(monkeypatch)
    ts = simulate(GaussianAr1(0.5, 1.0), T=3000, y0=0.0, seed=9007)
    y, basis = ts.y, default_markov_basis(ts)
    markov_moment_test(ts, B=50)
    (((_, _, b, _), sums),) = calls
    for got, (x, resp, f) in zip(_fits(sums, len(basis)), ((y[:-1], y[1:], 0), (y[1:], y[:-1], 1))):
        targets = np.column_stack([triple[f](resp) for triple in basis])
        np.testing.assert_allclose(got.T, _ref_nw_multi(x, targets.T, y[1:-1], b), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# one product of the kernel matrix for both regressions, and the block-sum bootstrap
# ---------------------------------------------------------------------------

def _ref_window_fit(x, targets, points, b):
    """A Gaussian NW fit of ``targets`` on ``x`` alone, from its own chunked blocks of the plain expression
    without the kernel's constant."""
    out = np.empty((len(points), targets.shape[1]))
    chunk = max(16, kernels._CHUNK_CELLS // len(x))
    for lo in range(0, len(points), chunk):
        hi = min(lo + chunk, len(points))
        d = x[None, :] - points[lo:hi, None]
        w = np.exp(d * d * (-0.5 / b**2))
        out[lo:hi] = (w @ targets) / w.sum(axis=1)[:, None]
    return out


@pytest.mark.parametrize("cells", [None, 1])
def test_markov_fits_are_column_windows_of_one_block(monkeypatch, cells):
    # 600 observations: 64-row strips by default, 9 x 64 + 24; a one-cell budget gives the 16-row floor, 37 x 16 + 8
    if cells is not None:
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
    calls = _recording_product(monkeypatch)
    ts = simulate(GaussianAr1(0.5, 1.0), T=600, y0=0.0, seed=9009)
    y, b = ts.y, silverman_bandwidth(ts.y)
    res = markov_moment_test(ts, B=50, seed=2)
    assert res.bandwidth == b
    (((got_y, targets, got_b, kern), sums),) = calls
    assert (got_y.tobytes(), got_b, kern) == (y.tobytes(), b, "gaussian")
    # the zero rows make each column read its own window: forward targets and ones on y[:-1], backward on y[1:]
    basis = default_markov_basis(ts)
    fwd_targets = np.column_stack([fa(y[1:]) for fa, _, _ in basis])
    bwd_targets = np.column_stack([fb(y[:-1]) for _, fb, _ in basis])
    ones, zero = np.ones((599, 1)), np.zeros((1, 5))
    want = np.hstack([np.vstack([np.hstack([fwd_targets, ones]), zero]),
                      np.vstack([zero, np.hstack([bwd_targets, ones])])])
    assert targets.tobytes() == want.tobytes()
    fwd, bwd = _fits(sums, len(basis))
    np.testing.assert_allclose(fwd, _ref_window_fit(y[:-1], fwd_targets, y[1:-1], b), rtol=1e-12, atol=0)
    np.testing.assert_allclose(bwd, _ref_window_fit(y[1:], bwd_targets, y[1:-1], b), rtol=1e-12, atol=0)


def test_markov_test_uses_one_bandwidth_and_one_weight_block(monkeypatch):
    counts = {"bandwidth": 0, "blocks": 0, "products": 0, "cells": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def cells(u, *args):
        counts["cells"] += u.size
        return kernel(u, *args)

    kernel = kernels._kernel
    monkeypatch.setattr(identify, "silverman_bandwidth", counting("bandwidth", identify.silverman_bandwidth))
    monkeypatch.setattr(kernels, "silverman_bandwidth", counting("bandwidth", kernels.silverman_bandwidth))
    monkeypatch.setattr(kernels, "_weight_blocks", counting("blocks", kernels._weight_blocks))
    monkeypatch.setattr(identify, "_kernel_matrix_product", counting("products", kernels._kernel_matrix_product))
    monkeypatch.setattr(kernels, "_kernel", cells)
    ts = simulate(GaussianAr1(0.5, 1.0), T=500, y0=0.0, seed=9010)
    res = markov_moment_test(ts, B=50)
    # one product, of 8 strips of 64 rows [i0, i0 + 64) by columns [i0, 500), a weight block each: the upper
    # triangle and its diagonal blocks
    upper = sum(min(64, 500 - i0) * (500 - i0) for i0 in range(0, 500, 64))
    assert counts == {"bandwidth": 1, "blocks": 8, "products": 1, "cells": upper}
    assert res.bandwidth == silverman_bandwidth(ts.y)


def test_markov_residuals_read_the_targets_evaluated_once(monkeypatch):
    # the default basis works pointwise, so rows 1:-1 of the targets are a(y[2:]) and b(y[:-2]): the
    # residuals, and so every moment, have the bits of a second evaluation on those windows
    contribs = []

    def recording_means(contrib, *args):
        contribs.append(contrib)
        return means(contrib, *args)

    means = identify._block_bootstrap_means
    calls = _recording_product(monkeypatch)
    monkeypatch.setattr(identify, "_block_bootstrap_means", recording_means)
    ts = simulate(Dar1.of(0.5, 1.0, 0.5), T=2000, y0=0.3, seed=9011)
    y, basis = ts.y, default_markov_basis(ts)
    res = markov_moment_test(ts, B=50, seed=2)
    ((_, sums),) = calls
    fwd_fit, bwd_fit = _fits(sums, len(basis))
    ra = np.column_stack([fa(y[2:]) for fa, _, _ in basis]) - fwd_fit
    rb = np.column_stack([fb(y[:-2]) for _, fb, _ in basis]) - bwd_fit
    contrib = ra * rb * np.column_stack([fc(y[1:-1]) for _, _, fc in basis])
    (got,) = contribs
    assert got.tobytes() == contrib.tobytes()
    assert res.moments.tobytes() == contrib.mean(axis=0).tobytes()


def _ref_gather_means(contrib, block_len, B, seed):
    """The former bootstrap: gather every replication's n rows and average them."""
    n = len(contrib)
    starts = np.random.default_rng(seed).integers(0, n, size=(B, int(math.ceil(n / block_len))))
    idx = (starts[:, :, None] + np.arange(block_len)[None, None, :]).reshape(B, -1)[:, :n] % n
    return contrib[idx].mean(axis=1)


@pytest.fixture(scope="module")
def markov_contrib():
    ts = simulate(GaussianAr1(0.5, 1.0), T=2000, y0=0.0, seed=9008)
    y = ts.y
    return np.column_stack([(y[2:] - 0.5 * y[1:-1]) * (y[:-2] - 0.4 * y[1:-1]) * f(y[1:-1])
                            for f in (np.ones_like, lambda x: x, np.abs)])


@pytest.mark.parametrize("block_len", [1, 5, 13, 1997])  # 13 = ceil(2000^(1/3)), 1997 = n - 1
def test_block_sum_bootstrap_matches_former_gather(markov_contrib, block_len):
    got = identify._block_bootstrap_means(markov_contrib, block_len, 700, np.random.default_rng(3))
    want = _ref_gather_means(markov_contrib, block_len, 700, seed=3)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(markov_contrib).max())


def test_one_bootstrap_draw_equals_former_chunked_draws():
    # n = 1998, nblocks = 154 at block_len 13: the former chunks of 500 + 200 and of 9 replications
    for chunks in ([500, 200], [9] * 77 + [7]):
        rng = np.random.default_rng(3)
        chunked = np.concatenate([rng.integers(0, 1998, size=(c, 154)) for c in chunks])
        assert np.random.default_rng(3).integers(0, 1998, size=(700, 154)).tobytes() == chunked.tobytes()


# ---------------------------------------------------------------------------
# Markov-test input validation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ar1_500():
    return simulate(GaussianAr1(0.5, 1.0), T=500, y0=0.0, seed=9011)


@pytest.mark.parametrize("kwargs, match", [
    ({"block_len": 2.5}, "block_len must be an integer >= 1"),
    ({"block_len": True}, "block_len must be an integer >= 1"),
    ({"block_len": 0}, "block_len must be an integer >= 1"),
    ({"B": 50.0}, "B must be an integer >= 10"),
    ({"B": True}, "B must be an integer >= 10"),
    ({"B": 9}, "B must be an integer >= 10"),
    ({"block_len": 498}, "block_len must be below T - 2 = 498"),
    ({"block_len": 800}, "block_len must be below T - 2 = 498"),
    ({"level": 1.5}, "level must be in"),
    ({"level": 0}, "level must be in"),
    ({"level": 1.0}, "level must be in"),
    ({"level": float("nan")}, "level must be in"),
    ({"level": "0.05"}, "level must be in"),
])
def test_markov_test_rejects_bad_arguments(ar1_500, kwargs, match):
    with pytest.raises(ValueError, match=match):
        markov_moment_test(ar1_500, **kwargs)


def test_markov_test_accepts_numpy_integers_and_longest_block(ar1_500):
    res = markov_moment_test(ar1_500, block_len=np.int64(497), B=np.int32(50))
    assert res.block_length == 497 and res.bootstrap_reps == 50
    assert np.isfinite(res.statistic)
