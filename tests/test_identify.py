import numpy as np
import pytest

import nlirf.identify as identify
from nlirf.identify import (
    DegenerateDynamics,
    MarkovTestResult,
    MixingEstimate,
    default_markov_basis,
    markov_moment_test,
    recover_mixing,
    recover_mixing_from_acf,
)
from nlirf.kernels import _nw_fit, silverman_bandwidth
from nlirf.models import GaussianAr1, TimeSeries, simulate

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


def _ref_nw_multi(x, targets, points):
    """The Markov test's former NW fit: unnormalised Gaussian weights, (q, m) targets."""
    b = silverman_bandwidth(x)
    out = np.empty((targets.shape[0], len(points)))
    chunk = max(16, 4_000_000 // len(x))
    for lo in range(0, len(points), chunk):
        hi = min(lo + chunk, len(points))
        w = np.exp(-0.5 * ((x[None, :] - points[lo:hi, None]) / b) ** 2)
        out[:, lo:hi] = (targets @ w.T) / w.sum(axis=1)[None, :]
    return out


def test_markov_nw_fits_match_former_unnormalised_fit():
    # the shared primitive divides by sqrt(2 pi), which cancels in the ratio
    # up to the last bits
    ts = simulate(GaussianAr1(0.5, 1.0), T=3000, y0=0.0, seed=9007)
    y = ts.y
    for x, resp in ((y[:-1], y[1:]), (y[1:], y[:-1])):
        targets = np.column_stack([f(resp) for f, _, _ in default_markov_basis(ts)])
        got = _nw_fit(x, targets, y[1:-1], silverman_bandwidth(x), "gaussian")[0]
        np.testing.assert_allclose(got.T, _ref_nw_multi(x, targets.T, y[1:-1]), rtol=1e-12, atol=0)


def test_bootstrap_does_not_depend_on_gather_chunk(monkeypatch):
    # n * k = 1998 * 4 cells per replication: the former 25e6-cell chunk holds
    # all 700 replications, the shared 4e6-cell budget 500 + 200, and a
    # budget of 9 replications ends on a short chunk
    ts = simulate(GaussianAr1(0.5, 1.0), T=2000, y0=0.0, seed=9008)
    assert identify._CHUNK_CELLS // (1998 * 4) == 500
    results = []
    for cells in (25_000_000, identify._CHUNK_CELLS, 1998 * 4 * 9):
        monkeypatch.setattr(identify, "_CHUNK_CELLS", cells)
        results.append(markov_moment_test(ts, B=700, block_len=5, seed=3))
    for res in results[1:]:
        assert res.moments.tobytes() == results[0].moments.tobytes()
        assert res.statistic == results[0].statistic
