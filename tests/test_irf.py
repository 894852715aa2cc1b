import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import norm

import nlirf.irf as irf_module
import nlirf.kernels as kernels
from nlirf.hermite import decompose_irf
from nlirf.irf import (
    Indicator,
    IrfRequest,
    QuantileLevel,
    decompose_direct_irf,
    decompose_lp_irf,
    irf_direct,
    irf_dynamic,
    irf_joint,
    irf_lp,
    irf_transformed,
    simulate_paths,
    var_irf,
    var_max_irf,
)
from nlirf.kernels import InsufficientLocalData, KernelConfig, silverman_bandwidth
from nlirf.models import Dar1, GaussianAr1, VarParams, simulate

DAR = Dar1.of(0.5, 1.0, 0.5)
AR1 = GaussianAr1(rho=0.5, sigma=1.0)


@pytest.fixture(scope="module")
def dar_series():
    return simulate(DAR, T=3000, y0=0.2, seed=301)


@pytest.fixture(scope="module")
def ar1_series():
    return simulate(AR1, T=3000, y0=0.0, seed=302)


def test_request_validation():
    with pytest.raises(ValueError):
        IrfRequest(y0=math.nan, horizons=3, delta=0.5)
    with pytest.raises(ValueError):
        IrfRequest(y0=0.0, horizons=0, delta=0.5)
    with pytest.raises(ValueError):
        IrfRequest(y0=0.0, horizons=3, delta=0.5, S=0)


@pytest.mark.parametrize("field, bad", [("horizons", 2.5), ("horizons", 3.0), ("horizons", True),
                                        ("horizons", "3"), ("S", 100.0), ("S", True)])
def test_request_rejects_non_integer_counts(field, bad):
    kwargs = {"y0": 0.0, "horizons": 3, "delta": 0.5, "S": 100, field: bad}
    with pytest.raises(ValueError, match=field):
        IrfRequest(**kwargs)


def test_request_accepts_numpy_integers():
    req = IrfRequest(y0=0.0, horizons=np.int64(3), delta=0.5, S=np.int32(100))
    assert req.horizons == 3 and req.S == 100


# ---------------------------------------------------------------------------
# route identities
# ---------------------------------------------------------------------------

def test_h1_direct_equals_lp_bitwise(dar_series, ar1_series):
    for series, y0, delta, seed in [
        (dar_series, 0.2, 0.5, 1),
        (dar_series, -0.5, -1.0, 2),
        (ar1_series, 0.0, 1.0, 3),
        (ar1_series, 0.8, 0.25, 4),
    ]:
        req = IrfRequest(y0=y0, horizons=4, delta=delta, S=500, seed=seed)
        d = irf_direct(series, req)
        lp = irf_lp(series, req)
        assert d.values[0] == lp.values[0]  # bitwise
        assert d.mc_se[0] == lp.mc_se[0]


def test_zero_shock_gives_exact_zero_everywhere(dar_series):
    req = IrfRequest(y0=0.2, horizons=4, delta=0.0, S=300, seed=5)
    assert np.all(irf_direct(dar_series, req).values == 0.0)
    assert np.all(irf_lp(dar_series, req).values == 0.0)
    assert np.all(irf_joint(dar_series, req).values == 0.0)
    assert np.all(irf_dynamic(dar_series, req).values == 0.0)
    ind = irf_transformed(dar_series, req, Indicator(0.5))
    assert np.all(ind.values == 0.0)


def test_identity_transform_reduces_to_direct(dar_series):
    req = IrfRequest(y0=0.2, horizons=3, delta=0.5, S=400, seed=6)
    direct = irf_direct(dar_series, req)
    ident = irf_transformed(dar_series, req, lambda u: u)
    np.testing.assert_array_equal(direct.values, ident.values)


def test_curves_record_their_bandwidth(dar_series):
    req = IrfRequest(y0=0.2, horizons=3, delta=0.5, S=200, seed=22)
    curves = [irf_direct(dar_series, req), irf_lp(dar_series, req), irf_joint(dar_series, req),
              irf_dynamic(dar_series, req), irf_transformed(dar_series, req, Indicator(0.5)),
              irf_transformed(dar_series, req, QuantileLevel(0.5))]
    b = silverman_bandwidth(dar_series.y[:-1])
    assert [c.meta["bandwidth"] for c in curves] == [b] * len(curves)
    req = IrfRequest(y0=0.2, horizons=3, delta=0.5, S=200, seed=22, cfg=KernelConfig(bandwidth=0.4))
    assert irf_direct(dar_series, req).meta["bandwidth"] == irf_lp(dar_series, req).meta["bandwidth"] == 0.4


class _Simulated(Exception):
    pass


@pytest.mark.parametrize("fn", [irf_lp, decompose_lp_irf])
def test_lp_short_series_rejected_before_simulation(monkeypatch, fn):
    def simulated(*args):
        raise _Simulated

    monkeypatch.setattr(irf_module, "_simulate_step1", simulated)
    req = IrfRequest(y0=0.2, horizons=4, delta=0.5, S=50)
    with pytest.raises(ValueError, match="series too short"):  # T <= H + 1: lag H - 1 has no data
        fn(simulate(DAR, T=5, y0=0.2, seed=303), req)
    with pytest.raises(_Simulated):
        fn(simulate(DAR, T=6, y0=0.2, seed=303), req)


@pytest.mark.parametrize("fn", [irf_lp, decompose_lp_irf])
def test_lp_resolves_one_bandwidth_and_builds_weights_twice(dar_series, monkeypatch, fn):
    # one Silverman bandwidth per series, and two weight generators: the y0 row and all lags at once
    calls = Counter()
    for name in ("silverman_bandwidth", "_weight_blocks"):
        def counted(*args, _name=name, _fn=getattr(kernels, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(kernels, name, counted)
    fn(dar_series, IrfRequest(y0=0.2, horizons=7, delta=0.5, S=100, seed=23))
    assert calls == {"silverman_bandwidth": 1, "_weight_blocks": 2}


# ---------------------------------------------------------------------------
# oracles on simulated data
# ---------------------------------------------------------------------------

def test_dar_h1_oracle(dar_series):
    oracle = 0.5 * math.sqrt(1.0 + 0.5 * 0.2**2)  # 0.50498
    req = IrfRequest(y0=0.2, horizons=1, delta=0.5, S=2000, seed=7)
    for fn in (irf_direct, irf_lp):
        got = fn(dar_series, req).values[0]
        assert got == pytest.approx(oracle, abs=0.12)


def test_gaussian_curve_decays_geometrically(ar1_series):
    req = IrfRequest(y0=1.0, horizons=3, delta=1.0, S=2000, seed=8)
    for fn in (irf_direct, irf_lp):
        curve = fn(ar1_series, req)
        np.testing.assert_allclose(curve.values, [1.0, 0.5, 0.25], atol=0.15)
    # only scattered tail states may be rejected on a healthy sample, and
    # the direct route's counts are cumulative across horizons
    rej = irf_direct(ar1_series, req).meta["rejected"]
    assert max(rej) <= 0.01 * req.S
    assert all(a <= b for a, b in zip(rej, rej[1:]))


def test_indicator_irf_bounded_and_matches_normal_shift(ar1_series):
    req = IrfRequest(y0=0.0, horizons=2, delta=1.0, S=4000, seed=9)
    curve = irf_transformed(ar1_series, req, Indicator(0.0))
    assert np.all(curve.values >= -1.0) and np.all(curve.values <= 1.0)
    # oracle at h=1: Phi(-1) - Phi(0) = -0.34134
    assert curve.values[0] == pytest.approx(norm.cdf(-1) - norm.cdf(0), abs=0.07)


def test_dynamic_irf_closed_form():
    # for the unit AR(1) with rho=0.5, y0=1, delta=1, h=2 the expected
    # product shift is 2 rho^2 sigma delta y0 + rho sigma^2 delta^2 = 1,
    # cross-checked here against a brute-force simulation with the true map
    rng = np.random.default_rng(10)
    S = 1_000_000
    e = rng.standard_normal((S, 2))
    y1b = 0.5 * 1.0 + e[:, 0]
    y1s = 0.5 * 1.0 + e[:, 0] + 1.0
    prod_b = (0.5 * y1b + e[:, 1]) * y1b
    prod_s = (0.5 * y1s + e[:, 1]) * y1s
    mc = np.mean(prod_s - prod_b)
    assert mc == pytest.approx(1.0, abs=3 * np.std(prod_s - prod_b, ddof=1) / math.sqrt(S))

    series = simulate(AR1, T=8000, y0=0.0, seed=303)
    req = IrfRequest(y0=1.0, horizons=2, delta=1.0, S=4000, seed=11)
    curve = irf_dynamic(series, req)
    assert curve.values[1] == pytest.approx(1.0, abs=0.25)


def test_dynamic_requires_two_horizons(dar_series):
    with pytest.raises(ValueError):
        irf_dynamic(dar_series, IrfRequest(y0=0.2, horizons=1, delta=0.5, S=100))


def test_joint_irf_nonnegative_and_matches_square(ar1_series):
    req = IrfRequest(y0=0.5, horizons=3, delta=1.0, S=3000, seed=12)
    curve = irf_joint(ar1_series, req)
    assert np.all(curve.values >= 0.0)
    # paths differ deterministically by rho^(h-1) sigma delta in the true
    # model, so the squared difference is its square
    for h in (1, 2, 3):
        assert curve.values[h - 1] == pytest.approx(0.5 ** (2 * (h - 1)), abs=0.2)


def test_quantile_level_transform(ar1_series):
    req = IrfRequest(y0=0.0, horizons=2, delta=1.0, S=4000, seed=13)
    curve = irf_transformed(ar1_series, req, QuantileLevel(0.5))
    # shifting the innovation by delta shifts every predictive quantile by
    # about sigma*delta at h=1 in the linear model
    assert curve.values[0] == pytest.approx(1.0, abs=0.2)
    assert curve.mc_se[0] > 0
    with pytest.raises(ValueError):
        QuantileLevel(1.2)


# ---------------------------------------------------------------------------
# rejection accounting
# ---------------------------------------------------------------------------

def test_bad_conditioning_state_raises(dar_series):
    req = IrfRequest(y0=200.0, horizons=2, delta=0.5, S=100, seed=14)
    with pytest.raises(InsufficientLocalData):
        irf_direct(dar_series, req)


def test_mass_threshold_rejections_counted_or_fatal(dar_series):
    # an absolute mass threshold makes sparse tail states unusable; a huge
    # shock pushes most shocked paths there, which must abort rather than
    # extrapolate
    cfg = KernelConfig(min_weight_sum=30.0)
    req = IrfRequest(y0=0.2, horizons=4, delta=8.0, S=300, seed=15, cfg=cfg)
    with pytest.raises(InsufficientLocalData, match="refusing to extrapolate"):
        irf_direct(dar_series, req)


def test_decompositions_refuse_to_extrapolate(dar_series):
    # the same thresholds that abort the plain routes abort their decompositions
    req = IrfRequest(y0=0.2, horizons=4, delta=8.0, S=300, seed=15, cfg=KernelConfig(min_weight_sum=30.0))
    with pytest.raises(InsufficientLocalData, match="refusing to extrapolate"):
        irf_direct(dar_series, req)
    with pytest.raises(InsufficientLocalData, match="refusing to extrapolate"):
        decompose_direct_irf(dar_series, req)
    req = IrfRequest(y0=0.2, horizons=3, delta=0.5, S=300, seed=15, cfg=KernelConfig(min_weight_sum=200.0))
    with pytest.raises(InsufficientLocalData, match="refusing to extrapolate"):
        irf_lp(dar_series, req)
    with pytest.raises(InsufficientLocalData, match="refusing to extrapolate"):
        decompose_lp_irf(dar_series, req)


def test_path_simulation_bookkeeping(dar_series):
    # a threshold that loses some replications; the simulation itself never aborts
    req = IrfRequest(y0=0.2, horizons=5, delta=2.0, S=200, seed=16, cfg=KernelConfig(min_weight_sum=30.0))
    sim = simulate_paths(dar_series, req)
    assert sim.base.shape == sim.shock.shape == sim.valid.shape == (200, 5)
    # a pair leaves the estimable region together, and its outcomes are NaN exactly from then on
    np.testing.assert_array_equal(sim.valid, np.isfinite(sim.base))
    np.testing.assert_array_equal(sim.valid, np.isfinite(sim.shock))
    assert sim.valid[:, 0].all() and 0 < sim.valid[:, -1].sum() < sim.S
    assert np.all(sim.valid[:, 1:] <= sim.valid[:, :-1])  # each row is a prefix: once invalid, always


# ---------------------------------------------------------------------------
# VAR closed forms
# ---------------------------------------------------------------------------

def test_var_irf_zero_matrix():
    p = VarParams(A=np.zeros((2, 2)), D=np.eye(2))
    for h in (1, 2, 5):
        np.testing.assert_array_equal(var_irf(p, np.array([1.0, 2.0]), h), np.zeros(2))


def test_var_irf_diagonal_powers():
    p = VarParams(A=0.5 * np.eye(3), D=np.eye(3))
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(var_irf(p, e1, 3), 0.125 * e1, rtol=1e-14)


def test_var_irf_matches_eigendecomposition():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((3, 3))
    A = 0.9 * M / np.max(np.abs(np.linalg.eigvals(M)))
    D = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    p = VarParams(A=A, D=D)
    delta = rng.standard_normal(3)
    w, V = np.linalg.eig(A)
    for h in (1, 3, 6):
        oracle = np.real(V @ np.diag(w**h) @ np.linalg.inv(V) @ D @ delta)
        np.testing.assert_allclose(var_irf(p, delta, h), oracle, atol=1e-10)


def test_var_max_irf_diagonal_case():
    p = VarParams(A=0.5 * np.eye(2), D=np.eye(2))
    res = var_max_irf(p, np.array([1.0, 0.0]), h=2)
    assert res.value == pytest.approx(0.25, abs=1e-14)
    np.testing.assert_allclose(res.delta_star, [1.0, 0.0], atol=1e-14)
    assert not res.degenerate


def test_var_max_irf_rotation_invariant():
    rng = np.random.default_rng(18)
    A = 0.6 * np.eye(2) + 0.1 * rng.standard_normal((2, 2))
    D = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    theta = math.pi / 6
    Q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    a = np.array([0.3, -1.1])
    v1 = var_max_irf(VarParams(A, D), a, h=3).value
    v2 = var_max_irf(VarParams(A, D @ Q), a, h=3).value
    assert abs(v1 - v2) < 1e-10


def test_var_max_irf_dominates_sphere_grid():
    rng = np.random.default_rng(19)
    for _ in range(3):
        M = rng.standard_normal((3, 3))
        A = 0.8 * M / np.max(np.abs(np.linalg.eigvals(M)))
        D = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        p = VarParams(A=A, D=D)
        a = rng.standard_normal(3)
        res = var_max_irf(p, a, h=2)
        pts = rng.standard_normal((100_000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vals = pts @ (p.D.T @ np.linalg.matrix_power(p.A, 2).T @ a)
        assert vals.max() <= res.value + 1e-12
        assert res.value - vals.max() < 1e-3


def test_var_max_irf_degenerate_flagged():
    p = VarParams(A=np.array([[0.0, 0.5], [0.0, 0.0]]), D=np.eye(2))
    res = var_max_irf(p, np.array([1.0, 0.0]), h=2)  # A^2 = 0
    assert res.value == 0.0
    assert res.degenerate


def test_var_max_irf_rejects_zero_direction():
    p = VarParams(A=0.5 * np.eye(2), D=np.eye(2))
    with pytest.raises(ValueError):
        var_max_irf(p, np.zeros(2), h=1)


# ---------------------------------------------------------------------------
# decomposition pipelines
# ---------------------------------------------------------------------------

def test_decompose_direct_linear_dominates(dar_series):
    req = IrfRequest(y0=0.2, horizons=2, delta=0.5, S=4000, seed=20)
    decs = decompose_direct_irf(dar_series, req, J=5)
    assert len(decs) == 2
    for dec in decs:
        assert abs(dec.nonlinear_part) < abs(dec.linear_part)
    direct = irf_direct(dar_series, req)
    assert decs[0].reconstructed_total == pytest.approx(direct.values[0], rel=0.15)


def test_decompose_lp_matches_direct_at_h1(dar_series):
    req = IrfRequest(y0=0.2, horizons=2, delta=0.5, S=4000, seed=21)
    d = decompose_direct_irf(dar_series, req, J=4)
    lp = decompose_lp_irf(dar_series, req, J=4)
    assert d[0].reconstructed_total == lp[0].reconstructed_total  # same step-1 states


def test_decomposition_selects_on_the_baseline_alone():
    # at delta=1.5 three shocked step-one states leave the estimable region and no baseline one
    # does; the decomposition keeps those replications, since dropping them selects on eps1
    series = simulate(DAR, T=800, y0=0.2, seed=3)
    req = IrfRequest(y0=0.2, horizons=3, delta=1.5, S=300, seed=5, cfg=KernelConfig(min_weight_sum=5.0))
    sim = irf_module._lp_paths(series, req)
    assert np.isfinite(sim.base).all() and (~sim.valid).sum(axis=0).tolist() == [0, 3, 3]
    decs = irf_module._decomposition(sim, req, J=3)
    for h, dec in enumerate(decs, start=1):
        kept = decompose_irf(sim.base[:, h - 1], sim.eps1, req.delta, J=3, h=h)
        np.testing.assert_array_equal(dec.coefficients, kept.coefficients)
    for dec, unpaired in zip(decs, decompose_lp_irf(series, req, J=3)):  # the S-point fit agrees
        np.testing.assert_allclose(dec.coefficients, unpaired.coefficients, rtol=1e-12, atol=1e-14)
