import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

import nlirf
from nlirf.models import (
    CondGaussian,
    Dar1,
    DarParams,
    GaussianAr1,
    GaussianVar1,
    TimeSeries,
    VarParams,
    lyapunov_exponent,
    model_from_json,
    model_to_json,
    simulate,
    transition_g,
    true_irf,
)

DAR = Dar1.of(0.5, 1.0, 0.5)
# one model of each kind, for the old-vs-new equality tests
EQUALITY_MODELS = [
    Dar1.of(0.5, 1.0, 0.3),  # beta not a power of two: (beta*y)*y != beta*(y*y) in general
    GaussianAr1(0.6, 1.3),
    CondGaussian(drift=lambda y: 0.5 * y - 0.1 * np.tanh(y), scale=lambda y: np.sqrt(1.0 + 0.3 * y * y)),
    GaussianVar1(VarParams(A=[[0.5, 0.1], [-0.2, 0.3]], D=[[1.0, 0.0], [0.4, 0.7]])),
]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        DarParams(rho=0.5, alpha=0.0, beta=0.5)
    with pytest.raises(ValueError):
        DarParams(rho=0.5, alpha=1.0, beta=-0.1)
    with pytest.raises(ValueError):
        GaussianAr1(rho=1.0, sigma=1.0)
    with pytest.raises(ValueError):
        GaussianAr1(rho=0.5, sigma=0.0)
    with pytest.raises(ValueError):
        VarParams(A=np.array([[1.01, 0], [0, 0.5]]), D=np.eye(2))
    with pytest.raises(ValueError):
        VarParams(A=0.5 * np.eye(2), D=np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(values=np.array([1.0]))
    with pytest.raises(ValueError):
        TimeSeries(values=np.array([1.0, np.nan]))
    ts = TimeSeries(values=np.arange(5.0))
    assert ts.T == 5 and ts.n == 1
    assert ts.y.shape == (5,)


@pytest.mark.parametrize("shape", [(6,), (3, 2)])
def test_timeseries_values_read_only_without_freezing_caller(shape):
    raw = np.arange(6.0).reshape(shape)
    ts = TimeSeries(values=raw)
    with pytest.raises(ValueError, match="read-only"):
        ts.values[0, 0] = 99.0
    if ts.n == 1:
        with pytest.raises(ValueError, match="read-only"):
            ts.y[0] = 99.0
    raw[0] = 42.0  # the caller's array stays writeable and is not shared
    assert raw.flags.writeable
    assert ts.values[0, 0] == 0.0


# ---------------------------------------------------------------------------
# transition map
# ---------------------------------------------------------------------------

def test_transition_dar1_value():
    # substitution: 0.5*0.2 + sqrt(1 + 0.5*0.04)*0.5
    got = transition_g(DAR, 0.2, 0.5)[0]
    assert got == pytest.approx(0.6049752469181039, abs=1e-12)


def test_transition_zero_shock_is_drift():
    assert transition_g(DAR, 0.7, 0.0)[0] == pytest.approx(0.35, abs=1e-15)
    assert transition_g(GaussianAr1(0.8, 2.0), -1.0, 0.0)[0] == pytest.approx(-0.8, abs=1e-15)


def test_transition_var_is_linear():
    A = np.array([[0.5, 0.1], [0.0, 0.3]])
    D = np.array([[1.0, 0.2], [0.0, 1.0]])
    m = GaussianVar1(VarParams(A, D))
    y = np.array([0.4, -0.2])
    e = np.array([1.0, 0.5])
    np.testing.assert_allclose(transition_g(m, y, e), A @ y + D @ e, rtol=1e-14)
    # linear in both arguments
    np.testing.assert_allclose(
        transition_g(m, 2 * y, 2 * e), 2 * transition_g(m, y, e), rtol=1e-14
    )


def test_transition_rejects_nonfinite():
    with pytest.raises(ValueError):
        transition_g(DAR, np.nan, 0.0)
    with pytest.raises(ValueError):
        transition_g(DAR, 0.0, np.inf)


def test_cond_gaussian_scale_checked_pointwise():
    m = CondGaussian(drift=lambda y: 0.5 * y, scale=lambda y: y)  # scale <= 0 for y <= 0
    assert transition_g(m, 2.0, 1.0)[0] == pytest.approx(3.0)
    with pytest.raises(ValueError):
        transition_g(m, -1.0, 1.0)


def test_cond_gaussian_scale_checked_over_whole_batch():
    m = CondGaussian(drift=lambda y: 0.5 * y, scale=lambda y: y)
    with pytest.raises(ValueError):
        transition_g(m, np.array([[2.0], [1.0], [-1.0]]), np.ones((3, 1)))
    bad_drift = CondGaussian(drift=lambda y: np.where(y > 0, y, np.inf), scale=lambda y: 1.0)
    with pytest.raises(ValueError):
        transition_g(bad_drift, np.array([[2.0], [-1.0]]), np.ones((2, 1)))


def test_transition_rejects_wrong_state_width():
    var = GaussianVar1(VarParams(A=0.5 * np.eye(2), D=np.eye(2)))
    with pytest.raises(ValueError):
        transition_g(var, np.zeros((4, 3)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        transition_g(DAR, np.zeros((4, 1)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# batched transition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", EQUALITY_MODELS, ids=lambda m: type(m).__name__)
def test_transition_batch_equals_rowwise(model):
    rng = np.random.default_rng(21)
    y = rng.normal(scale=2.0, size=(500, model.dim))
    e = rng.standard_normal((500, model.dim))
    batch = transition_g(model, y, e)
    rows = np.array([transition_g(model, y[i], e[i]) for i in range(500)])
    assert batch.shape == (500, model.dim)
    if model.dim == 1:
        np.testing.assert_array_equal(batch, rows)
    else:
        # a batch runs as one matrix product, rows as matrix-vector products;
        # BLAS rounds the two differently in the last bits
        np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-14)


def test_transition_broadcasts_one_state_over_shocks():
    e = np.random.default_rng(5).standard_normal((50, 1))
    np.testing.assert_array_equal(transition_g(DAR, 0.2, e), transition_g(DAR, np.full((50, 1), 0.2), e))


def test_simulate_first_step_matches_transition():
    ts = simulate(DAR, T=2, y0=0.2, seed=7)
    eps = np.random.default_rng(7).standard_normal((2, 1))
    assert ts.values[0, 0] == transition_g(DAR, 0.2, eps[0])[0]


def test_simulate_gaussian_unrolls_linearly():
    # y_h = rho^h y0 + sigma * sum_k rho^(h-k) eps_k, by unrolling the recursion
    rho, sigma, y0 = 0.6, 1.5, -0.4
    path = simulate(GaussianAr1(rho, sigma), T=6, y0=y0, seed=11).y
    e = np.random.default_rng(11).standard_normal((6, 1))[:, 0]
    for h in range(1, 7):
        expect = rho**h * y0 + sigma * sum(rho ** (h - k) * e[k - 1] for k in range(1, h + 1))
        assert path[h - 1] == pytest.approx(expect, abs=1e-12)


def test_transition_batch_zero_shocks_gives_drift_powers():
    y0 = np.array([[0.8], [-0.4], [2.0]])
    y = y0
    for h in range(1, 5):
        y = transition_g(DAR, y, np.zeros((3, 1)))
        np.testing.assert_allclose(y, y0 * 0.5**h, rtol=1e-14)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_deterministic_and_finite():
    a = simulate(DAR, T=200, y0=0.2, seed=42)
    b = simulate(DAR, T=200, y0=0.2, seed=42)
    assert a.T == 200
    assert np.array_equal(a.values, b.values)
    assert np.isfinite(a.values).all()


def test_simulate_dar_variance_stable_across_seeds():
    # stationary variance is alpha/(1 - rho^2 - beta) = 4 for the (0.5, 1, 0.5) model
    vs = [np.var(simulate(DAR, T=20_000, y0=0.2, seed=s).y) for s in range(4)]
    for v in vs:
        assert 2.0 < v < 7.0  # fat-tailed, so generous band around 4


def test_simulate_iid_case_moments():
    ts = simulate(GaussianAr1(rho=0.0, sigma=1.0), T=10_000, y0=0.0, seed=3)
    y = ts.y
    bound = 3 / math.sqrt(ts.T)
    assert abs(np.mean(y)) < bound
    r1 = np.corrcoef(y[:-1], y[1:])[0, 1]
    assert abs(r1) < bound


def test_simulate_ar1_autocorrelation():
    # analytic lag-1 autocorrelation of a stationary AR(1) equals rho
    ts = simulate(GaussianAr1(rho=0.5, sigma=1.0), T=50_000, y0=0.0, seed=5)
    r1 = np.corrcoef(ts.y[:-1], ts.y[1:])[0, 1]
    assert r1 == pytest.approx(0.5, abs=0.02)


def test_simulate_burn_in_shifts_stream():
    full = simulate(DAR, T=110, y0=0.2, seed=9)
    tail = simulate(DAR, T=100, y0=0.2, seed=9, burn_in=10)
    np.testing.assert_array_equal(full.values[10:], tail.values)


def _reference_path(model, T, y0, seed, burn_in):
    """Plain scalar recursion of each model law, one innovation row per step."""
    eps = np.random.default_rng(seed).standard_normal((T + burn_in, model.dim))
    if isinstance(model, GaussianVar1):
        A, D = model.params.A, model.params.D
        y, out = np.asarray(y0, dtype=float), []
        for e in eps:
            y = A @ y + D @ e
            out.append(y)
        return np.array(out)[burn_in:]
    y, out = float(y0), []
    for e in eps[:, 0].tolist():
        if isinstance(model, Dar1):
            p = model.params
            y = p.rho * y + math.sqrt(p.alpha + p.beta * y * y) * e
        elif isinstance(model, GaussianAr1):
            y = model.rho * y + model.sigma * e
        else:
            y = float(model.drift(y)) + float(model.scale(y)) * e
        out.append(y)
    return np.array(out)[burn_in:, None]


@pytest.mark.parametrize("burn_in", [0, 50])
@pytest.mark.parametrize("model", EQUALITY_MODELS, ids=lambda m: type(m).__name__)
def test_simulate_bitwise_equals_scalar_reference(model, burn_in):
    y0 = 0.2 if model.dim == 1 else np.array([0.2, -0.1])
    got = simulate(model, T=3000, y0=y0, seed=17, burn_in=burn_in).values
    np.testing.assert_array_equal(got, _reference_path(model, 3000, y0, 17, burn_in))


def test_simulate_rejects_explosive_dar():
    with pytest.raises(ValueError, match="Lyapunov"):
        simulate(Dar1.of(1.5, 1.0, 0.0), T=100, y0=0.0, seed=0)


def test_simulate_rejects_nonfinite_y0():
    with pytest.raises(ValueError):
        simulate(DAR, T=10, y0=np.inf, seed=0)


@pytest.mark.parametrize("bad", ["0.2", True, [False], np.array(["0.2"]), [None]])
def test_states_and_shocks_must_be_numbers(bad):
    # a string or bool must not run as the number it casts to
    calls = [lambda: simulate(DAR, T=10, y0=bad, seed=0), lambda: transition_g(DAR, bad, 0.0),
             lambda: transition_g(DAR, 0.0, bad), lambda: true_irf(DAR, y0=bad, h=2, delta=0.5),
             lambda: true_irf(DAR, y0=0.2, h=2, delta=bad)]
    for call in calls:
        with pytest.raises(ValueError, match="must hold real numbers"):
            call()


# ---------------------------------------------------------------------------
# Lyapunov exponent
# ---------------------------------------------------------------------------

def test_lyapunov_degenerate_beta_zero():
    est = lyapunov_exponent(DarParams(0.5, 1.0, 0.0), M=10_000, seed=0)
    assert est.value == pytest.approx(math.log(0.5), abs=1e-15)
    assert est.std_error == 0.0
    est = lyapunov_exponent(DarParams(1.5, 1.0, 0.0), M=10_000, seed=0)
    assert est.value == pytest.approx(math.log(1.5), abs=1e-15)
    assert not est.is_negative


def test_lyapunov_paper_dgp_is_stationary():
    # quadrature oracle: E log|0.5 + sqrt(0.5) eps| = -0.751271 (scipy.integrate.quad)
    oracle = -0.7512706765872292
    est = lyapunov_exponent(DarParams(0.5, 1.0, 0.5), M=1_000_000, seed=1)
    assert est.value < 0
    assert abs(est.value - oracle) < 3 * est.std_error + 1e-9


def test_lyapunov_rejects_small_m():
    with pytest.raises(ValueError):
        lyapunov_exponent(DarParams(0.5, 1.0, 0.5), M=100, seed=0)


def test_lyapunov_matches_fresh_quadrature():
    # independent oracle recomputed here for a second parameter point
    gamma, beta = 0.3, 0.8
    f = lambda e: np.log(np.abs(gamma + math.sqrt(beta) * e)) * norm.pdf(e)
    oracle, _ = integrate.quad(f, -12, 12, limit=400, points=[-gamma / math.sqrt(beta)])
    est = lyapunov_exponent(DarParams(gamma, 1.0, beta), M=400_000, seed=2)
    assert abs(est.value - oracle) < 3 * est.std_error


# ---------------------------------------------------------------------------
# true IRF
# ---------------------------------------------------------------------------

def test_true_irf_dar_h1_closed_form():
    curve = true_irf(DAR, y0=0.2, h=1, delta=0.5, S=10)
    assert curve.values[0] == pytest.approx(0.5049752469181039, abs=1e-12)
    assert curve.mc_se[0] == 0.0
    assert curve.meta["method"][0] == "closed_form"


def test_true_irf_zero_shock_is_exactly_zero():
    for model in (DAR, GaussianAr1(0.7, 1.0)):
        curve = true_irf(model, y0=0.3, h=6, delta=0.0, S=500, seed=4)
        np.testing.assert_array_equal(curve.values, np.zeros(6))


def test_true_irf_gaussian_closed_form_curve():
    rho, sigma, delta = 0.5, 2.0, 0.7
    curve = true_irf(GaussianAr1(rho, sigma), y0=1.0, h=5, delta=delta)
    np.testing.assert_allclose(
        curve.values, [rho ** (h - 1) * sigma * delta for h in range(1, 6)], rtol=1e-14
    )
    assert curve.meta["S"] is None  # closed form ignores the replication count


def test_true_irf_var_closed_form():
    A = np.array([[0.5, 0.2], [0.1, 0.3]])
    D = np.array([[1.0, 0.0], [0.4, 1.0]])
    m = GaussianVar1(VarParams(A, D))
    delta = np.array([1.0, -0.5])
    curve = true_irf(m, y0=np.zeros(2), h=4, delta=delta)
    expect = D @ delta
    for k in range(4):
        np.testing.assert_allclose(curve.values[k], expect, rtol=1e-13)
        expect = A @ expect


def test_true_irf_linear_in_delta():
    c1 = true_irf(GaussianAr1(0.5, 1.0), y0=0.0, h=4, delta=0.5)
    c2 = true_irf(GaussianAr1(0.5, 1.0), y0=0.0, h=4, delta=1.0)
    np.testing.assert_allclose(2 * c1.values, c2.values, rtol=1e-13)


def test_true_irf_mc_route_matches_closed_form():
    # same AR(1) process expressed with black-box drift/scale forces Monte Carlo
    rho, sigma = 0.5, 1.0
    mc_model = CondGaussian(drift=lambda y: rho * y, scale=lambda y: sigma)
    curve = true_irf(mc_model, y0=1.0, h=4, delta=1.0, S=4000, seed=8)
    assert curve.meta["method"] == ["monte_carlo"] * 4
    for k in range(4):
        oracle = rho**k * sigma
        tol = 3 * curve.mc_se[k] + 1e-9
        assert abs(curve.values[k] - oracle) < tol


def test_true_irf_mc_linear_in_delta_under_crn():
    mc_model = CondGaussian(drift=lambda y: 0.5 * y, scale=lambda y: 1.0)
    c1 = true_irf(mc_model, y0=0.0, h=3, delta=0.5, S=200, seed=12)
    c2 = true_irf(mc_model, y0=0.0, h=3, delta=1.0, S=200, seed=12)
    np.testing.assert_allclose(2 * c1.values, c2.values, atol=1e-12)


def test_true_irf_dar_h2_mc_agrees_with_bruteforce():
    # brute-force oracle with the true transition at large S, CRN
    rng = np.random.default_rng(77)
    S = 200_000
    y0, delta = 0.2, 0.5
    e = rng.standard_normal((S, 2))
    p = DAR.params

    def step(y, eps):
        return p.rho * y + np.sqrt(p.alpha + p.beta * y**2) * eps

    y1b = step(y0, e[:, 0])
    y1s = step(y0, e[:, 0] + delta)
    d2 = step(y1s, e[:, 1]) - step(y1b, e[:, 1])
    oracle, oracle_se = d2.mean(), d2.std(ddof=1) / math.sqrt(S)

    curve = true_irf(DAR, y0=y0, h=2, delta=delta, S=20_000, seed=13)
    tol = 3 * math.sqrt(curve.mc_se[1] ** 2 + oracle_se**2)
    assert abs(curve.values[1] - oracle) < tol


def test_true_irf_one_draw_equals_successive_draws():
    # the oracle draws all (S, h, n) innovations at once; that is the same
    # stream as S successive (h, n) draws, one per replication
    S, h, n = 40, 5, 2
    at_once = np.random.default_rng(9).standard_normal((S, h, n))
    rng = np.random.default_rng(9)
    for s in range(S):
        np.testing.assert_array_equal(at_once[s], rng.standard_normal((h, n)))


def test_true_irf_dar_matches_replication_loop_values():
    # values and standard errors of the per-replication scalar loop this
    # oracle replaced (same seed); they agree to rounding
    curve = true_irf(DAR, y0=0.2, h=7, delta=0.5, S=10_000, seed=3)
    loop_values = [0.5049752469181039, 0.2528613215925118, 0.12428824147333357, 0.06071336489914304,
                   0.029466200036062297, 0.014438727899415475, 0.008149098851961366]
    loop_se = [0.0, 0.001811898765941545, 0.001819904170861208, 0.0015941535113806042,
               0.0013341235851667352, 0.0011823347774147486, 0.0010776274495257543]
    np.testing.assert_allclose(curve.values, loop_values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(curve.mc_se, loop_se, rtol=0, atol=1e-12)
    assert curve.meta["method"] == ["closed_form"] + ["monte_carlo"] * 6


@pytest.mark.parametrize("model", EQUALITY_MODELS[::2], ids=lambda m: type(m).__name__)
def test_true_irf_equals_replication_loop_reference(model):
    # per-replication scalar loop: S successive (h, n) draws, one state at a time
    S, h, y0, delta = 300, 5, 0.4, 0.7
    rng = np.random.default_rng(23)
    diffs = np.empty((S, h))
    for s in range(S):
        eps = rng.standard_normal((h, 1))
        yb = transition_g(model, y0, eps[0])
        ys = transition_g(model, y0, eps[0] + delta)
        diffs[s, 0] = (ys - yb)[0]
        for k in range(1, h):
            yb, ys = transition_g(model, yb, eps[k]), transition_g(model, ys, eps[k])
            diffs[s, k] = (ys - yb)[0]
    curve = true_irf(model, y0=y0, h=h, delta=delta, S=S, seed=23)
    k = curve.meta["method"].count("closed_form")
    np.testing.assert_allclose(curve.values[k:], diffs.mean(axis=0)[k:], rtol=0, atol=1e-12)
    np.testing.assert_allclose(curve.mc_se[k:], diffs.std(axis=0, ddof=1)[k:] / math.sqrt(S), rtol=0, atol=1e-12)


def _reference_closed_form(model, y0, h, delta):
    """The type dispatch the models' ``closed_form`` methods replaced."""
    if isinstance(model, GaussianAr1):
        return np.array([[model.rho ** (k - 1) * model.sigma * delta[0]] for k in range(1, h + 1)])
    if isinstance(model, GaussianVar1):
        vals, v = np.empty((h, model.dim)), model.params.D @ delta
        for k in range(h):
            vals[k], v = v, model.params.A @ v
        return vals
    if isinstance(model, Dar1):
        return (delta * model.cond_scale(y0))[None]
    return np.empty((0, model.dim))


@pytest.mark.parametrize("h", [1, 2, 7])
@pytest.mark.parametrize("model", EQUALITY_MODELS, ids=lambda m: type(m).__name__)
def test_closed_form_equals_type_dispatch_reference(model, h):
    y0, delta = (np.array([0.7]), np.array([-1.3])) if model.dim == 1 else (np.array([0.2, -0.1]), np.array([0.9, 0.4]))
    got = model.closed_form(y0, h, delta)
    want = _reference_closed_form(model, y0, h, delta)
    assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_true_irf_steps_all_replications_per_transition_call(monkeypatch):
    import nlirf.models as models

    calls = []
    original = models.transition_g

    def counting(model, y_prev, eps):
        calls.append(np.shape(eps))
        return original(model, y_prev, eps)

    monkeypatch.setattr(models, "transition_g", counting)
    true_irf(DAR, y0=0.2, h=3, delta=0.5, S=100, seed=1)
    assert calls == [(100, 1)] * 6  # two paired batches per horizon


def test_true_irf_validates_inputs():
    with pytest.raises(ValueError):
        true_irf(DAR, y0=0.2, h=0, delta=0.5)
    with pytest.raises(ValueError):
        true_irf(DAR, y0=0.2, h=2, delta=0.5, S=0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_json_round_trip():
    # numpy numbers pass the constructors, so they must serialize too
    for model in (DAR, GaussianAr1(0.5, 1.0), Dar1.of(np.float32(0.1), np.int64(1), 0.5),
                  GaussianAr1(np.float32(0.5), np.float32(1.0))):
        back = model_from_json(model_to_json(model))
        assert back == model
    var = GaussianVar1(VarParams(A=0.5 * np.eye(2), D=np.eye(2)))
    back = model_from_json(model_to_json(var))
    np.testing.assert_array_equal(back.params.A, var.params.A)
    np.testing.assert_array_equal(back.params.D, var.params.D)


# the strings the per-class converters wrote: key order, ints kept as ints, nested lists for VAR matrices
JSON_PINS = [
    (EQUALITY_MODELS[0], '{"variant": "dar1", "rho": 0.5, "alpha": 1.0, "beta": 0.3}'),
    (Dar1.of(0.5, 1, 0), '{"variant": "dar1", "rho": 0.5, "alpha": 1, "beta": 0}'),
    (EQUALITY_MODELS[1], '{"variant": "gaussian_ar1", "rho": 0.6, "sigma": 1.3}'),
    (EQUALITY_MODELS[3],
     '{"variant": "gaussian_var1", "A": [[0.5, 0.1], [-0.2, 0.3]], "D": [[1.0, 0.0], [0.4, 0.7]]}'),
    (Dar1.of(np.float32(0.1), np.int64(1), 0.5),
     '{"variant": "dar1", "rho": 0.10000000149011612, "alpha": 1, "beta": 0.5}'),
    (GaussianAr1(np.float32(0.5), np.float32(1.0)), '{"variant": "gaussian_ar1", "rho": 0.5, "sigma": 1.0}'),
]


@pytest.mark.parametrize("model, text", JSON_PINS, ids=["dar1", "dar1_ints", "gaussian_ar1", "gaussian_var1",
                                                        "dar1_numpy", "gaussian_ar1_numpy"])
def test_model_to_json_strings_are_pinned(model, text):
    assert model_to_json(model) == text


def test_model_json_unknown_variant():
    with pytest.raises(ValueError):
        model_from_json('{"variant": "mystery"}')


def test_model_to_json_refuses_callable_laws():
    with pytest.raises(ValueError, match="^model CondGaussian is not JSON-serializable"):
        model_to_json(EQUALITY_MODELS[2])


def test_model_classes_are_dispatched_only_by_the_stationarity_guard():
    # each model carries its closed form and the JSON table maps the variants, so no other code branches on a model
    model_classes = {"Dar1", "GaussianAr1", "GaussianVar1", "CondGaussian"}
    found = []
    for path in sorted(Path(nlirf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # the innermost function around each node (ast.walk is breadth first); module level has none
        owner = {id(n): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
        found += [(path.name, owner.get(id(call))) for call in ast.walk(tree)
                  if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                  and {n.id for n in ast.walk(call.args[1]) if isinstance(n, ast.Name)} & model_classes]
    assert found == [("models.py", "simulate")]


def test_timeseries_csv_round_trip(tmp_path):
    ts = simulate(DAR, T=50, y0=0.2, seed=1)
    path = tmp_path / "series.csv"
    ts.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,y1"
