import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlirf.qmle as qmle
from nlirf.models import Dar1, DarParams, GaussianAr1, TimeSeries, simulate
from nlirf.qmle import DEFAULT_GRID, GridSpec, QmleResult, dar_quasi_loglik, qmle_grid_search

DAR = Dar1.of(0.5, 1.0, 0.5)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(lower=(0.5, 0.5, 0.5), upper=(0.4, 1.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec(step=0.0)
    with pytest.raises(ValueError):
        GridSpec(lower=(0.1, 0.0, 0.1))  # alpha axis must start above 0
    ax = DEFAULT_GRID.axis(0)
    assert len(ax) == 120
    assert ax[0] == pytest.approx(0.01) and ax[-1] == pytest.approx(1.20)


@pytest.mark.parametrize("field, bad", [("lower", ("0.1", 0.5, 0.1)), ("upper", (0.9, 1.5, True)), ("step", "0.1"),
                                        ("step", [0.1, None, 0.1])])
def test_grid_spec_rejects_non_numbers(field, bad):
    with pytest.raises(ValueError, match=f"{field} must hold real numbers"):
        GridSpec(**{field: bad})


def test_loglik_single_term_by_hand():
    # one term: -1/2 [ln 1 + (1 - 0)^2 / 1] = -0.5
    series = TimeSeries(values=np.array([0.0, 1.0]))
    ll = dar_quasi_loglik(DarParams(rho=0.0, alpha=1.0, beta=0.0), series)
    assert ll == pytest.approx(-0.5, abs=1e-14)


def test_loglik_beta_zero_profile_matches_ols():
    # with beta = 0 the objective is the Gaussian AR(1) likelihood, whose
    # rho-profile peaks at the least-squares slope
    series = simulate(GaussianAr1(rho=0.6, sigma=1.0), T=2000, y0=0.0, seed=21)
    y = series.y
    ols = float(np.dot(y[:-1], y[1:]) / np.dot(y[:-1], y[:-1]))
    rhos = np.linspace(0.3, 0.9, 601)
    lls = [dar_quasi_loglik(DarParams(r, 1.0, 0.0), series) for r in rhos]
    best = rhos[int(np.argmax(lls))]
    nearest = rhos[int(np.argmin(np.abs(rhos - ols)))]
    assert best == pytest.approx(nearest, abs=1e-12)


def test_loglik_at_truth_per_observation():
    # at the true parameters the standardized residuals have unit second
    # moment, so loglik/(T-1) -> -1/2 (1 + E ln(alpha + beta y^2))
    series = simulate(DAR, T=100_000, y0=0.2, seed=22)
    y = series.y
    ll = dar_quasi_loglik(DarParams(0.5, 1.0, 0.5), series) / (series.T - 1)
    mean_logv = np.mean(np.log(1.0 + 0.5 * y[:-1] ** 2))
    assert ll == pytest.approx(-0.5 * (1.0 + mean_logv), abs=0.02)


def test_loglik_rejects_multivariate():
    with pytest.raises(ValueError):
        dar_quasi_loglik(DarParams(0.5, 1.0, 0.5), TimeSeries(values=np.ones((10, 2))))


def test_grid_search_recovers_truth_moderate_sample():
    series = simulate(DAR, T=8000, y0=0.2, seed=23)
    res = qmle_grid_search(series)
    assert isinstance(res, QmleResult)
    assert res.params.rho == pytest.approx(0.5, abs=0.1)
    assert res.params.alpha == pytest.approx(1.0, abs=0.15)
    assert res.params.beta == pytest.approx(0.5, abs=0.1)
    assert not res.grid_argmax_on_boundary
    assert np.isfinite(res.loglik)


def test_grid_search_never_beaten_on_rescan():
    series = simulate(DAR, T=500, y0=0.2, seed=24)
    grid = GridSpec(lower=(0.1, 0.5, 0.1), upper=(0.9, 1.5, 0.9), step=0.05)
    res = qmle_grid_search(series, grid)
    assert res.loglik == dar_quasi_loglik(res.params, series)
    rng = np.random.default_rng(0)
    axes = [grid.axis(i) for i in range(3)]
    for _ in range(300):
        p = DarParams(*(float(rng.choice(ax)) for ax in axes))
        assert dar_quasi_loglik(p, series) <= res.loglik + 1e-9 * abs(res.loglik)


def test_grid_search_scale_equivariance():
    # scaling the series by c maps the argmax (rho, alpha, beta) to
    # (rho, c^2 alpha, beta) on a correspondingly scaled grid
    c = 2.0
    series = simulate(DAR, T=1500, y0=0.2, seed=25)
    scaled = TimeSeries(values=c * series.values)
    grid = GridSpec(lower=(0.1, 0.4, 0.05), upper=(0.9, 1.6, 0.95), step=0.05)
    grid_scaled = GridSpec(
        lower=(0.1, 0.4 * c**2, 0.05),
        upper=(0.9, 1.6 * c**2, 0.95),
        step=(0.05, 0.05 * c**2, 0.05),
    )
    res = qmle_grid_search(series, grid)
    res_scaled = qmle_grid_search(scaled, grid_scaled)
    assert res_scaled.params.rho == pytest.approx(res.params.rho, abs=1e-12)
    assert res_scaled.params.beta == pytest.approx(res.params.beta, abs=1e-12)
    assert res_scaled.params.alpha == pytest.approx(c**2 * res.params.alpha, rel=1e-9)


def test_objective_falls_away_from_truth():
    # local identification: moving rho off the truth at fixed (alpha, beta)
    # lowers the objective on a large sample
    series = simulate(DAR, T=50_000, y0=0.2, seed=26)
    at_truth = dar_quasi_loglik(DarParams(0.5, 1.0, 0.5), series)
    for rho in (0.3, 0.4, 0.6, 0.7):
        assert dar_quasi_loglik(DarParams(rho, 1.0, 0.5), series) < at_truth


def test_boundary_flag():
    series = simulate(GaussianAr1(rho=0.95, sigma=1.0), T=3000, y0=0.0, seed=27)
    grid = GridSpec(lower=(0.05, 0.5, 0.05), upper=(0.5, 1.5, 0.5), step=0.05)
    res = qmle_grid_search(series, grid)
    assert res.grid_argmax_on_boundary  # true rho 0.95 sits beyond the rho axis


def _former_grid_search(series, grid):
    """The grid search as it was, allocating every alpha slice anew: its ll slices and best candidate."""
    y = series.y
    x, yy = y[:-1], y[1:]
    x2, y2, xy = x * x, yy * yy, x * yy
    rhos, alphas, betas = grid.axis(0), grid.axis(1), grid.axis(2)
    r = rhos[:, None]
    slices, candidates = [], []
    for ia, a in enumerate(alphas):
        v = a + betas[:, None] * x2[None, :]
        logdet = np.log(v).sum(axis=1)
        inv = 1.0 / v
        syy, sxy, sxx = inv @ y2, inv @ xy, inv @ x2
        ll = -0.5 * (logdet[None, :] + syy[None, :] - 2.0 * r * sxy[None, :] + r * r * sxx[None, :])
        ir, ib = divmod(int(np.argmax(ll)), len(betas))
        slices.append(ll)
        candidates.append((float(ll[ir, ib]), ir, ia, ib))
    return slices, max(candidates, key=lambda c: (c[0], -c[1], -c[2], -c[3]))


class _ArgmaxRecorder:
    """Stands in for numpy inside ``qmle`` and keeps every array handed to ``argmax``."""

    def __init__(self):
        self.seen = []

    def argmax(self, a, *args, **kwargs):
        self.seen.append(np.array(a))
        return np.argmax(a, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)


def _exact_alphas(monkeypatch):
    """The alpha of every slice the search evaluates exactly, in order, recorded from now on."""
    seen, exact_slice = [], qmle._exact_slice
    monkeypatch.setattr(qmle, "_exact_slice", lambda a, *rest: seen.append(a) or exact_slice(a, *rest))
    return seen


def _former_result(series, grid):
    """The former search's QmleResult."""
    _, (_, ir, ia, ib) = _former_grid_search(series, grid)
    axes = [grid.axis(i) for i in range(3)]
    params = DarParams(rho=float(axes[0][ir]), alpha=float(axes[1][ia]), beta=float(axes[2][ib]))
    edge = any(i in (0, len(ax) - 1) for i, ax in zip((ir, ia, ib), axes))
    return QmleResult(params=params, loglik=dar_quasi_loglik(params, series), grid_argmax_on_boundary=edge)


@pytest.mark.parametrize("screened", [True, False])
@pytest.mark.parametrize("seed, T, grid", [
    (31, 2000, DEFAULT_GRID),
    (32, 800, GridSpec(lower=(0.2, 0.5, 0.2), upper=(0.8, 1.5, 0.8), step=0.02)),
])
def test_grid_search_matches_former_slice_allocation(monkeypatch, seed, T, grid, screened):
    # every slice the search evaluates exactly has the former slice's ops and order, so its ll
    # slice, its argmax and the log-likelihood are bitwise the former ones; without the screen
    # every slice is exact
    series = simulate(DAR, T=T, y0=0.0, seed=seed)
    slices, (ll, ir, ia, ib) = _former_grid_search(series, grid)
    if not screened:
        monkeypatch.setattr(qmle, "_screen", lambda *args: None)
    alphas = _exact_alphas(monkeypatch)
    recorder = _ArgmaxRecorder()
    monkeypatch.setattr(qmle, "np", recorder)
    res = qmle_grid_search(series, grid)
    monkeypatch.undo()
    assert len(recorder.seen) == len(alphas)
    if not screened:
        assert len(alphas) == len(slices)
    assert grid.axis(1)[ia] in alphas  # the former argmax slice is among the exact ones
    for a, got in zip(alphas, recorder.seen):
        want = slices[int(np.flatnonzero(grid.axis(1) == a)[0])]
        assert got.tobytes() == want.tobytes()
    former = DarParams(rho=float(grid.axis(0)[ir]), alpha=float(grid.axis(1)[ia]), beta=float(grid.axis(2)[ib]))
    assert res.params == former
    assert res.loglik == dar_quasi_loglik(former, series)


def test_grid_spec_refuses_a_negative_beta_axis():
    with pytest.raises(ValueError, match="lower: the beta axis must start at 0 or above"):
        GridSpec(lower=(0.1, 0.5, -0.2), upper=(0.9, 1.5, 0.9))
    assert GridSpec(lower=(0.1, 0.5, 0.0)).axis(2)[0] == 0.0


SCREEN_GRIDS = [DEFAULT_GRID, GridSpec(lower=(0.1, 0.5, 0.1), upper=(0.9, 1.5, 0.9), step=0.05),
                GridSpec(lower=(-0.9, 0.02, 0.0), upper=(0.9, 2.0, 1.5), step=(0.1, 0.04, 0.03))]
SCREEN_MODELS = [DAR, GaussianAr1(rho=0.6, sigma=1.0), Dar1.of(0.3, 0.05, 0.8)]  # the last: alpha near 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(model=st.sampled_from(SCREEN_MODELS), T=st.sampled_from([12, 150, 1200]),
       grid=st.sampled_from(SCREEN_GRIDS), seed=st.integers(0, 2**16))
def test_screened_search_equals_the_former_search(model, T, grid, seed):
    series = simulate(model, T=T, y0=0.2, seed=seed)
    assert qmle_grid_search(series, grid) == _former_result(series, grid)


@pytest.mark.parametrize("grid", SCREEN_GRIDS)
@pytest.mark.parametrize("kind", ["ridge", "zero regressors"])
def test_screened_search_on_ties_across_slices(monkeypatch, grid, kind):
    # +-1 values make v = alpha + beta for every t, so the lattice has a ridge along alpha + beta
    # whose points tie up to rounding across slices; zero regressors make rho and beta free
    rng = np.random.default_rng(41)
    values = rng.choice([-1.0, 1.0], size=600) if kind == "ridge" else np.r_[np.zeros(599), 1.5]
    series = TimeSeries(values=values)
    alphas = _exact_alphas(monkeypatch)
    assert qmle_grid_search(series, grid) == _former_result(series, grid)
    if kind == "ridge" and grid is DEFAULT_GRID:
        assert len(alphas) > 50  # the certificate keeps every slice the ridge can cross


def test_screen_falls_back_to_every_slice_when_products_could_leave_the_normal_range(monkeypatch):
    # |ln v| reaches about 360 here, so no k >= 2 keeps k |ln v| below 700
    series = TimeSeries(values=1e77 * simulate(DAR, T=400, y0=0.2, seed=42).values)
    grid = GridSpec(lower=(0.1, 0.5, 0.1), upper=(0.9, 1.5, 0.9), step=0.05)
    alphas = _exact_alphas(monkeypatch)
    assert qmle_grid_search(series, grid) == _former_result(series, grid)
    assert list(alphas) == list(grid.axis(1))


def test_screen_near_the_range_limits_warns_of_nothing_and_matches():
    # |ln v| just under 350 keeps k = 2, while syy and sxx near 1e292 would overflow their product
    series = TimeSeries(values=1e69 * simulate(DAR, T=300, y0=0.2, seed=3).values)
    grid = GridSpec(lower=(0.1, 1e-152, 0.0), upper=(0.9, 0.9, 0.9), step=0.1)
    assert qmle_grid_search(series, grid) == _former_result(series, grid)
    y = series.y
    x, yy = y[:-1], y[1:]
    assert qmle._screen(x * x, yy * yy, x * yy, *(grid.axis(i) for i in range(3))) is not None  # certified


@pytest.mark.parametrize("grid", SCREEN_GRIDS[1:])
@pytest.mark.parametrize("kind", ["dar", "ar", "ridge"])
def test_certificate_bounds_the_screen_at_every_lattice_point(grid, kind):
    rng = np.random.default_rng(43)
    series = {"dar": simulate(DAR, T=700, y0=0.2, seed=43),
              "ar": simulate(GaussianAr1(rho=0.6, sigma=1.0), T=700, y0=0.2, seed=43),
              "ridge": TimeSeries(values=rng.choice([-1.0, 1.0], size=700))}[kind]
    y = series.y
    x, yy = y[:-1], y[1:]
    rhos, alphas, betas = (grid.axis(i) for i in range(3))
    top, bound, sums = qmle._screen(x * x, yy * yy, x * yy, rhos, alphas, betas)
    slices, _ = _former_grid_search(series, grid)
    for ia, exact in enumerate(slices):
        screen = qmle._loglik(*(s[ia] for s in sums), rhos[:, None])
        assert np.abs(screen - exact).max() <= bound[ia]
        assert abs(top[ia] - exact.max()) <= bound[ia]


def test_screen_leaves_at_most_two_exact_slices(monkeypatch):
    # ordinary data puts the runner-up slice far beyond the certificate, so a fallback to every
    # slice, which gives the same result, shows here
    series = simulate(DAR, T=5000, y0=0.2, seed=44)
    alphas = _exact_alphas(monkeypatch)
    qmle_grid_search(series)
    assert 1 <= len(alphas) <= 2


@pytest.mark.parametrize("T", [5000, 20_000])
def test_search_memory_is_one_beta_by_t_array_plus_tiles(T):
    # one (n_beta, T - 1) buffer for the exact slices, and for the screen a few tiles and the
    # lattice's (4, n_alpha, n_beta) sums (about one tile on the default lattice); the former
    # search held three (n_beta, T - 1) arrays
    series = simulate(DAR, T=T, y0=0.2, seed=45)
    tracemalloc.start()
    try:
        qmle_grid_search(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = 8 * len(DEFAULT_GRID.axis(2)) * (T - 1)
    assert peak <= one + 8 * (6 * qmle._TILE_CELLS + 16 * T)
    assert peak < 2 * one
