import numpy as np
import pytest

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


@pytest.mark.parametrize("seed, T, grid", [
    (31, 2000, DEFAULT_GRID),
    (32, 800, GridSpec(lower=(0.2, 0.5, 0.2), upper=(0.8, 1.5, 0.8), step=0.02)),
])
def test_grid_search_matches_former_slice_allocation(monkeypatch, seed, T, grid):
    # the slices now reuse two buffers; the ops and their order are the same, so every ll
    # slice, the argmax and the log-likelihood are bitwise the former ones
    series = simulate(DAR, T=T, y0=0.0, seed=seed)
    slices, (ll, ir, ia, ib) = _former_grid_search(series, grid)
    recorder = _ArgmaxRecorder()
    monkeypatch.setattr(qmle, "np", recorder)
    res = qmle_grid_search(series, grid)
    monkeypatch.undo()
    assert len(recorder.seen) == len(slices) == len(grid.axis(1))
    for got, want in zip(recorder.seen, slices):
        assert got.tobytes() == want.tobytes()
    former = DarParams(rho=float(grid.axis(0)[ir]), alpha=float(grid.axis(1)[ia]), beta=float(grid.axis(2)[ib]))
    assert res.params == former
    assert res.loglik == dar_quasi_loglik(former, series)
