"""Gaussian quasi-maximum likelihood for the first-order double-autoregressive model.

The objective is the standard Gaussian quasi log-likelihood of Ling
(2007): with conditional variance v_t = alpha + beta * y_{t-1}^2,

    L(rho, alpha, beta) = sum_{t=2}^T -1/2 [ ln v_t + (y_t - rho*y_{t-1})^2 / v_t ].

Maximization is by exhaustive search over a rectangular lattice. The
search exploits that, for fixed (alpha, beta), the objective is an exact
quadratic in rho, so each (alpha, beta) pair costs one pass over the data
and the whole rho axis comes for free. This makes the default 120^3
lattice tractable without any parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ._checks import _as_reals, _instance
from .kernels import _a_series
from .models import DarParams, TimeSeries

__all__ = ["GridSpec", "QmleResult", "dar_quasi_loglik", "qmle_grid_search", "DEFAULT_GRID"]


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lattice over (rho, alpha, beta).

    ``step`` may be a single positive real (shared by all axes) or one
    step per axis; the latter keeps the lattice well-defined under axis
    rescalings such as mapping alpha to c^2 * alpha.
    """

    lower: tuple = (0.01, 0.01, 0.01)
    upper: tuple = (1.20, 1.20, 1.20)
    step: object = 0.01

    def __post_init__(self) -> None:
        lo = _as_reals(self.lower, "lower")
        hi = _as_reals(self.upper, "upper")
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValueError("lower and upper must be 3-vectors (rho, alpha, beta)")
        if not (lo < hi).all():
            raise ValueError("lower must be strictly below upper componentwise")
        st = _as_reals(self.step, "step")
        if st.ndim == 0:
            st = np.full(3, float(st))
        if st.shape != (3,) or not (st > 0).all():
            raise ValueError("step must be a positive real or 3-vector of positive reals")
        if lo[1] <= 0:
            raise ValueError("alpha grid must start above 0")
        object.__setattr__(self, "lower", tuple(lo))
        object.__setattr__(self, "upper", tuple(hi))
        object.__setattr__(self, "step", tuple(st))

    def axis(self, i: int) -> np.ndarray:
        n = int(round((self.upper[i] - self.lower[i]) / self.step[i])) + 1
        return self.lower[i] + self.step[i] * np.arange(n)


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class QmleResult:
    params: DarParams
    loglik: float
    grid_argmax_on_boundary: bool


def dar_quasi_loglik(params: DarParams, series: TimeSeries) -> float:
    """Gaussian quasi log-likelihood of a DAR(1) parameter point."""
    _instance(DarParams, "a DarParams")("params", params)
    y = _a_series("series", series).y
    x, yy = y[:-1], y[1:]
    v = params.alpha + params.beta * x * x
    resid = yy - params.rho * x
    return float(-0.5 * np.sum(np.log(v) + resid * resid / v))


def qmle_grid_search(series: TimeSeries, grid: GridSpec = DEFAULT_GRID) -> QmleResult:
    """Exhaustive lattice argmax of the quasi log-likelihood.

    Ties are broken toward the lexicographically smallest (rho, alpha,
    beta). The returned log-likelihood is re-evaluated at the argmax with
    ``dar_quasi_loglik`` so it is exactly the objective at those
    parameters.
    """
    y = _a_series("series", series).y
    _instance(GridSpec, "a GridSpec")("grid", grid)
    x, yy = y[:-1], y[1:]
    x2 = x * x
    y2 = yy * yy
    xy = x * yy

    rhos = grid.axis(0)
    alphas = grid.axis(1)
    betas = grid.axis(2)
    r = rhos[:, None]  # (n_rho, 1) against (1, n_beta) blocks

    candidates = []  # (loglik, rho_idx, alpha_idx, beta_idx), one per alpha slice
    bx2 = betas[:, None] * x2[None, :]  # (n_beta, T-1); each slice reuses two buffers of this shape
    v, lv = np.empty_like(bx2), np.empty_like(bx2)
    for ia, a in enumerate(alphas):
        logdet = np.log(np.add(a, bx2, out=v), out=lv).sum(axis=1)
        inv = np.divide(1.0, v, out=v)
        syy, sxy, sxx = inv @ y2, inv @ xy, inv @ x2
        # quadratic in rho: sum (y - rho x)^2 / v = syy - 2 rho sxy + rho^2 sxx
        ll = -0.5 * (logdet[None, :] + syy[None, :] - 2.0 * r * sxy[None, :] + r * r * sxx[None, :])
        flat = int(np.argmax(ll))  # C order: first max is smallest (rho, beta)
        ir, ib = divmod(flat, len(betas))
        candidates.append((float(ll[ir, ib]), ir, ia, ib))

    best = max(candidates, key=lambda c: (c[0], -c[1], -c[2], -c[3]))
    _, ir, ia, ib = best
    params = DarParams(rho=float(rhos[ir]), alpha=float(alphas[ia]), beta=float(betas[ib]))
    on_boundary = (
        ir in (0, len(rhos) - 1) or ia in (0, len(alphas) - 1) or ib in (0, len(betas) - 1)
    )
    return QmleResult(
        params=params,
        loglik=dar_quasi_loglik(params, series),
        grid_argmax_on_boundary=on_boundary,
    )
