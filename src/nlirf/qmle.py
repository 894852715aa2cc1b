"""Gaussian quasi-maximum likelihood for the first-order double-autoregressive model.

The objective is the standard Gaussian quasi log-likelihood of Ling
(2007): with conditional variance v_t = alpha + beta * y_{t-1}^2,

    L(rho, alpha, beta) = sum_{t=2}^T -1/2 [ ln v_t + (y_t - rho*y_{t-1})^2 / v_t ].

Maximization is by exhaustive search over a rectangular lattice. For fixed
(alpha, beta) the objective is -1/2 [logdet + syy - 2 rho sxy + rho^2 sxx],
with logdet = sum ln v_t and syy, sxy, sxx the sums of y_t^2, y_{t-1} y_t
and y_{t-1}^2 over v_t: one pass over the data gives the whole rho axis.

A screen takes every lattice point in tiles of at most 5,000 time steps
by about 60,000 / steps beta rows, alpha inside, so a tile stays in L2. It
takes one log per group of k <= 16 variances and the three sums from one
matmul. With S[a] a slice's screened maximum and E[a] a bound on
|screen - exact| over it, only the slices with S[a] + E[a] >=
max_b (S[b] - E[b]) are evaluated exactly, by the former full search's
operations. Every slice holding the exact maximum L* passes, as
L* <= S[a] + E[a] and L* >= S[b] - E[b], so the result is the full
search's bit for bit, ties included. If k < 2 or S or E is not finite,
every slice is exact.

E, with u = 2^-53, g(n) = n u / (1 - n u), m = T - 1, lam = max |ln v|.
Both paths share v and 1/v bitwise. A sum of m products is within
g(m) sum |terms| of the real one in any order, and sum |x y| / v <=
sqrt(syy sxx). k lam < 700 keeps a group's product normal, within g(k - 1),
so its log moves by at most 2 g(k); each np.log value may be off by 2^-48
relative, and sum |ln v_t| <= m lam. The final combination rounds each term
at most three times. So with r = max |rho|, ng groups in all and
Q = syy + 2 r sqrt(syy sxx) + r^2 sxx, at every point of a row

    |screen - exact| <= (g(m) + g(3)) Q + D + g(3) |logdet|,
    D = 3 ng g(k) + (2^-47 + 4 g(m)) m lam + m (1 + r)^2 2^-1074,

the last term for underflow. E[a] is twice the largest right side in slice
a: the factor covers the screen's sums standing in for the real ones and
the rounding of E and S +- E. S takes each row at the four rho grid points
around its vertex sxy / sxx: a concave quadratic peaks on a grid next to
its vertex, and the vertex's rounding moves that point by at most one.
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
            raise ValueError(f"lower: the alpha axis must start above 0, got {float(lo[1])!r}")
        if lo[2] < 0:
            raise ValueError(f"lower: the beta axis must start at 0 or above, got {float(lo[2])!r}")
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


# a screen tile, (time steps, beta rows), holds about this many cells, so it and its beta x^2 stay in L2
_TILE_CELLS = 60_000
_U = 2.0**-53  # unit roundoff of float64


def _g(n) -> float:
    """Higham's gamma(n), the relative error bound of n roundings."""
    return n * _U / (1 - n * _U)


def _loglik(logdet, syy, sxy, sxx, r):
    """The log-likelihood from an (alpha, beta) row's sums at rho = r, broadcast."""
    return -0.5 * (logdet + syy - 2.0 * r * sxy + r * r * sxx)


def _screen(x2, y2, xy, rhos, alphas, betas):
    """Each alpha slice's screened maximum S and certificate E (module docstring), and the
    (4, n_alpha, n_beta) sums logdet, syy, sxy, sxx they come from; None when uncertified."""
    m, nb = len(x2), len(betas)
    # v = alpha + beta x^2 rounds monotonically, so every variance lies within these two
    lam = max(abs(np.log(alphas[0] + betas[0] * x2.min())), abs(np.log(alphas[-1] + betas[-1] * x2.max())))
    k = next((k for k in (16, 8, 4, 2) if k * lam < 700.0), None)
    if k is None:
        return None
    chunks = -(-m // 5000)  # the time axis in even chunks of at most 5,000 steps
    c = -(-m // chunks)
    ng, rows = -(-c // k), min(nb, max(1, _TILE_CELLS // c))
    sums = np.zeros((4, len(alphas), nb))
    for t0 in range(0, m, c):
        n = min(c, m - t0)
        # a tile is (k ng, rows), time down; group g holds times g, g + ng, ...; the padding times
        # hold v = 1, which 1/v keeps and the products ignore, and zero z keeps them out of the sums
        z = np.zeros((3, k * ng))
        z[:, :n] = y2[t0:t0 + n], xy[t0:t0 + n], x2[t0:t0 + n]
        for lo in range(0, nb, rows):
            bx2 = x2[t0:t0 + n, None] * betas[None, lo:lo + rows]
            v, prod = np.ones((k * ng, bx2.shape[1])), np.empty((k * ng // 2, bx2.shape[1]))
            tile = slice(lo, lo + rows)
            for ia, a in enumerate(alphas):
                np.add(a, bx2, out=v[:n])
                w = len(prod)
                np.multiply(v[:w], v[w:], out=prod)
                while w > ng:
                    w //= 2
                    np.multiply(prod[:w], prod[w:2 * w], out=prod[:w])
                sums[0, ia, tile] += np.log(prod[:ng], out=prod[:ng]).sum(axis=0)
                sums[1:, ia, tile] += z @ np.divide(1.0, v, out=v)

    logdet, syy, sxy, sxx = sums
    rho = np.abs(rhos).max()
    with np.errstate(divide="ignore", invalid="ignore"):  # sxx = 0: the row is linear or flat in rho
        near = np.searchsorted(rhos, sxy / sxx)
    top = np.max([_loglik(*sums, rhos[np.clip(near + i, 0, len(rhos) - 1)]) for i in (-2, -1, 0, 1)], axis=(0, 2))
    quad = syy + 2.0 * rho * np.sqrt(syy) * np.sqrt(sxx) + rho * rho * sxx
    d = 3 * chunks * ng * _g(k) + (2.0**-47 + 4 * _g(m)) * m * lam + m * (1 + rho) ** 2 * 2.0**-1074
    bound = 2.0 * ((_g(m) + _g(3)) * quad + d + _g(3) * np.abs(logdet)).max(axis=1)
    return (top, bound, sums) if np.isfinite(top).all() and np.isfinite(bound).all() else None


def _exact_slice(a, x2, y2, xy, rhos, betas):
    """Slice ``a``'s first maximum as (loglik, rho_idx, beta_idx), by the former full search's ops.

    A row's log sum does not depend on its neighbours, so the logs are taken a tile of rows at a
    time; the gemv run on the whole 1/v, as OpenBLAS's bits depend on row offsets and thread split.
    """
    v = betas[:, None] * x2[None, :]
    v += a
    rows = max(1, _TILE_CELLS // len(x2))
    logdet = np.concatenate([np.log(v[lo:lo + rows]).sum(axis=1) for lo in range(0, len(betas), rows)])
    inv = np.divide(1.0, v, out=v)
    ll = _loglik(logdet, inv @ y2, inv @ xy, inv @ x2, rhos[:, None])
    ir, ib = divmod(int(np.argmax(ll)), len(betas))  # C order: first max is smallest (rho, beta)
    return float(ll[ir, ib]), ir, ib


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

    screened = _screen(x2, y2, xy, rhos, alphas, betas)
    exact = range(len(alphas))
    if screened is not None:
        top, bound, _ = screened
        exact = np.flatnonzero(top + bound >= (top - bound).max())
    candidates = []  # (loglik, rho_idx, alpha_idx, beta_idx), one per exact slice
    for ia in exact:
        ll, ir, ib = _exact_slice(alphas[ia], x2, y2, xy, rhos, betas)
        candidates.append((ll, ir, int(ia), ib))

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
