"""Gaussian quasi-maximum likelihood for the first-order double-autoregressive model.

The objective is the standard Gaussian quasi log-likelihood of Ling
(2007): with conditional variance v_t = alpha + beta * y_{t-1}^2,

    L(rho, alpha, beta) = sum_{t=2}^T -1/2 [ ln v_t + (y_t - rho*y_{t-1})^2 / v_t ].

Maximization is by exhaustive search over a rectangular lattice. For fixed
(alpha, beta) the objective is -1/2 [logdet + syy - 2 rho sxy + rho^2 sxx],
with logdet = sum ln v_t and syy, sxy, sxx the sums of y_t^2, y_{t-1} y_t
and y_{t-1}^2 over v_t: one pass over the data gives the whole rho axis.

A screen takes every lattice point's sums from per-bin moments, at a cost
that does not grow with T. The x^2 fall into bins of ratio at most
(1 + RHO) / (1 - RHO) in s + x^2, s = alpha_min / beta_max; with a bin's
centre m and half-width h, x^2 = m + h d, |d| <= 1, so v = A (1 + u d) with
A = alpha + beta m and u = beta h / A <= RHO, as alpha >= beta s. Then
1/v = sum_k (-u d)^k / A and ln v = ln A - sum_{k>0} (-u d)^k / k; cut after
K terms, each sum is the powers of -u (over A) times W[k, g], the sums of
d^k w over bin g, and what is cut is at most u^(K+1) / (1 - u dmax) times
the bin's sum of |w| |d|^(K+1), over A or K + 1 (tau, at r). With S[a] a
slice's screened maximum and E[a] a bound on |screen - exact| over it, only
the slices with S[a] + E[a] >= max_b (S[b] - E[b]) are evaluated exactly,
by the former full search's operations. Every slice holding the exact
maximum L* passes, as L* <= S[a] + E[a] and L* >= S[b] - E[b], so the result
is the full search's bit for bit, ties included. If S or E is not finite or
u dmax can exceed 1/2, every slice is exact.

E, with g(n) = n 2^-53 / (1 - n 2^-53), m = T - 1, r = max |rho|, lam =
max |ln v|, G bins and Q = syy + 2 r sqrt(syy sxx) + r^2 sxx, which bounds
the sums of |w| / v at r; both paths are held to the real sums. The exact
path rounds v twice and 1/v once: its sums are within g(m + 3) Q, and its
logdet within m (g(3) + (2^-48 + g(m)) lam), np.log being off by 2^-48
relative. A screen term takes N = m + 7K + 8 + (K + 1) G roundings at most,
so the screen is within g(N) of its terms' absolute sum: 3 Q at most, as
(1 + u dmax) / (1 - u dmax) <= 3, and m (lam + 2) for logdet; d's rounding
moves v by g(3). The final combination rounds a term at most three times,
and a subnormal result is off by 2^-1075 at most. So at every point of a row

    |screen - exact| <= tau + g(N) (5 Q + 3 |logdet| + 3 m (lam + 2)) + D,
    D = 2^-46 m (lam + 2) + (c + Q) (1 + max w + 1 / alpha_min) 2^-1070,

c = (K + 2)^2 (m + (K + 1) G) (1 + r)^2. E[a] is twice the largest right
side in slice a: the factor covers the screen's sums standing in for the
real ones and the rounding of E and S +- E. S takes each row at the four rho
grid points around its vertex sxy / sxx: a concave quadratic peaks on a grid
next to its vertex, and the vertex's rounding moves that point by at most one.
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


# an exact slice takes its logs about this many (beta, time) cells at a time, and a screen chunk of
# lattice points holds about this many (power, bin, point) cells, so each stays in L2
_TILE_CELLS = 60_000
_RHO, _K = 0.25, 18  # a bin's u is at most 1/4, and the series stop at (-u d)^18: the rest is below 5e-12 relative


def _g(n) -> float:
    """Higham's gamma(n), the relative error bound of n roundings."""
    return n * 2.0**-53 / (1 - n * 2.0**-53)


def _loglik(logdet, syy, sxy, sxx, r):
    """The log-likelihood from an (alpha, beta) row's sums at rho = r, broadcast."""
    return -0.5 * (logdet + syy - 2.0 * r * sxy + r * r * sxx)


def _bin_moments(x2, y2, xy, s):
    """The bins of x^2 (module docstring): centres m, half-widths h, the largest |d|, and W[k, g], the sums
    over bin g of d^k (1, y^2, x y, x^2) for k <= K and, in W[K + 1], of |d|^(K+1) |(1, y^2, x y, x^2)|."""
    order = np.argsort(x2)
    xs, z = x2[order], np.log(s + x2[order])
    first = np.r_[True, np.diff(np.floor((z - z[0]) / np.log((1 + _RHO) / (1 - _RHO)))) > 0]
    starts, g = np.flatnonzero(first), np.cumsum(first) - 1
    lo, h = xs[starts], 0.5 * (xs[np.r_[starts[1:], len(xs)] - 1] - xs[starts])
    d = (xs - (lo + h)[g]) / np.where(h > 0, h, 1.0)[g]  # a bin of equal values has d = 0
    p, W = np.stack([np.ones(len(xs)), y2[order], xy[order], xs], axis=1), np.empty((_K + 2, len(starts), 4))
    for k in range(_K + 1):
        W[k] = np.add.reduceat(p, starts)
        p *= d[:, None]
    W[-1] = np.add.reduceat(np.abs(p), starts)
    return lo + h, h, np.abs(d).max(), W


@np.errstate(over="ignore", invalid="ignore")  # a sum or bound that leaves the finite range returns None
def _screen(x2, y2, xy, rhos, alphas, betas):
    """Each alpha slice's screened maximum S and certificate E (module docstring), and the
    (4, n_alpha, n_beta) sums logdet, syy, sxy, sxx they come from; None when uncertified."""
    if not (s := alphas[0] / betas[-1]) > 0:
        return None
    mid, h, dmax, W = _bin_moments(x2, y2, xy, s)
    m, K, G, nb, r = len(x2), _K, len(mid), len(betas), np.abs(rhos).max()
    # coefficients on rows (k, bin): n_g, then -W / k for logdet, W for the other three; tail moments at r
    wlog = np.r_[W[0, :, 0], (W[1:K + 1, :, 0] / -np.arange(1.0, K + 1)[:, None]).ravel()]
    w3, tlog, t3 = W[:K + 1, :, 1:].reshape(-1, 3).T, W[-1, :, 0] / (K + 1), W[-1, :, 1:] @ [1.0, 2.0 * r, r * r]
    sums, tau = np.empty((4, len(alphas), nb)), np.empty((len(alphas), nb))
    bm, bh = mid[:, None] * betas, h[:, None] * betas
    cells = max(1, _TILE_CELLS // ((K + 1) * G))  # lattice points per chunk: whole alpha slices, or part of one
    na, nc = max(1, cells // nb), min(nb, cells)
    for a0 in range(0, len(alphas), na):
        for b0 in range(0, nb, nc):
            ra, rb = slice(a0, a0 + na), slice(b0, b0 + nc)
            A = alphas[ra, None] + bm[:, None, rb]  # (bin, alpha, beta)
            shape = A.shape[1:]
            u, A = (bh[:, None, rb] / A).reshape(G, -1), A.reshape(G, -1)
            P = np.empty((K + 1,) + A.shape)  # (-u)^k for k >= 1; row 0 holds ln A, then 1
            np.negative(u, out=P[1])
            for k in range(2, K + 1):
                np.multiply(P[k - 1], P[1], out=P[k])
            tail, inv = np.abs(P[K]) * u / (1 - u * dmax), 1.0 / A
            np.log(A, out=P[0])
            sums[0, ra, rb] = (wlog @ P.reshape(-1, A.shape[1])).reshape(shape)
            P[0] = 1.0
            P *= inv
            sums[1:, ra, rb] = (w3 @ P.reshape(-1, A.shape[1])).reshape((3,) + shape)
            tau[ra, rb] = (tlog @ tail + t3 @ (tail * inv)).reshape(shape)

    logdet, syy, sxy, sxx = sums
    with np.errstate(divide="ignore"):  # sxx = 0: the row is linear or flat in rho
        near = np.searchsorted(rhos, sxy / sxx)
    top = np.max([_loglik(*sums, rhos[np.clip(near + i, 0, len(rhos) - 1)]) for i in (-2, -1, 0, 1)], axis=(0, 2))
    quad = syy + 2.0 * r * np.sqrt(syy) * np.sqrt(sxx) + r * r * sxx
    # v = alpha + beta x^2 rounds monotonically, so every variance lies within these two
    lam = max(abs(np.log(alphas[0] + betas[0] * x2.min())), abs(np.log(alphas[-1] + betas[-1] * x2.max())))
    gn, c = _g(m + 7 * K + 8 + (K + 1) * G), (K + 2) ** 2 * (m + (K + 1) * G) * (1 + r) ** 2
    D = 2.0**-46 * m * (lam + 2) + (c + quad) * (2.0**-1070 * (1 + max(x2.max(), y2.max()) + 1 / alphas[0]))
    bound = 2.0 * (tau + gn * (5 * quad + 3 * np.abs(logdet) + 3 * m * (lam + 2)) + D).max(axis=1)
    # u = h / (alpha / beta + m) is largest at alpha_min / beta_max = s
    ok = (h / (s + mid)).max() * dmax <= 0.5 and np.isfinite(top).all() and np.isfinite(bound).all()
    return (top, bound, sums) if ok else None


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
    x2, y2, xy = x * x, yy * yy, x * yy
    rhos, alphas, betas = (grid.axis(i) for i in range(3))
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
    on_boundary = ir in (0, len(rhos) - 1) or ia in (0, len(alphas) - 1) or ib in (0, len(betas) - 1)
    return QmleResult(params=params, loglik=dar_quasi_loglik(params, series), grid_argmax_on_boundary=on_boundary)
