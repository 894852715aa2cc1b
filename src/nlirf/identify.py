"""Identification utilities for latent-source and Markov structure.

Two tools live here:

* :func:`recover_mixing` identifies the unit-diagonal mixing matrix of a
  bivariate series y_t = A x_t whose latent sources are independent with
  linearly independent autocovariance sequences. Regressing the observed
  cross-covariance on the two marginal autocovariances identifies
  a_21/(1 + a_12 a_21) and a_12/(1 + a_12 a_21); a quadratic then yields
  two mixing candidates that coincide up to source permutation and
  rescaling (the representation is only essentially unique).

* :func:`markov_moment_test` checks first-order Markov dynamics through
  the conditional-covariance restrictions
  E[Cov(a(y_t), b(y_{t-2}) | y_{t-1}) c(y_{t-1})] = 0. Sample moments use
  Nadaraya-Watson centered residuals at one bandwidth, whose fits and weight sums
  come from one product of the series' kernel matrix, evaluated on its upper triangle
  alone; their covariance is estimated by a circular block bootstrap, each
  replication a sum of precomputed block sums, and combined into a Wald
  statistic against a chi-square with one degree of freedom per basis triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ._checks import _as_reals, _instance, _integer, _level, _triples
from .kernels import _a_series, _kernel_matrix_product, silverman_bandwidth
from .models import TimeSeries

__all__ = [
    "DegenerateDynamics",
    "MixingEstimate",
    "MarkovTestResult",
    "recover_mixing",
    "recover_mixing_from_acf",
    "markov_moment_test",
    "default_markov_basis",
]

_CONDITION_LIMIT = 1e8


class DegenerateDynamics(ValueError):
    """The dynamics are too degenerate to identify: sources with proportional
    autocovariances, or Markov-test moments with a singular covariance."""


@dataclass
class MixingEstimate:
    """Candidate unit-diagonal mixings and the recovered sources.

    ``candidates`` holds the two quadratic roots as 2x2 matrices; they map
    to each other under swapping and rescaling the sources. ``chosen``
    indexes the candidate used to recover ``sources`` (the smaller
    off-diagonal magnitude, a deterministic convention since the fit
    residual cannot distinguish the two).
    """

    candidates: List[np.ndarray]
    chosen: int
    sources: Optional[TimeSeries]
    residual_norm: float
    regression_coefficients: Tuple[float, float]

    @property
    def mixing(self) -> np.ndarray:
        return self.candidates[self.chosen]


def _acvf(a: np.ndarray, b: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample cross-autocovariance Cov(a_t, b_{t+h}) for h = 1..max_lag."""
    am, bm = a - a.mean(), b - b.mean()
    n = len(a)
    return np.array([np.dot(am[: n - h], bm[h:]) / n for h in range(1, max_lag + 1)])


def recover_mixing_from_acf(
    gamma11: np.ndarray,
    gamma22: np.ndarray,
    gamma12: np.ndarray,
    observations: Optional[np.ndarray] = None,
) -> MixingEstimate:
    """Solve the autocovariance system for the two mixing candidates.

    Inputs are the observable autocovariances at lags 1..H. Raises
    :class:`DegenerateDynamics` when the two marginal autocovariance
    sequences are numerically collinear, in which case the mixing is not
    identified.
    """
    _instance((np.ndarray, type(None)), "an array or None")("observations", observations)
    g11, g22, g12 = _as_reals(gamma11, "gamma11"), _as_reals(gamma22, "gamma22"), _as_reals(gamma12, "gamma12")
    if not (len(g11) == len(g22) == len(g12)) or len(g11) < 2:
        raise ValueError("need autocovariances at the same lags, at least two of them")

    Z = np.column_stack([g11, g22])
    norms = np.linalg.norm(Z, axis=0)
    if not (norms > 0).all():
        raise DegenerateDynamics("an autocovariance sequence is identically zero")
    sv = np.linalg.svd(Z / norms, compute_uv=False)
    if sv[-1] == 0 or sv[0] / sv[-1] > _CONDITION_LIMIT:
        raise DegenerateDynamics(
            "marginal autocovariance sequences are collinear; sources with "
            "identical dynamics cannot be separated"
        )

    coef, _, _, _ = np.linalg.lstsq(Z, g12, rcond=None)
    u, w = float(coef[0]), float(coef[1])  # a21/(1+a12a21), a12/(1+a12a21)
    residual = float(np.linalg.norm(Z @ coef - g12))

    # with k = 1 + a12 a21: u w k^2 - k + 1 = 0, a12 = w k, a21 = u k.
    # This is the same quadratic as in the (c, d) = (u/w, u) parametrization
    # but stays well-defined when an off-diagonal vanishes. The regular
    # root is computed in the cancellation-free form 2/(1 + sqrt(disc));
    # the dual root diverges as u w -> 0 (permutation image at infinity).
    uw = u * w
    disc = 1.0 - 4.0 * uw
    if disc < 0:
        raise DegenerateDynamics("no real mixing is consistent with the autocovariance system")
    k_reg = 2.0 / (1.0 + math.sqrt(disc))
    ks = [k_reg]
    if uw != 0.0:
        ks.append(1.0 / (uw * k_reg))  # product of the roots is 1/(u w)
    candidates: List[np.ndarray] = []
    for k in ks:
        a12, a21 = w * k, u * k
        if not (math.isfinite(a12) and math.isfinite(a21)) or max(abs(a12), abs(a21)) > 1e10:
            continue  # dual at (numerical) infinity
        if abs(1.0 + a12 * a21) < 1e-12 or abs(1.0 - a12 * a21) < 1e-12:
            continue  # non-invertible or excluded (a12 a21 = +-1)
        candidates.append(np.array([[1.0, a12], [a21, 1.0]]))
    if not candidates:
        raise DegenerateDynamics("both mixing roots are excluded (a12*a21 = +-1)")
    while len(candidates) < 2:
        candidates.append(candidates[0])

    chosen = int(np.argmin([abs(c[0, 1]) for c in candidates]))
    sources = None
    if observations is not None:
        x = np.linalg.solve(candidates[chosen], observations.T).T
        sources = TimeSeries(values=x, origin="recovered sources")
    return MixingEstimate(
        candidates=candidates,
        chosen=chosen,
        sources=sources,
        residual_norm=residual,
        regression_coefficients=(u, w),
    )


def recover_mixing(series: TimeSeries, max_lag: int = 5) -> MixingEstimate:
    """Recover the mixing of a bivariate series from its sample autocovariances.

    The cross-covariance is symmetrized over the two directions (their
    population values coincide for independent sources), which roughly
    halves its sampling noise.
    """
    if _a_series("series", series).n != 2:
        raise ValueError(f"need a bivariate series, got {series.n} columns")
    _integer("max_lag", max_lag, 2)
    if series.T < max_lag + 2:
        raise ValueError("series too short for the requested lags")
    y1, y2 = series.values[:, 0], series.values[:, 1]
    g11 = _acvf(y1, y1, max_lag)
    g22 = _acvf(y2, y2, max_lag)
    g12 = 0.5 * (_acvf(y1, y2, max_lag) + _acvf(y2, y1, max_lag))
    return recover_mixing_from_acf(g11, g22, g12, observations=series.values)


# ---------------------------------------------------------------------------
# Markov moment test
# ---------------------------------------------------------------------------

BasisTriple = Tuple[Callable, Callable, Callable]


def default_markov_basis(series: TimeSeries) -> List[BasisTriple]:
    """Small fixed dictionary of bounded-ish test functions.

    Triples (a, b, c) of: identity pairs, an identity triple, squares,
    and above-median indicators; a compromise between power against
    common alternatives and reproducibility (any integrable functions
    would be admissible).
    """
    med = float(np.median(_a_series("series", series).y))
    one = lambda x: np.ones_like(x)
    ind = lambda x: (x > med).astype(float)
    sq = lambda x: x * x
    idf = lambda x: x
    return [(idf, idf, one), (idf, idf, idf), (sq, sq, one), (ind, ind, idf)]


@dataclass(frozen=True)
class MarkovTestResult:
    moments: np.ndarray
    statistic: float
    critical_value: float
    reject: bool
    level: float
    bootstrap_reps: int
    block_length: int
    bandwidth: float


def _block_bootstrap_means(contrib: np.ndarray, block_len: int, B: int, rng) -> np.ndarray:
    """Circular-block-bootstrap means (B, k) of the rows of ``contrib`` (n, k), as sums of block sums.

    A replication keeps the first n rows of ``ceil(n / block_len)`` blocks at uniform circular
    starts: full blocks, then a shorter one. Each block sum adds one window of the wrapped rows, and
    the replications add them one block at a time, so no (B, blocks, k) gather is held.
    """
    n = len(contrib)
    nblocks = int(math.ceil(n / block_len))
    ext = np.concatenate([contrib, contrib[: block_len - 1]])
    windows = np.lib.stride_tricks.sliding_window_view(ext, block_len, axis=0)
    full, last = windows[:n].sum(axis=-1), windows[:n, :, : n - (nblocks - 1) * block_len].sum(axis=-1)
    starts = rng.integers(0, n, size=(B, nblocks))
    total = last[starts[:, -1]]
    for j in range(nblocks - 1):
        total += full[starts[:, j]]
    return total / n


def markov_moment_test(
    series: TimeSeries,
    basis: Optional[Sequence[BasisTriple]] = None,
    block_len: Optional[int] = None,
    B: int = 500,
    seed: int = 0,
    level: float = 0.05,
) -> MarkovTestResult:
    """Test first-order Markov dynamics through triple-product moments.

    For each basis triple (a, b, c), the sample moment averages
    [a(y_t) - E_hat(a | y_{t-1})] [b(y_{t-2}) - E_hat(b | y_{t-1})] c(y_{t-1})
    over t, which has mean zero under the Markov property. Basis functions must work
    elementwise, as a(y_t) means, since each is evaluated once, on the series. Both conditional
    means are Gaussian Nadaraya-Watson fits at the Silverman bandwidth of y, read
    with their weight sums from one product of the kernel matrix over y. The moment vector is
    studentized with a circular-block-bootstrap covariance (``B`` replications,
    blocks of ``block_len`` < T - 2) and referred to a chi-square with one
    degree of freedom per triple at size ``level`` in (0, 1).
    """
    if _a_series("series", series).T < 100:
        raise ValueError("need at least 100 observations")
    y = series.y
    if basis is None:
        basis = default_markov_basis(series)
    _triples("basis", basis)
    n = series.T - 2
    if block_len is None:
        block_len = int(math.ceil(series.T ** (1 / 3)))
    _integer("block_len", block_len, 1)
    _integer("B", B, 10)
    _integer("seed", seed, 0)
    _level("level", level)
    if block_len >= n:
        raise ValueError(f"block_len must be below T - 2 = {n}, got {block_len}")

    # forward fits E[a(y_t) | y_{t-1}] on x = y[:-1] and backward fits E[b(y_{t-2}) | y_{t-1}] on x = y[1:]
    # at the points y_{t-1}, t = 3..T: rows 1:-1 of K @ targets for the kernel matrix K over y, whose zero
    # rows make each column read its regressors alone: [a(y[1:]), 1; 0] and [0; b(y[:-1]), 1]
    q = len(basis)
    targets = np.zeros((series.T, 2 * q + 2))
    targets[:-1, :q] = np.column_stack([fa(y[1:]) for fa, _, _ in basis])
    targets[1:, q + 1 : -1] = np.column_stack([fb(y[:-1]) for _, fb, _ in basis])
    targets[:-1, q] = targets[1:, -1] = 1.0
    cvals = np.column_stack([fc(y[1:-1]) for _, _, fc in basis])
    if not (np.isfinite(targets).all() and np.isfinite(cvals).all()):
        raise ValueError("basis functions produced non-finite values")
    # points are sample values of both regressors: each weight sum >= the point's own weight
    bandwidth = silverman_bandwidth(y)
    sums = _kernel_matrix_product(y, targets, bandwidth, "gaussian")[1:-1]

    # a(y_t) and b(y_{t-2}), t = 3..T: pointwise, so rows of the targets
    ra = targets[1:-1, :q] - sums[:, :q] / sums[:, q, None]
    rb = targets[1:-1, q + 1 : -1] - sums[:, q + 1 : -1] / sums[:, -1, None]
    contrib = ra * rb * cvals
    moments = contrib.mean(axis=0)
    boot_means = _block_bootstrap_means(contrib, block_len, B, np.random.default_rng(seed))
    V = np.atleast_2d(np.cov(boot_means, rowvar=False, ddof=1))
    try:
        stat = float(max(moments @ np.linalg.solve(V, moments), 0.0))
    except np.linalg.LinAlgError:
        raise DegenerateDynamics(
            "bootstrap covariance of the moments is singular; some basis triple "
            "gives a degenerate moment"
        ) from None
    from scipy.special import gammaincinv  # loaded by this call alone: scipy.special is most of an import's cost

    crit = float(2 * gammaincinv(len(basis) / 2, 1 - level))  # the chi-square quantile, as scipy.stats computes it
    return MarkovTestResult(
        moments=moments,
        statistic=stat,
        critical_value=crit,
        reject=stat > crit,
        level=level,
        bootstrap_reps=B,
        block_length=block_len,
        bandwidth=bandwidth,
    )
