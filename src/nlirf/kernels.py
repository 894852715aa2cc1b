"""Kernel estimators for conditional law of a univariate Markov series.

Provides the kernel density, conditional CDF, conditional quantile and
Nadaraya-Watson regression estimators, plus the estimated nonlinear
autoregressive map ``g_hat(y, eps) = Q_hat(Phi(eps) | y)`` obtained by
inverting the estimated conditional distribution at a Gaussian rank.
Every weight comes from one chunked primitive that evaluates (points x T)
kernel blocks in place, in a buffer of ``_CHUNK_CELLS`` cells (8 MB) or 16 rows, whichever is more.
Each thread keeps that buffer in an anonymous mapping between calls, so threads share no scratch
memory and the allocator's heap never holds, frees and re-places an 8 MB block, which fragments it.
Weights omit the kernel's constant, which cancels in every ratio; the density, an explicit
``min_weight_sum`` and a reported kernel mass apply it once. Four batch passes evaluate every weight
block (density, weighted-quantile scan, NW fit, and the Markov test's strips of the upper triangle of a
series' symmetric kernel matrix); the scan and the fit take one row per distinct conditioning point.
The scan takes a row's total from its 64-column block sums, finds the row's crossings from them when
it has few, and keeps only the crossings certified equal, bitwise, to those of the row's sequential
cumulative sum, which serves every other one. A simulation keeps each response row's block-sum
cumsum and maximum, the same bits as a fresh row's, in a memo of at most ``_CHUNK_CELLS`` cells, so
it evaluates the row in full once.
Single-point estimators are one-row calls; the conditional CDF reads its row.

All conditional estimators pair the regressor ``y_{t-1}`` with the
response ``y_t`` (t = 2..T) and weight observations with a kernel in the
conditioning variable. They refuse to extrapolate: when the kernel mass
at the conditioning point is too thin the operation raises
:class:`InsufficientLocalData` instead of returning a meaningless value.
The default mass rule requires the weight sum to reach five times the
largest single weight, i.e. roughly five effective neighbours.
"""

from __future__ import annotations

import math
import mmap
import threading
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from ._checks import _as_reals, _finite, _instance, _integer, _level, _number, _object, _one_of, _positive_finite
from ._normal import _ndtr
from .models import TimeSeries

__all__ = [
    "KernelConfig",
    "ConditionalEstimate",
    "InsufficientLocalData",
    "ClampedShockWarning",
    "silverman_bandwidth",
    "kde",
    "cond_cdf",
    "cond_quantile",
    "g_hat",
    "nadaraya_watson",
]

# effective shock range; Phi(eps) must stay numerically inside (0, 1)
EPS_CLAMP = 6.0

# weight-sum threshold when KernelConfig.min_weight_sum is None,
# in units of the largest single kernel weight at the conditioning point
_DEFAULT_MASS_MULTIPLE = 5.0

_CHUNK_CELLS = 1_000_000  # max weight-matrix cells held at once: 8 MB of float64
_SCRATCH = threading.local()  # .buf: the thread's idle weight-block buffer, or None

_SCAN_BLOCK = 64  # columns per block sum in the two-level quantile search
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_BANDWIDTHS = (np.finfo(float).tiny ** 0.5, np.finfo(float).tiny ** -0.5)  # b^2 and 1 / b^2 stay normal floats


class InsufficientLocalData(ValueError):
    """Raised when the kernel mass near the conditioning point is too thin."""


class ClampedShockWarning(UserWarning):
    """Emitted when a shock is clamped to the invertible range [-6, 6]."""


_KERNELS = ["gaussian", "epanechnikov"]
# each kernel's constant: K(u / b) = _MASS[kernel] * _kernel(u, b, kernel); it cancels in every ratio
_MASS = {"gaussian": 1 / math.sqrt(2 * math.pi), "epanechnikov": 0.75}


def _kernel(u: np.ndarray, bandwidth: float, kernel: str) -> np.ndarray:
    """``K(u / bandwidth) / _MASS[kernel]`` in place on differences ``u = x - point``, dividing no cell:
    ``exp(u u (-0.5 / b^2))``, or ``max(u u (-1 / b^2) + 1, 0)``, which is 0 off the support and for NaN."""
    np.multiply(u, u, out=u)
    np.multiply(u, (-0.5 if kernel == "gaussian" else -1.0) / bandwidth**2, out=u)
    if kernel == "gaussian":
        return np.exp(u, out=u)
    np.add(u, 1.0, out=u)
    return np.fmax(u, 0.0, out=u)


def _weight_blocks(x: np.ndarray, points: np.ndarray, bandwidth: float, kernel: str):
    """Yield ``(lo, hi, w)`` with ``w[i, j] = K((x[j] - points[lo + i]) / bandwidth) / _MASS[kernel]``.

    Blocks of ``max(16, _CHUNK_CELLS // len(x))`` rows, at most ``_CHUNK_CELLS`` cells (8 MB) up to 62,500
    columns and 16 rows beyond (12.8 MB at 100,000), are evaluated in place by _kernel into one buffer,
    which the next block overwrites. A row costs T cells whether or not its point repeats, so pass distinct points.
    The buffer is the thread's scratch, taken for the call and given back when the generator closes; a call
    made while it is out, or wider than it, maps its own. A block stays valid until the thread's next call.
    """
    m, n = len(x), len(points)
    chunk = max(1, min(n, max(16, _CHUNK_CELLS // m)))
    scratch, _SCRATCH.buf = getattr(_SCRATCH, "buf", None), None
    if scratch is None or len(scratch) < chunk * m:
        scratch = np.frombuffer(mmap.mmap(-1, 8 * chunk * m))
    buf = scratch[: chunk * m].reshape(chunk, m)
    try:
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            yield lo, hi, _kernel(np.subtract(x[None, :], points[lo:hi, None], out=buf[: hi - lo]), bandwidth, kernel)
    finally:
        kept = getattr(_SCRATCH, "buf", None)
        if kept is None or len(kept) <= len(scratch):
            _SCRATCH.buf = scratch


def _kernel_matrix_product(y: np.ndarray, targets: np.ndarray, bandwidth: float, kernel: str) -> np.ndarray:
    """``K @ targets`` for the symmetric (T, T) matrix ``K[i, j] = K((y[j] - y[i]) / bandwidth) / _MASS[kernel]``.

    Only the upper triangle is evaluated: strips of ``max(16, min(64, _CHUNK_CELLS // T))`` rows
    [i0, i1) by columns [i0, T), each one _weight_blocks block, about T^2 / 2 + 32 T cells in all. A lower
    cell has the bits of its mirror, since ``-u`` squares to the bits of ``u``, so each strip adds
    ``targets[i0:].T @ w.T`` to its own rows and ``targets[i0:i1].T @ w[:, i1 - i0:]`` to the rows below,
    in transposed products: ``w[:, i1 - i0:].T @ targets[i0:i1]`` made OpenBLAS's second thread pack 8 MB.
    """
    T = len(y)
    rows = max(16, min(64, _CHUNK_CELLS // T))  # 64 rows beat 32, 128 and 200 at T=5000
    tt, out = np.ascontiguousarray(targets.T), np.zeros((targets.shape[1], T))
    for i0 in range(0, T, rows):
        i1 = min(i0 + rows, T)
        ((_, _, w),) = _weight_blocks(y[i0:], y[i0:i1], bandwidth, kernel)
        out[:, i0:i1] += tt[:, i0:] @ w.T
        out[:, i1:] += tt[:, i0:i1] @ w[:, i1 - i0 :]
    return out.T


def _density(x: np.ndarray, points: np.ndarray, bandwidth: float, kernel: str) -> np.ndarray:
    """Kernel density ``(1/(T*b)) * sum_t K((x_t - p)/b)`` at each of ``points``, in one chunked pass."""
    dens = np.empty(len(points))
    for lo, hi, w in _weight_blocks(x, points, bandwidth, kernel):
        dens[lo:hi] = w.sum(axis=1) * (_MASS[kernel] / (x.size * bandwidth))
    return dens


@dataclass(frozen=True)
class KernelConfig:
    """Kernel family, bandwidth (explicit or ``"silverman"``), and mass threshold.

    ``min_weight_sum=None`` selects the adaptive default of five times the
    largest single weight at the conditioning point; an explicit positive
    float is used as an absolute threshold on the kernel weight sum.
    """

    kernel: str = "gaussian"
    bandwidth: Union[float, str] = "silverman"
    min_weight_sum: Optional[float] = None

    def __post_init__(self) -> None:
        _one_of(_KERNELS)("kernel", self.kernel)
        if isinstance(self.bandwidth, str):
            _one_of(["silverman"])("bandwidth", self.bandwidth)
        else:
            _positive_finite("bandwidth", self.bandwidth, *_BANDWIDTHS)
        if self.min_weight_sum is not None:
            _positive_finite("min_weight_sum", self.min_weight_sum)

    def to_json_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "KernelConfig":
        extra = set(_object("kernel", obj)) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown kernel config keys: {sorted(extra)}")
        return cls(**obj)


_a_series, _a_config = _instance(TimeSeries, "a TimeSeries"), _instance(KernelConfig, "a KernelConfig")


@dataclass(frozen=True)
class ConditionalEstimate:
    """A conditional estimate plus local-mass diagnostics."""

    value: float
    effective_weight: float
    bandwidth_used: float


def silverman_bandwidth(data: Sequence[float]) -> float:
    """Rule-of-thumb bandwidth 1.06 * sd(data) * T^(-1/5).

    The T^(-1/5) decay keeps T*b_T^(5/3) -> infinity, the rate regime in
    which the kernel estimators here are consistent and asymptotically
    normal.
    """
    x = _as_reals(data, "data").ravel()
    if x.size < 2:
        raise ValueError("need at least 2 observations for a bandwidth")
    with np.errstate(over="ignore", invalid="ignore"):  # a spread past ~1e154 overflows the squares
        sd = float(np.std(x, ddof=1))
    if not math.isfinite(sd):
        lo, hi = float(x.min()), float(x.max())
        raise ValueError(f"data spread [{lo:.3g}, {hi:.3g}] overflows its standard deviation; rescale the data")
    if sd == 0.0:
        raise ValueError("data is constant; bandwidth undefined")
    return _positive_finite("bandwidth", 1.06 * sd * x.size ** (-0.2), *_BANDWIDTHS)


def _resolve_bandwidth(cfg: KernelConfig, conditioning: np.ndarray) -> float:
    if cfg.bandwidth == "silverman":
        return silverman_bandwidth(conditioning)
    return float(cfg.bandwidth)


def kde(data: Sequence[float], at: float, cfg: KernelConfig = KernelConfig()) -> float:
    """Kernel density estimate (1/(T*b)) * sum K((y_t - at)/b) at a point."""
    x = _as_reals(data, "data").ravel()
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    _number("at", at)  # +-inf stay legal and give a zero density
    _a_config("cfg", cfg)
    b = _resolve_bandwidth(cfg, x)
    return float(_density(x, np.array([at], dtype=float), b, cfg.kernel)[0])


# ---------------------------------------------------------------------------
# batch machinery shared with the IRF engine
# ---------------------------------------------------------------------------

@dataclass
class _QuantilePrep:
    """Series preprocessed for conditional-quantile inversion.

    ``x`` are conditioning values and ``v`` the responses, jointly sorted
    by response (stable), so a weighted quantile is a cumulative-weight
    scan; ``threshold`` is ``min_weight_sum`` in _kernel's units. ``memo``, allocated at the first row stored,
    holds weight rows' summaries (see _quantile_batch) in ``slots[j]`` for the row at ``v[j]`` (-1: none).
    """

    x: np.ndarray
    v: np.ndarray
    bandwidth: float
    kernel: str
    threshold: Optional[float]
    slots: np.ndarray
    memo: Optional[np.ndarray] = None
    used: int = 0

    @classmethod
    def from_series(cls, series: TimeSeries, cfg: KernelConfig) -> "_QuantilePrep":
        y = series.y
        if series.T < 3:
            raise ValueError("need at least 3 observations")
        x, v = y[:-1], y[1:]
        order = np.argsort(v, kind="stable")
        return cls(
            x=np.ascontiguousarray(x[order]),
            v=np.ascontiguousarray(v[order]),
            bandwidth=_resolve_bandwidth(cfg, x),
            kernel=cfg.kernel,
            threshold=_threshold(cfg),
            slots=np.full(len(v), -1),
        )

    def store(self, j: np.ndarray, summaries: np.ndarray) -> None:
        """Give the rows at responses ``j`` (-1: none) new slots holding ``summaries`` while the budget lasts."""
        new = np.flatnonzero(j >= 0)
        if not len(new):
            return
        if not self.used:  # an anonymous mapping: unwritten slots take no memory, whatever the allocator's state
            cap, width = min(len(self.v), _CHUNK_CELLS // summaries.shape[1]), summaries.shape[1]
            self.memo = np.frombuffer(mmap.mmap(-1, 8 * width * max(cap, 1))).reshape(-1, width)[:cap]
        new = new[: len(self.memo) - self.used]
        self.slots[j[new]] = np.arange(self.used, self.used + len(new))
        self.memo[self.used : self.used + len(new)] = summaries[new]
        self.used += len(new)


def _threshold(cfg: KernelConfig) -> Optional[float]:
    return None if cfg.min_weight_sum is None else cfg.min_weight_sum / _MASS[cfg.kernel]


def _mass_ok(sum_w: np.ndarray, max_w: np.ndarray, threshold: Optional[float]) -> np.ndarray:
    limit = _DEFAULT_MASS_MULTIPLE * max_w if threshold is None else threshold
    return (max_w > 0) & (sum_w >= limit) & np.isfinite(sum_w)


def _crossings(cw: np.ndarray, rows: np.ndarray, target: np.ndarray, n: int) -> np.ndarray:
    """Per pair, the first index with ``cw[rows, :n] >= target`` (n if none) on nondecreasing rows of C-contiguous
    ``cw``: one left searchsorted when all pairs share a row, else a bisection counting the entries below target.
    """
    if (rows == rows[0]).all():  # step one's row at y0, cond_quantile
        return np.searchsorted(cw[rows[0], :n], target)
    flat, off = cw.ravel(), rows * cw.shape[1] - 1  # flat[off + k] is the k-th entry of the pair's row
    idx = np.zeros(len(target), np.intp)
    for step in (1 << k for k in reversed(range(n.bit_length()))):
        probe = np.minimum(idx + step, n)
        idx = np.where(flat[off + probe] < target, probe, idx)
    return idx


def _gamma(n: int) -> float:
    """Bound on the relative rounding error of a sum of nonnegative terms by n additions."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _two_level(prep: _QuantilePrep, summaries: np.ndarray, rows: np.ndarray, points: np.ndarray,
               levels: np.ndarray) -> np.ndarray:
    """Certified crossings of ``levels * sum_w`` on the weight rows at ``points``, summarized by ``summaries[rows]``.

    Each target is bisected to the first ``_SCAN_BLOCK``-column block whose computed prefix reaches
    it, and that block's weights, evaluated here with the bits they have in any array, are summed on
    from the prefix before it. The crossing found there is kept only when the computed cumulative
    weights on both sides of it lie farther from the target than the margin derived in
    _quantile_batch; -1 marks every other pair.
    """
    m, B = len(prep.x), _SCAN_BLOCK
    starts, sum_w = np.arange(0, m, B), summaries[rows, -2]
    target, margin = levels * sum_w, 2 * (_gamma(m) + _gamma(2 * B + len(starts))) * sum_w
    block = np.minimum(_crossings(summaries, rows, target, len(starts)), len(starts) - 1)  # past the last: rejected
    seg = np.empty((len(rows), B + 1))
    seg[:, 0] = np.where(block > 0, summaries[rows, block - 1], 0.0)
    # a partial last block reads its row's last weight again; the length check below rejects those columns
    cols = np.minimum(starts[block, None] + np.arange(B), m - 1)
    seg[:, 1:] = _kernel(np.subtract(prep.x[cols], points[:, None]), prep.bandwidth, prep.kernel)
    cw = np.cumsum(seg, axis=1)  # cw[:, k] sums the block's first k weights onto its prefix
    k = (cw[:, 1:] < target[:, None]).sum(axis=1)  # nondecreasing, so the first entry >= target
    pick = np.arange(len(rows))
    below, above = cw[pick, k], cw[pick, np.minimum(k + 1, B)]
    certified = (k < np.minimum(B, m - starts[block])) & (target - below > margin) & (above - target > margin)
    return np.where(certified, starts[block] + k, -1)


def _quantile_batch(prep: _QuantilePrep, ys: np.ndarray, alphas: np.ndarray, keep: bool = False):
    """Weighted quantiles for paired (conditioning point, level) arrays, one weight row per distinct point.

    Returns (values, ok, sum_w) per pair: the quantile, NaN where the mass rule fails (ok False), and
    its row's weight total, the last of the block sums' cumsum below. The quantile is the response at
    the first index of the row's sequential cumsum ``cw`` with ``cw >= alpha * sum_w``, clamped.

    A row with few pairs takes no full cumsum. A cumsum of nonnegative weights never decreases,
    so any index i with ``cw[i-1] < target <= cw[i]`` (``cw[-1]`` read as 0) is that first index.
    Block sums over ``_SCAN_BLOCK`` (B) columns, their cumsum over the nb blocks and a cumsum within
    the target's block give each cumulative weight within ``gamma(2B + nb) * S`` of the exact
    prefix sum, S the exact row total, and the sequential cumsum lies within ``gamma(m) * S`` of it.
    ``sum_w`` lies within ``gamma(B + nb) * S`` of S, so ``2 (gamma(m) + gamma(2B + nb)) * sum_w``
    exceeds both bounds together, with room for its own rounding and the comparison's. Where both
    two-level sums around the target lie farther from it than that margin, the sequential cumsum
    lies on the same sides of the target, so the two-level index is the sequential one. Every other
    pair (a level on a cumulative-weight knot, a target within the margin of the total, where the clamp
    can act) takes its row's exact cumsum and a bisection, as does every pair of a row whose pair count
    times B exceeds m, for which one exact cumsum is cheaper. That rule keeps step one's single row at
    y0 on the exact scan, and bounds the target-block weights evaluated by about the row's own cells.

    With ``keep``, a row evaluated at a response leaves its summary (the cumsum of its nb block sums,
    then its maximum) in a ``prep.memo`` slot while ``_CHUNK_CELLS`` cells last. A later row with a
    slot and few pairs reads them there and evaluates only its pairs' target blocks; its sums and
    cells are the same bits in any block or array. Uncertified pairs take the full row and exact scan.
    """
    distinct, inverse = np.unique(ys, return_inverse=True)
    m, n, B = len(prep.x), len(distinct), _SCAN_BLOCK
    sum_w, good, idx = np.empty(n), np.zeros(n, bool), np.full(len(ys), -1)  # rows' sums and mass rule, pairs' indices
    few = np.bincount(inverse, minlength=n) * B <= m
    point = np.minimum(np.searchsorted(prep.v, distinct), m - 1)
    point = np.where(prep.v[point] == distinct, point, -1)  # each point's index among the responses
    slot = np.where(point >= 0, prep.slots[point], -1)
    served = few & (slot >= 0)
    full = ~served  # the rows evaluated in full
    if served.any():
        sum_w[served] = prep.memo[slot[served], -2]
        good[served] = _mass_ok(sum_w[served], prep.memo[slot[served], -1], prep.threshold)
        at = np.flatnonzero((served & good)[inverse])
        for lo in range(0, len(at), _CHUNK_CELLS // B + 1):  # (pairs, B) arrays within the budget
            a = at[lo : lo + _CHUNK_CELLS // B + 1]
            idx[a] = _two_level(prep, prep.memo, slot[inverse[a]], distinct[inverse[a]], alphas[a])
        full[inverse[at[idx[at] < 0]]] = True
    pos = np.where(full, np.cumsum(full) - 1, -1)[inverse]  # each pair's row among them
    starts = np.arange(0, m, B)
    for lo, hi, w in _weight_blocks(prep.x, distinct[full], prep.bandwidth, prep.kernel):
        block, summary = np.flatnonzero(full)[lo:hi], np.empty((hi - lo, len(starts) + 1))
        np.cumsum(np.add.reduceat(w, starts, axis=1), axis=1, out=summary[:, :-1])
        np.max(w, axis=1, out=summary[:, -1])
        sum_w[block], good[block] = summary[:, -2], _mass_ok(summary[:, -2], summary[:, -1], prep.threshold)
        if keep:
            prep.store(np.where(slot[block] < 0, point[block], -1), summary)
        at = np.flatnonzero(good[inverse] & (pos >= lo) & (pos < hi) & (idx < 0))
        r, row = inverse[at], pos[at] - lo
        search = few[r] & ~served[r]  # a served row's open pairs were searched on its slot
        if search.any():
            idx[at[search]] = _two_level(prep, summary, row[search], distinct[r[search]], alphas[at[search]])
        exact = idx[at] < 0
        if exact.any():
            scanned, p = np.unique(row[exact], return_inverse=True)
            idx[at[exact]] = _crossings(np.cumsum(w[scanned], axis=1), p, alphas[at[exact]] * sum_w[r[exact]], m)
    ok = good[inverse]
    return np.where(ok, prep.v[np.minimum(idx, m - 1)], np.nan), ok, sum_w[inverse]


def _prefix_sums(w: np.ndarray, ends) -> dict:
    """``{n: w[:, :n].sum(axis=1)}`` for prefix lengths ``ends`` of unit-stride rows, bitwise: numpy sums a row
    pairwise, ``sum(:n) = sum(:n2) + sum(n2:n)`` for n > 128, ``n2 = n//2 - (n//2) % 8``, so prefixes with one
    n2 sum that left part once."""
    groups = {}
    for n in set(ends):  # by numpy's split point; a row of at most 128 values is a group of its own
        groups.setdefault(n // 2 - n // 2 % 8 if n > 128 else -n, []).append(n)
    sums = {ns[0]: w[:, : ns[0]].sum(axis=1) for ns in groups.values() if len(ns) == 1}
    for n2, ns in groups.items():
        if len(ns) > 1:
            left, right = w[:, :n2].sum(axis=1), _prefix_sums(w[:, n2:], [n - n2 for n in ns])
            sums.update((n, left + right[n - n2]) for n in ns)
    return sums


def _nw_fit(x: np.ndarray, points: np.ndarray, bandwidth: float, kernel: str, windows):
    """NW fits at ``points`` for prefix ``windows`` of ``(n, targets)``: ``targets`` (all (n,) or all (n, q)) on
    ``x[:n]``, read as ``w[:, :n]`` of one block. Returns the fits (windows, points[, q]), and the weight sums
    and maxima (windows, points). Windows share row reductions, bitwise equal to their own: maxima extend over
    the extra columns, and sums share their left parts (_prefix_sums)."""
    shape = (len(windows), len(points))
    fits, sum_w, max_w = np.empty(shape + windows[0][1].shape[1:]), np.empty(shape), np.empty(shape)
    ends = sorted({n for n, _ in windows})
    for lo, hi, w in _weight_blocks(x, points, bandwidth, kernel):
        sums = _prefix_sums(w, ends)
        tops = dict(zip(ends, np.maximum.accumulate([w[:, a:b].max(axis=1) for a, b in zip([0] + ends, ends)])))
        for i, (n, targets) in enumerate(windows):
            sum_w[i, lo:hi], max_w[i, lo:hi] = sums[n], tops[n]
            np.matmul(w[:, :n], targets, out=fits[i, lo:hi])
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(fits.T, sum_w.T, out=fits.T)
    return fits, sum_w, max_w


def _nw_lags(series: TimeSeries, cfg: KernelConfig, points: np.ndarray, lags: Sequence[int],
             bandwidth: Optional[float] = None):
    """Nadaraya-Watson estimates of E[y_{t+L} | y_t = p] at many points for ascending lags L.

    Each weight block is evaluated once, on the shortest lag's regressors ``y[:T-lags[0]]``,
    and lag L reads its prefix ``w[:, :T-L]``, so every lag shares one bandwidth: ``bandwidth``,
    or the rule of ``cfg`` on those regressors. Returns (len(lags), points) values (NaN where
    the mass rule fails), mass flags and weight sums, and the bandwidth.
    """
    y, T = series.y, series.T
    if T <= lags[-1] + 2:
        raise ValueError(f"series too short (T={T}) for lag {lags[-1]}")
    x = y[: T - lags[0]]
    b = _resolve_bandwidth(cfg, x) if bandwidth is None else bandwidth
    windows = [(T - lag, y[lag:]) for lag in lags]
    distinct, inverse = np.unique(points, return_inverse=True)  # fit each distinct point once
    values, sum_w, max_w = (a[:, inverse] for a in _nw_fit(x, distinct, b, cfg.kernel, windows))
    ok = _mass_ok(sum_w, max_w, _threshold(cfg))
    values[~ok] = np.nan
    return values, ok, sum_w, b


# ---------------------------------------------------------------------------
# public single-point operations
# ---------------------------------------------------------------------------

def _kernel_mass(ok: bool, sum_w: float, y: float, kernel: str) -> float:
    """The kernel mass of weights summing to ``sum_w`` at y; InsufficientLocalData unless ``ok``."""
    mass = float(sum_w) * _MASS[kernel]
    if not ok:
        raise InsufficientLocalData(f"kernel mass {mass:.3g} at y={y:.6g} is below the local-data threshold")
    return mass


def cond_cdf(
    series: TimeSeries, z: float, y: float, cfg: KernelConfig = KernelConfig()
) -> ConditionalEstimate:
    """Kernel estimate of P[y_t < z | y_{t-1} = y].

    Weighted share of responses below z; exactly 0 (resp. 1) in the far
    left (right) tail of z, and nondecreasing in z for fixed data.
    """
    _number("z", z)  # +-inf stay legal and give exactly 0 or 1
    _number("y", y)  # +-inf stay legal and have no local data
    _a_series("series", series)
    _a_config("cfg", cfg)
    prep = _QuantilePrep.from_series(series, cfg)
    w = next(_weight_blocks(prep.x, np.array([y], dtype=float), prep.bandwidth, prep.kernel))[2][0]
    max_w = float(w.max())
    cw = np.cumsum(w, out=w)
    sum_w = float(cw[-1])
    mass = _kernel_mass(_mass_ok(np.array(sum_w), np.array(max_w), prep.threshold), sum_w, y, prep.kernel)
    # count strictly smaller responses on the cumulative scale: bounds in
    # [0, 1] and monotonicity in z then hold exactly, not just in theory
    idx = int(np.searchsorted(prep.v, z, side="left"))
    value = 0.0 if idx == 0 else float(cw[idx - 1] / sum_w)
    return ConditionalEstimate(value=value, effective_weight=mass, bandwidth_used=prep.bandwidth)


def cond_quantile(
    series: TimeSeries, alpha: float, y: float, cfg: KernelConfig = KernelConfig()
) -> ConditionalEstimate:
    """Kernel-weighted conditional quantile of y_t given y_{t-1} = y.

    Exact minimizer of the kernel-weighted check loss: responses are
    scanned in ascending order and the first whose cumulative normalized
    weight reaches alpha is returned (first index on ties).
    """
    _level("alpha", alpha)
    _number("y", y)
    _a_series("series", series)
    _a_config("cfg", cfg)
    prep = _QuantilePrep.from_series(series, cfg)
    (value,), (good,), (sum_w,) = _quantile_batch(prep, np.array([y], dtype=float), np.array([alpha], dtype=float))
    mass = _kernel_mass(good, sum_w, y, prep.kernel)
    return ConditionalEstimate(value=float(value), effective_weight=mass, bandwidth_used=prep.bandwidth)


def g_hat(
    series: TimeSeries, y: float, eps: float, cfg: KernelConfig = KernelConfig()
) -> float:
    """Estimated nonlinear AR map: the conditional Phi(eps)-quantile at y.

    Shocks beyond +-6 are clamped (with a ClampedShockWarning) so the
    Gaussian rank stays numerically inside (0, 1). Nondecreasing in eps
    for fixed y and data.
    """
    _finite("eps", eps)
    _a_series("series", series)
    _a_config("cfg", cfg)
    if abs(eps) > EPS_CLAMP:
        warnings.warn(
            f"shock {eps:.3g} clamped to [-{EPS_CLAMP:.0f}, {EPS_CLAMP:.0f}]",
            ClampedShockWarning,
            stacklevel=2,
        )
        eps = math.copysign(EPS_CLAMP, eps)
    return cond_quantile(series, float(_ndtr(eps)), y, cfg).value


def nadaraya_watson(
    series: TimeSeries, h: int, y: float, cfg: KernelConfig = KernelConfig()
) -> ConditionalEstimate:
    """Nadaraya-Watson estimate of the h-step prediction E[y_{t+h} | y_t = y], bandwidth from y[:T-h]."""
    _integer("h", h, 1)
    _number("y", y)
    _a_series("series", series)
    _a_config("cfg", cfg)
    values, ok, weights, b = _nw_lags(series, cfg, np.array([float(y)]), [h])
    mass = _kernel_mass(ok.item(), weights.item(), y, cfg.kernel)
    return ConditionalEstimate(value=values.item(), effective_weight=mass, bandwidth_used=b)
