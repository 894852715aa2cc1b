"""Kernel estimators for conditional law of a univariate Markov series.

Provides the kernel density, conditional CDF, conditional quantile and
Nadaraya-Watson regression estimators, plus the estimated nonlinear
autoregressive map ``g_hat(y, eps) = Q_hat(Phi(eps) | y)`` obtained by
inverting the estimated conditional distribution at a Gaussian rank.
Every weight comes from one chunked primitive that evaluates (points x T)
kernel blocks in place, in a buffer allocated per call and bounded by
``_CHUNK_CELLS`` cells, so concurrent calls share no scratch memory.

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
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import ndtr

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

_CHUNK_CELLS = 4_000_000  # max weight-matrix cells held at once


class InsufficientLocalData(ValueError):
    """Raised when the kernel mass near the conditioning point is too thin."""


class ClampedShockWarning(UserWarning):
    """Emitted when a shock is clamped to the invertible range [-6, 6]."""


_KERNELS = ("gaussian", "epanechnikov")


def _weight_blocks(x: np.ndarray, points: np.ndarray, bandwidth: float, kernel: str):
    """Yield ``(lo, hi, w)`` with ``w[i, j] = K((x[j] - points[lo + i]) / bandwidth)``.

    Blocks of at most ``_CHUNK_CELLS`` cells are evaluated in place into one buffer per call,
    which the next block overwrites, in the operation order of the plain kernel formulas.
    """
    m, n = len(x), len(points)
    chunk = max(1, min(n, max(16, _CHUNK_CELLS // m)))
    buf = np.empty((chunk, m))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        w = buf[: hi - lo]
        np.subtract(x[None, :], points[lo:hi, None], out=w)
        np.divide(w, bandwidth, out=w)
        np.multiply(w, w, out=w)
        if kernel == "gaussian":
            np.multiply(w, -0.5, out=w)
            np.exp(w, out=w)
            np.divide(w, math.sqrt(2 * math.pi), out=w)
        else:
            # 1 - u u < 0 exactly when |u| > 1; fmax also maps NaN to 0 like where
            np.subtract(1.0, w, out=w)
            np.multiply(w, 0.75, out=w)
            np.fmax(w, 0.0, out=w)
        yield lo, hi, w


def _weights_at(x: np.ndarray, point: float, bandwidth: float, kernel: str) -> np.ndarray:
    """Kernel weights of one conditioning point against all of ``x``."""
    return next(_weight_blocks(x, np.array([point], dtype=float), bandwidth, kernel))[2][0]


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
        if self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}, expected one of {sorted(_KERNELS)}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "silverman":
                raise ValueError(f"unknown bandwidth rule {self.bandwidth!r}")
        elif self.bandwidth is True or not (isinstance(self.bandwidth, (int, float)) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth!r}")
        if self.min_weight_sum is not None and not self.min_weight_sum > 0:
            raise ValueError("min_weight_sum must be positive when given")

    def to_json_obj(self) -> dict:
        return {
            "kernel": self.kernel,
            "bandwidth": self.bandwidth,
            "min_weight_sum": self.min_weight_sum,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "KernelConfig":
        extra = set(obj) - {"kernel", "bandwidth", "min_weight_sum"}
        if extra:
            raise ValueError(f"unknown kernel config keys: {sorted(extra)}")
        return cls(**obj)


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
    x = np.asarray(data, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 observations for a bandwidth")
    sd = float(np.std(x, ddof=1))
    if sd == 0.0:
        raise ValueError("data is constant; bandwidth undefined")
    return 1.06 * sd * x.size ** (-0.2)


def _resolve_bandwidth(cfg: KernelConfig, conditioning: np.ndarray) -> float:
    if cfg.bandwidth == "silverman":
        return silverman_bandwidth(conditioning)
    return float(cfg.bandwidth)


def kde(data: Sequence[float], at: float, cfg: KernelConfig = KernelConfig()) -> float:
    """Kernel density estimate (1/(T*b)) * sum K((y_t - at)/b) at a point."""
    x = np.asarray(data, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    if math.isnan(at):  # +-inf stay legal and give a zero density
        raise ValueError("at must not be NaN")
    b = _resolve_bandwidth(cfg, x)
    return float(np.sum(_weights_at(x, at, b, cfg.kernel)) / (x.size * b))


# ---------------------------------------------------------------------------
# batch machinery shared with the IRF engine
# ---------------------------------------------------------------------------

@dataclass
class _QuantilePrep:
    """Series preprocessed for conditional-quantile inversion.

    ``x`` are conditioning values and ``v`` the responses, jointly sorted
    by response (stable), so a weighted quantile is a cumulative-weight
    scan.
    """

    x: np.ndarray
    v: np.ndarray
    bandwidth: float
    kernel: str
    min_weight_sum: Optional[float]

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
            min_weight_sum=cfg.min_weight_sum,
        )


def _mass_ok(sum_w: np.ndarray, max_w: np.ndarray, threshold: Optional[float]) -> np.ndarray:
    limit = _DEFAULT_MASS_MULTIPLE * max_w if threshold is None else threshold
    return (max_w > 0) & (sum_w >= limit) & np.isfinite(sum_w)


def _quantile_at_point(prep: _QuantilePrep, y0: float, alphas: np.ndarray):
    """Weighted quantiles at one conditioning point for many levels.

    Returns (values, ok, sum_w); when the local mass check fails, ok is
    False and values are NaN.
    """
    w = _weights_at(prep.x, y0, prep.bandwidth, prep.kernel)
    sum_w, max_w = float(w.sum()), float(w.max())
    if not _mass_ok(np.array(sum_w), np.array(max_w), prep.min_weight_sum):
        return np.full(len(alphas), np.nan), np.zeros(len(alphas), bool), sum_w
    cw = np.cumsum(w, out=w)
    idx = np.searchsorted(cw, np.asarray(alphas) * sum_w, side="left")
    idx = np.minimum(idx, len(cw) - 1)
    return prep.v[idx], np.ones(len(alphas), bool), sum_w


def _quantile_batch(prep: _QuantilePrep, ys: np.ndarray, alphas: np.ndarray):
    """Weighted quantiles for paired (conditioning point, level) arrays."""
    values = np.full(len(ys), np.nan)
    ok = np.zeros(len(ys), bool)
    for lo, hi, w in _weight_blocks(prep.x, ys, prep.bandwidth, prep.kernel):
        # pairwise row sums for the mass rule, then the scan in place
        sum_w = w.sum(axis=1)
        good = _mass_ok(sum_w, w.max(axis=1), prep.min_weight_sum)
        cw = np.cumsum(w, axis=1, out=w)
        ge = cw >= (alphas[lo:hi] * sum_w)[:, None]
        idx = ge.argmax(axis=1)
        idx[~ge[:, -1]] = len(prep.x) - 1
        vals = prep.v[idx]
        vals[~good] = np.nan
        values[lo:hi] = vals
        ok[lo:hi] = good
    return values, ok


def _prefix_sums(w: np.ndarray, ends) -> dict:
    """``{n: w[:, :n].sum(axis=1)}`` for prefix lengths ``ends`` of unit-stride rows, bitwise; see _nw_fit."""
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
    """NW fits at ``points`` for ``windows`` of ``(columns, targets)``: ``targets`` on ``x[columns]``.

    Each weight block is evaluated once on all of ``x`` and window i reads its column slice
    ``w[:, columns]``. The targets are all (m_i,) or all (m_i, q). Returns the fits
    (windows, points) or (windows, points, q), and the weight sums and maxima (windows, points).
    Prefix windows ``w[:, :n]`` share row reductions, bitwise equal to their own: maxima extend over
    the extra columns, and sums follow numpy's pairwise rule ``sum(:n) = sum(:n2) + sum(n2:n)`` for
    n > 128, ``n2 = n//2 - (n//2) % 8``, so prefixes with one n2 sum that left part once.
    """
    shape = (len(windows), len(points))
    fits = np.empty(shape + windows[0][1].shape[1:])
    sum_w, max_w = np.empty(shape), np.empty(shape)
    spans = [columns.indices(len(x)) for columns, _ in windows]
    prefix = {i: stop for i, (start, stop, step) in enumerate(spans) if (start, step) == (0, 1)}
    ends = sorted(set(prefix.values()))
    for lo, hi, w in _weight_blocks(x, points, bandwidth, kernel):
        sums = _prefix_sums(w, ends)
        extra = [w[:, a:b].max(axis=1) for a, b in zip([0] + ends, ends)]  # over each prefix's new columns
        tops = dict(zip(ends, np.maximum.accumulate(extra)))
        for i, (columns, targets) in enumerate(windows):
            wi = w[:, columns]
            sum_w[i, lo:hi] = sums[prefix[i]] if i in prefix else wi.sum(axis=1)
            max_w[i, lo:hi] = tops[prefix[i]] if i in prefix else wi.max(axis=1)
            np.matmul(wi, targets, out=fits[i, lo:hi])
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
    if lags[0] < 1:
        raise ValueError("lag must be >= 1 (lag 0 is the identity, handled by callers)")
    if T <= lags[-1] + 2:
        raise ValueError(f"series too short (T={T}) for lag {lags[-1]}")
    x = y[: T - lags[0]]
    b = _resolve_bandwidth(cfg, x) if bandwidth is None else bandwidth
    windows = [(slice(None, T - lag), y[lag:]) for lag in lags]
    values, sum_w, max_w = _nw_fit(x, points, b, cfg.kernel, windows)
    ok = _mass_ok(sum_w, max_w, cfg.min_weight_sum)
    values[~ok] = np.nan
    return values, ok, sum_w, b


# ---------------------------------------------------------------------------
# public single-point operations
# ---------------------------------------------------------------------------

def cond_cdf(
    series: TimeSeries, z: float, y: float, cfg: KernelConfig = KernelConfig()
) -> ConditionalEstimate:
    """Kernel estimate of P[y_t < z | y_{t-1} = y].

    Weighted share of responses below z; exactly 0 (resp. 1) in the far
    left (right) tail of z, and nondecreasing in z for fixed data.
    """
    if math.isnan(z):  # +-inf stay legal and give exactly 0 or 1
        raise ValueError("z must not be NaN")
    if math.isnan(y):  # +-inf stay legal and have no local data
        raise ValueError("y must not be NaN")
    prep = _QuantilePrep.from_series(series, cfg)
    w = _weights_at(prep.x, y, prep.bandwidth, prep.kernel)
    max_w = float(w.max())
    cw = np.cumsum(w, out=w)
    sum_w = float(cw[-1])
    if not _mass_ok(np.array(sum_w), np.array(max_w), cfg.min_weight_sum):
        raise InsufficientLocalData(
            f"kernel mass {sum_w:.3g} at y={y:.6g} is below the local-data threshold"
        )
    # count strictly smaller responses on the cumulative scale: bounds in
    # [0, 1] and monotonicity in z then hold exactly, not just in theory
    idx = int(np.searchsorted(prep.v, z, side="left"))
    value = 0.0 if idx == 0 else float(cw[idx - 1] / sum_w)
    return ConditionalEstimate(value=value, effective_weight=sum_w, bandwidth_used=prep.bandwidth)


def cond_quantile(
    series: TimeSeries, alpha: float, y: float, cfg: KernelConfig = KernelConfig()
) -> ConditionalEstimate:
    """Kernel-weighted conditional quantile of y_t given y_{t-1} = y.

    Exact minimizer of the kernel-weighted check loss: responses are
    scanned in ascending order and the first whose cumulative normalized
    weight reaches alpha is returned (first index on ties).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if math.isnan(y):
        raise ValueError("y must not be NaN")
    prep = _QuantilePrep.from_series(series, cfg)
    vals, ok, sum_w = _quantile_at_point(prep, y, np.array([alpha]))
    if not ok[0]:
        raise InsufficientLocalData(
            f"kernel mass {sum_w:.3g} at y={y:.6g} is below the local-data threshold"
        )
    return ConditionalEstimate(value=float(vals[0]), effective_weight=sum_w, bandwidth_used=prep.bandwidth)


def g_hat(
    series: TimeSeries, y: float, eps: float, cfg: KernelConfig = KernelConfig()
) -> float:
    """Estimated nonlinear AR map: the conditional Phi(eps)-quantile at y.

    Shocks beyond +-6 are clamped (with a ClampedShockWarning) so the
    Gaussian rank stays numerically inside (0, 1). Nondecreasing in eps
    for fixed y and data.
    """
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    if abs(eps) > EPS_CLAMP:
        warnings.warn(
            f"shock {eps:.3g} clamped to [-{EPS_CLAMP:.0f}, {EPS_CLAMP:.0f}]",
            ClampedShockWarning,
            stacklevel=2,
        )
        eps = math.copysign(EPS_CLAMP, eps)
    return cond_quantile(series, float(ndtr(eps)), y, cfg).value


def nadaraya_watson(
    series: TimeSeries, h: int, y: float, cfg: KernelConfig = KernelConfig()
) -> ConditionalEstimate:
    """Nadaraya-Watson estimate of the h-step prediction E[y_{t+h} | y_t = y], bandwidth from y[:T-h]."""
    if isinstance(h, bool) or not isinstance(h, (int, np.integer)):  # numpy integers pass
        raise ValueError(f"h must be an integer, got {h!r}")
    if math.isnan(y):
        raise ValueError("y must not be NaN")
    values, ok, weights, b = _nw_lags(series, cfg, np.array([float(y)]), [h])
    if not ok.item():
        raise InsufficientLocalData(
            f"kernel mass {weights.item():.3g} at y={y:.6g} is below the local-data threshold"
        )
    return ConditionalEstimate(value=values.item(), effective_weight=weights.item(), bandwidth_used=b)
