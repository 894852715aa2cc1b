"""Impulse response estimation for univariate Markov series.

Two nonparametric routes estimate IRF(h, delta) = E[y_{t+h}^(delta) -
y_{t+h} | y_t = y0]:

* direct: simulate S paired paths through the estimated one-step map
  (conditional-quantile inversion at Gaussian ranks), where the shocked
  path adds delta to the first innovation only, and average the paired
  differences per horizon;
* local projection: simulate one step, then difference the estimated
  (h-1)-step conditional-mean predictions of the paired step-one states.
  Every horizon conditions on the same y_t, as in Jordà (2005), so one
  bandwidth and one kernel-weight evaluation serve all lags.

Both routes produce one PathSimulation of paired outcomes, and every
response and the Hermite decomposition reduce it. The paths share
innovations (common random numbers), so a zero shock gives an exactly zero
curve, and the routes coincide bitwise at horizon one, where the local
projection applies the identity prediction to the very same simulated
states. An outcome that leaves the estimable region (kernel mass below
threshold) is NaN, and its replication is rejected at that horizon rather
than extrapolated; estimation aborts when more than 10% of replications
are rejected at some horizon.

Closed-form linear-VAR responses and the identifiable maximal response
over unit-norm shocks are also provided for multivariate diagnostics.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, List, Union

import numpy as np
from scipy.special import ndtr

from .hermite import DEFAULT_J, HermiteDecomposition, decompose_irf
from .kernels import (
    EPS_CLAMP,
    InsufficientLocalData,
    KernelConfig,
    _nw_lags,
    _QuantilePrep,
    _quantile_at_point,
    _quantile_batch,
)
from .models import IrfCurve, TimeSeries, VarParams

__all__ = [
    "IrfRequest",
    "PathSimulation",
    "Indicator",
    "QuantileLevel",
    "MaxIrfResult",
    "simulate_paths",
    "irf_direct",
    "irf_lp",
    "irf_transformed",
    "irf_dynamic",
    "irf_joint",
    "var_irf",
    "var_max_irf",
    "decompose_direct_irf",
    "decompose_lp_irf",
]

MAX_REJECT_FRACTION = 0.10


@dataclass(frozen=True)
class IrfRequest:
    """What to estimate: conditioning state, horizons 1..H, shock, and budget."""

    y0: float
    horizons: int
    delta: float
    S: int = 10_000
    cfg: KernelConfig = field(default_factory=KernelConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.y0):
            raise ValueError("y0 must be finite")
        for name in ("horizons", "S"):  # numpy integers pass, bools and floats do not
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")


@dataclass
class PathSimulation:
    """Paired (baseline, shocked) outcomes of S replications at horizons 1..H, from either route.

    ``base[s, h-1]`` and ``shock[s, h-1]`` are the horizon-h outcomes of replication s, NaN
    exactly where it has left the estimable region; ``valid`` marks the pairs with both.
    ``eps1`` holds the step-one innovations shared by both paths before the shock, ``clamped``
    counts the clamped step-one shocks, and ``bandwidth`` is the kernel bandwidth.
    """

    base: np.ndarray
    shock: np.ndarray
    eps1: np.ndarray
    clamped: int
    bandwidth: float

    @property
    def S(self) -> int:
        return self.base.shape[0]

    @property
    def H(self) -> int:
        return self.base.shape[1]

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.base) & np.isfinite(self.shock)


def _rank(eps: np.ndarray) -> np.ndarray:
    """Gaussian rank of a shock, clamped so it stays inside (0, 1)."""
    return ndtr(np.clip(eps, -EPS_CLAMP, EPS_CLAMP))


def _check_rejections(rejected: np.ndarray, S: int) -> None:
    worst = int(rejected.max(initial=0))
    if worst > MAX_REJECT_FRACTION * S:
        h = int(np.argmax(rejected)) + 1
        raise InsufficientLocalData(
            f"{worst} of {S} replications ({worst / S:.0%}) left the estimable "
            f"region by horizon {h}; refusing to extrapolate"
        )


def _simulate_step1(series: TimeSeries, req: IrfRequest):
    """Step-one states for both paths, from weights computed once at y0."""
    prep = _QuantilePrep.from_series(series, req.cfg)
    rng = np.random.default_rng(req.seed)
    eps1 = rng.standard_normal(req.S)
    clamped = int(np.sum(np.abs(eps1) > EPS_CLAMP) + np.sum(np.abs(eps1 + req.delta) > EPS_CLAMP))
    alphas = np.concatenate([_rank(eps1), _rank(eps1 + req.delta)])
    vals, ok, _ = _quantile_at_point(prep, req.y0, alphas)
    if not ok.all():
        raise InsufficientLocalData(
            f"conditioning state y0={req.y0:.6g} has insufficient kernel mass"
        )
    return prep, rng, eps1, vals[: req.S], vals[req.S :], clamped


def simulate_paths(series: TimeSeries, req: IrfRequest) -> PathSimulation:
    """Simulate S paired (baseline, shocked) paths of length H through g_hat."""
    prep, rng, eps1, base1, shock1, clamped = _simulate_step1(series, req)
    S, H = req.S, req.horizons
    base = np.full((S, H), np.nan)
    shock = np.full((S, H), np.nan)
    base[:, 0] = base1
    shock[:, 0] = shock1

    for k in range(1, H):
        eps_k = rng.standard_normal(S)
        idx = np.flatnonzero(np.isfinite(base[:, k - 1]))  # a pair leaves together, so base alone tells
        points = np.concatenate([base[idx, k - 1], shock[idx, k - 1]])
        alphas = np.tile(_rank(eps_k[idx]), 2)
        vals, ok = _quantile_batch(prep, points, alphas)
        ok_pair = ok[: idx.size] & ok[idx.size :]
        good = idx[ok_pair]
        base[good, k] = vals[: idx.size][ok_pair]
        shock[good, k] = vals[idx.size :][ok_pair]

    return PathSimulation(base, shock, eps1, clamped, prep.bandwidth)


def _lp_paths(series: TimeSeries, req: IrfRequest, paired: bool = True) -> PathSimulation:
    """The local projection's outcomes: the step-one states, then their (h-1)-step predictions.

    The baseline states are fitted, then the shocked ones if ``paired``; otherwise ``shock``
    is ``base``. A prediction that fails the mass rule is NaN.
    """
    if series.T <= req.horizons + 1:  # checked before simulating: lag H-1 needs T >= H + 2
        raise ValueError(f"series too short (T={series.T}) for {req.horizons} horizons")
    prep, _, eps1, base1, shock1, clamped = _simulate_step1(series, req)
    points = np.concatenate([base1, shock1]) if paired else base1
    vals = np.empty((req.horizons, len(points)))
    vals[0] = points
    if req.horizons > 1:
        vals[1:] = _nw_lags(series, req.cfg, points, range(1, req.horizons), prep.bandwidth)[0]
    base = vals[:, : req.S].T
    return PathSimulation(base, vals[:, req.S :].T if paired else base, eps1, clamped, prep.bandwidth)


def _reduce(sim: PathSimulation, req: IrfRequest, route: str, stat, **meta) -> IrfCurve:
    """The curve of ``stat(mask, h) -> (value, mc_se)`` over each horizon's valid replications.

    Too many rejected replications at any horizon abort before a statistic is computed.
    """
    valid = sim.valid
    rejected = sim.S - valid.sum(axis=0)
    _check_rejections(rejected, sim.S)
    values, se = map(np.array, zip(*(stat(valid[:, h], h) for h in range(sim.H))))
    return IrfCurve(
        horizons=np.arange(1, sim.H + 1),
        values=values,
        mc_se=se,
        route=route,
        meta={"y0": req.y0, "delta": req.delta, "S": req.S, "seed": req.seed, "rejected": rejected.tolist(),
              "bandwidth": sim.bandwidth, **meta},
    )


def _mean(diffs: np.ndarray):
    """The statistic of a mean paired difference and its Monte Carlo standard error."""
    def stat(mask: np.ndarray, h: int):
        d = diffs[mask, h]
        se = float(np.std(d, ddof=1) / math.sqrt(d.size)) if d.size > 1 else 0.0
        return float(np.mean(d)), se

    return stat


def irf_direct(series: TimeSeries, req: IrfRequest) -> IrfCurve:
    """Direct-simulation IRF: mean paired path difference per horizon."""
    sim = simulate_paths(series, req)
    return _reduce(sim, req, "direct", _mean(sim.shock - sim.base))


def irf_lp(series: TimeSeries, req: IrfRequest) -> IrfCurve:
    """Local-projection IRF: difference of (h-1)-step predictions of step-one states.

    Every lag is fitted with the step-one bandwidth (Silverman's rule on
    y[:-1] by default), so one kernel-weight evaluation serves all horizons.
    Horizon one applies the identity prediction, which makes it coincide
    bitwise with the direct route under a shared seed.
    """
    sim = _lp_paths(series, req)
    return _reduce(sim, req, "local_projection", _mean(sim.shock - sim.base))


# ---------------------------------------------------------------------------
# transformed, dynamic and joint responses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Indicator:
    """Transform a(u) = 1{u < threshold}: difference of predictive CDFs."""

    threshold: float


@dataclass(frozen=True)
class QuantileLevel:
    """Compare predictive distributions through their level-alpha quantiles."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("quantile level must be in (0, 1)")


Transform = Union[Indicator, QuantileLevel, Callable[[np.ndarray], np.ndarray]]


def irf_transformed(series: TimeSeries, req: IrfRequest, transform: Transform) -> IrfCurve:
    """Response of a transformed outcome: mean of a(shocked) - a(baseline).

    With an :class:`Indicator` the values are differences of predictive
    probabilities and lie in [-1, 1]. A :class:`QuantileLevel` instead
    inverts the two simulated predictive distributions and differences
    their quantiles (standard errors then come from a replication
    bootstrap).
    """
    sim = simulate_paths(series, req)
    if isinstance(transform, QuantileLevel):
        q = transform.alpha
        boot_rng = np.random.default_rng(req.seed + 0x5EED)

        def stat(mask: np.ndarray, h: int):
            b, s = sim.base[mask, h], sim.shock[mask, h]
            value = float(np.quantile(s, q) - np.quantile(b, q))
            if b.size < 2:
                return value, 0.0
            idx = boot_rng.integers(0, b.size, size=(200, b.size))
            reps = np.quantile(s[idx], q, axis=1) - np.quantile(b[idx], q, axis=1)
            return value, float(np.std(reps, ddof=1))

        return _reduce(sim, req, "transformed", stat, transform=f"quantile_level({q})")

    if isinstance(transform, Indicator):
        thr = transform.threshold
        a = lambda u: (u < thr).astype(float)
        label = f"indicator({thr})"
    else:
        a = transform
        label = getattr(transform, "__name__", "user_function")
    diffs = np.asarray(a(sim.shock), dtype=float) - np.asarray(a(sim.base), dtype=float)
    return _reduce(sim, req, "transformed", _mean(diffs), transform=label)


def irf_dynamic(series: TimeSeries, req: IrfRequest) -> IrfCurve:
    """Response of the lag-one product y_{t+h} * y_{t+h-1} (serial-dependence shift).

    Requires H >= 2; at horizon one the lagged state is the conditioning
    value y0 itself, shared by both paths.
    """
    if req.horizons < 2:
        raise ValueError("dynamic response needs horizons >= 2")
    sim = simulate_paths(series, req)
    H = sim.H
    prev_base = np.column_stack([np.full(sim.S, req.y0), sim.base[:, : H - 1]])
    prev_shock = np.column_stack([np.full(sim.S, req.y0), sim.shock[:, : H - 1]])
    return _reduce(sim, req, "dynamic", _mean(sim.shock * prev_shock - sim.base * prev_base))


def irf_joint(series: TimeSeries, req: IrfRequest) -> IrfCurve:
    """Mean squared paired path difference per horizon; nonnegative."""
    sim = simulate_paths(series, req)
    return _reduce(sim, req, "joint", _mean((sim.shock - sim.base) ** 2))


# ---------------------------------------------------------------------------
# linear VAR closed forms
# ---------------------------------------------------------------------------

def var_irf(params: VarParams, delta, h: int) -> np.ndarray:
    """Response A^h D delta of a linear VAR, by repeated multiplication."""
    if h < 0:
        raise ValueError("horizon must be >= 0")
    d = np.asarray(delta, dtype=float)
    if d.shape != (params.n,):
        raise ValueError(f"delta must have shape ({params.n},), got {d.shape}")
    v = params.D @ d
    for _ in range(h):
        v = params.A @ v
    return v


@dataclass(frozen=True)
class MaxIrfResult:
    value: float
    delta_star: np.ndarray
    degenerate: bool


def var_max_irf(params: VarParams, a, h: int) -> MaxIrfResult:
    """Maximal response of a'y at horizon h over unit-norm shocks.

    The maximum of a'A^h D delta subject to |delta| = 1 equals
    sqrt(a' A^h D D' A'^h a), attained at delta* proportional to
    D'A'^h a; the value depends on D only through DD', hence is invariant
    to D -> DQ for orthogonal Q. A zero value (a'A^h D = 0) is returned
    flagged, with no well-defined maximizer.
    """
    av = np.asarray(a, dtype=float)
    if av.shape != (params.n,):
        raise ValueError(f"direction must have shape ({params.n},), got {av.shape}")
    if not np.any(av):
        raise ValueError("direction vector must be nonzero")
    w = av.copy()
    for _ in range(h):
        w = params.A.T @ w
    w = params.D.T @ w
    value = float(np.linalg.norm(w))
    if value == 0.0:
        return MaxIrfResult(value=0.0, delta_star=np.zeros(params.n), degenerate=True)
    return MaxIrfResult(value=value, delta_star=w / value, degenerate=False)


# ---------------------------------------------------------------------------
# decomposition pipelines
# ---------------------------------------------------------------------------

def _decomposition(sim: PathSimulation, req: IrfRequest, J: int) -> List[HermiteDecomposition]:
    """Regress each horizon's baseline outcomes on the Hermite polynomials of their step-one innovations.

    Replications are selected by the baseline outcome alone: requiring the shocked one too
    would select on eps1 and bias the fit.
    """
    kept = np.isfinite(sim.base)
    _check_rejections(sim.S - kept.sum(axis=0), sim.S)
    return [decompose_irf(sim.base[m, h - 1], sim.eps1[m], req.delta, J=J, h=h)
            for h, m in enumerate(kept.T, start=1)]


def decompose_direct_irf(series: TimeSeries, req: IrfRequest, J: int = DEFAULT_J) -> List[HermiteDecomposition]:
    """Hermite decomposition of the direct-route response, one entry per horizon."""
    return _decomposition(simulate_paths(series, req), req, J)


def decompose_lp_irf(series: TimeSeries, req: IrfRequest, J: int = DEFAULT_J) -> List[HermiteDecomposition]:
    """Hermite decomposition of the local-projection route, per horizon; fits the baseline states only."""
    return _decomposition(_lp_paths(series, req, paired=False), req, J)
