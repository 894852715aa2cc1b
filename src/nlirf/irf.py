"""Impulse response estimation for univariate Markov series.

Two nonparametric routes estimate IRF(h, delta) = E[y_{t+h}^(delta) -
y_{t+h} | y_t = y0]:

* direct: simulate S paired paths through the estimated one-step map
  (conditional-quantile inversion at Gaussian ranks), where the shocked
  path adds delta to the first innovation only, and average the paired
  differences per horizon;
* local projection: simulate one step, then difference the estimated
  (h-1)-step conditional-mean predictions of the paired step-one states.

Both routes share innovations between the shocked and baseline paths
(common random numbers), so a zero shock gives an exactly zero curve, and
they coincide bitwise at horizon one, where the local projection applies
the identity prediction to the very same simulated states.

Replications whose simulated state leaves the estimable region (kernel
mass below threshold) are rejected and counted per horizon rather than
extrapolated; estimation aborts when more than 10% of replications are
rejected at some horizon.

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

from .hermite import HermiteDecomposition, decompose_irf
from .kernels import (
    EPS_CLAMP,
    InsufficientLocalData,
    KernelConfig,
    _nw_batch,
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
    """Paired simulated paths through the estimated one-step map.

    ``base[s, k-1]`` and ``shock[s, k-1]`` are the step-k states of
    replication s (NaN once the replication has left the estimable
    region); ``steps_ok[s]`` counts the completed steps, so the
    replication contributes to horizons h <= steps_ok[s]. ``eps1`` holds
    the step-one innovations shared by both paths before the shock.
    """

    base: np.ndarray
    shock: np.ndarray
    eps1: np.ndarray
    steps_ok: np.ndarray
    clamped: int

    @property
    def S(self) -> int:
        return self.base.shape[0]

    @property
    def H(self) -> int:
        return self.base.shape[1]

    def valid_at(self, h: int) -> np.ndarray:
        return self.steps_ok >= h


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
    steps_ok = np.full(S, H, dtype=int)
    alive = np.ones(S, dtype=bool)

    for k in range(1, H):
        eps_k = rng.standard_normal(S)
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        points = np.concatenate([base[idx, k - 1], shock[idx, k - 1]])
        alphas = np.tile(_rank(eps_k[idx]), 2)
        vals, ok = _quantile_batch(prep, points, alphas)
        ok_pair = ok[: idx.size] & ok[idx.size :]
        good = idx[ok_pair]
        base[good, k] = vals[: idx.size][ok_pair]
        shock[good, k] = vals[idx.size :][ok_pair]
        died = idx[~ok_pair]
        steps_ok[died] = k
        alive[died] = False

    return PathSimulation(base=base, shock=shock, eps1=eps1, steps_ok=steps_ok, clamped=clamped)


def _reduce_paired(diffs: np.ndarray, valid: np.ndarray, req: IrfRequest, route: str) -> IrfCurve:
    """Average per-horizon paired differences over the valid replications."""
    S, H = diffs.shape
    values = np.empty(H)
    se = np.empty(H)
    rejected = np.empty(H, dtype=int)
    for h in range(H):
        mask = valid[:, h]
        n = int(mask.sum())
        rejected[h] = S - n
        d = diffs[mask, h]
        values[h] = float(np.mean(d)) if n else np.nan
        se[h] = float(np.std(d, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    _check_rejections(rejected, S)
    return IrfCurve(
        horizons=np.arange(1, H + 1),
        values=values,
        mc_se=se,
        route=route,
        meta={
            "y0": req.y0,
            "delta": req.delta,
            "S": req.S,
            "seed": req.seed,
            "rejected": rejected.tolist(),
        },
    )


def _direct_curve(sim: PathSimulation, req: IrfRequest) -> IrfCurve:
    valid = sim.steps_ok[:, None] >= np.arange(1, sim.H + 1)[None, :]
    return _reduce_paired(sim.shock - sim.base, valid, req, route="direct")


def irf_direct(series: TimeSeries, req: IrfRequest) -> IrfCurve:
    """Direct-simulation IRF: mean paired path difference per horizon."""
    return _direct_curve(simulate_paths(series, req), req)


def irf_lp(series: TimeSeries, req: IrfRequest) -> IrfCurve:
    """Local-projection IRF: difference of (h-1)-step predictions of step-one states.

    Horizon one applies the identity prediction, which makes it coincide
    bitwise with the direct route under a shared seed.
    """
    _, _, _, base1, shock1, _ = _simulate_step1(series, req)
    S, H = req.S, req.horizons
    diffs = np.empty((S, H))
    valid = np.empty((S, H), dtype=bool)
    diffs[:, 0] = shock1 - base1
    valid[:, 0] = True
    points = np.concatenate([base1, shock1])
    for h in range(2, H + 1):
        vals, ok, _, _ = _nw_batch(series, req.cfg, points, lag=h - 1)
        diffs[:, h - 1] = vals[S:] - vals[:S]
        valid[:, h - 1] = ok[:S] & ok[S:]
    return _reduce_paired(diffs, valid, req, route="local_projection")


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
    S, H = sim.S, sim.H
    valid = sim.steps_ok[:, None] >= np.arange(1, H + 1)[None, :]

    if isinstance(transform, QuantileLevel):
        values = np.empty(H)
        se = np.empty(H)
        rejected = np.empty(H, dtype=int)
        boot_rng = np.random.default_rng(req.seed + 0x5EED)
        for h in range(H):
            mask = valid[:, h]
            n = int(mask.sum())
            rejected[h] = S - n
            b, s = sim.base[mask, h], sim.shock[mask, h]
            values[h] = float(np.quantile(s, transform.alpha) - np.quantile(b, transform.alpha))
            if n > 1:
                idx = boot_rng.integers(0, n, size=(200, n))
                reps = np.quantile(s[idx], transform.alpha, axis=1) - np.quantile(
                    b[idx], transform.alpha, axis=1
                )
                se[h] = float(np.std(reps, ddof=1))
            else:
                se[h] = 0.0
        _check_rejections(rejected, S)
        return IrfCurve(
            horizons=np.arange(1, H + 1),
            values=values,
            mc_se=se,
            route="transformed",
            meta={"transform": f"quantile_level({transform.alpha})", "y0": req.y0,
                  "delta": req.delta, "S": req.S, "seed": req.seed, "rejected": rejected.tolist()},
        )

    if isinstance(transform, Indicator):
        thr = transform.threshold
        a = lambda u: (u < thr).astype(float)
        label = f"indicator({thr})"
    else:
        a = transform
        label = getattr(transform, "__name__", "user_function")
    diffs = np.asarray(a(sim.shock), dtype=float) - np.asarray(a(sim.base), dtype=float)
    with np.errstate(invalid="ignore"):
        curve = _reduce_paired(diffs, valid, req, route="transformed")
    curve.meta["transform"] = label
    return curve


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
    diffs = sim.shock * prev_shock - sim.base * prev_base
    valid = sim.steps_ok[:, None] >= np.arange(1, H + 1)[None, :]
    with np.errstate(invalid="ignore"):
        curve = _reduce_paired(diffs, valid, req, route="dynamic")
    return curve


def irf_joint(series: TimeSeries, req: IrfRequest) -> IrfCurve:
    """Mean squared paired path difference per horizon; nonnegative."""
    sim = simulate_paths(series, req)
    valid = sim.steps_ok[:, None] >= np.arange(1, sim.H + 1)[None, :]
    with np.errstate(invalid="ignore"):
        curve = _reduce_paired((sim.shock - sim.base) ** 2, valid, req, route="joint")
    return curve


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

def decompose_direct_irf(series: TimeSeries, req: IrfRequest, J: int = 5) -> List[HermiteDecomposition]:
    """Hermite decomposition of the direct-route response, one entry per horizon.

    Regresses the baseline simulated states at each horizon on the
    Hermite polynomials of the step-one innovations that generated them.
    """
    return _direct_decomposition(simulate_paths(series, req), req, J)


def _direct_decomposition(sim: PathSimulation, req: IrfRequest, J: int) -> List[HermiteDecomposition]:
    masks = [sim.valid_at(h) for h in range(1, sim.H + 1)]
    _check_rejections(np.array([sim.S - m.sum() for m in masks]), sim.S)
    return [
        decompose_irf(sim.base[m, h - 1], sim.eps1[m], req.delta, J=J, h=h)
        for h, m in enumerate(masks, start=1)
    ]


def decompose_lp_irf(series: TimeSeries, req: IrfRequest, J: int = 5) -> List[HermiteDecomposition]:
    """Hermite decomposition of the local-projection route, per horizon."""
    _, _, eps1, base1, _, _ = _simulate_step1(series, req)
    fits = [(base1, np.ones(req.S, dtype=bool))]
    fits += [_nw_batch(series, req.cfg, base1, lag=h - 1)[:2] for h in range(2, req.horizons + 1)]
    _check_rejections(np.array([req.S - ok.sum() for _, ok in fits]), req.S)
    return [
        decompose_irf(vals[ok], eps1[ok], req.delta, J=J, h=h)
        for h, (vals, ok) in enumerate(fits, start=1)
    ]
