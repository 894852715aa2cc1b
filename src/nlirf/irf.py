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
response reduces it; the Hermite decomposition reduces the baselines of a
zero-shock pair. The paths share innovations (common random numbers), so a
zero shock gives an exactly zero curve, and the routes coincide bitwise at
horizon one, where the local projection applies the identity prediction to
the very same simulated states. An outcome whose path leaves the estimable
region (kernel mass below threshold) is NaN, and its replication is
rejected at that horizon rather than extrapolated; estimation aborts when
more than 10% of replications are rejected at some horizon.

Closed-form linear-VAR responses and the identifiable maximal response
over unit-norm shocks are also provided for multivariate diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Union

import numpy as np

from ._checks import _as_reals, _finite, _instance, _integer, _level, _number
from ._normal import _ndtr
from .hermite import DEFAULT_J, HermiteDecomposition, decompose_irf
from .kernels import (EPS_CLAMP, InsufficientLocalData, KernelConfig, _a_config, _a_series, _nw_lags, _QuantilePrep,
                      _quantile_batch)
from .models import GaussianVar1, IrfCurve, TimeSeries, VarParams, true_irf

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
        for name in ("y0", "delta"):
            _finite(name, getattr(self, name))
        for name, least in (("horizons", 1), ("S", 1), ("seed", 0)):
            _integer(name, getattr(self, name), least)
        _a_config("cfg", self.cfg)


def _check_inputs(series: TimeSeries, req: IrfRequest) -> None:
    """Refuse a ``series`` that is not a TimeSeries or a ``req`` that is not an IrfRequest, before either is read."""
    _a_series("series", series)
    _instance(IrfRequest, "an IrfRequest")("req", req)


@dataclass
class PathSimulation:
    """Paired (baseline, shocked) outcomes of S replications at horizons 1..H, from either route.

    ``paths[:, s, h-1]`` holds the (baseline, shocked) horizon-h outcomes of replication s, each NaN exactly
    where its own path has left the estimable region; ``base`` and ``shock`` view the two rows, and ``valid``
    marks the pairs with both. ``eps1`` holds the step-one innovations shared by both paths before the shock,
    and ``bandwidth`` is the kernel bandwidth. A baseline does not depend on the shock, so a decomposition
    reads the baselines of a zero-shock pair, whose shocked row adds no kernel row, and ``req.delta`` only
    scales its contributions.
    """

    paths: np.ndarray
    eps1: np.ndarray
    bandwidth: float

    @property
    def base(self) -> np.ndarray:
        return self.paths[0]

    @property
    def shock(self) -> np.ndarray:
        return self.paths[1]

    @property
    def S(self) -> int:
        return self.paths.shape[1]

    @property
    def H(self) -> int:
        return self.paths.shape[2]

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.paths).all(axis=0)


def _rank(eps: np.ndarray) -> np.ndarray:
    """Gaussian rank of a shock, clamped so it stays inside (0, 1)."""
    return _ndtr(np.clip(eps, -EPS_CLAMP, EPS_CLAMP))


def _check_rejections(rejected: np.ndarray, S: int) -> None:
    worst = int(rejected.max(initial=0))
    if worst > MAX_REJECT_FRACTION * S:
        h = int(np.argmax(rejected)) + 1
        raise InsufficientLocalData(
            f"{worst} of {S} replications ({worst / S:.0%}) left the estimable "
            f"region by horizon {h}; refusing to extrapolate"
        )


def _simulate_step1(series: TimeSeries, req: IrfRequest):
    """Step one of both routes: the prep, the generator, and the (2, S, H) simulation, horizon one from y0's row."""
    prep = _QuantilePrep.from_series(series, req.cfg)
    rng = np.random.default_rng(req.seed)
    eps1 = rng.standard_normal(req.S)
    alphas = _rank(np.concatenate([eps1, eps1 + req.delta]))
    vals, ok, _ = _quantile_batch(prep, np.full(2 * req.S, req.y0, dtype=float), alphas)
    if not ok.all():
        raise InsufficientLocalData(f"conditioning state y0={req.y0:.6g} has insufficient kernel mass")
    sim = PathSimulation(np.full((2, req.S, req.horizons), np.nan), eps1, prep.bandwidth)
    sim.paths[:, :, 0] = vals.reshape(2, req.S)
    return prep, rng, sim


def simulate_paths(series: TimeSeries, req: IrfRequest) -> PathSimulation:
    """Simulate S paired (baseline, shocked) paths of length H through g_hat; each path steps until it leaves."""
    _check_inputs(series, req)
    prep, rng, sim = _simulate_step1(series, req)
    ranks = _rank(rng.standard_normal((req.horizons - 1, req.S)))  # the stream of one draw of S per step
    for k in range(1, req.horizons):
        row, rep = np.nonzero(np.isfinite(sim.paths[:, :, k - 1]))  # either row's outcomes, each on its own path
        keep = k + 1 < req.horizons  # the rows that a later step reads
        sim.paths[row, rep, k] = _quantile_batch(prep, sim.paths[row, rep, k - 1], ranks[k - 1, rep], keep)[0]
    return sim


def _lp_paths(series: TimeSeries, req: IrfRequest) -> PathSimulation:
    """The local projection's outcomes: the step-one states, then their (h-1)-step predictions, NaN where
    a prediction fails the mass rule. The states are fitted in step one's order, baselines then shocked."""
    _check_inputs(series, req)
    if series.T <= req.horizons + 1:  # checked before simulating: lag H-1 needs T >= H + 2
        raise ValueError(f"series too short (T={series.T}) for {req.horizons} horizons")
    _, _, sim = _simulate_step1(series, req)
    if req.horizons > 1:
        fits = _nw_lags(series, req.cfg, sim.paths[:, :, 0].ravel(), range(1, req.horizons), sim.bandwidth)[0]
        sim.paths[:, :, 1:] = fits.T.reshape(2, req.S, -1)
    return sim


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


# each estimator route by name, and the paired outcomes it simulates; the lambdas read the module's
# bindings when called, so a rebound function (a tracer's, a test's) is the one that runs
_ROUTES = {
    "direct": lambda series, req: simulate_paths(series, req),
    "local_projection": lambda series, req: _lp_paths(series, req),
}


def _route_irf(series: TimeSeries, req: IrfRequest, route: str) -> IrfCurve:
    """The named route's IRF: mean paired difference per horizon."""
    sim = _ROUTES[route](series, req)
    return _reduce(sim, req, route, _mean(sim.shock - sim.base))


def irf_direct(series: TimeSeries, req: IrfRequest) -> IrfCurve:
    """Direct-simulation IRF: mean paired path difference per horizon."""
    return _route_irf(series, req, "direct")


def irf_lp(series: TimeSeries, req: IrfRequest) -> IrfCurve:
    """Local-projection IRF: difference of (h-1)-step predictions of step-one states.

    Every lag is fitted with the step-one bandwidth (Silverman's rule on
    y[:-1] by default), so one kernel-weight evaluation serves all horizons.
    Horizon one applies the identity prediction, which makes it coincide
    bitwise with the direct route under a shared seed.
    """
    return _route_irf(series, req, "local_projection")


# ---------------------------------------------------------------------------
# transformed, dynamic and joint responses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Indicator:
    """Transform a(u) = 1{u < threshold}: difference of predictive CDFs."""

    threshold: float

    def __post_init__(self) -> None:
        _number("threshold", self.threshold)


@dataclass(frozen=True)
class QuantileLevel:
    """Compare predictive distributions through their level-alpha quantiles."""

    alpha: float

    def __post_init__(self) -> None:
        _level("alpha", self.alpha)


Transform = Union[Indicator, QuantileLevel, Callable[[np.ndarray], np.ndarray]]


def irf_transformed(series: TimeSeries, req: IrfRequest, transform: Transform) -> IrfCurve:
    """Response of a transformed outcome: mean of a(shocked) - a(baseline).

    With an :class:`Indicator` the values are differences of predictive
    probabilities and lie in [-1, 1]. A :class:`QuantileLevel` instead
    inverts the two simulated predictive distributions and differences
    their quantiles (standard errors then come from a replication
    bootstrap).
    """
    _instance((Indicator, QuantileLevel, Callable), "an Indicator, QuantileLevel or function")("transform", transform)
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
    _check_inputs(series, req)
    if req.horizons < 2:
        raise ValueError("dynamic response needs horizons >= 2")
    sim = simulate_paths(series, req)
    lagged = np.concatenate([np.full_like(sim.paths[:, :, :1], req.y0), sim.paths[:, :, :-1]], axis=2)
    product = sim.paths * lagged
    return _reduce(sim, req, "dynamic", _mean(product[1] - product[0]))


def irf_joint(series: TimeSeries, req: IrfRequest) -> IrfCurve:
    """Mean squared paired path difference per horizon; nonnegative."""
    sim = simulate_paths(series, req)
    return _reduce(sim, req, "joint", _mean((sim.shock - sim.base) ** 2))


# ---------------------------------------------------------------------------
# linear VAR closed forms
# ---------------------------------------------------------------------------

def var_irf(params: VarParams, delta, h: int) -> np.ndarray:
    """Response A^h D delta of a linear VAR: ``true_irf`` at horizon h + 1, from ``GaussianVar1.closed_form``."""
    _integer("h", h, 0)
    return np.atleast_1d(true_irf(GaussianVar1(params), np.zeros(params.n), h + 1, delta).values[-1])


@dataclass(frozen=True)
class MaxIrfResult:
    value: float
    delta_star: np.ndarray
    degenerate: bool


def var_max_irf(params: VarParams, a, h: int) -> MaxIrfResult:
    """Maximal response of a'y at horizon h over unit-norm shocks.

    The maximum of a'A^h D delta subject to |delta| = 1 equals |(A^h D)'a|,
    attained at delta* proportional to (A^h D)'a, where A^h D is the impulse
    matrix ``GaussianVar1.closed_form`` gives for unit shocks, as in ``var_irf``.
    The value depends on D only through DD', hence is invariant to D -> DQ
    for orthogonal Q. A zero value is returned flagged, with no maximizer.
    """
    _integer("h", h, 0)
    model = GaussianVar1(params)
    w = _as_reals(a, "a")
    if w.shape != (params.n,):
        raise ValueError(f"a must have shape ({params.n},), got {w.shape}")
    if not np.any(w):
        raise ValueError("a must be nonzero")
    w = model.closed_form(None, h + 1, np.eye(params.n))[-1].T @ w
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
    would select on eps1 and bias the fit. ``req.delta`` only scales the contributions.
    """
    kept = np.isfinite(sim.base)
    _check_rejections(sim.S - kept.sum(axis=0), sim.S)
    return [decompose_irf(sim.base[m, h - 1], sim.eps1[m], req.delta, J=J, h=h)
            for h, m in enumerate(kept.T, start=1)]


def decompose_direct_irf(series: TimeSeries, req: IrfRequest, J: int = DEFAULT_J) -> List[HermiteDecomposition]:
    """Hermite decomposition of the direct-route response, per horizon; ``req.delta`` only scales the contributions."""
    _integer("J", J, 1)
    _check_inputs(series, req)
    return _decomposition(simulate_paths(series, replace(req, delta=0.0)), req, J)


def decompose_lp_irf(series: TimeSeries, req: IrfRequest, J: int = DEFAULT_J) -> List[HermiteDecomposition]:
    """Hermite decomposition of the local-projection route, per horizon; ``req.delta`` only scales the contributions."""
    _integer("J", J, 1)
    _check_inputs(series, req)
    return _decomposition(_lp_paths(series, replace(req, delta=0.0)), req, J)
