"""Monte Carlo sweeps verifying estimator convergence empirically.

A sweep simulates data of increasing length from a model with a known
closed form, re-estimates a target quantity per (sample size, seed) cell,
and summarizes RMSE against the oracle: the fitted slope of log RMSE
versus log(T * b_T) checks the kernel rate (the bandwidth rule makes
T * b_T proportional to T^0.8), and the per-size RMSE ratio between the
direct and local-projection routes checks their asymptotic equivalence.

Everything is a pure function of (spec, master seed): per-cell seeds are
derived through a counter scheme, so reports reproduce bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .irf import _ROUTES, IrfRequest, _route_irf
from ._checks import _finite, _instance, _integer, _level, _nonempty_list
from ._normal import _ndtr
from .kernels import KernelConfig, _a_config, cond_cdf, cond_quantile
from .models import ModelSpec, TimeSeries, simulate, true_irf

__all__ = [
    "IrfTarget",
    "CondCdfTarget",
    "CondQuantileTarget",
    "SweepSpec",
    "CellResult",
    "SweepReport",
    "run_sweep",
]


@dataclass(frozen=True)
class IrfTarget:
    """IRF(h, delta) at a conditioning state, for one or both estimator routes."""

    h: int
    delta: float
    y0: float
    S: int = 2000
    routes: Tuple[str, ...] = tuple(_ROUTES)

    def __post_init__(self) -> None:
        _integer("h", self.h, 1)
        _finite("delta", self.delta)
        _finite("y0", self.y0)
        _integer("S", self.S, 1)
        if not isinstance(self.routes, tuple) or not self.routes or not set(self.routes) <= set(_ROUTES):
            raise ValueError(f"routes must be a nonempty tuple drawn from {tuple(_ROUTES)}, got {self.routes!r}")

    def oracle(self, model: ModelSpec) -> float:
        """The closed-form IRF(h, delta); raises when the model admits none."""
        curve = true_irf(model, y0=self.y0, h=self.h, delta=self.delta, S=1)
        if curve.meta["method"][self.h - 1] != "closed_form":
            raise ValueError(f"no closed-form IRF oracle for {type(model).__name__} at h={self.h}")
        return float(curve.values[self.h - 1])

    def estimate(self, series: TimeSeries, cfg: KernelConfig, route: str, seed: int) -> float:
        req = IrfRequest(y0=self.y0, horizons=self.h, delta=self.delta, S=self.S, cfg=cfg, seed=seed)
        return float(_route_irf(series, req, route).values[self.h - 1])


@dataclass(frozen=True)
class CondCdfTarget:
    z: float
    y: float
    routes = ("kernel",)

    def __post_init__(self) -> None:
        _finite("z", self.z)
        _finite("y", self.y)

    def oracle(self, model: ModelSpec) -> float:
        m, s = _conditional_moments(model, self.y)
        return float(_ndtr((self.z - m) / s))

    def estimate(self, series: TimeSeries, cfg: KernelConfig, route: str, seed: int) -> float:
        return cond_cdf(series, self.z, self.y, cfg).value


@dataclass(frozen=True)
class CondQuantileTarget:
    alpha: float
    y: float
    routes = ("kernel",)

    def __post_init__(self) -> None:
        _level("alpha", self.alpha)
        _finite("y", self.y)

    def oracle(self, model: ModelSpec) -> float:
        from scipy.special import ndtri  # loaded by this call alone: scipy.special is most of an import's cost

        m, s = _conditional_moments(model, self.y)
        return float(m + s * ndtri(self.alpha))

    def estimate(self, series: TimeSeries, cfg: KernelConfig, route: str, seed: int) -> float:
        return cond_quantile(series, self.alpha, self.y, cfg).value


Target = Union[IrfTarget, CondCdfTarget, CondQuantileTarget]


@dataclass(frozen=True)
class SweepSpec:
    model: ModelSpec
    sample_sizes: Tuple[int, ...]
    seeds_per_size: int
    target: Target
    cfg: KernelConfig = field(default_factory=KernelConfig)
    y0_sim: float = 0.0

    def __post_init__(self) -> None:
        _nonempty_list(_integer)("sample_sizes", self.sample_sizes)
        if len(self.sample_sizes) < 2:
            raise ValueError("need at least two sample sizes")
        if list(self.sample_sizes) != sorted(self.sample_sizes):
            raise ValueError("sample sizes must be ascending")
        _integer("seeds_per_size", self.seeds_per_size, 10)
        _instance(ModelSpec, "a model")("model", self.model)
        _instance(Target, "an IrfTarget, CondCdfTarget or CondQuantileTarget")("target", self.target)
        _a_config("cfg", self.cfg)
        _finite("y0_sim", self.y0_sim)


@dataclass(frozen=True)
class CellResult:
    T: int
    seed_index: int
    route: str
    estimate: float
    oracle: float
    error: Optional[str] = None

    @property
    def abs_err(self) -> float:
        return abs(self.estimate - self.oracle)


@dataclass
class SweepReport:
    spec: SweepSpec
    master_seed: int
    cells: List[CellResult]
    rmse: Dict[Tuple[int, str], float]
    slope: Dict[str, float]
    slope_degenerate: bool
    direct_lp_ratio: Dict[int, float]


def _conditional_moments(model: ModelSpec, y: float) -> Tuple[float, float]:
    """Mean and scale of the Gaussian one-step law at y, read from the model."""
    if model.dim != 1:
        raise ValueError(f"no conditional-law oracle for {type(model).__name__}")
    return float(model.cond_mean(y)), float(model.cond_scale(y))


def _cell_seed(master_seed: int, size_index: int, seed_index: int, stream: int) -> int:
    return int(np.random.SeedSequence([master_seed, size_index, seed_index, stream]).generate_state(1)[0])


def run_sweep(spec: SweepSpec, master_seed: int = 0) -> SweepReport:
    """Run the sweep and summarize RMSE, rate slope, and route RMSE ratios.

    Estimator failures in individual cells are recorded, not fatal,
    unless more than half the seeds at some sample size fail.
    """
    _instance(SweepSpec, "a SweepSpec")("spec", spec)
    _integer("master_seed", master_seed, 0)
    oracle = spec.target.oracle(spec.model)
    cells: List[CellResult] = []

    for ti, T in enumerate(spec.sample_sizes):
        for si in range(spec.seeds_per_size):
            series = simulate(spec.model, T=T, y0=spec.y0_sim, seed=_cell_seed(master_seed, ti, si, stream=0))
            seed = _cell_seed(master_seed, ti, si, stream=1)
            for route in spec.target.routes:
                try:
                    est, error = spec.target.estimate(series, spec.cfg, route, seed), None
                except (ValueError, ArithmeticError) as exc:
                    est, error = math.nan, f"{type(exc).__name__}: {exc}"
                cells.append(CellResult(T=T, seed_index=si, route=route, estimate=est, oracle=oracle, error=error))

    rmse: Dict[Tuple[int, str], float] = {}
    for T in spec.sample_sizes:
        for route in spec.target.routes:
            sub = [c for c in cells if c.T == T and c.route == route]
            good = [c.abs_err for c in sub if c.error is None]
            if len(good) < len(sub) / 2:
                raise RuntimeError(f"more than half the seeds failed at T={T} route={route}")
            rmse[(T, route)] = float(np.sqrt(np.mean(np.square(good))))

    # rate regressor: log(T * b_T) with b_T ~ T^(-1/5), i.e. 0.8 * log T
    slope: Dict[str, float] = {}
    degenerate = False
    log_teff = 0.8 * np.log(np.asarray(spec.sample_sizes, dtype=float))
    for route in spec.target.routes:
        r = np.array([rmse[(T, route)] for T in spec.sample_sizes])
        if np.any(r == 0.0):
            slope[route] = math.nan
            degenerate = True
        else:
            slope[route] = float(np.polyfit(log_teff, np.log(r), 1)[0])

    ratio: Dict[int, float] = {}
    if {"direct", "local_projection"} <= set(spec.target.routes):
        for T in spec.sample_sizes:
            lp = rmse[(T, "local_projection")]
            ratio[T] = float(rmse[(T, "direct")] / lp) if lp > 0 else math.nan

    return SweepReport(
        spec=spec,
        master_seed=master_seed,
        cells=cells,
        rmse=rmse,
        slope=slope,
        slope_degenerate=degenerate,
        direct_lp_ratio=ratio,
    )
