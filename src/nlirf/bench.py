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
from scipy.special import ndtri
from scipy.stats import norm

from .irf import IrfRequest, irf_direct, irf_lp
from .kernels import KernelConfig, cond_cdf, cond_quantile
from .models import ModelSpec, simulate, true_irf

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
    routes: Tuple[str, ...] = ("direct", "local_projection")


@dataclass(frozen=True)
class CondCdfTarget:
    z: float
    y: float


@dataclass(frozen=True)
class CondQuantileTarget:
    alpha: float
    y: float


Target = Union[IrfTarget, CondCdfTarget, CondQuantileTarget]


@dataclass(frozen=True)
class SweepSpec:
    model: ModelSpec
    sample_sizes: Tuple[int, ...]
    seeds_per_size: int
    target: Target
    cfg: KernelConfig = field(default_factory=KernelConfig)
    y0_sim: float = 0.0
    oracle_smoke: bool = False  # replace estimates by the oracle (self-check)

    def __post_init__(self) -> None:
        if len(self.sample_sizes) < 2:
            raise ValueError("need at least two sample sizes")
        if list(self.sample_sizes) != sorted(self.sample_sizes):
            raise ValueError("sample sizes must be ascending")
        if self.seeds_per_size < 10:
            raise ValueError("need at least 10 seeds per size")


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


def _oracle_value(model: ModelSpec, target: Target) -> float:
    """Closed-form target value; raises when the model admits none."""
    if isinstance(target, CondCdfTarget):
        m, s = _conditional_moments(model, target.y)
        return float(norm.cdf((target.z - m) / s))
    if isinstance(target, CondQuantileTarget):
        m, s = _conditional_moments(model, target.y)
        return float(m + s * ndtri(target.alpha))
    curve = true_irf(model, y0=target.y0, h=target.h, delta=target.delta, S=1)
    if curve.meta["method"][target.h - 1] != "closed_form":
        raise ValueError(
            f"no closed-form IRF oracle for {type(model).__name__} at h={target.h}"
        )
    return float(curve.values[target.h - 1])


def _conditional_moments(model: ModelSpec, y: float) -> Tuple[float, float]:
    """Mean and scale of the Gaussian one-step law at y, read from the model."""
    if model.dim != 1:
        raise ValueError(f"no conditional-law oracle for {type(model).__name__}")
    return float(model.cond_mean(y)), float(model.cond_scale(y))


def _cell_seed(master_seed: int, size_index: int, seed_index: int, stream: int) -> int:
    return int(np.random.SeedSequence([master_seed, size_index, seed_index, stream]).generate_state(1)[0])


def _routes(target: Target) -> Tuple[str, ...]:
    if isinstance(target, IrfTarget):
        return target.routes
    return ("kernel",)


def run_sweep(spec: SweepSpec, master_seed: int = 0) -> SweepReport:
    """Run the sweep and summarize RMSE, rate slope, and route RMSE ratios.

    Estimator failures in individual cells are recorded, not fatal,
    unless more than half the seeds at some sample size fail.
    """
    oracle = _oracle_value(spec.model, spec.target)
    cells: List[CellResult] = []
    estimators = {"direct": irf_direct, "local_projection": irf_lp}

    for ti, T in enumerate(spec.sample_sizes):
        for si in range(spec.seeds_per_size):
            data_seed = _cell_seed(master_seed, ti, si, stream=0)
            series = simulate(spec.model, T=T, y0=spec.y0_sim, seed=data_seed)
            for route in _routes(spec.target):
                try:
                    if spec.oracle_smoke:
                        est = oracle
                    elif isinstance(spec.target, CondCdfTarget):
                        est = cond_cdf(series, spec.target.z, spec.target.y, spec.cfg).value
                    elif isinstance(spec.target, CondQuantileTarget):
                        est = cond_quantile(series, spec.target.alpha, spec.target.y, spec.cfg).value
                    else:
                        req = IrfRequest(
                            y0=spec.target.y0,
                            horizons=spec.target.h,
                            delta=spec.target.delta,
                            S=spec.target.S,
                            cfg=spec.cfg,
                            seed=_cell_seed(master_seed, ti, si, stream=1),
                        )
                        est = float(estimators[route](series, req).values[spec.target.h - 1])
                    cells.append(CellResult(T=T, seed_index=si, route=route, estimate=est, oracle=oracle))
                except (ValueError, ArithmeticError) as exc:
                    cells.append(
                        CellResult(T=T, seed_index=si, route=route, estimate=math.nan,
                                   oracle=oracle, error=f"{type(exc).__name__}: {exc}")
                    )

    rmse: Dict[Tuple[int, str], float] = {}
    for T in spec.sample_sizes:
        for route in _routes(spec.target):
            sub = [c for c in cells if c.T == T and c.route == route]
            good = [c.abs_err for c in sub if c.error is None]
            if len(good) < len(sub) / 2:
                raise RuntimeError(
                    f"more than half the seeds failed at T={T} route={route}"
                )
            rmse[(T, route)] = float(np.sqrt(np.mean(np.square(good))))

    # rate regressor: log(T * b_T) with b_T ~ T^(-1/5), i.e. 0.8 * log T
    slope: Dict[str, float] = {}
    degenerate = False
    log_teff = 0.8 * np.log(np.asarray(spec.sample_sizes, dtype=float))
    for route in _routes(spec.target):
        r = np.array([rmse[(T, route)] for T in spec.sample_sizes])
        if np.any(r == 0.0):
            slope[route] = math.nan
            degenerate = True
        else:
            slope[route] = float(np.polyfit(log_teff, np.log(r), 1)[0])

    ratio: Dict[int, float] = {}
    if isinstance(spec.target, IrfTarget) and {"direct", "local_projection"} <= set(spec.target.routes):
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
