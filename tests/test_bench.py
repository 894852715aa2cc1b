import math
from types import SimpleNamespace

import numpy as np
import pytest

import nlirf.bench as bench
from nlirf.bench import (
    CondCdfTarget,
    CondQuantileTarget,
    IrfTarget,
    SweepSpec,
    run_sweep,
)
from nlirf.kernels import KernelConfig, cond_cdf, cond_quantile
from nlirf.models import Dar1, GaussianAr1, simulate

AR1 = GaussianAr1(rho=0.5, sigma=1.0)


@pytest.mark.parametrize("field, bad", [("routes", ("direct", "lp")), ("routes", ()), ("routes", ["direct"]),
                                        ("routes", "direct"), ("h", 0), ("h", 2.0), ("h", True), ("S", 0),
                                        ("S", 300.5), ("S", "300"), ("delta", "0.5"), ("y0", True)])
def test_irf_target_validates_fields(field, bad):
    with pytest.raises(ValueError, match=field):
        IrfTarget(**{"h": 2, "delta": 0.5, "y0": 0.2, field: bad})


@pytest.mark.parametrize("target, fields, field", [
    (CondQuantileTarget, {"alpha": 1.5, "y": 0.5}, "alpha"),
    (CondQuantileTarget, {"alpha": "0.5", "y": 0.5}, "alpha"),
    (CondQuantileTarget, {"alpha": 0.5, "y": True}, "y"),
    (CondCdfTarget, {"z": "0.3", "y": 0.5}, "z"),
    (CondCdfTarget, {"z": 0.3, "y": math.inf}, "y"),
])
def test_conditional_targets_validate_fields(target, fields, field):
    # checked when the target is made, not after a sweep has simulated its series
    with pytest.raises(ValueError, match=field):
        target(**fields)


def test_spec_validation():
    t = CondCdfTarget(z=0.3, y=0.5)
    with pytest.raises(ValueError):
        SweepSpec(model=AR1, sample_sizes=(1000,), seeds_per_size=10, target=t)
    with pytest.raises(ValueError):
        SweepSpec(model=AR1, sample_sizes=(4000, 1000), seeds_per_size=10, target=t)
    with pytest.raises(ValueError):
        SweepSpec(model=AR1, sample_sizes=(1000, 4000), seeds_per_size=5, target=t)


def test_oracle_smoke_zero_rmse_flags_slope(monkeypatch):
    # an estimator that returns the closed form gives zero RMSE at every size
    target = CondCdfTarget(z=0.3, y=0.5)
    exact = target.oracle(AR1)
    monkeypatch.setattr(bench, "cond_cdf", lambda series, z, y, cfg: SimpleNamespace(value=exact))
    spec = SweepSpec(model=AR1, sample_sizes=(500, 1000), seeds_per_size=10, target=target)
    report = run_sweep(spec, master_seed=1)
    assert all(v == 0.0 for v in report.rmse.values())
    assert report.slope_degenerate
    assert math.isnan(report.slope["kernel"])


@pytest.mark.parametrize("target, estimate", [
    (CondCdfTarget(z=0.3, y=0.5), lambda series, cfg: cond_cdf(series, 0.3, 0.5, cfg)),
    (CondQuantileTarget(alpha=0.3, y=0.5), lambda series, cfg: cond_quantile(series, 0.3, 0.5, cfg)),
])
def test_conditional_cells_are_the_estimator_on_the_cell_series(target, estimate):
    # each cell's estimate is the estimator's own value on the series simulated from the cell's derived seed
    cfg = KernelConfig(kernel="epanechnikov", bandwidth=0.6)
    spec = SweepSpec(model=Dar1.of(0.5, 1.0, 0.5), sample_sizes=(300, 600), seeds_per_size=10, target=target,
                     cfg=cfg, y0_sim=0.2)
    report = run_sweep(spec, master_seed=11)
    assert [(c.T, c.seed_index, c.route) for c in report.cells] == [
        (T, si, "kernel") for T in spec.sample_sizes for si in range(10)]
    for c in report.cells:
        seed = bench._cell_seed(11, spec.sample_sizes.index(c.T), c.seed_index, stream=0)
        want = estimate(simulate(spec.model, T=c.T, y0=0.2, seed=seed), cfg).value
        assert c.error is None
        assert np.float64(c.estimate).tobytes() == np.float64(want).tobytes()


def test_report_reproducible_bitwise():
    spec = SweepSpec(
        model=AR1,
        sample_sizes=(500, 1000),
        seeds_per_size=10,
        target=CondCdfTarget(z=0.3, y=0.5),
    )
    r1 = run_sweep(spec, master_seed=7)
    r2 = run_sweep(spec, master_seed=7)
    assert [(c.T, c.seed_index, c.estimate) for c in r1.cells] == [
        (c.T, c.seed_index, c.estimate) for c in r2.cells
    ]
    assert r1.rmse == r2.rmse
    r3 = run_sweep(spec, master_seed=8)
    assert r1.rmse != r3.rmse


def test_cond_cdf_rmse_shrinks_with_t():
    spec = SweepSpec(
        model=AR1,
        sample_sizes=(1000, 4000, 16000),
        seeds_per_size=12,
        target=CondCdfTarget(z=0.3, y=0.5),
    )
    report = run_sweep(spec, master_seed=2)
    r = [report.rmse[(T, "kernel")] for T in spec.sample_sizes]
    inversions = sum(a < b for a, b in zip(r, r[1:]))
    assert inversions <= 1
    assert r[-1] < r[0]
    assert -1.0 < report.slope["kernel"] < -0.1


def test_cond_quantile_target_runs():
    spec = SweepSpec(
        model=AR1,
        sample_sizes=(1000, 4000),
        seeds_per_size=10,
        target=CondQuantileTarget(alpha=0.5, y=1.0),
    )
    report = run_sweep(spec, master_seed=3)
    assert report.rmse[(4000, "kernel")] < 0.2
    assert not report.direct_lp_ratio


def test_irf_target_ratio_and_errors_recorded():
    spec = SweepSpec(
        model=AR1,
        sample_sizes=(1500, 3000),
        seeds_per_size=10,
        target=IrfTarget(h=2, delta=1.0, y0=0.5, S=400),
    )
    report = run_sweep(spec, master_seed=4)
    for T in spec.sample_sizes:
        assert math.isfinite(report.direct_lp_ratio[T])
        assert report.direct_lp_ratio[T] > 0
    failed = [c for c in report.cells if c.error is not None]
    assert len(failed) < len(report.cells) / 2


def test_irf_target_without_closed_form_rejected():
    spec = SweepSpec(
        model=Dar1.of(0.5, 1.0, 0.5),
        sample_sizes=(1000, 2000),
        seeds_per_size=10,
        target=IrfTarget(h=3, delta=0.5, y0=0.2, S=200),
    )
    with pytest.raises(ValueError, match="closed-form"):
        run_sweep(spec, master_seed=5)


def test_dar_h1_irf_target_has_oracle():
    spec = SweepSpec(
        model=Dar1.of(0.5, 1.0, 0.5),
        sample_sizes=(1000, 2000),
        seeds_per_size=10,
        target=IrfTarget(h=1, delta=0.5, y0=0.2, S=300),
        y0_sim=0.2,
    )
    report = run_sweep(spec, master_seed=6)
    # both routes coincide bitwise at h=1, so the ratio is exactly one
    for T in spec.sample_sizes:
        assert report.direct_lp_ratio[T] == 1.0
