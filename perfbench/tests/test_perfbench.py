"""Tests for the benchmark's own code, on tiny inputs.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import nlirf  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

TINY = replace(
    wl.FULL, T=400, S=16, H=3, sim_T=2000, qmle_step=0.1, markov_B=20, true_S=100,
    sweep_sizes=(150, 250), sweep_S=16, mix_T=300, panel_series=3, panel_S=32,
)


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


# ---------------------------------------------------------------------------
# metric names and units
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert spec["paths"] == ["perfbench"]


def test_per_layer_metrics_cover_every_layer():
    for layer in tr.LAYERS:
        assert f"{layer}.self_s" in run.PER_LAYER


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    S = tr.Span
    spans = [
        S(0, 0, None, "client", "req", 0.0, 10.0),
        S(0, 1, 0, "kernels", "a", 1.0, 4.0),
        S(0, 2, 0, "irf", "b", 5.0, 9.0),
        S(0, 3, 2, "kernels", "c", 6.0, 8.0),
    ]
    self_s = tr.self_times(spans)
    assert self_s == {"client": 3.0, "kernels": 5.0, "irf": 2.0}
    assert sum(self_s.values()) == 10.0


def test_tracer_spans_library_calls_and_restores_bindings(lib):
    rng = np.random.default_rng(0)
    series = lib.TimeSeries(wl.ar_paths(rng.standard_normal(400), 0.0))
    req = lib.IrfRequest(y0=0.1, horizons=3, delta=0.5, S=16, seed=1)
    original = nlirf.irf._quantile_batch
    t = tr.Tracer()
    t.install()
    try:
        with t.span(tr.CLIENT, "request"):
            traced = nlirf.irf_direct(series, req)
    finally:
        t.uninstall()
    assert nlirf.irf._quantile_batch is original
    np.testing.assert_array_equal(traced.values, nlirf.irf_direct(series, req).values)
    summary = t.summary()
    assert summary["irf.path_sims"] == 1
    assert summary["kernels.calls"] == 3  # one row at y0, then one block per later step
    assert summary["irf.calls"] == 1
    total = sum(s.duration for s in t.spans if s.parent is None)
    # self times of all layers, the client's included, partition the root span
    assert sum(v for k, v in summary.items() if k.endswith(".self_s")) == pytest.approx(total)


def test_missing_binding_fails_loudly(lib, monkeypatch):
    monkeypatch.delattr(nlirf.irf, "simulate_paths")
    with pytest.raises(tr.TracerBindingError, match="simulate_paths"):
        tr.Tracer().install()


# ---------------------------------------------------------------------------
# seeded inputs and digests
# ---------------------------------------------------------------------------

def _digest(lib, workload, seed, workdir):
    inputs = wl.make_inputs(seed, TINY, workdir / "inputs")
    records = run.run_pass(wl.build_requests(lib, workload, inputs, TINY, workdir / "run"), None)
    assert [r["problems"] for r in records] == [[] for _ in records]
    return inputs, wl.digest([r["numbers"] for r in records])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_digest(lib, tmp_path, workload):
    _, first = _digest(lib, workload, 5, tmp_path / "a")
    _, again = _digest(lib, workload, 5, tmp_path / "b")
    assert first == again


def test_different_seed_gives_different_inputs(tmp_path):
    a = wl.make_inputs(5, TINY, tmp_path / "a")
    b = wl.make_inputs(6, TINY, tmp_path / "b")
    assert not np.array_equal(a.series["dar"], b.series["dar"])
    assert not np.array_equal(a.series["ar"], b.series["ar"])
    assert a.draws != b.draws
    assert a.csv["mixing"].read_bytes() != b.csv["mixing"].read_bytes()


def test_zero_shock_check_catches_a_nonzero_curve(lib):
    curve = lib.IrfCurve(horizons=[1, 2], values=[0.0, 1e-300], mc_se=[0.0, 0.0], route="direct")
    assert wl._curve_outcome(curve, 10, zero=True).problems


def test_oracle_panel_counts_every_closed_form_output(lib):
    errors, attempted, problems = wl.oracle_panel(lib, 3, TINY, ("direct", "local_projection"))
    assert problems == []
    assert attempted == 2 * 2 * TINY.panel_series
    # per route: DAR has horizon one, AR horizons one and two
    assert len(errors) == 2 * TINY.panel_series * (1 + 2)
    assert all(np.isfinite(errors))


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "direct_paths", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
