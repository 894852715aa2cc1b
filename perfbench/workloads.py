"""Seeded inputs, request lists and output checks for the benchmark workloads.

Every input is drawn from the benchmark seed through counter-derived
substreams (``SeedSequence([seed, stream, ...])``, as in
``nlirf.bench._cell_seed``), so one seed always gives the same series and
requests, and adding a stream never perturbs another. The library only
receives the generated series (as arrays or CSV files) and the requests.

Workloads (closed loop, one client that sends the next request when the
previous one returns):

* ``direct_paths``: direct-route estimators and the ``decompose`` CLI on a
  DAR(1) and a Gaussian AR(1) series. Loads the conditional-quantile scan
  in ``kernels`` at large weight blocks; the NW path and the model
  transitions stay idle.
* ``local_projection``: local-projection estimators on the same series,
  plus a horizon-one direct request for the bitwise identity check. Loads
  the NW matvec in ``kernels`` and bandwidth resolution per lag.
* ``cli_diagnostics``: the CLI pipeline simulate -> qmle -> markov-test,
  identify, the Monte Carlo oracle and a small rate sweep. Loads
  ``models``, ``qmle``, ``identify``, ``bench`` and ``cli``; kernel work
  comes in many small calls instead of large blocks.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

WORKLOADS = ("direct_paths", "local_projection", "cli_diagnostics")

# generating parameters: the README quick-start DAR(1) and a Gaussian AR(1)
DAR = {"rho": 0.5, "alpha": 1.0, "beta": 0.5}
AR = {"rho": 0.5, "sigma": 1.0}
DAR_SD = math.sqrt(DAR["alpha"] / (1 - DAR["rho"] ** 2 - DAR["beta"]))
AR_SD = AR["sigma"] / math.sqrt(1 - AR["rho"] ** 2)

# fixed substream codes (never renumber, only append)
STREAM = {"dar": 1, "ar": 2, "requests": 3, "panel": 4, "mixing": 5, "cli": 6}

# density grid points of the simulate subcommand (its default)
KDE_GRID = 201

# |estimate - generating value| allowed for each QMLE parameter at T=5000;
# the largest deviation over 40 seeds was 0.08
QMLE_TOL = 0.15

# layers each workload is expected to load; the traced run fails if one of
# them records no span
LOADED_LAYERS = {
    "direct_paths": ("irf", "kernels", "hermite", "cli"),
    "local_projection": ("irf", "kernels", "hermite"),
    "cli_diagnostics": ("cli", "models", "kernels", "irf", "qmle", "identify", "bench"),
}
# counters that must be nonzero on a workload for its per-layer story to hold
EXPECTED_COUNTERS = {
    "direct_paths": ("irf.path_sims",),
    "local_projection": ("kernels.bandwidth_calls",),
    "cli_diagnostics": ("models.transition_calls", "kernels.bandwidth_calls"),
}


def subseed(seed: int, *counters: int) -> int:
    return int(np.random.SeedSequence([seed, *counters]).generate_state(1)[0])


def substream(seed: int, *counters: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *counters]))


@dataclass(frozen=True)
class Sizes:
    T: int = 5000                 # IRF series length (README quick start)
    S: int = 200                  # replications per IRF request; the README uses 4000,
                                  # 200 keeps a direct_paths pass near 3 s
    H: int = 7                    # horizons per IRF request
    sim_T: int = 5000             # cli simulate length
    qmle_step: float = 0.01       # 0.01 is the default 120^3 lattice
    markov_B: int = 500
    true_S: int = 10_000          # Monte Carlo oracle replications
    sweep_sizes: Tuple[int, ...] = (500, 1000, 2000)
    sweep_seeds: int = 10
    sweep_S: int = 500
    mix_T: int = 5000             # bivariate series for identify
    panel_series: int = 300       # accuracy panel: series per model
    panel_S: int = 32


FULL = Sizes()
# warm-up pass: the same inputs and every code path at full block sizes, with
# fewer horizons and replications; the first measured pass can still run
# slower, which the per-request medians over the passes absorb
WARM = replace(FULL, H=2, markov_B=50, true_S=1000, sweep_sizes=(500, 1000), sweep_S=100)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def dar_paths(eps: np.ndarray, y0: float) -> np.ndarray:
    """DAR(1) recursion along the last axis of an innovation array."""
    rho, alpha, beta = DAR["rho"], DAR["alpha"], DAR["beta"]
    out = np.empty_like(eps)
    y = np.full(eps.shape[:-1], float(y0))
    for t in range(eps.shape[-1]):
        y = rho * y + np.sqrt(alpha + beta * y * y) * eps[..., t]
        out[..., t] = y
    return out


def ar_paths(eps: np.ndarray, y0: float) -> np.ndarray:
    """Gaussian AR(1) recursion along the last axis of an innovation array."""
    out = np.empty_like(eps)
    y = np.full(eps.shape[:-1], float(y0))
    for t in range(eps.shape[-1]):
        y = AR["rho"] * y + AR["sigma"] * eps[..., t]
        out[..., t] = y
    return out


def exact_irf(model: str, y0: float, delta: float, H: int) -> np.ndarray:
    """Closed-form IRF by horizon; NaN where the model has none."""
    out = np.full(H, np.nan)
    if model == "ar":
        out[:] = AR["rho"] ** np.arange(H) * AR["sigma"] * delta
    else:
        out[0] = delta * math.sqrt(DAR["alpha"] + DAR["beta"] * y0 * y0)
    return out


def write_series_csv(path: Path, values: np.ndarray) -> None:
    """Series CSV with header ``t,y1[,y2]`` in the library's ingest format."""
    values = values.reshape(len(values), -1)
    cols = ",".join(f"y{i + 1}" for i in range(values.shape[1]))
    lines = [f"t,{cols}"]
    lines += [f"{t + 1}," + ",".join(f"{x:.17g}" for x in row) for t, row in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


@dataclass
class Inputs:
    series: Dict[str, np.ndarray]               # "dar", "ar" -> length-T arrays
    draws: Dict[str, Tuple[float, float, int]]  # model -> (y0, delta, mc seed)
    csv: Dict[str, Path]                        # "dar", "ar", "mixing" -> files
    cli_seed: int                               # master seed of every cli.run


def make_inputs(seed: int, sizes: Sizes, workdir: Path) -> Inputs:
    """Series, request draws and input CSV files, all from the seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    series = {
        "dar": dar_paths(substream(seed, STREAM["dar"]).standard_normal(sizes.T), 0.2),
        "ar": ar_paths(substream(seed, STREAM["ar"]).standard_normal(sizes.T), 0.0),
    }
    rng = substream(seed, STREAM["requests"])
    draws = {}
    for model in ("dar", "ar"):
        draws[model] = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.5, 1.0)),
                        int(rng.integers(2**31)))
    # two latent AR(1) sources with distinct dynamics, mixed with a
    # unit-diagonal matrix
    mrng = substream(seed, STREAM["mixing"])
    a12, a21 = mrng.uniform(0.2, 0.5, size=2)
    mixing = np.array([[1.0, a12], [a21, 1.0]])
    e = mrng.standard_normal((2, sizes.mix_T))
    phi = np.array([0.8, -0.5])
    src = np.empty_like(e)
    x = np.zeros(2)
    for t in range(sizes.mix_T):
        x = phi * x + e[:, t]
        src[:, t] = x
    csv = {"dar": workdir / "dar.csv", "ar": workdir / "ar.csv", "mixing": workdir / "mixing.csv"}
    write_series_csv(csv["dar"], series["dar"])
    write_series_csv(csv["ar"], series["ar"])
    write_series_csv(csv["mixing"], (mixing @ src).T)
    return Inputs(series=series, draws=draws, csv=csv, cli_seed=subseed(seed, STREAM["cli"]))


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    problems: List[str] = field(default_factory=list)
    numbers: bytes = b""
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Request:
    """One library call, its output check, and the work it nominally implies.

    ``rep_horizons`` is S*H for requests that simulate paired paths.
    ``nominal`` holds work counts derived from the request alone (weight
    cells, model steps, ...), so they stay defined when the engine changes.
    """

    name: str
    call: Callable[[], object]
    inspect: Callable[[object, dict], Outcome]
    rep_horizons: int = 0
    nominal: Dict[str, float] = field(default_factory=dict)


def cells_direct(T: int, S: int, H: int) -> int:
    """Weight cells of one paired path simulation: y0 row, then 2S rows per step."""
    return (T - 1) * (1 + 2 * S * (H - 1))


def cells_lp(T: int, points: int, H: int) -> int:
    """Weight cells of the y0 row plus one NW fit per lag 1..H-1 at ``points``."""
    return (T - 1) + points * sum(T - lag for lag in range(1, H))


def _floats(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


def _curve_outcome(curve, S: int, zero: bool = False) -> Outcome:
    out = Outcome(numbers=_floats(curve.values, curve.mc_se))
    if not np.isfinite(curve.values).all():
        out.problems.append("non-finite curve")
    if zero and not np.all(curve.values == 0.0):
        out.problems.append("zero shock gave a nonzero curve")
    rejected = curve.meta.get("rejected", [0] * len(curve.values))
    out.counts = {"irf.rejected": float(sum(rejected)), "irf.curve_reps": float(S * len(rejected))}
    return out


def _decomp_outcome(decs) -> Outcome:
    arrays = []
    for d in decs:
        arrays += [d.coefficients, d.contributions, [d.reconstructed_total]]
    out = Outcome(numbers=_floats(*arrays))
    if not all(np.isfinite(a).all() for a in arrays):
        out.problems.append("non-finite decomposition")
    return out


def _nonfinite(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(_nonfinite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_nonfinite(v) for v in obj)
    return False


def _csv_nonfinite(rows: Sequence[str]) -> bool:
    for row in rows:
        for f in row.split(","):
            try:
                if not math.isfinite(float(f)):
                    return True
            except ValueError:  # labels such as route names
                pass
    return False


def _cli_outcome(paths: Sequence[Path], nan_ok: Sequence[str] = ()) -> Outcome:
    """Check that every artifact carries the manifest hash and finite numbers.

    The digest covers the artifacts' data, not the manifest, which echoes
    file paths that differ between checkouts.
    """
    out = Outcome()
    paths = [Path(p) for p in paths]
    mhash = json.loads(paths[-1].read_text())["manifest_sha256"]
    data = []
    written = 0
    for p in paths:
        written += p.stat().st_size
        if p == paths[-1]:
            continue
        text = p.read_text()
        if p.suffix == ".csv":
            first, _, rest = text.partition("\n")
            if first != f"# manifest: {mhash}":
                out.problems.append(f"{p.name}: missing manifest hash line")
            bad = _csv_nonfinite(rest.splitlines()[1:])
            data.append(rest)
        else:
            obj = json.loads(text)
            if obj.pop("manifest_sha256", None) != mhash:
                out.problems.append(f"{p.name}: missing manifest hash")
            bad = _nonfinite(obj)
            data.append(json.dumps(obj, sort_keys=True))
        if bad and p.name not in nan_ok:
            out.problems.append(f"{p.name}: non-finite value")
    out.numbers = "\n".join(data).encode()
    out.counts = {"cli.bytes_written": float(written)}
    return out


def _curve(name: str, call, S: int, reps: int, cells: int, zero: bool = False,
           store: Optional[str] = None) -> Request:
    def inspect(curve, ctx):
        if store:
            ctx[store] = curve
        return _curve_outcome(curve, S, zero)
    return Request(name, call, inspect, reps, {"kernels.cells": float(cells)})


def _irf_requests(lib, model: str, inputs: Inputs, sizes: Sizes, workdir: Path,
                  workload: str) -> List[Request]:
    """One series' requests (a function of its own so closures bind per model)."""
    cli = importlib.import_module("nlirf.cli")
    T, S, H = sizes.T, sizes.S, sizes.H
    y0, delta, mc = inputs.draws[model]
    s = lib.TimeSeries(inputs.series[model], origin=f"perfbench:{model}")
    r = lib.IrfRequest(y0=y0, horizons=H, delta=delta, S=S, seed=mc)
    one_sim = cells_direct(T, S, H)
    if workload == "direct_paths":
        zero = replace(r, delta=0.0)
        csv = inputs.csv[model]
        cfg = {"input": str(csv), "y0": y0, "horizons": H, "delta": delta, "S": S, "route": "direct"}
        out_dir = workdir / f"decompose_{model}"
        return [
            _curve(f"irf_direct[{model}]", lambda: lib.irf_direct(s, r), S, S * H, one_sim),
            _curve(f"irf_transformed[{model}]",
                   lambda: lib.irf_transformed(s, r, lib.Indicator(y0)), S, S * H, one_sim),
            _curve(f"irf_joint[{model}]", lambda: lib.irf_joint(s, r), S, S * H, one_sim),
            Request(f"decompose_direct_irf[{model}]", lambda: lib.decompose_direct_irf(s, r),
                    lambda d, ctx: _decomp_outcome(d), S * H, {"kernels.cells": float(one_sim)}),
            Request(f"cli_decompose[{model}]", lambda: cli.run("decompose", cfg, out_dir, inputs.cli_seed),
                    lambda p, ctx: _cli_outcome(p), S * H,
                    {"kernels.cells": float(2 * one_sim), "cli.bytes_read": float(csv.stat().st_size)}),
            _curve(f"irf_direct_zero_shock[{model}]", lambda: lib.irf_direct(s, zero), S, S * H,
                   one_sim, zero=True),
        ]
    else:
        h1 = replace(r, horizons=1)

        def h1_inspect(curve, ctx, key=f"lp:{model}"):
            out = _curve_outcome(curve, S)
            lp = ctx.get(key)
            if lp is None or curve.values[:1].tobytes() != lp.values[:1].tobytes():
                out.problems.append("direct and local projection differ at horizon one")
            return out

        return [
            _curve(f"irf_lp[{model}]", lambda: lib.irf_lp(s, r), S, S * H, cells_lp(T, 2 * S, H),
                   store=f"lp:{model}"),
            Request(f"decompose_lp_irf[{model}]", lambda: lib.decompose_lp_irf(s, r),
                    lambda d, ctx: _decomp_outcome(d), S * H, {"kernels.cells": float(cells_lp(T, S, H))}),
            Request(f"irf_direct_h1[{model}]", lambda: lib.irf_direct(s, h1), h1_inspect, S,
                    {"kernels.cells": float(cells_direct(T, S, 1))}),
        ]


def _cli_requests(lib, inputs: Inputs, sizes: Sizes, workdir: Path) -> List[Request]:
    cli = importlib.import_module("nlirf.cli")
    seed = inputs.cli_seed
    y0, delta, _ = inputs.draws["dar"]
    traj = workdir / "simulate" / "trajectory.csv"
    dar_model = {"variant": "dar1", **DAR}
    ar_model = {"variant": "gaussian_ar1", **AR}
    # the default QMLE lattice spans [0.01, 1.20] on each axis
    grid_n = int(round((1.20 - 0.01) / sizes.qmle_step)) + 1
    qmle_cfg = {"input": str(traj)}
    if sizes.qmle_step != 0.01:
        qmle_cfg["grid"] = {"lower": [0.01] * 3, "upper": [1.20] * 3, "step": [sizes.qmle_step] * 3}
    sweep_cfg = {
        "model": ar_model, "sample_sizes": list(sizes.sweep_sizes), "seeds_per_size": sizes.sweep_seeds,
        "target": {"kind": "irf", "h": 2, "delta": delta, "y0": y0, "S": sizes.sweep_S},
    }
    n_sweep = sizes.sweep_seeds * len(sizes.sweep_sizes)  # data sets; each runs 2 routes at h=2
    sweep_cells = sizes.sweep_seeds * sum(
        cells_direct(t, sizes.sweep_S, 2) + cells_lp(t, 2 * sizes.sweep_S, 2) for t in sizes.sweep_sizes)

    def run(sub, cfg):
        out = workdir / sub
        return lambda: cli.run(sub, cfg, out, seed)

    def qmle_inspect(paths, ctx):
        out = _cli_outcome(paths)
        est = json.loads(Path(paths[0]).read_text())
        for key in ("rho", "alpha", "beta"):
            if not abs(est[key] - DAR[key]) <= QMLE_TOL:
                out.problems.append(f"qmle {key}={est[key]} is not within {QMLE_TOL} of {DAR[key]}")
        return out

    def bench_inspect(paths, ctx):
        out = _cli_outcome(paths, nan_ok=("bench_cells.csv",))
        rows = Path(paths[0]).read_text().splitlines()[2:]
        out.counts["bench.cells"] = float(len(rows))
        out.counts["bench.failed_cells"] = float(sum(r.rsplit(",", 1)[1] == "nan" for r in rows))
        return out

    plain = lambda p, ctx: _cli_outcome(p)
    traj_bytes = lambda: float(traj.stat().st_size)
    return [
        Request("cli_simulate", run("simulate", {"model": dar_model, "T": sizes.sim_T, "y0": 0.2}), plain, 0,
                {"models.steps": float(sizes.sim_T), "kernels.cells": float(KDE_GRID * sizes.sim_T)}),
        Request("cli_qmle", run("qmle", qmle_cfg), qmle_inspect, 0,
                {"qmle.cells": float(grid_n * grid_n * (sizes.sim_T - 1)), "cli.bytes_read": traj_bytes}),
        Request("cli_markov_test", run("markov-test", {"input": str(traj), "B": sizes.markov_B}), plain, 0,
                {"identify.cells": 2.0 * (sizes.sim_T - 2) * (sizes.sim_T - 1), "cli.bytes_read": traj_bytes}),
        Request("cli_identify", run("identify", {"input": str(inputs.csv["mixing"])}), plain, 0,
                {"cli.bytes_read": float(inputs.csv["mixing"].stat().st_size)}),
        Request("cli_irf_true", run("irf", {"model": dar_model, "T": sizes.T, "y0": y0, "horizons": sizes.H,
                                            "deltas": [delta], "S": sizes.true_S, "routes": ["true"]}),
                plain, sizes.true_S * sizes.H,
                {"models.steps": float(sizes.T + 2 * sizes.true_S * sizes.H)}),
        Request("cli_bench", run("bench", sweep_cfg), bench_inspect, n_sweep * 2 * sizes.sweep_S * 2,
                {"models.steps": float(sizes.sweep_seeds * sum(sizes.sweep_sizes)),
                 "kernels.cells": float(sweep_cells)}),
    ]


def build_requests(lib, workload: str, inputs: Inputs, sizes: Sizes, workdir: Path) -> List[Request]:
    """The workload's fixed request list, in the order one pass sends it."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cli_diagnostics":
        return _cli_requests(lib, inputs, sizes, workdir)
    if workload in ("direct_paths", "local_projection"):
        return [req for model in ("dar", "ar")
                for req in _irf_requests(lib, model, inputs, sizes, workdir, workload)]
    raise ValueError(f"unknown workload {workload!r}")


def resolve_nominal(req: Request) -> Dict[str, float]:
    """Nominal counts, reading lazily sized inputs (files made earlier in a pass)."""
    return {k: (v() if callable(v) else v) for k, v in req.nominal.items()}


# ---------------------------------------------------------------------------
# accuracy panel
# ---------------------------------------------------------------------------

PANEL_ROUTES = {
    "direct_paths": ("direct",),
    "local_projection": ("local_projection",),
    "cli_diagnostics": ("direct", "local_projection"),
}


def oracle_panel(lib, seed: int, sizes: Sizes, routes: Sequence[str]):
    """Relative errors against closed forms over many independent series.

    Each of ``panel_series`` DAR(1) and AR(1) series gets one request at a
    seed-drawn (y0, delta) with two horizons; every output with a closed
    form (AR horizons 1-2, DAR horizon 1) contributes |est - exact|/|exact|.
    One series per request makes the errors independent, so their median
    is steady across seeds. Returns (errors, attempted, problems).
    """
    rng = substream(seed, STREAM["panel"])
    n, T = sizes.panel_series, sizes.T
    errors: List[float] = []
    problems: List[str] = []
    attempted = 0
    for model, paths, sd in (("dar", dar_paths, DAR_SD), ("ar", ar_paths, AR_SD)):
        data = paths(rng.standard_normal((n, T)), 0.0)
        draws = [(float(rng.uniform(-0.3 * sd, 0.3 * sd)), float(rng.uniform(0.25, 0.5)),
                  int(rng.integers(2**31))) for _ in range(n)]
        for k, (y0, delta, mc) in enumerate(draws):
            series = lib.TimeSeries(data[k], origin=f"perfbench:panel:{model}:{k}")
            req = lib.IrfRequest(y0=y0, horizons=2, delta=delta, S=sizes.panel_S, seed=mc)
            exact = exact_irf(model, y0, delta, 2)
            for route in routes:
                attempted += 1
                fn = lib.irf_direct if route == "direct" else lib.irf_lp
                try:
                    values = fn(series, req).values
                except Exception as exc:  # counted as a failed request
                    problems.append(f"panel {model}[{k}] {route}: {type(exc).__name__}: {exc}")
                    continue
                has = np.isfinite(exact)
                errors += list(np.abs(values[has] - exact[has]) / np.abs(exact[has]))
    return errors, attempted, problems


def digest(chunks: Sequence[bytes]) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(hashlib.sha256(c).digest())
    return h.hexdigest()[:16]
