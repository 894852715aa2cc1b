"""Command-line experiment driver with manifest-based reproducibility.

Subcommands: ``simulate``, ``qmle``, ``irf``, ``decompose``, ``identify``,
``markov-test``, ``bench``. Each reads a JSON config (``--config``),
writes plot-ready CSV/JSON artifacts into ``--out``, and emits a
``manifest.json`` echoing the fully resolved config, the master seed and
a content hash, so every artifact can be regenerated bitwise from the
manifest alone (a manifest is itself a valid config file).

Reproducibility conventions:

* one master seed (``--seed`` or the config's ``seed`` key); every
  subcommand derives its own substream through the fixed counter codes
  in ``SUBCOMMAND_STREAM``, so adding a subcommand never perturbs the
  draws of another;
* every CSV starts with a ``# manifest: <hash>`` comment line; JSON
  artifacts embed the same hash under ``"manifest_sha256"`` (JSON has no
  comments);
* numbers are printed with 17 significant digits, enough to round-trip
  doubles exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .bench import CondCdfTarget, CondQuantileTarget, IrfTarget, SweepSpec, run_sweep
from .identify import markov_moment_test, recover_mixing
from .irf import (IrfRequest, _decomposition, _lp_paths, _mean, _reduce, decompose_lp_irf, irf_direct, irf_lp,
                  simulate_paths)
from .kernels import KernelConfig, _density, _integer, silverman_bandwidth
from .models import TimeSeries, model_from_json, simulate, true_irf
from .qmle import DEFAULT_GRID, GridSpec, qmle_grid_search

__all__ = ["main", "run", "ingest_csv", "FORMAT_VERSION", "SUBCOMMAND_STREAM"]

FORMAT_VERSION = "1"

# fixed per-subcommand seed-substream codes (never renumber, only append)
SUBCOMMAND_STREAM = {
    "simulate": 1,
    "qmle": 2,
    "irf": 3,
    "decompose": 4,
    "identify": 5,
    "markov-test": 6,
    "bench": 7,
}


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def derive_seed(master_seed: int, subcommand: str) -> int:
    code = SUBCOMMAND_STREAM[subcommand]
    return int(np.random.SeedSequence([master_seed, code]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def ingest_csv(path) -> TimeSeries:
    """Read a series CSV with header ``t,y1[,y2,...]`` into a TimeSeries.

    Leading ``#`` comment lines are skipped; t must be consecutive
    ascending integers and all values finite. Errors name the offending
    line.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"input file does not exist: {path}")
    rows: List[List[float]] = []
    header: Optional[List[str]] = None
    prev_t: Optional[int] = None
    with open(path, "r", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if header is None:
                expected = ["t"] + [f"y{i}" for i in range(1, len(parts))]
                if parts != expected:
                    raise ValueError(
                        f"line {lineno}: header must be 't,y1[,y2,...]', got {line!r}"
                    )
                header = parts
                continue
            if len(parts) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(parts)}")
            try:
                t = int(parts[0])
                vals = [float(p) for p in parts[1:]]
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric entry in {line!r}") from None
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"line {lineno}: non-finite value in {line!r}")
            if prev_t is not None and t != prev_t + 1:
                raise ValueError(f"line {lineno}: time index {t} does not follow {prev_t}")
            prev_t = t
            rows.append(vals)
    if header is None or not rows:
        raise ValueError(f"{path}: empty series")
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 observations")
    return TimeSeries(values=np.asarray(rows), origin=str(path))


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _require_keys(obj: Dict, allowed: set, required: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"{where}: unknown config keys {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"{where}: missing config keys {sorted(missing)}")


def _manifest_hash(manifest: Dict) -> str:
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _create(path: Path):
    """``path`` opened for writing as a new file.

    An old file there is unlinked first: truncating a just-written file instead makes the
    file system flush its delayed blocks, which stalls a rerun into the same directory.
    """
    path.unlink(missing_ok=True)
    return open(path, "w", newline="")


class _Writer:
    """Writes artifacts stamped with the manifest hash."""

    def __init__(self, out_dir: Path, mhash: str) -> None:
        self.out_dir = out_dir
        self.mhash = mhash
        self.paths: List[Path] = []

    def csv(self, name: str, header: str, rows) -> Path:
        path = self.out_dir / name
        with _create(path) as fh:
            fh.write(f"# manifest: {self.mhash}\n")
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        self.paths.append(path)
        return path

    def json(self, name: str, obj: Dict) -> Path:
        path = self.out_dir / name
        payload = dict(obj)
        payload["manifest_sha256"] = self.mhash
        with _create(path) as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2))
            fh.write("\n")
        self.paths.append(path)
        return path


def _kernel_config(obj: Optional[Dict]) -> KernelConfig:
    if obj is None:
        return KernelConfig()
    return KernelConfig.from_json_obj(obj)


def _load_series(config: Dict, where: str) -> TimeSeries:
    """A series either ingested from CSV or simulated from a model spec."""
    if "input" in config and "model" in config:
        raise ValueError(f"{where}: give either 'input' or 'model', not both")
    if "input" in config:
        return ingest_csv(config["input"])
    if "model" in config:
        model = model_from_json(config["model"])
        return simulate(
            model,
            T=_integer("T", config["T"]),
            y0=config.get("y0_sim", 0.0),
            seed=_integer("sim_seed", config["sim_seed"]),
            burn_in=_integer("burn_in", config.get("burn_in", 0)),
        )
    raise ValueError(f"{where}: needs an 'input' CSV or a 'model' to simulate")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _run_simulate(config: Dict, seed: int, w: _Writer) -> None:
    _require_keys(config, {"model", "T", "y0", "burn_in", "density_grid"}, {"model", "T", "y0"}, "simulate")
    model = model_from_json(config["model"])
    series = simulate(
        model,
        T=_integer("T", config["T"]),
        y0=config["y0"],
        seed=seed,
        burn_in=_integer("burn_in", config.get("burn_in", 0)),
    )
    cols = ",".join(f"y{i + 1}" for i in range(series.n))
    w.csv(
        "trajectory.csv",
        f"t,{cols}",
        ([str(t + 1)] + [_fmt(v) for v in series.values[t]] for t in range(series.T)),
    )
    if series.n == 1:
        y = series.y
        b = silverman_bandwidth(y)
        grid = np.linspace(y.min() - 3 * b, y.max() + 3 * b, _integer("density_grid", config["density_grid"]))
        dens = _density(y, grid, b, "gaussian")  # the kde of y at each grid point
        w.csv("density.csv", "y,density", ([_fmt(g), _fmt(d)] for g, d in zip(grid, dens)))


def _run_qmle(config: Dict, seed: int, w: _Writer) -> None:
    _require_keys(config, {"input", "grid"}, {"input"}, "qmle")
    series = ingest_csv(config["input"])
    if "grid" in config:
        g = config["grid"]
        _require_keys(g, {"lower", "upper", "step"}, {"lower", "upper", "step"}, "qmle.grid")
        grid = GridSpec(lower=tuple(g["lower"]), upper=tuple(g["upper"]), step=g["step"])
    else:
        grid = DEFAULT_GRID
    res = qmle_grid_search(series, grid)
    w.json(
        "qmle.json",
        {
            "rho": res.params.rho,
            "alpha": res.params.alpha,
            "beta": res.params.beta,
            "loglik": res.loglik,
            "grid_argmax_on_boundary": res.grid_argmax_on_boundary,
        },
    )


_SERIES_KEYS = {"input", "model", "T", "y0_sim", "sim_seed", "burn_in"}


def _run_irf(config: Dict, seed: int, w: _Writer) -> None:
    allowed = _SERIES_KEYS | {"y0", "horizons", "deltas", "S", "kernel", "routes"}
    _require_keys(config, allowed, {"y0", "horizons", "deltas"}, "irf")
    routes = config["routes"]
    # only the estimators read the series: a model with only the true route
    # simulates nothing (an 'input' is still loaded and checked against 'model')
    series = _load_series(config, "irf") if set(routes) - {"true"} or "input" in config else None
    cfg = _kernel_config(config.get("kernel"))
    bad_routes = set(routes) - {"true", "direct", "local_projection"}
    if bad_routes:
        raise ValueError(f"irf: unknown routes {sorted(bad_routes)}")
    model = model_from_json(config["model"]) if "model" in config else None
    if "true" in routes and model is None:
        raise ValueError("irf: the 'true' route needs a 'model'")
    artifacts: Dict[str, float] = {}
    for delta in config["deltas"]:
        name = f"irf_delta_{delta:g}.csv"
        if name in artifacts:
            raise ValueError(f"irf: deltas {artifacts[name]!r} and {delta!r} would both write {name}")
        artifacts[name] = delta
    H = _integer("horizons", config["horizons"])
    S = _integer("S", config["S"])
    for name, delta in artifacts.items():
        rows = []
        for route in routes:
            if route == "true":
                curve = true_irf(model, y0=config["y0"], h=H, delta=delta, S=S, seed=seed + 1)
                rejected = [0] * H
            else:
                req = IrfRequest(
                    y0=float(config["y0"]), horizons=H, delta=float(delta), S=S, cfg=cfg, seed=seed,
                )
                curve = (irf_direct if route == "direct" else irf_lp)(series, req)
                rejected = curve.meta["rejected"]
            for h in range(1, H + 1):
                rows.append([
                    str(h), route, _fmt(delta), _fmt(curve.values[h - 1]),
                    _fmt(curve.mc_se[h - 1]), str(rejected[h - 1]),
                ])
        w.csv(name, "horizon,route,delta,value,mc_se,rejected_reps", rows)


def _run_decompose(config: Dict, seed: int, w: _Writer) -> None:
    allowed = _SERIES_KEYS | {"y0", "horizons", "delta", "S", "J", "kernel", "route"}
    _require_keys(config, allowed, {"y0", "horizons", "delta"}, "decompose")
    series = _load_series(config, "decompose")
    cfg = _kernel_config(config.get("kernel"))
    route = config["route"]
    if route not in ("direct", "local_projection"):
        raise ValueError(f"decompose: unknown route {route!r}")
    req = IrfRequest(  # checks that horizons and S are integers
        y0=float(config["y0"]),
        horizons=config["horizons"],
        delta=float(config["delta"]),
        S=config["S"],
        cfg=cfg,
        seed=seed,
    )
    J = _integer("J", config["J"])
    # one simulation, and on the local projection one fit, feeds both reductions
    sim = (simulate_paths if route == "direct" else _lp_paths)(series, req)
    decs, estimated = _decomposition(sim, req, J), _reduce(sim, req, route, _mean(sim.shock - sim.base))
    rows = []
    for dec in decs:
        h = str(dec.horizon)
        d = _fmt(dec.delta)
        for j in range(1, J + 1):
            rows.append([h, d, str(j), _fmt(dec.coefficients[j]), _fmt(dec.contributions[j - 1])])
        rows.append([h, d, "linear", "", _fmt(dec.linear_part)])
        rows.append([h, d, "nonlinear", "", _fmt(dec.nonlinear_part)])
        rows.append([h, d, "total", "", _fmt(dec.reconstructed_total)])
        rows.append([h, d, "estimated_irf", "", _fmt(estimated.values[dec.horizon - 1])])
    w.csv("decompose.csv", "h,delta,degree,coefficient,contribution", rows)


def _run_identify(config: Dict, seed: int, w: _Writer) -> None:
    _require_keys(config, {"input", "max_lag"}, {"input"}, "identify")
    series = ingest_csv(config["input"])
    est = recover_mixing(series, max_lag=_integer("max_lag", config["max_lag"]))
    w.json(
        "identify.json",
        {
            "candidates": [c.tolist() for c in est.candidates],
            "chosen": est.chosen,
            "residual_norm": est.residual_norm,
            "regression_coefficients": list(est.regression_coefficients),
        },
    )


def _run_markov_test(config: Dict, seed: int, w: _Writer) -> None:
    _require_keys(config, {"input", "block_len", "B", "level"}, {"input"}, "markov-test")
    series = ingest_csv(config["input"])
    res = markov_moment_test(series, block_len=config["block_len"], B=config["B"], seed=seed,
                             level=float(config["level"]))
    fields = ("statistic", "critical_value", "reject", "level", "bootstrap_reps", "block_length")
    w.json("markov_test.json", {"moments": res.moments.tolist(), **{k: getattr(res, k) for k in fields}})


def _parse_target(obj: Dict):
    kind = obj.get("kind")
    if kind == "cond_cdf":
        _require_keys(obj, {"kind", "z", "y"}, {"z", "y"}, "bench.target")
        return CondCdfTarget(z=float(obj["z"]), y=float(obj["y"]))
    if kind == "cond_quantile":
        _require_keys(obj, {"kind", "alpha", "y"}, {"alpha", "y"}, "bench.target")
        return CondQuantileTarget(alpha=float(obj["alpha"]), y=float(obj["y"]))
    if kind == "irf":
        _require_keys(obj, {"kind", "h", "delta", "y0", "S", "routes"}, {"h", "delta", "y0"}, "bench.target")
        return IrfTarget(  # checks that h and S are integers
            h=obj["h"], delta=float(obj["delta"]), y0=float(obj["y0"]),
            S=obj.get("S", IrfTarget.S), routes=tuple(obj.get("routes", IrfTarget.routes)),
        )
    raise ValueError(f"bench.target: unknown kind {kind!r}")


def _run_bench(config: Dict, seed: int, w: _Writer) -> None:
    _require_keys(
        config,
        {"model", "sample_sizes", "seeds_per_size", "target", "kernel", "y0_sim"},
        {"model", "sample_sizes", "seeds_per_size", "target"},
        "bench",
    )
    spec = SweepSpec(
        model=model_from_json(config["model"]),
        sample_sizes=tuple(_integer("sample_sizes", t) for t in config["sample_sizes"]),
        seeds_per_size=_integer("seeds_per_size", config["seeds_per_size"]),
        target=_parse_target(config["target"]),
        cfg=_kernel_config(config.get("kernel")),
        y0_sim=float(config.get("y0_sim", 0.0)),
    )
    report = run_sweep(spec, master_seed=seed)
    tname = config["target"].get("kind", "target")
    w.csv(
        "bench_cells.csv",
        "T,seed,route,target,estimate,oracle,abs_err",
        (
            [str(c.T), str(c.seed_index), c.route, tname,
             _fmt(c.estimate), _fmt(c.oracle),
             _fmt(c.abs_err) if c.error is None else "nan"]
            for c in report.cells
        ),
    )
    summary = []
    for (T, route), rmse in sorted(report.rmse.items()):
        summary.append([str(T), route, "rmse", _fmt(rmse)])
    for route, slope in sorted(report.slope.items()):
        summary.append(["", route, "loglog_slope", _fmt(slope) if not math.isnan(slope) else "nan"])
    for T, ratio in sorted(report.direct_lp_ratio.items()):
        summary.append([str(T), "", "direct_lp_rmse_ratio", _fmt(ratio)])
    w.csv("bench_summary.csv", "T,route,quantity,value", summary)


_RUNNERS = {
    "simulate": _run_simulate,
    "qmle": _run_qmle,
    "irf": _run_irf,
    "decompose": _run_decompose,
    "identify": _run_identify,
    "markov-test": _run_markov_test,
    "bench": _run_bench,
}


def _default(fn, name: str):
    """The library's default for parameter ``name`` of ``fn``."""
    return inspect.signature(fn).parameters[name].default


_DEFAULT_GRID_JSON = {k: [float(v) for v in getattr(DEFAULT_GRID, k)] for k in ("lower", "upper", "step")}


def _resolve(subcommand: str, config: Dict, master_seed: int) -> Dict:
    """Fill defaults into the config so the manifest echoes what actually ran.

    Idempotent, so rerunning from an emitted manifest reproduces the same
    resolved config and therefore the same manifest hash and artifacts.
    """
    cfg = dict(config)
    if subcommand in ("irf", "decompose", "bench"):
        cfg.setdefault("kernel", KernelConfig().to_json_obj())
    if subcommand in ("irf", "decompose"):
        cfg.setdefault("S", IrfRequest.S)
        if "model" in cfg:
            cfg.setdefault("sim_seed", derive_seed(master_seed, subcommand))
            cfg.setdefault("y0_sim", 0.0)
            cfg.setdefault("burn_in", 0)
    if subcommand == "simulate":
        cfg.setdefault("burn_in", 0)
        cfg.setdefault("density_grid", 201)
    elif subcommand == "qmle":
        cfg.setdefault("grid", dict(_DEFAULT_GRID_JSON))
    elif subcommand == "irf":
        cfg.setdefault("routes", ["true", "direct", "local_projection"] if "model" in cfg
                       else ["direct", "local_projection"])
    elif subcommand == "decompose":
        cfg.setdefault("J", _default(decompose_lp_irf, "J"))
        cfg.setdefault("route", "direct")
    elif subcommand == "identify":
        cfg.setdefault("max_lag", _default(recover_mixing, "max_lag"))
    elif subcommand == "markov-test":
        cfg.setdefault("B", _default(markov_moment_test, "B"))
        cfg.setdefault("level", _default(markov_moment_test, "level"))
        # block_len defaults to ceil(T^(1/3)), left null here because it
        # depends on the data; the verdict JSON records the value used
        cfg.setdefault("block_len", None)
    elif subcommand == "bench":
        cfg.setdefault("y0_sim", 0.0)
        if isinstance(cfg.get("target"), dict) and cfg["target"].get("kind") == "irf":
            target = dict(cfg["target"])
            target.setdefault("S", IrfTarget.S)
            target.setdefault("routes", list(IrfTarget.routes))
            cfg["target"] = target
    return cfg


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(subcommand: str, config: Dict, out_dir, master_seed: int) -> List[Path]:
    """Execute one subcommand; returns the artifact paths (manifest last)."""
    if subcommand not in _RUNNERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = _resolve(subcommand, config, master_seed)
    manifest = {
        "format_version": FORMAT_VERSION,
        "subcommand": subcommand,
        "seed": int(master_seed),
        "config": resolved,
    }
    mhash = _manifest_hash(manifest)
    w = _Writer(out, mhash)
    _RUNNERS[subcommand](dict(resolved), derive_seed(master_seed, subcommand), w)
    manifest_path = out / "manifest.json"
    with _create(manifest_path) as fh:
        fh.write(json.dumps({**manifest, "manifest_sha256": mhash}, sort_keys=True, indent=2))
        fh.write("\n")
    w.paths.append(manifest_path)
    return w.paths


def _load_config(path: Optional[str], subcommand: str):
    """Load a config or manifest file; returns (config, seed hint)."""
    if path is None:
        return {}, None
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    if "format_version" in obj:  # a manifest: unwrap and cross-check
        if obj.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unrecognized format_version {obj.get('format_version')!r}")
        if obj.get("subcommand") != subcommand:
            raise ValueError(
                f"manifest was produced by {obj.get('subcommand')!r}, not {subcommand!r}"
            )
        return obj["config"], obj.get("seed")
    config = dict(obj)
    return config, config.pop("seed", None)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlirf",
        description="Nonlinear impulse responses: simulation, estimation, decomposition.",
    )
    parser.add_argument("subcommand", choices=sorted(_RUNNERS))
    parser.add_argument("--config", help="JSON config file (or a previously emitted manifest)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        config, seed_hint = _load_config(args.config, args.subcommand)
        seed = args.seed if args.seed is not None else (seed_hint if seed_hint is not None else 0)
        paths = run(args.subcommand, config, args.out, _integer("seed", seed))
    except Exception as exc:  # single-line machine-parsable failure
        msg = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 1
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
