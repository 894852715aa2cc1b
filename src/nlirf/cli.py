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
import dataclasses
import hashlib
import inspect
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ._checks import _finite, _instance, _integer, _nonempty_list, _object, _one_of
from .bench import CondCdfTarget, CondQuantileTarget, IrfTarget, SweepSpec, run_sweep
from .identify import markov_moment_test, recover_mixing
from .irf import _ROUTES, IrfRequest, _decomposition, _mean, _reduce, _route_irf, decompose_lp_irf
from .kernels import KernelConfig, _density, silverman_bandwidth
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

def _loadtxt(lines: List[str], fields: int) -> Optional[np.ndarray]:
    """The values of a valid file's data lines, read in one numpy pass, or None when the line
    loop must read them or name their error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=1,
                               dtype=[("t", np.int64), ("y", np.float64, (fields - 1,))])
    except Exception:
        return None
    t, y = table["t"], table["y"]
    # int64 differences wrap, so the first and last t are also compared as Python ints
    ok = len(t) >= 2 and np.isfinite(y).all() and (np.diff(t) == 1).all() and int(t[-1]) - int(t[0]) == len(t) - 1
    return y if ok else None


def ingest_csv(path) -> TimeSeries:
    """Read a series CSV with header ``t,y1[,y2,...]`` into a TimeSeries.

    Leading ``#`` comment lines are skipped; t must be consecutive
    ascending integers and all values finite. Errors name the offending
    line. The data lines of a valid file are read in one numpy pass;
    the line loop reads any other file and names its error.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"input file does not exist: {path}")
    rows: List[List[float]] = []
    header: Optional[List[str]] = None
    prev_t: Optional[int] = None
    with open(path, "r", newline="") as fh:
        lines = fh.readlines()
        for lineno, raw in enumerate(lines, start=1):
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
                values = _loadtxt(lines[lineno:], len(header)) if len(header) > 1 else None
                if values is not None:
                    return TimeSeries(values=values, origin=str(path))
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

    def _open(self, name: str):
        path = self.out_dir / name
        self.paths.append(path)
        return _create(path)

    def csv(self, name: str, header: str, rows) -> None:
        with self._open(name) as fh:
            fh.write(f"# manifest: {self.mhash}\n{header}\n")
            for row in rows:
                fh.write(",".join(row) + "\n")

    def json(self, name: str, obj: Dict) -> None:
        with self._open(name) as fh:
            fh.write(json.dumps({**obj, "manifest_sha256": self.mhash}, sort_keys=True, indent=2) + "\n")


def _load_series(config: Dict) -> TimeSeries:
    """A series either ingested from CSV or simulated from a model spec."""
    if "input" in config:
        return ingest_csv(config["input"])
    return simulate(model_from_json(config["model"]), T=config["T"], y0=config["y0_sim"], seed=config["sim_seed"],
                    burn_in=config["burn_in"])


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _run_simulate(config: Dict, seed: int, w: _Writer) -> None:
    model = model_from_json(config["model"])
    series = simulate(model, T=config["T"], y0=config["y0"], seed=seed, burn_in=config["burn_in"])
    cols = ",".join(f"y{i + 1}" for i in range(series.n))
    w.csv(
        "trajectory.csv",
        f"t,{cols}",
        ([str(t + 1)] + [_fmt(v) for v in series.values[t]] for t in range(series.T)),
    )
    if series.n == 1:
        y = series.y
        b = silverman_bandwidth(y)
        grid = np.linspace(y.min() - 3 * b, y.max() + 3 * b, config["density_grid"])
        dens = _density(y, grid, b, "gaussian")  # the kde of y at each grid point
        w.csv("density.csv", "y,density", ([_fmt(g), _fmt(d)] for g, d in zip(grid, dens)))


def _run_qmle(config: Dict, seed: int, w: _Writer) -> None:
    grid = GridSpec(**config["grid"])  # a bad grid fails before the input is read
    res = qmle_grid_search(ingest_csv(config["input"]), grid)
    w.json("qmle.json", {**dataclasses.asdict(res.params), "loglik": res.loglik,
                         "grid_argmax_on_boundary": res.grid_argmax_on_boundary})


def _run_irf(config: Dict, seed: int, w: _Writer) -> None:
    cfg = KernelConfig.from_json_obj(config["kernel"])
    model = model_from_json(config["model"]) if "model" in config else None
    reqs: Dict[str, IrfRequest] = {}
    for delta in config["deltas"]:
        name = f"irf_delta_{delta:g}.csv"
        if name in reqs:
            raise ValueError(f"irf: deltas {reqs[name].delta!r} and {delta!r} would both write {name}")
        reqs[name] = IrfRequest(y0=config["y0"], horizons=config["horizons"], delta=delta, S=config["S"], cfg=cfg,
                                seed=seed)
    # only the estimators read the series: a model with only the true route simulates nothing
    series = _load_series(config) if set(config["routes"]) - {"true"} else None
    for name, req in reqs.items():
        rows = []
        for route in config["routes"]:
            if route == "true":
                curve = true_irf(model, y0=req.y0, h=req.horizons, delta=req.delta, S=req.S, seed=seed + 1)
            else:
                curve = _route_irf(series, req, route)
            for h in range(1, req.horizons + 1):
                rows.append([
                    str(h), route, _fmt(req.delta), _fmt(curve.values[h - 1]),
                    _fmt(curve.mc_se[h - 1]), str(curve.meta["rejected"][h - 1]),
                ])
        w.csv(name, "horizon,route,delta,value,mc_se,rejected_reps", rows)


def _run_decompose(config: Dict, seed: int, w: _Writer) -> None:
    cfg = KernelConfig.from_json_obj(config["kernel"])
    req = IrfRequest(y0=config["y0"], horizons=config["horizons"], delta=config["delta"], S=config["S"], cfg=cfg,
                     seed=seed)
    route, J = config["route"], config["J"]
    # one simulation, and on the local projection one fit, feeds both reductions
    sim = _ROUTES[route](_load_series(config), req)
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
    est = recover_mixing(ingest_csv(config["input"]), max_lag=config["max_lag"])
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
    res = markov_moment_test(ingest_csv(config["input"]), block_len=config["block_len"], B=config["B"], seed=seed,
                             level=config["level"])
    fields = ("statistic", "critical_value", "reject", "level", "bootstrap_reps", "block_length")
    w.json("markov_test.json", {"moments": res.moments.tolist(), **{k: getattr(res, k) for k in fields}})


_TARGETS = {"cond_cdf": CondCdfTarget, "cond_quantile": CondQuantileTarget, "irf": IrfTarget}


def _run_bench(config: Dict, seed: int, w: _Writer) -> None:
    target = {k: tuple(v) if isinstance(v, list) else v for k, v in config["target"].items() if k != "kind"}
    spec = SweepSpec(
        model=model_from_json(config["model"]),
        sample_sizes=tuple(config["sample_sizes"]),
        seeds_per_size=config["seeds_per_size"],
        target=_TARGETS[config["target"]["kind"]](**target),
        cfg=KernelConfig.from_json_obj(config["kernel"]),
        y0_sim=config["y0_sim"],
    )
    report = run_sweep(spec, master_seed=seed)
    tname = config["target"]["kind"]
    w.csv(
        "bench_cells.csv",
        "T,seed,route,target,estimate,oracle,abs_err",
        (
            [str(c.T), str(c.seed_index), c.route, tname,
             _fmt(c.estimate), _fmt(c.oracle),
             _fmt(c.abs_err)]
            for c in report.cells
        ),
    )
    summary = []
    for (T, route), rmse in sorted(report.rmse.items()):
        summary.append([str(T), route, "rmse", _fmt(rmse)])
    for route, slope in sorted(report.slope.items()):
        summary.append(["", route, "loglog_slope", _fmt(slope)])
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


# a key's entry in a subcommand's schema: required, or its default
_REQUIRED = object()

# the keys irf and decompose share: the request, and by series source a CSV read from 'input' or a series simulated
# from 'model' (sim_seed defaults to the subcommand's derived seed); only a model gives irf the 'true' route
_IRF_KEYS = {"y0": _REQUIRED, "horizons": _REQUIRED, "S": IrfRequest.S, "kernel": KernelConfig().to_json_obj()}
_SIMULATED = {"model": _REQUIRED, "T": _REQUIRED, "y0_sim": 0.0, "burn_in": _default(simulate, "burn_in")}
_SOURCES = {"irf": {"input": {"input": _REQUIRED, "routes": list(_ROUTES)},
                    "model": {**_SIMULATED, "routes": ["true", *_ROUTES]}},
            "decompose": {"input": {"input": _REQUIRED}, "model": _SIMULATED}}

_SCHEMA = {
    "simulate": {"model": _REQUIRED, "T": _REQUIRED, "y0": _REQUIRED, "burn_in": _default(simulate, "burn_in"),
                 "density_grid": 201},
    "qmle": {"input": _REQUIRED, "grid": dataclasses.asdict(DEFAULT_GRID)},
    "irf": {**_IRF_KEYS, "deltas": _REQUIRED},
    "decompose": {**_IRF_KEYS, "delta": _REQUIRED, "J": _default(decompose_lp_irf, "J"), "route": "direct"},
    "identify": {"input": _REQUIRED, "max_lag": _default(recover_mixing, "max_lag")},
    # block_len defaults to ceil(T^(1/3)), left null here because it
    # depends on the data; the verdict JSON records the value used
    "markov-test": {"input": _REQUIRED, "block_len": _default(markov_moment_test, "block_len"),
                    "B": _default(markov_moment_test, "B"), "level": _default(markov_moment_test, "level")},
    "bench": {"model": _REQUIRED, "sample_sizes": _REQUIRED, "seeds_per_size": _REQUIRED, "target": _REQUIRED,
              "kernel": KernelConfig().to_json_obj(), "y0_sim": SweepSpec.y0_sim},
}
_GRID = dict.fromkeys(("lower", "upper", "step"), _REQUIRED)


def _check(where: str, obj, schema: Dict, kinds: bool = True) -> Dict:
    """``obj`` checked against ``schema`` (its values by kind, if ``kinds``), with fresh copies of missing defaults."""
    _object(where, obj)
    extra = set(obj) - set(schema)
    if extra:
        raise ValueError(f"{where}: unknown config keys {sorted(extra)}")
    missing = [k for k, v in schema.items() if v is _REQUIRED and k not in obj]
    if missing:
        raise ValueError(f"{where}: missing config keys {sorted(missing)}")
    defaults = {k: v for k, v in schema.items() if k not in obj and v is not _REQUIRED}
    out = {**json.loads(json.dumps(defaults)), **obj}  # the JSON round trip copies and turns tuples into lists
    if kinds:
        for key, value in out.items():
            _KINDS[key](key, value)
    return out


# the kinds of value a key may hold; each raises a ValueError that names the key
_KINDS = {
    **dict.fromkeys(("T", "burn_in", "density_grid", "horizons", "S", "sim_seed", "max_lag", "B",
                     "seeds_per_size"), _integer),
    "J": lambda key, value: _integer(key, value, 1),
    "block_len": lambda key, value: value is None or _integer(key, value),
    **dict.fromkeys(("y0_sim", "delta", "level"), _finite),
    # a model state, or the QMLE grid's step on every axis or per axis: a finite real or a list of them
    **dict.fromkeys(("y0", "step"), lambda key, value: (
        _nonempty_list(_finite) if isinstance(value, (list, tuple)) else _finite)(key, value)),
    **dict.fromkeys(("deltas", "lower", "upper"), _nonempty_list(_finite)),
    "sample_sizes": _nonempty_list(_integer),
    "routes": _nonempty_list(_one_of(["true", *_ROUTES])),
    "route": _one_of(list(_ROUTES)),
    **dict.fromkeys(("model", "kernel", "target"), _object),
    "grid": lambda key, value: _check(f"qmle.{key}", value, _GRID),
    "input": _instance(str, "a file path"),
}


def _resolve(subcommand: str, config: Dict, master_seed: int) -> Dict:
    """The config checked against the subcommand's schema, key by key and by kind, with its defaults filled in.

    Nothing is read or simulated, so a bad config fails before anything runs. The manifest echoes the result, and
    resolving is idempotent, so rerunning from an emitted manifest reproduces the same resolved config and
    therefore the same manifest hash and artifacts.
    """
    schema = _SCHEMA[subcommand]
    if subcommand in _SOURCES:  # the series source picks the rest of the keys: a key of the other one is unknown
        source = "model" if "model" in _object(subcommand, config) else "input"
        derived = {"sim_seed": derive_seed(master_seed, subcommand)} if source == "model" else {}
        schema = {**schema, **_SOURCES[subcommand][source], **derived}
    cfg = _check(subcommand, config, schema)
    if subcommand == "irf" and "true" in cfg["routes"] and "model" not in cfg:
        raise ValueError("irf: the 'true' route needs a 'model'")
    if subcommand == "bench":  # the target's keys depend on its kind; its values are checked by its class
        kind = cfg["target"].get("kind")
        _one_of(list(_TARGETS))("kind", kind)
        fields = {f.name: _REQUIRED if f.default is dataclasses.MISSING else f.default
                  for f in dataclasses.fields(_TARGETS[kind])}
        cfg["target"] = _check("bench.target", cfg["target"], {"kind": _REQUIRED, **fields}, kinds=False)
    return cfg


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run(subcommand: str, config: Dict, out_dir, master_seed: int) -> List[Path]:
    """Execute one subcommand; returns the artifact paths (manifest last)."""
    if subcommand not in _RUNNERS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    resolved = _resolve(subcommand, config, master_seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "subcommand": subcommand,
        "seed": int(master_seed),
        "config": resolved,
    }
    mhash = _manifest_hash(manifest)
    w = _Writer(out, mhash)
    _RUNNERS[subcommand](dict(resolved), derive_seed(master_seed, subcommand), w)
    w.json("manifest.json", manifest)
    return w.paths


def _load_config(path: Optional[str], subcommand: str):
    """Load a config or manifest file; returns (config, seed hint)."""
    if path is None:
        return {}, None
    with open(path) as fh:
        obj = json.load(fh)
    _object("config", obj)
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
