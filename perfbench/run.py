"""nlirf benchmark: closed-loop workloads over the library's public entry points.

Usage, from the repository root:

    python3 perfbench/run.py --workload direct_paths --seed 1 --seconds 20 --trace 0

One client sends the workload's fixed request list again and again, each
request as soon as the previous one returns, until ``--seconds`` have passed
(at least two passes). With ``--trace 0`` it prints the end-to-end metrics:

* ``run_s``: one pass of the request list, as the sum of each request's
  median latency over the passes;
* ``request_p50_s``: the median of those per-request medians;
* ``rep_horizons_per_s``: S*H summed over the requests that simulate paired
  paths, divided by the sum of their median latencies;
* ``peak_rss_mb``: peak resident set of this process over set-up and passes;
* ``oracle_rel_err``: median |estimate - exact| / |exact| over the accuracy
  panel (see ``workloads.oracle_panel``), run once after the passes;
* ``setup_s``: median over this process and two fresh ones of the time to
  import the library, make the inputs and run the warm-up pass.

With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of the traced ones, per pass. Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record (environment,
checks, digests, span summary) is written under ``.perfbench/results``.

The library is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("direct_paths", "local_projection", "cli_diagnostics")

END_TO_END = {
    "run_s": "s",
    "request_p50_s": "s",
    "rep_horizons_per_s": "1/s",
    "peak_rss_mb": "MB",
    "oracle_rel_err": "ratio",
    "setup_s": "s",
}
PER_LAYER = {
    "kernels.self_s": "s",
    "kernels.calls": "count",
    "kernels.cells": "count",
    "kernels.ns_per_cell": "ns",
    "kernels.bandwidth_calls": "count",
    "irf.self_s": "s",
    "irf.path_sims": "count",
    "irf.rejected_frac": "ratio",
    "hermite.self_s": "s",
    "hermite.calls": "count",
    "models.self_s": "s",
    "models.steps": "count",
    "models.ns_per_step": "ns",
    "models.transition_calls": "count",
    "qmle.self_s": "s",
    "qmle.cells": "count",
    "qmle.ns_per_cell": "ns",
    "identify.self_s": "s",
    "identify.cells": "count",
    "bench.self_s": "s",
    "bench.failed_cells_ratio": "ratio",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.bytes_read": "B",
    "trace.overhead_ratio": "ratio",
}
SETUP_SAMPLES = 3  # this process plus two fresh ones; setup_s is their median
SUBPROCESS_TIMEOUT_S = 120


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads() -> None:
    """Cap BLAS/OpenMP threads at the usable CPUs; call before importing numpy."""
    n = usable_cpus()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= n:
            os.environ[var] = str(n)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_sha():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    import hashlib
    h = hashlib.sha256()
    for p in sorted((SRC / "nlirf").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def blas_info():
    import numpy as np
    info = {"name": None, "version": None, "threads": None,
            "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    # ask the loaded OpenBLAS itself how many threads it runs
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and l.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def cache_sizes():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return out


def environment():
    import numpy as np
    import scipy
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": usable_cpus(),
        "machine": platform.machine(),
        "cpu_caches": cache_sizes(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def import_library():
    sys.path.insert(0, str(SRC))
    import nlirf
    import nlirf.cli  # noqa: F401  (makes nlirf.cli an attribute of the package)
    if Path(nlirf.__file__).resolve().parent != (SRC / "nlirf").resolve():
        raise RuntimeError(f"imported nlirf from {nlirf.__file__}, not from {SRC}")
    return nlirf


def setup(workload: str, seed: int, workdir: Path):
    """Import the library, make the inputs and run one warm-up pass."""
    lib = import_library()
    import workloads as wl
    inputs = wl.make_inputs(seed, wl.FULL, workdir / "inputs")
    warm = wl.build_requests(lib, workload, inputs, wl.WARM, workdir / "warm")
    run_pass(warm, None)
    return lib, inputs


def run_pass(requests, tracer):
    """Send every request once, in order; returns one record per request."""
    import workloads as wl
    from tracer import CLIENT
    ctx = {}
    records = []
    if tracer is not None:
        tracer.install()
    try:
        for i, req in enumerate(requests):
            nominal = wl.resolve_nominal(req)
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.request = i
                    with tracer.span(CLIENT, req.name):
                        result = req.call()
                else:
                    result = req.call()
                latency = time.perf_counter() - t0
                outcome = req.inspect(result, ctx)
            except Exception as exc:  # a failing request is counted, not fatal
                latency = time.perf_counter() - t0
                outcome = wl.Outcome(problems=[f"{type(exc).__name__}: {exc}"])
            records.append({"name": req.name, "latency": latency, "problems": outcome.problems,
                            "numbers": outcome.numbers, "counts": {**nominal, **outcome.counts}})
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def setup_probe_times(args, n: int):
    """Set-up time of ``n`` fresh processes running the same set-up."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
                              cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        out.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, passes, traced_flags):
    traced = [p for p, t in zip(passes, traced_flags) if t]
    plain = [p for p, t in zip(passes, traced_flags) if not t]
    n = len(traced)
    agg = {k: v / n for k, v in tracer.summary().items()}
    counts = {}
    for p in traced:
        for rec in p:
            for k, v in rec["counts"].items():
                counts[k] = counts.get(k, 0.0) + v
    counts = {k: v / n for k, v in counts.items()}
    # traced times and call counts, or work counts the requests imply
    m = {name: agg.get(name, counts.get(name, 0.0)) for name in PER_LAYER}
    m["kernels.ns_per_cell"] = ratio(1e9 * m["kernels.self_s"], m["kernels.cells"])
    m["models.ns_per_step"] = ratio(1e9 * m["models.self_s"], m["models.steps"])
    m["qmle.ns_per_cell"] = ratio(1e9 * m["qmle.self_s"], m["qmle.cells"])
    m["irf.rejected_frac"] = ratio(counts.get("irf.rejected", 0.0), counts.get("irf.curve_reps", 0.0))
    m["bench.failed_cells_ratio"] = ratio(counts.get("bench.failed_cells", 0.0), counts.get("bench.cells", 0.0))
    pass_s = lambda p: sum(r["latency"] for r in p)
    m["trace.overhead_ratio"] = ratio(statistics.median(map(pass_s, traced)),
                                      statistics.median(map(pass_s, plain)))
    return m, agg


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "nlirf" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC / 'nlirf'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - t_start}))
            return 0
        return measure(args, t_start, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, t_start: float, workdir: Path) -> int:
    lib, inputs = setup(args.workload, args.seed, workdir)
    setup_samples = [time.perf_counter() - t_start]
    import resource
    import workloads as wl
    from tracer import LAYERS, Tracer, TracerBindingError

    requests = wl.build_requests(lib, args.workload, inputs, wl.FULL, workdir / "run")
    tracer = Tracer() if args.trace else None
    passes, traced_flags = [], []
    t_loop = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(requests, tracer if traced else None))
        traced_flags.append(traced)
        if time.perf_counter() - t_loop >= args.seconds and len(passes) >= 2:
            break
    loop_s = time.perf_counter() - t_loop

    records = [r for p in passes for r in p]
    problems = [f"{r['name']}: {msg}" for r in records for msg in r["problems"]]
    attempted, failed = len(records), sum(1 for r in records if r["problems"])
    digests = [wl.digest([r["numbers"] for r in p]) for p in passes]
    for i, d in enumerate(digests[1:], start=2):
        if d != digests[0]:
            failed += 1
            problems.append(f"pass {i} output digest {d} differs from pass 1 ({digests[0]})")

    if args.trace:
        metrics, layer_totals = per_layer_metrics(tracer, passes, traced_flags)
        traced_run_s = statistics.median(
            sum(r["latency"] for r in p) for p, t in zip(passes, traced_flags) if t)
        shares = {layer: layer_totals.get(f"{layer}.self_s", 0.0) / traced_run_s for layer in LAYERS}
        for layer in wl.LOADED_LAYERS[args.workload]:
            if not layer_totals.get(f"{layer}.calls"):
                raise TracerBindingError(f"layer {layer!r} recorded no span on {args.workload}")
        for counter in wl.EXPECTED_COUNTERS[args.workload]:
            if not layer_totals.get(counter):
                raise TracerBindingError(f"counter {counter!r} stayed zero on {args.workload}")
        units = PER_LAYER
    else:
        plain = [p for p, t in zip(passes, traced_flags) if not t]
        # each request's median over the passes damps one-off stalls
        typical = [statistics.median(p[i]["latency"] for p in plain) for i in range(len(requests))]
        reps = [r.rep_horizons for r in requests]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors, panel_attempted, panel_problems = wl.oracle_panel(
            lib, args.seed, wl.FULL, wl.PANEL_ROUTES[args.workload])
        if not errors:
            raise RuntimeError(f"accuracy panel produced no output: {panel_problems[:3]}")
        attempted += panel_attempted
        failed += len(panel_problems)
        problems += panel_problems
        setup_samples += setup_probe_times(args, SETUP_SAMPLES - 1)
        metrics = {
            "run_s": sum(typical),
            "request_p50_s": statistics.median(typical),
            "rep_horizons_per_s": sum(reps) / sum(t for t, n in zip(typical, reps) if n),
            "peak_rss_mb": rss_mb,
            "oracle_rel_err": statistics.median(errors),
            "setup_s": statistics.median(setup_samples),
        }
        units = END_TO_END

    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "passes": len(passes), "loop_s": loop_s,
        "pass_digests": digests, "problems": problems, "setup_samples_s": setup_samples,
        "pass_latency_s": [sum(r["latency"] for r in p) for p in passes],
        "request_latency_s": {r["name"]: [p[i]["latency"] for p in passes] for i, r in enumerate(passes[0])},
        "result": result,
    }
    if tracer is not None:
        record["spans"] = _span_table(tracer)
        record["traced_run_s"] = traced_run_s
        record["self_share_of_traced_run_s"] = shares
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"{args.workload}: {len(passes)} passes in {loop_s:.1f} s, digest {digests[0]}, "
          f"{attempted} requests, {failed} failed")
    for msg in problems[:20]:
        print(f"check failed: {msg}")
    for k, u in units.items():
        print(f"  {k:26s} {metrics[k]:>14.6g} {u}")
    if tracer is not None:
        print(f"traced run_s {traced_run_s:.4g} s; self-time shares: "
              + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def _span_table(tracer):
    """Spans aggregated per (layer, function): calls, total and self time."""
    from tracer import self_times
    table = {}
    for s in tracer.spans:
        row = table.setdefault(f"{s.layer}:{s.name}", {"calls": 0, "total_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
    return {"by_function": table, "self_s_by_layer": self_times(tracer.spans),
            "counters": dict(tracer.counts), "spans": len(tracer.spans)}


if __name__ == "__main__":
    sys.exit(main())
