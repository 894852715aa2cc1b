"""Alternating parent-vs-change benchmark pairs, written as ``BENCH_<pr>.json``.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent <sha> --pr 21 --scratch DIR \\
        --seeds direct_paths=5101 local_projection=5201 cli_diagnostics=5301 --change "what changed" \\
        [--claim run_s@direct_paths]

The parent commit is exported with ``git archive <sha> | tar -x`` into ``DIR/parent`` and the
working tree's ``src/`` and ``perfbench/`` are copied into ``DIR/change``, so each side runs from
its own copy (the runner writes ``.perfbench/results/`` into the tree it runs in). For each
workload, pair i of 10 runs ``python3 perfbench/run.py --workload W --seed S+i --seconds N
--trace 0`` once per side, N being the ``run_seconds`` of ``BENCHMARK.json``, the parent first in
even pairs, and reads each run's last output line and, from the record the run writes in its tree,
each request's median latency over the run's passes. The summary gives per end-to-end metric of
``BENCHMARK.json`` both sides' medians and quartiles (numpy.quantile, linear), the pairs the change
wins (ties count for neither side), the median relative change, whether that gap exceeds the
parent's interquartile range, and whether the change's median is within the metric's bound of the
parent's. With ``--claim METRIC@WORKLOAD``, both names checked against ``BENCHMARK.json`` and the
seeds before any run, the report's ``claim`` says whether that metric improved on that workload:
``met`` when the change wins at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's interquartile range. Without it the report claims no gain
(``claim`` is null). The benchmark itself is a black box.

The runs need the machine to themselves: run nothing else beside them, not a test suite and not a
second benchmark. ``perfbench/run.py`` gives OpenBLAS a thread per usable CPU, and those threads
spin for a CPU that another process holds, so BLAS-bound requests (``irf_lp``'s ``_nw_fit``) take
several times as long (on 2 CPUs, 20 ``irf_lp`` calls at T=5000, S=200 went from 0.18 s alone to
1.8 s beside a second such process), and a pair would compare the load, not the commits. So a run
first takes an exclusive lock on ``LOCK`` in the temporary directory, and refuses to start, exporting
nothing, while another pairs run holds it; the message names the lock file and the holder's PID.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10  # per workload, the fewest that can show "no regression" on a noisy box
LOCK = Path(tempfile.gettempdir()) / "nlirf-bench-pairs.lock"  # held by the one pairs run on this machine


class RunFailed(RuntimeError):
    """A benchmark run that exited nonzero."""


class PairsRunning(RuntimeError):
    """Another pairs run holds the lock."""


def hold_lock(path: Path):
    """The open lock file ``path``, flock-ed exclusively and holding this process's PID until it is closed; a
    PairsRunning naming the file and the PID written in it when another process holds the lock."""
    f = open(path, "a+")
    try:
        fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        f.seek(0)
        holder = f.read().strip() or "unknown"
        f.close()
        raise PairsRunning(f"another pairs run holds the lock {path} (PID {holder}); benchmark runs need the "
                           "machine to themselves") from None
    f.truncate(0)
    f.write(str(os.getpid()))
    f.flush()
    return f


def usable_cpus() -> int:
    """The CPUs this process may run on, counted as ``perfbench/run.py`` counts them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def blas_threads() -> int:
    """The BLAS threads the runs use: ``perfbench/run.py`` keeps an OPENBLAS_NUM_THREADS within the usable CPUs
    and sets any other to their count."""
    usable = usable_cpus()
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return int(current) if current.isdigit() and 1 <= int(current) <= usable else usable


def environment() -> Dict:
    """Interpreter, numeric stack, BLAS threads and CPU dispatch of the runs, which inherit this process's; the
    dispatch fingerprint is the one ``tests/test_golden.py`` keys its digests by."""
    try:  # the private module's home since numpy 2.0
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_golden import _dispatch

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas["name"], "version": blas["version"], "threads": blas_threads()},
            "nproc": usable_cpus(),
            "machine": platform.machine(), "simd_found": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
            "dispatch_fingerprint": _dispatch()}


def parse_result(line: str) -> Dict:
    """One run's record from the runner's last output line: its operation counts and end-to-end values."""
    result = json.loads(line)
    return {"failed": result["failed"], "attempted": result["attempted"],
            **{k: m["value"] for k, m in result["metrics"].items()}}


def request_medians(tree: Path, workload: str, seed: int) -> Dict[str, float]:
    """Each request's median latency over the passes of one run, from the record the runner writes in its tree."""
    record = json.loads((tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {name: statistics.median(latencies) for name, latencies in record["request_latency_s"].items()}


def summarize_requests(pairs: List[Dict]) -> Dict:
    """Per request, both sides' median over the pairs of their per-run medians, and the relative change."""
    out = {}
    for name in pairs[0]["parent"]["request_median_s"]:
        parent, change = (float(np.median([p[side]["request_median_s"][name] for p in pairs])) for side in SIDES)
        out[name] = {"parent": parent, "change": change, "median_change_rel": change / parent - 1 if parent else None}
    return out


def summarize(pairs: List[Dict], metrics: List[Dict]) -> Dict:
    """Per metric (``name``, ``better``, ``bound`` as in BENCHMARK.json), both sides' spread and the pairs' verdict."""
    out = {}
    for m in metrics:
        sign = 1.0 if m["better"] == "higher" else -1.0
        values = {side: np.array([p[side][m["name"]] for p in pairs], dtype=float) for side in SIDES}
        spread = {side: dict(zip(("q1", "median", "q3"), map(float, np.quantile(v, [0.25, 0.5, 0.75]))))
                  for side, v in values.items()}
        gain = sign * (values["change"] - values["parent"])
        parent, change = spread["parent"]["median"], spread["change"]["median"]
        diff = change - parent
        rel = diff / abs(parent) if parent else math.copysign(math.inf, diff) if diff else 0.0
        out[m["name"]] = {
            "better": m["better"], **spread, "change_wins": int((gain > 0).sum()), "ties": int((gain == 0).sum()),
            "pairs": len(pairs), "median_change_rel": rel,
            "median_gap_exceeds_parent_iqr": abs(diff) > spread["parent"]["q3"] - spread["parent"]["q1"],
            "bound": m["bound"], "within_bound": -sign * rel <= m["bound"],
        }
    return out


def parse_claim(claim: str, benchmark: Dict, workloads) -> Dict[str, str]:
    """``METRIC@WORKLOAD`` as ``{metric, workload}``, if BENCHMARK.json has that end-to-end metric and workload
    and ``workloads`` (those to be run) includes it; otherwise a ValueError naming what is unknown."""
    metric, sep, workload = claim.partition("@")
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    known = [w["name"] for w in benchmark["workloads"]]
    if not sep or metric not in metrics:
        raise ValueError(f"claim {claim!r}: unknown end-to-end metric {metric!r}, expected one of {metrics}")
    if workload not in known or workload not in workloads:
        raise ValueError(f"claim {claim!r}: workload {workload!r} is not among those run, {list(workloads)}")
    return {"metric": metric, "workload": workload}


def verdict(claim: Dict[str, str], summary: Dict) -> Dict:
    """The claim with the pairs' verdict on it, from its workload's summary: met when the change wins at least
    nine tenths of the pairs and its median is better by more than the parent's interquartile range."""
    s = summary[claim["metric"]]
    rel = s["median_change_rel"]
    improved = rel > 0 if s["better"] == "higher" else rel < 0
    met = 10 * s["change_wins"] >= 9 * s["pairs"] and improved and s["median_gap_exceeds_parent_iqr"]
    keys = ("change_wins", "pairs", "median_change_rel", "median_gap_exceeds_parent_iqr")
    return {**claim, **{k: s[k] for k in keys}, "met": bool(met)}


def prepare(parent: str, scratch: Path) -> Dict[str, Path]:
    """The two sides' trees: the parent exported from git, the change copied from the working tree."""
    trees = {side: scratch / side for side in SIDES}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, trees["change"] / name, ignore=ignore)
    return trees


def run_once(tree: Path, side: str, workload: str, seed: int, seconds: int) -> Dict:
    """One run of ``side``'s tree; a run that exits nonzero raises RunFailed with the tail of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise RunFailed(f"{workload} on the {side} side, seed {seed}, exited {proc.returncode}:\n{tail}")
    return {**parse_result(proc.stdout.strip().splitlines()[-1]),
            "request_median_s": request_medians(tree, workload, seed)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the parent commit")
    p.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    p.add_argument("--scratch", required=True, type=Path, help="directory for the two sides' trees")
    p.add_argument("--seeds", nargs="+", required=True, help="WORKLOAD=FIRST_SEED, in the order to run")
    p.add_argument("--change", required=True, help="what the change does")
    p.add_argument("--claim", help="METRIC@WORKLOAD: the end-to-end metric the change claims to improve there")
    args = p.parse_args(argv)
    first_seeds = {w: int(s) for w, s in (item.split("=") for item in args.seeds)}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim = parse_claim(args.claim, benchmark, first_seeds) if args.claim else None
    try:
        lock = hold_lock(LOCK)
    except PairsRunning as refused:
        print(refused, file=sys.stderr)
        return 1
    with lock:
        run_pairs(args, first_seeds, benchmark, claim)
    return 0


def run_pairs(args, first_seeds: Dict[str, int], benchmark: Dict, claim) -> None:
    """Every workload's pairs, written as BENCH_<pr>.json."""
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    trees = prepare(args.parent, args.scratch)

    workloads = {}
    for workload, first in first_seeds.items():
        pairs = []
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"pair": i, "seed": first + i, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], side, workload, first + i, seconds)
                print(workload, i, side, json.dumps(pair[side]), flush=True)
            pairs.append(pair)
        workloads[workload] = {"pairs": pairs, "summary": summarize(pairs, metrics),
                               "requests": summarize_requests(pairs),
                               "failed_total": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}}

    seeds = ", ".join(f"{first}-{first + PAIRS - 1} ({w})" for w, first in first_seeds.items())
    report = {
        "change": args.change,
        "parent_commit": args.parent,
        "claim": verdict(claim, workloads[claim["workload"]]["summary"]) if claim else None,
        "method": {
            "command": f"python3 perfbench/run.py --workload W --seed SEED --seconds {seconds} --trace 0",
            "sides": "the parent commit exported by git archive, and the change's src/ and perfbench/, "
                     "each run from its own copy",
            "order": "pairs alternate which side runs first, parent first in pair 0",
            "metrics": "the end-to-end metrics of BENCHMARK.json from each run's last output line; 'failed' and "
                       "'attempted' are the run's operation counts",
            "requests": "request_median_s: each request's median latency over a run's passes, read from the record "
                        "the runner writes in that side's tree (.perfbench/results/W-seedS-trace0.json); a workload's "
                        "'requests' gives per request both sides' median of those over the pairs",
            "quartiles": "numpy.quantile, linear interpolation",
            "wins": "pairs in which the change is better; equal values are ties and count for neither side",
            "within_bound": "the change's median is worse than the parent's by at most the metric's bound",
            "script": "tools/bench_pairs.py",
        },
        "environment": environment(),
        "sessions": [{"name": "final", "note": f"seeds {seeds}; workloads run one after another in that order",
                      "workloads": workloads}],
        "diagnostic_runs": [],
    }
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
