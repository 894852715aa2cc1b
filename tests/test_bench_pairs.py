"""The pair summary and run handling of ``tools/bench_pairs.py``, on synthetic result lines and a stub runner."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "run_s", "better": "lower", "bound": 0.25},
           {"name": "rep_horizons_per_s", "better": "higher", "bound": 0.25}]


def _line(run_s, rate, failed=0):
    """A runner's last output line."""
    metrics = {"run_s": {"value": run_s, "unit": "s"}, "rep_horizons_per_s": {"value": rate, "unit": "1/s"}}
    return json.dumps({"correct": True, "attempted": 40, "failed": failed, "metrics": metrics})


def _pairs(parent, change):
    return [{"pair": i, "parent": bench_pairs.parse_result(_line(*p)), "change": bench_pairs.parse_result(_line(*c))}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_parse_result_reads_counts_and_values():
    assert bench_pairs.parse_result(_line(0.5, 100.0, failed=2)) == {
        "failed": 2, "attempted": 40, "run_s": 0.5, "rep_horizons_per_s": 100.0}


def test_summary_gives_medians_quartiles_wins_and_ties():
    parent = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0), (5.0, 50.0)]
    change = [(0.5, 10.0), (2.0, 25.0), (2.5, 30.0), (4.5, 30.0), (4.0, 60.0)]
    summary = bench_pairs.summarize(_pairs(parent, change), METRICS)
    run_s, rate = summary["run_s"], summary["rep_horizons_per_s"]
    assert run_s["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert run_s["change"] == {"q1": 2.0, "median": 2.5, "q3": 4.0}
    # lower is better: pairs 0, 2 and 4 are wins, pair 1 a tie, pair 3 a loss
    assert (run_s["change_wins"], run_s["ties"], run_s["pairs"]) == (3, 1, 5)
    assert run_s["median_change_rel"] == pytest.approx(-1 / 6)
    assert not run_s["median_gap_exceeds_parent_iqr"] and run_s["within_bound"]
    # higher is better: pairs 1 and 4 are wins, 0 and 2 ties
    assert (rate["change_wins"], rate["ties"]) == (2, 2)
    assert rate["parent"]["median"] == rate["change"]["median"] == 30.0
    assert rate["median_change_rel"] == 0.0 and rate["within_bound"]


def test_summary_flags_a_gap_wider_than_the_iqr_and_beyond_the_bound():
    parent = [(1.0, 100.0), (1.1, 101.0), (1.2, 102.0), (1.3, 103.0)]
    change = [(1.6, 70.0), (1.7, 71.0), (1.8, 72.0), (1.9, 73.0)]
    summary = bench_pairs.summarize(_pairs(parent, change), METRICS)
    for name in ("run_s", "rep_horizons_per_s"):
        assert summary[name]["change_wins"] == 0
        assert summary[name]["median_gap_exceeds_parent_iqr"]
        assert not summary[name]["within_bound"]  # 1.75 / 1.15 and 71.5 / 101.5 are both beyond 25%


def test_a_failed_run_names_its_workload_side_seed_and_stderr(tmp_path):
    runner = tmp_path / "perfbench" / "run.py"
    runner.parent.mkdir()
    runner.write_text("import sys\nprint('setting up')\nsys.stderr.write('early line\\nKeyError: boom\\n')\nsys.exit(3)\n")
    with pytest.raises(bench_pairs.RunFailed) as err:
        bench_pairs.run_once(tmp_path, "change", "local_projection", 5207, 1)
    message = str(err.value)
    assert message.startswith("local_projection on the change side, seed 5207, exited 3:")
    assert message.endswith("early line\nKeyError: boom")


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_blas_threads_follow_the_runner_rule(monkeypatch):
    usable = len(os.sched_getaffinity(0))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert bench_pairs.blas_threads() == usable
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert bench_pairs.blas_threads() == 1
    for other in ("0", str(usable + 1), "x"):  # the runner replaces these by the usable CPUs
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", other)
        assert bench_pairs.blas_threads() == usable


BENCHMARK = {"end_to_end": METRICS, "workloads": [{"name": "direct_paths"}, {"name": "local_projection"}]}


def _claim_summary(parent, change):
    return bench_pairs.summarize(_pairs(parent, change), METRICS)


def test_a_claim_is_met_by_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    parent = [(1.0 + 0.01 * i, 100.0) for i in range(10)]
    change = [(0.7 + 0.01 * i, 100.0) for i in range(9)] + [(1.2, 100.0)]  # the last pair a loss
    claim = bench_pairs.parse_claim("run_s@direct_paths", BENCHMARK, ["direct_paths"])
    got = bench_pairs.verdict(claim, _claim_summary(parent, change))
    assert got == {"metric": "run_s", "workload": "direct_paths", "change_wins": 9, "pairs": 10,
                   "median_change_rel": pytest.approx(0.745 / 1.045 - 1), "median_gap_exceeds_parent_iqr": True,
                   "met": True}


@pytest.mark.parametrize("case", ["eight_wins", "gap_within_iqr", "worse"])
def test_a_claim_is_not_met_without_nine_wins_a_wide_gap_and_the_better_side(case):
    parent = [(1.0 + 0.1 * i, 100.0) for i in range(10)]  # quartiles 1.225 and 1.675
    change = {"eight_wins": [(0.5, 100.0)] * 8 + [(3.0, 100.0)] * 2,  # median 0.5, 8 of 10 pairs
              "gap_within_iqr": [(0.9 + 0.1 * i, 100.0) for i in range(10)],  # 10 wins, a gap of 0.1
              "worse": [(1.0 + 0.1 * i, 80.0) for i in range(10)]}[case]  # rate: lower, by 20 > IQR 0
    metric = "rep_horizons_per_s" if case == "worse" else "run_s"
    claim = bench_pairs.parse_claim(f"{metric}@local_projection", BENCHMARK, ["local_projection"])
    got = bench_pairs.verdict(claim, _claim_summary(parent, change))
    assert not got["met"]
    assert (got["change_wins"], got["median_gap_exceeds_parent_iqr"]) == {
        "eight_wins": (8, True), "gap_within_iqr": (10, False), "worse": (0, True)}[case]


@pytest.mark.parametrize("claim, unknown", [("wall_s@direct_paths", "metric 'wall_s'"),
                                            ("run_s", "metric 'run_s'"),
                                            ("run_s@big_paths", "workload 'big_paths'"),
                                            ("run_s@local_projection", "workload 'local_projection'")])
def test_a_claim_on_an_unknown_metric_or_workload_is_refused_before_any_run(claim, unknown):
    # the last is in BENCHMARK.json but gets no seeds, so it would not run
    with pytest.raises(ValueError, match=unknown):
        bench_pairs.parse_claim(claim, BENCHMARK, ["direct_paths"])


def test_a_claim_is_checked_before_the_trees_are_prepared(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "prepare", lambda *args: pytest.fail("prepared the trees"))
    with pytest.raises(ValueError, match="workload 'nowhere'"):
        bench_pairs.main(["--parent", "HEAD", "--pr", "0", "--scratch", str(tmp_path), "--seeds",
                          "direct_paths=1", "--change", "nothing", "--claim", "run_s@nowhere"])


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
def test_environment_counts_the_usable_cpus():
    assert bench_pairs.environment()["nproc"] == bench_pairs.usable_cpus() == len(os.sched_getaffinity(0))


def _record(tree, workload, seed, latencies):
    """The record ``perfbench/run.py`` writes in the tree it runs in, cut to the per-request latencies."""
    path = tree / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "seed": seed, "request_latency_s": latencies}))


def test_request_medians_come_from_the_run_record_in_its_tree(tmp_path):
    _record(tmp_path, "cli_diagnostics", 7, {"cli_qmle": [0.30, 0.10, 0.20], "cli_simulate": [0.04, 0.02]})
    got = bench_pairs.request_medians(tmp_path, "cli_diagnostics", 7)
    assert got == {"cli_qmle": 0.20, "cli_simulate": pytest.approx(0.03)}


def test_a_run_carries_its_request_medians(tmp_path):
    runner = tmp_path / "perfbench" / "run.py"
    runner.parent.mkdir()
    runner.write_text("import json, pathlib\n"
                      "p = pathlib.Path('.perfbench/results/cli_diagnostics-seed3-trace0.json')\n"
                      "p.parent.mkdir(parents=True)\n"
                      "p.write_text(json.dumps({'request_latency_s': {'cli_qmle': [0.2, 0.4, 0.3]}}))\n"
                      f"print({_line(0.5, 100.0)!r})\n")
    got = bench_pairs.run_once(tmp_path, "change", "cli_diagnostics", 3, 1)
    assert got["request_median_s"] == {"cli_qmle": 0.3} and got["run_s"] == 0.5


def test_request_summary_gives_both_sides_medians_over_the_pairs(tmp_path):
    def run(qmle, simulate):
        return {"request_median_s": {"cli_qmle": qmle, "cli_simulate": simulate}}

    pairs = [{"parent": run(0.30, 0.020), "change": run(0.20, 0.021)},
             {"parent": run(0.32, 0.022), "change": run(0.22, 0.020)},
             {"parent": run(0.28, 0.021), "change": run(0.18, 0.022)}]
    got = bench_pairs.summarize_requests(pairs)
    assert got["cli_qmle"] == {"parent": 0.30, "change": 0.20, "median_change_rel": pytest.approx(-1 / 3)}
    assert got["cli_simulate"]["parent"] == got["cli_simulate"]["change"] == 0.021
    assert got["cli_simulate"]["median_change_rel"] == pytest.approx(0.0)


def test_a_second_pairs_run_is_refused_naming_the_lock_and_its_holder(tmp_path, monkeypatch, capsys):
    lock = tmp_path / "pairs.lock"
    monkeypatch.setattr(bench_pairs, "LOCK", lock)
    monkeypatch.setattr(bench_pairs, "prepare", lambda *args: pytest.fail("exported a tree beside another run"))
    holder = subprocess.Popen([sys.executable, "-c", "import fcntl, os, sys\n"
                               f"f = open({str(lock)!r}, 'a+'); fcntl.flock(f, fcntl.LOCK_EX)\n"
                               "f.write(str(os.getpid())); f.flush(); print('held', flush=True); sys.stdin.read()"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "held\n"
        code = bench_pairs.main(["--parent", "HEAD", "--pr", "0", "--scratch", str(tmp_path / "trees"),
                                 "--seeds", "direct_paths=1", "--change", "nothing"])
    finally:
        holder.communicate("")
    assert code != 0
    assert f"{lock} (PID {holder.pid})" in capsys.readouterr().err
    assert not (tmp_path / "trees").exists()
    # once the holder is gone the lock is free, and the one who takes it writes its own PID
    with bench_pairs.hold_lock(lock):
        assert lock.read_text() == str(os.getpid())
