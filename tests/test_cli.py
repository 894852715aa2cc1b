import hashlib
import json

import numpy as np
import pytest

import nlirf.cli as cli
from nlirf.cli import SUBCOMMAND_STREAM, derive_seed, ingest_csv, main, run
from nlirf.models import Dar1, simulate

DAR_JSON = {"variant": "dar1", "rho": 0.5, "alpha": 1.0, "beta": 0.5}


def write_series_csv(path, T=300, seed=1):
    series = simulate(Dar1.of(0.5, 1.0, 0.5), T=T, y0=0.2, seed=seed)
    series.to_csv(path)
    return series


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_round_trip(tmp_path):
    path = tmp_path / "s.csv"
    series = write_series_csv(path)
    back = ingest_csv(path)
    np.testing.assert_array_equal(back.values, series.values)


def test_ingest_three_rows(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,y1\n1,0.5\n2,-0.25\n3,1.0\n")
    assert ingest_csv(path).T == 3


def test_ingest_header_only_errors(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,y1\n")
    with pytest.raises(ValueError, match="empty series"):
        ingest_csv(path)


def test_ingest_nan_names_line(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,y1\n1,0.5\n2,NaN\n3,1.0\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_csv(path)


def test_ingest_gap_in_t_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,y1\n1,0.5\n3,1.0\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_csv(path)


def test_ingest_bad_header_rejected(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("time,value\n1,0.5\n2,1.0\n")
    with pytest.raises(ValueError, match="header"):
        ingest_csv(path)


def test_ingest_skips_comment_lines(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# manifest: abc\nt,y1\n1,0.5\n2,1.0\n")
    assert ingest_csv(path).T == 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_simulate_outputs_and_manifest(tmp_path):
    config = {"model": DAR_JSON, "T": 150, "y0": 0.2}
    paths = run("simulate", config, tmp_path, master_seed=5)
    names = {p.name for p in paths}
    assert {"trajectory.csv", "density.csv", "manifest.json"} <= names
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("# manifest: ")
    assert traj[1] == "t,y1"
    assert len(traj) == 152
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["T"] == 150
    assert manifest["config"]["burn_in"] == 0  # defaults are materialized
    # the emitted trajectory round-trips through ingest_csv
    assert ingest_csv(tmp_path / "trajectory.csv").T == 150


def test_rerun_from_manifest_is_bitwise_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("simulate", {"model": DAR_JSON, "T": 100, "y0": 0.2}, out1, master_seed=9)
    rc = main(["simulate", "--config", str(out1 / "manifest.json"), "--out", str(out2)])
    assert rc == 0
    for name in ("trajectory.csv", "density.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_qmle_subcommand(tmp_path):
    csv = tmp_path / "s.csv"
    write_series_csv(csv, T=400, seed=2)
    config = {
        "input": str(csv),
        "grid": {"lower": [0.1, 0.5, 0.1], "upper": [0.9, 1.5, 0.9], "step": 0.1},
    }
    run("qmle", config, tmp_path, master_seed=0)
    result = json.loads((tmp_path / "qmle.json").read_text())
    assert {"rho", "alpha", "beta", "loglik", "grid_argmax_on_boundary", "manifest_sha256"} <= set(result)
    assert 0.1 <= result["rho"] <= 0.9


def test_irf_subcommand_four_deltas(tmp_path):
    config = {
        "model": DAR_JSON,
        "T": 800,
        "y0_sim": 0.2,
        "y0": 0.2,
        "horizons": 3,
        "deltas": [-1.0, -0.5, 0.5, 1.0],
        "S": 300,
    }
    paths = run("irf", config, tmp_path, master_seed=3)
    for delta in (-1.0, -0.5, 0.5, 1.0):
        f = tmp_path / f"irf_delta_{delta:g}.csv"
        assert f in paths
        lines = f.read_text().splitlines()
        assert lines[1] == "horizon,route,delta,value,mc_se,rejected_reps"
        routes = {ln.split(",")[1] for ln in lines[2:]}
        assert routes == {"true", "direct", "local_projection"}
        assert len(lines) == 2 + 3 * 3  # three routes, three horizons


def test_irf_true_route_only_simulates_nothing(tmp_path, monkeypatch):
    # the oracle reads only the model; the series an estimator would use is
    # never simulated, and the artifacts are the same as when it is
    config = {"model": DAR_JSON, "T": 800, "y0": 0.2, "horizons": 3, "deltas": [0.5], "S": 300,
              "routes": ["true"]}
    first = run("irf", config, tmp_path / "a", master_seed=3)

    def refuse(*args, **kwargs):
        raise AssertionError("simulate called for a true-route-only request")

    monkeypatch.setattr("nlirf.cli.simulate", refuse)
    second = run("irf", config, tmp_path / "b", master_seed=3)
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("deltas", [[0.1234567, 0.1234568], [0.5, 0.5]])
def test_irf_colliding_delta_names_rejected(tmp_path, deltas):
    # both deltas would write irf_delta_0.123457.csv (resp. irf_delta_0.5.csv)
    config = {"model": DAR_JSON, "T": 800, "y0": 0.2, "horizons": 2, "deltas": deltas, "S": 50,
              "routes": ["true"]}
    with pytest.raises(ValueError, match="irf_delta_"):
        run("irf", config, tmp_path, master_seed=3)
    assert list(tmp_path.iterdir()) == []


def test_decompose_subcommand(tmp_path):
    config = {
        "model": DAR_JSON,
        "T": 800,
        "y0_sim": 0.2,
        "y0": 0.2,
        "horizons": 2,
        "delta": 0.5,
        "S": 400,
        "J": 3,
    }
    run("decompose", config, tmp_path, master_seed=4)
    lines = (tmp_path / "decompose.csv").read_text().splitlines()
    assert lines[1] == "h,delta,degree,coefficient,contribution"
    body = [ln.split(",") for ln in lines[2:]]
    degrees = {row[2] for row in body}
    assert {"1", "2", "3", "linear", "nonlinear", "total", "estimated_irf"} == degrees
    # additivity holds within each horizon block
    for h in ("1", "2"):
        vals = {row[2]: float(row[4]) for row in body if row[0] == h}
        assert vals["total"] == pytest.approx(vals["linear"] + vals["nonlinear"], abs=1e-15)


def test_decompose_direct_simulates_once(tmp_path, monkeypatch):
    # one paired-path simulation feeds both the decomposition rows and the
    # estimated_irf rows, which equal the public functions' results
    import nlirf.cli
    import nlirf.irf
    from nlirf.irf import IrfRequest, decompose_direct_irf, irf_direct

    series = write_series_csv(tmp_path / "s.csv", T=800)
    config = {"input": str(tmp_path / "s.csv"), "y0": 0.2, "horizons": 2, "delta": 0.5, "S": 300, "J": 3}
    calls = []
    original = nlirf.irf.simulate_paths

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (nlirf.irf, nlirf.cli):  # every binding, as a tracer would
        monkeypatch.setattr(module, "simulate_paths", counting)
    run("decompose", config, tmp_path / "out", master_seed=4)
    assert len(calls) == 1
    monkeypatch.undo()

    req = IrfRequest(y0=0.2, horizons=2, delta=0.5, S=300, seed=derive_seed(4, "decompose"))
    body = [ln.split(",") for ln in (tmp_path / "out" / "decompose.csv").read_text().splitlines()[2:]]
    estimated = [float(row[4]) for row in body if row[2] == "estimated_irf"]
    assert estimated == irf_direct(series, req).values.tolist()
    coefficients = [float(row[3]) for row in body if row[2] in ("1", "2", "3")]
    assert coefficients == [c for d in decompose_direct_irf(series, req, J=3) for c in d.coefficients[1:]]


def test_decompose_lp_fits_once(tmp_path, monkeypatch):
    # one step-one simulation and one NW fit of both paths' states feed the decomposition rows,
    # from the baseline predictions, and the estimated_irf rows
    import nlirf.irf
    import nlirf.kernels
    from nlirf.irf import IrfRequest, decompose_lp_irf, irf_lp

    series = write_series_csv(tmp_path / "s.csv", T=800)
    config = {"input": str(tmp_path / "s.csv"), "y0": 0.2, "horizons": 3, "delta": 0.5, "S": 300, "J": 3,
              "route": "local_projection"}
    calls = {"_simulate_step1": 0, "_weight_blocks": 0}
    for module, name in ((nlirf.irf, "_simulate_step1"), (nlirf.kernels, "_weight_blocks")):
        def counting(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counting)
    run("decompose", config, tmp_path / "out", master_seed=4)
    assert calls == {"_simulate_step1": 1, "_weight_blocks": 2}  # the y0 row, then every lag at once
    monkeypatch.undo()

    req = IrfRequest(y0=0.2, horizons=3, delta=0.5, S=300, seed=derive_seed(4, "decompose"))
    body = [ln.split(",") for ln in (tmp_path / "out" / "decompose.csv").read_text().splitlines()[2:]]
    estimated = [float(row[4]) for row in body if row[2] == "estimated_irf"]
    assert estimated == irf_lp(series, req).values.tolist()
    coefficients = [float(row[3]) for row in body if row[2] in ("1", "2", "3")]
    assert coefficients == [c for d in decompose_lp_irf(series, req, J=3) for c in d.coefficients[1:]]


# sha256 of manifest.json as written when the CLI restated the library defaults
# (S=10_000, the bench target's S=2000 and routes, the QMLE grid, J=5, max_lag=5,
# B=500, level=0.05, the 201-point density grid)
@pytest.mark.parametrize("subcommand, config, digest", [
    ("irf", {"model": DAR_JSON, "T": 800, "y0": 0.2, "horizons": 3, "deltas": [0.5]},
     "19c0664c9a5efe16568ab92bf8d378ec12eb445f28883dc9ea61f8485c5a16d5"),
    ("decompose", {"input": "series.csv", "y0": 0.2, "horizons": 3, "delta": 0.5},
     "84af8229cc6d4337218054196395af5d72478962c9ea19a4399622928aad780b"),
    ("bench", {"model": DAR_JSON, "sample_sizes": [500], "seeds_per_size": 2,
               "target": {"kind": "irf", "h": 2, "delta": 0.5, "y0": 0.2}},
     "636240231da5f6b742b7ab5532237899eeebd62f1e9f71fca358a6c8e78f1dde"),
    ("qmle", {"input": "series.csv"}, "4423296b8ffc037aed554346ece95d3ba770829162dc2cae987241995894db79"),
    ("simulate", {"model": DAR_JSON, "T": 800, "y0": 0.2},
     "18555792aa3b8ccdface976ae34a7e78f595ab1e70a957720ebaad06ac07ab32"),
    ("identify", {"input": "biv.csv"}, "a68b40a2dc2b42c594d5d6ce5b6e04f5c0f036dea394a30cb4f60d625be1b67e"),
    ("markov-test", {"input": "series.csv"}, "0c069532da5e85c4ba0b99a9c0624efeecf216d015b7537776dbd2ddf307a289"),
    ("decompose", {"model": DAR_JSON, "T": 800, "y0": 0.2, "horizons": 3, "delta": 0.5, "route": "local_projection"},
     "b8bd818fa8a1426c59396b2fa4646e5488d3e449b9782fee98c3dd1788e7016b"),
])
def test_resolved_manifests_keep_their_defaults(tmp_path, monkeypatch, subcommand, config, digest):
    monkeypatch.setattr(cli, "_RUNNERS", {name: lambda config, seed, w: None for name in cli._RUNNERS})
    run(subcommand, config, tmp_path, master_seed=7)
    assert hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest() == digest


def test_identify_subcommand(tmp_path):
    from nlirf.models import GaussianAr1, TimeSeries

    A = np.array([[1.0, 0.5], [0.3, 1.0]])
    x1 = simulate(GaussianAr1(0.9, 1.0), T=4000, y0=0.0, seed=11).y
    x2 = simulate(GaussianAr1(0.2, 1.0), T=4000, y0=0.0, seed=12).y
    TimeSeries(values=(A @ np.vstack([x1, x2])).T).to_csv(tmp_path / "biv.csv")
    run("identify", {"input": str(tmp_path / "biv.csv"), "max_lag": 3}, tmp_path, master_seed=0)
    result = json.loads((tmp_path / "identify.json").read_text())
    assert len(result["candidates"]) == 2
    cand = np.asarray(result["candidates"][result["chosen"]])
    assert cand[0, 0] == 1.0 and cand[1, 1] == 1.0


def test_markov_test_subcommand(tmp_path):
    csv = tmp_path / "s.csv"
    from nlirf.models import GaussianAr1

    simulate(GaussianAr1(0.5, 1.0), T=1500, y0=0.0, seed=13).to_csv(csv)
    run("markov-test", {"input": str(csv), "B": 200}, tmp_path, master_seed=1)
    verdict = json.loads((tmp_path / "markov_test.json").read_text())
    assert set(verdict) >= {"statistic", "critical_value", "reject", "moments", "block_length"}
    assert verdict["statistic"] >= 0.0


def test_markov_test_subcommand_passes_b_untruncated(tmp_path):
    csv = tmp_path / "s.csv"
    write_series_csv(csv, T=300)
    with pytest.raises(ValueError, match="B must be an integer"):
        run("markov-test", {"input": str(csv), "B": 50.5}, tmp_path, master_seed=1)


def test_bench_subcommand(tmp_path):
    config = {
        "model": {"variant": "gaussian_ar1", "rho": 0.5, "sigma": 1.0},
        "sample_sizes": [500, 1000],
        "seeds_per_size": 10,
        "target": {"kind": "cond_cdf", "z": 0.3, "y": 0.5},
    }
    run("bench", config, tmp_path, master_seed=2)
    cells = (tmp_path / "bench_cells.csv").read_text().splitlines()
    assert cells[1] == "T,seed,route,target,estimate,oracle,abs_err"
    assert len(cells) == 2 + 20
    summary = (tmp_path / "bench_summary.csv").read_text().splitlines()
    assert summary[1] == "T,route,quantity,value"
    assert any("loglog_slope" in ln for ln in summary)


# ---------------------------------------------------------------------------
# config validation and error paths
# ---------------------------------------------------------------------------

def test_unknown_config_key_is_error(tmp_path):
    with pytest.raises(ValueError, match="unknown config keys"):
        run("simulate", {"model": DAR_JSON, "T": 100, "y0": 0.2, "typo": 1}, tmp_path, 0)


def test_unknown_irf_route_is_error(tmp_path):
    config = {"model": DAR_JSON, "T": 300, "y0": 0.2, "horizons": 2,
              "deltas": [0.5], "S": 100, "routes": ["direct", "indirect"]}
    with pytest.raises(ValueError, match="unknown routes"):
        run("irf", config, tmp_path, 0)


def test_unknown_model_key_is_error(tmp_path):
    bad = {"variant": "dar1", "rho": 0.5, "alpha": 1.0, "beta": 0.5, "gamma": 2}
    with pytest.raises(ValueError, match="unknown keys"):
        run("simulate", {"model": bad, "T": 100, "y0": 0.2}, tmp_path, 0)


def test_main_reports_single_line_error(tmp_path, capsys):
    rc = main(["qmle", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.strip().count("\n") == 0


def test_main_seed_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": DAR_JSON, "T": 80, "y0": 0.2, "seed": 1}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--seed", "2", "--out", str(out2)]) == 0
    t1 = (out1 / "trajectory.csv").read_text()
    t2 = (out2 / "trajectory.csv").read_text()
    assert t1 != t2
    assert json.loads((out1 / "manifest.json").read_text())["seed"] == 1
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 2


def test_subcommand_streams_are_distinct():
    seeds = {derive_seed(0, sc) for sc in SUBCOMMAND_STREAM}
    assert len(seeds) == len(SUBCOMMAND_STREAM)


def test_output_files_all_carry_manifest_hash(tmp_path):
    paths = run("simulate", {"model": DAR_JSON, "T": 80, "y0": 0.2}, tmp_path, master_seed=7)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    h = manifest["manifest_sha256"]
    for p in paths:
        text = p.read_text()
        if p.suffix == ".csv":
            assert text.splitlines()[0] == f"# manifest: {h}"
        else:
            assert json.loads(text)["manifest_sha256"] == h
