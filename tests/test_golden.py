"""Golden digests: the sha256 of every artifact of small runs of all seven CLI subcommands, and
of the value bytes of the library curves.

The runs cover both IRF routes, both kernels, an explicit and a Silverman bandwidth, both
``decompose`` routes and the sweep. The library pins cover the local projection and its
decomposition at seven horizons under both kernels, the transformed, dynamic and joint
responses and the direct decomposition. The rejection pins repeat most of them, with a CLI
local-projection ``decompose`` run, under a mass threshold that rejects replications without
aborting. A change that is meant to keep outputs bitwise must leave every digest as it is; a
stated numerical change updates the digests it moves, together with a CHANGES.md entry naming
them and the reason.

Bitwise outputs depend on the numeric stack, so the digests hold for the numpy, scipy and BLAS
recorded in ``ENVIRONMENT``, and the test skips, naming the mismatch, under any other.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from nlirf.cli import run
from nlirf.irf import (IrfRequest, Indicator, QuantileLevel, decompose_direct_irf, decompose_lp_irf, irf_direct,
                       irf_dynamic, irf_joint, irf_lp, irf_transformed)
from nlirf.kernels import KernelConfig
from nlirf.models import Dar1, GaussianAr1, TimeSeries, simulate


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


ENVIRONMENT = {"numpy": "2.4.6", "scipy": "1.17.1", "blas": "scipy-openblas 0.3.31.188.0"}

DAR_JSON = {"variant": "dar1", "rho": 0.5, "alpha": 1.0, "beta": 0.5}
SERIES = "simulate/trajectory.csv"  # the simulate run's output feeds the input-driven runs

RUNS = [
    ("simulate", "simulate", {"model": DAR_JSON, "T": 800, "y0": 0.2}),
    ("qmle", "qmle", {"input": SERIES, "grid": {"lower": [0.3, 0.8, 0.3], "upper": [0.7, 1.2, 0.7],
                                                "step": 0.05}}),
    ("irf", "irf", {"model": DAR_JSON, "T": 800, "y0": 0.2, "horizons": 3, "deltas": [0.5, -1.0], "S": 300}),
    ("irf_epanechnikov", "irf", {"input": SERIES, "y0": 0.2, "horizons": 3, "deltas": [1.0], "S": 300,
                                 "kernel": {"kernel": "epanechnikov", "bandwidth": 0.6,
                                            "min_weight_sum": None}}),
    ("decompose_direct", "decompose", {"input": SERIES, "y0": 0.2, "horizons": 3, "delta": 0.5, "S": 300,
                                       "J": 3}),
    ("decompose_lp", "decompose", {"model": DAR_JSON, "T": 800, "y0": 0.2, "horizons": 3, "delta": 0.5,
                                   "S": 300, "J": 3, "route": "local_projection"}),
    ("identify", "identify", {"input": "mixed.csv", "max_lag": 4}),
    ("markov-test", "markov-test", {"input": SERIES, "B": 200}),
    ("bench", "bench", {"model": DAR_JSON, "sample_sizes": [300, 600], "seeds_per_size": 10,
                        "target": {"kind": "irf", "h": 1, "delta": 0.5, "y0": 0.2, "S": 100}}),
]

# recorded under ENVIRONMENT; markov-test/markov_test.json (formerly df68ed20dbd1b53c...)
# moved when both Markov-test regressions came to share one bandwidth and the bootstrap
# came to sum block sums
GOLDEN = {
    "bench/bench_cells.csv": "ccf4f847fde8c741a6bee85b1814215e3167cab7391c84b6b5f0466524ef71ee",
    "bench/bench_summary.csv": "e9a772b8e362ca996912b02016c1d72ac32adf03bb0c9ebaa24687449e6f5993",
    "bench/manifest.json": "03f3ebcdc32886d1639bbf550876a7f9c3db5f3e0416433d4d4933b3302f8130",
    "decompose_direct/decompose.csv": "346294988e93db7b6366afe99ca356a6014016db2615cc3670f0bc3687b504db",
    "decompose_direct/manifest.json": "97fe6e56261dfa425fe818e8855ef530bfa6ffab0ea7c326a8d4288c38acb075",
    "decompose_lp/decompose.csv": "28f44d7a00fce0efb094bc175cf4960b79acf6edcab70ff0327b9c596e3b92ab",
    "decompose_lp/manifest.json": "9588a8f2a8f688413ceb31636429889697f93f3b261ff7704a973cf387352141",
    "identify/identify.json": "19cd31b2039c8b14326f799f73a6bfbd9d25a25a4cd98b204793f36a7324666f",
    "identify/manifest.json": "43c74396718b3ae831f3ad87576fd7691a8b9206f9184f78bbeab648386af914",
    "irf/irf_delta_-1.csv": "0e707d9f309da163ce920f246157dff243384295eb2b90b8a9b2949c86c7fd94",
    "irf/irf_delta_0.5.csv": "d461c540ad531bb990e9a4404b882b43ae84730e597cc0b0e464085fec9b3284",
    "irf/manifest.json": "0961a45373123260221afdc3b030ee79a3fbdf21e18d27f4057da8843337787f",
    "irf_epanechnikov/irf_delta_1.csv": "751551eb381964b04599ad2d66340b8f20ab769e1b053225bc2b1b644e1fed97",
    "irf_epanechnikov/manifest.json": "70082ab82d342be10cc8abb8fbfea0cb55fd55a863ddd9a48991877847d9b8e2",
    "markov-test/manifest.json": "36adfacded49251288301e803d3c401e8b169ea7ff5a9b0daca275a7348e22d0",
    "markov-test/markov_test.json": "acf441c05b746fb175fdb8a594b41e115ffd4d1890a86f9e781bf004ba54843a",
    "qmle/manifest.json": "d6498b78a12cfec85b7255a695859992668afe393ad37f0a099a73f6132d6499",
    "qmle/qmle.json": "2b9561737de73d763fce93017a493b4b518e5b538f62cf743ab94f9738eb8719",
    "simulate/density.csv": "93e9f3ab517fd3122b51b32ff2f88efeec9277bc3e89cdc211e03d55d9c90be8",
    "simulate/manifest.json": "f0282e5176068c067241f9c7d0f63de1244b84c949c9a18a5698bdb2970e2241",
    "simulate/trajectory.csv": "af1c577083138f5a1091618a43da6c57efb2029b235a3d0caee68debbde57a16",
}


def run_all(root):
    """Run every subcommand with its outputs under ``root`` (the working directory); return the digests."""
    A = np.array([[1.0, 0.5], [0.3, 1.0]])
    sources = [simulate(GaussianAr1(rho, 1.0), T=800, y0=0.0, seed=seed).y for rho, seed in ((0.9, 11), (0.2, 12))]
    TimeSeries(values=(A @ np.vstack(sources)).T).to_csv(root / "mixed.csv")
    digests = {}
    for name, subcommand, config in RUNS:
        for path in run(subcommand, config, root / name, master_seed=3):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _square(u):
    return u * u


# recorded under ENVIRONMENT: sha256 of the curve's values then mc_se bytes, or of the
# horizons' Hermite coefficients in order
CURVE_GOLDEN = {
    "irf_lp/gaussian": "88e172b35668ac77fcdc29d9dda7a8e7aaca477b243cab27f1ea36c55f6f4cdc",
    "decompose_lp_irf/gaussian": "b9b92bec6f83774be65ff7f513ad916340a94f1e679fec4f450d15b313ea6cef",
    "irf_lp/epanechnikov": "930f1bea82f7f93d8e9dd0dbf595c8f0930965d3155652bbcef5a71cb274656c",
    "decompose_lp_irf/epanechnikov": "7c5072419f3644603c108a78fbc0f891373ecc312b4ae2844aecd74d839e1a9f",
    "irf_transformed/indicator": "cec9d042de92142f9d1cf43b2c0d0cc2f4987845dc3861ea179d04221b6a2bd4",
    "irf_transformed/quantile_level": "ffb99caff7b99e29de6587807698ac716a87a1526b3c4908566ded021e0b7308",
    "irf_transformed/callable": "5cafca0e243c848e71fc09b861f959672850d8cd01199990081d5c6d4359b3d7",
    "irf_dynamic": "f84a28a6cf98ab2390a0f6f8a5d3e32994d64a027c21db57019fb643e7f4cc5c",
    "irf_joint": "bdae786562a80416e68d3f610f0fbd196d133cfa1fcc4748ccbd13a8ddec0a12",
    "decompose_direct_irf": "cf051281c049eb0276350ba6a6bff276b8bb3c84f94162783962e5de3093cf05",
}


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)).hexdigest()


def _dar_series():
    return simulate(Dar1.of(0.5, 1.0, 0.5), T=800, y0=0.2, seed=3)


def curve_digests():
    """Digest every pinned library curve on the DAR(1) series at T=800 with S=300."""
    series = _dar_series()
    req = IrfRequest(y0=0.2, horizons=7, delta=0.5, S=300, seed=5)
    out = {}
    for label, cfg in (("gaussian", KernelConfig()), ("epanechnikov", KernelConfig("epanechnikov", 0.6))):
        lp_req = replace(req, cfg=cfg)
        curve = irf_lp(series, lp_req)
        out[f"irf_lp/{label}"] = _digest(curve.values, curve.mc_se)
        out[f"decompose_lp_irf/{label}"] = _digest(*(d.coefficients for d in decompose_lp_irf(series, lp_req)))
    for label, transform in (("indicator", Indicator(0.5)), ("quantile_level", QuantileLevel(0.25)),
                             ("callable", _square)):
        curve = irf_transformed(series, req, transform)
        out[f"irf_transformed/{label}"] = _digest(curve.values, curve.mc_se)
    for name, fn in (("irf_dynamic", irf_dynamic), ("irf_joint", irf_joint)):
        curve = fn(series, req)
        out[name] = _digest(curve.values, curve.mc_se)
    out["decompose_direct_irf"] = _digest(*(d.coefficients for d in decompose_direct_irf(series, req)))
    return out


# an absolute mass threshold that rejects replications without aborting: the direct route loses
# 27 of 300 by horizon 7 at delta=0.5, the local projection 3 shocked step-one states at delta=1.5
# (none on the baseline side), and the CLI's decompose, at its derived seed, 8 shocked ones
REJECTING = KernelConfig(min_weight_sum=5.0)
REJECTED = {"direct": [0, 0, 3, 11, 18, 24, 27], "local_projection": [0, 3, 3, 3, 3, 3, 3]}

# recorded under ENVIRONMENT, as CURVE_GOLDEN and GOLDEN, on the code before every response
# came to reduce one PathSimulation
REJECTION_GOLDEN = {
    "irf_direct": "8354f8d7eecc76c383469f89504b96622881dba7cdaaa4e74ad20585e9fb9571",
    "irf_joint": "0235c28b979d1b540ef683a25ae3b2fa40914e0326d2d11c5b3038947aa4a24c",
    "irf_dynamic": "e3f4646069fcb2dc188ab3e54b1d7db2d3d12291a9e9c70f1e549e013afc2f5a",
    "irf_transformed/indicator": "48d8a82c8c04d2126c607f297a4e16665db5245f27ae816a09bc3dda0ac8dd5e",
    "irf_transformed/quantile_level": "875e584d6008c4bb297ce14f1ab397e24dcbd02a53070a608c6eaaf070932838",
    "irf_lp": "e246fd98141a01215b92dd70bee37eabb9fb841961f3d1409aecb208dc4159b4",
    "decompose_direct_irf": "f7ec10ff3ca120b80d3423b4382681a9d70df0c98a1960e226d116f4c562e569",
    "decompose_lp_irf": "b9b92bec6f83774be65ff7f513ad916340a94f1e679fec4f450d15b313ea6cef",
    "decompose_lp/decompose.csv": "2067c3e1438ff42406bce19249eb1e816325032f62824151f074dfe46104bc04",
    "decompose_lp/manifest.json": "59fc66df972469915a9cedbf06a3dc8a698f2d522c8e8b392e88d13c21ca27b5",
}


def rejection_digests(root):
    """Digest the pinned responses, and a CLI ``decompose`` run, under the rejecting threshold; return the
    digests and each curve's rejected counts."""
    series = _dar_series()
    req = IrfRequest(y0=0.2, horizons=7, delta=0.5, S=300, seed=5, cfg=REJECTING)
    lp_req = replace(req, delta=1.5)
    curves = {"irf_direct": irf_direct(series, req), "irf_joint": irf_joint(series, req),
              "irf_dynamic": irf_dynamic(series, req),
              "irf_transformed/indicator": irf_transformed(series, req, Indicator(0.5)),
              "irf_transformed/quantile_level": irf_transformed(series, req, QuantileLevel(0.25)),
              "irf_lp": irf_lp(series, lp_req)}
    out = {name: _digest(c.values, c.mc_se) for name, c in curves.items()}
    out["decompose_direct_irf"] = _digest(*(d.coefficients for d in decompose_direct_irf(series, req)))
    out["decompose_lp_irf"] = _digest(*(d.coefficients for d in decompose_lp_irf(series, lp_req)))
    series.to_csv(root / "dar.csv")
    config = {"input": "dar.csv", "y0": 0.2, "horizons": 7, "delta": 1.5, "S": 300, "J": 3,
              "route": "local_projection", "kernel": REJECTING.to_json_obj()}
    for path in run("decompose", config, root / "decompose_lp", master_seed=3):
        out[f"decompose_lp/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out, {name: c.meta["rejected"] for name, c in curves.items()}


def _require_recorded_stack():
    found = {"numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas()}
    mismatch = {k: (found[k], v) for k, v in ENVIRONMENT.items() if found[k] != v}
    if mismatch:
        pytest.skip("golden digests were recorded under another numeric stack: " + ", ".join(
            f"{k} {got} here, {want} recorded" for k, (got, want) in mismatch.items()))


def test_library_curves_match_golden_digests():
    _require_recorded_stack()
    assert curve_digests() == CURVE_GOLDEN


def test_cli_artifacts_match_golden_digests(tmp_path, monkeypatch):
    _require_recorded_stack()
    monkeypatch.chdir(tmp_path)  # relative inputs keep the manifests, and so every digest, path-free
    assert run_all(Path(".")) == GOLDEN


def test_rejecting_responses_match_golden_digests(tmp_path, monkeypatch):
    _require_recorded_stack()
    monkeypatch.chdir(tmp_path)
    digests, rejected = rejection_digests(Path("."))
    assert rejected == {name: REJECTED["local_projection" if name == "irf_lp" else "direct"] for name in rejected}
    assert digests == REJECTION_GOLDEN
