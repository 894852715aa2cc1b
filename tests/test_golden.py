"""Golden digests: the sha256 of every artifact of small runs of all seven CLI subcommands.

The runs cover both IRF routes, both kernels, an explicit and a Silverman bandwidth, both
``decompose`` routes and the sweep. A change that is meant to keep outputs bitwise must leave
every digest as it is; a stated numerical change updates the digests it moves, together with
a CHANGES.md entry naming them and the reason.

Bitwise outputs depend on the numeric stack, so the digests hold for the numpy, scipy and BLAS
recorded in ``ENVIRONMENT``, and the test skips, naming the mismatch, under any other.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy

from nlirf.cli import run
from nlirf.models import GaussianAr1, TimeSeries, simulate


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


def test_cli_artifacts_match_golden_digests(tmp_path, monkeypatch):
    found = {"numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas()}
    mismatch = {k: (found[k], v) for k, v in ENVIRONMENT.items() if found[k] != v}
    if mismatch:
        pytest.skip("golden digests were recorded under another numeric stack: " + ", ".join(
            f"{k} {got} here, {want} recorded" for k, (got, want) in mismatch.items()))
    monkeypatch.chdir(tmp_path)  # relative inputs keep the manifests, and so every digest, path-free
    assert run_all(Path(".")) == GOLDEN
