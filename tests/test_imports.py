"""nlirf's import graph stays light, and its scipy.special calls are the scipy.stats ones.

Each CLI subcommand runs in a fresh process that imports nlirf before it estimates anything, and
``scipy.stats`` alone once took most of that import's time and resident memory. The package calls
the ``scipy.special`` functions that ``scipy.stats`` itself calls, so every value keeps its bits.
The tests may import ``scipy.stats``; the package may not.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaincinv, ndtr
from scipy.stats import chi2, norm

import nlirf
from nlirf import CondCdfTarget, Dar1, GaussianAr1, default_markov_basis, markov_moment_test, simulate
from nlirf.bench import _conditional_moments

PACKAGE = Path(nlirf.__file__).parent

# levels near 0 and 1, a grid between, and the edges where 1 - level rounds to 1 or to the last double below it
LEVELS = [1e-300, 1e-20, 1e-17, 1e-16, 2e-16, 1e-12, 1e-8, 1e-5, 1e-3, 0.01, 0.025, 0.05, 0.1,
          *np.linspace(0.15, 0.85, 15), 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-5, 1 - 1e-8, 1 - 1e-12,
          1 - 2e-16, np.nextafter(1.0, 0.0)]


def test_third_party_imports_are_numpy_and_scipy_special():
    # a heavy module (scipy.stats, pandas, ...) would be paid for by every CLI process
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
        names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
        third_party = {n for n in names if n.split(".")[0] not in sys.stdlib_module_names}
        allowed = {n for n in third_party if n == "numpy" or n.startswith("numpy.") or n == "scipy.special"}
        assert third_party == allowed, (path.name, sorted(third_party - allowed))


def test_fresh_import_leaves_scipy_stats_unloaded():
    path = [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, nlirf, nlirf.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("k", range(1, 41))
def test_chi_square_quantile_is_bitwise_scipy_stats(k):
    for level in LEVELS:
        got = float(2 * gammaincinv(k / 2, 1 - level))  # the expression of markov_moment_test
        want = float(chi2.ppf(1 - level, df=k))
        assert np.array_equal(got, want), (k, level, got, want)


@pytest.mark.parametrize("level", [1e-12, 0.01, 0.05, 0.5, 1 - 1e-12])
def test_markov_critical_value_is_the_scipy_stats_quantile(level):
    ts = simulate(GaussianAr1(0.5, 1.0), T=200, y0=0.0, seed=9101)
    k = len(default_markov_basis(ts))
    assert k == 4
    res = markov_moment_test(ts, B=20, seed=1, level=level)
    assert res.critical_value == float(chi2.ppf(1 - level, df=k))


def test_ndtr_is_bitwise_norm_cdf():
    grid = np.concatenate([np.linspace(-40.0, 40.0, 20001), [-np.inf, np.inf, -0.0, 0.0, 5e-324, -5e-324],
                           np.random.default_rng(9102).standard_normal(1000)])
    assert ndtr(grid).tobytes() == norm.cdf(grid).tobytes()
    for u in grid[::97]:  # the scalar calls of the package
        assert np.array_equal(ndtr(float(u)), norm.cdf(float(u)))


@pytest.mark.parametrize("model", [Dar1.of(0.5, 1.0, 0.5), GaussianAr1(0.5, 1.0)])
@pytest.mark.parametrize("y, z", [(0.0, 0.0), (0.3, -1.2), (-2.0, 4.5), (1.5, 40.0), (0.0, -40.0)])
def test_conditional_cdf_oracle_is_the_scipy_stats_value(model, y, z):
    m, s = _conditional_moments(model, y)
    assert CondCdfTarget(z=z, y=y).oracle(model) == float(norm.cdf((z - m) / s))
