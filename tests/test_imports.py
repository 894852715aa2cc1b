"""nlirf imports without scipy, and every special-function value keeps scipy.stats' bits.

Each CLI subcommand runs in a fresh process that imports nlirf before it estimates anything, and
``scipy.special`` alone once took most of that import's time and resident memory. The Gaussian rank
Phi that every estimate calls is ``nlirf._normal._ndtr``, a port of the cephes ``ndtr`` behind
``scipy.special.ndtr`` and so behind ``norm.cdf``, bitwise equal to both. The two calls that need
another special function, the Markov test's chi-square critical value (``gammaincinv``) and the
conditional-quantile oracle (``ndtri``), import ``scipy.special`` inside their function bodies, and
each is the call ``scipy.stats`` makes. The tests may import scipy; the package's modules may not.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gammaincinv, ndtr
from scipy.stats import chi2, norm

import nlirf
from nlirf import CondCdfTarget, Dar1, GaussianAr1, default_markov_basis, markov_moment_test, simulate
from nlirf._normal import _MAXLOG, _ndtr
from nlirf.bench import _conditional_moments

PACKAGE = Path(nlirf.__file__).parent

# levels near 0 and 1, a grid between, and the edges where 1 - level rounds to 1 or to the last double below it
LEVELS = [1e-300, 1e-20, 1e-17, 1e-16, 2e-16, 1e-12, 1e-8, 1e-5, 1e-3, 0.01, 0.025, 0.05, 0.1,
          *np.linspace(0.15, 0.85, 15), 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-5, 1 - 1e-8, 1 - 1e-12,
          1 - 2e-16, np.nextafter(1.0, 0.0)]


def _imports(tree: ast.Module):
    """(module name, whether the import sits in a function body) for each absolute import in a tree."""
    in_function = {id(node) for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(f)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.name, id(node) in in_function) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module, id(node) in in_function


def test_third_party_imports_are_numpy_and_scipy_special_in_function_bodies():
    # a heavy module (scipy.special, scipy.stats, pandas, ...) imported at module level would be paid for
    # by every CLI process
    for path in sorted(PACKAGE.glob("*.py")):
        third_party = {(name, lazy) for name, lazy in _imports(ast.parse(path.read_text()))
                       if name.split(".")[0] not in sys.stdlib_module_names}
        allowed = {(name, lazy) for name, lazy in third_party
                   if name.split(".")[0] == "numpy" or (name, lazy) == ("scipy.special", True)}
        assert third_party == allowed, (path.name, sorted(third_party - allowed))


def _fresh(code: str) -> list:
    """The output lines of ``code`` run in a fresh interpreter that imports this package."""
    path = [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.split()


def test_fresh_import_loads_no_scipy_module():
    code = "import sys, nlirf, nlirf.cli; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh(code) == []


def test_lazy_scipy_calls_give_the_scipy_stats_bits_in_a_fresh_process():
    levels, alphas = [1e-12, 0.05, 0.5, 1 - 1e-12], [1e-10, 0.025, 0.3, 0.5, 0.975, 1 - 1e-10]
    model = Dar1.of(0.5, 1.0, 0.5)
    code = ("from nlirf import CondQuantileTarget, Dar1, GaussianAr1, markov_moment_test, simulate\n"
            "ts = simulate(GaussianAr1(0.5, 1.0), T=200, y0=0.0, seed=9101)\n"
            f"for level in {levels!r}:\n"
            "    print(markov_moment_test(ts, B=20, seed=1, level=level).critical_value.hex())\n"
            f"for alpha in {alphas!r}:\n"
            "    print(CondQuantileTarget(alpha=alpha, y=0.4).oracle(Dar1.of(0.5, 1.0, 0.5)).hex())")
    m, s = _conditional_moments(model, 0.4)
    want = [float(chi2.ppf(1 - level, df=4)).hex() for level in levels]
    want += [float(norm.ppf(alpha, loc=m, scale=s)).hex() for alpha in alphas]
    assert _fresh(code) == want


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


def _walk(x: float, toward: float, n: int) -> list:
    """The n doubles after x on its way to ``toward``."""
    out = []
    for _ in range(n):
        x = float(np.nextafter(x, toward))
        out.append(x)
    return out


# where a cephes branch switches, in a = sqrt(2) x: ndtr's erf ends at |x| = 1/sqrt(2), erfc's own erf at
# |x| = 1, P/Q gives way to R/S at 8, and exp(-x^2) to zero at x^2 = MAXLOG
EDGES = [s * e for e in (1.0, math.sqrt(2), 8 * math.sqrt(2), math.sqrt(2 * _MAXLOG)) for s in (1.0, -1.0)]


def test_ndtr_is_bitwise_norm_cdf():
    edges = [v for e in EDGES for v in [e, *_walk(e, -math.inf, 8), *_walk(e, math.inf, 8)]]
    grid = np.concatenate([np.linspace(-40.0, 40.0, 20001), np.linspace(-6.0, 6.0, 120001), edges,
                           [-np.inf, np.inf, -0.0, 0.0, 5e-324, -5e-324, np.nan],
                           np.random.default_rng(9102).standard_normal(1000)])
    want = ndtr(grid)
    assert _ndtr(grid).tobytes() == want.tobytes() == norm.cdf(grid).tobytes()
    rows = grid[: grid.size // 2 * 2].reshape(2, -1)
    assert _ndtr(rows).shape == rows.shape and _ndtr(rows).tobytes() == ndtr(rows).tobytes()
    for u in grid[::97]:  # 0-d, as the package's scalar calls are
        got = _ndtr(float(u))
        assert got.shape == () and got.tobytes() == ndtr(float(u)).tobytes() == norm.cdf(float(u)).tobytes()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_ndtr_is_bitwise_scipy_ndtr_on_finite_doubles(values):
    a = np.array(values)
    assert _ndtr(a).tobytes() == ndtr(a).tobytes()


@pytest.mark.parametrize("model", [Dar1.of(0.5, 1.0, 0.5), GaussianAr1(0.5, 1.0)])
@pytest.mark.parametrize("y, z", [(0.0, 0.0), (0.3, -1.2), (-2.0, 4.5), (1.5, 40.0), (0.0, -40.0)])
def test_conditional_cdf_oracle_is_the_scipy_stats_value(model, y, z):
    m, s = _conditional_moments(model, y)
    assert CondCdfTarget(z=z, y=y).oracle(model) == float(norm.cdf((z - m) / s))
