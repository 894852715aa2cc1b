import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlirf.hermite import HermiteDecomposition, decompose_irf, hermite, hermite_design


def rodrigues_coefficients(j):
    """Integer coefficient list (ascending powers) of He_j, derived symbolically.

    Differentiates p(x) * exp(-x^2/2) repeatedly: p -> p' - x p, starting
    from p = 1, then He_j = (-1)^j p_j. Independent of the three-term
    value recurrence used by the implementation.
    """
    p = [1]
    for _ in range(j):
        dp = [p[k] * k for k in range(1, len(p))]  # p'
        xp = [0] + p  # x * p
        n = max(len(dp), len(xp))
        p = [(dp[k] if k < len(dp) else 0) - (xp[k] if k < len(xp) else 0) for k in range(n)]
    return [c * (-1) ** j for c in p]


def eval_poly(coeffs, x):
    return sum(c * x**k for k, c in enumerate(coeffs))


def loop_hermite(j, x):
    """The recurrence as ``hermite`` ran it on its own, from He_{-1} = 0 and He_0 = 1."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(j):
        prev, cur = cur, x * cur - k * prev
    return cur if cur.ndim else float(cur)


def loop_design(eps, J):
    """The recurrence as ``hermite_design`` ran it on its own, column by column."""
    X = np.empty((eps.size, J + 1))
    X[:, 0] = 1.0
    X[:, 1] = eps
    for j in range(1, J):
        X[:, j + 1] = eps * X[:, j] - j * X[:, j - 1]
    return X


# ---------------------------------------------------------------------------
# polynomial values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(), (257,), (13, 9)])
def test_hermite_is_the_design_column_bitwise(shape):
    J, rng = 8, np.random.default_rng(21)
    x = rng.standard_normal(shape) * 2.5
    X = hermite_design(np.concatenate([x.ravel(), rng.standard_normal(20)]), J)  # a design needs > J + 1 draws
    for j in range(J + 1):
        got = np.asarray(hermite(j, x))
        assert got.shape == shape and got.tobytes() == np.asarray(loop_hermite(j, x)).tobytes()
        assert got.ravel().tobytes() == X[:x.size, j].tobytes()


def test_design_equals_the_column_loop_bitwise():
    eps = np.random.default_rng(22).standard_normal(1000)
    for J in (1, 2, 5, 9):
        X = hermite_design(eps, J)
        assert X.flags.c_contiguous and X.tobytes() == loop_design(eps, J).tobytes()


def test_tabulated_values():
    assert hermite(2, 0.0) == pytest.approx(-1.0, abs=1e-15)
    assert hermite(5, 1.0) == pytest.approx(6.0, abs=1e-12)  # 1 - 10 + 15
    assert hermite(3, 2.0) == pytest.approx(2.0, abs=1e-12)  # 8 - 6
    assert hermite(0, 3.7) == 1.0
    assert hermite(1, -2.5) == -2.5


def test_recurrence_matches_rodrigues_expansion():
    grid = np.linspace(-4, 4, 100)
    for j in range(9):
        coeffs = rodrigues_coefficients(j)
        expect = eval_poly(coeffs, grid)
        np.testing.assert_allclose(hermite(j, grid), expect, atol=1e-9, rtol=1e-9)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        hermite(-1, 0.0)


@settings(max_examples=50, deadline=None)
@given(j=st.integers(0, 10), x=st.floats(-5, 5, allow_nan=False))
def test_recurrence_identity_pointwise(j, x):
    # He_{j+1}(x) = x He_j(x) - j He_{j-1}(x)
    if j == 0:
        assert hermite(1, x) == pytest.approx(x * hermite(0, x), abs=1e-9)
    else:
        lhs = hermite(j + 1, x)
        rhs = x * hermite(j, x) - j * hermite(j - 1, x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# design matrix
# ---------------------------------------------------------------------------

def test_design_shape_and_ones_column():
    rng = np.random.default_rng(0)
    eps = rng.standard_normal(500)
    X = hermite_design(eps, J=4)
    assert X.shape == (500, 5)
    np.testing.assert_array_equal(X[:, 0], np.ones(500))
    np.testing.assert_allclose(X[:, 3], hermite(3, eps), rtol=1e-12)


def test_design_gram_is_factorial_diagonal():
    # orthogonality and Var He_j = j! under the standard normal; tolerances
    # are 4 sigma with entrywise sampling noise computed exactly by
    # Gauss-Hermite quadrature of Var(He_j He_l)
    from numpy.polynomial.hermite_e import hermegauss

    rng = np.random.default_rng(1)
    S, J = 100_000, 5
    X = hermite_design(rng.standard_normal(S), J)
    G = (X.T @ X) / S
    fact = [math.factorial(j) for j in range(J + 1)]

    nodes, qw = hermegauss(60)
    qw = qw / math.sqrt(2 * math.pi)
    basis = [eval_poly(rodrigues_coefficients(j), nodes) for j in range(J + 1)]
    for j in range(J + 1):
        for l in range(j + 1):
            mean = fact[j] if j == l else 0.0
            second = float(np.sum(qw * basis[j] ** 2 * basis[l] ** 2))
            sd = math.sqrt(max(second - mean**2, 0.0) / S)
            assert abs(G[j, l] - mean) < 4 * sd + 1e-9


def test_design_column_means_vanish():
    rng = np.random.default_rng(2)
    S, J = 100_000, 5
    X = hermite_design(rng.standard_normal(S), J)
    for j in range(1, J + 1):
        bound = 3 * math.sqrt(math.factorial(j) / S)
        assert abs(X[:, j].mean()) < bound


def test_design_rank_deficiency_flagged():
    with pytest.raises(ValueError, match="rank deficient"):
        hermite_design(np.full(100, 0.7), J=3)
    with pytest.raises(ValueError):
        hermite_design(np.arange(4.0), J=4)  # too few draws


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_linear_outcome_has_no_nonlinear_part():
    # outcomes linear in the shock: beta_1 = sigma, higher degrees vanish
    rng = np.random.default_rng(3)
    S, sigma, delta, y0, rho = 20_000, 1.0, 0.5, 1.0, 0.5
    eps = rng.standard_normal(S)
    outcomes = rho * y0 + sigma * eps
    dec = decompose_irf(outcomes, eps, delta=delta, J=5, h=1)
    # outcomes are an exact linear function of the design, so the fit is
    # exact up to floating point and the OLS errors collapse to ~0
    assert dec.linear_part == pytest.approx(sigma * delta, abs=3 * dec.coef_se[1] * delta + 1e-12)
    for j in range(2, 6):
        assert abs(dec.coefficients[j]) < 3 * dec.coef_se[j] + 1e-12
    assert abs(dec.nonlinear_part) < 1e-10
    assert dec.residual_se < 1e-12


def test_exponential_outcome_analytic_oracle():
    # for g(eps) = exp(a*eps): E[g He_j] = a^j exp(a^2/2), so
    # beta_j -> a^j exp(a^2/2) / j! and the reconstruction converges to
    # exp(a^2/2) (exp(a*delta) - 1)
    rng = np.random.default_rng(4)
    a, delta, S, J = 0.5, 0.5, 400_000, 6
    eps = rng.standard_normal(S)
    vals = np.exp(a * eps)
    dec = decompose_irf(vals, eps, delta=delta, J=J, h=1)
    for j in range(1, J + 1):
        oracle = a**j * math.exp(a**2 / 2) / math.factorial(j)
        # sampling error of the projection moment E[g He_j]/j! dominates
        # the (near-zero) OLS residual error here
        moment_se = np.std(vals * hermite(j, eps), ddof=1) / math.sqrt(S) / math.factorial(j)
        assert dec.coefficients[j] == pytest.approx(oracle, abs=4 * moment_se + 1e-9)
    exact_irf = math.exp(a**2 / 2) * (math.exp(a * delta) - 1.0)
    assert dec.reconstructed_total == pytest.approx(exact_irf, rel=0.02)


def test_population_identity_bruteforce_mc():
    # coefficients times j! should match a large-sample Monte Carlo of
    # E[M(eps) He_j(eps)] computed with the true map, j <= 3
    rng = np.random.default_rng(5)
    rho, alpha, beta, y0 = 0.5, 1.0, 0.5, 0.2

    def m_step(eps):
        return rho * (rho * y0 + math.sqrt(alpha + beta * y0**2) * eps)

    S = 50_000
    eps = rng.standard_normal(S)
    dec = decompose_irf(m_step(eps), eps, delta=0.5, J=5, h=2)

    M = 1_000_000
    big = rng.standard_normal(M)
    vals = m_step(big)
    for j in range(1, 4):
        prod = vals * hermite(j, big)
        oracle = prod.mean()
        oracle_se = prod.std(ddof=1) / math.sqrt(M)
        got = dec.coefficients[j] * math.factorial(j)
        combined = 3 * math.sqrt((dec.coef_se[j] * math.factorial(j)) ** 2 + oracle_se**2)
        assert abs(got - oracle) < combined + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    delta=st.floats(-2, 2, allow_nan=False),
    J=st.integers(1, 6),
)
def test_additivity_identity(seed, delta, J):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(200)
    dec = decompose_irf(np.tanh(eps) + 0.1 * eps**2, eps, delta=delta, J=J)
    assert dec.reconstructed_total == dec.linear_part + dec.nonlinear_part
    assert len(dec.contributions) == J
    assert isinstance(dec, HermiteDecomposition)


def test_integer_delta_gives_the_float_contributions():
    # 1000 ** 7 overflows a 64-bit integer
    rng = np.random.default_rng(0)
    eps = rng.standard_normal(500)
    m = eps + 0.1 * eps**2 + 0.01 * rng.standard_normal(500)
    assert decompose_irf(m, eps, delta=1000, J=7).contributions.tolist() == \
        decompose_irf(m, eps, delta=1000.0, J=7).contributions.tolist()


def test_decompose_validates_inputs():
    eps = np.arange(10.0)
    with pytest.raises(ValueError):
        decompose_irf(np.ones(9), eps, delta=0.5)
    with pytest.raises(ValueError):
        decompose_irf(np.ones(10), eps, delta=0.5, J=0)
    with pytest.raises(ValueError):
        decompose_irf(np.ones(10), eps, delta=0.5, h=0)
