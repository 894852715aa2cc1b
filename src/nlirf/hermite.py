"""Probabilists' Hermite polynomials and IRF decomposition by nonlinearity degree.

He_j is the probabilists' family (orthogonal under the standard normal
density, Var[He_j(eps)] = j!), generated by the stable three-term
recurrence He_{j+1}(x) = x He_j(x) - j He_{j-1}(x).

Regressing simulated h-step outcomes on the Hermite polynomials of the
shock that generated step one yields coefficients beta_j estimating
E[outcome * He_j(eps)] / j!; the degree-j contribution to the response to
a shock of size delta is then beta_j * delta^j. Summing degrees j >= 2
separates the nonlinear share of the response from the linear one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import _as_reals, _finite, _integer

__all__ = ["HermiteDecomposition", "hermite", "hermite_design", "decompose_irf"]

DEFAULT_J = 5  # Hermite degrees fitted when the caller names none


def _hermite_terms(x: np.ndarray, J: int):
    """He_0(x), ..., He_J(x) in turn, holding two of them at a time."""
    prev, cur = np.zeros_like(x), np.ones_like(x)  # He_{-1} = 0 makes the first step give He_1 = x exactly
    yield cur
    for k in range(J):
        prev, cur = cur, x * cur - k * prev
        yield cur


def hermite(j: int, x):
    """Value of the probabilists' Hermite polynomial He_j at x (scalar or array)."""
    _integer("j", j, 0)
    for cur in _hermite_terms(_as_reals(x, "x"), j):
        pass
    return cur if cur.ndim else float(cur)


def hermite_design(eps_draws, J: int) -> np.ndarray:
    """Design matrix with columns He_0(eps), ..., He_J(eps).

    Column 0 is all ones. Raises on a numerically rank-deficient design
    (too few distinct draws to separate J + 1 polynomial degrees).
    """
    eps = _as_reals(eps_draws, "eps_draws").ravel()
    _integer("J", J, 1)
    if eps.size <= J + 1:
        raise ValueError(f"need more than J+1 = {J + 1} draws, got {eps.size}")
    X = np.empty((eps.size, J + 1))
    for j, column in enumerate(_hermite_terms(eps, J)):
        X[:, j] = column
    if np.linalg.matrix_rank(X) < J + 1:
        raise ValueError("Hermite design is rank deficient (duplicate draws)")
    return X


@dataclass(frozen=True)
class HermiteDecomposition:
    """Per-degree contributions of a shock to the h-step response.

    ``coefficients[j]`` estimates E[outcome * He_j(eps)] / j! and
    ``contributions[j-1] = coefficients[j] * delta^j`` for j = 1..J.
    ``reconstructed_total`` equals ``linear_part + nonlinear_part`` by
    construction.
    """

    horizon: int
    delta: float
    coefficients: np.ndarray
    coef_se: np.ndarray
    contributions: np.ndarray
    linear_part: float
    nonlinear_part: float
    reconstructed_total: float
    residual_se: float

    @property
    def degrees(self) -> np.ndarray:
        return np.arange(1, len(self.contributions) + 1)


def decompose_irf(sim_outputs, eps_draws, delta: float, J: int = DEFAULT_J, h: int = 1) -> HermiteDecomposition:
    """OLS of simulated h-step outcomes on the Hermite design of their step-one shocks.

    ``sim_outputs[s]`` must be the horizon-h outcome of the path whose
    first innovation was ``eps_draws[s]`` (either the simulated state
    itself or its (h-1)-step predicted value). Solved by SVD least
    squares, not normal equations.
    """
    m = _as_reals(sim_outputs, "sim_outputs").ravel()
    eps = _as_reals(eps_draws, "eps_draws").ravel()
    if m.size != eps.size:
        raise ValueError("sim_outputs and eps_draws must be paired (equal length)")
    _finite("delta", delta)
    _integer("h", h, 1)
    X = hermite_design(eps, J)
    S = m.size
    beta = np.linalg.lstsq(X, m, rcond=None)[0]
    resid = m - X @ beta
    dof = S - (J + 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(X.T @ X)
    coef_se = np.sqrt(np.diag(cov))

    contributions = beta[1:] * float(delta) ** np.arange(1, J + 1)  # an integer power would overflow
    linear = float(contributions[0])
    nonlinear = float(np.sum(contributions[1:]))
    return HermiteDecomposition(
        horizon=h,
        delta=delta,
        coefficients=beta,
        coef_se=coef_se,
        contributions=contributions,
        linear_part=linear,
        nonlinear_part=nonlinear,
        reconstructed_total=linear + nonlinear,
        residual_se=math.sqrt(sigma2),
    )
