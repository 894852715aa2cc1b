"""Data-generating processes and exact impulse-response oracles.

The models here serve two roles: they simulate trajectories that the
nonparametric estimators consume, and they expose the true one-step map
``g(y, eps)`` together with closed-form or Monte Carlo impulse responses
used as ground truth in tests and benchmarks.

Conventions
-----------
* Innovations are i.i.d. standard normal, one vector per time step,
  consumed in time order with components in index order. Identical
  (model, T, y0, seed) inputs therefore produce bitwise-identical paths.
* A shock of size ``delta`` perturbs the innovation entering at the first
  simulated step only; all later innovations are shared between the
  shocked and baseline paths (common random numbers), so a zero shock
  yields an exactly zero response at every horizon.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Union

import numpy as np

from ._checks import _as_reals, _finite, _instance, _integer, _object, _one_of, _positive_finite

__all__ = [
    "DarParams",
    "VarParams",
    "Dar1",
    "GaussianAr1",
    "GaussianVar1",
    "CondGaussian",
    "ModelSpec",
    "TimeSeries",
    "IrfCurve",
    "LyapunovEstimate",
    "simulate",
    "transition_g",
    "true_irf",
    "lyapunov_exponent",
    "model_to_json",
    "model_from_json",
]


# ---------------------------------------------------------------------------
# Core containers
# ---------------------------------------------------------------------------

@dataclass
class TimeSeries:
    """Ordered real-valued observations, stored as a read-only private (T, n) copy.

    ``origin`` records where the data came from (a seed string for
    simulated data, a file path for ingested data).
    """

    values: np.ndarray
    origin: str = ""

    def __post_init__(self) -> None:
        v = np.array(_as_reals(self.values, "series values"))
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2:
            raise ValueError(f"series values must be 1-D or 2-D, got shape {v.shape}")
        if v.shape[0] < 2:
            raise ValueError(f"series needs at least 2 observations, got {v.shape[0]}")
        v.flags.writeable = False
        self.values = v

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def y(self) -> np.ndarray:
        """The observations as a flat vector; only defined for univariate series."""
        if self.n != 1:
            raise ValueError(f"series is {self.n}-dimensional, expected univariate")
        return self.values[:, 0]

    def to_csv(self, path) -> None:
        """Write as CSV with header ``t,y1,...,yn`` and t = 1..T."""
        cols = ",".join(f"y{i + 1}" for i in range(self.n))
        with open(path, "w", newline="") as fh:
            fh.write(f"t,{cols}\n")
            for t in range(self.T):
                row = ",".join(f"{x:.17g}" for x in self.values[t])
                fh.write(f"{t + 1},{row}\n")


@dataclass
class IrfCurve:
    """Impulse response values for horizons 1..H with Monte Carlo errors.

    ``values[h-1]`` is the response at horizon h (a scalar for univariate
    processes, a vector otherwise). ``mc_se`` holds per-horizon Monte
    Carlo standard errors; exact (closed-form) entries carry zero.
    ``route`` tags how the curve was produced and ``meta`` echoes the
    request plus any per-horizon method details.
    """

    horizons: np.ndarray
    values: np.ndarray
    mc_se: np.ndarray
    route: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.horizons = np.asarray(self.horizons, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        self.mc_se = np.asarray(self.mc_se, dtype=float)
        if len(self.horizons) != len(self.values):
            raise ValueError("horizons and values length mismatch")
        if not np.isfinite(self.values).all():
            raise ValueError("IRF values must be finite")


# ---------------------------------------------------------------------------
# Model specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DarParams:
    """Parameters of the first-order double-autoregressive model."""

    rho: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("rho", "alpha", "beta"):
            _finite(name, getattr(self, name))
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")


class _LocationScale:
    """Univariate law y_t = cond_mean(y_{t-1}) + cond_scale(y_{t-1}) * eps_t.

    ``step`` is the one-step map g(y; e). It and both moments work
    elementwise, on Python floats and on arrays alike.
    """

    dim = 1

    def step(self, y, e):
        return self.cond_mean(y) + self.cond_scale(y) * e

    def closed_form(self, y0: np.ndarray, h: int, delta: np.ndarray) -> np.ndarray:
        """Exact IRF of the leading horizons 1..k (k <= h, h >= 1) at y0, as (k, dim): none for a general law."""
        return np.empty((0, 1))


@dataclass(frozen=True)
class Dar1(_LocationScale):
    """y_t = rho*y_{t-1} + sqrt(alpha + beta*y_{t-1}^2) * eps_t."""

    params: DarParams

    def __post_init__(self) -> None:
        _instance(DarParams, "a DarParams")("params", self.params)

    @classmethod
    def of(cls, rho: float, alpha: float, beta: float) -> "Dar1":
        return cls(DarParams(rho, alpha, beta))

    def cond_mean(self, y):
        return self.params.rho * y

    def cond_scale(self, y):
        return np.sqrt(self.params.alpha + self.params.beta * y * y)

    def closed_form(self, y0, h, delta):
        """Horizon 1 only: delta times the conditional scale sqrt(alpha + beta*y0^2), fixed by y0."""
        return (delta * self.cond_scale(y0))[None]


@dataclass(frozen=True)
class GaussianAr1(_LocationScale):
    """y_t = rho*y_{t-1} + sigma*eps_t with |rho| < 1."""

    rho: float
    sigma: float

    def __post_init__(self) -> None:
        if abs(_finite("rho", self.rho)) >= 1:
            raise ValueError(f"|rho| must be < 1, got {self.rho}")
        _positive_finite("sigma", self.sigma)

    def cond_mean(self, y):
        return self.rho * y

    def cond_scale(self, y):
        return self.sigma

    def closed_form(self, y0, h, delta):
        """Every horizon: the shock propagates linearly, rho^(k-1)*sigma*delta at horizon k."""
        return np.array([[self.rho ** (k - 1) * self.sigma * delta[0]] for k in range(1, h + 1)])


@dataclass
class VarParams:
    """Autoregressive matrix A and invertible shock loading D of a VAR(1)."""

    A: np.ndarray
    D: np.ndarray

    def __post_init__(self) -> None:
        A = np.atleast_2d(_as_reals(self.A, "A"))
        D = np.atleast_2d(_as_reals(self.D, "D"))
        if A.shape[0] != A.shape[1] or D.shape != A.shape:
            raise ValueError(f"A and D must be square of equal size, got {A.shape}, {D.shape}")
        if np.max(np.abs(np.linalg.eigvals(A))) >= 1:
            raise ValueError("spectral radius of A must be < 1")
        if abs(np.linalg.det(D)) < 1e-14:
            raise ValueError("D must be invertible")
        self.A, self.D = A, D

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class GaussianVar1:
    """y_t = A*y_{t-1} + D*eps_t with stable A and invertible D."""

    params: VarParams

    def __post_init__(self) -> None:
        _instance(VarParams, "a VarParams")("params", self.params)

    @property
    def dim(self) -> int:
        return self.params.n

    def step(self, y, e):
        """A y + D e, row-wise on (..., n) arrays."""
        return y @ self.params.A.T + e @ self.params.D.T

    def closed_form(self, y0, h, delta):
        """Every horizon, whatever y0: A^(k-1) D delta at horizon k as an (h, n) array, by repeated multiplication."""
        vals = [self.params.D @ delta]
        for _ in range(h - 1):
            vals.append(self.params.A @ vals[-1])
        return np.array(vals)


@dataclass(frozen=True)
class CondGaussian(_LocationScale):
    """y_t = drift(y_{t-1}) + scale(y_{t-1}) * eps_t with caller-supplied functions.

    ``drift`` and ``scale`` must work elementwise: on a Python float and
    on an array of states, returning a value of the same shape (or one
    that broadcasts against it, such as a constant). They are treated as
    black boxes, so finiteness of the drift and positivity of the scale
    are checked over every state at evaluation (a global check is not
    possible for arbitrary callables).
    """

    drift: Callable
    scale: Callable

    def __post_init__(self) -> None:
        for name in ("drift", "scale"):
            _instance(Callable, "callable")(name, getattr(self, name))

    def cond_mean(self, y):
        m = self.drift(y)
        if not np.all(np.isfinite(m)):
            raise ValueError(f"drift function returned non-finite values at y={y}")
        return m

    def cond_scale(self, y):
        s = self.scale(y)
        if not np.all(np.isfinite(s) & (s > 0)):
            raise ValueError(f"scale function must be finite and positive, got {s} at y={y}")
        return s


ModelSpec = Union[Dar1, GaussianAr1, GaussianVar1, CondGaussian]

# Lyapunov stationarity guard: simulate() refuses DAR(1) parameters whose
# estimated exponent is positive at this many standard errors.
_LYAPUNOV_GUARD_SE = 3.0
_LYAPUNOV_GUARD_DRAWS = 10_000
_LYAPUNOV_GUARD_SEED = 20_406_001


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    std_error: float

    @property
    def is_negative(self) -> bool:
        """True when the exponent is negative at the guard's confidence level."""
        return self.value + _LYAPUNOV_GUARD_SE * self.std_error < 0


# ---------------------------------------------------------------------------
# Transition maps
# ---------------------------------------------------------------------------

def _as_states(model: ModelSpec, y, what: str = "state", ndim: Optional[int] = None) -> np.ndarray:
    """``y`` as a finite float array of shape (..., n), with ``ndim`` axes if given; a scalar counts as (1,)."""
    _instance(ModelSpec, "a model")("model", model)
    y = np.atleast_1d(_as_reals(y, what))
    if y.shape[-1] != model.dim or ndim is not None and y.ndim != ndim:
        shape = f"({model.dim},)" if ndim == 1 else f"(..., {model.dim})"
        raise ValueError(f"{what} must have shape {shape}, got {y.shape}")
    return y


def transition_g(model: ModelSpec, y_prev, eps) -> np.ndarray:
    """One-step map g(y_prev; eps) of the model's autoregressive representation.

    Acts row-wise on state batches: ``y_prev`` and ``eps`` have shape
    (..., n) with broadcastable leading axes (a scalar is one univariate
    state), and the result has their broadcast shape.
    """
    y_prev, eps = _as_states(model, y_prev), _as_states(model, eps, "shock")
    return model.step(y_prev, eps)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def lyapunov_exponent(params: DarParams, M: int = 1_000_000, seed: int = 0) -> LyapunovEstimate:
    """Monte Carlo estimate of E log|rho + sqrt(beta)*eps| with its standard error.

    A negative exponent is the strict-stationarity condition of the DAR(1)
    model. With beta = 0 the expectation is log|rho| exactly and the
    standard error is zero.
    """
    _instance(DarParams, "a DarParams")("params", params)
    _integer("M", M, 10_000)
    _integer("seed", seed, 0)
    if params.beta == 0:
        # degenerate case: no randomness, the expectation is log|rho| exactly
        # (white noise, rho = 0, gives -inf: trivially stationary)
        value = math.log(abs(params.rho)) if params.rho != 0 else -math.inf
        return LyapunovEstimate(value=value, std_error=0.0)
    rng = np.random.default_rng(seed)
    draws = np.log(np.abs(params.rho + math.sqrt(params.beta) * rng.standard_normal(M)))
    return LyapunovEstimate(
        value=float(np.mean(draws)),
        std_error=float(np.std(draws, ddof=1) / math.sqrt(M)),
    )


def _check_dar_stationary(params: DarParams) -> None:
    est = lyapunov_exponent(params, M=_LYAPUNOV_GUARD_DRAWS, seed=_LYAPUNOV_GUARD_SEED)
    if not est.is_negative:
        raise ValueError(
            "DAR(1) parameters fail the stationarity condition: estimated "
            f"Lyapunov exponent {est.value:.4f} (se {est.std_error:.4f}) is not "
            "negative at 3 standard errors"
        )


def simulate(model: ModelSpec, T: int, y0, seed: int, burn_in: int = 0) -> TimeSeries:
    """Simulate a length-T trajectory y_1..y_T starting from the state y0.

    One standard-normal innovation vector is drawn per step, in time
    order; the initial state itself is not part of the returned series.
    ``burn_in`` extra steps are simulated and discarded up front.
    """
    _integer("T", T, 2)
    _integer("burn_in", burn_in, 0)
    _integer("seed", seed, 0)
    if isinstance(model, Dar1):
        _check_dar_stationary(model.params)
    y = _as_states(model, y0, ndim=1)
    eps = np.random.default_rng(seed).standard_normal((T + burn_in, model.dim))
    if model.dim == 1:
        # a float state steps many times faster than a (1,) array
        y, eps = float(y[0]), eps[:, 0].tolist()
    step, path = model.step, []
    for e in eps:
        y = step(y, e)
        path.append(y)
    values = np.array(path, dtype=float).reshape(T + burn_in, model.dim)[burn_in:]
    return TimeSeries(values=values, origin=f"simulated:{type(model).__name__}:seed={seed}")


# ---------------------------------------------------------------------------
# True impulse responses
# ---------------------------------------------------------------------------

def true_irf(
    model: ModelSpec,
    y0,
    h: int,
    delta,
    S: int = 10_000,
    seed: int = 0,
) -> IrfCurve:
    """Model-implied IRF(k, delta) for k = 1..h, conditional on the state y0.

    Uses the model's ``closed_form`` where it admits one (Gaussian AR/VAR
    at all horizons, DAR(1) at horizon 1) and common-random-number Monte
    Carlo over S paired paths otherwise; the per-horizon method is
    recorded in ``meta["method"]``.
    """
    _integer("h", h, 1)
    _integer("S", S, 1)
    _integer("seed", seed, 0)
    y = _as_states(model, y0, ndim=1)
    d = _as_states(model, delta, "delta", ndim=1)

    exact = model.closed_form(y, h, d)
    k = len(exact)
    meta = {"method": ["closed_form"] * k + ["monte_carlo"] * (h - k),
            "delta": d.tolist(), "y0": y.tolist(), "S": None, "rejected": [0] * h}
    if k == h:
        values, se = exact, np.zeros_like(exact)
    else:
        # S paired paths at once; one (S, h, n) draw is the same stream as
        # S successive (h, n) draws
        eps = np.random.default_rng(seed).standard_normal((S, h, model.dim))
        diffs = np.empty_like(eps)
        base = shocked = y
        for j in range(h):
            base = transition_g(model, base, eps[:, j])
            shocked = transition_g(model, shocked, eps[:, j] + d if j == 0 else eps[:, j])
            diffs[:, j] = shocked - base
        values = diffs.mean(axis=0)
        se = diffs.std(axis=0, ddof=1) / math.sqrt(S) if S > 1 else np.zeros_like(values)
        # leading horizons with an exact value replace their Monte Carlo estimate
        values[:k], se[:k] = exact, 0.0
        meta.update(S=S, seed=seed)
    if model.dim == 1:
        values, se = values[:, 0], se[:, 0]
    return IrfCurve(horizons=np.arange(1, h + 1), values=values, mc_se=se, route="oracle", meta=meta)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

# JSON variant -> (model class, the dataclass whose fields are its keys in order: its params or itself)
_VARIANTS = {"dar1": (Dar1, DarParams), "gaussian_ar1": (GaussianAr1, GaussianAr1),
             "gaussian_var1": (GaussianVar1, VarParams)}


def model_to_json(model: ModelSpec) -> str:
    """The variant name, then each key in field order; numpy numbers are written as Python ones."""
    name = next((n for n, (cls, _) in _VARIANTS.items() if isinstance(model, cls)), None)
    if name is None:
        raise ValueError(f"model {type(model).__name__} is not JSON-serializable, expected one of {list(_VARIANTS)}")
    cls, keys = _VARIANTS[name]
    params = model if keys is cls else model.params
    return json.dumps({"variant": name, **{f.name: np.asarray(getattr(params, f.name)).tolist() for f in fields(keys)}})


def model_from_json(text_or_obj) -> ModelSpec:
    obj = dict(_object("model", json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj))
    variant = _one_of(list(_VARIANTS))("variant", obj.pop("variant", None))
    cls, keys = _VARIANTS[variant]
    names = {f.name for f in fields(keys)}
    if set(obj) != names:
        raise ValueError(
            f"model {variant!r}: unknown keys {sorted(set(obj) - names)}, missing keys {sorted(names - set(obj))}"
        )
    return keys(**obj) if keys is cls else cls(keys(**obj))
