"""Nonlinear impulse response analysis for Markov time series.

Simulate benchmark processes, estimate impulse responses by direct
recursion of a kernel-estimated autoregressive map or by nonlinear local
projection, decompose responses by nonlinearity degree with Hermite
polynomials, fit double-autoregressive models by quasi maximum
likelihood, and run identification diagnostics (latent-source mixing
recovery, Markov moment test) and Monte Carlo rate benchmarks.
"""

from .bench import (
    CondCdfTarget,
    CondQuantileTarget,
    IrfTarget,
    SweepReport,
    SweepSpec,
    run_sweep,
)
from .hermite import HermiteDecomposition, decompose_irf, hermite, hermite_design
from .identify import (
    DegenerateDynamics,
    MarkovTestResult,
    MixingEstimate,
    default_markov_basis,
    markov_moment_test,
    recover_mixing,
    recover_mixing_from_acf,
)
from .irf import (
    Indicator,
    IrfRequest,
    MaxIrfResult,
    QuantileLevel,
    decompose_direct_irf,
    decompose_lp_irf,
    irf_direct,
    irf_dynamic,
    irf_joint,
    irf_lp,
    irf_transformed,
    simulate_paths,
    var_irf,
    var_max_irf,
)
from .kernels import (
    ClampedShockWarning,
    ConditionalEstimate,
    InsufficientLocalData,
    KernelConfig,
    cond_cdf,
    cond_quantile,
    g_hat,
    kde,
    nadaraya_watson,
    silverman_bandwidth,
)
from .models import (
    CondGaussian,
    Dar1,
    DarParams,
    GaussianAr1,
    GaussianVar1,
    IrfCurve,
    LyapunovEstimate,
    ModelSpec,
    TimeSeries,
    VarParams,
    lyapunov_exponent,
    model_from_json,
    model_to_json,
    simulate,
    transition_g,
    true_irf,
)
from .qmle import GridSpec, QmleResult, dar_quasi_loglik, qmle_grid_search

__version__ = "0.1.0"
