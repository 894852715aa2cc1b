"""Every public argument is checked by type as well as by range, in one place.

A bad argument raises a ValueError whose message starts with the argument's name, never a bare
TypeError or LinAlgError, never InsufficientLocalData (which means thin kernel mass), and is
never silently run. Numpy scalars pass like Python ones.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import nlirf
import nlirf.irf as irf_module
from nlirf import (
    CondCdfTarget,
    CondGaussian,
    Dar1,
    DarParams,
    GaussianAr1,
    GaussianVar1,
    Indicator,
    InsufficientLocalData,
    IrfRequest,
    KernelConfig,
    QuantileLevel,
    SweepSpec,
    VarParams,
    cond_cdf,
    cond_quantile,
    dar_quasi_loglik,
    decompose_direct_irf,
    decompose_irf,
    decompose_lp_irf,
    default_markov_basis,
    g_hat,
    hermite,
    hermite_design,
    irf_direct,
    irf_dynamic,
    irf_joint,
    irf_lp,
    irf_transformed,
    kde,
    lyapunov_exponent,
    markov_moment_test,
    model_from_json,
    model_to_json,
    nadaraya_watson,
    qmle_grid_search,
    recover_mixing,
    recover_mixing_from_acf,
    run_sweep,
    silverman_bandwidth,
    simulate,
    simulate_paths,
    transition_g,
    true_irf,
    var_irf,
    var_max_irf,
)

DAR = Dar1.of(0.5, 1.0, 0.5)
SERIES = simulate(DAR, T=300, y0=0.0, seed=1)
VAR = VarParams(A=0.5 * np.eye(2), D=np.eye(2))
BIVARIATE = simulate(GaussianVar1(VAR), T=300, y0=[0.0, 0.0], seed=2)
REQ = IrfRequest(y0=0.2, horizons=2, delta=0.5, S=100, seed=3)
EPS = np.random.default_rng(4).standard_normal(200)
OUT = EPS + 0.1 * EPS**2


def spec(**kwargs):
    fields = {"model": GaussianAr1(0.5, 1.0), "sample_sizes": (100, 200), "seeds_per_size": 10,
              "target": CondCdfTarget(z=0.3, y=0.5), **kwargs}
    return SweepSpec(**fields)


# (call, the argument its message must name): a wrong type, a NaN or an out-of-range value
BAD_CALLS = {
    "simulate_T_float": (lambda: simulate(DAR, T=2.5, y0=0.0, seed=0), "T"),
    "true_irf_h_float": (lambda: true_irf(DAR, y0=0.2, h=2.5, delta=0.5), "h"),
    "true_irf_S_float": (lambda: true_irf(DAR, y0=0.2, h=2, delta=0.5, S=10.5), "S"),
    "hermite_j_float": (lambda: hermite(2.5, EPS), "j"),
    "hermite_x_str": (lambda: hermite(2, "1.5"), "x"),
    "hermite_x_bool": (lambda: hermite(2, True), "x"),
    "recover_mixing_from_acf_str": (
        lambda: recover_mixing_from_acf(["0.5", "0.25", "0.1"], ["0.2", "0.3", "0.2"], ["0.1", "0.1", "0.05"]),
        "gamma11"),
    "hermite_design_J_float": (lambda: hermite_design(EPS, J=2.5), "J"),
    "decompose_direct_J_float": (lambda: decompose_direct_irf(SERIES, REQ, J=2.5), "J"),
    "var_irf_h_float": (lambda: var_irf(VAR, [1.0, 0.0], h=2.5), "h"),
    "var_max_irf_h_float": (lambda: var_max_irf(VAR, [1.0, 0.0], h=2.5), "h"),
    "recover_mixing_max_lag_float": (lambda: recover_mixing(BIVARIATE, max_lag=2.5), "max_lag"),
    "lyapunov_M_float": (lambda: lyapunov_exponent(DAR.params, M=10_000.5), "M"),
    "cond_cdf_z_str": (lambda: cond_cdf(SERIES, z="0.3", y=0.0), "z"),
    "cond_quantile_alpha_str": (lambda: cond_quantile(SERIES, alpha="0.3", y=0.0), "alpha"),
    "nadaraya_watson_y_str": (lambda: nadaraya_watson(SERIES, 1, y="0.2"), "y"),
    "kde_at_str": (lambda: kde(SERIES.y, at="x"), "at"),
    "quantile_level_str": (lambda: QuantileLevel("0.5"), "alpha"),
    "kernel_config_not_object": (lambda: KernelConfig.from_json_obj(5), "kernel"),
    "model_not_object": (lambda: model_from_json(5), "model"),
    "simulate_seed_float": (lambda: simulate(DAR, T=50, y0=0.0, seed=1.5), "seed"),
    "true_irf_seed_float": (lambda: true_irf(DAR, y0=0.2, h=2, delta=0.5, S=10, seed=1.5), "seed"),
    "lyapunov_seed_float": (lambda: lyapunov_exponent(DAR.params, M=10_000, seed=1.5), "seed"),
    "markov_test_seed_float": (lambda: markov_moment_test(SERIES, B=20, seed=1.5), "seed"),
    "run_sweep_master_seed_float": (lambda: run_sweep(spec(), master_seed=1.5), "master_seed"),
    "irf_transformed_int": (lambda: irf_transformed(SERIES, REQ, transform=3), "transform"),
    "indicator_str": (lambda: Indicator("a"), "threshold"),
    "var_params_nan": (lambda: VarParams(A=[[math.nan]], D=[[1.0]]), "A"),
    "var_max_irf_h_negative": (lambda: var_max_irf(VAR, [1.0, 0.0], h=-1), "h"),
    "var_max_irf_a_str": (lambda: var_max_irf(VAR, ["1", "0"], h=1), "a"),
    "var_max_irf_a_nan": (lambda: var_max_irf(VAR, [math.nan, 0.0], h=1), "a"),
    "var_irf_delta_nan": (lambda: var_irf(VAR, [math.nan, 0.0], h=1), "delta"),
    "decompose_irf_h_float": (lambda: decompose_irf(OUT, EPS, 0.5, J=3, h=1.5), "h"),
    "decompose_irf_delta_str": (lambda: decompose_irf(OUT, EPS, "1.0", J=3), "delta"),
    "cond_cdf_y_bool": (lambda: cond_cdf(SERIES, 0.3, y=True), "y"),
    "gaussian_ar1_rho_nan": (lambda: GaussianAr1(rho=math.nan, sigma=1.0), "rho"),
    "sweep_seeds_per_size_float": (lambda: spec(seeds_per_size=10.5), "seeds_per_size"),
    "sweep_sample_sizes_float": (lambda: spec(sample_sizes=(100.5, 200)), "sample_sizes"),
    "sweep_model_str": (lambda: spec(model="x"), "model"),
    "sweep_target_str": (lambda: spec(target="x"), "target"),
    "sweep_cfg_str": (lambda: spec(cfg="x"), "cfg"),
    "sweep_y0_sim_str": (lambda: spec(y0_sim="0.1"), "y0_sim"),
    "irf_request_cfg_dict": (lambda: IrfRequest(y0=0.2, horizons=2, delta=0.5, cfg={"bandwidth": 0.5}), "cfg"),
    "kde_data_str": (lambda: kde(["0.1", "0.5", "-0.3", "1.2"], 0.0), "data"),
    "kde_data_bool": (lambda: kde([True, False, True], 0.0), "data"),
    "kde_data_nan": (lambda: kde([0.1, math.nan, -0.3, 1.2], 0.0), "data"),
    "silverman_data_str": (lambda: silverman_bandwidth(["0.1", "0.5", "-0.3"]), "data"),
    "silverman_data_bool": (lambda: silverman_bandwidth([True, False, True]), "data"),
    "silverman_data_inf": (lambda: silverman_bandwidth([0.1, math.inf, -0.3]), "data"),
    "markov_basis_pair": (lambda: markov_moment_test(SERIES, basis=[(np.sin, np.sin)], B=20), "basis"),
    "markov_basis_not_callable": (lambda: markov_moment_test(SERIES, basis=[(1, 2, 3)], B=20), "basis"),
    "model_to_json_not_a_model": (lambda: model_to_json(object()), "model"),
    "model_to_json_cond_gaussian": (lambda: model_to_json(CondGaussian(drift=np.tanh, scale=np.cosh)), "model"),
    "irf_direct_series_str": (lambda: irf_direct("x", REQ), "series"),
    "irf_lp_req_dict": (lambda: irf_lp(SERIES, {"y0": 0.2}), "req"),
    "cond_quantile_cfg_dict": (lambda: cond_quantile(SERIES, 0.5, 0.0, cfg={"kernel": "gaussian"}), "cfg"),
    "kde_cfg_str": (lambda: kde(SERIES.y, 0.1, cfg="x"), "cfg"),
    "cond_cdf_series_list": (lambda: cond_cdf([0.1, 0.2, 0.3], 0.1, 0.1), "series"),
    "simulate_model_str": (lambda: simulate("x", T=50, y0=0.0, seed=0), "model"),
    "true_irf_model_object": (lambda: true_irf(object(), y0=0.2, h=2, delta=0.5), "model"),
    "transition_g_model_tuple": (lambda: transition_g((0.5, 1.0), 0.0, 0.1), "model"),
    "lyapunov_params_tuple": (lambda: lyapunov_exponent((0.5, 1.0, 0.5)), "params"),
    "dar_quasi_loglik_params_tuple": (lambda: dar_quasi_loglik((0.5, 1.0, 0.5), SERIES), "params"),
    "var_irf_params_tuple": (lambda: var_irf((0.5 * np.eye(2), np.eye(2)), [1.0, 0.0], 1), "params"),
    "var_max_irf_params_str": (lambda: var_max_irf("x", [1.0, 0.0], 1), "params"),
    "qmle_series_array": (lambda: qmle_grid_search(SERIES.y), "series"),
    "dar_quasi_loglik_series_str": (lambda: dar_quasi_loglik(DAR.params, "x"), "series"),
    "markov_test_series_object": (lambda: markov_moment_test(object(), B=20), "series"),
    "recover_mixing_series_tuple": (lambda: recover_mixing((1.0, 2.0)), "series"),
    "markov_basis_series_str": (lambda: default_markov_basis("x"), "series"),
    "qmle_grid_str": (lambda: qmle_grid_search(SERIES, grid="x"), "grid"),
    "run_sweep_spec_str": (lambda: run_sweep("x"), "spec"),
    "recover_mixing_from_acf_observations_str": (
        lambda: recover_mixing_from_acf([0.5, 0.25, 0.1], [0.2, 0.3, 0.2], [0.1, 0.1, 0.05], observations="x"),
        "observations"),
    "cond_gaussian_drift_float": (lambda: CondGaussian(drift=1.0, scale=np.cosh), "drift"),
    "cond_gaussian_scale_str": (lambda: CondGaussian(drift=np.tanh, scale="x"), "scale"),
    "dar1_params_tuple": (lambda: Dar1((0.5, 1.0, 0.5)), "params"),
    "dar1_params_str": (lambda: Dar1("x"), "params"),
}


@pytest.mark.parametrize("call, name", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_raises_value_error_naming_it(call, name):
    with pytest.raises(ValueError) as err:
        call()
    assert not isinstance(err.value, InsufficientLocalData)
    assert str(err.value).startswith(f"{name} ")


GOOD_CALLS = {
    "numpy_integer_counts": lambda: (
        simulate(DAR, T=np.int64(50), y0=0.0, seed=np.int64(1), burn_in=np.int64(2)),
        true_irf(DAR, y0=0.2, h=np.int64(2), delta=0.5, S=np.int64(10), seed=np.int64(1)),
        hermite(np.int64(3), EPS), decompose_irf(OUT, EPS, 0.5, J=np.int64(3), h=np.int64(2)),
        var_max_irf(VAR, [1.0, 0.0], h=np.int64(2)), recover_mixing(BIVARIATE, max_lag=np.int64(3)),
        lyapunov_exponent(DAR.params, M=np.int64(10_000), seed=np.int64(1)),
        spec(sample_sizes=(np.int64(100), np.int64(200)), seeds_per_size=np.int64(10))),
    "numpy_float_states": lambda: (
        cond_cdf(SERIES, np.float32(0.3), np.float32(0.0)), cond_quantile(SERIES, np.float32(0.3), np.float32(0.0)),
        nadaraya_watson(SERIES, 1, np.float32(0.2)), kde(SERIES.y, np.float32(0.1)),
        Indicator(np.float32(0.1)), QuantileLevel(np.float32(0.5)), GaussianAr1(np.float32(0.5), np.float32(1.0)),
        var_irf(VAR, np.array([1.0, 0.0], dtype=np.float32), 1), decompose_irf(OUT, EPS, np.float32(0.5), J=3)),
}


@pytest.mark.parametrize("call", GOOD_CALLS.values(), ids=GOOD_CALLS.keys())
def test_numpy_scalars_pass(call):
    call()


def test_transform_is_checked_before_any_path_is_simulated(monkeypatch):
    monkeypatch.setattr(irf_module, "simulate_paths", lambda *a: pytest.fail("simulated"))
    with pytest.raises(ValueError, match="transform"):
        irf_transformed(SERIES, REQ, transform=3)


@pytest.mark.parametrize("decompose", [decompose_direct_irf, decompose_lp_irf])
def test_J_is_checked_before_any_path_is_simulated(monkeypatch, decompose):
    for name in ("simulate_paths", "_simulate_step1"):
        monkeypatch.setattr(irf_module, name, lambda *a: pytest.fail("simulated"))
    with pytest.raises(ValueError, match="^J "):
        decompose(SERIES, REQ, J=0)


@pytest.mark.parametrize("call", [simulate_paths, irf_direct, irf_lp, irf_dynamic, irf_joint, decompose_direct_irf,
                                  decompose_lp_irf, lambda series, req: irf_transformed(series, req, Indicator(0.0))])
def test_series_and_request_are_checked_before_any_path_is_simulated(monkeypatch, call):
    monkeypatch.setattr(irf_module, "_simulate_step1", lambda *a: pytest.fail("simulated"))
    with pytest.raises(ValueError, match="^series must be a TimeSeries"):
        call(SERIES.y, REQ)
    with pytest.raises(ValueError, match="^req must be an IrfRequest"):
        call(SERIES, {"y0": 0.2, "horizons": 2, "delta": 0.5})


@pytest.mark.parametrize("call", [lambda series, cfg: cond_cdf(series, 0.1, 0.1, cfg),
                                  lambda series, cfg: cond_quantile(series, 0.5, 0.1, cfg),
                                  lambda series, cfg: g_hat(series, 0.1, 9.0, cfg),  # a shock it would clamp
                                  lambda series, cfg: nadaraya_watson(series, 1, 0.1, cfg)])
def test_series_and_kernel_config_are_checked_before_any_estimate(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the clamp warns
        with pytest.raises(ValueError, match="^series must be a TimeSeries"):
            call(list(SERIES.y), KernelConfig())
        with pytest.raises(ValueError, match="^cfg must be a KernelConfig"):
            call(SERIES, KernelConfig().to_json_obj())


def test_argument_checks_have_one_home():
    # a second home for the checks would let the type rules drift apart again
    trees = {p.name: ast.parse(p.read_text()) for p in Path(nlirf.__file__).parent.glob("*.py")}
    home = trees.pop("_checks.py")
    helpers = {node.name for node in home.body if isinstance(node, ast.FunctionDef)}
    helpers |= {t.id for node in home.body if isinstance(node, ast.Assign) for t in node.targets}
    assert not [node for node in ast.walk(home) if isinstance(node, ast.ImportFrom) and node.level]  # a leaf
    for name, tree in trees.items():
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
        assert "numbers" not in imported, name
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        assert not defined & helpers, (name, sorted(defined & helpers))
