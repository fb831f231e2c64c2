"""Guards for tooling that reaches into the library from outside ``src/``."""

import importlib.util
import math
import sys
from pathlib import Path

import bezier_dp
import bezier_dp.cli  # noqa: F401  (library_targets reads bezier_dp.cli)
from bezier_dp import ExperimentConfig, harness
from bezier_dp.mechanisms import PreparedMechanism
from bezier_dp.noise import derive_seed

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_perfbench_span_targets_resolve():
    # a traced benchmark run wraps these names with getattr/setattr; a name
    # the library stops importing would break it at run time
    targets = _load("spans").library_targets(bezier_dp)
    missing = [name for owner, attr, name in targets if not callable(getattr(owner, attr, None))]
    assert targets and not missing


def test_package_all_names_resolve():
    # `from bezier_dp import *` fails on a name `__all__` lists but the
    # package no longer defines
    missing = [name for name in bezier_dp.__all__ if not hasattr(bezier_dp, name)]
    assert not missing


# the 72 public names `from bezier_dp import *` binds
_PUBLIC_NAMES = set("""
    BenchmarkReport BenchmarkRow BezierDPError CORRELATION_RANGE COVARIANCE_RANGE
    CapacityError ClipRange ConfigError DATA_CHANNEL DataFormatError Dataset DomainError
    Estimate ExperimentConfig InstanceConstants MAX_DEGREE MAX_VECTOR_LEN MECHANISM_IDS
    NeighborPair NoiseRows NoiseSource PreparedMechanism ReplayExhaustedError
    SensitivityReport UndefinedStatisticError VARIANCE_RANGE __version__ basis_matrix
    basis_spec bernstein_aggregate bernstein_map bezier_inverse bezier_matrix
    bezier_release builtin_maps correlation_exact covariance_exact
    covariance_instance_constant derive_seed derive_seeds derive_substream
    empirical_sensitivity feasible_rxy_bounds generate_dataset instance_constants
    inverse_row_weight laplace_rows load_csv_dataset moment_release_mse
    moments_unnormalized multi_indices neighbor_pair_block parse_distribution
    predicted_normalized_mse prepare prepare_moment_release random_neighbor_pair
    resolve_mechanism run_benchmark run_estimate sigma_lower_bound standardized_moment
    statistic_dimension swap_covariance_map swap_variance_map tensor_apply_inverse
    transformed_pair_map uniforms01_rows unnormalized_covariance_map
    unnormalized_variance_map variance_exact worst_case_table
""".split())


def test_star_import_binds_the_pinned_names():
    # `__all__` is derived from the package's imports, so a new import or a
    # dropped one changes it; this pins the set
    namespace = {}
    exec("from bezier_dp import *", namespace)
    assert len(_PUBLIC_NAMES) == 72
    assert set(bezier_dp.__all__) == _PUBLIC_NAMES
    assert set(namespace) - {"__builtins__"} == _PUBLIC_NAMES


def test_prediction_span_covers_what_run_benchmark_pays(monkeypatch):
    # perfbench times `harness.predicted_normalized_mse` as the span
    # theory.predicted_normalized_mse: one call per report row, with every
    # gradient computed inside it
    real, real_gradient = harness.predicted_normalized_mse, PreparedMechanism.gradient_norm2
    calls, inside, outside = [], [], []

    def counted(*args, **kw):
        calls.append(args)
        inside.append(True)
        try:
            return real(*args, **kw)
        finally:
            inside.pop()

    def gradient(self):
        if not inside:
            outside.append(self.mechanism_id)
        return real_gradient(self)

    monkeypatch.setattr(harness, "predicted_normalized_mse", counted)
    monkeypatch.setattr(PreparedMechanism, "gradient_norm2", gradient)
    cfg = ExperimentConfig(mechanisms=["bezier", "naive"], epsilons=[0.3, 1.0], n=50, trials=4)
    report = harness.run_benchmark(cfg)
    assert len(calls) == len(report.rows) == 4 and not outside
    data = harness.generate_dataset(cfg.normalized(), derive_seed(0, 0, harness.DATA_CHANNEL))
    for row in report.rows:
        assert row.analytic_prediction == real(row.mechanism, data, row.epsilon)


def test_prediction_id_form_for_every_mc_grid_id():
    # perfbench's per-layer probe calls predicted_normalized_mse(mid, data, eps)
    wl = _load("workloads")
    for statistic, mids, dist, param in wl.MC_CONFIGS:
        cfg = ExperimentConfig(
            mechanisms=list(mids), epsilons=list(wl.MC_EPSILONS), n=wl.MC_N, trials=1,
            statistic=statistic, distribution=dist, dist_param=param,
        ).normalized()
        data = harness.generate_dataset(cfg, derive_seed(0, 0, harness.DATA_CHANNEL))
        for mid in mids:
            for eps in wl.MC_EPSILONS:
                pred = bezier_dp.predicted_normalized_mse(mid, data, eps)
                assert pred is not None and math.isfinite(pred) and pred > 0.0, mid


def test_perfbench_corruptions_reach_their_workloads(monkeypatch, tmp_path, capsys):
    # perfbench/test_smoke.py proves each workload counts a wrong library
    # output as a failure by patching one name per workload; each patch is
    # only a proof if the workload's path goes through the patched name
    cfg = ExperimentConfig(mechanisms=["bezier"], epsilons=[1.0], n=30, trials=3)
    before = harness.run_benchmark(cfg).rows
    real = PreparedMechanism.run_value
    monkeypatch.setattr(
        PreparedMechanism, "run_value", lambda self, eps, source: real(self, eps, source) + 0.5
    )
    assert harness.run_benchmark(cfg).rows != before

    def factory(k, d=1):
        raise AssertionError("unused")

    monkeypatch.setattr(bezier_dp.audit, "bernstein_map", factory)
    assert bezier_dp.audit.builtin_maps()["bernstein"]["factory"] is factory

    calls, real_estimate = [], bezier_dp.cli.run_estimate

    def estimate(*args, **kw):
        calls.append(args)
        return real_estimate(*args, **kw)

    monkeypatch.setattr(bezier_dp.cli, "run_estimate", estimate)
    data = tmp_path / "x.csv"
    data.write_text("0.2\n0.4\n")
    argv = ["estimate", "--data", str(data), "--mechanism", "bezier", "--epsilon", "1"]
    assert bezier_dp.cli.main(argv) == 0
    assert calls and calls[0][0] == str(data)


def test_mc_grid_correlation_gate_holds_over_fixed_seeds(tmp_path):
    # perfbench's mc_grid fails an operation when a row's measured MSE is more
    # than Z_LIMIT standard errors from its prediction; the correlation rows
    # read `correlated:` data, so a change to that data model can move them
    # past the gate.  50 operations at full size (n = 1000, 1000 trials).
    wl = _load("workloads")
    j = next(i for i, c in enumerate(wl.MC_CONFIGS) if c[0] == "correlation")
    for seed in range(50):
        grid = wl.McGrid(bezier_dp, seed, wl.Sizes(), tmp_path)
        report = grid.op(j)
        assert [row.trials for row in report.rows] == [1000] * 6
        assert grid.check(j, report) == [], seed
