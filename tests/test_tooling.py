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
