"""Per-layer probes: each library layer timed in isolation.

Every probe runs on inputs built the way the workload it serves builds
them, from the same seed.  Which end-to-end metric each probe should move,
and on which workload, is listed in README.md.  Derived metrics (loop
overhead per release, post-processing self time) subtract isolated
timings, so they are estimates, not spans.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import (
    AUDIT_SIZES,
    ESTIMATE_CALLS,
    MC_CONFIGS,
    MC_EPSILONS,
    McGrid,
    Sizes,
    audit_label,
    audit_map,
    audit_specs,
    op_seed,
    write_estimate_csvs,
)

LAPLACE_COUNTS = (1, 2, 3, 4, 6, 9)  # draw counts the mechanisms use
UNIFORM_DRAWS = 100_000
RELEASES = 200  # releases per timed pass of a run_value probe


def _median_call_s(fn, repeats: int) -> float:
    """Median wall time of one call of `fn` over `repeats` calls."""
    times = []
    for _ in range(repeats):
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
    return statistics.median(times)


def _per_call_s(fn, calls: int, repeats: int = 5) -> float:
    """Median over `repeats` batches of the mean time of one call of `fn`."""
    times = []
    for _ in range(repeats):
        t = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t) / calls)
    return statistics.median(times)


def _alternating_per_item_s(fns, items, repeats: int = 5) -> list[float]:
    """Per function, the median over `repeats` passes of the mean time of
    `fn(item)`; the passes of the functions are interleaved."""
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, acc in zip(fns, times):
            t = perf_counter()
            for item in items:
                fn(item)
            acc.append((perf_counter() - t) / len(items))
    return [statistics.median(acc) for acc in times]


def _per_item_s(fn, items) -> float:
    return _alternating_per_item_s([fn], items)[0]


def aggregate_bytes(n: int, k: int, d: int) -> int:
    """Bytes a `bernstein_aggregate` call touches, computed from array sizes.

    Input records, one (n, k+1) basis matrix per column, the (n, (k+1)^d)
    tensor product when d > 1, and the output; cache behaviour is ignored.
    """
    cells = (k + 1) ** d
    touched = n * d + d * n * (k + 1) + (n * cells if d > 1 else 0) + cells
    return 8 * touched


@contextmanager
def _noise_calls(noise):
    """Record the draw count of every Laplace call made inside the block."""
    calls: list[int | None] = []
    cls = noise.NoiseSource
    vec, one = cls.laplace_vector, cls.laplace

    def laplace_vector(self, scale, count):
        calls.append(count)
        return vec(self, scale, count)

    def laplace(self, scale):
        calls.append(None)
        return one(self, scale)

    cls.laplace_vector, cls.laplace = laplace_vector, laplace
    try:
        yield calls
    finally:
        cls.laplace_vector, cls.laplace = vec, one


def measure(lib, seed: int, sizes: Sizes, workdir: Path) -> dict[str, tuple[float, str]]:
    """Every per-layer probe metric: name -> (value, unit)."""
    h, nz, bern, st = lib.harness, lib.noise, lib.bernstein, lib.stats
    mech, th, aud = lib.mechanisms, lib.theory, lib.audit
    out: dict[str, tuple[float, str]] = {}
    rows = sizes.csv_rows

    # -- estimate_csv inputs: CSV parse, aggregate, Dataset, exact, prepare --
    paths = write_estimate_csvs(seed, rows, workdir)
    t = _median_call_s(lambda: h.load_csv_dataset(str(paths["pair"])), 3)
    out["harness.load_csv_dataset.us_per_row"] = (t / rows * 1e6, "us")
    files = {which: h.load_csv_dataset(str(p)) for which, p in paths.items()}
    by_dim = {1: files["single"], 2: files["pair"]}

    total_bytes = 0
    for k in (2, 8):
        for d, data in by_dim.items():
            t = _median_call_s(lambda: bern.bernstein_aggregate(data.values, k), 3)
            out[f"bernstein.bernstein_aggregate.ns_per_record.k{k}d{d}"] = (t / rows * 1e9, "ns")
            total_bytes += aggregate_bytes(rows, k, d)
    out["bernstein.bernstein_aggregate.bytes_computed"] = (float(total_bytes), "B")

    pair_values = files["pair"].values
    t = _median_call_s(lambda: st.Dataset(pair_values), 5)
    out["stats.Dataset.us_per_record"] = (t / rows * 1e6, "us")
    exact_fns = {
        "variance": lambda: st.variance_exact(files["single"]),
        "covariance": lambda: st.covariance_exact(files["pair"]),
        "correlation": lambda: st.correlation_exact(files["pair"]),
        "moment": lambda: st.moments_unnormalized(files["single"], 8),
    }
    for stat, fn in exact_fns.items():
        out[f"stats.exact.ms.{stat}"] = (_median_call_s(fn, 5) * 1e3, "ms")

    for which, _flag, mid, *_rest in ESTIMATE_CALLS:
        kw = {"moment_k": 8, "moment_j": 4} if mid == "moment_release" else {}
        t = _median_call_s(lambda: mech.prepare(mid, files[which], **kw), 3)
        out[f"mechanisms.prepare.ms.{mid}"] = (t * 1e3, "ms")

    # cli.main minus the run_estimate it calls, from spans
    tracer = Tracer()
    main = tracer.wrap("cli.main", lib.cli.main)
    argv = ["estimate", "--data", str(paths["single"]), "--mechanism", "bezier",
            "--epsilon", "1.0", "--seed", str(seed)]
    with tracer.patched([(lib.cli, "run_estimate", "harness.run_estimate")]):
        for _ in range(3):
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv)
    cli_self = tracer.self_by_name()["cli.main"]
    out["cli.main.overhead_ms"] = (cli_self["self_s"] / cli_self["calls"] * 1e3, "ms")

    # -- noise layer ---------------------------------------------------------
    out["noise.derive_substream.us"] = (
        _per_call_s(lambda: nz.derive_substream(seed, 12345, 2), 2000) * 1e6, "us")
    out["noise.derive_seed.us"] = (
        _per_call_s(lambda: nz.derive_seed(seed, 12345, 0), 2000) * 1e6, "us")
    src = nz.NoiseSource.seeded(seed)
    out["noise.laplace.us"] = (_per_call_s(lambda: src.laplace(1.0), 2000) * 1e6, "us")
    for m in LAPLACE_COUNTS:
        t = _per_call_s(lambda: src.laplace_vector(1.0, m), 1000)
        out[f"noise.laplace_vector.us.m{m}"] = (t * 1e6, "us")
    t = _median_call_s(lambda: src.uniforms01(UNIFORM_DRAWS), 5)
    out["noise.uniforms01.ns_per_draw"] = (t / UNIFORM_DRAWS * 1e9, "ns")

    # -- mc_grid inputs: generate, run_value, post, theory, loop overhead ----
    grid = McGrid(lib, seed, sizes, workdir)
    configs = [
        grid.config(j, op_seed(seed, j), sizes.mc_trials).normalized()
        for j in range(len(MC_CONFIGS))
    ]
    data_seeds = [nz.derive_seed(cfg.base_seed, 0, h.DATA_CHANNEL) for cfg in configs]
    gen_s = [
        _median_call_s(lambda: h.generate_dataset(cfg, s), 5)
        for cfg, s in zip(configs, data_seeds)
    ]
    out["harness.generate_dataset.ms"] = (statistics.mean(gen_s) * 1e3, "ms")
    datasets = [h.generate_dataset(cfg, s) for cfg, s in zip(configs, data_seeds)]

    run_value_s: dict[str, float] = {}
    for ch, (cfg, data) in enumerate(zip(configs, datasets)):
        for mid in cfg.mechanisms:
            prep = mech.prepare(mid, data)
            counter = nz.NoiseSource.seeded(seed)
            with _noise_calls(nz) as calls:
                prep.run_value(1.0, counter)

            def draw_only(stream, calls=calls):
                for m in calls:
                    if m is None:
                        stream.laplace(1.0)
                    else:
                        stream.laplace_vector(1.0, m)

            # a fresh substream per release, as in the Monte Carlo loop; the
            # release and its draws alone are timed in alternating passes
            streams = [nz.derive_substream(seed, t, ch) for t in range(RELEASES)]
            rv, draws = _alternating_per_item_s(
                [lambda stream: prep.run_value(1.0, stream), draw_only], streams
            )
            run_value_s[mid] = rv
            out[f"noise.draws_per_release.{mid}"] = (float(counter.draws), "count")
            out[f"mechanisms.run_value.us.{mid}"] = (rv * 1e6, "us")
            out[f"mechanisms.post_us.{mid}"] = ((rv - draws) * 1e6, "us")

    predict_args = [
        (mid, data, eps)
        for cfg, data in zip(configs, datasets)
        for mid in cfg.mechanisms
        for eps in MC_EPSILONS
        if th.predicted_normalized_mse(mid, data, eps) is not None
    ]
    t = _per_item_s(lambda args: th.predicted_normalized_mse(*args), predict_args * 10)
    out["theory.predicted_normalized_mse.us"] = (t * 1e6, "us")

    loop_s = releases = 0
    for cfg in configs:
        t = _median_call_s(lambda: h.run_benchmark(cfg), 3)
        count = len(cfg.mechanisms) * len(cfg.epsilons) * cfg.trials
        per_release = out["noise.derive_substream.us"][0] * 1e-6 + statistics.mean(
            run_value_s[mid] for mid in cfg.mechanisms
        )
        loop_s += t - count * per_release
        releases += count
    out["harness.run_benchmark.loop_us_per_release"] = (loop_s / releases * 1e6, "us")

    noisy = src.laplace_vector(1.0, 9)
    t = _per_call_s(lambda: bern.tensor_apply_inverse(2, 2, noisy), 1000)
    out["bernstein.tensor_apply_inverse.us"] = (t * 1e6, "us")

    # -- audit_pairs inputs: neighbor pairs and map evaluations --------------
    pairs = {}
    for model, base_sizes in AUDIT_SIZES.items():
        for d in (1, 2):
            pairs[model, d] = [
                aud.random_neighbor_pair(n, d, model, nz.derive_seed(seed, t, 0))
                for t, n in enumerate(base_sizes * 4)
            ]
    for d in (1, 2):
        mix = [(pair.base.n, pair.base.d) for pair in pairs["add-remove", d]]
        t = _per_item_s(
            lambda nd: aud.random_neighbor_pair(nd[0], nd[1], "add-remove", seed), mix
        )
        out[f"audit.random_neighbor_pair.us.d{d}"] = (t * 1e6, "us")

    small = [
        ds.values
        for d in (1, 2)
        for pair in pairs["add-remove", d]
        for ds in (pair.base, pair.extended)
    ]
    t = _per_item_s(lambda v: bern.bernstein_aggregate(v, 2), small)
    out["bernstein.bernstein_aggregate.us_small"] = (t * 1e6, "us")
    t = _per_item_s(lambda v: st.Dataset(v), small)
    out["stats.Dataset.us_small"] = (t * 1e6, "us")

    specs = audit_specs(lib)
    for spec in specs:
        fn, model, d, _bound = audit_map(lib, spec)
        sets = [ds for pair in pairs[model, d] for ds in (pair.base, pair.extended)]
        out[f"audit.map_eval.us.{audit_label(spec)}"] = (_per_item_s(fn, sets) * 1e6, "us")

    # -- work per rotation of each workload -----------------------------------
    out["estimate_csv.rows"] = (float(rows), "count")
    out["mc_grid.releases"] = (
        float(sum(len(c[1]) * len(MC_EPSILONS) * sizes.mc_trials for c in MC_CONFIGS)),
        "count",
    )
    out["audit_pairs.pairs"] = (float(len(specs) * sizes.audit_trials), "count")
    return out
