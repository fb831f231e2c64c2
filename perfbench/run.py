"""Benchmark entry point: one workload, one process, one thread.

    python3 perfbench/run.py --workload estimate_csv --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, whose operation times are scaled to a nominal machine speed by the
reference task in reference.py; with ``--trace 1`` it holds the per-layer
metrics instead.  A full
record (environment, sample counts, self times) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json`` and, for traced runs,
the spans to ``...-spans.json`` next to it.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, library_targets  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("estimate_csv", "mc_grid", "audit_pairs")
LIBRARY_MODULES = ("cli", "harness", "noise", "bernstein", "stats", "mechanisms", "theory", "audit")
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MAX_LOGGED_FAILURES = 20


def pin_threads() -> None:
    """One thread everywhere; must run before numpy is imported."""
    os.environ.update(THREAD_PINS)
    os.environ.pop("BEZIER_DP_THREADS", None)


def import_library():
    """bezier_dp from this checkout's src/, with every traced module loaded."""
    src = ROOT / "src"
    if not (src / "bezier_dp" / "__init__.py").is_file():
        raise ImportError(f"no bezier_dp package under {src}")
    sys.path.insert(0, str(src))
    lib = importlib.import_module("bezier_dp")
    if Path(lib.__file__).resolve().parent != (src / "bezier_dp").resolve():
        raise ImportError(f"bezier_dp was imported from {lib.__file__}, not {src}")
    for name in LIBRARY_MODULES:
        importlib.import_module(f"bezier_dp.{name}")
    return lib


class Tally:
    """Attempted and failed operations; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_LOGGED_FAILURES:
                print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)
        return not problems


def run_op(wl, i: int, tally: Tally, op=None):
    """One timed operation and its check: (seconds, items), or None if it failed."""
    op = op or wl.op
    start = time.perf_counter()
    try:
        out = op(i)
    except Exception:
        tally.record(f"{wl.name} op {i}", [traceback.format_exc()])
        return None
    elapsed = time.perf_counter() - start
    try:
        problems = wl.check(i, out)
    except Exception:
        problems = [traceback.format_exc()]
    if not tally.record(f"{wl.name} op {i}", problems):
        return None
    return elapsed, wl.items(out)


def run_gates(wl, tally: Tally) -> None:
    for label, gate in wl.gate_ops():
        try:
            problems = gate()
        except Exception:
            problems = [traceback.format_exc()]
        tally.record(f"{wl.name} gate {label}", problems)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    With 10 or fewer samples that percentile does not exist; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "thread_pins": {key: os.environ.get(key) for key in THREAD_PINS},
        "BEZIER_DP_THREADS": os.environ.get("BEZIER_DP_THREADS", "unset"),
        "threads_per_config": 1,
    }


def set_up(wl) -> float:
    """This process's set-up: from the first line of run.py to its end.

    Not scaled to the reference speed (see reference.py): set-up is mostly
    process start and imports, whose time did not follow the reference
    task's, and scaling made it spread more between runs, not less.
    """
    wl.setup()
    return time.perf_counter() - T_START


def cold_set_ups(args, count: int) -> list[float]:
    """Set-up times of `count` fresh processes, run one after another.

    Each child imports everything and sets up the same workload from
    scratch, so one-time costs (imports, process-wide caches in the
    library) are paid in every sample.
    """
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--sizes", args.sizes,
            "--setup-only"]
    times = []
    for _ in range(count):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def untraced(wl, seconds: float, tally: Tally) -> dict:
    """Operation times and work units, grouped by position in the rotation.

    The reference task runs before the first operation and after each one;
    every operation's time is scaled by the mean of the two reference times
    around it.  Raw times are kept alongside.
    """
    import reference  # imports numpy, so only after the thread pins

    reference.warm_up()
    latencies: dict[int, list[float]] = {}
    raw: dict[int, list[float]] = {}
    items: dict[int, int] = {}
    ref_times = [reference.reference_s()]
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        done = run_op(wl, i, tally)
        ref_times.append(reference.reference_s())
        if done is not None:
            kind = i % wl.rotation
            ref_s = (ref_times[-2] + ref_times[-1]) / 2
            latencies.setdefault(kind, []).append(reference.scale(done[0], ref_s))
            raw.setdefault(kind, []).append(done[0])
            items[kind] = done[1]
        i += 1
    return {"latencies": latencies, "raw": raw, "items": items, "reference_s": ref_times}


def _per_kind_median(by_kind: dict[int, list[float]]) -> dict[int, float]:
    return {kind: statistics.median(times) for kind, times in by_kind.items()}


def end_to_end_metrics(setup_s: float, loop: dict) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced loop, from reference-scaled times.

    The rotation's operations differ in cost, so each statistic is taken per
    operation kind and then combined.  The typical operation time is the
    median per kind, averaged over the kinds, and throughput is one
    rotation's work over the sum of those medians.  The tail goes to the
    record, not the metrics: it is taken over every operation's time as a
    multiple of its kind's median, then scaled back by the typical time, so
    a slow tail in a cheap kind shows as much as one in a costly kind.  On
    shared VMs it spread 10-17 % between runs of the same code, scaled or
    not, because it measures the host's pauses more than the program.  The
    unscaled figures are kept in the record too.  When every operation
    failed, the times read 0.
    """
    by_kind, items = loop["latencies"], loop["items"]
    typical_s = throughput = 0.0
    details = {"ops_timed": sum(len(times) for times in by_kind.values()),
               "op_kinds": len(by_kind), "items_per_rotation": sum(items.values())}
    if by_kind:
        medians = _per_kind_median(by_kind)
        typical_s = statistics.mean(medians.values())
        tail_ratio, tail_pct = tail(
            [t / medians[kind] for kind, times in by_kind.items() for t in times]
        )
        throughput = sum(items.values()) / sum(medians.values())
        raw_medians = _per_kind_median(loop["raw"])
        details.update({
            "op_tail_ms": tail_ratio * typical_s * 1e3, "tail_percentile": tail_pct,
            "tail_over_p50": tail_ratio,
            "raw_op_p50_ms": statistics.mean(raw_medians.values()) * 1e3,
            "raw_items_per_s": sum(items.values()) / sum(raw_medians.values()),
            "reference_ms": {name: fn(loop["reference_s"]) * 1e3 for name, fn in
                             (("min", min), ("median", statistics.median), ("max", max))},
        })
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (typical_s * 1e3, "ms"),
        "items_per_s": (throughput, "1/s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, details


def traced(lib, wl, seconds: float, tally: Tally, tracer) -> dict:
    """Alternate untraced and traced passes over the same operations.

    Each pass is one rotation of the workload's operations; the two passes
    of a pair repeat the same operation indices, so the difference in their
    time is the tracing overhead.  Passes continue for about half of
    `seconds`, leaving the rest of the run to the layer probes.
    """
    targets = library_targets(lib)
    traced_op = tracer.wrap("bench.op", wl.op)
    totals = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds / 2
    pairs = 0
    while pairs == 0 or time.perf_counter() < deadline:
        first = range(pairs * wl.rotation, (pairs + 1) * wl.rotation)
        for with_spans in ((False, True) if pairs % 2 == 0 else (True, False)):
            ctx = tracer.patched(targets) if with_spans else contextlib.nullcontext()
            with ctx:
                for i in first:
                    done = run_op(wl, i, tally, traced_op if with_spans else None)
                    if done is not None:
                        totals[with_spans] += done[0]
        pairs += 1
    overhead = 100.0 * (totals[True] - totals[False]) / totals[False] if totals[False] else 0.0
    return {"pairs": pairs, "untraced_s": totals[False], "traced_s": totals[True],
            "overhead_pct": overhead}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--sizes", default="full", choices=("full", "tiny"),
                        help="input sizes; tiny is for the smoke test")
    # internal: set up once, print the set-up time and exit (see cold_set_ups)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_threads()
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    # imported after the thread pins, so numpy starts single-threaded
    import layers
    import reference
    from workloads import SIZES, WORKLOADS

    sizes = SIZES[args.sizes]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{stem}-") as tmp:
        workdir = Path(tmp)
        wl = WORKLOADS[args.workload](lib, args.seed, sizes, workdir)
        own_setup_s = set_up(wl)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        record = {"workload": args.workload, "trace": args.trace,
                  "environment": environment(args.seed)}
        if args.trace:
            tracer = Tracer()
            record["tracing"] = traced(lib, wl, args.seconds, tally, tracer)
            run_gates(wl, tally)
            probe_dir = workdir / "probes"
            probe_dir.mkdir()
            metrics = layers.measure(lib, args.seed, sizes, probe_dir)
            metrics["trace.overhead_pct"] = (record["tracing"]["overhead_pct"], "%")
            record["self_s_by_module"] = tracer.self_by_module()
            record["self_s_by_span"] = tracer.self_by_name()
            tracer.write(OUT_DIR / f"{stem}-spans.json")
        else:
            # setup_s is a median over cold processes; the children run
            # before the timed loop, so they do not compete with it
            setup_times = [own_setup_s, *cold_set_ups(args, sizes.setup_processes - 1)]
            record["setup_s_by_process"] = setup_times
            loop = untraced(wl, args.seconds, tally)
            run_gates(wl, tally)
            metrics, record["details"] = end_to_end_metrics(
                statistics.median(setup_times), loop)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record["result"] = result
    record["failed_ratio"] = tally.failed / tally.attempted
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<56} {value:>14.6g} {unit}")
    if args.trace:
        for module, secs in sorted(record["self_s_by_module"].items(), key=lambda kv: -kv[1]):
            if secs > 0:
                print(f"  self time {module:<46} {secs:>14.6g} s")
    elif record["details"]["ops_timed"]:
        d = record["details"]
        print(f"  op_tail_ms {d['op_tail_ms']:.6g} ms is p{d['tail_percentile']:.1f} of"
              f" {d['ops_timed']} timed ops ({d['tail_over_p50']:.4g} x the kind's median)")
        print(f"  times are scaled to a {reference.REFERENCE_S * 1e3:g} ms reference task, which"
              f" took {d['reference_ms']['median']:.4g} ms here; unscaled op_p50_ms"
              f" {d['raw_op_p50_ms']:.6g}, items_per_s {d['raw_items_per_s']:.6g}")
    print(f"  failed_ratio {tally.failed}/{tally.attempted}; record in {OUT_DIR / stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
