"""The three benchmark workloads.

Each is a closed loop with one caller: the next operation starts when the
previous one returns.  All inputs come from the workload seed; the library
only ever sees the generated inputs.

* ``estimate_csv`` -- in-process ``cli.main(["estimate", ...])`` calls that
  rotate over a two-column and a one-column CSV.  CSV parsing and the O(n)
  prepare step do almost all the work.
* ``mc_grid`` -- ``run_benchmark`` on fixed data (n = 1000, eps in {0.3, 1})
  over the variance, covariance and correlation mechanism sets.  Per-release
  cost (substreams, Laplace draws, post-processing) does the work.
* ``audit_pairs`` -- ``empirical_sensitivity`` over every built-in map at
  the CLI's default size mixes: many tiny datasets instead of one large one.

A workload exposes ``setup()`` (input generation and warm-up), ``op(i)``
(the timed call), ``items(out)`` (work units in one result), ``check(i, out)``
(problems found in one result) and ``gate_ops()`` (extra correctness
operations run after the timed loop).
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Sizes:
    csv_rows: int = 100_000  # rows in each estimate_csv file
    warm_rows: int = 200  # rows in the warm-up files
    mc_trials: int = 1000  # Monte Carlo trials per (mechanism, epsilon) row
    gate_trials: int = 20  # trials in the zero-noise gate and the warm-up
    audit_trials: int = 600  # neighbor pairs per empirical_sensitivity call
    setup_processes: int = 5  # setup_s is the median of this many cold set-ups


FULL = Sizes()
TINY = Sizes(
    csv_rows=300, warm_rows=40, mc_trials=200, gate_trials=5, audit_trials=24,
    setup_processes=2,
)
SIZES = {"full": FULL, "tiny": TINY}

EPSILON = 1.0  # estimate_csv release budget
MC_N = 1000  # records in each mc_grid dataset
MC_EPSILONS = (0.3, 1.0)
Z_LIMIT = 6.0  # |measured - predicted| normalized MSE, in standard errors
REL_TOL = 1e-9  # zero-noise match where bit-exactness is not promised
SENS_TOL = 1e-9  # slack on audited sensitivity claims

VARIANCE_IDS = (
    "swap_variance",
    "naive_variance",
    "improved_variance",
    "bezier_variance",
    "variance_via_covariance",
    "transformed_variance",
)
COVARIANCE_IDS = (
    "swap_covariance",
    "naive_covariance",
    "improved_covariance",
    "bezier_covariance",
)
CORRELATION_IDS = ("correlation_bezier", "correlation_composed", "correlation_naive")

# (statistic, mechanisms, distribution, distribution parameter)
MC_CONFIGS = (
    ("variance", VARIANCE_IDS, "uniform", None),
    ("covariance", COVARIANCE_IDS, "uniform", None),
    ("correlation", CORRELATION_IDS, "correlated", 0.5),
)


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i of a run with workload seed `seed`."""
    return (seed << 20) + i


# ---------------------------------------------------------------------------
# estimate_csv
# ---------------------------------------------------------------------------

# (file, --mechanism, expected mechanism id, clip range or None, exact
# statistic, bit-exact at zero noise).  Bit-exactness is what acceptance
# criterion A1 promises; the basis-release statistics match to REL_TOL.
ESTIMATE_CALLS = (
    ("pair", "bezier", "bezier_covariance", (-0.25, 0.25), "covariance", True),
    ("pair", "correlation_bezier", "correlation_bezier", (-1.0, 1.0), "correlation", False),
    ("pair", "naive_cov", "naive_covariance", (-0.25, 0.25), "covariance", True),
    ("single", "bezier", "bezier_variance", (0.0, 0.25), "variance", True),
    ("single", "moment:8:4", "moment_release", None, "moment:8:4", False),
)

_ESTIMATE_LINE = re.compile(r"^mechanism=(\S+) epsilon=(\S+) value=(\S+) clip=(.*)$")


def _write_csv(path: Path, *columns: np.ndarray) -> None:
    """Headerless CSV with every value in round-trip "%.17g" form."""
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    path.write_text((line * table.shape[0]) % tuple(table.ravel().tolist()))


def write_estimate_csvs(seed: int, rows: int, directory: Path) -> dict[str, Path]:
    """The two estimate_csv input files, generated from the seed."""
    rng = np.random.default_rng([seed, 1])
    x = rng.beta(2.0, 5.0, rows)
    y = np.clip(0.6 * x + 0.4 * rng.random(rows), 0.0, 1.0)
    single = rng.beta(2.0, 3.0, rows)
    paths = {"pair": directory / "pair.csv", "single": directory / "single.csv"}
    _write_csv(paths["pair"], x, y)
    _write_csv(paths["single"], single)
    return paths


def parse_estimate_output(text: str) -> tuple[str, float, str]:
    """(mechanism id, value, clip text) from the estimate subcommand output."""
    first = text.splitlines()[0] if text else ""
    match = _ESTIMATE_LINE.match(first)
    if match is None:
        raise ValueError(f"unexpected estimate output {first!r}")
    return match.group(1), float(match.group(3)), match.group(4)


def _clip_text(rng) -> str:
    return "none" if rng is None else f"[{rng[0]!r}, {rng[1]!r}]"


class EstimateCsv:
    name = "estimate_csv"
    rotation = len(ESTIMATE_CALLS)

    def __init__(self, lib, seed: int, sizes: Sizes, workdir: Path):
        self.lib, self.seed, self.sizes = lib, seed, sizes
        self.workdir = workdir
        self.paths: dict[str, Path] = {}

    def _estimate(self, path: Path, mechanism: str, extra: list[str]):
        argv = ["estimate", "--data", str(path), "--mechanism", mechanism,
                "--epsilon", repr(EPSILON), *extra]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.lib.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def setup(self) -> None:
        warm_dir = self.workdir / "warm"
        warm_dir.mkdir(exist_ok=True)
        warm = write_estimate_csvs(self.seed, self.sizes.warm_rows, warm_dir)
        self.paths = write_estimate_csvs(self.seed, self.sizes.csv_rows, self.workdir)
        for j, (which, mechanism, *_rest) in enumerate(ESTIMATE_CALLS):
            self._estimate(warm[which], mechanism, ["--seed", str(j)])

    def op(self, i: int):
        which, mechanism, *_rest = ESTIMATE_CALLS[i % self.rotation]
        return self._estimate(
            self.paths[which], mechanism, ["--seed", str(op_seed(self.seed, i))]
        )

    def items(self, out) -> int:
        return self.sizes.csv_rows

    def check(self, i: int, out) -> list[str]:
        _which, _mech, want_id, clip, _stat, _exact = ESTIMATE_CALLS[i % self.rotation]
        return self._check_output(out, want_id, clip)

    @staticmethod
    def _check_output(out, want_id, clip) -> list[str]:
        rc, text, err = out
        if rc != 0:
            return [f"exit code {rc}: {err.strip()}"]
        mech, value, clip_txt = parse_estimate_output(text)
        problems = []
        if mech != want_id:
            problems.append(f"mechanism {mech}, expected {want_id}")
        if clip_txt != _clip_text(clip):
            problems.append(f"clip {clip_txt}, expected {_clip_text(clip)}")
        if not math.isfinite(value):
            problems.append(f"non-finite value {value!r}")
        elif clip is not None and not clip[0] <= value <= clip[1]:
            problems.append(f"value {value!r} outside {clip}")
        return problems

    def _reference(self, which: str, stat: str) -> float:
        """The library's exact statistic on the file parsed by np.loadtxt."""
        bd = self.lib
        data = bd.stats.Dataset(np.loadtxt(self.paths[which], delimiter=",", ndmin=2))
        if stat == "moment:8:4":
            return float(bd.stats.moments_unnormalized(data, 8)[4])
        return {
            "variance": bd.stats.variance_exact,
            "covariance": bd.stats.covariance_exact,
            "correlation": bd.stats.correlation_exact,
        }[stat](data)

    def gate_ops(self):
        def zero_noise(call):
            which, mechanism, want_id, clip, stat, bit_exact = call

            def run() -> list[str]:
                out = self._estimate(self.paths[which], mechanism, ["--noise", "zero"])
                problems = self._check_output(out, want_id, clip)
                if problems:
                    return problems
                value = parse_estimate_output(out[1])[1]
                ref = self._reference(which, stat)
                if bit_exact and value != ref:
                    return [f"zero noise gave {value!r}, exact is {ref!r}"]
                if abs(value - ref) > REL_TOL * abs(ref):
                    return [f"zero noise gave {value!r}, exact is {ref!r} (rel tol {REL_TOL})"]
                return []

            return run

        return [(f"zero-noise {call[2]}", zero_noise(call)) for call in ESTIMATE_CALLS]


# ---------------------------------------------------------------------------
# mc_grid
# ---------------------------------------------------------------------------

class McGrid:
    name = "mc_grid"
    rotation = len(MC_CONFIGS)

    def __init__(self, lib, seed: int, sizes: Sizes, workdir: Path):
        self.lib, self.seed, self.sizes = lib, seed, sizes

    def config(self, j: int, base_seed: int, trials: int, noise: str = "seeded"):
        statistic, mechanisms, distribution, param = MC_CONFIGS[j]
        return self.lib.harness.ExperimentConfig(
            mechanisms=list(mechanisms),
            epsilons=list(MC_EPSILONS),
            n=MC_N,
            trials=trials,
            statistic=statistic,
            distribution=distribution,
            dist_param=param,
            base_seed=base_seed,
            noise=noise,
            threads=1,
        )

    def setup(self) -> None:
        for j in range(self.rotation):
            self.lib.harness.run_benchmark(
                self.config(j, op_seed(self.seed, j), self.sizes.gate_trials)
            )

    def op(self, i: int):
        cfg = self.config(i % self.rotation, op_seed(self.seed, i), self.sizes.mc_trials)
        return self.lib.harness.run_benchmark(cfg)

    def items(self, report) -> int:
        return sum(row.trials for row in report.rows)

    def check(self, i: int, report) -> list[str]:
        problems = []
        for row in report.rows:
            tag = f"{row.mechanism} eps={row.epsilon}"
            if not math.isfinite(row.mse):
                problems.append(f"{tag}: non-finite mse {row.mse!r}")
                continue
            if row.analytic_prediction is None:
                continue
            if not row.std_error > 0.0:
                problems.append(f"{tag}: std_error {row.std_error!r}")
                continue
            z = (row.normalized_mse - row.analytic_prediction) / (row.n**2 * row.std_error)
            if not abs(z) <= Z_LIMIT:
                problems.append(f"{tag}: z = {z:.2f} beyond {Z_LIMIT}")
        return problems

    def gate_ops(self):
        # zero noise must reproduce the exact statistic (A1) for the variance
        # and covariance mechanisms, so every row scores mse == 0
        def zero_noise(j):
            def run() -> list[str]:
                cfg = self.config(j, op_seed(self.seed, j), self.sizes.gate_trials, "zero")
                report = self.lib.harness.run_benchmark(cfg)
                return [
                    f"{row.mechanism} eps={row.epsilon}: zero-noise mse {row.mse!r}"
                    for row in report.rows
                    if row.mse != 0.0
                ]

            return run

        return [(f"zero-noise {MC_CONFIGS[j][0]}", zero_noise(j)) for j in (0, 1)]


# ---------------------------------------------------------------------------
# audit_pairs
# ---------------------------------------------------------------------------

# The `audit` subcommand's default base sizes per neighboring model.
AUDIT_SIZES = {"add-remove": (0, 1, 2, 5, 20, 100), "swap": (1, 2, 5, 20, 100)}
BERNSTEIN_SHAPES = ((2, 1), (2, 2))  # (k, d) of the audited Bernstein maps


def audit_specs(lib) -> list[tuple[str, tuple[int, int] | None]]:
    """(map name, (k, d) for the Bernstein factory or None) for every map."""
    specs = []
    for name, info in lib.audit.builtin_maps().items():
        if "factory" in info:
            specs.extend((name, shape) for shape in BERNSTEIN_SHAPES)
        else:
            specs.append((name, None))
    return specs


def audit_label(spec) -> str:
    name, shape = spec
    return name if shape is None else f"{name}_k{shape[0]}d{shape[1]}"


def audit_map(lib, spec):
    """(map function, model, record dimension, claimed bound) of one spec."""
    name, shape = spec
    info = lib.audit.builtin_maps()[name]
    if shape is None:
        return info["fn"], info["model"], info["d"], info["bound"]
    return info["factory"](*shape), info["model"], shape[1], info["bound"]


class AuditPairs:
    name = "audit_pairs"

    def __init__(self, lib, seed: int, sizes: Sizes, workdir: Path):
        self.lib, self.seed, self.sizes = lib, seed, sizes
        self.specs = audit_specs(lib)
        self.rotation = len(self.specs)

    def _audit(self, spec, trials: int, seed: int):
        fn, model, d, _bound = audit_map(self.lib, spec)
        return self.lib.audit.empirical_sensitivity(
            fn, model, trials, AUDIT_SIZES[model], seed=seed, d=d,
            map_name=audit_label(spec),
        )

    def setup(self) -> None:
        for j, spec in enumerate(self.specs):
            self._audit(spec, self.sizes.gate_trials, op_seed(self.seed, j))

    def op(self, i: int):
        spec = self.specs[i % self.rotation]
        return self._audit(spec, self.sizes.audit_trials, op_seed(self.seed, i))

    def items(self, report) -> int:
        return report.trials

    def check(self, i: int, report) -> list[str]:
        bound = audit_map(self.lib, self.specs[i % self.rotation])[3]
        tag = report.map_name
        if bound == "= 1":
            if abs(report.max_l1 - 1.0) <= SENS_TOL and abs(report.min_l1 - 1.0) <= SENS_TOL:
                return []
            return [f"{tag}: L1 in [{report.min_l1!r}, {report.max_l1!r}], claimed = 1"]
        if bound == "<= 1":
            if report.max_l1 <= 1.0 + SENS_TOL:
                return []
            return [f"{tag}: max L1 {report.max_l1!r}, claimed <= 1"]
        if bound == "<= 1/n":
            return [
                f"{tag}: max L1 {l1!r} at n={n}, claimed <= 1/n"
                for n, l1 in report.by_size.items()
                if l1 > 1.0 / n + SENS_TOL
            ]
        return [f"{tag}: unrecognized claimed bound {bound!r}"]

    def gate_ops(self):
        return []


WORKLOADS = {cls.name: cls for cls in (EstimateCsv, McGrid, AuditPairs)}
