"""Command-line front end.

Subcommands: estimate (one private release from a CSV), benchmark (Monte
Carlo error study), audit (empirical sensitivity check), theory (closed-form
quantities).  Exit codes: 0 success, 2 configuration problem, 3 data
problem, 4 capacity limit.
"""

from __future__ import annotations

import argparse
import sys

from .audit import builtin_maps, empirical_sensitivity
from .errors import (
    CapacityError,
    ConfigError,
    DataFormatError,
    DomainError,
    ReplayExhaustedError,
    UndefinedStatisticError,
)
from .harness import (
    _STATISTICS,
    ExperimentConfig,
    parse_distribution,
    run_benchmark,
    run_estimate,
)
from .theory import (
    covariance_instance_constant,
    instance_constants,
    moment_release_mse,
    sigma_lower_bound,
    worst_case_table,
)
from .version import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CAPACITY = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bezier-dp",
        description="Differentially private moments, variance, covariance "
        "and correlation on [0, 1] data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="one private release from a CSV dataset")
    est.add_argument("--data", required=True, help="CSV file of records in [0, 1]")
    est.add_argument(
        "--mechanism",
        required=True,
        help="mechanism id or alias (e.g. bezier, naive_cov, moment:3:2)",
    )
    est.add_argument("--epsilon", type=float, required=True)
    est.add_argument(
        "--seed",
        type=int,
        help="reproducible noise from this seed (NOT private; default: OS entropy)",
    )
    est.add_argument(
        "--noise",
        choices=["seeded", "zero"],
        default="seeded",
        help="zero releases the exact statistic (NOT private)",
    )
    est.add_argument("--clip-input", action="store_true", help="clamp data into [0, 1]")
    est.add_argument(
        "--show-aggregates", action="store_true", help="print the noisy aggregates"
    )

    ben = sub.add_parser("benchmark", help="Monte Carlo error benchmark")
    ben.add_argument("--config", help="JSON experiment config (inline flags override)")
    ben.add_argument("--mechanisms", help="comma-separated mechanism ids/aliases")
    ben.add_argument("--epsilons", help="comma-separated epsilon values")
    ben.add_argument("--statistic", choices=_STATISTICS)
    ben.add_argument("--distribution", help="uniform | beta:R | correlated:RHO | csv:PATH")
    ben.add_argument("--n", type=int, help="records per synthetic dataset")
    ben.add_argument("--trials", type=int)
    ben.add_argument("--moment-k", type=int)
    ben.add_argument("--moment-j", type=int)
    ben.add_argument("--seed", type=int, help="base seed for all substreams")
    ben.add_argument("--noise", choices=["seeded", "zero"])
    ben.add_argument("--fresh-data", action="store_true", help="new dataset per trial")
    ben.add_argument("--clip-input", action="store_true")
    ben.add_argument("--threads", type=int, help="0 = all cores (default: 1)")
    ben.add_argument("--out", help="write the report CSV (+ config sidecar) here")

    aud = sub.add_parser("audit", help="empirical sensitivity of an aggregate map")
    aud.add_argument(
        "--map",
        required=True,
        choices=sorted(builtin_maps()),
        help="which aggregate map to audit",
    )
    aud.add_argument("--k", type=int, default=2, help="degree for the bernstein map")
    aud.add_argument("--d", type=int, default=1, help="dimension for the bernstein map")
    aud.add_argument("--trials", type=int, default=1000)
    aud.add_argument("--sizes", help="comma-separated base dataset sizes")
    aud.add_argument("--seed", type=int, default=0)

    the = sub.add_parser("theory", help="closed-form error quantities")
    the_sub = the.add_subparsers(dest="query", required=True)
    sig = the_sub.add_parser("sigma", help="variance-scale lower bound")
    sig.add_argument("--epsilon", required=True, help="comma-separated epsilon values")
    con = the_sub.add_parser("constants", help="instance constants at a dataset profile")
    con.add_argument("--r", type=float, help="mean (variance mechanisms)")
    con.add_argument("--v", type=float, help="variance (variance mechanisms)")
    con.add_argument("--rx", type=float, help="x mean (covariance mechanism)")
    con.add_argument("--ry", type=float, help="y mean (covariance mechanism)")
    con.add_argument("--c", type=float, help="covariance (covariance mechanism)")
    the_sub.add_parser("table", help="worst-case normalized-MSE coefficients")
    mom = the_sub.add_parser("moment", help="first-order MSE of one recovered moment")
    mom.add_argument("--k", type=int, required=True)
    mom.add_argument("--j", type=int, required=True)
    mom.add_argument("--epsilon", type=float, required=True)

    return parser


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad {what} list {text!r}") from None
    if not values:
        raise ConfigError(f"empty {what} list {text!r}")
    return values


def _cmd_estimate(args) -> int:
    est = run_estimate(
        args.data,
        args.mechanism,
        args.epsilon,
        seed=args.seed,
        noise=args.noise,
        clip_input=args.clip_input,
    )
    if args.noise == "zero" or args.seed is not None:
        why = "--noise zero" if args.noise == "zero" else f"--seed {args.seed}"
        print(f"reproducible noise: NOT private ({why})", file=sys.stderr)
    clip_txt = (
        "none"
        if est.clip_applied is None
        else f"[{est.clip_applied.lo}, {est.clip_applied.hi}]"
    )
    print(
        f"mechanism={est.mechanism_id} epsilon={est.epsilon!r} "
        f"value={est.value!r} clip={clip_txt}"
    )
    if args.show_aggregates:
        for key, val in est.noisy_aggregates.items():
            print(f"  {key} = {val!r}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    if args.config:
        cfg = ExperimentConfig.from_json_file(args.config)
    else:
        if not args.mechanisms or not args.epsilons:
            raise ConfigError("benchmark needs --config or --mechanisms/--epsilons")
        cfg = ExperimentConfig(mechanisms=[], epsilons=[])
    if args.mechanisms:
        cfg.mechanisms = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    if args.epsilons:
        cfg.epsilons = _parse_floats(args.epsilons, "epsilon")
    if args.statistic:
        cfg.statistic = args.statistic
    if args.distribution:
        kind, param, path = parse_distribution(args.distribution)
        cfg.distribution, cfg.dist_param, cfg.csv_path = kind, param, path
    if args.n is not None:
        cfg.n = args.n
    if args.trials is not None:
        cfg.trials = args.trials
    if args.moment_k is not None:
        cfg.moment_k = args.moment_k
    if args.moment_j is not None:
        cfg.moment_j = args.moment_j
    if args.seed is not None:
        cfg.base_seed = args.seed
    if args.noise:
        cfg.noise = args.noise
    if args.fresh_data:
        cfg.fixed_data = False
    if args.clip_input:
        cfg.clip_input = True
    if args.threads is not None:
        cfg.threads = args.threads
    if args.out:
        cfg.output_path = args.out

    report = run_benchmark(cfg)
    print(
        f"{'mechanism':<24} {'epsilon':>8} {'mse':>13} {'normalized':>13} "
        f"{'std_err':>10} {'predicted':>13}"
    )
    for row in report.rows:
        pred = "-" if row.analytic_prediction is None else f"{row.analytic_prediction:.6g}"
        print(
            f"{row.mechanism:<24} {row.epsilon:>8g} {row.mse:>13.6g} "
            f"{row.normalized_mse:>13.6g} {row.std_error:>10.3g} {pred:>13}"
        )
    if cfg.output_path:
        print(f"report written to {cfg.output_path}")
    return EXIT_OK


def _cmd_audit(args) -> int:
    info = builtin_maps()[args.map]
    model = info["model"]
    if "factory" in info:
        fn = info["factory"](args.k, args.d)
        d = args.d
        label = f"{args.map}(k={args.k}, d={args.d})"
    else:
        fn = info["fn"]
        d = info["d"]
        label = args.map
    if args.sizes:
        try:
            sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"bad sizes list {args.sizes!r}") from None
    else:
        sizes = [1, 2, 5, 20, 100] if model == "swap" else [0, 1, 2, 5, 20, 100]
    report = empirical_sensitivity(
        fn, model, args.trials, sizes, seed=args.seed, d=d, map_name=label
    )
    print(
        f"map={label} model={model} trials={report.trials} "
        f"claimed {info['bound']}"
    )
    print(f"max L1 = {report.max_l1!r} (base size n={report.argmax.base.n})")
    print(f"min L1 = {report.min_l1!r}")
    for size in sorted(report.by_size):
        print(f"  n={size}: max L1 = {report.by_size[size]!r}")
    return EXIT_OK


def _cmd_theory(args) -> int:
    if args.query == "sigma":
        for eps in _parse_floats(args.epsilon, "epsilon"):
            print(f"sigma({eps:g}) = {sigma_lower_bound(eps)!r}")
        return EXIT_OK
    if args.query == "constants":
        if args.rx is not None or args.ry is not None or args.c is not None:
            if args.rx is None or args.ry is None or args.c is None:
                raise ConfigError("covariance constant needs --rx, --ry and --c")
            val = covariance_instance_constant(args.rx, args.ry, args.c)
            print(f"covariance constant at (r_x={args.rx:g}, r_y={args.ry:g}, c={args.c:g}) = {val!r}")
            return EXIT_OK
        if args.r is None or args.v is None:
            raise ConfigError("variance constants need --r and --v")
        consts = instance_constants(args.r, args.v)
        print(f"instance constants at (r={args.r:g}, v={args.v:g}):")
        print(f"  bezier          = {consts.bezier!r}")
        print(f"  via_covariance  = {consts.via_covariance!r}")
        print(f"  transformed     = {consts.transformed!r}")
        return EXIT_OK
    if args.query == "table":
        for key, val in worst_case_table().items():
            print(f"{key:<16} {val:g}")
        return EXIT_OK
    if args.query == "moment":
        val = moment_release_mse(args.k, args.j, args.epsilon)
        print(f"moment mse(k={args.k}, j={args.j}, eps={args.epsilon:g}) = {val!r}")
        return EXIT_OK
    raise ConfigError(f"unknown theory query {args.query!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "benchmark":
            return _cmd_benchmark(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "theory":
            return _cmd_theory(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, UndefinedStatisticError, ReplayExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
