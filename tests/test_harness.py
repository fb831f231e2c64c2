"""Benchmark harness: config handling, data generators, determinism, reports."""

import json

import numpy as np
import pytest

from bezier_dp import (
    ConfigError,
    DataFormatError,
    Dataset,
    MECHANISM_IDS,
    ExperimentConfig,
    NoiseSource,
    correlation_exact,
    derive_seed,
    derive_substream,
    generate_dataset,
    load_csv_dataset,
    moment_release_mse,
    parse_distribution,
    prepare,
    resolve_mechanism,
    run_benchmark,
    run_estimate,
    statistic_dimension,
    variance_exact,
)
from bezier_dp import harness
from bezier_dp.harness import _STATISTICS, DATA_CHANNEL, _resolve_threads, _trial_blocks


def _cfg(**kw):
    base = dict(mechanisms=["bezier"], epsilons=[1.0], n=50, trials=8)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# mechanism resolution and config validation
# ---------------------------------------------------------------------------

# every alias with the id it resolves to for a statistic
_ALIASES = {
    # plain aliases name one id
    ("naive_var", "variance"): "naive_variance",
    ("naive_cov", "covariance"): "naive_covariance",
    ("improved_var", "variance"): "improved_variance",
    ("improved_cov", "covariance"): "improved_covariance",
    ("bezier_var", "variance"): "bezier_variance",
    ("bezier_cov", "covariance"): "bezier_covariance",
    ("via_cov", "variance"): "variance_via_covariance",
    ("transformed", "variance"): "transformed_variance",
    ("transformed_var", "variance"): "transformed_variance",
    ("swap_var", "variance"): "swap_variance",
    ("swap_cov", "covariance"): "swap_covariance",
    ("composed", "correlation"): "correlation_composed",
    ("moment", "moment"): "moment_release",
    ("skewness", "skewness"): "bezier_skewness",
    ("kurtosis", "kurtosis"): "bezier_kurtosis",
    ("centered_moment_3", "centered_moment_3"): "bezier_centered_moment_3",
    ("centered_moment_4", "centered_moment_4"): "bezier_centered_moment_4",
    # family aliases name one member per statistic
    ("swap", "variance"): "swap_variance",
    ("swap", "covariance"): "swap_covariance",
    ("naive", "variance"): "naive_variance",
    ("naive", "covariance"): "naive_covariance",
    ("naive", "correlation"): "correlation_naive",
    ("improved", "variance"): "improved_variance",
    ("improved", "covariance"): "improved_covariance",
    ("bezier", "variance"): "bezier_variance",
    ("bezier", "covariance"): "bezier_covariance",
    ("bezier", "correlation"): "correlation_bezier",
    ("bezier", "skewness"): "bezier_skewness",
    ("bezier", "kurtosis"): "bezier_kurtosis",
    ("bezier", "centered_moment_3"): "bezier_centered_moment_3",
    ("bezier", "centered_moment_4"): "bezier_centered_moment_4",
}


def test_resolve_mechanism_aliases():
    for (name, statistic), want in _ALIASES.items():
        assert resolve_mechanism(name, statistic) == want, (name, statistic)
    for mid in MECHANISM_IDS:  # an id resolves to itself, for one statistic only
        resolved = []
        for statistic in _STATISTICS:
            try:
                resolved.append(resolve_mechanism(mid, statistic))
            except ConfigError:
                pass
        assert resolved == [mid]
    with pytest.raises(ConfigError):
        resolve_mechanism("swap", "correlation")  # no swap correlation form
    with pytest.raises(ConfigError):
        resolve_mechanism("bezier_variance", "covariance")
    with pytest.raises(ConfigError):
        resolve_mechanism("naive_var", "covariance")
    with pytest.raises(ConfigError):
        resolve_mechanism("bezier", "median")


def test_config_normalized_happy_path():
    cfg = _cfg(mechanisms=["bezier", "naive_var"], epsilons=["0.5", 1]).normalized()
    assert cfg.mechanisms == ["bezier_variance", "naive_variance"]
    assert cfg.epsilons == [0.5, 1.0]
    assert cfg.trials == 8
    # integral numbers are integers whatever their JSON spelling
    cfg = _cfg(n=50.0, trials="8", base_seed=np.uint64(2**63 + 5), threads=2.0).normalized()
    assert (cfg.n, cfg.trials, cfg.base_seed, cfg.threads) == (50, 8, 2**63 + 5, 2)
    assert all(type(v) is int for v in (cfg.n, cfg.trials, cfg.base_seed, cfg.threads))


@pytest.mark.parametrize(
    "kw",
    [
        dict(mechanisms=[]),
        dict(epsilons=[]),
        dict(epsilons=[0.0]),
        dict(epsilons=[float("inf")]),
        dict(trials=0),
        dict(n=0),
        dict(statistic="median"),
        dict(statistic="moment"),  # missing moment_k / moment_j
        dict(statistic="moment", moment_k=2, moment_j=3, mechanisms=["moment"]),
        dict(statistic="moment", moment_k=0, moment_j=0, mechanisms=["moment"]),
        dict(distribution="normal"),
        dict(distribution="beta"),  # missing mean parameter
        dict(distribution="beta", dist_param=1.5),
        dict(distribution="correlated", dist_param=0.5),  # needs d=2 statistic
        dict(
            distribution="correlated",
            dist_param=1.5,
            statistic="covariance",
            mechanisms=["bezier_cov"],
        ),
        dict(distribution="csv"),  # missing csv_path
        dict(noise="gaussian"),
        dict(threads=-1),
        # fields of the wrong type, as a JSON config can give them
        dict(trials="abc"),
        dict(epsilons=["x"]),
        dict(epsilons=1.0),
        dict(base_seed="s"),
        dict(distribution="beta", dist_param="x"),
        dict(n=2.7),
        dict(mechanisms="bezier"),
        dict(mechanisms=[1]),
        dict(trials=True),
        dict(n=float("nan")),
        dict(threads=1.5),
        dict(epsilons=[None]),
        dict(statistic="moment", moment_k=2.5, moment_j=1, mechanisms=["moment"]),
        dict(distribution="csv", csv_path=3),
        dict(output_path=1),
        dict(fixed_data="false"),
        dict(clip_input=1),
    ],
)
def test_config_normalized_rejects(kw):
    with pytest.raises(ConfigError):
        _cfg(**kw).normalized()


def test_config_json_round_trip(tmp_path):
    cfg = _cfg(statistic="moment", mechanisms=["moment"], moment_k=3, moment_j=1)
    payload = cfg.to_json_dict()
    again = ExperimentConfig.from_json_dict(payload)
    assert again == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert ExperimentConfig.from_json_file(str(path)) == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({**payload, "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"epsilons": [1.0]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(str(bad))
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(str(lst))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(str(tmp_path / "missing.json"))


def test_parse_distribution():
    assert parse_distribution("uniform") == ("uniform", None, None)
    assert parse_distribution("beta:0.3") == ("beta", 0.3, None)
    assert parse_distribution("correlated:0.7") == ("correlated", 0.7, None)
    assert parse_distribution("csv:/tmp/x.csv") == ("csv", None, "/tmp/x.csv")
    for bad in ("beta", "beta:", "beta:xyz", "normal:1", "corr"):
        with pytest.raises(ConfigError):
            parse_distribution(bad)


def test_statistic_dimension():
    assert statistic_dimension("variance") == 1
    assert statistic_dimension("moment") == 1
    assert statistic_dimension("covariance") == 2
    assert statistic_dimension("correlation") == 2
    with pytest.raises(ConfigError):
        statistic_dimension("median")


# ---------------------------------------------------------------------------
# data generators
# ---------------------------------------------------------------------------

def test_uniform_data_moments():
    cfg = _cfg(n=20000).normalized()
    data = generate_dataset(cfg, derive_seed(0, 0, DATA_CHANNEL))
    assert (data.n, data.d) == (20000, 1)
    x = data.column(0)
    assert 0.0 < x.min() and x.max() < 1.0
    assert float(x.mean()) == pytest.approx(0.5, abs=0.01)
    assert float(x.var()) == pytest.approx(1.0 / 12.0, rel=0.05)
    # deterministic in the trial seed, distinct across seeds
    again = generate_dataset(cfg, derive_seed(0, 0, DATA_CHANNEL))
    assert np.array_equal(data.values, again.values)
    other = generate_dataset(cfg, derive_seed(1, 0, DATA_CHANNEL))
    assert not np.array_equal(data.values, other.values)


def test_uniform_bivariate_independent():
    cfg = _cfg(
        statistic="covariance", mechanisms=["bezier_cov"], n=40000
    ).normalized()
    data = generate_dataset(cfg, 77)
    assert data.d == 2
    assert abs(correlation_exact(data)) < 0.02


def test_beta_data_moments():
    for r in (0.3, 0.5, 0.9):
        cfg = _cfg(distribution="beta", dist_param=r, n=40000).normalized()
        x = generate_dataset(cfg, 5).column(0)
        assert 0.0 <= x.min() and x.max() <= 1.0
        assert float(x.mean()) == pytest.approx(r, abs=0.02)
        assert float(x.var()) == pytest.approx(2.0 / 3.0 * r * (1 - r), rel=0.05)


def test_correlated_data():
    cfg = _cfg(
        statistic="correlation",
        mechanisms=["bezier"],
        distribution="correlated",
        dist_param=0.7,
        n=40000,
    ).normalized()
    data = generate_dataset(cfg, 6)
    assert correlation_exact(data) == pytest.approx(0.7, abs=0.02)
    # rho = 1 duplicates the column, rho = 0 draws independently
    cfg1 = _cfg(
        statistic="correlation",
        mechanisms=["bezier"],
        distribution="correlated",
        dist_param=1.0,
        n=200,
    ).normalized()
    d1 = generate_dataset(cfg1, 6)
    assert np.array_equal(d1.column(0), d1.column(1))
    cfg0 = _cfg(
        statistic="correlation",
        mechanisms=["bezier"],
        distribution="correlated",
        dist_param=0.0,
        n=40000,
    ).normalized()
    assert abs(correlation_exact(generate_dataset(cfg0, 6))) < 0.02
    # below the attainable range of the jitter model
    cfglow = _cfg(
        statistic="correlation",
        mechanisms=["bezier"],
        distribution="correlated",
        dist_param=0.001,
        n=10,
    ).normalized()
    with pytest.raises(ConfigError):
        generate_dataset(cfglow, 6)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_load_csv_plain_and_header(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("0.1,0.2\n0.3,0.4\n\n0.5,0.6\n")
    data = load_csv_dataset(str(p))
    assert (data.n, data.d) == (3, 2)
    assert data.values[2, 1] == 0.6
    h = tmp_path / "header.csv"
    h.write_text("x,y\n0.1,0.2\n0.3,0.4\n")
    assert load_csv_dataset(str(h)).n == 2


def test_load_csv_errors(tmp_path):
    cases = {
        "mixed_header.csv": ("x,0.5\n0.1,0.2\n", "row 1"),
        "bad_cell.csv": ("0.1,0.2\n0.3,oops\n", "row 2"),
        "ragged.csv": ("0.1,0.2\n0.3\n", "row 2"),
        "empty.csv": ("", "no data"),
        "header_only.csv": ("x,y\n", "no data"),
        "nonfinite.csv": ("0.1\ninf\n", "non-finite"),
        "range.csv": ("0.5\n1.5\n", "row 2"),
    }
    for name, (text, needle) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(DataFormatError) as exc:
            load_csv_dataset(str(p))
        assert needle in str(exc.value), name
    with pytest.raises(DataFormatError):
        load_csv_dataset(str(tmp_path / "missing.csv"))
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"x\n0.5\n\xe9\n")
    with pytest.raises(DataFormatError, match="cannot read"):
        load_csv_dataset(str(latin1))


def test_load_csv_clip_input(tmp_path):
    p = tmp_path / "wide.csv"
    p.write_text("-0.5\n0.5\n1.5\n")
    data = load_csv_dataset(str(p), clip_input=True)
    assert data.values.ravel().tolist() == [0.0, 0.5, 1.0]


def test_load_csv_range_error_respects_header_offset(tmp_path):
    p = tmp_path / "offset.csv"
    p.write_text("col\n0.5\n2.0\n")
    with pytest.raises(DataFormatError) as exc:
        load_csv_dataset(str(p))
    assert "row 3" in str(exc.value)


def test_load_csv_errors_name_the_file_line(tmp_path):
    # Blank lines and the header count: the row number is the file's line.
    cases = {
        "range.csv": ("0.5\n\n\n2.0\n", "row 4: value 2.0 outside [0, 1]"),
        "bad_cell.csv": ("0.1,0.2\n\n0.3,oops\n", "row 3: non-numeric cell"),
        "nonfinite.csv": ("x\n\n0.1\n\nnan\n", "row 5: non-finite value nan"),
        "mixed.csv": ("\n \nx,0.5\n0.1,0.2\n", "row 3 mixes numbers and labels"),
        "ragged.csv": ("x,y\r\n\r\n0.1,0.2\r\n0.3\r\n", "row 4: expected 2 column(s), got 1"),
        "huge_cell.csv": ("0.5,0.5\n0." + "1" * 200_000 + "\n", "row 2: field larger than"),
    }
    for name, (text, needle) in cases.items():
        p = tmp_path / name
        p.write_bytes(text.encode())
        with pytest.raises(DataFormatError) as exc:
            load_csv_dataset(str(p))
        assert needle in str(exc.value), name


def test_load_csv_accepts_byte_order_mark(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes("\ufeff0.1,0.2\n0.3,0.4\n".encode())
    assert load_csv_dataset(str(p)).values.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    h = tmp_path / "bom_header.csv"
    h.write_bytes("\ufeffx,y\n0.1,0.2\n".encode())
    assert load_csv_dataset(str(h)).values.tolist() == [[0.1, 0.2]]
    q = tmp_path / "bom_bad.csv"
    q.write_bytes("\ufeff0.1\n2.0\n".encode())
    with pytest.raises(DataFormatError, match="row 2: value 2.0"):
        load_csv_dataset(str(q))


# ---------------------------------------------------------------------------
# benchmark engine
# ---------------------------------------------------------------------------

def test_run_benchmark_grid_and_rows():
    cfg = _cfg(mechanisms=["bezier", "swap"], epsilons=[0.5, 1.0], trials=16)
    report = run_benchmark(cfg)
    assert len(report.rows) == 4
    row = report.row_for("bezier_variance", 0.5)
    assert row.n == 50 and row.trials == 16
    assert row.normalized_mse == pytest.approx(2500.0 * row.mse, rel=1e-12)
    assert row.std_error > 0.0
    assert row.analytic_prediction is not None
    with pytest.raises(KeyError):
        report.row_for("bezier_variance", 2.0)


def test_run_benchmark_zero_noise_gives_zero_error():
    for fixed in (True, False):
        report = run_benchmark(_cfg(noise="zero", fixed_data=fixed, trials=4))
        assert report.rows[0].mse == 0.0


def test_run_benchmark_matches_hand_computed_swap_errors():
    cfg = _cfg(mechanisms=["swap"], epsilons=[2.0], n=10, trials=3)
    report = run_benchmark(cfg, keep_trial_errors=True)
    data0 = generate_dataset(cfg.normalized(), derive_seed(0, 0, DATA_CHANNEL))
    exact = variance_exact(data0)
    want = []
    for t in range(3):
        z = derive_substream(0, t, 0).laplace(1.0 / 2.0)
        diff = (exact + z / 10.0) - exact
        want.append(diff * diff)
    got = report.trial_errors[("swap_variance", 2.0)]
    assert got.tolist() == want
    assert report.rows[0].mse == float(np.mean(np.asarray(want)))


def test_run_benchmark_deterministic_and_seed_sensitive():
    a = run_benchmark(_cfg(trials=32))
    b = run_benchmark(_cfg(trials=32))
    assert [r.mse for r in a.rows] == [r.mse for r in b.rows]
    c = run_benchmark(_cfg(trials=32, base_seed=99))
    assert a.rows[0].mse != c.rows[0].mse


_STATISTIC_CONFIGS = {
    "variance": dict(mechanisms=["swap", "naive", "improved", "bezier", "via_cov", "transformed"]),
    "covariance": dict(statistic="covariance", mechanisms=["swap", "naive", "improved", "bezier"]),
    "correlation": dict(
        statistic="correlation",
        mechanisms=["bezier", "composed", "naive"],
        distribution="correlated",
        dist_param=0.5,
    ),
    "moment": dict(statistic="moment", mechanisms=["moment"], moment_k=3, moment_j=1),
}


def test_run_benchmark_thread_invariance():
    # thread counts change the trial blocks; per-trial errors must not move
    for name, stat_kw in _STATISTIC_CONFIGS.items():
        for fixed in (True, False):
            kw = dict(stat_kw, epsilons=[0.5, 1.0], n=40, trials=64, fixed_data=fixed)
            serial = run_benchmark(_cfg(**kw, threads=1), keep_trial_errors=True)
            for threads in (2, 8):
                threaded = run_benchmark(_cfg(**kw, threads=threads), keep_trial_errors=True)
                assert set(serial.trial_errors) == set(threaded.trial_errors)
                for key in serial.trial_errors:
                    assert np.array_equal(
                        serial.trial_errors[key], threaded.trial_errors[key]
                    ), (name, fixed, threads, key)


def test_run_benchmark_matches_per_trial_releases():
    # the block engine reproduces a release per (trial, epsilon) on the
    # trial's own substream, fresh-data mode included
    for name, stat_kw in _STATISTIC_CONFIGS.items():
        for fixed in (True, False):
            cfg = _cfg(**dict(stat_kw, epsilons=[0.5, 1.0], n=30, trials=5, fixed_data=fixed))
            report = run_benchmark(cfg, keep_trial_errors=True)
            norm = cfg.normalized()
            kw = {"moment_k": norm.moment_k, "moment_j": norm.moment_j}
            for t in range(norm.trials):
                data_seed = derive_seed(norm.base_seed, t if not fixed else 0, DATA_CHANNEL)
                data = generate_dataset(norm, data_seed)
                for ch, mid in enumerate(norm.mechanisms):
                    prep = prepare(mid, data, **kw)
                    for eps in norm.epsilons:
                        diff = prep.run_value(eps, derive_substream(0, t, ch)) - prep.exact_value
                        assert report.trial_errors[(mid, eps)][t] == diff * diff, (name, mid, t)


def test_thread_resolution():
    assert _resolve_threads(_cfg().normalized()) == 1
    assert _resolve_threads(_cfg(threads=5).normalized()) == 5
    assert _resolve_threads(_cfg(threads=0).normalized()) >= 1


def test_trial_blocks_partition():
    for trials, threads in ((1, 1), (7, 2), (100, 4), (5, 16)):
        blocks = _trial_blocks(trials, threads)
        covered = [t for t0, t1 in blocks for t in range(t0, t1)]
        assert covered == list(range(trials))


def test_fresh_data_mode_differs_from_fixed():
    fixed = run_benchmark(_cfg(trials=16, base_seed=3))
    fresh = run_benchmark(_cfg(trials=16, base_seed=3, fixed_data=False))
    assert fixed.rows[0].mse != fresh.rows[0].mse
    assert fresh.rows[0].mse > 0.0


def test_benchmark_csv_and_sidecar(tmp_path):
    out = tmp_path / "report.csv"
    cfg = _cfg(
        mechanisms=["bezier", "swap"],
        epsilons=[1.0],
        trials=8,
        output_path=str(out),
    )
    report = run_benchmark(cfg)
    # floats as repr, which round-trips exactly; csv's CRLF line ends
    assert out.read_bytes().split(b"\r\n") == [
        b"mechanism,epsilon,n,trials,mse,normalized_mse,std_error,analytic_prediction",
        b"bezier_variance,1.0,50,8,0.00012765672182799194,0.3191418045699798,"
        b"3.2267466830027666e-05,0.3334959162817627",
        b"swap_variance,1.0,50,8,0.0008716625817113843,2.179156454278461,"
        b"0.0003545992540326349,2.0000000000000027",
        b"",
    ]
    assert float(b"3.2267466830027666e-05") == report.rows[0].std_error
    sidecar = json.loads((tmp_path / "report.csv.config.json").read_text())
    assert sidecar["version"]
    assert sidecar["config"]["mechanisms"] == ["bezier_variance", "swap_variance"]
    assert sidecar["config"]["base_seed"] == 0


def test_benchmark_report_directory_checked_before_any_trial(tmp_path, monkeypatch):
    def no_data(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "generate_dataset", no_data)
    with pytest.raises(ConfigError, match="no such directory"):
        run_benchmark(_cfg(output_path=str(tmp_path / "missing" / "r.csv")))
    assert not (tmp_path / "missing").exists()


def test_benchmark_report_write_errors_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot write report") as exc:
        run_benchmark(_cfg(output_path=str(tmp_path)))  # a directory
    assert isinstance(exc.value.__cause__, OSError)


def test_benchmark_correlation_prediction_blank_in_csv(tmp_path):
    # correlated:1 gives an exact correlation of 1.0, the clip bound, where
    # the first-order prediction does not apply
    out = tmp_path / "corr.csv"
    cfg = _cfg(
        statistic="correlation",
        mechanisms=["bezier"],
        distribution="correlated",
        dist_param=1.0,
        n=60,
        trials=4,
        output_path=str(out),
    )
    report = run_benchmark(cfg)
    assert report.rows[0].analytic_prediction is None
    assert out.read_text().strip().split("\n")[1].endswith(",")


def test_benchmark_moment_prediction():
    cfg = _cfg(
        statistic="moment",
        mechanisms=["moment"],
        moment_k=3,
        moment_j=1,
        n=30,
        trials=8,
    )
    report = run_benchmark(cfg)
    assert report.rows[0].analytic_prediction == pytest.approx(
        900.0 * moment_release_mse(3, 1, 1.0)
    )


def test_benchmark_csv_distribution(tmp_path):
    p = tmp_path / "data.csv"
    rng = np.random.default_rng(8)
    np.savetxt(p, rng.uniform(0, 1, (30, 1)), delimiter=",", fmt="%.6f")
    cfg = _cfg(distribution="csv", csv_path=str(p), trials=8)
    report = run_benchmark(cfg)
    assert report.rows[0].n == 30
    # column count must match the statistic
    cfg2 = _cfg(
        statistic="covariance",
        mechanisms=["bezier_cov"],
        distribution="csv",
        csv_path=str(p),
        trials=2,
    )
    with pytest.raises(ConfigError):
        run_benchmark(cfg2)


def test_benchmark_rejects_undefined_statistic_on_fixed_data(tmp_path):
    p = tmp_path / "flat.csv"
    p.write_text("0.5,0.1\n0.5,0.9\n")  # constant x column: correlation undefined
    cfg = _cfg(
        statistic="correlation",
        mechanisms=["bezier"],
        distribution="csv",
        csv_path=str(p),
        trials=2,
    )
    with pytest.raises(ConfigError):
        run_benchmark(cfg)


# ---------------------------------------------------------------------------
# single-shot estimation
# ---------------------------------------------------------------------------

def test_run_estimate(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("0.2\n0.4\n0.9\n")
    est = run_estimate(str(p), "bezier", 1.0, seed=4)
    assert est.mechanism_id == "bezier_variance"
    assert est.epsilon == 1.0
    zero = run_estimate(str(p), "bezier", 1.0, noise="zero")
    assert zero.value == variance_exact(Dataset([0.2, 0.4, 0.9]))
    # two columns resolve the alias to covariance
    q = tmp_path / "xy.csv"
    q.write_text("0.1,0.3\n0.5,0.9\n1.0,0.2\n")
    est = run_estimate(str(q), "bezier", 1.0)
    assert est.mechanism_id == "bezier_covariance"
    # explicit ids pass straight through
    est = run_estimate(str(q), "correlation_composed", 1.0)
    assert est.mechanism_id == "correlation_composed"
    # reproducible in the seed
    a = run_estimate(str(p), "transformed", 0.5, seed=11)
    b = run_estimate(str(p), "transformed", 0.5, seed=11)
    assert a.value == b.value


def test_run_estimate_private_by_default(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("0.2\n0.4\n0.9\n")
    # the noisy aggregates are continuous and never clipped
    first = run_estimate(str(p), "bezier", 1.0).noisy_aggregates
    second = run_estimate(str(p), "bezier", 1.0).noisy_aggregates
    assert first != second
    seeded = [run_estimate(str(p), "bezier", 1.0, seed=5).noisy_aggregates for _ in range(2)]
    assert seeded[0] == seeded[1]
    assert seeded[0] != first


def test_run_estimate_moment_syntax(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("0.2\n0.4\n0.9\n")
    est = run_estimate(str(p), "moment:2:1", 1.0, noise="zero")
    assert est.mechanism_id == "moment_release"
    assert est.value == pytest.approx(1.5, rel=1e-9)
    for bad in ("moment:2", "moment:a:b", "moment:2:1:0"):
        with pytest.raises(ConfigError):
            run_estimate(str(p), bad, 1.0)
    with pytest.raises(ConfigError):
        run_estimate(str(p), "bezier", 1.0, noise="laplace")
