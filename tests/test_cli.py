"""CLI surface: subcommands, output shapes, exit codes."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from bezier_dp import __version__, cli, mechanisms, sigma_lower_bound, variance_exact, Dataset
from bezier_dp.cli import EXIT_CAPACITY, EXIT_CONFIG, EXIT_DATA, EXIT_OK, main


@pytest.fixture
def data_csv(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("0.2\n0.4\n0.9\n")
    return str(p)


@pytest.fixture
def pair_csv(tmp_path):
    p = tmp_path / "xy.csv"
    p.write_text("0.1,0.3\n0.5,0.9\n1.0,0.2\n")
    return str(p)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_zero_noise(data_csv, capsys):
    rc = main(
        ["estimate", "--data", data_csv, "--mechanism", "bezier", "--epsilon", "1",
         "--noise", "zero"]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "mechanism=bezier_variance" in out
    exact = variance_exact(Dataset([0.2, 0.4, 0.9]))
    assert f"value={exact!r}" in out
    assert "clip=[0.0, 0.25]" in out


def test_estimate_seeded_reproducible(data_csv, capsys):
    argv = ["estimate", "--data", data_csv, "--mechanism", "transformed",
            "--epsilon", "0.5", "--seed", "7"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first


def test_estimate_flags_reproducible_noise_as_not_private(data_csv, capsys):
    argv = ["estimate", "--data", data_csv, "--mechanism", "bezier", "--epsilon", "1"]
    assert main(argv) == EXIT_OK
    assert "NOT private" not in capsys.readouterr().err
    for extra in (["--seed", "3"], ["--noise", "zero"]):
        assert main(argv + extra) == EXIT_OK
        captured = capsys.readouterr()
        assert "reproducible noise: NOT private" in captured.err
        # the first stdout line keeps its machine-readable shape
        first = captured.out.splitlines()[0]
        assert re.match(r"^mechanism=\S+ epsilon=\S+ value=\S+ clip=(.*)$", first)


@pytest.mark.parametrize("mechanism", ["bezier", "swap", "naive", "transformed"])
def test_estimate_rejects_an_epsilon_whose_scale_overflows(mechanism, data_csv, capsys):
    # a positive, finite, denormal epsilon: 1/eps is inf, so no release
    rc = main(["estimate", "--data", data_csv, "--mechanism", mechanism,
               "--epsilon", "5e-324", "--seed", "1"])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "value=" not in captured.out
    assert "too small" in captured.err


def test_estimate_show_aggregates(pair_csv, capsys):
    rc = main(
        ["estimate", "--data", pair_csv, "--mechanism", "bezier_cov",
         "--epsilon", "1", "--noise", "zero", "--show-aggregates"]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "b_{0,0}~" in out
    assert "n~ = 3.0" in out


# `--show-aggregates` output of every id, captured before the trail was built
# lazily; the key is the id, the files and seed are those written below
_SHOW_AGGREGATES = json.loads(
    (Path(__file__).with_name("estimate_show_aggregates.json")).read_text()
)


@pytest.mark.parametrize("mid", sorted(mechanisms.REGISTRY))
def test_show_aggregates_output_is_unchanged(mid, tmp_path, capsys):
    spec = mechanisms.REGISTRY[mid]
    p = tmp_path / "data.csv"
    p.write_text(
        "0.2\n0.4\n0.9\n0.05\n0.7\n" if spec.d == 1
        else "0.1,0.3\n0.5,0.9\n1.0,0.2\n0.25,0.6\n0.8,0.75\n"
    )
    rc = main(["estimate", "--data", str(p), "--mechanism", "moment:3:2" if spec.params else mid,
               "--epsilon", "1", "--seed", "7", "--show-aggregates"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == _SHOW_AGGREGATES[mid]


@pytest.mark.parametrize("mechanism, columns", [("correlation_bezier", 2), ("moment:8:4", 1)])
@pytest.mark.parametrize("show", [False, True])
def test_estimate_makes_a_trail_pass_only_for_show_aggregates(
    mechanism, columns, show, tmp_path, monkeypatch, capsys
):
    # the trail's noisy basis cells are a second Bernstein pass over the records
    p = tmp_path / "data.csv"
    np.savetxt(p, np.linspace(0.0, 1.0, 40 * columns).reshape(40, columns), delimiter=",")
    calls = []
    real = mechanisms.bernstein_aggregate
    monkeypatch.setattr(
        mechanisms, "bernstein_aggregate", lambda *a, **kw: calls.append(a) or real(*a, **kw)
    )
    argv = ["estimate", "--data", str(p), "--mechanism", mechanism, "--epsilon", "1"]
    assert main(argv + ["--show-aggregates"] * show) == EXIT_OK
    assert len(calls) == show
    assert ("~ = " in capsys.readouterr().out) == show


def test_estimate_alias_resolution(data_csv, pair_csv, capsys):
    # a plain alias names one id, whatever the column count
    argv = ["estimate", "--data", pair_csv, "--mechanism", "composed", "--epsilon", "1",
            "--noise", "zero"]
    assert main(argv) == EXIT_OK
    assert "mechanism=correlation_composed" in capsys.readouterr().out
    # a family alias takes its covariance form on two columns
    argv[4] = "naive"
    assert main(argv) == EXIT_OK
    assert "mechanism=naive_covariance" in capsys.readouterr().out
    # ... and its variance form on one
    argv[2], argv[4] = data_csv, "bezier"
    assert main(argv) == EXIT_OK
    assert "mechanism=bezier_variance" in capsys.readouterr().out
    argv[4] = "skewness"
    assert main(argv) == EXIT_OK
    assert "mechanism=bezier_skewness" in capsys.readouterr().out
    # the bare moment alias needs its degree and power
    rc = main(["estimate", "--data", data_csv, "--mechanism", "moment", "--epsilon", "1"])
    assert rc == EXIT_CONFIG
    assert "moment:K:J" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mechanism, csv, message",
    [
        ("transformed", "pair", "transformed_variance needs d=1 data, got d=2"),
        ("composed", "single", "correlation_composed needs d=2 data, got d=1"),
        ("moment:2:1", "pair", "moment_release needs d=1 data, got d=2"),
        ("bezier_variance", "triple", "bezier_variance needs d=1 data, got d=3"),
        (
            "bezier",
            "triple",
            "alias 'bezier' has no form for 3-column data; its forms take 1 or 2 columns",
        ),
    ],
)
def test_estimate_alias_on_wrong_column_count(
    mechanism, csv, message, data_csv, pair_csv, tmp_path, capsys
):
    # an id or plain alias resolves whatever the column count; prepare then
    # names the dimension mismatch instead of calling the alias unknown, and
    # a family alias with no form for the column count says so
    triple = tmp_path / "xyz.csv"
    triple.write_text("0.1,0.3,0.5\n0.5,0.9,0.2\n")
    path = {"pair": pair_csv, "single": data_csv, "triple": str(triple)}[csv]
    rc = main(["estimate", "--data", path, "--mechanism", mechanism, "--epsilon", "1"])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_estimate_moment_syntax(data_csv, capsys):
    rc = main(
        ["estimate", "--data", data_csv, "--mechanism", "moment:2:1",
         "--epsilon", "1", "--noise", "zero"]
    )
    assert rc == EXIT_OK
    assert "mechanism=moment_release" in capsys.readouterr().out


def test_estimate_clip_input(tmp_path, capsys):
    p = tmp_path / "wide.csv"
    p.write_text("-0.2\n0.5\n1.3\n")
    argv = ["estimate", "--data", str(p), "--mechanism", "bezier", "--epsilon", "1"]
    assert main(argv) == EXIT_DATA
    assert "error:" in capsys.readouterr().err
    assert main(argv + ["--clip-input"]) == EXIT_OK


def test_estimate_error_exit_codes(data_csv, tmp_path, capsys):
    # missing file -> data problem
    rc = main(["estimate", "--data", str(tmp_path / "no.csv"),
               "--mechanism", "bezier", "--epsilon", "1"])
    assert rc == EXIT_DATA
    # bad mechanism -> config problem
    rc = main(["estimate", "--data", data_csv, "--mechanism", "nope",
               "--epsilon", "1"])
    assert rc == EXIT_CONFIG
    # bad epsilon -> config problem
    rc = main(["estimate", "--data", data_csv, "--mechanism", "bezier",
               "--epsilon", "0"])
    assert rc == EXIT_CONFIG
    # degree over the capacity limit
    rc = main(["estimate", "--data", data_csv, "--mechanism", "moment:99:0",
               "--epsilon", "1"])
    assert rc == EXIT_CAPACITY
    capsys.readouterr()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_inline_flags(capsys):
    rc = main(
        ["benchmark", "--mechanisms", "bezier,swap", "--epsilons", "0.5,1",
         "--n", "40", "--trials", "8"]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].split() == [
        "mechanism", "epsilon", "mse", "normalized", "std_err", "predicted"
    ]
    assert len(lines) == 5  # header + 2 mechanisms x 2 epsilons
    assert any(line.startswith("bezier_variance") for line in lines)
    assert any(line.startswith("swap_variance") for line in lines)


def test_benchmark_rejects_an_epsilon_whose_scale_overflows(capsys):
    for extra in ([], ["--noise", "zero"], ["--fresh-data"]):
        rc = main(["benchmark", "--mechanisms", "bezier,swap", "--epsilons", "1,5e-324",
                   "--n", "20", "--trials", "3", *extra])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too small" in captured.err


def test_benchmark_config_file_with_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mechanisms": ["bezier"],
        "epsilons": [1.0],
        "n": 30,
        "trials": 4,
    }))
    out_path = tmp_path / "rep.csv"
    rc = main(["benchmark", "--config", str(cfg_path), "--trials", "6",
               "--out", str(out_path)])
    assert rc == EXIT_OK
    assert f"report written to {out_path}" in capsys.readouterr().out
    lines = out_path.read_text().strip().split("\n")
    assert lines[1].split(",")[3] == "6"  # the flag overrode the file
    sidecar = json.loads((tmp_path / "rep.csv.config.json").read_text())
    assert sidecar["config"]["trials"] == 6


def test_benchmark_correlation_prediction_dash(capsys):
    # exact correlation 1.0 sits on the clip bound: no prediction
    rc = main(
        ["benchmark", "--statistic", "correlation", "--mechanisms", "bezier",
         "--epsilons", "1", "--distribution", "correlated:1",
         "--n", "50", "--trials", "4"]
    )
    assert rc == EXIT_OK
    body = capsys.readouterr().out.strip().split("\n")[1]
    assert body.split()[-1] == "-"


def test_benchmark_prediction_dash_on_a_clip_edge(capsys):
    # one record has variance 0, and beta:0.999999 data are all ones: the
    # exact value sits on the clip bound 0, so the clipped releases have no
    # first-order prediction; the unclipped swap release keeps its 2
    for extra in (["--n", "1"], ["--n", "200", "--distribution", "beta:0.999999"]):
        rc = main(["benchmark", "--mechanisms", "bezier,naive,improved,transformed,swap",
                   "--epsilons", "1", "--trials", "50", *extra])
        assert rc == EXIT_OK
        rows = {line.split()[0]: line.split()[-1]
                for line in capsys.readouterr().out.strip().split("\n")[1:]}
        assert rows == {
            "bezier_variance": "-", "naive_variance": "-", "improved_variance": "-",
            "transformed_variance": "-", "swap_variance": "2",
        }


def test_benchmark_statistic_choices_come_from_the_registry(capsys):
    rc = main(
        ["benchmark", "--mechanisms", "bezier", "--statistic", "skewness",
         "--epsilons", "1", "--trials", "10"]
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out.split("\n")[1].startswith("bezier_skewness")


def test_benchmark_error_exit_codes(tmp_path, capsys):
    assert main(["benchmark", "--epsilons", "1"]) == EXIT_CONFIG
    assert main(["benchmark", "--mechanisms", "bezier",
                 "--epsilons", "1,zebra"]) == EXIT_CONFIG
    assert main(["benchmark", "--mechanisms", "bezier", "--epsilons", "1",
                 "--distribution", "normal:1"]) == EXIT_CONFIG
    missing = tmp_path / "no.json"
    assert main(["benchmark", "--config", str(missing)]) == EXIT_CONFIG
    # a flag given but empty overrides the file's value, and is rejected
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mechanisms": ["bezier"], "epsilons": [1.0], "trials": 2}))
    for flag in ("--epsilons", "--mechanisms", "--distribution", "--out"):
        assert main(["benchmark", "--config", str(cfg_path), flag, ""]) == EXIT_CONFIG
    bad_data = tmp_path / "bad.csv"
    bad_data.write_text("0.1\nzzz\n")
    assert main(["benchmark", "--mechanisms", "bezier", "--epsilons", "1",
                 "--distribution", f"csv:{bad_data}", "--trials", "2"]) == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize(
    "field, value",
    [("trials", "abc"), ("epsilons", ["x"]), ("epsilons", 1.0), ("base_seed", "s"),
     ("dist_param", "x"), ("n", 2.7), ("mechanisms", "bezier")],
)
def test_benchmark_config_field_of_the_wrong_type(field, value, tmp_path, capsys):
    payload = {"mechanisms": ["bezier"], "epsilons": [1.0], "n": 20, "trials": 4,
               "distribution": "beta", "dist_param": 0.3, field: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert main(["benchmark", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field.rstrip("s") in captured.err


def test_benchmark_out_to_a_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "r.csv"
    argv = ["benchmark", "--mechanisms", "bezier", "--epsilons", "1", "--trials", "2"]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert not captured.out  # refused before any trial ran
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # a path the report cannot be written to: the trials run, then exit 2
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write report")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_bernstein(capsys):
    rc = main(["audit", "--map", "bernstein", "--k", "2", "--d", "1",
               "--trials", "60", "--sizes", "0,1,5"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "map=bernstein(k=2, d=1)" in out
    assert "claimed = 1" in out
    assert "n=5: max L1" in out
    max_line = next(line for line in out.split("\n") if line.startswith("max L1"))
    assert abs(float(max_line.split("=")[1].split("(")[0]) - 1.0) < 1e-9


def test_audit_swap_default_sizes_skip_empty(capsys):
    rc = main(["audit", "--map", "swap_variance", "--trials", "30"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "n=0" not in out
    assert "n=1:" in out


def test_audit_errors(capsys):
    with pytest.raises(SystemExit):  # not in the choices list
        main(["audit", "--map", "no_such_map"])
    assert main(["audit", "--map", "uvar", "--sizes", "1,x"]) == EXIT_CONFIG
    assert main(["audit", "--map", "uvar", "--trials", "0"]) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("sizes", ["", ",", " "])
def test_audit_given_but_empty_sizes_is_a_config_error(sizes, capsys):
    # an empty list is not a request for the default sizes
    assert main(["audit", "--map", "uvar", "--trials", "5", "--sizes", sizes]) == EXIT_CONFIG
    assert "empty sizes list" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def test_theory_sigma(capsys):
    rc = main(["theory", "sigma", "--epsilon", "0.1,1"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert f"sigma(0.1) = {sigma_lower_bound(0.1)!r}" in out
    assert f"sigma(1) = {sigma_lower_bound(1.0)!r}" in out
    assert main(["theory", "sigma", "--epsilon", "-1"]) == EXIT_CONFIG
    capsys.readouterr()
    for empty in ("", ","):
        assert main(["theory", "sigma", "--epsilon", empty]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert not captured.out and captured.err.startswith("error: empty epsilon list")


def test_infinite_epsilon_is_a_config_error(data_csv, capsys):
    message = "error: epsilon must be finite and > 0, got inf"
    for argv in (
        ["estimate", "--data", data_csv, "--mechanism", "bezier", "--epsilon", "inf"],
        ["theory", "sigma", "--epsilon", "inf"],
        ["theory", "moment", "--k", "3", "--j", "1", "--epsilon", "inf"],
    ):
        assert main(argv) == EXIT_CONFIG, argv
        assert message in capsys.readouterr().err, argv


def test_theory_constants(capsys):
    rc = main(["theory", "constants", "--r", "0.5", "--v", "0.0833333333333333"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "bezier" in out and "via_covariance" in out and "transformed" in out
    rc = main(["theory", "constants", "--rx", "0.5", "--ry", "0.5", "--c", "0.0"])
    assert rc == EXIT_OK
    assert "covariance constant" in capsys.readouterr().out
    assert main(["theory", "constants", "--r", "0.5"]) == EXIT_CONFIG
    assert main(["theory", "constants", "--rx", "0.5", "--c", "0.1"]) == EXIT_CONFIG
    assert main(["theory", "constants", "--r", "0.5", "--v", "0.9"]) == EXIT_CONFIG
    capsys.readouterr()


def test_theory_table(capsys):
    rc = main(["theory", "table"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    for key in ("swap", "naive_var", "naive_cov", "improved", "bezier_var",
                "bezier_cov", "transformed_var"):
        assert key in out


def test_theory_moment(capsys):
    rc = main(["theory", "moment", "--k", "2", "--j", "1", "--epsilon", "1"])
    assert rc == EXIT_OK
    assert "= 2.5" in capsys.readouterr().out
    assert main(["theory", "moment", "--k", "2", "--j", "5",
                 "--epsilon", "1"]) == EXIT_CONFIG
    assert main(["theory", "moment", "--k", "0", "--j", "0",
                 "--epsilon", "1"]) == EXIT_CONFIG
    capsys.readouterr()


def test_degree_over_the_limit_is_a_capacity_error_everywhere(data_csv, capsys):
    # the closed form and a release reject degree 99 the same way
    assert main(["theory", "moment", "--k", "99", "--j", "0",
                 "--epsilon", "1"]) == EXIT_CAPACITY
    assert main(["estimate", "--data", data_csv, "--mechanism", "moment:99:0",
                 "--epsilon", "1"]) == EXIT_CAPACITY
    assert capsys.readouterr().err.count("exceeds the supported maximum 60") == 2


def test_consecutive_calls_match_one_shot_calls(data_csv, pair_csv, capsys):
    # the parser is built once per process; no call may leak into the next
    calls = [
        ["estimate", "--data", data_csv, "--mechanism", "bezier", "--epsilon", "1",
         "--seed", "3"],
        ["audit", "--map", "ucov", "--trials", "40", "--seed", "2"],
        ["estimate", "--data", pair_csv, "--mechanism", "naive_cov", "--epsilon", "0.5",
         "--noise", "zero", "--show-aggregates"],
        ["theory", "sigma", "--epsilon", "0.5,1"],
        ["audit", "--map", "bernstein", "--k", "3", "--trials", "30"],
        ["theory", "moment", "--k", "2", "--j", "5", "--epsilon", "1"],  # a config error
        ["audit", "--map", "swap_variance", "--trials", "25"],
    ]
    one_shot = []
    for argv in calls:
        cli._build_parser.cache_clear()
        rc = main(argv)
        one_shot.append((rc, capsys.readouterr()))
    cli._build_parser.cache_clear()
    for argv, want in zip(calls, one_shot):
        rc = main(argv)
        assert (rc, capsys.readouterr()) == want, argv
    assert cli._build_parser.cache_info().misses == 1
