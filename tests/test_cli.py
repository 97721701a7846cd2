import argparse
import json
import math

import pytest
from scipy.stats import norm

from pathstat.cli import CONFIG_FLAGS, _analysis_config, build_parser, main
from pathstat.config import AnalysisConfig
from pathstat.generators import parse_spec
from pathstat.pathcore import read_path_file
from pathstat.stattests import calibrate_test_size


def run(args):
    return main([str(a) for a in args])


def test_generate_writes_readable_path(tmp_path):
    out = tmp_path / "path.txt"
    assert run(["generate", "--spec", "sine(theta=1.5707963267948966),L=16",
                "--out", out]) == 0
    path = read_path_file(str(out))
    assert path.length == 16
    assert path.values[1] == pytest.approx(1.0)


def test_analyze_constant_passes(tmp_path):
    code = run(["analyze", "generate:constant(2),L=1000",
                "--out-dir", tmp_path])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["overall_pass"] is True
    assert report["propertyT"]["verdict"] is True
    assert report["ergodicity"]["verdict"] == "ConsistentWithErgodic"
    assert (tmp_path / "density_trajectories.csv").exists()


def test_analyze_monotone_exits_2_with_tightness_fail(tmp_path):
    code = run(["analyze", "generate:monotone(1),L=10000",
                "--out-dir", tmp_path])
    assert code == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["propertyT"]["verdict"] is False
    assert report["propertyE"]["pass"] is False


def test_analyze_nan_row_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\n2\nnan\n")
    assert run(["analyze", bad, "--out-dir", tmp_path]) == 1
    assert "line 3" in capsys.readouterr().err


def test_analyze_reruns_byte_identical(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for d in (dir_a, dir_b):
        assert run(["analyze", "generate:ar1(0.5),L=5000,seed=9",
                    "--out-dir", d]) == 0
    assert (dir_a / "report.json").read_bytes() == \
        (dir_b / "report.json").read_bytes()
    assert (dir_a / "density_trajectories.csv").read_bytes() == \
        (dir_b / "density_trajectories.csv").read_bytes()


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_max": 1}))
    assert run(["analyze", "generate:constant(2),L=500", "--k-max", "2",
                "--config", cfg, "--out-dir", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    ks = {v["k"] for v in report["propertyE"]["verdicts"]}
    assert ks == {1}


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run(["analyze", "generate:constant(2),L=500",
                "--config", cfg, "--out-dir", tmp_path]) == 1
    assert "bogus" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PATHSTAT_SEED", "123")
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    run(["generate", "--spec", "iid_normal(0,1),L=50", "--out", out_a])
    run(["generate", "--spec", "iid_normal(0,1),L=50,seed=123", "--out", out_b])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seed_flag_beats_spec_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PATHSTAT_SEED", "5")
    outs = {name: tmp_path / f"{name}.txt"
            for name in ("flag", "spec", "seed3", "seed4")}
    run(["generate", "--spec", "ar1(0.5),L=5,seed=3", "--seed", "4",
         "--out", outs["flag"]])
    run(["generate", "--spec", "ar1(0.5),L=5,seed=3", "--out", outs["spec"]])
    monkeypatch.delenv("PATHSTAT_SEED")
    for seed in (3, 4):
        run(["generate", "--spec", f"ar1(0.5),L=5,seed={seed}",
             "--out", outs[f"seed{seed}"]])
    assert outs["flag"].read_bytes() == outs["seed4"].read_bytes()
    assert outs["spec"].read_bytes() == outs["seed3"].read_bytes()


VALID_TESTS = [{"kind": "mean_split", "n": 20, "tau": 0.9, "alpha": 0.05}]


@pytest.mark.parametrize("config, tests, message", [
    ({"k_max": "2"}, VALID_TESTS, "k_max"),
    ([1], VALID_TESTS, "JSON object"),
    ({"m_schedule": [16, 32]}, VALID_TESTS, "unknown config key 'm_schedule'"),
    (None, [1], "JSON object"),
    (None, [{"kind": "mean_split", "n": 20, "alpha": 0.05,
             "calibration": {"generator": "constant(1),L=20",
                             "replicates": 1000, "seed": 1}}], "is constant"),
    (None, [{"kind": "mean_split", "n": 100, "alpha": 0.05,
             "calibration": {"generator": "iid_normal(0,1),L=7",
                             "replicates": 1000, "seed": 1}}],
     "L=7 but test 'mean_split' has n=100"),
] + [
    # a one-value half: a fixed tau never rejects, a calibration is constant
    (None, [{"kind": "variance_split", "n": n, "alpha": 0.05, **how}],
     f"'variance_split' needs a window of at least n = 4, got n = {n}")
    for n in (2, 3)
    for how in ({"tau": 0.1},
                {"calibration": {"generator": f"iid_normal(0,1),L={n}",
                                 "replicates": 1000, "seed": 1}})
] + [
    # keys a run would otherwise ignore
    ({"tolerance": 0.1}, VALID_TESTS, "unknown config key 'tolerance'"),
    (None, [{**VALID_TESTS[0], "strid": 3}], "unknown test spec key 'strid'"),
    (None, [{"kind": "mean_split", "n": 20, "alpha": 0.05,
             "calibration": {"generator": "iid_normal(0,1),L=20",
                             "replicate": 1000, "seed": 1}}],
     "unknown calibration key 'replicate'"),
    (None, [{**VALID_TESTS[0],
             "calibration": {"generator": "iid_normal(0,1),L=20",
                             "replicates": 1000, "seed": 1}}],
     "test 'mean_split' has both tau and a calibration block"),
] + [
    # a missing key is named, and a value of the wrong JSON type is an error
    # rather than truncated, coerced or run as given
    (None, [{"n": 20, "tau": 0.9}], "test spec is missing 'kind'"),
    (None, [{"kind": "mean_split", "tau": 0.9}], "test spec is missing 'n'"),
    (None, [{"kind": "mean_split", "n": 20,
             "calibration": {"replicates": 1000, "seed": 1}}],
     "calibration is missing 'generator'"),
    (None, [{**VALID_TESTS[0], "n": 20.7}],
     "test spec key 'n' must be an integer, got 20.7"),
    (None, [{**VALID_TESTS[0], "start": 1.9}],
     "test spec key 'start' must be an integer, got 1.9"),
    (None, [{**VALID_TESTS[0], "stride": True}],
     "test spec key 'stride' must be an integer, got True"),
    (None, [{**VALID_TESTS[0], "tau": math.nan}],
     "test spec key 'tau' must be a finite number, got nan"),
    (None, [{**VALID_TESTS[0], "alpha": "0.05"}],
     "test spec key 'alpha' must be a finite number, got '0.05'"),
    (None, [{**VALID_TESTS[0], "kind": 3}],
     "test spec key 'kind' must be a string, got 3"),
    (None, [{**VALID_TESTS[0], "name": 7}],
     "test spec key 'name' must be a string, got 7"),
    (None, [{"kind": "mean_split", "n": 20, "alpha": 0.05,
             "calibration": {"generator": "iid_normal(0,1),L=20",
                             "replicates": 1000.0, "seed": 1}}],
     "calibration key 'replicates' must be an integer, got 1000.0"),
    (None, [{"kind": "mean_split", "n": 20, "alpha": 0.05,
             "calibration": {"generator": "iid_normal(0,1),L=20",
                             "replicates": 1000, "seed": "1"}}],
     "calibration key 'seed' must be an integer, got '1'"),
    (None, [{"kind": "mean_split", "n": 20, "alpha": 0.05,
             "calibration": {"generator": 20, "replicates": 1000}}],
     "calibration key 'generator' must be a string, got 20"),
], ids=["config-wrong-type", "config-not-object", "config-unknown-key",
        "spec-not-object", "constant-calibration", "calibration-length",
        "variance-split-n2", "variance-split-n2-calibrated",
        "variance-split-n3", "variance-split-n3-calibrated",
        "config-key-not-taken", "spec-unknown-key", "calibration-unknown-key",
        "spec-tau-and-calibration",
        "spec-missing-kind", "spec-missing-n", "calibration-missing-generator",
        "spec-fractional-n", "spec-fractional-start", "spec-boolean-stride",
        "spec-nan-tau", "spec-string-alpha", "spec-numeric-kind",
        "spec-numeric-name",
        "calibration-fractional-replicates", "calibration-string-seed",
        "calibration-numeric-generator"])
def test_bad_inputs_are_errors(tmp_path, capsys, config, tests, message):
    spec_file = tmp_path / "tests.json"
    spec_file.write_text(json.dumps(tests))
    args = ["testbench", "generate:constant(1),L=100", "--tests", spec_file,
            "--out-dir", tmp_path]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", cfg]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("flags, config, message", [
    (["--ergodicity-tolerance", "nan"], None,
     "ergodicity_tolerance must be finite, got nan"),
    (["--t-slack", "inf"], None, "t_slack must be finite, got inf"),
    ([], {"tolerance": math.nan},
     "config key 'tolerance' must be a finite number, got nan"),
    ([], {"t_slack": -math.inf},
     "config key 't_slack' must be a finite number, got -inf"),
    ([], {"k_max": 1.0}, "config key 'k_max' must be an integer, got 1.0"),
    ([], {"seed": 1.5}, "config key 'seed' must be an integer or null, got 1.5"),
    ([], {"out_dir": 3}, "config key 'out_dir' must be a string, got 3"),
    ([], {"m_schedule": [16, 32]}, "unknown config key 'm_schedule'"),
    ([], {"contraction_densities": [0.5]},
     "unknown config key 'contraction_densities'"),
], ids=["flag-nan", "flag-inf", "config-nan", "config-minus-inf",
        "config-fractional-int", "config-fractional-seed",
        "config-numeric-out-dir", "config-m-schedule",
        "config-contraction-densities"])
def test_bad_analysis_values_are_errors_naming_the_field(tmp_path, capsys,
                                                         flags, config,
                                                         message):
    args = ["analyze", "generate:constant(2),L=500", *flags,
            "--out-dir", tmp_path]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", cfg]
    assert run(args) == 1
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err == f"error: {message}\n"
    assert not (tmp_path / "report.json").exists()


def test_analyze_refuses_a_grid_above_the_cell_limit(tmp_path, capsys):
    assert run(["analyze", "generate:iid_normal(0,1),L=2000,seed=1",
                "--k-max", "6", "--out-dir", tmp_path]) == 1
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err == (
        "error: a grid of 8 cells per axis at order 6 has 262144 cells, "
        "more than the limit of 65536\n")
    assert list(tmp_path.iterdir()) == []


def test_config_seed_null_clears_the_seed_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": None}))
    args = build_parser().parse_args(
        ["analyze", "generate:constant(2),L=500", "--seed", "5",
         "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert _analysis_config(args) == AnalysisConfig()
    assert args.seed is None
    assert run(["analyze", "generate:constant(2),L=500", "--seed", "5",
                "--config", cfg, "--out-dir", tmp_path]) == 0


def test_testbench_summary_and_csv(tmp_path):
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps([
        {"kind": "threshold_exceedance", "n": 20,
         "tau": 1.6448536269514722 / 20 ** 0.5, "alpha": 0.05},
        {"kind": "mean_split", "n": 20, "alpha": 0.05,
         "calibration": {"generator": "iid_normal(0,1),L=20",
                         "replicates": 2000, "seed": 4}},
    ]))
    code = run(["testbench", "generate:iid_normal(0,1),L=100000,seed=5",
                "--tests", tests, "--out-dir", tmp_path])
    assert code == 0
    summary = json.loads((tmp_path / "testbench_summary.json").read_text())
    assert len(summary["tests"]) == 2
    for entry in summary["tests"]:
        assert entry["compliant"] is True
        csv_lines = (tmp_path / entry["indicators_csv"]).read_text().splitlines()
        assert csv_lines[0] == "offset,indicator"
        assert len(csv_lines) == 100000 - 20 + 1 + 1


def test_testbench_calibration_seed_follows_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PATHSTAT_SEED", "7")
    calibration = {"generator": "iid_normal(0,1),L=20", "replicates": 1000}
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps([
        {"kind": "mean_split", "n": 20, "alpha": 0.05,
         "calibration": calibration},
        {"kind": "mean_split", "n": 20, "alpha": 0.05,
         "calibration": {**calibration, "seed": 2}},
    ]))
    assert run(["testbench", "generate:iid_normal(0,1),L=2000",
                "--tests", tests, "--out-dir", tmp_path]) == 0
    summary = json.loads((tmp_path / "testbench_summary.json").read_text())
    assert summary["input"]["seed"] == 7
    # the environment seed stands in for the flag; a block's own seed wins
    gen = parse_spec(calibration["generator"])
    for entry, seed in zip(summary["tests"], (7, 2)):
        assert entry["calibration"]["seed"] == seed
        assert entry["tau"] == calibrate_test_size(
            "mean_split", 20, 0.05, gen, replicates=1000, seed=seed).tau


@pytest.mark.parametrize("flag, env, expected", [
    (None, None, 3), (None, "7", 3), (4, "7", 4)])
def test_testbench_calibration_seed_is_the_run_seed(tmp_path, monkeypatch,
                                                    flag, env, expected):
    if env is None:
        monkeypatch.delenv("PATHSTAT_SEED", raising=False)
    else:
        monkeypatch.setenv("PATHSTAT_SEED", env)
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps([
        {"kind": "mean_split", "n": 20, "alpha": 0.05, "calibration": {
            "generator": "iid_normal(0,1),L=20", "replicates": 1000}}]))
    args = ["testbench", "generate:iid_normal(0,1),L=2000,seed=3",
            "--tests", tests, "--out-dir", tmp_path]
    assert run(args + ([] if flag is None else ["--seed", flag])) == 0
    summary = json.loads((tmp_path / "testbench_summary.json").read_text())
    # the flag, then the input spec's seed=, then PATHSTAT_SEED
    assert summary["input"]["seed"] == expected
    assert summary["tests"][0]["calibration"]["seed"] == expected


@pytest.mark.parametrize("block_seed, expected", [(None, 9), (2, 2)])
def test_testbench_calibration_seed_follows_the_generator_spec(
        tmp_path, monkeypatch, block_seed, expected):
    monkeypatch.delenv("PATHSTAT_SEED", raising=False)
    calibration = {"generator": "iid_normal(0,1),L=100,seed=9",
                   "replicates": 1000}
    if block_seed is not None:
        calibration["seed"] = block_seed
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps([{"kind": "mean_split", "n": 100,
                                  "alpha": 0.05, "calibration": calibration}]))
    assert run(["testbench", "generate:iid_normal(0,1),L=2000,seed=3",
                "--tests", tests, "--out-dir", tmp_path]) == 0
    entry = json.loads(
        (tmp_path / "testbench_summary.json").read_text())["tests"][0]
    # the block's seed, then its generator's seed=, then the run's seed (3)
    assert entry["calibration"]["seed"] == expected
    assert entry["tau"] == calibrate_test_size(
        "mean_split", 100, 0.05, parse_spec(calibration["generator"]),
        replicates=1000, seed=expected).tau


def test_testbench_flags_trend(tmp_path):
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps(
        [{"kind": "mean_split", "n": 20, "tau": 0.9, "alpha": 0.05}]))
    assert run(["testbench", "generate:monotone(1),L=20000",
                "--tests", tests, "--out-dir", tmp_path]) == 0
    summary = json.loads((tmp_path / "testbench_summary.json").read_text())
    assert summary["tests"][0]["upper_density"] == 1.0
    assert summary["tests"][0]["compliant"] is False


def test_testbench_rejection_sweep(tmp_path):
    # the one-sided mean test and the split-mean test at analytic
    # thresholds: near the nominal 5% on a null path, always on a ramp
    z95, z975 = norm.ppf(0.95), norm.ppf(0.975)
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps([
        spec for n in (10, 20) for spec in (
            {"kind": "threshold_exceedance", "n": n,
             "tau": z95 / math.sqrt(n)},
            {"kind": "mean_split", "n": n, "tau": 2 * z975 / math.sqrt(n)})]))
    for path in ("iid_normal(0,1),L=20000,seed=0", "monotone(1),L=20000"):
        out = tmp_path / path.split("(")[0]
        assert run(["testbench", f"generate:{path}", "--tests", tests,
                    "--out-dir", out]) == 0
        summary = json.loads((out / "testbench_summary.json").read_text())
        for entry in summary["tests"]:
            if path.startswith("monotone"):
                assert entry["upper_density"] == 1.0
                assert entry["compliant"] is False
            else:
                assert 0.0 < entry["upper_density"] < 0.1


@pytest.mark.parametrize("bad", [
    {"kind": "mean_split", "n": 1},
    {"kind": "mean_split", "n": 20, "tau": 0.5, "start": 90},
], ids=["no-tau", "start-past-the-path"])
def test_testbench_bad_spec_writes_nothing(tmp_path, bad):
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps([
        {"kind": "mean_split", "n": 20, "tau": 0.5},
        {"kind": "kpss_like", "n": 20, "calibration": {
            "generator": "iid_normal(0,1),L=20", "replicates": 1000}}, bad]))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["testbench", "generate:iid_normal(0,1),L=100,seed=1",
                "--tests", tests, "--out-dir", out]) == 1
    assert list(out.iterdir()) == []


def test_testbench_empty_tests_is_usage_error(tmp_path, capsys):
    tests = tmp_path / "tests.json"
    tests.write_text("[]")
    assert run(["testbench", "generate:constant(1),L=100",
                "--tests", tests, "--out-dir", tmp_path]) == 1


def test_testbench_infeasible_window_is_error(tmp_path):
    tests = tmp_path / "tests.json"
    tests.write_text(json.dumps(
        [{"kind": "mean_split", "n": 500, "tau": 0.1, "alpha": 0.05}]))
    assert run(["testbench", "generate:constant(1),L=100",
                "--tests", tests, "--out-dir", tmp_path]) == 1


def test_montecarlo_small_table(tmp_path):
    code = run(["montecarlo", "--generators", "constant(2),L=2000",
                "monotone(1),L=2000", "--replicates", "3", "--seed", "0",
                "--out-dir", tmp_path])
    assert code == 0
    table = json.loads((tmp_path / "montecarlo.json").read_text())["table"]
    by_kind = {row["generator"].split("(")[0]: row for row in table}
    assert by_kind["constant"]["fraction"] == 1.0
    assert by_kind["monotone"]["fraction"] == 0.0


def test_contract_dump_and_trace(tmp_path):
    out = tmp_path / "contraction.json"
    trace = tmp_path / "trace.json"
    code = run(["contract", "generate:block_mixture(0,5),L=50000,seed=1",
                "--cell", "4", "6", "--threshold", "0.75",
                "--m-schedule", "4,8,16,32", "--out", out, "--trace", trace])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["failed"] is False
    assert payload["validation"]["passed"] is True
    blocks = payload["contraction"]["blocks"]
    assert all(e >= s for s, e in blocks)
    trace_payload = json.loads(trace.read_text())
    assert set(trace_payload["v0"]) == {"4", "8", "16", "32"}


def test_contract_unreadable_input_is_error(tmp_path, capsys):
    assert run(["contract", tmp_path / "missing.txt",
                "--cell", "0", "1"]) == 1


def test_contract_failure_is_printed(capsys):
    assert run(["contract", "generate:iid_normal(0,1),L=20000,seed=1",
                "--cell", "-100", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] is True
    assert payload["failure_reason"]
    assert "last_feasible_m" in payload and "contraction" not in payload


def test_montecarlo_records_its_generated_seed(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.delenv("PATHSTAT_SEED", raising=False)
    assert run(["montecarlo", "--generators", "constant(2),L=200",
                "--replicates", "1", "--out-dir", tmp_path]) == 0
    printed = capsys.readouterr().out.splitlines()[0]
    assert printed.startswith("montecarlo: no seed given")
    seed = json.loads((tmp_path / "montecarlo.json").read_text())["seed"]
    assert printed.endswith(f"recording generated seed {seed}")


def test_montecarlo_without_replicates_is_error(tmp_path, capsys):
    assert run(["montecarlo", "--replicates", "0", "--seed", "0",
                "--out-dir", tmp_path]) == 1
    assert "replicates must be at least 1" in capsys.readouterr().err


ZOO = ["ar1(0.5)", "iid_normal(0,1)",
       "random_phase_sine(theta=1.4142135623730951)", "constant(2)",
       "sine(theta=1.5707963267948966)", "monotone(1)", "unique_peak(10)",
       "block_mixture(0,5)"]


def test_montecarlo_zoo_stage_table(tmp_path):
    assert run(["montecarlo", "--generators",
                *[f"{text},L=2000" for text in ZOO], "--replicates", "1",
                "--seed", "0", "--out-dir", tmp_path]) == 0
    table = json.loads((tmp_path / "montecarlo.json").read_text())["table"]
    by_kind = {row["generator"].split("(")[0]: row for row in table}
    assert by_kind["constant"]["fraction"] == 1.0
    assert by_kind["constant"]["expected_mismatches"] == 0
    assert by_kind["monotone"]["stages"]["propertyT"] == 0.0
    assert by_kind["block_mixture"]["stages"]["ergodicity"] == 0.0
    # the peak hides in a quantile cell: Property E passes against the profile
    assert by_kind["unique_peak"]["expected_mismatches"] == 1


@pytest.mark.parametrize("spec, message", [
    ("iid_normal,L=2000", "cannot parse generator spec 'iid_normal,L=2000'"),
    ("iid_normal(0,1),L=2000,seed=3",
     "spec 'iid_normal(mu=0,sigma=1),L=2000,seed=3' sets seed="),
], ids=["unparsable", "spec-seed"])
def test_montecarlo_checks_every_spec_before_the_first_replicate(
        tmp_path, capsys, monkeypatch, spec, message):
    monkeypatch.setattr("pathstat.suite.run_suite", None)  # no replicate
    assert run(["montecarlo", "--generators", "ar1(0.5),L=2000", spec,
                "--seed", "0", "--out-dir", tmp_path]) == 1
    printed = capsys.readouterr()
    assert printed.out == "" and message in printed.err
    assert not (tmp_path / "montecarlo.json").exists()


def test_env_seed_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("PATHSTAT_SEED", "abc")
    assert run(["generate", "--spec", "iid_normal(0,1),L=5"]) == 1
    assert capsys.readouterr().err == \
        "error: PATHSTAT_SEED must be an integer, got 'abc'\n"


NEGATIVE_SEED_TESTS = [{"kind": "mean_split", "n": 20, "alpha": 0.05,
                        "calibration": {"generator": "iid_normal(0,1),L=20",
                                        "replicates": 1000, "seed": -1}}]


@pytest.mark.parametrize("args, env, message", [
    (["generate", "--spec", "iid_normal(0,1),L=5", "--seed", "-1"], None,
     "--seed must be non-negative, got -1"),
    (["generate", "--spec", "iid_normal(0,1),L=5"], "-3",
     "PATHSTAT_SEED must be non-negative, got '-3'"),
    (["generate", "--spec", "iid_normal(0,1),L=5,seed=-1"], None,
     "generator spec seed= must be non-negative, got -1"),
    (["montecarlo", "--generators", "constant(2),L=200", "--replicates", "1",
      "--seed", "-1"], None, "--seed must be non-negative, got -1"),
    (["testbench", "generate:iid_normal(0,1),L=200,seed=1", "--tests",
      "tests.json"], None, "calibration key 'seed' must be non-negative, "
                           "got -1"),
    (["analyze", "generate:iid_normal(0,1),L=200,seed=1", "--config",
      "config.json"], None, "config key 'seed' must be non-negative, got -1"),
], ids=["flag", "environment", "spec", "montecarlo-flag", "calibration-block",
        "config-file"])
def test_negative_seed_names_its_source(tmp_path, monkeypatch, capsys, args,
                                       env, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PATHSTAT_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("PATHSTAT_SEED", env)
    (tmp_path / "tests.json").write_text(json.dumps(NEGATIVE_SEED_TESTS))
    (tmp_path / "config.json").write_text(json.dumps({"seed": -1}))
    assert run(args) == 1
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json",
                                                          "tests.json"]


def test_contract_m_schedule_must_be_integers(capsys):
    assert run(["contract", "generate:iid_normal(0,1),L=2000,seed=1",
                "--cell", "-1", "0", "--m-schedule", "4,x"]) == 1
    assert capsys.readouterr().err == (
        "error: --m-schedule must be integers separated by commas, "
        "got '4,x'\n")


@pytest.mark.parametrize("schedule", ["0,4", "8,4"])
def test_contract_m_schedule_rule_is_the_config_rule(capsys, schedule):
    assert run(["contract", "generate:iid_normal(0,1),L=2000,seed=1",
                "--cell", "-1", "0", "--m-schedule", schedule]) == 1
    assert capsys.readouterr().err == (
        "error: m_schedule must be strictly increasing positive integers\n")


def test_montecarlo_rejects_a_too_short_spec_before_the_first_replicate(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pathstat.suite.run_suite", None)  # no replicate
    assert run(["montecarlo", "--generators", "iid_normal(0,1),L=100000",
                "iid_normal(0,1),L=5", "--replicates", "3", "--seed", "0",
                "--out-dir", tmp_path]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert "path of length 5 is too short for the contraction family" \
        in printed.err
    assert not (tmp_path / "montecarlo.json").exists()


def test_generate_without_out_writes_stdout(capsys):
    assert run(["generate", "--spec", "monotone(0.5),L=4"]) == 0
    assert capsys.readouterr().out == "0.0\n0.5\n1.0\n1.5\n"


ANALYSIS_FLAGS = ("--grid-cells", "--k-max", "--tail-fraction", "--tolerance",
                  "--violation-floor-count", "--positive-floor-count",
                  "--t-slack", "--ergodicity-tolerance")
COMMAND_ARGS = {
    "analyze": ["generate:constant(2),L=500"],
    "montecarlo": [],
    "testbench": ["generate:constant(2),L=500", "--tests", "tests.json"],
    "contract": ["generate:constant(2),L=500", "--cell", "1", "3"],
}


@pytest.mark.parametrize("command, flag", [
    *[("testbench", flag) for flag in ANALYSIS_FLAGS],
    *[("contract", flag) for flag in ANALYSIS_FLAGS + ("--out-dir",)
      if flag not in ("--tail-fraction", "--tolerance")],
])
def test_flags_a_command_does_not_read_are_usage_errors(command, flag,
                                                        capsys):
    with pytest.raises(SystemExit) as info:
        run([command, *COMMAND_ARGS[command], flag, "1"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "montecarlo"])
def test_suite_commands_take_every_analysis_flag(command):
    values = ["12", "1", "0.25", "0.05", "3", "7", "0.02", "0.1"]
    args = build_parser().parse_args(
        [command, *COMMAND_ARGS[command], "--out-dir", "d",
         *(x for pair in zip(ANALYSIS_FLAGS, values) for x in pair)])
    assert args.config_fields == CONFIG_FLAGS
    assert args.out_dir == "d"
    assert _analysis_config(args) == AnalysisConfig(
        grid_cells=12, k_max=1, tail_fraction=0.25, tolerance=0.05,
        violation_floor_count=3.0, positive_floor_count=7.0, t_slack=0.02,
        ergodicity_tolerance=0.1)


# every long option of each command; a new option is a deliberate change
LONG_OPTIONS = {
    "generate": ("--spec", "--out", "--seed"),
    "analyze": ("--config", *ANALYSIS_FLAGS, "--seed", "--out-dir"),
    "testbench": ("--tests", "--config", "--seed", "--out-dir"),
    "montecarlo": ("--generators", "--replicates", "--config",
                   *ANALYSIS_FLAGS, "--seed", "--out-dir"),
    "contract": ("--cell", "--threshold", "--m-schedule", "--trace", "--out",
                 "--config", "--tail-fraction", "--tolerance", "--seed"),
}


def test_each_command_keeps_its_long_options():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {name: tuple(option for action in sub._actions
                           for option in action.option_strings
                           if option.startswith("--") and option != "--help")
               for name, sub in commands.items()}
    assert options == LONG_OPTIONS


def test_contract_takes_its_two_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tail_fraction": 0.25, "tolerance": 0.05}))
    args = build_parser().parse_args(
        ["contract", *COMMAND_ARGS["contract"], "--config", str(cfg)])
    assert _analysis_config(args) == AnalysisConfig(tail_fraction=0.25,
                                                    tolerance=0.05)
    cfg.write_text(json.dumps({"out_dir": "d"}))
    assert run(["contract", *COMMAND_ARGS["contract"], "--config", cfg]) == 1
    assert "unknown config key 'out_dir'" in capsys.readouterr().err
