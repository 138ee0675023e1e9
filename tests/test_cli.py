from __future__ import annotations

import json
from pathlib import Path

import pytest

from reordermon import cli
from reordermon.cli import GRID_HH_FRACTIONS, main
from reordermon.harness import AnalysisParams, ExperimentSpec
from reordermon.traceio import TRACE_HEADER, SynthConfig


def run_cli(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory: pytest.TempPathFactory) -> Path:
    path = tmp_path_factory.mktemp("traces") / "trace.csv"
    code = run_cli(
        "generate",
        "--out", str(path),
        "--prefixes", "96",
        "--bad-fraction", "0.2",
        "--bad-prob", "0.08",
        "--duration", "1.5",
        "--seed", "17",
    )
    assert code == 0
    return path


def test_generate_writes_trace_and_sidecar(tmp_path: Path) -> None:
    trace = tmp_path / "t.csv"
    sidecar = tmp_path / "s.csv"
    assert run_cli(
        "generate", "--out", str(trace), "--sidecar", str(sidecar),
        "--prefixes", "16", "--duration", "0.5", "--seed", "3",
    ) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) > 100
    assert sidecar.read_text().splitlines()[0] == "flow_key,injected_displacements"


@pytest.mark.parametrize(
    "flags",
    [
        ("--duration", "nan"),
        ("--duration", "inf"),
        ("--duration", "0"),
        # timestamps this late would be written with an exponent the reader refuses
        ("--duration", "1e17"),
        ("--duration", "1.5e9"),
        ("--max-flows", "0"),
        ("--mean-flow-size", "nan"),
        ("--mean-flow-size", "inf"),
        ("--mean-flow-size", "1.5"),
        ("--size-zipf", "nan"),
        ("--flows-zipf", "inf"),
        # zipf weights that overflow a double
        ("--size-zipf", "-400"),
        ("--flows-zipf", "-400"),
        ("--noisy-fraction", "2"),
        ("--noisy-fraction", "-1"),
        ("--noisy-fraction", "nan"),
        ("--prefixes", "0"),
        ("--prefixes", "65537"),
    ],
)
def test_generate_bad_option_is_usage_error_and_writes_nothing(
    tmp_path: Path, flags: tuple[str, ...]
) -> None:
    out = tmp_path / "gen"
    code = run_cli(
        "generate", "--out", str(out / "t.csv"), "--sidecar", str(tmp_path / "s.csv"),
        "--prefixes", "4", "--duration", "0.1", *flags,
    )
    assert code == 1
    assert list(tmp_path.iterdir()) == []


def test_generate_is_byte_identical_across_runs(tmp_path: Path) -> None:
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(
            "generate", "--out", str(out), "--prefixes", "24", "--duration", "0.5",
            "--seed", "9",
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_produces_results_csv(trace_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "results"
    code = run_cli(
        "run", "--trace", str(trace_path), "--out", str(out),
        "--algo", "array", "--def", "1", "--buckets", "16", "--seeds", "0,1",
    )
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("algorithm,def,buckets")
    assert len(lines) == 3  # header + 2 seeds


def test_sweep_over_buckets(trace_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "sweep"
    code = run_cli(
        "sweep", "--trace", str(trace_path), "--out", str(out),
        "--algo", "array", "--buckets", "8,32", "--seeds", "0",
    )
    assert code == 0
    assert len((out / "results.csv").read_text().splitlines()) == 3


def test_grid_hybrid_writes_best_x(trace_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "grid"
    code = run_cli(
        "grid-hybrid", "--trace", str(trace_path), "--out", str(out),
        "--buckets", "32", "--hh-fraction", "0.3,0.7", "--seeds", "0",
    )
    assert code == 0
    best = (out / "best_x.csv").read_text().splitlines()
    assert best[0] == "buckets,best_hh_fraction,mean_accuracy"
    assert len(best) == 2


def test_analyze_writes_artifacts(trace_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "analysis"
    code = run_cli(
        "analyze", "--trace", str(trace_path), "--out", str(out), "--pcc-reps", "5"
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["packet_count"] > 0
    assert (out / "pcc.csv").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("--pcc-reps", "-3"),
        ("--pcc-reps", "0"),
        ("--pcc-frac", "-1"),
        ("--pcc-frac", "0"),
        ("--pcc-frac", "nan"),
        ("--pcc-frac", "inf"),
        ("--pcc-frac", "1.5"),
        ("--eps", "0"),
        ("--eps", "1"),
        ("--alpha", "200", "--beta", "100"),
        # the aggregator's rule: alpha is a packet count of at least 1
        ("--alpha", "0"),
        ("--alpha", "-5"),
    ],
)
def test_analyze_bad_parameter_is_usage_error(
    flags: tuple[str, ...], trace_path: Path, tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    # parameter values are checked before the trace is read: a missing
    # trace would otherwise exit 2
    for trace in (trace_path, tmp_path / "missing.csv"):
        out = tmp_path / "analysis"
        assert run_cli("analyze", "--trace", str(trace), "--out", str(out), *flags) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_validate_lemma_preset(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    out = tmp_path / "lemma"
    code = run_cli(
        "validate-lemma", "--preset", "two-equal-flows", "--trials", "50",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "two-equal-flows" in captured.out
    rows = (out / "check_guarantee.csv").read_text().splitlines()
    assert len(rows) == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_validate_lemma_trials_below_one_is_usage_error(
    trials: str, tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    out = tmp_path / "lemma"
    code = run_cli("validate-lemma", "--preset", "all", "--trials", trials, "--out", str(out))
    assert code == 1
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert captured.out == ""  # no preset was simulated
    assert not out.exists()


def test_validate_lemma_model_file(tmp_path: Path) -> None:
    model = {
        "flow_probs": [1.0],
        "flow_prefix": [0],
        "prefix_bucket": [0],
        "bucket": 0,
        "target_prefix": 0,
        "p_min": 0.0,
        "packets_per_check": 4,
        "stream_length": 200,
        "epsilon": 0.5,
        "delta": 0.5,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run_cli("validate-lemma", "--model", str(path), "--trials", "20") == 0


@pytest.mark.parametrize(
    "field,value",
    [
        ("target_prefix", 0.5),
        ("stream_length", 10.5),
        ("packets_per_check", 2.5),
        ("bucket", True),
        ("flow_prefix", [0.0]),
        ("prefix_bucket", [0.5]),
        ("flow_probs", [float("nan")]),
        ("flow_probs", [1.5, -0.5]),
        ("flow_probs", 1.0),
        ("flow_prefix", 0),
        ("p_min", float("nan")),
        ("p_min", float("inf")),
        ("p_min", float("-inf")),
        ("p_min", -0.5),
    ],
)
def test_validate_lemma_bad_model_file_is_data_error(
    field: str, value, tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    model = {
        "flow_probs": [0.5, 0.5],
        "flow_prefix": [0, 0],
        "prefix_bucket": [0],
        "bucket": 0,
        "target_prefix": 0,
        "p_min": 0.0,
        "packets_per_check": 4,
        "stream_length": 200,
        "epsilon": 0.5,
        "delta": 0.5,
    }
    model[field] = value
    if field == "flow_probs" and isinstance(value, list):
        model["flow_prefix"] = [0] * len(value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run_cli("validate-lemma", "--model", str(path), "--trials", "5") == 2
    assert field in capsys.readouterr().err


LEMMA_MODEL = {
    "flow_probs": [0.5, 0.5],
    "flow_prefix": [0, 1],
    "prefix_bucket": [0, 1],
    "bucket": 0,
    "target_prefix": 0,
    "p_min": 0.0,
    "packets_per_check": 4,
    "stream_length": 200,
    "epsilon": 0.5,
    "delta": 0.5,
}


@pytest.mark.parametrize(
    "change,message",
    [
        ({"bucket": None}, "missing key(s): bucket"),
        ({"p_min": None, "delta": None}, "missing key(s): p_min, delta"),
        ({"buckets": 1}, "unknown key(s): buckets"),
        # a file that is not JSON at all
        ("{'bucket': 0}", "Expecting property name enclosed in double quotes: line 1 column 2"),
    ],
)
def test_validate_lemma_model_keys_are_checked(
    change: dict | str, message: str, tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    if isinstance(change, dict):
        model = {**LEMMA_MODEL, **change}
        change = json.dumps({k: v for k, v in model.items() if v is not None})
    path = tmp_path / "model.json"
    path.write_text(change)
    out = tmp_path / "lemma"
    assert run_cli("validate-lemma", "--model", str(path), "--trials", "5", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert f"error: {path}: " in captured.err and message in captured.err
    assert captured.out == "" and not out.exists()


def test_validate_lemma_model_file_not_an_object_is_data_error(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    assert run_cli("validate-lemma", "--model", str(path), "--trials", "5") == 2
    assert "JSON object" in capsys.readouterr().err


def test_usage_error_exit_code() -> None:
    with pytest.raises(SystemExit) as excinfo:
        run_cli("run", "--trace", "x.csv")  # missing --out
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        run_cli("no-such-command")
    assert excinfo.value.code == 1


def test_bad_flag_value_is_usage_error(
    trace_path: Path, tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    hybrid_config = tmp_path / "hybrid.conf"
    hybrid_config.write_text("hh-fraction = 0.3\nfilter-by-prefix = true\n")
    bad_config = tmp_path / "bad.conf"
    bad_config.write_text("bogus-key = 1\n")
    latin_config = tmp_path / "latin.conf"
    latin_config.write_bytes(b"seeds = 0\nmode = caf\xe9\n")
    # parameter values are checked before the trace is read: a missing
    # trace would otherwise exit 2
    for command, flags, message in (
        ("run", ("--def", "7"), "--def must be 1 or 2"),
        ("run", ("--algo", "array", "--r-hh", "0.1", "--d", "9"),
         "--algo array does not read --d, --r-hh"),
        ("run", ("--seeds", ","), "--seeds: empty item in ','"),
        # a negative seed would draw the admission stream of its absolute value
        ("run", ("--seeds", "-1"), "seeds must be >= 0"),
        ("grid-hybrid", ("--seeds", "0,-2"), "seeds must be >= 0"),
        ("run", ("--buckets", "32,32"), "--buckets: 32 is listed twice in '32,32'"),
        ("run", ("--config", str(bad_config)), "unknown config keys: bogus-key"),
        ("run", ("--config", str(latin_config)), f"{latin_config}:2: non-ASCII byte 0xe9"),
        ("run", ("--mode", "bogus"), "--mode: mode must be 'count' or 'fraction'"),
        ("run", ("--algo", "hh", "--buckets", "1", "--d", "4"),
         "hh with 1 buckets builds no HH table (needs 4 buckets, one per stage)"),
    ):
        for trace in (trace_path, tmp_path / "missing.csv"):
            code = run_cli(command, "--trace", str(trace), "--out", str(tmp_path / "o"), *flags)
            assert code == 1, (command, flags)
            assert capsys.readouterr().err == f"error: {message}\n"
    for command, flags in (
        ("run", ("--buckets", "0")),
        ("run", ("--C", "0")),
        ("run", ("--algo", "array", "--T", "nan")),
        ("sweep", ("--algo", "hybrid", "--T", "nan")),
        ("run", ("--alpha", "200", "--beta", "100")),
        # one bucket, all of it for a two-stage HH table: neither structure
        ("run", ("--algo", "hybrid", "--buckets", "1", "--hh-fraction", "1")),
        # fewer buckets than HH stages: no table fits the memory budget
        ("run", ("--algo", "hh", "--buckets", "3,4", "--d", "4")),
        ("run", ("--algo", "hh", "--buckets", "0")),
        ("run", ("--algo", "hh", "--d", "0")),
        # empty lists: nothing to run
        ("run", ("--buckets", ",")),
        ("run", ("--seeds", ",")),
        ("run", ("--algo", "hybrid", "--hh-fraction", ",")),
        ("grid-hybrid", ("--buckets", ",")),
        ("grid-hybrid", ("--seeds", ",")),
        ("grid-hybrid", ("--hh-fraction", ",")),
        # an empty item or a repeated value in a list
        ("run", ("--buckets", "32,,32", "--seeds", "0,0")),
        ("run", ("--buckets", "32,")),
        ("run", ("--buckets", "32,32")),
        ("run", ("--seeds", "0,0")),
        ("run", ("--algo", "hybrid", "--hh-fraction", "0.5,0.50")),
        ("grid-hybrid", ("--seeds", "0,0")),
        ("grid-hybrid", ("--hh-fraction", "0.3,,0.6")),
        # an option the chosen detector does not read, as a flag or a config key
        ("run", ("--algo", "array", "--hh-fraction", "0.3")),
        ("run", ("--algo", "array", "--filter-by-prefix")),
        ("run", ("--d", "9")),
        ("run", ("--algo", "array", "--r-hh", "0.1")),
        ("sweep", ("--algo", "array", "--min-report-packets", "4")),
        ("run", ("--algo", "hh", "--T", "0.001")),
        ("sweep", ("--algo", "hh", "--C", "8")),
        ("run", ("--algo", "hh", "--R", "2")),
        ("run", ("--algo", "hh", "--report-all")),
        ("run", ("--algo", "hh", "--hh-fraction", "0.3")),
        ("run", ("--algo", "array", "--config", str(hybrid_config))),
        ("sweep", ("--algo", "hh", "--config", str(hybrid_config))),
    ):
        for trace in (trace_path, tmp_path / "missing.csv"):
            code = run_cli(command, "--trace", str(trace), "--out", str(tmp_path / "o"), *flags)
            assert code == 1, (command, flags)
    # numpy's generators take no negative seed (run's hash seeds take any int)
    capsys.readouterr()
    out = str(tmp_path / "o")
    for argv, message in (
        (("generate", "--out", f"{out}/t.csv", "--seed", "-1"), "seed must be >= 0"),
        (("validate-lemma", "--out", out, "--seed", "-1"), "--seed must be >= 0"),
        (("analyze", "--trace", str(trace_path), "--out", out, "--pcc-seed", "-1"),
         "pcc_seed must be >= 0"),
    ):
        assert run_cli(*argv) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


class Built(Exception):
    """Carries the parameter object a command built, and stops the command."""


@pytest.mark.parametrize(
    "command,name,expected",
    [
        ("generate", "SynthConfig", SynthConfig()),
        ("analyze", "AnalysisParams", AnalysisParams()),
        ("run", "ExperimentSpec", ExperimentSpec()),
        ("sweep", "ExperimentSpec", ExperimentSpec()),
        (
            "grid-hybrid",
            "ExperimentSpec",
            ExperimentSpec(algorithm="hybrid", hh_fractions=GRID_HH_FRACTIONS),
        ),
    ],
)
def test_flag_less_commands_build_the_library_defaults(
    command: str, name: str, expected: object, monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    def build(**values: object) -> None:
        raise Built(type(expected)(**values))

    monkeypatch.setattr(cli, name, build)
    argv = [command, "--out", str(tmp_path / "o")]
    if command != "generate":
        argv += ["--trace", str(tmp_path / "missing.csv")]
    with pytest.raises(Built) as built:
        run_cli(*argv)
    assert built.value.args[0] == expected
    assert not (tmp_path / "o").exists()


def test_grid_hybrid_takes_no_algo(trace_path: Path, tmp_path: Path) -> None:
    for algo in ("bogus", "hybrid"):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                "grid-hybrid", "--trace", str(trace_path), "--out", str(tmp_path / "o"),
                "--algo", algo,
            )
        assert excinfo.value.code == 1
    config = tmp_path / "grid.conf"
    config.write_text("algo = hybrid\n")
    code = run_cli(
        "grid-hybrid", "--trace", str(trace_path), "--out", str(tmp_path / "o"),
        "--config", str(config),
    )
    assert code == 1
    assert not (tmp_path / "o").exists()


def test_data_error_exit_code(tmp_path: Path) -> None:
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,trace\n")
    code = run_cli("run", "--trace", str(bad), "--out", str(tmp_path / "o"))
    assert code == 2
    assert run_cli("run", "--trace", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")) == 2


def test_generate_creates_the_sidecar_directory(tmp_path: Path) -> None:
    trace, sidecar = tmp_path / "t.csv", tmp_path / "truth" / "s.csv"
    assert run_cli(
        "generate", "--out", str(trace), "--sidecar", str(sidecar),
        "--prefixes", "4", "--duration", "0.1",
    ) == 0
    assert trace.read_text().startswith(TRACE_HEADER + "\n")
    assert sidecar.read_text().startswith("flow_key,injected_displacements\n")


def test_generate_sidecar_that_cannot_be_opened_writes_no_trace(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    (tmp_path / "s.csv").mkdir()
    code = run_cli(
        "generate", "--out", str(tmp_path / "t.csv"), "--sidecar", str(tmp_path / "s.csv"),
        "--prefixes", "4", "--duration", "0.1",
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--trace", "{trace}", "--out", "{file}", "--buckets", "16", "--seeds", "0"),
        ("grid-hybrid", "--trace", "{trace}", "--out", "{file}", "--buckets", "16",
         "--hh-fraction", "0.5", "--seeds", "0"),
        ("analyze", "--trace", "{trace}", "--out", "{file}/sub", "--pcc-reps", "2"),
        ("generate", "--out", "{file}/t.csv", "--prefixes", "4", "--duration", "0.1"),
        ("validate-lemma", "--preset", "two-equal-flows", "--trials", "3", "--out", "{file}"),
    ],
    ids=lambda argv: argv[0],
)
def test_output_that_cannot_be_created_is_data_error(
    argv: tuple[str, ...], trace_path: Path, tmp_path: Path, capsys: pytest.CaptureFixture,
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # an existing file where the output directory should go
    blocker = tmp_path / "file"
    blocker.write_text("")
    calls = []
    for name in ("run_experiment", "grid_search_hybrid", "analyze_trace", "empirical_guarantee",
                 "generate_synthetic_arrays"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    code = run_cli(*(arg.format(trace=trace_path, file=blocker) for arg in argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert blocker.read_text() == ""
    assert calls == []  # the output is made before any work is done


@pytest.mark.parametrize(
    "src,dst,message",
    [
        ("10.0.01.1", "10.0.1.1", "octet with a leading zero in '10.0.01.1'"),
        ("10.0.0.256", "10.0.1.1", "octet out of range in '10.0.0.256'"),
        ("10.0.0.1.5", "10.0.1.1", "not a dotted-quad address: '10.0.0.1.5'"),
        ("10..0.1", "10.0.1.1", "invalid literal for int() with base 10: ''"),
        ("10.0.0.1", "10.0.1.", "invalid literal for int() with base 10: ''"),
        ("10.0.0.1", "100.100.100.1001", "octet out of range in '100.100.100.1001'"),
    ],
)
def test_malformed_address_is_data_error_naming_its_line(
    src: str, dst: str, message: str, tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    # leading zero, 256, five octets, empty octet, trailing dot, 16 characters
    trace = tmp_path / "bad.csv"
    trace.write_text(
        f"{TRACE_HEADER}\n0.1,10.0.0.1,10.0.1.1,443,50000,900,100\n"
        f"0.2,{src},{dst},443,50000,1000,100\n"
    )
    code = run_cli("run", "--trace", str(trace), "--out", str(tmp_path / "o"))
    assert (code, capsys.readouterr().err) == (2, f"error: line 3: {message}\n")


def test_config_file_supplies_defaults_and_flags_override(
    trace_path: Path, tmp_path: Path
) -> None:
    config = tmp_path / "exp.conf"
    config.write_text("buckets = 8\nseeds = 0\nalgo = array\n# comment\n")
    out1 = tmp_path / "from-config"
    assert run_cli(
        "run", "--trace", str(trace_path), "--out", str(out1), "--config", str(config)
    ) == 0
    rows = (out1 / "results.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[2] == "8"

    out2 = tmp_path / "flag-wins"
    assert run_cli(
        "run", "--trace", str(trace_path), "--out", str(out2),
        "--config", str(config), "--buckets", "4",
    ) == 0
    assert (out2 / "results.csv").read_text().splitlines()[1].split(",")[2] == "4"


def test_unknown_config_key_is_usage_error(trace_path: Path, tmp_path: Path) -> None:
    config = tmp_path / "bad.conf"
    config.write_text("bogus-key = 1\n")
    code = run_cli(
        "run", "--trace", str(trace_path), "--out", str(tmp_path / "o"),
        "--config", str(config),
    )
    assert code == 1


def test_validate_lemma_vacuous_bound_is_skipped_with_notice(
    tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    model = {
        "flow_probs": [1.0],
        "flow_prefix": [0],
        "prefix_bucket": [0],
        "bucket": 0,
        "target_prefix": 0,
        "p_min": 0.0,  # first failure term degenerates to 1: vacuous bound
        "packets_per_check": 4,
        "stream_length": 100,
        "epsilon": 0.5,
        "delta": 0.5,
    }
    path = tmp_path / "vacuous.json"
    path.write_text(json.dumps(model))
    assert run_cli("validate-lemma", "--model", str(path), "--trials", "10") == 0
    assert "SKIPPED" in capsys.readouterr().out


def test_run_def2_end_to_end(trace_path: Path, tmp_path: Path) -> None:
    out = tmp_path / "def2"
    assert run_cli(
        "run", "--trace", str(trace_path), "--out", str(out),
        "--algo", "array", "--def", "2", "--buckets", "16", "--seeds", "0",
    ) == 0
    row = (out / "results.csv").read_text().splitlines()[1]
    assert row.split(",")[1] == "2"


RESULT_HEADER = (
    "algorithm,def,buckets,hh_fraction,seed,mode,report_all,accuracy,false_positive_rate,"
    "communication_overhead,report_count,output_size,truth_size\n"
)


def test_result_files_text(tmp_path: Path) -> None:
    """The exact text of ``results.csv``, ``best_x.csv`` and
    ``check_guarantee.csv`` on a small generated trace: an empty
    ``hh_fraction`` outside the hybrid, ``report_all`` and the lemma's
    ``vacuous``/``holds`` as 0/1, and a grid whose two splits tie."""
    trace = str(tmp_path / "t.csv")
    assert run_cli(
        "generate", "--out", trace, "--prefixes", "12", "--duration", "0.3",
        "--bad-fraction", "0.5", "--bad-prob", "0.1", "--seed", "3",
    ) == 0
    small = ("--alpha", "4", "--beta", "16")

    def text(*parts: str) -> str:
        return (tmp_path.joinpath(*parts)).read_text()

    assert run_cli(
        "run", "--trace", trace, "--out", str(tmp_path / "arr"), "--algo", "array",
        "--buckets", "4,16", "--seeds", "0,1", *small,
    ) == 0
    assert text("arr", "results.csv") == RESULT_HEADER + (
        "array,1,4,,0,count,0,0.5,0.0,0.012567324955116697,14,2,4\n"
        "array,1,4,,1,count,0,0.75,0.0,0.013464991023339317,15,3,4\n"
        "array,1,16,,0,count,0,0.75,0.0,0.013464991023339317,15,3,4\n"
        "array,1,16,,1,count,0,1.0,0.0,0.01526032315978456,17,4,4\n"
    )

    assert run_cli(
        "run", "--trace", trace, "--out", str(tmp_path / "all"), "--algo", "array",
        "--buckets", "8", "--seeds", "0", "--report-all", "--mode", "fraction", *small,
    ) == 0
    assert text("all", "results.csv") == RESULT_HEADER + (
        "array,1,8,,0,fraction,1,1.0,0.0,0.10323159784560143,115,4,4\n"
    )

    assert run_cli(
        "grid-hybrid", "--trace", trace, "--out", str(tmp_path / "grid"), "--buckets", "16",
        "--hh-fraction", "0.25,0.75", "--seeds", "0,1", *small,
    ) == 0
    assert text("grid", "results.csv") == RESULT_HEADER + (
        "hybrid,1,16,0.25,0,count,0,0.5,0.0,0.004488330341113106,5,2,4\n"
        "hybrid,1,16,0.25,1,count,0,1.0,0.0,0.0062836624775583485,7,4,4\n"
        "hybrid,1,16,0.75,0,count,0,0.75,0.0,0.00718132854578097,8,3,4\n"
        "hybrid,1,16,0.75,1,count,0,0.75,0.0,0.0062836624775583485,7,3,4\n"
    )
    # both splits reach a mean accuracy of 0.75: the tie goes to the smaller
    assert text("grid", "best_x.csv") == "buckets,best_hh_fraction,mean_accuracy\n16,0.25,0.75\n"

    assert run_cli(
        "validate-lemma", "--preset", "two-equal-flows", "--trials", "20",
        "--out", str(tmp_path / "lemma"),
    ) == 0
    assert text("lemma", "check_guarantee.csv") == (
        "name,trials,threshold_checks,mean_checks,success_fraction,failure_bound,vacuous,holds\n"
        "two-equal-flows,20,100.0,237.4,1.0,1.6511037634633316e-11,0,1\n"
    )
