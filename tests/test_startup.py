"""Start-up cost of the ``reordermon`` command: argv is parsed before numpy
is imported, and each subcommand imports only the modules it runs.

Each case runs the CLI as ``python -m reordermon.cli`` does, in a fresh
interpreter, and reads ``sys.modules`` when it exits; ``-X importtime``
would miss the modules loaded through ``importlib.import_module``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reordermon

SRC = str(Path(reordermon.__file__).resolve().parent.parent)

CHILD = """
import json, runpy, sys
sys.argv = ["reordermon", *json.loads(sys.argv[1])]
code = 0
try:
    runpy.run_module("reordermon.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

DETECTORS = {"reordermon.sampling", "reordermon.heavyhitter", "reordermon.hybrid"}
TRACE_LAYERS = {"reordermon.harness", "reordermon.traceio", "reordermon.oracle"}


def run_cli(*argv: str) -> tuple[int, set[str]]:
    """Exit code and loaded modules of one CLI run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    return result["code"], set(result["modules"])


@pytest.mark.parametrize(
    "argv,code",
    [
        (("--help",), 0),
        (("validate-lemma", "--help"), 0),
        (("run", "--trace", "t.csv"), 1),  # argparse usage error: --out missing
        (("run", "--trace", "t.csv", "--mode", "fraction"), 1),
    ],
)
def test_help_and_usage_errors_load_no_numpy(argv: tuple[str, ...], code: int) -> None:
    got, modules = run_cli(*argv)
    assert got == code
    assert "numpy" not in modules
    # the parameter types are imported only by the command that builds them
    assert not modules & {"dataclasses", "reordermon.model", "reordermon.controlplane"}


def test_validate_lemma_loads_no_trace_or_detector_module() -> None:
    code, modules = run_cli("validate-lemma", "--preset", "two-equal-flows", "--trials", "3")
    assert code == 0
    assert "reordermon.checkmodel" in modules
    assert not modules & (TRACE_LAYERS | DETECTORS)


def test_trace_commands_load_only_what_they_run(tmp_path: Path) -> None:
    trace = str(tmp_path / "trace.csv")
    code, modules = run_cli(
        "generate", "--out", trace, "--prefixes", "16", "--duration", "0.5",
        "--bad-fraction", "0.5", "--seed", "3",
    )
    assert code == 0
    assert "reordermon.traceio" in modules
    assert not modules & ({"reordermon.harness", "reordermon.oracle", "reordermon.checkmodel"} | DETECTORS)
    assert "numpy.ma" not in modules

    code, modules = run_cli(
        "analyze", "--trace", trace, "--out", str(tmp_path / "an"), "--pcc-reps", "3"
    )
    assert code == 0
    assert "reordermon.oracle" in modules
    assert not modules & (DETECTORS | {"reordermon.checkmodel"})
    assert "numpy.ma" not in modules

    code, modules = run_cli(
        "run", "--trace", trace, "--out", str(tmp_path / "run"), "--algo", "array",
        "--buckets", "32", "--seeds", "0",
    )
    assert code == 0
    assert "reordermon.sampling" in modules
    assert not modules & {"reordermon.heavyhitter", "reordermon.hybrid", "reordermon.checkmodel"}
    assert "numpy.ma" not in modules

    code, modules = run_cli(
        "grid-hybrid", "--trace", trace, "--out", str(tmp_path / "grid"), "--buckets", "32",
        "--hh-fraction", "0.5", "--seeds", "0",
    )
    assert code == 0
    assert DETECTORS <= modules
    assert not modules & {"reordermon.checkmodel", "numpy.ma"}


def test_every_public_name_resolves() -> None:
    for name in reordermon.__all__:
        assert getattr(reordermon, name) is not None
    assert set(reordermon.__all__) <= set(dir(reordermon))
    assert not hasattr(reordermon, "no_such_name")
