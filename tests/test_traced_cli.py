"""The benchmark's tracer still finds every function it wraps: a traced
command exits 0 and records the spans of the layers it ran.  A rename
or deletion of a traced function without the matching edit of
benchmarks/traced_cli.py fails here, before the benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "benchmarks" / "traced_cli.py"


def traced_spans(tmp_path, *argv):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(TRACED_CLI), str(out), "--", *argv],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    payload = json.loads(out.read_text())
    assert payload["exit"] == 0
    return {span["name"] for span in payload["spans"]}


@pytest.mark.parametrize("argv,span", [
    (["bch", "--m", "4", "--r", "2"], "cyclic.bch_code"),
    (["graph", "--q", "19"], "quaternion.generators"),
])
def test_traced_command_records_its_layers(tmp_path, argv, span):
    names = traced_spans(tmp_path, *argv)
    assert span in names and f"cli.{argv[0]}" in names
