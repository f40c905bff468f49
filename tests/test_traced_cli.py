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


def test_traced_q5e2_build_records_the_rank_path(tmp_path):
    """A traced build on q = 5, e = 2 with [6,4]: the residual that
    contraction leaves is eliminated, so the echelon span is recorded
    beside assembly and the single-orbit check."""
    (tmp_path / "inner6.code").write_text("6 4\n7\n")
    names = traced_spans(tmp_path, "build", "--q", "5", "--e", "2",
                         "--inner", "inner6.code", "--out", "q5e2")
    assert {"cli.build", "gf2.echelon", "tanner.assemble", "tanner.single_orbit"} <= names
