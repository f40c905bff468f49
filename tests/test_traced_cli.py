"""The benchmark's tracer still finds every function it wraps: a traced
command exits 0 and records the spans of the layers it ran.  A rename
or deletion of a traced function without the matching edit of
benchmarks/traced_cli.py fails here, before the benchmark runs.  So
does a traced build whose layer spans cover less of it than the
benchmark's floor, which the benchmark reports as an incorrect run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "benchmarks" / "traced_cli.py"
sys.path.insert(0, str(ROOT / "benchmarks"))

import spans  # noqa: E402
from run import INNER_Q5E2, INNER_Q19, MIN_BUILD_COVERAGE  # noqa: E402


def traced_run(tmp_path, *argv) -> list[dict]:
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(TRACED_CLI), str(out), "--", *argv],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    payload = json.loads(out.read_text())
    assert payload["exit"] == 0
    return payload["spans"]


def traced_spans(tmp_path, *argv) -> set[str]:
    return {span["name"] for span in traced_run(tmp_path, *argv)}


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
    beside assembly and the single-orbit check; and it runs inside a
    layer span, so the rank is never time that no layer accounts for."""
    (tmp_path / "inner6.code").write_text(INNER_Q5E2)
    sp = traced_run(tmp_path, "build", "--q", "5", "--e", "2",
                    "--inner", "inner6.code", "--out", "q5e2")
    names = {span["name"] for span in sp}
    assert {"cli.build", "gf2.echelon", "tanner.assemble", "tanner.single_orbit"} <= names
    for span in sp:
        if span["name"] == "gf2.echelon":
            assert span["parent"] >= 0
            assert sp[span["parent"]]["name"] == "tanner.single_orbit"


def test_traced_q19_build_covers_the_benchmark_floor(tmp_path):
    """The traced q = 19 PSL [20,16] build of the benchmark: the layer
    spans directly under cli.build cover at least MIN_BUILD_COVERAGE of
    it, the floor below which the benchmark's trace run is incorrect."""
    (tmp_path / "inner20.code").write_text(INNER_Q19)
    sp = traced_run(tmp_path, "build", "--q", "19", "--variant", "psl",
                    "--inner", "inner20.code", "--out", "q19")
    builds = [i for i, span in enumerate(sp) if span["name"] == "cli.build"]
    assert len(builds) == 1
    assert spans.coverage(sp, builds[0]) >= MIN_BUILD_COVERAGE
