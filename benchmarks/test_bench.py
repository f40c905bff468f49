"""Tests of the benchmark's own machinery (not of cayleycodes).

    python3 -m pytest benchmarks/test_bench.py

Run from the root of the checkout: the gate tests start real CLI
commands from ./src.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _random_alist(seed: int, nrows: int = 12, ncols: int = 20) -> str:
    rng = random.Random(seed)
    rows = [rng.sample(range(ncols), rng.randint(1, 6)) for _ in range(nrows)]
    return gate.dump_alist(ncols, rows)


@pytest.mark.parametrize("seed", range(20))
def test_tamper_flips_exactly_one_entry(seed):
    pristine = _random_alist(seed)
    tampered, (r, c) = gate.tamper(pristine, seed)
    assert gate.entries(pristine) ^ gate.entries(tampered) == {(r, c)}
    # the column section agrees with the row section after the flip
    ncols, rows = gate.parse_alist_rows(tampered)
    assert gate.dump_alist(ncols, rows) == tampered
    assert gate.tamper(pristine, seed) == (tampered, (r, c))


def test_tamper_refuses_a_non_canonical_alist():
    with pytest.raises(ValueError):
        gate.tamper(_random_alist(0).replace("\n", " \n", 1), 0)


def test_tampered_copy_differs_in_one_entry(tmp_path):
    src, dst = tmp_path / "src", tmp_path / "dst"
    src.mkdir()
    for name in ("report.json", "graph.edges", "inner.code"):
        (src / name).write_text(name)
    (src / "code.alist").write_text(_random_alist(5))
    flipped = gate.write_tampered_copy(src, dst, seed=7)
    diff = gate.entries((src / "code.alist").read_text()) ^ gate.entries(
        (dst / "code.alist").read_text())
    assert diff == {flipped}
    assert (dst / "graph.edges").read_text() == "graph.edges"


def test_gate_flags_wrong_exit_and_digest(tmp_path):
    path = tmp_path / "f"
    path.write_text("x")
    assert gate.check_exit(0, 0) == []
    assert gate.check_exit(1, 0) and gate.check_exit(0, 2)
    assert gate.check_digests({"f": path}, {"f": gate.sha256(path)}) == []
    assert gate.check_digests({"f": path}, {"f": "0" * 64})
    assert gate.check_digests({}, {"f": gate.sha256(path)})


def test_wrong_digest_or_exit_counts_as_failed_command(tmp_path):
    if not (run.SRC / "cayleycodes" / "cli.py").is_file():
        pytest.skip("run from the root of the checkout")
    out = tmp_path / "bch.code"
    argv = ["bch", "--m", "4", "--r", "1", "-o", str(out)]
    deadline = run.time.perf_counter() + 60
    ok = run.run_step(run.Step("inner", argv), tmp_path, 0, False, deadline)
    assert ok.errors == [] and ok.wall > 0 and ok.rss_mb > 0
    bad_digest = run.Step("inner", argv, check=run._digest_check(out, "0" * 64))
    assert run.run_step(bad_digest, tmp_path, 1, False, deadline).errors
    bad_exit = run.Step("inner", argv, exit=1)
    assert run.run_step(bad_exit, tmp_path, 2, False, deadline).errors


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "rss0": 0.0, "rss1": 0.0, "counts": None}


def test_self_time_subtracts_nested_spans():
    sp = [_span("root", 0.0, 10.0, -1),
          _span("a", 1.0, 3.0, 0),
          _span("b", 4.0, 8.0, 0),
          _span("b.inner", 5.0, 6.0, 2)]
    assert spans.self_times(sp) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert spans.coverage(sp, 0) == pytest.approx(0.6)


def test_tracer_records_parents_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrapper("inner", lambda x: x * 2, lambda r, x: {"out": r})
    outer = tracer.wrapper("outer", lambda x: inner(x) + 1)
    assert outer(3) == 7
    recs = tracer.to_json()
    assert [r["name"] for r in recs] == ["outer", "inner"]
    assert recs[0]["parent"] == -1 and recs[1]["parent"] == 0
    assert recs[1]["counts"] == {"out": 6}
    assert spans.self_times(recs)[0] <= recs[0]["end"] - recs[0]["start"]


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(20)])
    assert value == 9.0 and pct == pytest.approx(50.0)


def test_reported_metrics_match_benchmark_json(tmp_path, monkeypatch):
    spec = run.json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "source_digest", lambda: "0" * 64)
    untraced = run.Pass(False, [run.Result("build", 2.0, 100.0, [])])
    traced = run.Pass(True, [run.Result("build", 2.1, 100.0, [], {"spans": []})])
    layer, sanity = run.per_layer_metrics("w", 1, [untraced], [traced])
    assert sanity == []
    e2e = run.end_to_end_metrics([untraced], [0.4, 0.5, 0.45])
    for metrics, section in ((e2e, "end_to_end"), (layer, "per_layer")):
        assert {name: m["unit"] for name, m in metrics.items()} == {
            m["name"]: m["unit"] for m in spec[section]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
