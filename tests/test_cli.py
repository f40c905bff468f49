import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import cayleycodes
from cayleycodes import cli, cyclic, quaternion, spectra, tanner

from gf2_reference import csr


def test_bch_writes_code_and_table(tmp_path, capsys):
    out = tmp_path / "c.code"
    assert cli.main(["bch", "--m", "4", "--r", "2", "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "n=15 k=11" in printed and "d_lower=3" in printed
    code = cyclic.load_code(out)
    assert (code.n, code.dim) == (15, 11)


def test_bch_rate_target(tmp_path, capsys):
    assert cli.main(["bch", "--m", "11", "--a", "8"]) == 0
    printed = capsys.readouterr().out
    assert "r = floor((n/m)(1 - 2/a)) = 139" in printed
    assert "k=1343" in printed and "d_lower=140" in printed


def test_bch_builds_the_code_once(tmp_path, monkeypatch, capsys):
    """One bch command, one cyclic.bch_code call: the printed
    parameters are read off the code it writes."""
    calls, original = [], cyclic.bch_code

    def bch_code(m, r):
        calls.append((m, r))
        return original(m, r)

    monkeypatch.setattr(cyclic, "bch_code", bch_code)
    out = tmp_path / "bch11.code"
    assert cli.main(["bch", "--m", "11", "--a", "8", "-o", str(out)]) == 0
    assert calls == [(11, 139)]
    assert "BCH(m=11, r=139): n=2047 k=1343" in capsys.readouterr().out
    assert cyclic.load_code(out).dim == 1343


def test_bch_parameter_errors(capsys):
    assert cli.main(["bch", "--m", "4", "--r", "20"]) == 2
    assert cli.main(["bch", "--m", "4"]) == 2           # neither --r nor --a
    assert cli.main(["bch", "--m", "4", "--r", "1", "--a", "8"]) == 2


def test_double(tmp_path, capsys):
    base = tmp_path / "c.code"
    doubled = tmp_path / "d.code"
    cli.main(["bch", "--m", "4", "--r", "2", "-o", str(base)])
    assert cli.main(["double", str(base), "-o", str(doubled)]) == 0
    code = cyclic.load_code(doubled)
    assert (code.n, code.dim) == (30, 22)
    assert code.rate == Fraction(11, 15)
    # even-length input rejected
    assert cli.main(["double", str(doubled), "-o", str(tmp_path / "x.code")]) == 2
    err = capsys.readouterr().err
    assert "odd" in err


def test_double_missing_file():
    assert cli.main(["double", "/does/not/exist"]) == 2


def test_graph_small_q_rejected(capsys):
    assert cli.main(["graph", "--q", "5", "--e", "1"]) == 2
    assert "17" in capsys.readouterr().err


def test_explicit_ybar_below_the_classification_bound(tmp_path, capsys):
    """q = 17 with an explicit ybar passes the scan's own bound check;
    graph and build both refuse it with exit 2."""
    assert cli.main(["graph", "--q", "17", "--ybar", "3"]) == 2
    assert "q^e must exceed 17" in capsys.readouterr().err
    inner = tmp_path / "inner18.code"
    inner.write_text("18 16\n7\n")
    assert cli.main(["build", "--q", "17", "--ybar", "3", "--inner", str(inner),
                     "--out", str(tmp_path / "out")]) == 2
    assert "q^e must exceed 17" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_graph_q19_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.edges"
    out2 = tmp_path / "b.edges"
    assert cli.main(["graph", "--q", "19", "--variant", "psl", "-o", str(out1)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["graph", "--q", "19", "--variant", "psl", "-o", str(out2)]) == 0
    second = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()

    def stable(text):  # drop the line naming the output file
        return [ln for ln in text.splitlines() if not ln.startswith("wrote")]

    assert stable(first) == stable(second)
    assert "|V|=3420" in first and "ramanujan: pass" in first


def test_graph_explicit_parameters(capsys):
    assert cli.main(["graph", "--q", "19", "--variant", "pgl",
                     "--ybar", "1", "--delta", "2"]) == 0
    printed = capsys.readouterr().out
    assert "pgl" in printed and "bipartite=True" in printed
    assert "spectrum (gelfand-graev)" in printed


def test_graph_over_the_memory_limit_fails_fast(monkeypatch, capsys):
    """q = 109 would need a 2.3 GB spectrum matrix: exit 2 before the
    generators or the closure are built."""
    def forbidden(*args, **kwargs):
        raise AssertionError("graph kept working past the memory guard")

    monkeypatch.setattr(quaternion, "choose_ideal", forbidden)
    monkeypatch.setattr(quaternion, "build_generators", forbidden)
    assert cli.main(["graph", "--q", "109"]) == 2
    assert "above the 256 MB limit" in capsys.readouterr().err
    assert cli.main(["graph", "--q", "19", "--mode", "dense"]) == 2   # the flag is gone


def test_graph_bad_delta(capsys):
    assert cli.main(["graph", "--q", "19", "--delta", "4"]) == 2  # 4 is a square


def test_build_requires_arguments(capsys):
    assert cli.main(["build", "--q", "19"]) == 2
    assert cli.main(["build", "--q", "19", "--inner", "/none", "--out", "/tmp/x"]) == 2


def test_build_inner_length_mismatch(tmp_path, capsys):
    inner = tmp_path / "inner.code"
    cyclic.save_code(cyclic.bch_code(4, 2), inner)  # length 15 != 20
    assert cli.main(["build", "--q", "19", "--inner", str(inner),
                     "--out", str(tmp_path / "out")]) == 2
    assert "q + 1" in capsys.readouterr().err


def test_paper_instance(capsys):
    assert cli.main(["build", "--paper-instance"]) == 0
    printed = capsys.readouterr().out
    assert "rate threshold 1/2 + 1/a = 5/8: pass" in printed
    assert "distance threshold" in printed and "pass" in printed
    assert "not instantiated" in printed


LAYER_PROBE = """
import json, sys
from cayleycodes import cli
def loaded():
    return sorted({'numpy', 'numpy.ma', 'scipy'} & set(sys.modules))
seen = [loaded()]
for argv in json.loads(sys.argv[1]):
    seen.append([cli.main(argv), loaded()])
print(json.dumps(seen))
"""


def _layers_loaded(cwd, *commands):
    """In a fresh interpreter, which of numpy, numpy.ma and scipy are
    loaded after `import cayleycodes.cli`, then [exit code, loaded] after
    each cli.main(argv) in turn."""
    env = dict(os.environ, PYTHONPATH=str(Path(cayleycodes.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", LAYER_PROBE, json.dumps(commands)],
                         cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    """The command line never imports scipy, which serves the tests, and
    imports numpy only once graph, build or verify starts work: importing
    it, the inner-code commands and a verify of a missing directory
    load neither, and a build loads numpy but not numpy.ma, which
    np.unique without return_index and np.isin on repeated values
    import (1.3 MB)."""
    assert _layers_loaded(tmp_path, ["bch", "--m", "11", "--a", "8", "-o", "bch11.code"],
                          ["double", "bch11.code"], ["build", "--paper-instance"],
                          ["verify", "no_such_dir"]) == [[], [0, []], [0, []], [0, []], [2, []]]
    (tmp_path / "inner6.code").write_text("6 4\n7\n")
    assert _layers_loaded(tmp_path, ["build", "--q", "5", "--e", "2", "--inner", "inner6.code",
                                     "--out", "q5e2"]) == [[], [0, ["numpy"]]]


def test_package_exports_resolve_lazily():
    """Every name of cayleycodes.__all__ is its defining module's object
    (a submodule name, the submodule); other names raise AttributeError,
    so that `from cayleycodes import cli` imports the submodule."""
    for name in cayleycodes.__all__:
        obj = getattr(cayleycodes, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"cayleycodes.{name}")
        else:
            assert obj.__module__.startswith("cayleycodes.")
            assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert cayleycodes.ramanujan_bound is cyclic.ramanujan_bound is spectra.ramanujan_bound
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cayleycodes.no_such_name


def test_unknown_command():
    assert cli.main(["frobnicate"]) == 2


PRISTINE_VERIFY_STDOUT = [
    "graph_shape: pass", "edge_list: pass", "ramanujan: pass", "spectrum_matches: pass",
    "alist_exact: pass", "rank_matches: pass", "rate_bound: pass", "invariance: pass",
    "all checks passed",
]


def test_tampered_verify_fails_before_elimination(tmp_path, monkeypatch, capsys):
    """A code.alist that differs from the rebuilt H fails verify with
    the row named, before the spectrum, any elimination or the invariance
    certificate runs; the pristine directory prints every check in order."""
    from cayleycodes import alist, gf2

    inner = tmp_path / "inner6.code"
    inner.write_text("6 4\n7\n")
    out = tmp_path / "q5e2"
    assert cli.main(["build", "--q", "5", "--e", "2", "--inner", str(inner),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == PRISTINE_VERIFY_STDOUT

    n, _, rows = alist.read_alist(out / "code.alist")
    rows[100][0] = next(c for c in range(n) if c not in rows[100])
    rows[100].sort()
    (out / "code.alist").write_bytes(alist.dumps_alist(*csr(rows), n))

    def forbidden(*args, **kwargs):
        raise AssertionError("verify kept working after the alist mismatch")

    monkeypatch.setattr(spectra, "spectrum", forbidden)
    monkeypatch.setattr(tanner, "verify_invariance", forbidden)
    monkeypatch.setattr(gf2.Gf2Matrix, "echelon", forbidden)
    assert cli.main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert "code.alist: row 100 differs" in captured.err
    assert "alist_exact: FAIL" in captured.out
    for skipped in ("ramanujan:", "spectrum_matches:", "rank_matches", "invariance"):
        assert skipped not in captured.out


def test_trials_flags_are_gone(tmp_path, capsys):
    """Invariance is proven on every row, so neither build nor verify
    takes a sample size any more, and the distance guarantee is the
    expansion bound, so build runs no sampled distance search; the old
    flags are usage errors."""
    inner = tmp_path / "inner6.code"
    inner.write_text("6 4\n7\n")
    assert cli.main(["build", "--q", "5", "--e", "2", "--inner", str(inner),
                     "--out", str(tmp_path / "out"), "--trials", "5"]) == 2
    assert cli.main(["verify", str(tmp_path), "--trials", "5"]) == 2
    assert "unrecognized arguments: --trials 5" in capsys.readouterr().err
    assert cli.main(["build", "--q", "5", "--e", "2", "--inner", str(inner),
                     "--out", str(tmp_path / "out"), "--distance-trials", "1"]) == 2
    assert "unrecognized arguments: --distance-trials 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def q5e2_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("q5e2") / "out"
    inner = out.parent / "inner6.code"
    inner.write_text("6 4\n7\n")
    assert cli.main(["build", "--q", "5", "--e", "2", "--inner", str(inner),
                     "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("mutate,named", [
    (lambda r: r["params"].pop("ybar"), "'params.ybar' is missing"),
    (lambda r: r.pop("distance"), "section 'distance' is missing"),
    (lambda r: r["params"].update(delta="2"), "'params.delta' has an ill-typed value"),
    (lambda r: r["graph"].update(bipartite=0), "'graph.bipartite' has an ill-typed value"),
])
def test_verify_malformed_report_exits_2(q5e2_dir, tmp_path, capsys, mutate, named):
    """A report.json with a missing or ill-typed entry is an input error
    (exit 2) that names the key, not a failed check (exit 1)."""
    bad = tmp_path / "bad"
    shutil.copytree(q5e2_dir, bad)
    report = json.loads((bad / "report.json").read_text())
    mutate(report)
    (bad / "report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert cli.main(["verify", str(bad)]) == 2
    assert named in capsys.readouterr().err


def test_build_and_verify_never_pack_h(tmp_path, monkeypatch, capsys, packed):
    """rank(H) comes from star elimination, and the [20,16] residual
    from its components: a pristine build and a pristine verify pack no
    matrix at all and keep none on the instance."""
    inner = tmp_path / "inner20.code"
    inner.write_text("20 16\n11\n")
    out = tmp_path / "q19"
    instances, original = [], tanner.build_parity_check

    def build_parity_check(*args):
        instances.append(original(*args))
        return instances[-1]

    assert cli.main(["build", "--q", "19", "--inner", str(inner), "--out", str(out)]) == 0
    # only the instance verify builds: run_verification calls it too
    monkeypatch.setattr(tanner, "build_parity_check", build_parity_check)
    assert cli.main(["verify", str(out)]) == 0
    assert "rank_matches: pass" in capsys.readouterr().out
    (verified,) = instances
    assert "matrix" not in verified.__dict__ and verified.rank == 13566
    assert packed == []


@pytest.mark.parametrize("name,group,inner", [
    ("q5e2_psl_6_4", ["--q", "5", "--e", "2"], "6 4\n7\n"),
    ("q19_psl_20_16", ["--q", "19"], "20 16\n11\n"),
])
def test_build_matches_the_benchmark_digests(tmp_path, name, group, inner):
    """code.alist, graph.edges and inner.code of the benchmark's two
    builds, byte for byte, and their rank and rate, from the benchmark's
    own command line: --seed is only recorded as params.seed."""
    expected = json.loads((Path(__file__).parents[1] / "benchmarks" / "expected.json").read_text())
    want = expected["instances"][name]
    (tmp_path / "inner.code").write_text(inner)
    out = tmp_path / name
    assert cli.main(["build", *group, "--variant", "psl", "--inner", str(tmp_path / "inner.code"),
                     "--out", str(out), "--seed", "3"]) == 0
    for file, digest in want["files"].items():
        assert hashlib.sha256((out / file).read_bytes()).hexdigest() == digest, file
    report = json.loads((out / "report.json").read_text())
    assert {key: report["bounds"][key] for key in want["report"]} == want["report"]
    assert report["params"]["seed"] == 3 and report["distance"] == {"mode": "skipped"}
