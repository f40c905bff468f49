"""End-to-end and per-layer benchmark of the cayleycodes CLI.

    python3 benchmarks/run.py --workload edge_code_q19 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each CLI command runs as a
fresh subprocess, one at a time (a closed loop with a single client),
with BLAS limited to nproc threads.  A pass runs the workload's
commands once; passes repeat while the next one is predicted to end
inside --seconds, and at least one pass runs.  Every command is checked
by gate.py.

--trace 0 reports the end-to-end metrics: pass_s (median wall time of
one pass), peak_rss_mb (highest peak RSS of any command, from wait4)
and setup_s (median wall time of a fresh `import cayleycodes.cli`,
sampled at the start and again after every command, so that a burst of
load on the machine cannot shift every sample).
--trace 1 alternates the untraced first command of the workload with
passes whose commands run through traced_cli.py, and reports the
per-layer metrics of the traced passes plus the tracing overhead on
that first command.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every sample and the machine
description also go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HARD_LIMIT_S = 170.0     # every child is killed past this point of the run
SETUP_REPEATS = 3        # at the start, and SETUP_AFTER_COMMAND after each command
SETUP_AFTER_COMMAND = 1
MIN_BUILD_COVERAGE = 0.95

INNER_Q19 = "20 16\n11\n"    # [20,16] cyclic code, generator (x+1)^4
INNER_Q5E2 = "6 4\n7\n"      # [6,4] cyclic code, generator x^2+x+1


@dataclass
class Step:
    kind: str                              # metric group of the command
    argv: list[str]                        # cayleycodes CLI arguments
    exit: int = 0                          # expected exit code
    check: Callable[[str], list[str]] = lambda out: []
    prepare: Callable[[], None] | None = None


@dataclass
class Result:
    kind: str
    wall: float
    rss_mb: float
    errors: list[str]
    trace: dict | None = None


@dataclass
class Pass:
    traced: bool
    results: list[Result] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.results)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def expected() -> dict:
    """Digests and report fields recorded when the benchmark was added."""
    return json.loads((HERE / "expected.json").read_text())


def _instance_check(out: Path, instance: str) -> Callable[[str], list[str]]:
    want = expected()["instances"][instance]

    def check(stdout: str) -> list[str]:
        files = {name: out / name for name in gate.DIGESTED_FILES}
        return (gate.check_digests(files, want["files"])
                + gate.check_report(out / "report.json", want["report"]))
    return check


def _verified(stdout: str) -> list[str]:
    return gate.check_lines(stdout, ["ramanujan: pass", "all checks passed"])


def _digest_check(path: Path, digest: str) -> Callable[[str], list[str]]:
    return lambda stdout: gate.check_digests({path.name: path}, {path.name: digest})


def edge_code_q19(work: Path, seed: int) -> list[Step]:
    inner = work / "inner20.code"
    inner.write_text(INNER_Q19)
    out = work / "q19"
    bch, doubled = work / "bch11.code", work / "b4094.code"
    digests = expected()["inner"]
    return [
        Step("build", ["build", "--q", "19", "--variant", "psl", "--inner", str(inner),
                       "--out", str(out), "--seed", str(seed)],
             check=_instance_check(out, "q19_psl_20_16")),
        Step("verify", ["verify", str(out)], check=_verified),
        Step("inner", ["bch", "--m", "11", "--a", "8", "-o", str(bch)],
             check=_digest_check(bch, digests["bch11.code"])),
        Step("inner", ["double", str(bch), "-o", str(doubled)],
             check=_digest_check(doubled, digests["b4094.code"])),
        Step("inner", ["build", "--paper-instance"],
             check=lambda s: gate.check_text(s, digests["paper_instance.stdout"])),
    ]


def edge_code_q5e2(work: Path, seed: int) -> list[Step]:
    inner = work / "inner6.code"
    inner.write_text(INNER_Q5E2)
    out, bad = work / "q5e2", work / "q5e2_tampered"
    return [
        Step("build", ["build", "--q", "5", "--e", "2", "--variant", "psl",
                       "--inner", str(inner), "--out", str(out), "--seed", str(seed)],
             check=_instance_check(out, "q5e2_psl_6_4")),
        Step("verify", ["verify", str(out)], check=_verified),
        Step("reject", ["verify", str(bad)], exit=1,
             prepare=lambda: gate.write_tampered_copy(out, bad, seed)),
        Step("missing", ["verify", str(work / "no_such_dir")], exit=2),
    ]


WORKLOADS = {
    "edge_code_q19": edge_code_q19,
    "edge_code_q5e2": edge_code_q5e2,
}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_child(cmd: list[str], stdout: Path, deadline: float) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS MB) of one child, killed at
    the run's deadline."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_step(step: Step, work: Path, index: int, traced: bool, deadline: float) -> Result:
    label = f"{step.kind} {' '.join(step.argv)}"
    if step.prepare is not None:
        try:
            step.prepare()
        except (OSError, ValueError, AssertionError) as exc:
            return Result(step.kind, 0.0, 0.0, [f"{label}: preparing failed: {exc}"])
    stdout = work / f"cmd{index}.out"
    if traced:
        span_file = work / f"cmd{index}.spans.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_file), "--", *step.argv]
    else:
        cmd = [sys.executable, "-m", "cayleycodes.cli", *step.argv]
    code, wall, rss = run_child(cmd, stdout, deadline)
    errors = gate.check_exit(code, step.exit)
    if not errors:
        try:
            errors = step.check(stdout.read_text())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors = [f"output unreadable: {exc!r}"]
    trace = None
    if traced:
        trace = json.loads(span_file.read_text()) if span_file.exists() else None
        if trace is None:
            errors.append("traced command wrote no spans")
    return Result(step.kind, wall, rss, [f"{label}: {e}" for e in errors], trace)


def run_pass(workload: str, work: Path, seed: int, traced: bool, deadline: float,
             limit: int | None = None, setup: list[float] | None = None) -> Pass:
    """Run the workload's commands, or only the first `limit` of them;
    with a `setup` list, append set-up samples after each command."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    done = Pass(traced)
    for i, step in enumerate(WORKLOADS[workload](work, seed)[:limit]):
        done.results.append(run_step(step, work, i, traced, deadline))
        if setup is not None:
            setup += [setup_sample(work, deadline) for _ in range(SETUP_AFTER_COMMAND)]
    return done


def setup_sample(work: Path, deadline: float) -> float:
    """Wall time of one fresh `import cayleycodes.cli`."""
    cmd = [sys.executable, "-c", "import cayleycodes.cli"]
    code, wall, _ = run_child(cmd, work / "setup.out", deadline)
    if code != 0:
        raise RuntimeError("importing cayleycodes.cli failed")
    return wall


def measure_setup(deadline: float, work: Path) -> list[float]:
    """SETUP_REPEATS set-up samples, after one warm-up that fills the
    bytecode cache."""
    work.mkdir(parents=True, exist_ok=True)
    setup_sample(work, deadline)
    return [setup_sample(work, deadline) for _ in range(SETUP_REPEATS)]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, as
    (percentile, value), or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def kind_samples(passes: list[Pass]) -> dict[str, list[float]]:
    """Per command kind, the summed wall time of that kind in each pass."""
    out: dict[str, list[float]] = {}
    for p in passes:
        sums: dict[str, float] = {}
        for r in p.results:
            sums[r.kind] = sums.get(r.kind, 0.0) + r.wall
        for kind, total in sums.items():
            out.setdefault(kind, []).append(total)
    return out


RSS_SPANS = ("graphs.closure", "graphs.sym_perms", "spectra.spectrum", "tanner.assemble",
             "tanner.single_orbit", "gf2.echelon", "gf2.reduce_batch", "alist.dumps")


def layer_metrics(results: list[Result]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    total: dict[str, float] = {}
    self_: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    rss: dict[str, float] = {}
    for r in results:
        sp = r.trace["spans"]
        for s, st in zip(sp, spans.self_times(sp)):
            name = s["name"]
            total[name] = total.get(name, 0.0) + s["end"] - s["start"]
            self_[name] = self_.get(name, 0.0) + st
            calls[name] = calls.get(name, 0) + 1
            rss[name] = max(rss.get(name, 0.0), s["rss1"] - s["rss0"])
            for key, value in (s["counts"] or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    c = lambda key: counts.get(key, 0)  # noqa: E731
    rows, rank = c("gf2.echelon.rows"), c("gf2.echelon.rank")
    m = {
        "quaternion.generators_s": t("quaternion.generators"),
        "graphs.closure_s": t("graphs.closure"),
        "graphs.vertices": c("graphs.closure.vertices"),
        "graphs.sym_perms_s": t("graphs.sym_perms"),
        "graphs.sym_perms_calls": calls.get("graphs.sym_perms", 0),
        "graphs.edge_orbit_s": t("graphs.edge_orbit"),
        "graphs.export_edges_s": t("graphs.export_edges"),
        "spectra.spectrum_s": t("spectra.spectrum"),
        "spectra.lanczos_iterations": c("spectra.spectrum.iterations"),
        "tanner.assemble_s": t("tanner.assemble"),
        "tanner.h_rows": c("tanner.assemble.rows"),
        "tanner.invariance_s": t("tanner.invariance"),
        "tanner.row_orbit_s": t("tanner.row_orbit"),
        "tanner.single_orbit_self_s": self_.get("tanner.single_orbit", 0.0),
        "tanner.orbit_size": c("tanner.row_orbit.orbit_size"),
        "gf2.echelon_s": t("gf2.echelon"),
        "gf2.echelon_calls": calls.get("gf2.echelon", 0),
        "gf2.echelon_rows": rows,
        "gf2.rank": rank,
        "gf2.pivot_yield": rank / rows if rows else 0.0,
        "gf2.packed_mb": c("gf2.echelon.packed_bytes") / 1e6,
        "gf2.reduce_batch_s": t("gf2.reduce_batch"),
        "gf2.reduce_rows": c("gf2.reduce_batch.rows"),
        "gf2.row_support_s": t("gf2.row_support"),
        "alist.dumps_s": t("alist.dumps"),
        "alist.read_s": t("alist.read"),
        "cyclic.bch_code_s": t("cyclic.bch_code"),
        "cyclic.double_length_s": t("cyclic.double_length"),
        "cyclic.check_good_inner_code_s": t("cyclic.check_good_inner_code"),
        "cyclic.min_distance_s": t("cyclic.min_distance"),
    }
    for name in RSS_SPANS:
        m[f"{name}.rss_mb"] = rss.get(name, 0.0)
    return m


# counts that must repeat exactly at a fixed seed
REPEATED_COUNTS = ("gf2.echelon_calls", "graphs.sym_perms_calls", "gf2.rank",
                   "tanner.orbit_size", "spectra.lanczos_iterations", "graphs.vertices",
                   "tanner.h_rows", "gf2.echelon_rows", "gf2.reduce_rows")


def build_coverage(results: list[Result]) -> list[float]:
    """For each traced build, the share of its in-process wall time that
    the layer spans directly under it cover."""
    out = []
    for r in results:
        sp = r.trace["spans"]
        out += [spans.coverage(sp, i) for i, s in enumerate(sp) if s["name"] == "cli.build"]
    return out


def source_digest() -> str:
    """sha256 over the package sources, so recorded counts are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cayleycodes").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def trace_sanity(workload: str, seed: int, traced: list[Pass],
                 per_pass: list[dict]) -> list[str]:
    """Counts repeat exactly across traced passes and across runs of the
    same code at the same seed; spans cover each traced build."""
    errors = []
    counts = {key: per_pass[0][key] for key in REPEATED_COUNTS}
    for m in per_pass[1:]:
        errors += [f"{k} = {m[k]} in a later traced pass, {v} in the first"
                   for k, v in counts.items() if m[k] != v]
    record = ROOT / ".bench_out" / f"counts-{workload}-seed{seed}-{source_digest()[:16]}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        errors += [f"{k} = {v}, an earlier run at this seed counted {earlier.get(k)}"
                   for k, v in counts.items() if earlier.get(k) != v]
    else:
        record.parent.mkdir(exist_ok=True)
        record.write_text(json.dumps(counts, indent=1))
    for p in traced:
        for cov in build_coverage(p.results):
            if cov < MIN_BUILD_COVERAGE:
                errors.append(f"spans cover {cov:.1%} of a traced build, "
                              f"below {MIN_BUILD_COVERAGE:.0%}")
    return errors


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(untraced: list[Pass], setup: list[float]) -> dict:
    return {
        "pass_s": metric(statistics.median(p.wall for p in untraced), "s"),
        "peak_rss_mb": metric(max(r.rss_mb for p in untraced for r in p.results), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    return "ratio" if name == "gf2.pivot_yield" else "count"


def per_layer_metrics(workload: str, seed: int, untraced: list[Pass],
                      traced: list[Pass]) -> tuple[dict, list[str]]:
    """Medians over traced passes, the tracing overhead and the lowest
    build coverage; plus the trace-sanity errors."""
    per_pass = [layer_metrics(p.results) for p in traced
                if all(r.trace for r in p.results)]
    if not per_pass:
        return {}, ["no complete traced pass"]
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    untraced_wall = statistics.median(p.results[0].wall for p in untraced)
    traced_wall = statistics.median(p.results[0].wall for p in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    cov = [c for p in traced for c in build_coverage(p.results)]
    values["trace.build_coverage_pct"] = 100.0 * min(cov) if cov else 0.0
    metrics = {name: metric(v, layer_unit(name)) for name, v in values.items()}
    return metrics, trace_sanity(workload, seed, traced, per_pass)


# ---------------------------------------------------------------------------
# Machine description
# ---------------------------------------------------------------------------

def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # the ceiling stops git from reporting the commit of an enclosing repository
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, env=git_env,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    import numpy
    import scipy
    env = child_env()
    return {
        "nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "commit": commit or f"not a git checkout; sources sha256 {source_digest()[:16]}",
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cayleycodes" / "cli.py").is_file():
        print(f"error: no cayleycodes source under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    deadline = t_start + HARD_LIMIT_S
    base = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup = [] if args.trace else measure_setup(deadline, base / "setup")
        passes: list[Pass] = []
        t_loop = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            # a traced run times only the first command untraced, as the
            # reference for the tracing overhead
            passes.append(run_pass(args.workload, base / f"p{len(passes)}", args.seed,
                                   False, deadline, 1 if args.trace else None,
                                   None if args.trace else setup))
            if args.trace:
                passes.append(run_pass(args.workload, base / f"p{len(passes)}", args.seed,
                                       True, deadline))
            now = time.perf_counter()
            if now - t_loop + (now - t_pass) > args.seconds:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass

    results = [r for p in passes for r in p.results]
    errors = [e for r in results for e in r.errors]
    attempted, failed = len(results), sum(1 for r in results if r.errors)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]

    info = machine(args.seed)
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes, closed loop, 1 client")
    for kind, values in kind_samples(untraced).items():
        tl = tail(values)
        tail_text = f"p{tl[0]:.0f} {tl[1]:.4f} s" if tl else "tail n/a (n < 11)"
        print(f"  {kind + '_s':10s} median {statistics.median(values):9.4f} s  "
              f"{tail_text}  n={len(values)}")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for e in errors:
        print(f"  FAIL {e}")

    if args.trace:
        metrics, sanity = per_layer_metrics(args.workload, args.seed, untraced, traced)
        for e in sanity:
            print(f"  TRACE {e}")
        errors += sanity
    else:
        metrics = end_to_end_metrics(untraced, setup)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")

    out = {"correct": not errors, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    record = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({
        "result": out, "machine": info, "setup_samples": setup, "errors": errors,
        "passes": [{"traced": p.traced, "commands": [
            {"kind": r.kind, "wall": r.wall, "rss_mb": r.rss_mb} for r in p.results]}
            for p in passes]}, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
