"""Correctness gate and seeded tamper for the benchmark.

Every command the benchmark times is checked here: its exit code, the
sha256 digests of the seed-independent output files, the fields of
report.json that do not depend on the seed, and the pass lines of the
text output.  A mismatch is a failure of that command; it is never
just timed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DIGESTED_FILES = ("code.alist", "graph.edges", "inner.code")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_exit(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_digests(files: dict[str, Path], expected: dict[str, str]) -> list[str]:
    errors = []
    for name, want in expected.items():
        path = files.get(name)
        if path is None or not Path(path).exists():
            errors.append(f"{name}: missing")
        elif sha256(path) != want:
            errors.append(f"{name}: sha256 differs from the recorded digest")
    return errors


def check_text(text: str, digest: str) -> list[str]:
    ok = hashlib.sha256(text.encode()).hexdigest() == digest
    return [] if ok else ["output differs from the recorded digest"]


def check_report(path: Path, expected: dict) -> list[str]:
    """rank and measured_rate as recorded, and every boolean check true."""
    report = json.loads(Path(path).read_text())
    errors = []
    for key in ("rank", "measured_rate"):
        if report["bounds"].get(key) != expected[key]:
            errors.append(f"report {key} = {report['bounds'].get(key)!r}, "
                          f"expected {expected[key]!r}")
    for name, value in report["checks"].items():
        if isinstance(value, bool) and not value:
            errors.append(f"report check {name} is false")
    return errors


def check_lines(text: str, lines: list[str]) -> list[str]:
    have = set(text.splitlines())
    return [f"output lacks {line!r}" for line in lines if line not in have]


# ---------------------------------------------------------------------------
# alist round trip and the one-bit tamper
# ---------------------------------------------------------------------------

def parse_alist_rows(text: str) -> tuple[int, list[list[int]]]:
    """(ncols, 0-based row supports) from the row section of an alist."""
    lines = text.splitlines()
    n, m = (int(t) for t in lines[0].split())
    rows = []
    for line in lines[4 + n:4 + n + m]:
        rows.append([int(t) - 1 for t in line.split() if t != "0"])
    return n, rows


def dump_alist(ncols: int, rows: list[list[int]]) -> str:
    """The alist layout cayleycodes writes: sorted supports, column
    lists in row order, both zero-padded to their maximum degree."""
    cols: list[list[int]] = [[] for _ in range(ncols)]
    rows = [sorted(r) for r in rows]
    for ri, sup in enumerate(rows):
        for c in sup:
            cols[c].append(ri)
    max_col = max((len(c) for c in cols), default=0)
    max_row = max((len(r) for r in rows), default=0)
    out = [f"{ncols} {len(rows)}", f"{max_col} {max_row}",
           " ".join(str(len(c)) for c in cols),
           " ".join(str(len(r)) for r in rows)]
    out += [" ".join([str(r + 1) for r in c] + ["0"] * (max_col - len(c))) for c in cols]
    out += [" ".join([str(c + 1) for c in r] + ["0"] * (max_row - len(r))) for r in rows]
    return "\n".join(out) + "\n"


def entries(text: str) -> set[tuple[int, int]]:
    _, rows = parse_alist_rows(text)
    return {(r, c) for r, sup in enumerate(rows) for c in sup}


def tamper(text: str, seed: int) -> tuple[str, tuple[int, int]]:
    """Flip the entry of H at a seeded (row, column); returns the new
    alist text, consistent in both its column and row sections."""
    ncols, rows = parse_alist_rows(text)
    if dump_alist(ncols, rows) != text:
        raise ValueError("alist is not in the canonical layout")
    rng = random.Random(seed)
    r, c = rng.randrange(len(rows)), rng.randrange(ncols)
    rows[r] = sorted(set(rows[r]) ^ {c})
    return dump_alist(ncols, rows), (r, c)


def write_tampered_copy(src: Path, dst: Path, seed: int) -> tuple[int, int]:
    """Copy an instance directory with one bit of code.alist flipped,
    after asserting the copy differs from the original in exactly that
    entry."""
    dst.mkdir(parents=True, exist_ok=True)
    for name in ("report.json", "graph.edges", "inner.code"):
        (dst / name).write_bytes((src / name).read_bytes())
    pristine = (src / "code.alist").read_text()
    tampered, flipped = tamper(pristine, seed)
    diff = entries(pristine) ^ entries(tampered)
    if diff != {flipped}:
        raise AssertionError(f"tamper changed {len(diff)} entries, expected exactly 1")
    (dst / "code.alist").write_text(tampered)
    return flipped
