"""Run one cayleycodes CLI command in-process with layer spans.

    python3 benchmarks/traced_cli.py SPANS.json -- build --q 19 ...

Wraps the public functions of each cayleycodes module (see install),
calls cayleycodes.cli.main with the remaining arguments, and writes the
exit code, the in-process wall time of main and every span to
SPANS.json.  The exit code of main is also this process's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, peak_rss_mb  # noqa: E402


def _vertices(graph, *args, **kwargs):
    return {"vertices": graph.n_vertices}


def _iterations(spec, *args, **kwargs):
    return {"iterations": spec.iterations or 0}


def _h_rows(inst, *args, **kwargs):
    return {"rows": inst.matrix.nrows}


def _orbit(orbit, *args, **kwargs):
    return {"orbit_size": len(orbit)}


def _echelon(ech, matrix, *args, **kwargs):
    return {"rows": matrix.nrows, "rank": ech.rank, "packed_bytes": matrix.data.nbytes}


def _reduce(residual, ech, mat, *args, **kwargs):
    return {"rows": int(mat.shape[0])}


def install(tracer: Tracer) -> None:
    """Wrap every traced cayleycodes function; the span names are the
    layer names used by the benchmark's per-layer metrics."""
    from cayleycodes import alist, cli, cyclic, gf2, graphs, quaternion, spectra, tanner

    fn = tracer.wrap_function
    fn(quaternion, "build_generators", "quaternion.generators")
    fn(quaternion, "choose_ideal", "quaternion.params")
    fn(quaternion, "residue_params", "quaternion.params")
    fn(quaternion, "residue_params_ext", "quaternion.params")
    fn(quaternion, "classify", "quaternion.classify")
    fn(graphs, "graph_from_generators", "graphs.closure", _vertices)
    fn(graphs, "symmetry_edge_permutations", "graphs.sym_perms")
    fn(graphs, "edge_orbit", "graphs.edge_orbit")
    tracer.wrap_method(graphs.CayleyGraph, "export_edges", "graphs.export_edges")
    fn(spectra, "spectrum", "spectra.spectrum", _iterations)
    fn(tanner, "build_parity_check", "tanner.assemble", _h_rows)
    fn(tanner, "verify_invariance", "tanner.invariance")
    fn(tanner, "row_orbit", "tanner.row_orbit", _orbit)
    fn(tanner, "verify_single_orbit", "tanner.single_orbit")
    tracer.wrap_method(tanner.VerificationReport, "to_json", "tanner.report_json")
    tracer.wrap_method(gf2.Gf2Matrix, "echelon", "gf2.echelon", _echelon)
    tracer.wrap_method(gf2.Gf2Matrix, "from_supports", "gf2.from_supports")
    tracer.wrap_method(gf2.Gf2Matrix, "row_support", "gf2.row_support")
    tracer.wrap_method(gf2.Echelon, "reduce_batch", "gf2.reduce_batch", _reduce)
    fn(alist, "dumps_alist", "alist.dumps")
    fn(alist, "read_alist", "alist.read")
    fn(cyclic, "load_code", "cyclic.load_code")
    fn(cyclic, "save_code", "cyclic.save_code")
    fn(cyclic, "bch_code", "cyclic.bch_code")
    fn(cyclic, "double_length", "cyclic.double_length")
    fn(cyclic, "check_good_inner_code", "cyclic.check_good_inner_code")
    fn(cyclic, "min_distance", "cyclic.min_distance")
    for command in ("bch", "double", "graph", "build", "verify"):
        fn(cli, f"cmd_{command}", f"cli.{command}")


def main(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json -- <cli arguments>")
    tracer = Tracer()
    install(tracer)
    from cayleycodes import cli

    t0 = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - t0
    Path(out).write_text(json.dumps({
        "exit": code, "wall": wall, "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.to_json()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
