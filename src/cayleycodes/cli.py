"""Command-line front end.

Subcommands: bch, double, graph, build, verify.  Exit codes: 0 when all
checks pass, 1 when a mathematical check fails, 2 for usage or IO
errors, so CI can gate on mathematical correctness separately from
plumbing problems.  Nothing is random: equal flags give byte-identical
outputs.  build --seed is only recorded in report.json as params.seed.

Importing this module loads only the integer layer (cyclic, gf2poly,
fpoly).  graph, build (past --paper-instance and its inner code) and
verify (past its missing-file check) import the numpy layer; build and
verify import tanner and alist first, the order that peaked lowest.

The order of the work.  graph and build compute the spectrum from the
generators before the closure: it needs no graph (see spectra), and
its blocks are freed before the closure's arrays exist, so the two
peaks do not stack.  build then runs the symmetry certificate and star
elimination on the graph and writes the files.  verify keeps its own
order: the closure, graph.edges, H and code.alist first, and the
spectrum, the rank and the symmetry checks only when the shipped alist
is the rebuilt H, so that a tampered instance fails before any of them
runs.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import cyclic, gf2poly
from .errors import CheckFailure

HEADLINE_Q, HEADLINE_M, HEADLINE_A = 4093, 11, 8

# the report.json entries verify reads, with their types
REPORT_ENTRIES = {
    "params.q": int, "params.e": int, "params.delta": list, "params.ybar": list,
    "params.residue_poly": list, "params.inner.n": int, "params.inner.h_hex": str,
    "graph.vertices": int, "graph.edges": int, "graph.bipartite": bool,
    "spectrum.lambda2": (int, float), "bounds.rank": int, "bounds.measured_rate": str,
}


def _print_code_params(label: str, params: cyclic.CodeParams) -> None:
    print(f"{label}: n={params.n} k={params.k} rate={params.rate} "
          f"(~{float(params.rate):.4f}) d_lower={params.d_lower} "
          f"delta_lower={params.delta_lower} (~{float(params.delta_lower):.5f})")


def cmd_bch(args) -> int:
    n = (1 << args.m) - 1
    if args.r is not None:
        r = args.r
    else:
        r = int(Fraction(n, args.m) * (1 - Fraction(2, args.a)))
        print(f"designed root count r = floor((n/m)(1 - 2/a)) = {r}")
    code = cyclic.bch_code(args.m, r)
    _print_code_params(f"BCH(m={args.m}, r={r})", cyclic.designed_params(code, r))
    if args.out:
        cyclic.save_code(code, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_double(args) -> int:
    code = cyclic.load_code(args.infile)
    if code.n % 2 == 0:
        raise ValueError("n must be odd: the doubling transform needs odd length")
    doubled = cyclic.double_length(code)
    print(f"doubled: [{code.n}, {code.dim}] -> [{doubled.n}, {doubled.dim}], "
          f"rate {doubled.rate} (~{float(doubled.rate):.4f}); "
          "minimum distance is preserved, normalized distance halves")
    if args.out:
        cyclic.save_code(doubled, args.out)
        print(f"wrote {args.out}")
    return 0


def _make_params(args):
    from . import projective, quaternion, spectra
    projective.require_key_fits(args.q ** args.e)
    spectra.require_matrix_fits(args.q ** args.e)
    delta = None if args.delta == "auto" else int(args.delta)
    if args.ybar == "auto":
        params = quaternion.choose_ideal(args.q, args.e, args.variant, delta)
    elif args.e != 1:
        raise ValueError("--ybar only applies to e = 1; use auto for e > 1")
    else:
        params = quaternion.residue_params(args.q, int(args.ybar), delta)
    if params.q ** params.e <= 17:
        raise ValueError("q^e must exceed 17")
    return params


def cmd_graph(args) -> int:
    from . import graphs, quaternion, spectra
    params = _make_params(args)
    gens = quaternion.build_generators(params)
    variant = quaternion.classify(gens)
    spec = spectra.spectrum(gens.group, gens.elements)
    graph = graphs.graph_from_generators(gens)
    ram = spectra.is_ramanujan(spec, params.q)
    print(f"group: {variant} over F_{params.q}^{params.e}; "
          f"|V|={graph.n_vertices} |E|={graph.n_edges} degree={graph.degree} "
          f"bipartite={graph.bipartite}")
    print(f"spectrum ({spec.method}): lambda2={spec.lambda2:.9f} "
          f"lambda_min={spec.lambda_min:.9f} bound={cyclic.ramanujan_bound(params.q):.9f}")
    print(f"ramanujan: {'pass' if ram else 'FAIL'}")
    if args.out:
        with open(args.out, "wb") as fh:
            graph.export_edges(fh.write)
        print(f"wrote {args.out}")
    if not ram:
        raise CheckFailure("graph failed the expansion certificate")
    return 0


def _print_headline_instance() -> int:
    result = cyclic.check_good_inner_code(HEADLINE_Q, HEADLINE_M, HEADLINE_A)
    print(f"inner-code instance: q={HEADLINE_Q}, m={HEADLINE_M}, a={HEADLINE_A}, r={result.r}")
    _print_code_params("base BCH", cyclic.designed_params(result.base, result.r))
    _print_code_params("doubled inner code", result.params)
    lam = cyclic.ramanujan_bound(HEADLINE_Q)
    print(f"rate threshold 1/2 + 1/a = {Fraction(1, 2) + Fraction(1, HEADLINE_A)}: "
          f"{'pass' if result.rate_ok else 'FAIL'}")
    print(f"distance threshold 2*sqrt(q)/(q+1) ~ {lam:.6f}: "
          f"{'pass' if result.distance_ok else 'FAIL'} (exact rational comparison)")
    rate_lb, dist_lb = cyclic.edge_code_bounds(result.params.rate, result.params.delta_lower, lam)
    guaranteed_rate = 2 * (Fraction(1, 2) + Fraction(1, HEADLINE_A)) - 1
    print(f"edge-code bounds at lambda = {lam:.6f}: "
          f"rate >= {rate_lb} (~{float(rate_lb):.4f}), "
          f"guaranteed-rate form 2/a = {guaranteed_rate}; "
          f"distance >= {float(dist_lb):.3e}")
    print("note: the outer group PSL_2({}^alpha) is astronomically large and is "
          "not instantiated; only the inner code is built and checked "
          "exactly".format(HEADLINE_Q))
    cyclic.require_inner_thresholds(result)
    return 0


def cmd_build(args) -> int:
    if args.paper_instance:
        return _print_headline_instance()
    if args.q is None or args.inner is None or args.out is None:
        raise ValueError("build requires --q, --inner and --out (or --paper-instance)")
    inner = cyclic.load_code(args.inner)
    from . import tanner, alist, graphs, quaternion, spectra
    params = _make_params(args)
    if inner.n != params.q + 1:
        raise ValueError(f"inner code length {inner.n} != q + 1 = {params.q + 1}")
    gens = quaternion.build_generators(params)
    spec = spectra.spectrum(gens.group, gens.elements)
    graph = graphs.graph_from_generators(gens)
    report, inst = tanner.run_verification(
        gens, graph, spec, inner, seed=args.seed, inner_d_lower=args.inner_dlower)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(report.to_json())
    with open(outdir / "graph.edges", "wb") as edges, open(outdir / "code.alist", "wb") as code:
        graph.export_edges(edges.write)
        alist.dumps_alist(tanner.alist_tables(inst), code.write)
    (outdir / "inner.code").write_text(cyclic.dumps_code(inner))
    for name in ("classification", "regular", "ramanujan", "edge_transitive",
                 "rate_bound", "invariance", "single_orbit"):
        print(f"{name}: {'pass' if report.checks[name] else 'FAIL'}")
    print(f"measured rate {report.bounds['measured_rate']} >= "
          f"bound {report.bounds['rate_lower']}")
    print(f"wrote {outdir}/report.json, graph.edges, code.alist, inner.code")
    if not report.all_passed:
        raise CheckFailure("one or more structural checks failed")
    return 0


def cmd_verify(args) -> int:
    outdir = Path(args.dir)
    report_path = outdir / "report.json"
    alist_path = outdir / "code.alist"
    edges_path = outdir / "graph.edges"
    inner_path = outdir / "inner.code"
    for p in (report_path, alist_path, edges_path, inner_path):
        if not p.exists():
            raise FileNotFoundError(f"missing instance file: {p}")
    from . import tanner, alist, graphs, projective, quaternion, spectra
    report = tanner.VerificationReport.from_json(report_path.read_text())
    want = {name: report.read(name, kind) for name, kind in REPORT_ENTRIES.items()}
    inner = cyclic.load_code(inner_path)
    q, e = want["params.q"], want["params.e"]
    if (gf2poly.from_hex(want["params.inner.h_hex"]) != inner.h
            or want["params.inner.n"] != inner.n):
        raise CheckFailure("inner.code disagrees with the report parameters")

    projective.require_key_fits(q ** e)
    spectra.require_matrix_fits(q ** e)
    delta, ybar = want["params.delta"], want["params.ybar"]
    if not delta or not ybar:
        raise ValueError("report.json: params.delta and params.ybar must not be empty")
    if e == 1:
        params = quaternion.residue_params(q, ybar[0], delta[0])
    else:
        params = quaternion.residue_params_ext(q, tuple(want["params.residue_poly"]), delta[0])
    gens = quaternion.build_generators(params)
    graph = graphs.graph_from_generators(gens)

    results: dict[str, bool] = {}
    results["graph_shape"] = (
        graph.n_vertices == want["graph.vertices"]
        and graph.n_edges == want["graph.edges"]
        and graph.bipartite == want["graph.bipartite"]
    )
    results["edge_list"] = alist.matches_file(edges_path, graph.export_edges)

    inst = tanner.build_parity_check(graph, inner)

    def shipped(write=None):
        return alist.dumps_alist(tanner.alist_tables(inst), write)
    # byte equality makes the shipped matrix the rebuilt H itself, so the
    # rank check and the symmetry certificate (proven on every row of H)
    # below cover the shipped constraints; on a mismatch verify has failed,
    # they and the spectrum are skipped, and the alist is rebuilt to name it
    where = None if alist.matches_file(alist_path, shipped) else alist.first_difference(
        alist_path.read_bytes(), shipped())
    if where is None:
        # neither the whole Gelfand-Graev matrix nor a packed H is ever
        # allocated: the spectrum eigensolves its determinant-class blocks
        # one at a time, and the rank comes from star elimination
        spec = spectra.spectrum(graph.group, graph.gens)
        results["ramanujan"] = spectra.is_ramanujan(spec, q)
        results["spectrum_matches"] = abs(spec.lambda2 - want["spectrum.lambda2"]) < 1e-5
        results["alist_exact"] = True
        results["rank_matches"] = inst.rank == want["bounds.rank"]
        rate = tanner.measured_rate(inst)
        results["rate_bound"] = (f"{rate.numerator}/{rate.denominator}"
                                 == want["bounds.measured_rate"])
        orbit = graphs.edge_orbit(graph, graphs.symmetry_edge_permutations(graph, gens))
        results["invariance"] = tanner.verify_invariance(inst, orbit).passed
        results["edge_transitive"] = orbit.transitive
        results["single_orbit"] = tanner.verify_single_orbit(inst, orbit).passed
    else:
        results["alist_exact"] = False

    for name, ok in results.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    failed = [name for name, ok in results.items() if not ok]
    if failed:
        message = f"verification failed: {', '.join(failed)}"
        if where is not None:
            message += f"; {alist_path.name}: {where}"
        raise CheckFailure(message)
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cayleycodes",
        description="Edge-transitive expander Cayley graphs and the LDPC codes on their edges",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bch", help="construct a BCH inner code")
    p.add_argument("--m", type=int, required=True, help="extension degree; n = 2^m - 1")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--r", type=int, help="designed root count")
    g.add_argument("--a", type=int, help="rate target: r = floor((n/m)(1 - 2/a))")
    p.add_argument("-o", "--out", help="code file to write")
    p.set_defaults(func=cmd_bch)

    p = sub.add_parser("double", help="double an odd-length cyclic code")
    p.add_argument("infile", help="input code file")
    p.add_argument("-o", "--out", help="code file to write")
    p.set_defaults(func=cmd_double)

    def add_group_args(p, q_required=True):
        p.add_argument("--q", type=int, required=q_required, help="odd prime q")
        p.add_argument("--e", type=int, default=1, help="residue degree (default 1)")
        p.add_argument("--variant", choices=("psl", "pgl"), default="psl")
        p.add_argument("--delta", default="auto", help="nonsquare mod q, or auto")
        p.add_argument("--ybar", default="auto", help="image of y (e = 1 only), or auto")

    p = sub.add_parser("graph", help="build a Cayley graph and certify expansion")
    add_group_args(p)
    p.add_argument("-o", "--out", help="edge list file to write")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("build", help="build and verify the edge code")
    add_group_args(p, q_required=False)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded as params.seed in report.json; no other "
                        "output depends on it")
    p.add_argument("--inner", help="inner code file (length q + 1)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--inner-dlower", type=int, default=None,
                   help="proven distance bound of the inner code, if known")
    p.add_argument("--paper-instance", action="store_true",
                   help="check the q=4093 inner-code instance only")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="re-verify a built instance directory")
    p.add_argument("dir")
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
