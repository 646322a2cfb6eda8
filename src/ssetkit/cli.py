"""Command-line front end: parse input files, dispatch, emit deterministic reports.

Exit codes: 0 for a computed affirmative result, 1 for a verified
mathematical negative (not fibrant, not a sheaf, incompatible data; the
report carries the witness), 2 for input or usage errors. Each command
returns True for an affirmative result and False for a verified negative;
main alone turns that verdict into the report status and the exit code.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import io_text
from .connections import face_extend, horn_connection_fill, u1_chern_number
from .derham import derham_cohomology
from .errors import CompatibilityError, ParameterError, SsetError, StructureError
from .homology import chain_complex, cohomology_ring, homology, mayer_vietoris, unit_class_coords
from .kan import is_fibrant, is_fibration
from .randomsuite import stokes_suite, subdivision_suite
from .reporting import Report
from .sheaves import check_status, sheafify
from .simplicial import truncate


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ssetkit",
        description="Exact computations on finite simplicial sets.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cap", type=int, default=None, help="lower the dimension cap")

    p = sub.add_parser("homology", help="betti numbers and torsion")
    p.add_argument("sset")
    p.add_argument("--ring", choices=("int", "rat"), default="int")
    common(p)

    p = sub.add_parser("ring", help="rational cohomology ring with cup products")
    p.add_argument("sset")
    common(p)

    p = sub.add_parser("mv", help="Mayer-Vietoris sequence for a two-part cover")
    p.add_argument("sset")
    p.add_argument("cover")
    common(p)

    p = sub.add_parser("subdivide-check", help="randomized subdivision identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("sheaf", help="sheaf condition and sheafification on a finite site")
    p.add_argument("sset")
    p.add_argument("site")
    p.add_argument("--op", choices=("status", "sheafify"), default="status")

    p = sub.add_parser("derham", help="truncated polynomial de Rham cohomology")
    p.add_argument("sset", nargs="?")
    p.add_argument("--poly-degree", type=int, default=3)
    p.add_argument("--check-stokes", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    common(p)

    p = sub.add_parser("kan", help="fibrancy certificate by exhaustive horn filling")
    p.add_argument("sset")
    common(p)

    p = sub.add_parser("fibration", help="right lifting property of a simplicial map")
    p.add_argument("smap")

    p = sub.add_parser("chern", help="abelian Chern number of a glued surface bundle")
    p.add_argument("u1")

    p = sub.add_parser("extend", help="extend face data to the simplex, with verification")
    p.add_argument("problem")

    return parser


def _read(report, path):
    with open(path, "rb") as fh:
        data = fh.read()
    report.add_input(path.rsplit("/", 1)[-1], data)
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise StructureError("%s is not UTF-8 text: %s" % (path, exc)) from None


def _load_sset(report, args):
    return _lower_cap(io_text.parse_complex(_read(report, args.sset)), args)


def _lower_cap(x, args):
    return x if getattr(args, "cap", None) is None else truncate(x, args.cap)


def cmd_homology(report, args):
    x = _load_sset(report, args)
    summary = homology(chain_complex(x))
    report.add("betti", summary.betti)
    if args.ring == "int":
        for n in sorted(summary.torsion):
            report.add("torsion.H%d" % n, summary.torsion[n])
    report.add("euler", sum((-1) ** n * b for n, b in enumerate(summary.betti)))
    return True


def cmd_ring(report, args):
    x = _load_sset(report, args)
    ring = cohomology_ring(x)
    report.add("betti", ring.betti())
    report.add("unit", unit_class_coords(ring))
    for (p, i, q, j), coords in sorted(ring.table.items()):
        report.add("cup.H%d[%d].H%d[%d]" % (p, i, q, j), coords)
    return True


def cmd_mv(report, args):
    full = io_text.parse_complex(_read(report, args.sset))
    x = _lower_cap(full, args)
    # A cover is written at the file's cap: members above a lowered cap are dropped,
    # and a member that is no simplex of the file's set stays, for restrict to refuse.
    sub_a, sub_b = (
        {n: m if n <= x.dim_cap else {s for s in m if not full.has(n, s)} for n, m in sub.items()}
        for sub in io_text.parse_cover(_read(report, args.cover))
    )
    mv = mayer_vietoris(x, sub_a, sub_b)
    report.add("betti.X", mv.betti_x)
    report.add("betti.A", mv.betti_a)
    report.add("betti.B", mv.betti_b)
    report.add("betti.AB", mv.betti_ab)
    for label, p, _, r_in, _, _ in mv.nodes:
        if label == "H(X)" and p:  # its rank-in is the rank of the connecting map from degree p - 1
            report.add("connecting.rank.deg%d" % (p - 1), r_in)
    for label, p, zero, r_in, nullity, ok in mv.nodes:
        report.add(
            "exact.%s.deg%d" % (label.replace(" ", ""), p),
            "ok" if ok else "FAIL composite_zero=%s rank_in=%d nullity_out=%d" % (zero, r_in, nullity),
        )
    return mv.exact()


def _add_suite(report, rows):
    """One record per (name, passed, details) row; True when every row passed."""
    ok = True
    for name, passed, details in rows:
        report.add(name, "pass (%s)" % details if passed else "FAIL (%s)" % details)
        ok = ok and passed
    return ok


def cmd_subdivide_check(report, args):
    return _add_suite(report, subdivision_suite(random.Random(args.seed), trials=args.trials))


def cmd_sheaf(report, args):
    x = _load_sset(report, args)
    presheaf = io_text.parse_site_presheaf(_read(report, args.site), x)
    status = check_status(presheaf)
    report.add("separated", status.separated)
    report.add("sheaf", status.sheaf)
    if status.witness is not None:
        name, cover, family, count = status.witness
        report.add("witness", {"object": name, "cover": cover, "family": family, "gluings": count})
    if args.op == "sheafify":
        sheafed, unit, separated_first = sheafify(presheaf)
        report.add("sheafify.separated_first", separated_first)
        for name in sheafed.site.names():
            report.add("sheafify.sections.%s" % name, sheafed.sections[name])
        after = check_status(sheafed)
        report.add("sheafify.is_sheaf", after.sheaf)
        return after.sheaf
    return status.sheaf


def cmd_derham(report, args):
    if args.check_stokes:
        return _add_suite(report, stokes_suite(random.Random(args.seed), trials=args.trials))
    if args.sset is None:
        raise ParameterError("derham needs a simplicial set file unless --check-stokes")
    x = _load_sset(report, args)
    result = derham_cohomology(x, args.poly_degree)
    report.add("poly_degree", result.degree_cap)
    report.add("space_dims", result.dims)
    report.add("raw_betti", result.raw_betti)
    report.add("betti", result.betti)
    report.add("simplicial_betti", result.simplicial_betti)
    report.add("comparison_rank", result.comparison_rank)
    report.add("isomorphism", result.isomorphism)
    report.add("stable", result.stable)
    return True


def cmd_kan(report, args):
    x = _load_sset(report, args)
    cert = is_fibrant(x)
    report.add("fibrant_up_to_cap", cert.fibrant)
    report.add("cap", cert.dim_cap)
    for (n, k), (horns, unique) in sorted(cert.counts.items()):
        report.add("horns.n%d.k%d" % (n, k), "%d horns, %d with unique filler" % (horns, unique))
    if not cert.fibrant:
        report.add("witness", {"n": cert.witness.n, "k": cert.witness.k, "faces": cert.witness.faces})
    return cert.fibrant


def cmd_fibration(report, args):
    smap = io_text.parse_map(_read(report, args.smap))
    cert = is_fibration(smap)
    report.add("fibration_up_to_cap", cert.fibration)
    report.add("cap", cert.dim_cap)
    report.add("lifting_problems", cert.problems)
    if not cert.fibration:
        horn, base = cert.witness
        report.add("witness", {"n": horn.n, "k": horn.k, "faces": horn.faces, "base": base})
    return cert.fibration


def cmd_chern(report, args):
    bundle = io_text.parse_u1(_read(report, args.u1))
    result = u1_chern_number(bundle)
    report.add("degree", result.degree)
    report.add("total_integral", io_text.render_scalar(result.total_integral))
    report.add("edge_sum", io_text.render_scalar(result.edge_sum))
    report.add(
        "vertex_winding_sums",
        {str(k): io_text.render_scalar(v) for k, v in result.vertex_sums.items()},
    )
    report.add("vertex_sums_integral", result.integral_vertex_sums)
    return True


def cmd_extend(report, args):
    n, missing, algebra, data = io_text.parse_extend(_read(report, args.problem))
    if missing is None:
        result = face_extend(n, data)
    else:
        result = horn_connection_fill(n, missing, data)
    report.add("n", n)
    report.add("missing", "none" if missing is None else missing)
    report.add("algebra", "none" if algebra is None else algebra.name)
    if algebra is None:
        report.add("extension", io_text.render_form(result))
    else:
        for i, row in enumerate(result.entries):
            for j, f in enumerate(row):
                if not f.is_zero():
                    report.add("extension.entry.%d.%d" % (i, j), io_text.render_form(f))
    report.add("restrictions_verified", True)
    return True


COMMANDS = {
    "homology": cmd_homology,
    "ring": cmd_ring,
    "mv": cmd_mv,
    "subdivide-check": cmd_subdivide_check,
    "sheaf": cmd_sheaf,
    "derham": cmd_derham,
    "kan": cmd_kan,
    "fibration": cmd_fibration,
    "chern": cmd_chern,
    "extend": cmd_extend,
}


_PARSER = build_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    report = Report(command="%s %s" % (args.command, " ".join(a for a in argv if a != args.command)))
    started = time.time()
    try:
        code = 0 if COMMANDS[args.command](report, args) else 1
    except CompatibilityError as exc:
        report.add("error", str(exc))
        report.add("witness", str(exc.witness))
        code = 1
    except (SsetError, OSError) as exc:
        report.status = "error"
        report.add("error", str(exc))
        code = 2
    if code == 1:
        report.status = "negative"
    report.timing_ms = int((time.time() - started) * 1000)
    sys.stdout.write(report.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
