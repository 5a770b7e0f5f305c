"""Command-line surface: analyze, reduce, check, oracle, verify.

Exit codes are a stable contract: 0 success (whatever the answer), 1 a
verification run found a disagreement or bad witness, 2 usage or format
errors, 3 an internal fault (a witness that failed revalidation, or an
input nested too deeply for a recursive step), reported as one line.
Reports go to stdout and are byte-identical for fixed inputs and seed;
timings go to stderr so the comparable payload stays stable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import verify as verify_mod
from .checker import McInstance, brute_mc, mc_counterexample, mc_x_bounded, sat, sat_x
from .formula import format_formula, fragment_of
from .graphs import (
    EXACT_LIMIT,
    exact_pathwidth,
    exact_treewidth,
    format_decomposition,
    minfill_upper,
    syntax_graph,
)
from .instances import (
    InstanceFormatError,
    parse_cnf3,
    parse_pwsat,
    parse_rect_tiling,
    parse_square_tiling,
)
from .kripke import KripkeFormatError, branching_degree, format_kripke, format_lasso, parse_kripke
from .oracles import (
    format_assignment,
    format_cells,
    solve_cnf,
    solve_pwsat,
    solve_rect_tiling,
    solve_square_tiling,
)
from .parser import ParseError, parse
from .reductions import (
    reduce_3sat_to_mc,
    reduce_pwsat_to_sat,
    reduce_recttiling_to_mc_u,
    reduce_recttiling_to_mc_xf,
    reduce_sqtiling_to_mc_t,
    reduce_sqtiling_to_mc_x,
    structure_graph,
)

_FORMAT_ERRORS = (ParseError, InstanceFormatError, KripkeFormatError, ValueError, OSError)


class _Usage(Exception):
    """Bad input or flags; maps to exit code 2."""


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _Usage(str(e)) from None


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _fragment_text(f):
    frag = fragment_of(f)
    return "".join(c for c in "XFGU" if c in frag) or "-"


def _cert_text(certs):
    parts = []
    for key in ("td", "delta", "nvar"):
        if key in certs:
            parts.append("%s=%d" % (key, certs[key]))
    if "width" in certs:
        parts.append("width<=%d" % certs["width"])
    return " ".join(parts)


# ---------------------------------------------------------------------------
# analyze

def _looks_like_structure(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            return line.split()[0] in ("world", "edge", "init")
    return False


def cmd_analyze(args):
    text = _read(args.input)
    if _looks_like_structure(text):
        s = parse_kripke(text)
        g = structure_graph(s)
        if len(g) <= EXACT_LIMIT:
            w, _ = exact_pathwidth(g)
            tail = "pw<=%d" % w
        else:
            w, _ = minfill_upper(g)
            tail = "pw<=%d upper-bound" % w
        print("delta=%d %s" % (branching_degree(s), tail))
        return 0
    f = parse(text)
    g = syntax_graph(f)
    if len(g) <= EXACT_LIMIT:
        w, _ = exact_treewidth(g)
        tail = "tw=%d" % w
    else:
        w, _ = minfill_upper(g)
        tail = "tw<=%d upper-bound" % w
    print(
        "td=%d nvar=%d fragment=%s %s"
        % (g.td, g.roles.count("prop"), _fragment_text(f), tail)
    )
    return 0


# ---------------------------------------------------------------------------
# reduce

_REDUCERS = {
    "pwsat": (parse_pwsat, lambda i: reduce_pwsat_to_sat(i, {"F", "G"})),
    "pwsat-u": (parse_pwsat, lambda i: reduce_pwsat_to_sat(i, {"U"})),
    "3sat-f": (parse_cnf3, lambda i: reduce_3sat_to_mc(i, "F")),
    "3sat-x": (parse_cnf3, lambda i: reduce_3sat_to_mc(i, "X")),
    "sqtile-x": (parse_square_tiling, reduce_sqtiling_to_mc_x),
    "sqtile-f": (parse_square_tiling, lambda i: reduce_sqtiling_to_mc_t(i, "F")),
    "sqtile-g": (parse_square_tiling, lambda i: reduce_sqtiling_to_mc_t(i, "G")),
    "sqtile-u": (parse_square_tiling, lambda i: reduce_sqtiling_to_mc_t(i, "U")),
    "recttile-xf": (parse_rect_tiling, reduce_recttiling_to_mc_xf),
    "recttile-u": (parse_rect_tiling, reduce_recttiling_to_mc_u),
}


def cmd_reduce(args):
    parser_fn, reducer = _REDUCERS[args.family]
    inst = parser_fn(_read(args.input))
    out = reducer(inst)
    os.makedirs(args.outdir, exist_ok=True)
    emitted = out.formula if out.mc is None else out.mc.formula
    _write(os.path.join(args.outdir, "formula.txt"), format_formula(emitted) + "\n")
    if out.mc is not None:
        _write(
            os.path.join(args.outdir, "structure.txt"),
            format_kripke(out.mc.structure),
        )
    _write(os.path.join(args.outdir, "witness.txt"), format_decomposition(out.witness))
    cert = _cert_text(out.certificates)
    _write(os.path.join(args.outdir, "certificate.txt"), cert + "\n")
    print(cert)
    return 0


# ---------------------------------------------------------------------------
# check

def _mc_instance(args):
    s = parse_kripke(_read(args.structure))
    f = parse(_read(args.formula))
    return McInstance(s, s.init, f)


def cmd_check(args):
    if args.mode in ("sat", "sat-x"):
        f = parse(_read(args.formula))
        if args.mode == "sat-x":
            print("sat" if sat_x(f) else "unsat")
            return 0
        found = sat(f)
        print("sat" if found is not None else "unsat")
        if found is not None and args.witness:
            s, lasso = found
            _write(args.witness, format_kripke(s) + format_lasso(lasso, s))
        return 0
    inst = _mc_instance(args)
    if args.mode == "brute":
        print("true" if brute_mc(inst, args.bound) else "false")
        return 0
    if args.mode == "mc-x":
        print("true" if mc_x_bounded(inst) else "false")
        return 0
    counter = mc_counterexample(inst)
    print("true" if counter is None else "false")
    if counter is not None and args.witness:
        _write(args.witness, format_lasso(counter, inst.structure))
    return 0


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args):
    text = _read(args.input)
    family = args.family
    if family in ("pwsat", "pwsat-u"):
        found = solve_pwsat(parse_pwsat(text))
        print("sat" if found is not None else "unsat")
        if found is not None:
            sys.stdout.write(format_assignment(found))
    elif family in ("3sat-f", "3sat-x"):
        c = parse_cnf3(text)
        found = solve_cnf(c.clauses, c.nvars)
        print("sat" if found is not None else "unsat")
        if found is not None:
            sys.stdout.write(format_assignment(found))
    elif family.startswith("sqtile-"):
        found = solve_square_tiling(parse_square_tiling(text))
        print("tileable" if found is not None else "untileable")
        if found is not None:
            sys.stdout.write(format_cells(found))
    else:
        found = solve_rect_tiling(parse_rect_tiling(text), bound=args.bound)
        if found is None:
            print("untileable")
        else:
            m, cells = found
            print("tileable m=%d" % m)
            sys.stdout.write(format_cells(cells))
    return 0


# ---------------------------------------------------------------------------
# verify

def _parse_bound_args(pairs, args):
    allowed = {"vars", "clauses", "colors", "tiles", "k", "count", "seed"}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq or key not in allowed:
            raise _Usage("bad bound %r; use key=value with keys %s" % (pair, sorted(allowed)))
        try:
            setattr(args, key, int(value))
        except ValueError:
            raise _Usage("bound %r needs an integer" % pair) from None


def cmd_verify(args):
    _parse_bound_args(args.bounds, args)
    instances = verify_mod.family_instances(
        args.family,
        exhaustive=args.exhaustive,
        seed=args.seed,
        count=args.count,
        nvars=args.vars,
        clauses=args.clauses,
        colors=args.colors,
        tiles=args.tiles,
        k=args.k,
    )
    mode = "exhaustive" if args.exhaustive else "seeded"
    started = time.perf_counter()
    report = verify_mod.run_family(args.family, instances, mode, mutate=args.mutate)
    total = time.perf_counter() - started
    print(report.text())
    for row in report.rows:
        print("t#%d %.4f" % (row.index, row.seconds), file=sys.stderr)
    print("total %.4f (%d rows)" % (total, len(report.rows)), file=sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    top = argparse.ArgumentParser(
        prog="ltlwb",
        description="Temporal-logic workbench: analysis, reductions, checking, verification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report formula or structure parameters")
    p.add_argument("input", help="formula or structure file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("reduce", help="run a reduction and write its artifacts")
    p.add_argument("family", choices=sorted(_REDUCERS))
    p.add_argument("input", help="instance file")
    p.add_argument("outdir", help="directory for the emitted files")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("check", help="model-check or decide satisfiability")
    p.add_argument("mode", choices=("mc", "sat", "brute", "mc-x", "sat-x"))
    p.add_argument("--structure", help="structure file (mc modes)")
    p.add_argument("--formula", required=True, help="formula file")
    p.add_argument("--bound", type=int, default=12, help="lasso bound for brute")
    p.add_argument("--witness", help="write the witness lasso here")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("oracle", help="solve a source instance directly")
    p.add_argument("family", choices=sorted(_REDUCERS))
    p.add_argument("input", help="instance file")
    p.add_argument("--bound", type=int, default=None, help="rectangle height bound")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="oracle-versus-reduction sweep")
    p.add_argument("family", choices=verify_mod.FAMILIES)
    p.add_argument("bounds", nargs="*", help="key=value bounds, e.g. vars=2 clauses=2")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--vars", type=int, default=3)
    p.add_argument("--clauses", type=int, default=2)
    p.add_argument("--colors", type=int, default=2)
    p.add_argument("--tiles", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mutate", choices=("drop-conjunct",), default=None)
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv=None):
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "verify":
        # key=value bounds may appear before or after the flags
        args.bounds = list(args.bounds) + extra
    elif extra:
        parser.error("unrecognized arguments: %s" % " ".join(extra))
    if args.command == "check":
        if args.mode in ("mc", "brute", "mc-x") and not args.structure:
            parser.error("mode %s needs --structure" % args.mode)
    try:
        return args.fn(args)
    except _Usage as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except _FORMAT_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RuntimeError as e:
        # RecursionError included
        print("internal error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
