"""Instance families and the oracle-versus-reduction verification driver.

Every family pairs a brute-force oracle with a reduction and a checker
route; a run enumerates instances, solves each twice, and reports rows
that disagree.  Reports are deterministic for fixed bounds and seed;
timings ride along separately so the comparable payload stays stable.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from .checker import McInstance, mc_universal, sat
from .graphs import check_decomposition
from .instances import (
    Cnf3,
    PwSatInstance,
    RectTilingInstance,
    SquareTilingInstance,
)
from .oracles import (
    PWSAT_VAR_LIMIT,
    solve_cnf,
    solve_pwsat,
    solve_rect_tiling,
    solve_square_tiling,
)
from .reductions import (
    drop_conjunct,
    reduce_3sat_to_mc,
    reduce_pwsat_to_sat,
    reduce_recttiling_to_mc_u,
    reduce_recttiling_to_mc_xf,
    reduce_sqtiling_to_mc_t,
    reduce_sqtiling_to_mc_x,
)

_CERT_ORDER = ("td", "delta", "nvar", "width")  # how rows and `reduce` print them


# ---------------------------------------------------------------------------
# instance families

def _literals(nvars):
    out = []
    for v in range(1, nvars + 1):
        out.append(v)
        out.append(-v)
    return out


def _clause_pool(nvars):
    """All 3-literal clauses up to slot order."""
    return list(itertools.combinations_with_replacement(_literals(nvars), 3))


def cnf3_instances(nvars, max_clauses):
    """Every 3CNF with up to max_clauses clauses, deduplicated up to
    clause and slot order; shorter clauses arise from repeated slots."""
    pool = _clause_pool(nvars)
    for k in range(1, max_clauses + 1):
        for chosen in itertools.combinations_with_replacement(pool, k):
            yield Cnf3(nvars, list(chosen))


def _partitions(nvars, nblocks):
    """Set partitions of 1..nvars into exactly nblocks blocks, each block
    sorted, blocks ordered by smallest element."""
    if nblocks == 1:
        yield (tuple(range(1, nvars + 1)),)
        return
    items = list(range(1, nvars + 1))

    def grow(rest, blocks):
        if not rest:
            if len(blocks) == nblocks:
                yield tuple(tuple(b) for b in blocks)
            return
        head, tail = rest[0], rest[1:]
        for i in range(len(blocks)):
            blocks[i].append(head)
            yield from grow(tail, blocks)
            blocks[i].pop()
        if len(blocks) < nblocks:
            blocks.append([head])
            yield from grow(tail, blocks)
            blocks.pop()

    yield from grow(items, [])


def pwsat_instances(nvars, max_clauses, nblocks_choices=(1, 2)):
    """The cnf3 family crossed with every partition shape and capacity
    vector for the given block counts."""
    for cnf in cnf3_instances(nvars, max_clauses):
        for nblocks in nblocks_choices:
            for partition in _partitions(nvars, nblocks):
                ranges = [range(len(b) + 1) for b in partition]
                for caps in itertools.product(*ranges):
                    yield PwSatInstance(
                        nvars, list(cnf.clauses), list(partition), list(caps)
                    )


def _tile_pool(colors):
    return list(itertools.product(colors, repeat=4))


def square_instances(ncolors, max_tiles, k):
    colors = tuple("abc"[:ncolors])
    pool = _tile_pool(colors)
    for nd in range(1, max_tiles + 1):
        for tiles in itertools.product(pool, repeat=nd):
            yield SquareTilingInstance(colors, tiles, k)


def square_instances_seeded(ncolors, ntiles, k, count, seed):
    colors = tuple("abc"[:ncolors])
    rng = random.Random(seed)
    for _ in range(count):
        tiles = tuple(
            tuple(rng.choice(colors) for _ in range(4)) for _ in range(ntiles)
        )
        yield SquareTilingInstance(colors, tiles, k)


def rect_instances(ncolors, max_tiles):
    colors = tuple("abc"[:ncolors])
    pool = _tile_pool(colors)
    for nd in range(1, max_tiles + 1):
        for tiles in itertools.product(pool, repeat=nd):
            for top in colors:
                for bottom in colors:
                    yield RectTilingInstance(colors, tiles, top, bottom)


def rect_instances_seeded(ncolors, ntiles, count, seed):
    colors = tuple("abc"[:ncolors])
    rng = random.Random(seed)
    for _ in range(count):
        tiles = tuple(
            tuple(rng.choice(colors) for _ in range(4)) for _ in range(ntiles)
        )
        yield RectTilingInstance(
            colors, tiles, rng.choice(colors), rng.choice(colors)
        )


def cnf3_instances_seeded(nvars, nclauses, count, seed):
    rng = random.Random(seed)
    lits = _literals(nvars)
    for _ in range(count):
        clauses = [
            tuple(rng.choice(lits) for _ in range(3)) for _ in range(nclauses)
        ]
        yield Cnf3(nvars, clauses)


def pwsat_instances_seeded(nvars, nclauses, count, seed):
    rng = random.Random(seed)
    lits = _literals(nvars)
    for _ in range(count):
        clauses = [
            tuple(rng.choice(lits) for _ in range(3)) for _ in range(nclauses)
        ]
        nblocks = min(rng.choice((1, 2)), nvars)  # one variable fills one block
        partition = rng.choice(list(_partitions(nvars, nblocks)))
        caps = [rng.randint(0, len(b)) for b in partition]
        yield PwSatInstance(nvars, clauses, list(partition), caps)


# ---------------------------------------------------------------------------
# descriptions (canonical row identity, independent of timing)

def describe(inst):
    if isinstance(inst, Cnf3):
        return ";".join(",".join(str(l) for l in cl) for cl in inst.clauses)
    if isinstance(inst, PwSatInstance):
        clauses = ";".join(
            ",".join(str(l) for l in cl) for cl in inst.clauses
        )
        parts = "|".join(
            ",".join(str(v) for v in block) for block in inst.partitions
        )
        caps = ",".join(str(c) for c in inst.capacities)
        return "%s/p:%s/c:%s" % (clauses, parts, caps)
    if isinstance(inst, SquareTilingInstance):
        tiles = ",".join("".join(t) for t in inst.tiles)
        return "%s/k:%d" % (tiles, inst.k)
    if isinstance(inst, RectTilingInstance):
        tiles = ",".join("".join(t) for t in inst.tiles)
        return "%s/top:%s/bot:%s" % (tiles, inst.top, inst.bottom)
    raise TypeError("unknown instance %r" % (inst,))


# ---------------------------------------------------------------------------
# the driver

@dataclass
class VerifyRow:
    index: int
    instance: str
    source: str
    target: str
    agree: bool
    witness_ok: bool
    certificates: dict
    seconds: float

    def text(self):
        certs = " ".join(
            "%s=%d" % (k, self.certificates[k])
            for k in _CERT_ORDER
            if k in self.certificates
        )
        return "#%d %s source=%s target=%s witness=%s agree=%s %s" % (
            self.index,
            self.instance,
            self.source,
            self.target,
            "ok" if self.witness_ok else "bad",
            "yes" if self.agree else "no",
            certs,
        )


@dataclass
class VerifyReport:
    family: str
    mode: str
    mutate: str | None
    rows: list = field(default_factory=list)

    @property
    def disagreements(self):
        return sum(1 for r in self.rows if not r.agree)

    @property
    def bad_witnesses(self):
        return sum(1 for r in self.rows if not r.witness_ok)

    @property
    def passed(self):
        return self.disagreements == 0 and self.bad_witnesses == 0

    def text(self):
        head = "verify %s %s mutate=%s" % (
            self.family,
            self.mode,
            self.mutate or "none",
        )
        tail = "result: %d rows, %d disagree, %d bad-witness -> %s" % (
            len(self.rows),
            self.disagreements,
            self.bad_witnesses,
            "pass" if self.passed else "FAIL",
        )
        return "\n".join([head] + [r.text() for r in self.rows] + [tail])


def _mc_row(out, oracle_found, mutate):
    formula = out.mc.formula
    if mutate == "drop-conjunct":
        formula = drop_conjunct(formula)
    instance = McInstance(out.mc.structure, out.mc.world, formula)
    holds = mc_universal(instance)
    agree = holds == (not oracle_found)
    return ("true" if holds else "false"), agree


def _sat_row(out, oracle_found, mutate):
    formula = out.formula
    if mutate == "drop-conjunct":
        formula = drop_conjunct(formula)
    found = sat(formula)
    agree = (found is not None) == oracle_found
    return ("sat" if found is not None else "unsat"), agree


_RUNNERS = {
    "pwsat": (
        solve_pwsat,
        lambda inst: reduce_pwsat_to_sat(inst, {"F", "G"}),
        _sat_row,
        ("sat", "unsat"),
    ),
    "pwsat-u": (
        solve_pwsat,
        lambda inst: reduce_pwsat_to_sat(inst, {"U"}),
        _sat_row,
        ("sat", "unsat"),
    ),
    "3sat-f": (
        lambda c: solve_cnf(c.clauses, c.nvars),
        lambda c: reduce_3sat_to_mc(c, "F"),
        _mc_row,
        ("sat", "unsat"),
    ),
    "3sat-x": (
        lambda c: solve_cnf(c.clauses, c.nvars),
        lambda c: reduce_3sat_to_mc(c, "X"),
        _mc_row,
        ("sat", "unsat"),
    ),
    "sqtile-x": (
        solve_square_tiling,
        reduce_sqtiling_to_mc_x,
        _mc_row,
        ("tileable", "untileable"),
    ),
    "sqtile-f": (
        solve_square_tiling,
        lambda t: reduce_sqtiling_to_mc_t(t, "F"),
        _mc_row,
        ("tileable", "untileable"),
    ),
    "sqtile-g": (
        solve_square_tiling,
        lambda t: reduce_sqtiling_to_mc_t(t, "G"),
        _mc_row,
        ("tileable", "untileable"),
    ),
    "sqtile-u": (
        solve_square_tiling,
        lambda t: reduce_sqtiling_to_mc_t(t, "U"),
        _mc_row,
        ("tileable", "untileable"),
    ),
    "recttile-xf": (
        solve_rect_tiling,
        reduce_recttiling_to_mc_xf,
        _mc_row,
        ("tileable", "untileable"),
    ),
    "recttile-u": (
        solve_rect_tiling,
        reduce_recttiling_to_mc_u,
        _mc_row,
        ("tileable", "untileable"),
    ),
}

FAMILIES = tuple(_RUNNERS)


def run_family(family, instances, mode, mutate=None):
    """Oracle, reduction, checker, and witness check per instance."""
    if family not in _RUNNERS:
        raise ValueError("unknown family %r" % family)
    oracle, reducer, rowfn, (pos, neg) = _RUNNERS[family]
    report = VerifyReport(family=family, mode=mode, mutate=mutate)
    for idx, inst in enumerate(instances):
        started = time.perf_counter()
        found = oracle(inst) is not None
        out = reducer(inst)
        target, agree = rowfn(out, found, mutate)
        witness_ok = (
            check_decomposition(out.witness_graph, out.witness) == []
        )
        report.rows.append(
            VerifyRow(
                index=idx,
                instance=describe(inst),
                source=pos if found else neg,
                target=target,
                agree=agree,
                witness_ok=witness_ok,
                certificates=dict(out.certificates),
                seconds=time.perf_counter() - started,
            )
        )
    return report


def family_instances(family, *, exhaustive, seed=0, count=50, nvars=3,
                     clauses=2, colors=2, tiles=2, k=2):
    """Instance stream for a family, a full sweep within bounds or a seeded
    sample; out-of-range vars or colors raise ValueError before any draw."""
    if family.startswith(("pwsat", "3sat")) and nvars < 1:
        raise ValueError("vars must be at least 1, got %d" % nvars)
    if family.startswith("pwsat") and nvars > PWSAT_VAR_LIMIT:
        raise ValueError("vars must be at most the oracle's %d, got %d" % (PWSAT_VAR_LIMIT, nvars))
    if family.startswith(("sqtile-", "recttile-")) and not 1 <= colors <= 3:
        raise ValueError("colors must be 1, 2 or 3, got %d" % colors)
    if family in ("pwsat", "pwsat-u"):
        if exhaustive:
            return pwsat_instances(nvars, clauses)
        return pwsat_instances_seeded(nvars, clauses, count, seed)
    if family in ("3sat-f", "3sat-x"):
        if exhaustive:
            return cnf3_instances(nvars, clauses)
        return cnf3_instances_seeded(nvars, clauses, count, seed)
    if family.startswith("sqtile-"):
        if exhaustive:
            return square_instances(colors, tiles, k)
        return square_instances_seeded(colors, tiles, k, count, seed)
    if family.startswith("recttile-"):
        if exhaustive:
            return rect_instances(colors, tiles)
        return rect_instances_seeded(colors, tiles, count, seed)
    raise ValueError("unknown family %r" % family)
