"""The four benchmark workloads, each a fixed round of row operations.

A row is one unit of user work: a verify row (oracle, reduction, checker,
witness check through verify.run_family), a cross-validation pair (brute_mc
and mc_universal on one structure and formula) or an emitted reduction
(reducer, the text `ltlwb reduce` writes, parsing the formula back,
check_decomposition).  Building a workload is the benchmark's set-up; it
makes every input from the seed and classifies it, with the deciders in
checks.py or, for brute pairs, with mc_universal.

Row cost varies by 10x and more from one instance to the next, so freshly
drawn verify rows and brute pairs moved the median row by 15-25 % between
seeds.  Those workloads draw a fixed pool once with seed 0, with fixed
counts per stratum, and the seed renames every instance of it (colours and
tile order, variables and clause order, the propositions p and q): other
input text, the same problems up to names.  reduce-emit, whose row cost
follows the instance size, draws fresh instances from the seed.  README.md
gives the make-up of every round.

Each row is a Row: run() does the program's work and is timed; check(out)
returns (verdict, problems) and is not.  A row fails when run() raises or
check() reports a problem.
"""

from __future__ import annotations

import itertools
import math
import random

import checks

SQ_FAMILIES = ("sqtile-x", "sqtile-f", "sqtile-g", "sqtile-u")
RECT_FAMILIES = ("recttile-xf", "recttile-u")
PW_FAMILIES = ("pwsat", "pwsat-u")
ALL_FAMILIES = ("3sat-f", "3sat-x") + PW_FAMILIES + SQ_FAMILIES + RECT_FAMILIES

BRUTE_BOUND = 12


class Row:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


class Workload:
    """rows: one round; tail_pct: the percentile row_ms_tail reports, the
    highest whole one with at least ten rows of one round beyond it."""

    def __init__(self, rows):
        self.rows = rows
        n = len(rows)
        self.tail_pct = max(p for p in range(1, 100) if n - math.ceil(p * n / 100) >= 10)


def _pick(stream, decide, n_yes, n_no):
    """The first n_yes instances of stream that decide() accepts and the
    first n_no it rejects, as (instance, answer) pairs in stream order."""
    want = {True: n_yes, False: n_no}
    out = []
    for inst in stream:
        answer = decide(inst)
        if want[answer]:
            want[answer] -= 1
            out.append((inst, answer))
            if not any(want.values()):
                return out
    raise ValueError("stream ended before the quotas were met")


def td_law(family, inst):
    """Temporal depth each construction promises for its emitted formula."""
    if family in ("pwsat", "pwsat-u", "recttile-u"):
        return 3
    if family == "recttile-xf":
        return len(inst.tiles) + 3
    if family == "sqtile-x":
        return inst.k * inst.k + inst.k
    if family in ("sqtile-f", "sqtile-g", "sqtile-u"):
        return 2
    if family == "3sat-f":
        return 1
    return max(abs(l) for cl in inst.clauses for l in cl)  # 3sat-x


def emitted_formula(out):
    return out.formula if out.mc is None else out.mc.formula


def reduction_problems(family, inst, out, certs):
    """Independent checks of one reduction's output against certs: the
    depth law, td/nvar from the harness's own walk, the witness as a path
    decomposition of its graph, and its width."""
    problems = []
    td, nprops, _ = checks.formula_measures(emitted_formula(out))
    if td != td_law(family, inst):
        problems.append("td %d breaks the %s law %d" % (td, family, td_law(family, inst)))
    if certs.get("td") != td:
        problems.append("td certificate %s, walk says %d" % (certs.get("td"), td))
    if certs.get("nvar") != nprops:
        problems.append("nvar certificate %s, walk says %d" % (certs.get("nvar"), nprops))
    g, d = out.witness_graph, out.witness
    edges = [(g.names[a], g.names[b]) for a, b in g.edges]
    problems += checks.path_decomposition_problems(g.names, edges, d.bags, d.links)
    if d.bags and certs.get("width") != checks.bag_width(d.bags):
        problems.append("width certificate %s, bags give %d"
                        % (certs.get("width"), checks.bag_width(d.bags)))
    return problems


# ---------------------------------------------------------------------------
# verify rows: mc-tiling and sat-pwsat

def _verify_rows(ltlwb, cases):
    """cases: (family, instance, source answer from checks.py).  The
    reduction is run once more per row, untimed, for the witness checks."""
    verify = ltlwb.verify
    rows = []
    for family, inst, found in cases:
        pos, neg = verify._RUNNERS[family][3]
        source = pos if found else neg
        if family in PW_FAMILIES:
            target = "sat" if found else "unsat"
        else:
            target = "false" if found else "true"
        expected = {}

        def run(family=family, inst=inst):
            return verify.run_family(family, [inst], "bench").rows[0]

        def check(row, family=family, inst=inst, source=source, target=target,
                  expected=expected):
            problems = []
            if row.source != source:
                problems.append("source %s, checks.py says %s" % (row.source, source))
            if row.target != target:
                problems.append("target %s, expected %s" % (row.target, target))
            if not row.agree:
                problems.append("row reports a disagreement")
            if not row.witness_ok:
                problems.append("row reports a bad witness")
            if not expected:
                out = verify._RUNNERS[family][1](inst)
                expected["certs"] = dict(out.certificates)
                expected["problems"] = reduction_problems(family, inst, out, out.certificates)
            problems += expected["problems"]
            if row.certificates != expected["certs"]:
                problems.append("row certificates %s differ from the reduction's %s"
                                % (row.certificates, expected["certs"]))
            return (family, row.instance, row.source, row.target, row.agree), problems

        rows.append(Row(family, run, check))
    return rows


def renamed_tiling(inst, rng):
    """inst with its colours renamed by a random permutation and its tiles
    in a random order: the same problem up to names."""
    perm = dict(zip(inst.colors, rng.sample(inst.colors, len(inst.colors))))
    tiles = [tuple(perm[c] for c in t) for t in inst.tiles]
    rng.shuffle(tiles)
    if hasattr(inst, "k"):
        return type(inst)(inst.colors, tiles, inst.k)
    return type(inst)(inst.colors, tiles, perm[inst.top], perm[inst.bottom])


def renamed_pwsat(inst, rng):
    """inst with its variables renamed by a random permutation and its
    clauses in a random order: the same problem up to names."""
    perm = list(range(1, inst.nvars + 1))
    rng.shuffle(perm)
    perm = [0] + perm
    clauses = [tuple(perm[abs(l)] * (1 if l > 0 else -1) for l in cl) for cl in inst.clauses]
    rng.shuffle(clauses)
    blocks = [tuple(perm[v] for v in b) for b in inst.partitions]
    return type(inst)(inst.nvars, clauses, blocks, inst.capacities)


def _variants(pool, rename, decide, seed):
    """The seed's variant of every (instance, answer) of pool, each checked
    to keep its answer."""
    rng = random.Random(seed)
    out = []
    for inst, answer in pool:
        variant = rename(inst, rng)
        if decide(variant) != answer:
            raise AssertionError("renaming changed the answer of %r" % (inst,))
        out.append((variant, answer))
    return out


def mc_tiling(ltlwb, seed):
    verify = ltlwb.verify

    def sq(t):
        return checks.square_tileable(t.tiles, t.k)

    def rect(t):
        return checks.rect_tileable(t.tiles, t.top, t.bottom)

    big = 10 ** 6
    sq_pool = (_pick(verify.square_instances_seeded(2, 3, 3, big, 0), sq, 4, 2)
               + _pick(verify.square_instances_seeded(2, 3, 2, big, 0), sq, 24, 6))
    rect_pool = (_pick(verify.rect_instances_seeded(2, 2, big, 0), rect, 2, 2)
                 + _pick(verify.rect_instances_seeded(2, 1, big, 0), rect, 5, 15))
    cases = [
        (fam, inst, found)
        for group, fams in ((_variants(sq_pool, renamed_tiling, sq, seed), SQ_FAMILIES),
                            (_variants(rect_pool, renamed_tiling, rect, seed), RECT_FAMILIES))
        for inst, found in group
        for fam in fams
    ]
    return Workload(_verify_rows(ltlwb, cases))


def sat_pwsat(ltlwb, seed):
    verify = ltlwb.verify

    def decide(i):
        return checks.pwsat_satisfiable(i.nvars, i.clauses, i.partitions, i.capacities)

    # the unsatisfiable instance is not renamed: which variable its clause
    # names moves the program's peak memory by up to 10 % (66-73 MiB)
    unsat = _pick(verify.pwsat_instances(3, 2), decide, 0, 1)
    sat = _pick(verify.pwsat_instances_seeded(3, 2, 10 ** 6, 0), decide, 19, 0)
    cases = [(fam, inst, found)
             for inst, found in unsat + _variants(sat, renamed_pwsat, decide, seed)
             for fam in PW_FAMILIES]
    return Workload(_verify_rows(ltlwb, cases))


# ---------------------------------------------------------------------------
# brute-xval

def all_structures(ltlwb, props=("p", "q")):
    """Every structure with one or two worlds over props, initial world w0,
    in the order tests/test_acceptance.py enumerates them."""
    KripkeStructure = ltlwb.kripke.KripkeStructure
    letters = [frozenset(c) for r in range(len(props) + 1)
               for c in itertools.combinations(props, r)]
    out = []
    for nw in (1, 2):
        names = ["w%d" % i for i in range(nw)]
        for masks in itertools.product(range(1, 1 << nw), repeat=nw):
            edges = [(names[i], names[j]) for i in range(nw) for j in range(nw)
                     if masks[i] >> j & 1]
            for labs in itertools.product(letters, repeat=nw):
                out.append(KripkeStructure(names, edges, dict(zip(names, labs)), names[0]))
    return out


def formulas_by_size(ltlwb, max_size, atoms=("p", "q")):
    """size -> every formula of that many nodes over atoms, built the way
    tests/test_acceptance.py builds them."""
    f = ltlwb.formula
    by_size = {1: [f.Top(), f.Bottom()] + [f.Prop(a) for a in atoms]}
    for size in range(2, max_size + 1):
        acc = []
        for a in by_size[size - 1]:
            acc += [f.Not(a), f.Next(a), f.Finally(a), f.Globally(a)]
        for ls in range(1, size - 1):
            for a in by_size[ls]:
                for b in by_size[size - 1 - ls]:
                    acc += [f.And(a, b), f.Or(a, b), f.Implies(a, b), f.Until(a, b)]
        by_size[size] = acc
    return by_size


# (worlds, edges, answer) -> pairs per round.  The first two strata are
# the costly ones, where brute_mc must enumerate every lasso of a dense
# structure.
BRUTE_QUOTAS = {
    (2, 4, True): 2, (2, 3, True): 24,
    (1, 1, False): 20, (1, 1, True): 20,
    (2, 2, False): 120, (2, 2, True): 120,
    (2, 3, False): 120, (2, 4, False): 120,
}


def _brute_pairs(ltlwb, groups, pool, quotas, seed):
    """Pairs for each (worlds, edges, answer) quota: structures and
    formulas drawn at random from the group, answer by mc_universal."""
    checker = ltlwb.checker
    rng = random.Random(seed)
    pairs = []
    for (nw, ne, answer), n in sorted(quotas.items()):
        got = 0
        while got < n:
            inst = checker.McInstance(rng.choice(groups[(nw, ne)]), 0, rng.choice(pool))
            if checker.mc_universal(inst) == answer:
                pairs.append(inst)
                got += 1
    return pairs


def renamed_pair(ltlwb, inst, rng):
    """inst, or with even odds inst with p and q swapped in the structure's
    labels and in the formula: the same problem up to names."""
    if rng.random() < 0.5:
        return inst
    f, s = ltlwb.formula, inst.structure
    swap = {"p": "q", "q": "p"}

    def rename(g):
        if isinstance(g, f.Prop):
            return f.Prop(swap.get(g.name, g.name))
        kids = g.children()
        return type(g)(*map(rename, kids)) if kids else g

    labels = {n: [swap.get(a, a) for a in lab] for n, lab in zip(s.names, s.labels)}
    edges = [(s.names[a], s.names[b]) for a, succ in enumerate(s.succ) for b in succ]
    structure = ltlwb.kripke.KripkeStructure(s.names, edges, labels, s.names[s.init])
    return ltlwb.checker.McInstance(structure, inst.world, rename(inst.formula))


def brute_xval(ltlwb, seed):
    checker = ltlwb.checker
    groups = {}
    for s in all_structures(ltlwb):
        groups.setdefault((len(s), sum(map(len, s.succ))), []).append(s)
    pool = [f for fs in formulas_by_size(ltlwb, 4).values() for f in fs]
    rng = random.Random(seed)
    pairs = [renamed_pair(ltlwb, inst, rng)
             for inst in _brute_pairs(ltlwb, groups, pool, BRUTE_QUOTAS, 0)]

    def run_pair(inst):
        return checker.brute_mc(inst, BRUTE_BOUND), checker.mc_universal(inst)

    def check(out):
        brute, tableau = out
        return out, ([] if brute == tableau else
                     ["brute_mc says %s, mc_universal says %s" % out])

    rows = [Row("pair", lambda inst=inst: run_pair(inst), check) for inst in pairs]
    return Workload(rows)


# ---------------------------------------------------------------------------
# reduce-emit

def _pwsat_large(ltlwb, rng, nvars):
    """Random instance with nvars clauses, one or two blocks and random
    capacities; verify's generator lists every partition first, which does
    not scale to these sizes."""
    lits = [v * s for v in range(1, nvars + 1) for s in (1, -1)]
    clauses = [tuple(rng.choice(lits) for _ in range(3)) for _ in range(nvars)]
    if rng.random() < 0.5:
        blocks = [tuple(range(1, nvars + 1))]
    else:
        cut = set(rng.sample(range(1, nvars + 1), nvars // 2))
        blocks = [tuple(sorted(cut)), tuple(v for v in range(1, nvars + 1) if v not in cut)]
    caps = [rng.randint(0, len(b)) for b in blocks]
    return ltlwb.instances.PwSatInstance(nvars, clauses, blocks, caps)


# family -> six sizes, one instance of each per round: variables for 3sat
# (20 clauses) and pwsat (as many clauses), (k, tiles) for squares and
# (tiles, colours) for rectangles.  Distinct sizes spread the row costs
# evenly, so the median row does not sit in a gap between size classes.
_CNF_SIZES = (50, 100, 150, 200, 250, 300)
_PW_SIZES = (4, 8, 12, 16, 20, 24)
_SQ_SIZES = ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3))
_RECT_SIZES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
EMIT_SIZES = {
    "3sat-f": _CNF_SIZES,
    "3sat-x": _CNF_SIZES,
    **{family: _PW_SIZES for family in PW_FAMILIES},
    **{family: _SQ_SIZES for family in SQ_FAMILIES},
    **{family: _RECT_SIZES for family in RECT_FAMILIES},
}
EMIT_CLAUSES = 20


def _emit_instance(ltlwb, rng, family, size):
    verify = ltlwb.verify
    s = rng.randrange(1 << 30)
    if family.startswith("3sat"):
        return next(verify.cnf3_instances_seeded(size, EMIT_CLAUSES, 1, s))
    if family.startswith("pwsat"):
        return _pwsat_large(ltlwb, rng, size)
    if family.startswith("sqtile"):
        k, tiles = size
        return next(verify.square_instances_seeded(2, tiles, k, 1, s))
    tiles, colours = size
    return next(verify.rect_instances_seeded(colours, tiles, 1, s))


def reduce_emit(ltlwb, seed):
    verify, cli = ltlwb.verify, ltlwb.cli
    formula, graphs, kripke, parser = ltlwb.formula, ltlwb.graphs, ltlwb.kripke, ltlwb.parser
    rng = random.Random(seed)
    rows = []
    for family in ALL_FAMILIES:
        for size in EMIT_SIZES[family]:
            inst = _emit_instance(ltlwb, rng, family, size)

            def run(family=family, inst=inst):
                out = verify._RUNNERS[family][1](inst)
                # what `ltlwb reduce` writes: formula, structure, witness, certificate
                formula_text = formula.format_formula(emitted_formula(out))
                if out.mc is not None:
                    kripke.format_kripke(out.mc.structure)
                graphs.format_decomposition(out.witness)
                cli._cert_text(out.certificates)
                back = parser.parse(formula_text)
                problems = graphs.check_decomposition(out.witness_graph, out.witness)
                return out, back, problems

            def check(result, family=family, inst=inst):
                out, back, program_problems = result
                certs = dict(out.certificates)
                problems = ["check_decomposition: %s" % p for p in program_problems]
                if back != emitted_formula(out):
                    problems.append("parse(format_formula(f)) != f")
                problems += reduction_problems(family, inst, out, certs)
                return (family, sorted(certs.items()), back == emitted_formula(out)), problems

            rows.append(Row(family, run, check))
    return Workload(rows)


WORKLOADS = {
    "mc-tiling": mc_tiling,
    "sat-pwsat": sat_pwsat,
    "brute-xval": brute_xval,
    "reduce-emit": reduce_emit,
}
