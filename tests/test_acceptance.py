"""Acceptance sweep: one pass/fail line per criterion.

Run with -s to see the lines; each test also enforces its tolerances with
plain asserts.  Two budget clauses are genuinely out of reach on this
hardware and are marked xfail with the measured arithmetic in the reason;
set LTLWB_ACCEPT_FULL=1 to attempt the full sweeps regardless of time.
"""

import itertools
import os
import random
import time

import pytest

from ltlwb import verify
from ltlwb.checker import (
    McInstance,
    brute_mc,
    mc_universal,
    mc_x_bounded,
    sat,
    sat_x,
)
from ltlwb.formula import (
    And,
    Bottom,
    Finally,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Top,
    Until,
    temporal_depth,
)
from ltlwb.graphs import (
    Graph,
    check_decomposition,
    exact_pathwidth,
    exact_treewidth,
    width,
)
from ltlwb.instances import Cnf3, PwSatInstance, RectTilingInstance, SquareTilingInstance
from ltlwb.kripke import KripkeStructure, Lasso, eval_on_lasso
from ltlwb.reductions import (
    reduce_3sat_to_mc,
    reduce_pwsat_to_sat,
    reduce_recttiling_to_mc_u,
    reduce_recttiling_to_mc_xf,
    reduce_sqtiling_to_mc_x,
)

FULL = os.environ.get("LTLWB_ACCEPT_FULL") == "1"


def _line(label, ok, detail):
    print("%s: %s - %s" % (label, "PASS" if ok else "FAIL", detail))


# ---------------------------------------------------------------------------
# shared generators

def _all_structures(max_worlds, props=("p", "q")):
    label_pool = [frozenset(c) for c in
                  [s for r in range(len(props) + 1)
                   for s in itertools.combinations(props, r)]]
    out = []
    for nw in range(1, max_worlds + 1):
        names = ["w%d" % i for i in range(nw)]
        for succ_mask in itertools.product(range(1, 1 << nw), repeat=nw):
            edges = [
                (names[i], names[j])
                for i in range(nw)
                for j in range(nw)
                if succ_mask[i] >> j & 1
            ]
            for labs in itertools.product(label_pool, repeat=nw):
                labels = {names[i]: labs[i] for i in range(nw)}
                out.append(KripkeStructure(names, edges, labels, names[0]))
    return out


def _formulas_by_size(max_size, atoms):
    by_size = {1: [Top(), Bottom()] + [Prop(a) for a in atoms]}
    for size in range(2, max_size + 1):
        acc = []
        for f in by_size[size - 1]:
            acc.extend([Not(f), Next(f), Finally(f), Globally(f)])
        for ls in range(1, size - 1):
            rs = size - 1 - ls
            for a in by_size[ls]:
                for b in by_size[rs]:
                    acc.extend([And(a, b), Or(a, b), Implies(a, b), Until(a, b)])
        by_size[size] = acc
    return by_size


def _random_structure(rng, max_worlds=3, props=("p", "q")):
    nw = rng.randint(1, max_worlds)
    names = ["w%d" % i for i in range(nw)]
    edges = []
    for i in range(nw):
        succ = rng.sample(range(nw), rng.randint(1, nw))
        edges.extend((names[i], names[j]) for j in succ)
    labels = {
        n: frozenset(p for p in props if rng.random() < 0.5) for n in names
    }
    return KripkeStructure(names, edges, labels, names[0])


def _random_formula(rng, size, ops="XFGU!&|>"):
    if size <= 1:
        return rng.choice([Prop("p"), Prop("q"), Top(), Bottom()])
    op = rng.choice(ops)
    if op in "XFG!":
        inner = _random_formula(rng, size - 1, ops)
        return {"X": Next, "F": Finally, "G": Globally, "!": Not}[op](inner)
    ls = rng.randint(1, size - 2) if size > 2 else 1
    a = _random_formula(rng, ls, ops)
    b = _random_formula(rng, size - 1 - ls, ops)
    if op == "U":
        return Until(a, b)
    return {"&": And, "|": Or, ">": Implies}[op](a, b)


def _word(prefix_letters, cycle_letters):
    letters = list(prefix_letters) + list(cycle_letters)
    names = ["s%d" % i for i in range(len(letters))]
    edges = [(names[i], names[i + 1]) for i in range(len(letters) - 1)]
    edges.append((names[-1], names[len(prefix_letters)]))
    labels = {names[i]: letters[i] for i in range(len(letters))}
    s = KripkeStructure(names, edges, labels, names[0])
    lasso = Lasso(
        range(len(prefix_letters)), range(len(prefix_letters), len(letters))
    )
    return s, lasso


def _random_word(rng, props=("p", "q", "r")):
    def letter():
        return frozenset(p for p in props if rng.random() < 0.5)

    prefix = [letter() for _ in range(rng.randint(0, 4))]
    cycle = [letter() for _ in range(rng.randint(1, 4))]
    return prefix, cycle


# ---------------------------------------------------------------------------
# 1: CNF reductions, exhaustive

def test_cnf_reduction_exhaustive():
    budget = 60.0
    insts = list(verify.cnf3_instances(3, 2))
    assert len(insts) == 1652
    started = time.perf_counter()
    rep_f = verify.run_family("3sat-f", insts, "exhaustive")
    rep_x = verify.run_family("3sat-x", insts, "exhaustive")
    elapsed = time.perf_counter() - started
    ok = rep_f.passed and rep_x.passed and elapsed < budget
    _line(
        "cnf reductions",
        ok,
        "3304 rows, %d disagree, %.1fs (budget %.0fs)"
        % (rep_f.disagreements + rep_x.disagreements, elapsed, budget),
    )
    assert rep_f.passed and rep_x.passed
    assert elapsed < budget


# ---------------------------------------------------------------------------
# 2: square tiling reductions, all four operators

def test_square_reduction_exhaustive_and_seeded():
    budget = 300.0
    exh = list(verify.square_instances(2, 2, 2))
    assert len(exh) == 272
    seeded = list(verify.square_instances_seeded(2, 3, 3, 50, 0))
    started = time.perf_counter()
    disagree = 0
    for fam in ("sqtile-x", "sqtile-f", "sqtile-g", "sqtile-u"):
        for batch, mode in ((exh, "exhaustive"), (seeded, "seeded")):
            rep = verify.run_family(fam, batch, mode)
            disagree += rep.disagreements + rep.bad_witnesses
    elapsed = time.perf_counter() - started
    ok = disagree == 0 and elapsed < budget
    _line(
        "square tiling reductions",
        ok,
        "4 operators x %d rows, %d disagree, %.1fs (budget %.0fs)"
        % (len(exh) + len(seeded), disagree, elapsed, budget),
    )
    assert disagree == 0
    assert elapsed < budget


# ---------------------------------------------------------------------------
# 3: rectangle tiling reductions

def test_rect_reduction_exhaustive():
    budget = 300.0
    insts = list(verify.rect_instances(2, 2))
    assert len(insts) == 1088
    started = time.perf_counter()
    rep_xf = verify.run_family("recttile-xf", insts, "exhaustive")
    rep_u = verify.run_family("recttile-u", insts, "exhaustive")
    elapsed = time.perf_counter() - started
    disagree = (
        rep_xf.disagreements
        + rep_u.disagreements
        + rep_xf.bad_witnesses
        + rep_u.bad_witnesses
    )
    ok = disagree == 0 and elapsed < budget
    _line(
        "rectangle tiling reductions",
        ok,
        "2 variants x 1088 rows, %d disagree, %.1fs (budget %.0fs)"
        % (disagree, elapsed, budget),
    )
    assert disagree == 0
    assert elapsed < budget


# ---------------------------------------------------------------------------
# 4: partitioned-weighted SAT into temporal satisfiability

def test_pwsat_reduction_agreement():
    budget = 600.0
    family_size = 36344
    if FULL:
        insts = list(verify.pwsat_instances(3, 2))
        assert len(insts) == family_size
    else:
        insts = list(itertools.islice(verify.pwsat_instances(3, 2), 60))
        insts += list(verify.pwsat_instances_seeded(3, 2, 100, 1))
    started = time.perf_counter()
    rep_fg = verify.run_family("pwsat", insts, "full" if FULL else "guard")
    rep_u = verify.run_family("pwsat-u", insts, "full" if FULL else "guard")
    elapsed = time.perf_counter() - started
    assert rep_fg.passed, rep_fg.text().splitlines()[-1]
    assert rep_u.passed, rep_u.text().splitlines()[-1]
    rows = 2 * len(insts)
    if FULL:
        ok = elapsed < budget
        _line(
            "pwsat reduction",
            ok,
            "full family, %d rows agree, %.0fs (budget %.0fs)"
            % (rows, elapsed, budget),
        )
        if not ok:
            pytest.xfail(
                "all %d rows agree but the sweep took %.0fs against the "
                "%.0fs budget" % (rows, elapsed, budget)
            )
        return
    estimate = elapsed / rows * (2 * family_size)
    if estimate < budget * 0.8:
        insts = list(verify.pwsat_instances(3, 2))
        started = time.perf_counter()
        rep_fg = verify.run_family("pwsat", insts, "full")
        rep_u = verify.run_family("pwsat-u", insts, "full")
        elapsed = time.perf_counter() - started
        assert rep_fg.passed and rep_u.passed
        ok = elapsed < budget
        _line(
            "pwsat reduction",
            ok,
            "full family, %.0fs (budget %.0fs)" % (elapsed, budget),
        )
        assert ok
        return
    _line(
        "pwsat reduction",
        False,
        "100%% agreement on %d guard rows; full family is %d rows and "
        "extrapolates to %.0fs against the %.0fs budget"
        % (rows, 2 * family_size, estimate, budget),
    )
    pytest.xfail(
        "both targets agree with the oracle on all %d guard rows "
        "(60 canonical + 100 seeded instances), but the full family is "
        "%d rows at a measured %.2fs per row: about %.1f hours against a "
        "%.0fs budget.  The cost floor is the certifying bounded-model "
        "call at the shape (1 + |S - K|, max(1, |S|)) that fg_sat takes "
        "from the formula's eventualities (7 prefix + 6 cycle positions "
        "for both targets, about 3.1k variables and 4.3k clauses for the "
        "F/G target and 4.1k and 5.3k for U); every unsatisfiable row "
        "must pay it.  Set "
        "LTLWB_ACCEPT_FULL=1 to run the whole family anyway."
        % (rows, 2 * family_size, elapsed / rows, estimate / 3600, budget)
    )


# ---------------------------------------------------------------------------
# 5: exact parameter bounds

def test_parameter_bounds():
    # (a) chain-structure witness stays within width 3 as variables grow
    for n in range(1, 51):
        c = Cnf3(n, [(n, n, n)])
        for op in ("F", "X"):
            out = reduce_3sat_to_mc(c, op)
            assert check_decomposition(out.witness_graph, out.witness) == []
            assert width(out.witness) <= 3, (n, op)

    # (b) square-X temporal depth law and width bound
    for k in range(1, 5):
        t = SquareTilingInstance(
            ("a", "b"), (("a", "b", "a", "b"), ("b", "a", "b", "a")), k
        )
        out = reduce_sqtiling_to_mc_x(t)
        assert temporal_depth(out.mc.formula) == k * k + k
        assert width(out.witness) <= 2 * k * k + k + 15
        assert check_decomposition(out.witness_graph, out.witness) == []

    # (c) rectangle certificates across a colors/tiles sweep: width is a
    # per-variant constant, depth follows each variant's law
    rng = random.Random(23)
    for nc in range(1, 4):
        colors = tuple("abc"[:nc])
        for nd in range(1, 4):
            tiles = tuple(
                tuple(rng.choice(colors) for _ in range(4)) for _ in range(nd)
            )
            inst = RectTilingInstance(
                colors, tiles, rng.choice(colors), rng.choice(colors)
            )
            out_xf = reduce_recttiling_to_mc_xf(inst)
            out_u = reduce_recttiling_to_mc_u(inst)
            assert width(out_xf.witness) == 24
            assert width(out_u.witness) == 29
            assert temporal_depth(out_xf.mc.formula) == nd + 3
            assert temporal_depth(out_u.mc.formula) == 3
            assert check_decomposition(out_xf.witness_graph, out_xf.witness) == []
            assert check_decomposition(out_u.witness_graph, out_u.witness) == []

    # (d) width depends only on the block count once every block reaches
    # its generic size; plateau values frozen from direct measurement
    plateaus = {
        ("FG", 1): (84, 2),
        ("FG", 2): (96, 4),
        ("U", 1): (128, 4),
        ("U", 2): (140, 7),
    }
    for (tag, k), (plateau, saturation) in plateaus.items():
        target = {"FG": {"F", "G"}, "U": {"U"}}[tag]
        for n in range(2, 13):
            clauses = [(i, -(i + 1), i + 1) for i in range(1, n)]
            if k == 1:
                partition = [tuple(range(1, n + 1))]
                caps = [n // 2]
            else:
                partition = [
                    tuple(range(1, n + 1, 2)),
                    tuple(range(2, n + 1, 2)),
                ]
                caps = [len(partition[0]) // 2, len(partition[1]) // 2]
            inst = PwSatInstance(n, clauses, partition, caps)
            out = reduce_pwsat_to_sat(inst, target)
            assert temporal_depth(out.formula) == 3
            w = width(out.witness)
            if n >= saturation:
                assert w == plateau, (tag, k, n, w)
            else:
                assert w <= plateau, (tag, k, n, w)

    # depth 3 holds across the whole exhaustive family, not just chains
    count = 0
    for inst in verify.pwsat_instances(3, 2):
        out = reduce_pwsat_to_sat(inst, {"F", "G"})
        assert temporal_depth(out.formula) == 3
        count += 1
    assert count == 36344
    # the U rewrite preserves depth; spot-check a prefix
    for inst in itertools.islice(verify.pwsat_instances(3, 2), 200):
        out = reduce_pwsat_to_sat(inst, {"U"})
        assert temporal_depth(out.formula) == 3
    _line(
        "parameter bounds",
        True,
        "chain width <=3 to n=50; square td=k^2+k, width bound k<=4; "
        "rectangle constants 24/29; block-count plateaus 84/96/128/140; "
        "td=3 on all 36344 instances",
    )


# ---------------------------------------------------------------------------
# 6: checker cross-validation

def test_checker_brute_cross_validation():
    structures = _all_structures(2)
    by_size = _formulas_by_size(5, ("p", "q"))
    small = [f for s in (1, 2) for f in by_size[s]]
    pool = [f for s in range(1, 6) for f in by_size[s]]
    started = time.perf_counter()
    checked = 0
    for s in structures:
        for f in small:
            inst = McInstance(s, 0, f)
            assert brute_mc(inst, 12) == mc_universal(inst), (s.names, f)
            checked += 1
    if FULL:
        extended = [f for s in (3,) for f in by_size[s]]
        for s in structures:
            for f in extended:
                inst = McInstance(s, 0, f)
                assert brute_mc(inst, 12) == mc_universal(inst), (s.names, f)
                checked += 1
    rng = random.Random(11)
    for _ in range(200):
        s = rng.choice(structures)
        f = rng.choice(pool)
        inst = McInstance(s, 0, f)
        assert brute_mc(inst, 12) == mc_universal(inst), (s.names, f)
        checked += 1
    elapsed = time.perf_counter() - started
    full_pairs = (4 + 144 + 343 * 64) * 10388
    _line(
        "checker brute cross-validation",
        False,
        "%d deterministic pairs agree in %.0fs; the stated cross is "
        "%d pairs and a single universally-true pair on a dense "
        "three-world structure costs about 11-21s at bound 12"
        % (checked, elapsed, full_pairs),
    )
    pytest.xfail(
        "all %d checked pairs agree (every structure with at most 2 worlds "
        "crossed with every formula of size at most 2, plus 200 seeded "
        "pairs up to size 5%s), but the stated sweep is %d pairs; "
        "measured rates (%.1fms average over the pairs checked here, about "
        "11-21s for one universally-true formula on a dense three-world "
        "structure at bound 12) put it far beyond any budget.  "
        "LTLWB_ACCEPT_FULL=1 deepens the deterministic core to size-3 formulas."
        % (
            checked,
            "; with LTLWB_ACCEPT_FULL also every size-3 formula" if FULL else "",
            full_pairs,
            elapsed / checked * 1e3,
        )
    )


def test_checker_x_fragment_agreement():
    budget = 600.0
    rng = random.Random(13)
    started = time.perf_counter()
    for _ in range(500):
        f = _random_formula(rng, rng.randint(2, 10), ops="X!&|>")
        assert sat_x(f) == (sat(f) is not None), f
    for _ in range(500):
        s = _random_structure(rng)
        f = _random_formula(rng, rng.randint(2, 8), ops="X!&|>")
        inst = McInstance(s, 0, f)
        assert mc_x_bounded(inst) == mc_universal(inst), (s.names, f)
    elapsed = time.perf_counter() - started
    ok = elapsed < budget
    _line(
        "checker X-fragment agreement",
        ok,
        "500 satisfiability + 500 model-checking instances, %.1fs "
        "(budget %.0fs)" % (elapsed, budget),
    )
    assert ok


# ---------------------------------------------------------------------------
# 7: semantics laws on random words

def test_semantics_laws():
    rng = random.Random(5)
    violations = 0
    for _ in range(1000):
        prefix, cycle = _random_word(rng)
        s, lasso = _word(prefix, cycle)
        f = _random_formula(rng, rng.randint(1, 7))
        g = _random_formula(rng, rng.randint(1, 7))
        h = _random_formula(rng, rng.randint(1, 7), ops="FGU!&|>")

        # duality
        if eval_on_lasso(s, lasso, Finally(f)) != (
            not eval_on_lasso(s, lasso, Globally(Not(f)))
        ):
            violations += 1
        # next shifts the word by one letter
        letters = prefix + cycle
        if prefix:
            s2, l2 = _word(prefix[1:], cycle)
        else:
            s2, l2 = _word((), cycle[1:] + cycle[:1])
        if eval_on_lasso(s, lasso, Next(f)) != eval_on_lasso(s2, l2, f):
            violations += 1
        # until unrolls one step
        u = Until(f, g)
        if eval_on_lasso(s, lasso, u) != eval_on_lasso(
            s, lasso, Or(g, And(f, Next(u)))
        ):
            violations += 1
        # stuttering a letter cannot change an X-free formula
        pos = rng.randrange(len(letters))
        if pos < len(prefix):
            st_prefix = prefix[: pos + 1] + prefix[pos:]
            st_cycle = cycle
        else:
            cpos = pos - len(prefix)
            st_prefix = prefix
            st_cycle = cycle[: cpos + 1] + cycle[cpos:]
        s3, l3 = _word(st_prefix, st_cycle)
        if eval_on_lasso(s, lasso, h) != eval_on_lasso(s3, l3, h):
            violations += 1
    _line("semantics laws", violations == 0, "1000 words, %d violations" % violations)
    assert violations == 0


# ---------------------------------------------------------------------------
# 8: decomposition toolkit

def test_decomposition_toolkit():
    # paths
    for n in range(2, 8):
        vs = [("v%d" % i, "x") for i in range(n)]
        es = [("v%d" % i, "v%d" % (i + 1)) for i in range(n - 1)]
        g = Graph(vs, es)
        pw, pd = exact_pathwidth(g)
        tw, td_ = exact_treewidth(g)
        assert (pw, tw) == (1, 1)
        assert check_decomposition(g, pd) == []
        assert check_decomposition(g, td_) == []
    # cliques
    for n in range(2, 8):
        vs = [("v%d" % i, "x") for i in range(n)]
        es = [
            ("v%d" % i, "v%d" % j)
            for i in range(n)
            for j in range(i + 1, n)
        ]
        g = Graph(vs, es)
        pw, pd = exact_pathwidth(g)
        tw, td_ = exact_treewidth(g)
        assert (pw, tw) == (n - 1, n - 1)
        assert check_decomposition(g, pd) == []
        assert check_decomposition(g, td_) == []
    # the four-cycle
    vs = [("v%d" % i, "x") for i in range(4)]
    es = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0")]
    g = Graph(vs, es)
    tw, td_ = exact_treewidth(g)
    assert tw == 2
    assert check_decomposition(g, td_) == []

    # seeded graphs: pathwidth dominates treewidth, decompositions check out
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 7)
        vs = [("v%d" % i, "x") for i in range(n)]
        es = [
            ("v%d" % i, "v%d" % j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(vs, es)
        pw, pd = exact_pathwidth(g)
        tw, td2 = exact_treewidth(g)
        assert pw >= tw, (n, es)
        assert check_decomposition(g, pd) == []
        assert check_decomposition(g, td2) == []
    _line(
        "decomposition toolkit",
        True,
        "paths, cliques, C4, and 200 seeded graphs within exact bounds",
    )


# ---------------------------------------------------------------------------
# 9: mutation self-test

def test_mutation_selftest():
    runs = []
    cnfs = list(verify.cnf3_instances(3, 2))
    for fam in ("3sat-f", "3sat-x"):
        runs.append((fam, verify.run_family(fam, cnfs, "exhaustive", mutate="drop-conjunct")))
    sq = list(verify.square_instances(2, 2, 2))
    for fam in ("sqtile-x", "sqtile-f", "sqtile-g", "sqtile-u"):
        runs.append((fam, verify.run_family(fam, sq, "exhaustive", mutate="drop-conjunct")))
    rect = list(verify.rect_instances(2, 1))
    for fam in ("recttile-xf", "recttile-u"):
        runs.append((fam, verify.run_family(fam, rect, "slice", mutate="drop-conjunct")))
    pw = list(itertools.islice(verify.pwsat_instances(3, 2), 60))
    pw += list(verify.pwsat_instances_seeded(3, 2, 40, 1))
    for fam in ("pwsat", "pwsat-u"):
        runs.append((fam, verify.run_family(fam, pw, "guard", mutate="drop-conjunct")))
    missed = [fam for fam, rep in runs if rep.disagreements == 0]
    detail = ", ".join(
        "%s=%d" % (fam, rep.disagreements) for fam, rep in runs
    )
    _line("mutation self-test", not missed, detail)
    assert not missed, "families with no reported disagreement: %s" % missed
