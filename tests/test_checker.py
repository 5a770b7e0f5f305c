"""Satisfiability routing, bounded X checking, and the brute-force oracle."""

import collections
import random

import pytest

from ltlwb import And, Finally, Globally, Next, Not, Or, Prop, parse, fragment_of
from ltlwb.checker import (
    McInstance,
    brute_mc,
    exists_path,
    lassos_up_to,
    mc_counterexample,
    mc_universal,
    mc_x_bounded,
    sat,
    sat_x,
    until_top_to_finally,
)
from ltlwb.formula import subformulas
from ltlwb.kripke import KripkeStructure, Lasso, eval_on_lasso, validate_lasso

from helpers import random_formula


def self_loop(labels=()):
    return KripkeStructure(["a"], [("a", "a")], {"a": list(labels)}, "a")


def two_world_loop(labels_a):
    """a <-> b, with a labelled labels_a and b unlabelled."""
    return KripkeStructure(["a", "b"], [("a", "b"), ("b", "a")], {"a": labels_a}, "a")


def next_chain(depth):
    """X^depth p."""
    f = Prop("p")
    for _ in range(depth):
        f = Next(f)
    return f


def random_total_structure(rng, nworlds, names=("p", "q")):
    worlds = ["w%d" % i for i in range(nworlds)]
    edges = []
    for a in worlds:
        for b in rng.sample(worlds, rng.randint(1, nworlds)):
            edges.append((a, b))
    labels = {w: [n for n in names if rng.random() < 0.5] for w in worlds}
    return KripkeStructure(worlds, edges, labels, "w0")


class TestUntilTopRewrite:
    def test_rewrites_nested(self):
        f = parse("true U (p & (true U q))")
        assert str(until_top_to_finally(f)) == "F (p & F q)"

    def test_leaves_other_untils(self):
        f = parse("p U (true U q)")
        assert str(until_top_to_finally(f)) == "p U F q"

    def test_changes_fragment(self):
        assert fragment_of(until_top_to_finally(parse("true U p"))) == frozenset("F")


class TestSat:
    def test_eventually(self):
        s, lasso = sat(parse("F p"))
        assert eval_on_lasso(s, lasso, parse("F p"))

    def test_contradiction(self):
        assert sat(parse("p & !p")) is None

    def test_witnesses_revalidate(self):
        rng = random.Random(201)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 10))
            found = sat(f)
            if found is not None:
                s, lasso = found
                validate_lasso(s, lasso)
                assert eval_on_lasso(s, lasso, f)

    def test_unsat_means_no_small_word_model(self):
        rng = random.Random(202)
        checked = 0
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 7), names=("p",))
            if sat(f) is not None:
                continue
            checked += 1
            for prefix, cycle in _all_words(4, ("p",)):
                s, lasso = _word_structure(prefix, cycle)
                assert not eval_on_lasso(s, lasso, f)
        assert checked > 10

    def test_x_fragment_routes_through_flattening(self):
        s, lasso = sat(parse("X X p & !p & X !p"))
        assert eval_on_lasso(s, lasso, parse("X X p & !p & X !p"))
        assert sat(parse("X X p & X X !p")) is None

    def test_fg_route_on_large_formulas(self):
        names = ["d%d" % i for i in range(12)]
        chain = [Prop(names[0])]
        for a, b in zip(names, names[1:]):
            chain.append(Globally(parse("%s -> F %s" % (a, b))))
        f = parse("true")
        for part in chain:
            f = And(f, part)
        assert fragment_of(f) <= frozenset("FG")
        s, lasso = sat(f)
        assert eval_on_lasso(s, lasso, f)
        dead = And(f, Globally(Not(Prop(names[-1]))))
        dead = And(dead, parse("F %s" % names[-1]))
        assert sat(dead) is None

    def test_fg_formula_beyond_the_tableau(self):
        # 28 subformulas; the tableau product over a free world ran out of
        # memory on this formula, the {F,G} encoder decides it at once
        f = parse(
            "G F F (F (!(F false & q) -> p & r) & F G F G F G F (F G F F false | F F F p))"
        )
        assert len(subformulas(f)) == 28
        s, lasso = sat(f)
        assert eval_on_lasso(s, lasso, f)


def _word_structure(prefix_letters, cycle_letters):
    letters = list(prefix_letters) + list(cycle_letters)
    names = ["n%d" % i for i in range(len(letters))]
    edges = [(names[i], names[i + 1]) for i in range(len(letters) - 1)]
    edges.append((names[-1], names[len(prefix_letters)]))
    labels = {names[i]: sorted(letters[i]) for i in range(len(letters))}
    s = KripkeStructure(names, edges, labels, names[0])
    return s, Lasso(
        range(len(prefix_letters)), range(len(prefix_letters), len(letters))
    )


def _all_words(total, names):
    alphabet = []
    for mask in range(1 << len(names)):
        alphabet.append(frozenset(n for i, n in enumerate(names) if mask >> i & 1))
    for n in range(1, total + 1):
        for cyc in range(1, n + 1):
            for word in _tuples(alphabet, n):
                yield word[: n - cyc], word[n - cyc :]


def _tuples(alphabet, n):
    if n == 0:
        yield ()
        return
    for rest in _tuples(alphabet, n - 1):
        for a in alphabet:
            yield rest + (a,)


class TestSatX:
    def test_same_depth_clash(self):
        assert not sat_x(parse("X p & X !p"))

    def test_distinct_depths(self):
        assert sat_x(parse("X p & !p"))

    def test_rejects_other_fragments(self):
        with pytest.raises(ValueError):
            sat_x(parse("F p"))

    def test_agrees_with_sat(self):
        rng = random.Random(203)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 9), ops="X")
            assert sat_x(f) == (sat(f) is not None)


class TestMcUniversal:
    def test_globally_on_loop(self):
        assert mc_universal(McInstance(self_loop(["p"]), 0, parse("G p")))

    def test_eventually_not(self):
        assert not mc_universal(McInstance(self_loop(["p"]), 0, parse("F !p")))

    def test_counterexample_falsifies(self):
        rng = random.Random(204)
        hit = 0
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 8))
            s = random_total_structure(rng, rng.randint(1, 4))
            i = McInstance(s, 0, f)
            cex = mc_counterexample(i)
            assert (cex is None) == mc_universal(i)
            if cex is not None:
                hit += 1
                validate_lasso(s, cex)
                assert not eval_on_lasso(s, cex, f)
        assert hit > 50

    def test_conjunction_monotone(self):
        rng = random.Random(205)
        for _ in range(100):
            s = random_total_structure(rng, rng.randint(1, 3))
            f = random_formula(rng, rng.randint(1, 5))
            g = random_formula(rng, rng.randint(1, 5))
            if mc_universal(McInstance(s, 0, f)) and mc_universal(McInstance(s, 0, g)):
                assert mc_universal(McInstance(s, 0, And(f, g)))

    def test_rejects_invalid_structure(self):
        s = KripkeStructure(["a", "b"], [("a", "b")], {}, "a")
        with pytest.raises(ValueError):
            mc_universal(McInstance(s, 0, parse("p")))

    def test_exists_path_duality(self):
        rng = random.Random(206)
        for _ in range(100):
            s = random_total_structure(rng, rng.randint(1, 3))
            f = random_formula(rng, rng.randint(1, 6))
            i = McInstance(s, 0, f)
            assert mc_universal(i) == (exists_path(s, 0, Not(f)) is None)

    def test_deep_next_holds(self):
        # nesting far beyond the interpreter's recursion limit
        assert mc_universal(McInstance(self_loop(["p"]), 0, next_chain(10000)))

    def test_deep_next_counterexample(self):
        # the counterexample is revalidated with eval_on_lasso before it is
        # returned, which is most of this test's time
        assert mc_counterexample(McInstance(self_loop(), 0, next_chain(2000))) is not None

    def test_deep_disjunction_under_globally(self):
        # G(q | (q | ... | p)) nested 10^4 deep: b reads neither q nor p
        f = Prop("p")
        for _ in range(10000):
            f = Or(Prop("q"), f)
        assert not mc_universal(McInstance(two_world_loop(["q"]), 0, Globally(f)))

    def test_deep_conjunction_never_eventually(self):
        # !F(q & (q & ... & p)) nested 10^4 deep: p holds nowhere
        f = Prop("p")
        for _ in range(10000):
            f = And(Prop("q"), f)
        assert mc_universal(McInstance(two_world_loop(["q"]), 0, Not(Finally(f))))


class TestMcXBounded:
    def test_next_on_chain(self):
        s = KripkeStructure(["a", "b"], [("a", "b"), ("b", "b")], {"b": ["p"]}, "a")
        assert mc_x_bounded(McInstance(s, 0, parse("X p")))

    def test_depth_zero(self):
        assert not mc_x_bounded(McInstance(self_loop(), 0, parse("p")))

    def test_rejects_other_fragments(self):
        with pytest.raises(ValueError):
            mc_x_bounded(McInstance(self_loop(), 0, parse("G p")))

    def test_agrees_with_mc_universal(self):
        rng = random.Random(207)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 7), ops="X")
            s = random_total_structure(rng, rng.randint(1, 4))
            i = McInstance(s, 0, f)
            assert mc_x_bounded(i) == mc_universal(i)


class TestBruteMc:
    def test_top_any_bound(self):
        for bound in (1, 3, 7):
            assert brute_mc(McInstance(self_loop(), 0, parse("true")), bound)

    def test_eventually_missing(self):
        assert not brute_mc(McInstance(self_loop(), 0, parse("F p")), 1)

    def test_bound_positive(self):
        with pytest.raises(ValueError):
            brute_mc(McInstance(self_loop(), 0, parse("p")), 0)

    def test_lasso_enumeration_is_exhaustive(self):
        # two worlds, full relation: count lassos of total length <= 3
        s = KripkeStructure(
            ["a", "b"],
            [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")],
            {},
            "a",
        )
        seen = set()
        for walk, j in lassos_up_to(s, 0, 3):
            assert walk[j] in s.succ[walk[-1]]
            seen.add((walk, j))
        # walks of length 1, 2, 3 from a: 1 + 2 + 4; closings at every split
        assert ((0,), 0) in seen
        assert ((0, 1), 1) in seen
        assert ((0, 1, 0), 2) in seen
        assert len(seen) == 1 + 2 * 2 + 4 * 3

    def test_agrees_with_mc_universal(self):
        rng = random.Random(208)
        for _ in range(150):
            f = random_formula(rng, rng.randint(1, 5))
            s = random_total_structure(rng, rng.randint(1, 3))
            i = McInstance(s, 0, f)
            assert brute_mc(i, 8) == mc_universal(i)

    def test_agrees_with_mc_universal_on_three_worlds(self):
        rng = random.Random(211)
        answers = collections.Counter()
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 9), names=("p", "q"))
            i = McInstance(random_total_structure(rng, 3), 0, f)
            answer = mc_universal(i)
            assert brute_mc(i, 8) == answer, f
            answers[answer] += 1
        assert min(answers.values()) >= 40
