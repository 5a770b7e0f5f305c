"""Kripke structures, lassos, path evaluation, and the text format."""

import collections
import random

import pytest

from ltlwb import (
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
    parse,
)
from ltlwb.checker import McInstance, _word_witness, mc_universal
from ltlwb.kripke import (
    KripkeFormatError,
    KripkeStructure,
    Lasso,
    branching_degree,
    compile_formula,
    eval_on_lasso,
    eval_word,
    format_kripke,
    format_lasso,
    parse_kripke,
    validate_lasso,
    validate_structure,
)
from helpers import random_formula


def loop_world(labels=("p",)):
    return KripkeStructure(["w"], [("w", "w")], {"w": labels}, "w")


def two_cycle():
    """a(p) -> b(q) -> a ..."""
    return KripkeStructure(
        ["a", "b"], [("a", "b"), ("b", "a")], {"a": ["p"], "b": ["q"]}, "a"
    )


def random_structure(rng, max_worlds=3, names=("p", "q")):
    n = rng.randint(1, max_worlds)
    worlds = ["w%d" % i for i in range(n)]
    edges = set()
    for i in range(n):
        k = rng.randint(1, n)
        for j in rng.sample(range(n), k):
            edges.add((worlds[i], worlds[j]))
    labels = {w: [p for p in names if rng.random() < 0.5] for w in worlds}
    return KripkeStructure(worlds, sorted(edges), labels, worlds[0])


def random_lasso(rng, s, max_len=5):
    """Random R-respecting lasso from a random start."""
    start = rng.randrange(len(s))
    walk = [start]
    for _ in range(rng.randint(0, max_len - 1)):
        walk.append(rng.choice(s.succ[walk[-1]]))
    # close a cycle back to some position whose predecessor allows it
    while True:
        tail = rng.choice(s.succ[walk[-1]])
        if tail in walk:
            k = walk.index(tail)
            return Lasso(walk[:k], walk[k:])
        walk.append(tail)


class TestStructure:
    def test_self_loop_valid(self):
        assert validate_structure(loop_world()) == []

    def test_non_total_reported(self):
        s = KripkeStructure(["w"], [], {}, "w")
        assert validate_structure(s) == ["non-total at world w"]

    def test_dangling_edge_reported(self):
        s = KripkeStructure(["w"], [("w", "w"), ("w", "v")], {}, "w")
        assert validate_structure(s) == ["dangling edge w v"]

    def test_duplicate_world_rejected(self):
        with pytest.raises(ValueError):
            KripkeStructure(["w", "w"], [], {}, "w")

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError):
            KripkeStructure(["w"], [], {}, "v")

    def test_multi_edges_deduplicated(self):
        s = KripkeStructure(["w"], [("w", "w"), ("w", "w")], {}, "w")
        assert s.succ == ((0,),)

    def test_branching_degree(self):
        assert branching_degree(loop_world()) == 1
        s = KripkeStructure(
            ["a", "b", "c"],
            [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c")],
            {},
            "a",
        )
        assert branching_degree(s) == 2


class TestLasso:
    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            Lasso([0], [])

    def test_validate_accepts_edges(self):
        validate_lasso(two_cycle(), Lasso([], [0, 1]))

    def test_validate_rejects_non_edge(self):
        with pytest.raises(ValueError):
            validate_lasso(two_cycle(), Lasso([], [0, 0]))

    def test_validate_rejects_bad_wrap(self):
        s = KripkeStructure(
            ["a", "b"], [("a", "b"), ("b", "b")], {}, "a"
        )
        with pytest.raises(ValueError):
            validate_lasso(s, Lasso([], [0, 1]))


class TestEval:
    def test_globally_on_loop(self):
        s = loop_world()
        assert eval_on_lasso(s, Lasso([], [0]), parse("G p")) is True

    def test_finally_negation_on_loop(self):
        s = loop_world()
        assert eval_on_lasso(s, Lasso([], [0]), parse("F !p")) is False

    def test_until_on_two_cycle(self):
        s = two_cycle()
        assert eval_on_lasso(s, Lasso([], [0, 1]), parse("p U q")) is True

    def test_next(self):
        s = two_cycle()
        assert eval_on_lasso(s, Lasso([], [0, 1]), parse("X q")) is True
        assert eval_on_lasso(s, Lasso([], [0, 1]), parse("X p")) is False

    def test_constants(self):
        s = loop_world()
        assert eval_on_lasso(s, Lasso([], [0]), parse("true")) is True
        assert eval_on_lasso(s, Lasso([], [0]), parse("F false")) is False

    def test_finally_needs_prefix_reachability(self):
        # p only on the prefix world; cycle never sees it again
        s = KripkeStructure(
            ["a", "b"], [("a", "b"), ("b", "b")], {"a": ["p"]}, "a"
        )
        assert eval_on_lasso(s, Lasso([0], [1]), parse("F p")) is True
        assert eval_on_lasso(s, Lasso([0], [1]), parse("G F p")) is False
        assert eval_on_lasso(s, Lasso([0], [1]), parse("X F p")) is False

    def test_invalid_lasso_rejected(self):
        with pytest.raises(ValueError):
            eval_on_lasso(two_cycle(), Lasso([], [0, 0]), parse("p"))

    def test_finally_globally_duality(self):
        rng = random.Random(101)
        for _ in range(300):
            s = random_structure(rng)
            lam = random_lasso(rng, s)
            f = random_formula(rng, rng.randint(1, 12))
            fin = eval_on_lasso(s, lam, parse("F (%s)" % f))
            glo = eval_on_lasso(s, lam, parse("!G !(%s)" % f))
            assert fin == glo

    def test_next_is_suffix(self):
        rng = random.Random(103)
        for _ in range(300):
            s = random_structure(rng)
            lam = random_lasso(rng, s)
            f = random_formula(rng, rng.randint(1, 10))
            shifted = _drop_first(lam)
            assert eval_on_lasso(s, lam, Next(f)) == eval_on_lasso(s, shifted, f)

    def test_until_expansion_law(self):
        rng = random.Random(107)
        for _ in range(200):
            s = random_structure(rng)
            lam = random_lasso(rng, s)
            a = random_formula(rng, rng.randint(1, 6))
            b = random_formula(rng, rng.randint(1, 6))
            lhs = parse("(%s) U (%s)" % (a, b))
            rhs = parse("(%s) | ((%s) & X ((%s) U (%s)))" % (b, a, a, b))
            assert eval_on_lasso(s, lam, lhs) == eval_on_lasso(s, lam, rhs)

    def test_stutter_invariance_without_next(self):
        rng = random.Random(109)
        checked = 0
        for _ in range(400):
            s = random_structure(rng)
            lam = random_lasso(rng, s)
            f = random_formula(rng, rng.randint(1, 10), ops="FGU")
            stuttered = _duplicate_position(rng, s, lam)
            if stuttered is None:
                continue
            checked += 1
            assert eval_on_lasso(s, lam, f) == eval_on_lasso(s, stuttered, f)
        assert checked > 100

    def test_agrees_with_tableau_on_words(self):
        # a word's chain structure has one path, so mc_universal decides the
        # same question through the tableau product, sharing no code
        rng = random.Random(113)
        outcomes = collections.Counter()

        def letters(n):
            return [frozenset(p for p in "pq" if rng.random() < 0.5) for _ in range(n)]

        for _ in range(1000):
            prefix, cycle = letters(rng.randint(0, 6)), letters(rng.randint(1, 12))
            s, lam = _word_witness(prefix, cycle)
            f = random_formula(rng, rng.randint(1, 10), names=("p", "q"))
            holds = eval_on_lasso(s, lam, f)
            assert holds == mc_universal(McInstance(s, 0, f)), (f, prefix, cycle)
            outcomes[holds] += 1
        assert min(outcomes.values()) >= 200


class TestEvalWord:
    @staticmethod
    def reference(f, letters, loop):
        """Truth of f at position 0, position by position from the
        semantics: position i's successor is i + 1, or loop after the last,
        so n steps from any position have seen all of its future."""
        n = len(letters)
        memo = {}

        def succ(i):
            return i + 1 if i + 1 < n else loop

        def until(a, b, i):
            for _ in range(n):
                if holds(b, i):
                    return True
                if not holds(a, i):
                    return False
                i = succ(i)
            return False

        def holds(g, i):
            key = (g, i)
            if key not in memo:
                if isinstance(g, Prop):
                    v = g.name in letters[i]
                elif isinstance(g, Top):
                    v = True
                elif isinstance(g, Bottom):
                    v = False
                elif isinstance(g, Not):
                    v = not holds(g.arg, i)
                elif isinstance(g, And):
                    v = holds(g.left, i) and holds(g.right, i)
                elif isinstance(g, Or):
                    v = holds(g.left, i) or holds(g.right, i)
                elif isinstance(g, Implies):
                    v = not holds(g.left, i) or holds(g.right, i)
                elif isinstance(g, Next):
                    v = holds(g.arg, succ(i))
                elif isinstance(g, Finally):
                    v = until(Top(), g.arg, i)
                elif isinstance(g, Globally):
                    v = not until(Top(), Not(g.arg), i)
                else:
                    v = until(g.left, g.right, i)
                memo[key] = v
            return memo[key]

        return holds(f, 0)

    def check_words(self, rng, count, lengths, size):
        outcomes = collections.Counter()
        for _ in range(count):
            n = rng.randint(*lengths)
            loop = rng.choice((0, n - 1, rng.randrange(n)))
            letters = [frozenset(p for p in "pq" if rng.random() < 0.6) for _ in range(n)]
            f = random_formula(rng, rng.randint(1, size), names=("p", "q"))
            got = eval_word(compile_formula(f), letters, loop)
            assert got is self.reference(f, letters, loop), (f, letters, loop)
            outcomes[got, loop == 0, loop == n - 1] += 1
        return outcomes

    def test_short_words_against_reference(self):
        # loop 0 is an empty prefix and loop n - 1 a cycle of one letter
        outcomes = self.check_words(random.Random(127), 3000, (1, 14), 12)
        for holds in (True, False):
            for shape in ((True, False), (False, True), (False, False)):
                assert outcomes[(holds, *shape)] >= 100

    def test_long_words_against_reference(self):
        self.check_words(random.Random(131), 6, (1900, 2100), 8)
        # one q at position 1500 of 2,000, after a run of 1,500 p: inside
        # the cycle for the first two loop points, in the prefix for the last
        letters = [frozenset("p")] * 2000
        letters[1500] = frozenset("q")
        for loop in (0, 1000, 1600):
            for text in ("p U q", "X (p U (q & X G p))", "F (q & X X p)", "G p", "!q U !p"):
                f = parse(text)
                got = eval_word(compile_formula(f), letters, loop)
                assert got is self.reference(f, letters, loop), (text, loop)

    def test_loop_outside_the_word_rejected(self):
        prog = compile_formula(parse("p"))
        for letters, loop in (([frozenset("p")], 1), ([frozenset("p")], -1), ([], 0)):
            with pytest.raises(ValueError):
                eval_word(prog, letters, loop)


def _drop_first(lam):
    if lam.prefix:
        return Lasso(lam.prefix[1:], lam.cycle)
    return Lasso([], lam.cycle[1:] + lam.cycle[:1])


def _duplicate_position(rng, s, lam):
    """Duplicate one walk position; valid only where the world has a self-loop."""
    walk = list(lam.positions())
    candidates = [k for k, w in enumerate(walk) if w in s.succ[w]]
    if not candidates:
        return None
    k = rng.choice(candidates)
    walk.insert(k, walk[k])
    split = len(lam.prefix) + (1 if k < len(lam.prefix) else 0)
    if k >= len(lam.prefix):
        # duplicating inside the cycle stretches the cycle
        return Lasso(walk[: len(lam.prefix)], walk[len(lam.prefix) :])
    return Lasso(walk[:split], walk[split:])


class TestTextFormat:
    SAMPLE = "# sample\nworld a p\nworld b q r\nedge a b\nedge b a\ninit a\n"

    def test_parse_sample(self):
        s = parse_kripke(self.SAMPLE)
        assert s.names == ("a", "b")
        assert s.labels == (frozenset({"p"}), frozenset({"q", "r"}))
        assert s.succ == ((1,), (0,))
        assert s.init == 0

    def test_roundtrip_is_stable(self):
        s = parse_kripke(self.SAMPLE)
        text = format_kripke(s)
        assert parse_kripke(text) == s
        assert format_kripke(parse_kripke(text)) == text

    def test_random_roundtrip(self):
        rng = random.Random(113)
        for _ in range(100):
            s = random_structure(rng, max_worlds=5)
            text = format_kripke(s)
            assert parse_kripke(text) == s
            assert format_kripke(parse_kripke(text)) == text

    def test_undeclared_edge_rejected(self):
        with pytest.raises(KripkeFormatError):
            parse_kripke("world a\nedge a b\ninit a\n")

    def test_missing_init_rejected(self):
        with pytest.raises(KripkeFormatError):
            parse_kripke("world a\nedge a a\n")

    def test_duplicate_world_rejected(self):
        with pytest.raises(KripkeFormatError):
            parse_kripke("world a\nworld a\ninit a\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(KripkeFormatError):
            parse_kripke("node a\ninit a\n")

    def test_lasso_roundtrip(self):
        s = parse_kripke(self.SAMPLE)
        assert format_lasso(Lasso([0], [1, 0]), s) == "prefix a\ncycle b a\n"

    def test_lasso_empty_prefix(self):
        s = parse_kripke(self.SAMPLE)
        assert format_lasso(Lasso([], [0, 1]), s) == "prefix\ncycle a b\n"
