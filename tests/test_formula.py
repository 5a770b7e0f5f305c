"""Formula AST, parser/printer, and structural measures."""

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
    NotExpressible,
    Or,
    ParseError,
    Prop,
    Top,
    Until,
    ast_size,
    fragment_of,
    nvar,
    parse,
    rewrite_fragment,
    subformulas,
    temporal_depth,
)
from helpers import random_formula


class TestParse:
    def test_simple_until_under_finally(self):
        assert parse("F (p U q)") == Finally(Until(Prop("p"), Prop("q")))

    def test_dangling_binary_operator(self):
        with pytest.raises(ParseError):
            parse("p &")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse("p + q")

    def test_precedence_levels(self):
        f = parse("!p & q U r | s -> t")
        expected = Implies(
            Or(And(Not(Prop("p")), Until(Prop("q"), Prop("r"))), Prop("s")), Prop("t")
        )
        assert f == expected

    def test_until_right_associative(self):
        assert parse("p U q U r") == Until(Prop("p"), Until(Prop("q"), Prop("r")))
        assert parse("(p U q) U r") == Until(Until(Prop("p"), Prop("q")), Prop("r"))

    def test_implies_right_associative(self):
        assert parse("a -> b -> c") == Implies(Prop("a"), Implies(Prop("b"), Prop("c")))

    def test_and_left_associative(self):
        assert parse("a & b & c") == And(And(Prop("a"), Prop("b")), Prop("c"))

    def test_unary_chain(self):
        assert parse("X F G !p") == Next(Finally(Globally(Not(Prop("p")))))

    def test_deep_prefix_chain(self):
        f = parse("X " * 10000 + "p")
        assert temporal_depth(f) == 10000
        for _ in range(10000):
            assert type(f) is Next
            f = f.arg
        assert f == Prop("p")

    def test_deep_until_and_implies_chains(self):
        # right-nested chains far beyond the interpreter's recursion limit
        for op, cls in (("U", Until), ("->", Implies)):
            want = Prop("p")
            for _ in range(10000):
                want = cls(Prop("p"), want)
            assert parse(("p %s " % op) * 10000 + "p") == want

    def test_constants(self):
        assert parse("true U false") == Until(Top(), Bottom())

    def test_identifier_alphabet(self):
        f = parse("c^2_up & q' & _x0")
        assert nvar(f) == 3
        assert parse(str(f)) == f

    def test_keyword_needs_exact_match(self):
        # Xp is a proposition name, not X applied to p
        assert parse("Xp") == Prop("Xp")
        assert parse("X p") == Next(Prop("p"))

    def test_roundtrip_random(self):
        rng = random.Random(20260815)
        for _ in range(1000):
            f = random_formula(rng, rng.randint(1, 25))
            assert parse(str(f)) == f

    def test_print_minimal_parens(self):
        assert str(parse("(p & q) | r")) == "p & q | r"
        assert str(parse("p & (q | r)")) == "p & (q | r)"
        assert str(parse("!(p U q)")) == "!(p U q)"
        assert str(parse("G (p -> F q)")) == "G (p -> F q)"


class TestTemporalDepth:
    def test_proposition(self):
        assert temporal_depth(Prop("p")) == 0

    def test_nested_next(self):
        assert temporal_depth(parse("X X p")) == 2

    def test_until_takes_max_plus_one(self):
        assert temporal_depth(parse("(X p) U q")) == 2

    def test_boolean_connectives_take_max(self):
        assert temporal_depth(parse("X p | G q")) == 1
        assert temporal_depth(parse("X p -> X X q")) == 2

    def test_constants_are_atoms(self):
        assert temporal_depth(parse("true U p")) == 1
        assert temporal_depth(Top()) == 0

    def test_negation_transparent(self):
        assert temporal_depth(parse("!F !p")) == 1

    def test_monotone_on_subformulas(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 20))
            d = temporal_depth(f)
            assert all(temporal_depth(g) <= d for g in subformulas(f))


class TestFragmentOf:
    def test_propositional(self):
        assert fragment_of(parse("p & !q")) == frozenset()

    def test_finally_until(self):
        assert fragment_of(parse("F (p U q)")) == frozenset("FU")

    def test_globally_is_syntactic(self):
        assert fragment_of(parse("G p")) == frozenset("G")
        assert fragment_of(parse("!F !p")) == frozenset("F")


class TestNvar:
    def test_repeated_proposition(self):
        assert nvar(parse("p & p")) == 1

    def test_top_has_none(self):
        assert nvar(Top()) == 0

    def test_bounded_by_leaves(self):
        rng = random.Random(11)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 20))
            leaf_count = {}
            for g in subformulas(f):
                kids = g.children()
                leaf_count[g] = sum(leaf_count[c] for c in kids) if kids else 1
            assert nvar(f) <= leaf_count[f]


class TestRewriteFragment:
    def test_finally_to_globally(self):
        assert rewrite_fragment(parse("F p"), "G") == parse("!G !p")

    def test_finally_to_until(self):
        assert rewrite_fragment(parse("F p"), "U") == parse("true U p")

    def test_globally_to_finally(self):
        assert rewrite_fragment(parse("G p"), "F") == parse("!F !p")

    def test_globally_to_until(self):
        assert rewrite_fragment(parse("G p"), "U") == parse("!(true U !p)")

    def test_next_not_expressible(self):
        with pytest.raises(NotExpressible):
            rewrite_fragment(parse("X p"), "F")

    def test_until_not_expressible(self):
        with pytest.raises(NotExpressible):
            rewrite_fragment(parse("p U q"), "FG")

    def test_identity_when_target_covers(self):
        f = parse("G (p -> F q)")
        assert rewrite_fragment(f, "FG") == f

    def test_depth_preserved(self):
        rng = random.Random(23)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 15), ops="FG")
            for target in ("F", "G", "U", "FG", "FU"):
                g = rewrite_fragment(f, target)
                assert temporal_depth(g) == temporal_depth(f)
                assert fragment_of(g) <= frozenset(target)


class TestStructure:
    def test_arity_by_traversal(self):
        f = parse("F (p U q) -> G r & X true")
        for node in subformulas(f):
            if isinstance(node, (Prop, Top, Bottom)):
                assert len(node.children()) == 0
            elif isinstance(node, (Not, Next, Finally, Globally)):
                assert len(node.children()) == 1
            else:
                assert len(node.children()) == 2

    def test_equality_is_structural(self):
        assert parse("p U q") == parse("p U q")
        assert parse("p U q") != parse("q U p")
        assert hash(parse("F p")) == hash(parse("F p"))

    def test_deep_equality(self):
        def chain(n, leaf):
            f = leaf
            for _ in range(n):
                f = Next(f)
            return f

        assert chain(10000, Prop("p")) == chain(10000, Prop("p"))
        assert chain(10000, Prop("p")) != chain(10000, Prop("q"))
        assert chain(10000, Prop("p")) != chain(9999, Prop("p"))
        assert chain(400, And(Prop("p"), Prop("q"))) != chain(400, And(Prop("q"), Prop("p")))

    def test_ast_size_counts_occurrences(self):
        assert ast_size(parse("p & p")) == 3
        assert ast_size(parse("X (p U q)")) == 4
