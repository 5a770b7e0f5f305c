"""Bounded lasso engine for the {F,G} fragment."""

import random

import pytest

from ltlwb import parse
from ltlwb.checker import _word_witness, sat
from ltlwb.fgsat import fg_sat
from ltlwb.kripke import eval_on_lasso

from helpers import random_formula


class TestFgSat:
    def test_rejects_other_operators(self):
        with pytest.raises(ValueError):
            fg_sat(parse("X p"))
        with pytest.raises(ValueError):
            fg_sat(parse("p U q"))

    def test_plain_eventuality(self):
        found = fg_sat(parse("F p & G (p -> F q)"))
        assert found is not None

    def test_unsatisfiable(self):
        assert fg_sat(parse("F p & G !p")) is None
        assert fg_sat(parse("G (p -> F q) & G !q & F p")) is None

    def test_witness_letters_model_formula(self):
        rng = random.Random(301)
        produced = 0
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 11), ops="FG")
            found = fg_sat(f)
            if found is None:
                continue
            produced += 1
            s, lasso = _word_witness(found[0], found[1])
            assert eval_on_lasso(s, lasso, f)
        assert produced > 100

    def test_agrees_with_automaton_route(self):
        # these formulas are below FG_CUTOFF, so sat() decides them with the
        # tableau product over one free world
        rng = random.Random(302)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 10), ops="FG")
            assert (fg_sat(f) is None) == (sat(f) is None)

    def test_alternation_needs_long_cycle(self):
        # two eventualities that exclude each other pointwise force a cycle
        # visiting both letters
        f = parse("G F p & G F q & G !(p & q)")
        found = fg_sat(f)
        assert found is not None
        s, lasso = _word_witness(found[0], found[1])
        assert eval_on_lasso(s, lasso, f)
