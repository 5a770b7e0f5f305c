"""Bounded lasso engine for the {F,G} fragment."""

import hashlib
import random

import pytest

from ltlwb import And, Next, Not, Prop, fgsat, parse
from ltlwb.buchi import model_word
from ltlwb.checker import _word_witness, until_top_to_finally
from ltlwb.fgsat import fg_sat, x_sat
from ltlwb.instances import parse_cnf3, parse_pwsat
from ltlwb.kripke import eval_on_lasso
from ltlwb.reductions import reduce_3sat_to_mc, reduce_pwsat_to_sat

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
        # sat() sends {F,G} formulas to fg_sat, so the second route here is
        # the tableau product over one free world
        rng = random.Random(302)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 10), ops="FG")
            assert (fg_sat(f) is None) == (model_word(f) is None)

    def test_alternation_needs_long_cycle(self):
        # two eventualities that exclude each other pointwise force a cycle
        # visiting both letters
        f = parse("G F p & G F q & G !(p & q)")
        found = fg_sat(f)
        assert found is not None
        s, lasso = _word_witness(found[0], found[1])
        assert eval_on_lasso(s, lasso, f)


class TestXSat:
    def test_rejects_other_operators(self):
        with pytest.raises(ValueError):
            x_sat(parse("F p"))
        with pytest.raises(ValueError):
            x_sat(parse("p U q"))

    def test_agrees_with_tableau(self):
        # sat() and sat_x() both reach x_sat, so the second route here is
        # the tableau product over one free world
        rng = random.Random(303)
        outcomes = {True: 0, False: 0}
        for _ in range(1200):
            f = random_formula(rng, rng.randint(1, 14), ops="X", names=("p", "q"))
            found = x_sat(f)
            assert (found is None) == (model_word(f) is None), f
            outcomes[found is None] += 1
            if found is not None:
                s, lasso = _word_witness(found[0], found[1])
                assert eval_on_lasso(s, lasso, f), f
        assert outcomes[True] >= 50 and outcomes[False] >= 500

    def test_only_read_pairs_are_encoded(self, monkeypatch):
        # X has no variable and X^n p is read only at n, so the encoding
        # does not grow with n, and a deep chain needs no recursion
        sizes = []
        solve = fgsat.solve_cdcl

        def counting(clauses, nvars=None):
            sizes.append(len(clauses))
            return solve(clauses, nvars=nvars)

        def chain(n, f):
            for _ in range(n):
                f = Next(f)
            return f

        monkeypatch.setattr(fgsat, "solve_cdcl", counting)
        p = Prop("p")
        for n in (10, 10_000):
            assert x_sat(And(chain(n, p), chain(n, Not(p)))) is None
            assert x_sat(And(chain(n, p), Not(chain(n, p)))) is None
        assert sizes[0] == sizes[2] and sizes[1] == sizes[3]


def _word_text(found):
    prefix, cycle = found
    spell = lambda letters: "|".join(",".join(sorted(letter)) for letter in letters)
    return spell(prefix) + " / " + spell(cycle)


class TestPinnedWords:
    # the CDCL search is deterministic, so a change that only makes the
    # encoder or the solver faster returns these very words; a different
    # word means the variable numbering, clause order or search moved
    PWSAT = {
        "FG": ("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
               "partition 1 1 2\npartition 2 3\ncapacity 1 1\ncapacity 2 1\n",
               {"F", "G"}, "5dc0db96065be9e7"),
        "U": ("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\npartition 1 1 2 3\ncapacity 1 1\n",
              {"U"}, "549bb2a8b2ee5820"),
    }

    @pytest.mark.parametrize("target", sorted(PWSAT))
    def test_pwsat_reduced_formula(self, target):
        text, ops, digest = self.PWSAT[target]
        emitted = reduce_pwsat_to_sat(parse_pwsat(text), ops).formula
        found = fg_sat(until_top_to_finally(emitted))
        assert (len(found[0]), len(found[1])) == (9, 9)
        assert hashlib.sha256(_word_text(found).encode()).hexdigest()[:16] == digest
        s, lasso = _word_witness(*found)
        assert eval_on_lasso(s, lasso, emitted)

    def test_3sat_x_formula(self):
        cnf = parse_cnf3("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 -3 -4 0\n")
        f = reduce_3sat_to_mc(cnf, "X").mc.formula
        found = x_sat(f)
        assert _word_text(found) == "||nx_2|x_3 / x_4"
        s, lasso = _word_witness(*found)
        assert eval_on_lasso(s, lasso, f)
