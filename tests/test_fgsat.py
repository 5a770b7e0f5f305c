"""Bounded lasso engine for the {F,G} fragment."""

import hashlib
import random
from collections import Counter

import pytest

from ltlwb import And, Finally, Globally, Implies, Next, Not, Or, Prop, fgsat, parse, propsat
from ltlwb.buchi import model_word
from ltlwb.checker import _word_witness, until_top_to_finally
from ltlwb.fgsat import MIXED, NEGATIVE, POSITIVE, fg_sat, x_sat
from ltlwb.formula import subformulas, temporal_depth
from ltlwb.instances import parse_cnf3, parse_pwsat
from ltlwb.kripke import eval_on_lasso
from ltlwb.propsat import solve_cdcl
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
        # does not grow with n, and a deep chain needs no recursion.  The
        # fold refutes both formulas with no solver call, so the sizes are
        # those of the encoding with the fold switched off
        calls = []
        solve = fgsat.solve_cdcl

        def counting(clauses, nvars=None):
            calls.append(nvars)
            return solve(clauses, nvars=nvars)

        def chain(n, f):
            for _ in range(n):
                f = Next(f)
            return f

        monkeypatch.setattr(fgsat, "solve_cdcl", counting)
        p = Prop("p")
        sizes = []
        for n in (10, 10_000):
            for f in (And(chain(n, p), chain(n, Not(p))),
                      And(chain(n, p), Not(chain(n, p)))):
                assert x_sat(f) is None
                subs = subformulas(f)
                kids, pol = fgsat._structure(subs)
                with monkeypatch.context() as m:
                    m.setattr(fgsat, "_fold", _no_fold)
                    _, nvars, clauses = fgsat._encode(subs, kids, pol, n, 1)
                sizes.append((nvars, len(clauses)))
        assert calls == []
        assert sizes[0] == sizes[2] and sizes[1] == sizes[3]


def _no_fold(subs, *rest):
    """A fold that forces nothing: _encode then builds the unfolded encoding."""
    return [{} for _ in subs]


def _certify(text):
    """(subs, kids, pol) of a parsed formula and the shape fg_sat certifies at."""
    subs = subformulas(parse(text))
    kids, pol = fgsat._structure(subs)
    return subs, kids, pol, fgsat._certifying_shape(subs, kids, pol)


def _shared_formula(rng):
    # a few random {F,G} pieces combined under !, &, | and ->, so that one
    # subformula often occurs with both polarities
    pool = [random_formula(rng, rng.randint(2, 6), ops="FG", names=("p", "q"))
            for _ in range(3)]
    f = rng.choice(pool)
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(pool)
        if rng.random() < 0.5:
            g = Not(g)
        if rng.random() < 0.6:
            f = rng.choice([And, Or, Implies])(f, g)
        else:
            f = Implies(g, f)
    return f


def _counting_every_switch(subs, kids, pol):
    """(t - k + 1, max(1, e)), the certifying shape that keeps a prefix
    position for every switch of the t temporal nodes, k of them G nodes in
    the root's top-level And tree, and e demanding nodes on the cycle."""
    temporal = [k for k, node in enumerate(subs)
                if isinstance(node, (Finally, Globally))]
    e = sum(bool(pol[k] & (POSITIVE if isinstance(subs[k], Finally) else NEGATIVE))
            for k in temporal)
    conjuncts, stack = set(), [len(subs) - 1]
    while stack:
        k = stack.pop()
        if isinstance(subs[k], And):
            stack.extend(kids[k])
        elif isinstance(subs[k], Globally):
            conjuncts.add(k)
    return len(temporal) - len(conjuncts) + 1, max(1, e)


class TestCertifyingShape:
    # the certifying shape alone, without the ladder of smaller shapes,
    # must decide every formula.  The near-bound cases fail one position
    # short of what they need; none found needs more than |S - K|, one
    # less than the bound

    def test_polarity_pass(self):
        # the left side of -> flips, and so does !
        subs, kids, pol, _ = _certify("!(F p -> G q) & (!F p | G q)")
        by_text = {str(node): p for node, p in zip(subs, pol)}
        assert by_text["F p -> G q"] == NEGATIVE
        assert by_text["!F p"] == POSITIVE
        assert by_text["F p"] == by_text["G q"] == by_text["q"] == MIXED

    def test_agrees_with_automaton_route(self):
        rng = random.Random(307)
        outcomes = {True: 0, False: 0}
        mixed = 0
        for n in range(1200):
            if n % 2:
                f = _shared_formula(rng)
            else:
                f = random_formula(rng, rng.randint(1, 22), ops="FG")
            subs = subformulas(f)
            kids, pol = fgsat._structure(subs)
            shape = fgsat._certifying_shape(subs, kids, pol)
            found = fgsat._solve_shape(subs, kids, pol, *shape)
            assert (found is None) == (model_word(f) is None), f
            outcomes[found is None] += 1
            mixed += any(
                p == MIXED and isinstance(node, (Finally, Globally))
                for node, p in zip(subs, pol)
            )
            if found is not None:
                s, lasso = _word_witness(*found)
                assert eval_on_lasso(s, lasso, f), f
        assert outcomes[True] >= 100 and outcomes[False] >= 800 and mixed >= 150

    @pytest.mark.parametrize("text", [
        "G F p & G F q & G !(p & q)",
        # F p and F q also occur negatively: mixed nodes still need a
        # cycle position each
        "G F p & G F q & G !(p & q) & (F p -> F q) & (F q -> F p)",
    ])
    def test_alternation_needs_cycle_of_two(self, text):
        subs, kids, pol, shape = _certify(text)
        assert shape == (3, 2)
        assert fgsat._solve_shape(subs, kids, pol, 3, 1) is None
        found = fgsat._solve_shape(subs, kids, pol, *shape)
        assert found is not None
        s, lasso = _word_witness(*found)
        assert eval_on_lasso(s, lasso, subs[-1])

    @pytest.mark.parametrize("text, shape, needed", [
        # p, then !p, then p for ever: S = {F G p, G p} and K = {G q}
        ("G q & (F G p & q) & !G p & p", (3, 2), 2),
        # p, q and r drop out one at a time before they hold for ever.
        # S holds the three negated G nodes and F G (p & q & r); the
        # positive G nodes under | need no position, so the bound is 5 (it
        # was 6 while every temporal node outside K counted)
        ("p & q & r & !G p & !G q & !G r & F G (p & q & r) & "
         "G (p & q | p & r | q & r) & (G p | G q | G r | G (p & q & r) | p)",
         (5, 4), 4),
        # p, q and r in turn, r possibly for ever: the positive G nodes
        # need no position, so S - K = {F p, F q, F r}; subtracting the
        # two non-demanding conjuncts as well would leave a prefix of 2
        ("!p & F p & F q & F r & G (q -> G !p) & G (r -> G !q)", (4, 3), 3),
    ])
    def test_prefix_near_bound(self, text, shape, needed):
        subs, kids, pol, certifying = _certify(text)
        assert certifying == shape
        cycle = shape[1]
        assert fgsat._solve_shape(subs, kids, pol, needed - 1, cycle) is None
        for prefix_len in (needed, shape[0]):
            found = fgsat._solve_shape(subs, kids, pol, prefix_len, cycle)
            assert found is not None
            s, lasso = _word_witness(*found)
            assert eval_on_lasso(s, lasso, subs[-1])

    @pytest.mark.parametrize("satisfiable", [True, False])
    def test_switching_nodes_need_no_position(self, satisfiable):
        # every G q_i is positive and turns true, every F r_i is negative
        # and turns false, all after position 0; counting each switch gave
        # a prefix of 2n + 2, but only the outer F is demanding.  G F r0
        # makes F r0 demanding too and contradicts !F r0
        n = 4
        text = " & ".join("!q%d & r%d" % (i, i) for i in range(n))
        text += " & F (%s)" % " & ".join(
            "G q%d & !F r%d" % (i, i) for i in range(n))
        if not satisfiable:
            text += " & G F r0"
        subs, kids, pol, shape = _certify(text)
        assert shape == ((2, 1) if satisfiable else (3, 2))
        assert _counting_every_switch(subs, kids, pol)[0] == 2 * n + 2
        found = fgsat._solve_shape(subs, kids, pol, *shape)
        assert (found is not None) == satisfiable
        assert (model_word(subs[-1]) is not None) == satisfiable
        if found is not None:
            s, lasso = _word_witness(*found)
            assert eval_on_lasso(s, lasso, subs[-1])

    def test_demanding_conjunct(self):
        # G F p is a top-level conjunct that also sits on the left of ->,
        # so it is demanding but true everywhere and never switches: it
        # widens the cycle and not the prefix
        subs, kids, pol, shape = _certify("G F p & (G F p -> F G q) & !q & p")
        demanding = [str(node) for node, p in zip(subs, pol)
                     if isinstance(node, Finally) and p & POSITIVE
                     or isinstance(node, Globally) and p & NEGATIVE]
        assert sorted(demanding) == ["F G q", "F p", "G F p"]
        assert shape == (3, 3)
        found = fgsat._solve_shape(subs, kids, pol, *shape)
        s, lasso = _word_witness(*found)
        assert eval_on_lasso(s, lasso, subs[-1])

    def test_never_larger_than_counting_every_switch(self):
        rng = random.Random(309)
        smaller = 0
        for n in range(600):
            if n % 2:
                f = _shared_formula(rng)
            else:
                f = random_formula(rng, rng.randint(1, 22), ops="FG")
            subs = subformulas(f)
            kids, pol = fgsat._structure(subs)
            prefix_len, cycle_len = fgsat._certifying_shape(subs, kids, pol)
            old_prefix, old_cycle = _counting_every_switch(subs, kids, pol)
            assert prefix_len <= old_prefix and cycle_len <= old_cycle, f
            smaller += prefix_len < old_prefix
        assert smaller >= 200

    def test_one_sided_clauses_are_a_subset(self, monkeypatch):
        # with every node marked mixed, the encoder emits both halves of
        # every definition; the polarity-aware encoding keeps a subset of
        # those clauses over the same variables.  The fold is switched off,
        # since it numbers the variables by what polarity lets it fix
        monkeypatch.setattr(fgsat, "_fold", _no_fold)
        rng = random.Random(308)
        for _ in range(200):
            f = _shared_formula(rng)
            subs = subformulas(f)
            kids, pol = fgsat._structure(subs)
            _, nvars, one_sided = fgsat._encode(subs, kids, pol, 3, 2)
            _, nvars_both, both = fgsat._encode(subs, kids, [MIXED] * len(subs), 3, 2)
            assert nvars == nvars_both
            assert set(one_sided) <= set(both)
            assert len(one_sided) < len(both) or all(p == MIXED for p in pol[:-1])


class TestFold:
    # the encoder folds the (subformula, position) pairs whose value
    # level-0 unit propagation forces; switching the fold off gives the
    # unfolded encoding, the reference for every check here

    @staticmethod
    def _cases(rng, count):
        """(formula, shapes): random {F,G} formulas, plain and with shared
        subformulas, at the ladder's shapes and one between, and random
        {X} formulas at their shape and a longer one."""
        for n in range(count):
            if n % 3 == 2:
                f = random_formula(rng, rng.randint(1, 14), ops="X", names=("p", "q"))
                td = temporal_depth(f)
                yield f, [(td, 1), (td + 1, 2)]
                continue
            f = _shared_formula(rng) if n % 3 else random_formula(
                rng, rng.randint(1, 18), ops="FG")
            subs = subformulas(f)
            kids, pol = fgsat._structure(subs)
            yield f, [(1, 1), (2, 3), fgsat._certifying_shape(subs, kids, pol)]

    def test_folded_pairs_are_what_level_zero_propagation_fixes(self, monkeypatch):
        rng = random.Random(311)
        seen = {"folded": 0, "clash": 0, "sat": 0, "unsat": 0}
        for f, shapes in self._cases(rng, 900):
            subs = subformulas(f)
            kids, pol = fgsat._structure(subs)
            for shape in shapes:
                folded = fgsat._encode(subs, kids, pol, *shape)
                with monkeypatch.context() as m:
                    m.setattr(fgsat, "_fold", _no_fold)
                    ids, nvars, clauses = fgsat._encode(subs, kids, pol, *shape)
                solver = propsat._Solver(nvars)
                for c in clauses:
                    solver.add_clause(c)
                refuted = not solver.ok or solver.propagate() is not None
                unsat = solve_cdcl(clauses, nvars=nvars) is None
                if folded is None:
                    # a clash is a unit-propagation refutation
                    assert refuted, (f, shape)
                    seen["clash"] += 1
                    continue
                f_ids, f_nvars, f_clauses = folded
                assert (solve_cdcl(f_clauses, nvars=f_nvars) is None) == unsat, (f, shape)
                seen["unsat" if unsat else "sat"] += 1
                if refuted:
                    continue
                # each pair's unfolded variable maps to its folded literal
                to_folded = {}
                for row, f_row in zip(ids, f_ids):
                    assert row.keys() == f_row.keys()
                    for i, v in row.items():
                        lit = f_row[i]
                        assert to_folded.setdefault(v, lit) == lit, (f, shape)
                        if abs(lit) == fgsat.TRUE:
                            assert solver.assign[v] is (lit > 0), (f, shape, v)
                            seen["folded"] += 1
                assert sorted(set(to_folded.values()) - {fgsat.TRUE, -fgsat.TRUE}) \
                    == list(range(1, f_nvars + 1))
                # the folded clauses are the unfolded ones with the folded
                # literals put in: a true one drops the clause, a false one
                # drops out of it
                expected = []
                for c in clauses:
                    mapped = [to_folded[x] if x > 0 else -to_folded[-x] for x in c]
                    if fgsat.TRUE not in mapped:
                        expected.append(tuple(x for x in mapped if x != -fgsat.TRUE))
                assert Counter(expected) == Counter(f_clauses), (f, shape)
        assert seen["folded"] >= 8000 and seen["clash"] >= 120
        assert seen["sat"] >= 1800 and seen["unsat"] >= 60

    @pytest.mark.parametrize("target", ["FG", "U"])
    def test_pwsat_fold_reach(self, target, monkeypatch):
        # at the certifying shape level 0 fixes about half the variables of
        # the unfolded encoding; the fold takes most of them
        text, ops, _ = TestPinnedWords.PWSAT[target]
        f = until_top_to_finally(reduce_pwsat_to_sat(parse_pwsat(text), ops).formula)
        subs = subformulas(f)
        kids, pol = fgsat._structure(subs)
        shape = fgsat._certifying_shape(subs, kids, pol)
        _, f_nvars, f_clauses = fgsat._encode(subs, kids, pol, *shape)
        monkeypatch.setattr(fgsat, "_fold", _no_fold)
        _, nvars, clauses = fgsat._encode(subs, kids, pol, *shape)
        solver = propsat._Solver(nvars)
        for c in clauses:
            solver.add_clause(c)
        assert solver.propagate() is None
        fixed = sum(value is not None for value in solver.assign[1:])
        assert fixed > nvars // 3
        assert nvars - f_nvars >= 0.8 * fixed
        assert len(f_clauses) < 0.75 * len(clauses)


def _word_text(found):
    prefix, cycle = found
    spell = lambda letters: "|".join(",".join(sorted(letter)) for letter in letters)
    return spell(prefix) + " / " + spell(cycle)


class TestPinnedWords:
    # the CDCL search is deterministic, so a change that only makes the
    # encoder or the solver faster returns these very words; a different
    # word means the shape, variable numbering, clause set or search moved.
    # Both pwsat words come from the ladder's third shape, which is now the
    # certifying shape (7, 6): 1 + |S - K| = 7 with |S| = 6 demanding nodes,
    # none of them a top-level G.  Their digests changed when the
    # certifying shape and the one-sided clauses came in, and again when
    # the shape stopped counting non-demanding nodes (it was (9, 6))
    PWSAT = {
        "FG": ("p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
               "partition 1 1 2\npartition 2 3\ncapacity 1 1\ncapacity 2 1\n",
               {"F", "G"}, "1e4194f743e161ad"),
        "U": ("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\npartition 1 1 2 3\ncapacity 1 1\n",
              {"U"}, "9239d05246686bd6"),
    }

    @pytest.mark.parametrize("target", sorted(PWSAT))
    def test_pwsat_reduced_formula(self, target):
        text, ops, digest = self.PWSAT[target]
        emitted = reduce_pwsat_to_sat(parse_pwsat(text), ops).formula
        found = fg_sat(until_top_to_finally(emitted))
        assert (len(found[0]), len(found[1])) == (7, 6)
        assert hashlib.sha256(_word_text(found).encode()).hexdigest()[:16] == digest
        s, lasso = _word_witness(*found)
        assert eval_on_lasso(s, lasso, emitted)

    @pytest.mark.parametrize("target", sorted(PWSAT))
    def test_ladder_is_two_calls(self, target, monkeypatch):
        # (1, 1), then the certifying shape; no shape between them
        shapes, calls = [], []
        solve, solve_shape = fgsat.solve_cdcl, fgsat._solve_shape

        def at_shape(subs, kids, pol, prefix_len, cycle_len):
            shapes.append((prefix_len, cycle_len))
            return solve_shape(subs, kids, pol, prefix_len, cycle_len)

        def counting(clauses, nvars=None):
            calls.append(shapes[-1])
            return solve(clauses, nvars=nvars)

        monkeypatch.setattr(fgsat, "_solve_shape", at_shape)
        monkeypatch.setattr(fgsat, "solve_cdcl", counting)
        text, ops, _ = self.PWSAT[target]
        emitted = reduce_pwsat_to_sat(parse_pwsat(text), ops).formula
        assert fg_sat(until_top_to_finally(emitted)) is not None
        assert calls == [(1, 1), (7, 6)]

    def test_3sat_x_formula(self):
        cnf = parse_cnf3("p cnf 4 3\n1 -2 3 0\n-1 2 4 0\n2 -3 -4 0\n")
        f = reduce_3sat_to_mc(cnf, "X").mc.formula
        found = x_sat(f)
        assert _word_text(found) == "||nx_2|x_3 / x_4"
        s, lasso = _word_witness(*found)
        assert eval_on_lasso(s, lasso, f)
