"""Conflict-driven CNF solver against brute-force truth-table enumeration."""

import collections
import gc
import itertools
import random

import pytest

from ltlwb import propsat
from ltlwb.oracles import check_assignment_cnf
from ltlwb.propsat import _Solver, solve_cdcl


def brute_sat(clauses, nvars):
    for bits in itertools.product([False, True], repeat=nvars):
        assignment = {v: bits[v - 1] for v in range(1, nvars + 1)}
        if check_assignment_cnf(clauses, assignment):
            return assignment
    return None


def pigeonhole(pigeons, holes):
    """Pigeon p in hole h is variable (p-1)*holes + h."""
    var = lambda p, h: (p - 1) * holes + h
    clauses = [[var(p, h) for h in range(1, holes + 1)] for p in range(1, pigeons + 1)]
    for h in range(1, holes + 1):
        for p1 in range(1, pigeons + 1):
            for p2 in range(p1 + 1, pigeons + 1):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses, pigeons * holes


class TestSolveCdcl:
    def test_single_unit(self):
        assert solve_cdcl([(1,)]) == {1: True}
        assert solve_cdcl([(-1,)]) == {1: False}

    def test_contradicting_units(self):
        assert solve_cdcl([(1,), (-1,)]) is None

    def test_empty_clause_unsat(self):
        assert solve_cdcl([()]) is None

    def test_no_clauses_sat(self):
        assert solve_cdcl([], nvars=3) == {1: False, 2: False, 3: False}

    def test_tautology_dropped(self):
        assert solve_cdcl([(1, -1)]) is not None

    def test_literal_out_of_range(self):
        with pytest.raises(ValueError):
            solve_cdcl([(3,)], nvars=2)

    def test_negative_literal_out_of_range(self):
        # watch lists are indexed by literal, so -3 over two variables would
        # land in another literal's slot instead of failing
        with pytest.raises(ValueError):
            solve_cdcl([(-3,)], nvars=2)
        with pytest.raises(ValueError):
            solve_cdcl([(1, -3)], nvars=2)

    def test_zero_literal_rejected(self):
        for clauses in ([(0,)], [(1, 0)], [(1, 2), (2, 0, -1)], [(0, 0)]):
            with pytest.raises(ValueError):
                solve_cdcl(clauses, nvars=2)

    def test_simple_implication_chain(self):
        clauses = [(1,), (-1, 2), (-2, 3), (-3, 4)]
        model = solve_cdcl(clauses)
        assert model == {1: True, 2: True, 3: True, 4: True}

    def test_pigeonhole_unsat(self):
        clauses, nvars = pigeonhole(4, 3)
        assert solve_cdcl(clauses, nvars) is None

    def test_pigeonhole_sat(self):
        clauses, nvars = pigeonhole(3, 3)
        model = solve_cdcl(clauses, nvars)
        assert model is not None
        assert check_assignment_cnf(clauses, model)

    def test_agrees_with_brute_force(self):
        rng = random.Random(307)
        for _ in range(400):
            nvars = rng.randint(1, 8)
            nclauses = rng.randint(1, 3 * nvars)
            clauses = []
            for _ in range(nclauses):
                size = rng.randint(1, 3)
                clauses.append(
                    tuple(rng.choice([1, -1]) * rng.randint(1, nvars) for _ in range(size))
                )
            model = solve_cdcl(clauses, nvars)
            brute = brute_sat(clauses, nvars)
            if brute is None:
                assert model is None
            else:
                assert model is not None
                assert check_assignment_cnf(clauses, model)

    def test_repeated_and_complementary_literals(self, monkeypatch):
        # every 2- and 3-literal clause over two variables, so a repeated or
        # complementary pair sits in every position: (1, 1), (2, 1, 1),
        # (1, -1, 2), (1, 2, -1), ...; solve_cdcl attaches these without
        # add_clause, which is kept here as the reference: the same clauses
        # and watch lists before the search, and the same model after it
        lits = (1, -1, 2, -2)
        short = [c for n in (2, 3) for c in itertools.product(lits, repeat=n)]
        loaded = []
        search = _Solver.search

        def snapshot(solver):
            loaded.append((
                [list(c) for c in solver.clauses],
                [list(w) for w in solver.watches],
                list(solver.trail),
                solver.ok,
            ))
            return search(solver)

        monkeypatch.setattr(_Solver, "search", snapshot)
        rng = random.Random(313)
        for trial in range(600):
            nvars = rng.randint(2, 5)
            clauses = [rng.choice(short) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 3 * nvars)):
                size = rng.randint(1, 4)
                clauses.append(
                    tuple(rng.choice([1, -1]) * rng.randint(1, nvars) for _ in range(size))
                )
            rng.shuffle(clauses)
            model = solve_cdcl(clauses, nvars)
            plain = _Solver(nvars)
            for c in clauses:
                plain.add_clause(list(c))
            assert loaded.pop() == (plain.clauses, plain.watches, plain.trail, plain.ok)
            if search(plain):
                assert model == {v: plain.assign[v] for v in range(1, nvars + 1)}
                assert check_assignment_cnf(clauses, model)
            else:
                assert model is None
                assert brute_sat(clauses, nvars) is None
        for c in short:
            model = solve_cdcl([c], 2)
            assert check_assignment_cnf([c], model)
            assert solve_cdcl([c, (1,), (2,)], 2) == brute_sat([c, (1,), (2,)], 2)

    def test_deterministic(self):
        clauses, nvars = pigeonhole(3, 3)
        assert solve_cdcl(clauses, nvars) == solve_cdcl(clauses, nvars)


class TestDecisionHeap:
    def test_one_current_entry_per_variable(self):
        # backtracking used to push every unassigned variable again, so the
        # heap grew with the search path; an entry is current when it
        # carries the variable's activity, and one of those is enough
        rng = random.Random(311)
        searched = []
        for _ in range(40):
            nvars = rng.randint(30, 60)
            solver = _Solver(nvars)
            for _ in range(int(4.26 * nvars)):
                solver.add_clause(
                    [rng.choice([1, -1]) * rng.randint(1, nvars) for _ in range(3)]
                )
            solver.search()
            current = collections.Counter(
                v for act, v in solver.heap if -act == solver.activity[v]
            )
            assert max(current.values(), default=0) <= 1
            searched.append((solver, current))
        assert sum(1 for _, current in searched if current) >= 10
        for solver, current in searched:
            for v in range(1, solver.nvars + 1):
                assert solver.queued[v] == (current[v] == 1)

    def test_heap_stays_within_twice_the_variables(self):
        # stale entries leave only when popped; without a rebuild the heap
        # grew with the number of conflicts, to about 190 entries per variable
        rng = random.Random(4242)
        grew = 0
        for _ in range(40):
            nvars = rng.randint(20, 120)
            solver = _Solver(nvars)
            for _ in range(int(rng.uniform(3.6, 4.8) * nvars)):
                solver.add_clause(
                    [rng.choice([1, -1]) * rng.randint(1, nvars) for _ in range(3)]
                )
            sizes = []
            backtrack = solver.backtrack

            def measured(level, solver=solver, backtrack=backtrack, sizes=sizes):
                backtrack(level)
                sizes.append(len(solver.heap))

            solver.backtrack = measured
            solver.search()
            assert max(sizes, default=0) <= 2 * nvars
            grew += max(sizes, default=0) > nvars
        assert grew >= 10


class TestCollectorPause:
    # the solver makes no reference cycles, so the cyclic collector is
    # paused while it runs and left as the caller had it

    @pytest.fixture
    def collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def solves(self):
        clauses, nvars = pigeonhole(3, 3)
        assert solve_cdcl(clauses, nvars) is not None
        clauses, nvars = pigeonhole(4, 3)
        assert solve_cdcl(clauses, nvars) is None
        with pytest.raises(ValueError):
            solve_cdcl([(1, -3)], 2)

    def test_paused_during_search(self, collector, monkeypatch):
        seen = []
        search = _Solver.search

        def recording(solver):
            seen.append(gc.isenabled())
            return search(solver)

        monkeypatch.setattr(_Solver, "search", recording)
        gc.enable()
        self.solves()
        assert seen == [False, False]

    def test_restored_after_every_outcome(self, collector, monkeypatch):
        # a satisfiable solve, an unsatisfiable one and a rejected literal
        states = []
        solve = propsat._solve

        def watched(clauses, nvars):
            try:
                return solve(clauses, nvars)
            finally:
                states.append(gc.isenabled())

        monkeypatch.setattr(propsat, "_solve", watched)
        gc.enable()
        self.solves()
        assert states == [False, False, False]
        assert gc.isenabled()

    def test_stays_disabled_for_a_caller_that_disabled_it(self, collector):
        gc.disable()
        self.solves()
        assert not gc.isenabled()
