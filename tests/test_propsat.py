"""Conflict-driven CNF solver against brute-force truth-table enumeration."""

import collections
import itertools
import random

import pytest

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
