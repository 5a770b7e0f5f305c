"""Propositional CNF solver: conflict-driven clause learning.

Deterministic by construction (activity ties break on variable index), no
external dependencies.  Used by the bounded lasso encoder (fgsat), which
encodes {X} and {F,G} formulas with the one Tseitin gate table below; the
test oracles use a separate plain backtracking solver so the two never
share code.
"""

from __future__ import annotations

import heapq

from .formula import And, Bottom, Implies, Not, Or, Top

# Tseitin definition of v <-> op(args) for each Boolean connective, as
# clauses over the variables of the node and of its children in order
TSEITIN = {
    Top: lambda v: [(v,)],
    Bottom: lambda v: [(-v,)],
    Not: lambda v, a: [(-v, -a), (v, a)],
    And: lambda v, a, b: [(-v, a), (-v, b), (v, -a, -b)],
    Or: lambda v, a, b: [(-v, a, b), (v, -a), (v, -b)],
    Implies: lambda v, a, b: [(-v, -a, b), (v, a), (v, -b)],
}


class _Solver:
    def __init__(self, nvars):
        self.nvars = nvars
        self.clauses = []
        self.watches = {}
        self.assign = [None] * (nvars + 1)
        self.level = [0] * (nvars + 1)
        self.reason = [None] * (nvars + 1)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.activity = [0.0] * (nvars + 1)
        self.phase = [False] * (nvars + 1)
        self.var_inc = 1.0
        self.ok = True
        # lazy decision heap: entries (-activity, var); stale entries (older
        # activity snapshot, or already-assigned var) are discarded on pop.
        # queued[v]: the heap holds an entry with v's current activity
        self.heap = [(0.0, v) for v in range(1, nvars + 1)]
        self.queued = [True] * (nvars + 1)

    def value(self, lit):
        v = self.assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def decision_level(self):
        return len(self.trail_lim)

    def add_clause(self, lits):
        if not self.ok:
            return
        seen = set()
        out = []
        for l in lits:
            if -l in seen:
                return  # tautology
            if l not in seen:
                seen.add(l)
                out.append(l)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self.enqueue(out[0], None):
                self.ok = False
            return
        self._attach(out)

    def _attach(self, lits):
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches.setdefault(lits[0], []).append(ci)
        self.watches.setdefault(lits[1], []).append(ci)

    def enqueue(self, lit, reason_ci):
        val = self.value(lit)
        if val is not None:
            return val
        v = abs(lit)
        self.assign[v] = lit > 0
        self.phase[v] = lit > 0
        self.level[v] = self.decision_level()
        self.reason[v] = reason_ci
        self.trail.append(lit)
        return True

    def propagate(self):
        clauses = self.clauses
        watches = self.watches
        assign = self.assign
        trail = self.trail
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            neg = -p
            watching = watches.get(neg)
            if not watching:
                continue
            keep = []
            idx = 0
            conflict = None
            n = len(watching)
            while idx < n:
                ci = watching[idx]
                idx += 1
                c = clauses[ci]
                if c[0] == neg:
                    c[0], c[1] = c[1], c[0]
                w = c[0]
                v = assign[w] if w > 0 else assign[-w]
                if v is (w > 0):
                    keep.append(ci)
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    vk = assign[lk] if lk > 0 else assign[-lk]
                    if vk is None or vk is (lk > 0):
                        c[1], c[k] = c[k], c[1]
                        if lk in watches:
                            watches[lk].append(ci)
                        else:
                            watches[lk] = [ci]
                        break
                else:
                    keep.append(ci)
                    if not self.enqueue(c[0], ci):
                        conflict = c
                        keep.extend(watching[idx:])
                        break
            watches[neg] = keep
            if conflict is not None:
                return conflict
        return None

    def bump(self, v):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.nvars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self.heap = [(-self.activity[u], u) for u in range(1, self.nvars + 1)]
            heapq.heapify(self.heap)
            self.queued = [True] * (self.nvars + 1)
        else:
            heapq.heappush(self.heap, (-self.activity[v], v))
            self.queued[v] = True

    def analyze(self, confl):
        learnt = [0]
        seen = [False] * (self.nvars + 1)
        counter = 0
        p = 0
        index = len(self.trail)
        cur = self.decision_level()
        while True:
            start = 1 if p != 0 else 0
            for q in confl[start:]:
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self.bump(v)
                    if self.level[v] >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                p = self.trail[index]
                if seen[abs(p)]:
                    break
            counter -= 1
            if counter == 0:
                break
            confl = self.clauses[self.reason[abs(p)]]
        learnt[0] = -p
        if len(learnt) == 1:
            back = 0
        else:
            # put a literal of the backjump level in the second watch slot
            hi = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
            learnt[1], learnt[hi] = learnt[hi], learnt[1]
            back = self.level[abs(learnt[1])]
        return learnt, back

    def backtrack(self, level):
        if self.decision_level() <= level:
            return
        limit = self.trail_lim[level]
        heap = self.heap
        activity = self.activity
        queued = self.queued
        for lit in self.trail[limit:]:
            v = abs(lit)
            self.assign[v] = None
            if not queued[v]:
                heapq.heappush(heap, (-activity[v], v))
                queued[v] = True
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    def pick_variable(self):
        heap = self.heap
        assign = self.assign
        activity = self.activity
        while heap:
            act, v = heapq.heappop(heap)
            if -act == activity[v]:
                self.queued[v] = False
                if assign[v] is None:
                    return v
        return None

    def search(self):
        if not self.ok or self.propagate() is not None:
            return False
        restart_limit = 100
        conflicts = 0
        while True:
            confl = self.propagate()
            if confl is not None:
                if self.decision_level() == 0:
                    return False
                learnt, back = self.analyze(confl)
                self.backtrack(back)
                if len(learnt) == 1:
                    self.enqueue(learnt[0], None)
                else:
                    self._attach(learnt)
                    self.enqueue(learnt[0], len(self.clauses) - 1)
                self.var_inc /= 0.95
                conflicts += 1
                continue
            if conflicts >= restart_limit:
                conflicts = 0
                restart_limit = int(restart_limit * 1.5)
                self.backtrack(0)
                continue
            v = self.pick_variable()
            if v is None:
                return True
            self.trail_lim.append(len(self.trail))
            self.enqueue(v if self.phase[v] else -v, None)


def solve_cdcl(clauses, nvars=None):
    """Satisfying assignment as a dict {var: bool}, or None if unsatisfiable.

    Clauses are lists of nonzero integer literals over variables 1..nvars.
    """
    clause_list = [tuple(c) for c in clauses]
    top = max((abs(l) for c in clause_list for l in c), default=0)
    if nvars is None:
        nvars = top
    if top > nvars:
        raise ValueError("literal exceeds declared variable count")
    s = _Solver(nvars)
    for c in clause_list:
        s.add_clause(list(c))
    if not s.search():
        return None
    return {v: bool(s.assign[v]) for v in range(1, nvars + 1)}
