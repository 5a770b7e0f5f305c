"""Propositional CNF solver: conflict-driven clause learning.

Deterministic by construction (activity ties break on variable index), no
external dependencies.  Used by the bounded lasso encoder (fgsat), which
encodes {X} and {F,G} formulas with the one Tseitin gate table below,
taking from each gate only the half that the node's polarity needs; the
test oracles use a separate plain backtracking solver so the two never
share code.

The encoder hands over hundreds of thousands of short clauses and the
search needs few conflicts, so the cost is clause intake and watch-list
traversal.  Watch lists sit in one list indexed by literal (2*nvars+1
slots; a negative literal wraps to the upper half, slot 0 is unused), and
propagation assigns implied literals inline.  `solve_cdcl` attaches 2-
and 3-literal clauses in one loop that drops tautologies by direct
comparison; only a clause with a repeated literal, or of another length,
goes through `add_clause` and its set.  None of this changes a decision:
clause, watch and trail orders are those of `add_clause` alone.  The
cyclic garbage collector is paused for each `solve_cdcl` call: the solver
allocates hundreds of thousands of lists and makes no reference cycles,
so collections during a solve only cost time.
"""

from __future__ import annotations

import gc
import heapq
from itertools import chain

from .formula import And, Bottom, Implies, Not, Or, Top

# Tseitin definition of v <-> op(args) for each Boolean connective, as
# clauses over the variables of the node and of its children in order,
# split into its two halves: v -> op(args), whose clauses start with -v,
# and op(args) -> v, whose clauses start with v.  The encoder emits the
# first half for a node of positive polarity, the second for a negative
# one and both, in this order, for a mixed one (Plaisted & Greenbaum 1986)
TSEITIN = {
    Top: (lambda v: [], lambda v: [(v,)]),
    Bottom: (lambda v: [(-v,)], lambda v: []),
    Not: (lambda v, a: [(-v, -a)], lambda v, a: [(v, a)]),
    And: (lambda v, a, b: [(-v, a), (-v, b)], lambda v, a, b: [(v, -a, -b)]),
    Or: (lambda v, a, b: [(-v, a, b)], lambda v, a, b: [(v, -a), (v, -b)]),
    Implies: (lambda v, a, b: [(-v, -a, b)], lambda v, a, b: [(v, a), (v, -b)]),
}


class ClauseError(ValueError):
    """A clause names literal 0 or a variable beyond the declared count.
    The encoder alone builds clauses, so this is an internal fault."""


class _Solver:
    def __init__(self, nvars):
        self.nvars = nvars
        self.clauses = []
        # watches[lit]: clauses watching lit; watches[-v] is slot 2*nvars+1-v
        self.watches = [[] for _ in range(2 * nvars + 1)]
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
        self.watches[lits[0]].append(ci)
        self.watches[lits[1]].append(ci)

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
        level = self.level
        reason = self.reason
        phase = self.phase
        trail = self.trail
        lvl = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            neg = -p
            watching = watches[neg]
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
                        watches[lk].append(ci)
                        break
                else:
                    keep.append(ci)
                    if v is not None:
                        conflict = c
                        keep.extend(watching[idx:])
                        break
                    # unit: assign w, as enqueue would
                    x = w if w > 0 else -w
                    assign[x] = phase[x] = w > 0
                    level[x] = lvl
                    reason[x] = ci
                    trail.append(w)
            watches[neg] = keep
            if conflict is not None:
                self.qhead = qhead
                return conflict
        self.qhead = qhead
        return None

    def bump(self, v):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.nvars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()
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
        if len(heap) > 2 * self.nvars:
            self._rebuild_heap()

    def _rebuild_heap(self):
        # one current entry per variable and no stale ones; decisions are
        # unchanged, since every unassigned variable keeps a current entry
        self.heap = [(-self.activity[u], u) for u in range(1, self.nvars + 1)]
        heapq.heapify(self.heap)
        self.queued = [True] * (self.nvars + 1)

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

    Clauses are sequences of nonzero integer literals over variables
    1..nvars; a literal 0 or one beyond nvars raises ClauseError, a
    ValueError.

    The cyclic garbage collector is paused for the call and re-enabled on
    the way out if it was enabled on the way in.  The solver builds only
    lists of ints, lists of those and tuples of numbers, none of which
    refer back to one another, so a collection during a solve frees
    nothing and reference counting frees everything, while the hundreds
    of thousands of clause and watch lists it allocates set off
    collections that traverse them, full ones included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _solve(clauses, nvars)
    finally:
        if enabled:
            gc.enable()


def _solve(clauses, nvars):
    if not isinstance(clauses, list):
        clauses = list(clauses)
    used = set(chain.from_iterable(clauses))
    if 0 in used:
        raise ClauseError("literal 0 in a clause")
    top = max(max(used, default=0), -min(used, default=0))
    if nvars is None:
        nvars = top
    if top > nvars:
        raise ClauseError("literal exceeds declared variable count")
    s = _Solver(nvars)
    watches = s.watches
    kept = s.clauses
    # 2- and 3-literal clauses attach inline: a tautology is dropped here,
    # and one with a repeated literal goes to add_clause like every other
    # length, so clause and watch order are those of add_clause alone
    for c in clauses:
        n = len(c)
        if n == 2:
            a, b = c
            if a == -b:
                continue
            if a != b:
                ci = len(kept)
                kept.append([a, b])
                watches[a].append(ci)
                watches[b].append(ci)
                continue
        elif n == 3:
            a, b, d = c
            if a == -b or a == -d or b == -d:
                continue
            if a != b and a != d and b != d:
                ci = len(kept)
                kept.append([a, b, d])
                watches[a].append(ci)
                watches[b].append(ci)
                continue
        s.add_clause(c)
        if not s.ok:
            break
    if not s.search():
        return None
    return {v: bool(s.assign[v]) for v in range(1, nvars + 1)}
