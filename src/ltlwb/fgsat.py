"""Satisfiability for the {F,G} and {X} fragments by bounded lassos.

Small-model fact the {F,G} route rests on: along the suffixes of any
infinite word, the truth of every F-subformula is monotone non-increasing
and of every G-subformula monotone non-decreasing, so with t distinct
temporal subformulas the vector of their truth values switches at most t
times.  Keeping position 0, the last position of every switch region, and
one tail position per surviving eventuality (an F that stays true needs
its argument infinitely often, a G that stays false needs its argument's
negation infinitely often) turns any model into a lasso model with prefix
at most t+1 and cycle at most max(1, t).  F/G formulas contain no X, so
they are stutter-invariant and a shorter lasso stretches to the exact
shape (t+1, max(1, t)) by repeating letters.  Unsatisfiability at that one
shape therefore decides the formula.  An {X} formula of temporal depth td
reads only positions 0..td, so the one shape (td, 1) decides it.

A shape is encoded propositionally with one variable per (subformula,
position) pair that the root reads.  One top-down pass finds those pairs:
the root is read at 0, a Boolean node passes its positions to its
children, X reads its argument one position on (past the end, at the loop
start) and has no variable of its own, and an F or G node read at i is
read at i..prefix_len and reads its argument at i..total-1.  Every cycle
position sees the same cyclic suffix, so an F or G subformula has a single
shared cycle variable defined by a disjunction or conjunction over the
cycle, which also rules out the spurious fixpoints a naive recurrence over
the loop would admit.
"""

from __future__ import annotations

from .formula import And, Finally, Globally, Next, Or, Prop, subformulas, temporal_depth
from .propsat import TSEITIN, solve_cdcl

_BOOL = (Prop, *TSEITIN)


def fg_sat(f):
    """Lasso word (prefix letters, cycle letters) satisfying f, or None.

    Letters are frozensets of proposition names.  Small shapes are tried
    first; the final exhaustive shape is what certifies unsatisfiability.
    """
    subs = subformulas(f)
    t = len(_temporal_nodes(subs, (Finally, Globally), "fg_sat needs an {F,G}"))
    full = (t + 1, max(1, t))
    shape = (1, 1)
    shapes = []
    while shape[0] < full[0] or shape[1] < full[1]:
        shapes.append((min(shape[0], full[0]), min(shape[1], full[1])))
        shape = (shape[0] * 3, shape[1] * 3)
    shapes.append(full)
    for prefix_len, cycle_len in shapes:
        found = _solve_shape(f, subs, prefix_len, cycle_len)
        if found is not None:
            return found
    return None


def x_sat(f):
    """Lasso word (prefix letters, cycle letters) satisfying {X} formula f, or None."""
    subs = subformulas(f)
    _temporal_nodes(subs, Next, "x_sat needs an {X}")
    return _solve_shape(f, subs, temporal_depth(f), 1)


def _temporal_nodes(subs, ops, needs):
    found = [node for node in subs if not isinstance(node, _BOOL)]
    for node in found:
        if not isinstance(node, ops):
            raise ValueError("%s fragment formula, found %s" % (needs, node.op))
    return found


def _read_positions(f, subs, prefix_len, total):
    """Positions at which the root reads each subformula, root at 0."""
    reads = {f: {0}}
    for node in reversed(subs):
        at = reads[node]
        if isinstance(node, Next):
            at = {i + 1 if i + 1 < total else prefix_len for i in at}
        elif isinstance(node, (Finally, Globally)):
            # the prefix recurrence reads it on to the shared cycle variable
            first = min(min(at), prefix_len)
            reads[node] = set(range(first, prefix_len + 1))
            at = range(first, total)
        for kid in node.children():
            kid_at = reads.get(kid)
            if kid_at is None:
                reads[kid] = set(at)
            else:
                kid_at.update(at)
    return reads


def _solve_shape(f, subs, prefix_len, cycle_len):
    total = prefix_len + cycle_len
    reads = _read_positions(f, subs, prefix_len, total)
    var_ids = {}
    nvars = 0

    def var(node, i):
        nonlocal nvars
        # all cycle positions of an F/G node share one truth value
        if i >= prefix_len and isinstance(node, (Finally, Globally)):
            i = prefix_len
        key = (node, i)
        vid = var_ids.get(key)
        if vid is None:
            nvars += 1
            vid = var_ids[key] = nvars
        return vid

    clauses = []
    for node in subs:
        at = sorted(reads[node])
        if isinstance(node, Next):
            # no variable: X a at i is a at the next position
            for i in at:
                var_ids[node, i] = var(node.arg, i + 1 if i + 1 < total else prefix_len)
            continue
        kids = node.children()
        temporal = isinstance(node, (Finally, Globally))
        if temporal:
            # in the prefix, F a at i is a | F a at i+1, and G a is a & G a
            gate = TSEITIN[Or if isinstance(node, Finally) else And]
        else:
            gate = TSEITIN.get(type(node))
        for i in at:
            v = var(node, i)
            if isinstance(node, Prop):
                continue
            if not temporal:
                # arity spelled out: building the argument list in a
                # comprehension made this loop a sixth slower
                if len(kids) == 2:
                    clauses.extend(gate(v, var(kids[0], i), var(kids[1], i)))
                elif kids:
                    clauses.extend(gate(v, var(kids[0], i)))
                else:
                    clauses.extend(gate(v))
            elif i < prefix_len:
                clauses.extend(gate(v, var(node.arg, i), var(node, i + 1)))
            else:
                args = [var(node.arg, j) for j in range(prefix_len, total)]
                if isinstance(node, Finally):
                    clauses.append((-v, *args))
                    clauses.extend((v, -a) for a in args)
                else:
                    clauses.extend((-v, a) for a in args)
                    clauses.append((v, *[-a for a in args]))
    clauses.append((var(f, 0),))

    model = solve_cdcl(clauses, nvars=nvars)
    if model is None:
        return None
    letters = [set() for _ in range(total)]
    for (node, i), vid in var_ids.items():
        if isinstance(node, Prop) and model[vid]:
            letters[i].add(node.name)
    letters = [frozenset(letter) for letter in letters]
    return letters[:prefix_len], letters[prefix_len:]
