"""Satisfiability for formulas whose temporal operators are only F and G.

Small-model fact this engine rests on: along the suffixes of any infinite
word, the truth of every F-subformula is monotone non-increasing and of
every G-subformula monotone non-decreasing, so with t distinct temporal
subformulas the vector of their truth values switches at most t times.
Keeping position 0, the last position of every switch region, and one
tail position per surviving eventuality (an F that stays true needs its
argument infinitely often, a G that stays false needs its argument's
negation infinitely often) turns any model into a lasso model with prefix
at most t+1 and cycle at most max(1, t).  F/G formulas contain no X, so
they are stutter-invariant and a shorter lasso stretches to the exact
shape (t+1, max(1, t)) by repeating letters.  Unsatisfiability at that one
shape therefore decides the formula.

The shape is encoded propositionally with one variable per distinct
subformula and position.  Every cycle position sees the same cyclic
suffix, so an F or G subformula has a single shared cycle variable
defined by a disjunction or conjunction over the cycle, which also rules
out the spurious fixpoints a naive recurrence over the loop would admit.
"""

from __future__ import annotations

from .formula import Finally, Globally, Prop, subformulas
from .propsat import TSEITIN, solve_cdcl

_BOOL = (Prop, *TSEITIN)


def fg_sat(f):
    """Lasso word (prefix letters, cycle letters) satisfying f, or None.

    Letters are frozensets of proposition names.  Small shapes are tried
    first; the final exhaustive shape is what certifies unsatisfiability.
    """
    subs = subformulas(f)
    temporal = []
    for node in subs:
        if isinstance(node, (Finally, Globally)):
            temporal.append(node)
        elif not isinstance(node, _BOOL):
            raise ValueError("fg_sat needs an {F,G} fragment formula, found %s" % node.op)
    t = len(temporal)
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


def _solve_shape(f, subs, prefix_len, cycle_len):
    total = prefix_len + cycle_len
    var_ids = {}

    def var(node, i):
        # all cycle positions of an F/G node share one truth value
        if i >= prefix_len and isinstance(node, (Finally, Globally)):
            i = prefix_len
        key = (node, i)
        vid = var_ids.get(key)
        if vid is None:
            vid = len(var_ids) + 1
            var_ids[key] = vid
        return vid

    clauses = []
    for node in subs:
        gate = TSEITIN.get(type(node))
        kids = node.children()
        for i in range(total):
            v = var(node, i)
            if isinstance(node, Prop):
                continue
            if gate is not None:
                # arity spelled out: building the argument list in a
                # comprehension made this loop a sixth slower
                if len(kids) == 2:
                    clauses.extend(gate(v, var(kids[0], i), var(kids[1], i)))
                elif kids:
                    clauses.extend(gate(v, var(kids[0], i)))
                else:
                    clauses.extend(gate(v))
            elif isinstance(node, Finally):
                if i < prefix_len:
                    a, w = var(node.arg, i), var(node, i + 1)
                    clauses.append((-v, a, w))
                    clauses.append((v, -a))
                    clauses.append((v, -w))
                elif i == prefix_len:
                    args = [var(node.arg, j) for j in range(prefix_len, total)]
                    clauses.append(tuple([-v] + args))
                    for a in args:
                        clauses.append((v, -a))
            else:  # Globally
                if i < prefix_len:
                    a, w = var(node.arg, i), var(node, i + 1)
                    clauses.append((-v, a))
                    clauses.append((-v, w))
                    clauses.append((v, -a, -w))
                elif i == prefix_len:
                    args = [var(node.arg, j) for j in range(prefix_len, total)]
                    for a in args:
                        clauses.append((-v, a))
                    clauses.append(tuple([v] + [-a for a in args]))
    clauses.append((var(f, 0),))

    model = solve_cdcl(clauses, nvars=len(var_ids))
    if model is None:
        return None
    props = [node for node in subs if isinstance(node, Prop)]
    letters = [
        frozenset(p.name for p in props if model[var(p, i)]) for i in range(total)
    ]
    return letters[:prefix_len], letters[prefix_len:]
