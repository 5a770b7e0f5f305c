"""Satisfiability for the {F,G} and {X} fragments by bounded lassos.

Small-model fact the {F,G} route rests on: only eventualities need
witness positions (after Sistla & Clarke, JACM 1985).  A subformula is
positive where it sits under an even number of negations (Not, or the
left side of ->), negative under an odd number, and mixed if it has
occurrences of both kinds.  Every connective, X, F and G included, is
monotone in its arguments up to that flip.  Call an F node with a
positive occurrence and a G node with a negative one demanding: S is the
set of demanding nodes, and K the set of G nodes in the root's top-level
And tree.

Along the suffixes of any infinite word, the truth of every F-subformula
is monotone non-increasing and of every G-subformula monotone
non-decreasing, so each temporal node switches at most once.  A node of K
is true at position 0 of every model, hence everywhere, and never
switches.  In a model keep position 0; the last true position of each
demanding F that eventually turns false, where its argument holds; the
last false position of each demanding G that eventually turns true, where
its argument fails; and one tail position for each demanding node that
stays constant, where the argument of an F true for ever holds and that
of a G false for ever fails (each happens infinitely often).  The tail
positions are taken past position 0 and every temporal node's switch, so
every temporal node is constant on the tail.  In order, the kept
positions form a lasso whose prefix is at most 1 + |S - K| positions,
since a node of K never switches, and whose cycle is the tail positions,
at most |S| of them.

Claim, by induction from the letters up, at every kept position j and its
copy j' in the lasso: a node true at j is true at j' if it has a positive
occurrence, and a node false at j is false at j' if it has a negative one
(so a mixed node keeps its value).  Letters are copied, and Boolean nodes
follow from their arguments.  F a true at j, with a positive occurrence,
either falls false later, and then its last true position is kept, comes
at or after j and has a true, or stays true, and then a tail position
where a holds is on the cycle, which every position of the lasso reaches;
G a false at j, with a negative occurrence, is the same with a false.  A
positive G a true at j or a negative F a false at j only claims that a
holds, or fails, at every later position.  That claim survives dropping
positions: the kept positions after j are later positions, and where the
cycle returns to tail positions before j, j is itself in the tail, which
is constant, so the claim holds on the whole tail.  Such nodes need no
kept position.  The root, positive and true at 0, is true on a lasso of
prefix at most 1 + |S - K| and cycle at most max(1, |S|).  That bound is
never larger than the (t - k + 1, max(1, |S|)) of counting every switch
of the t temporal nodes, k of them in K, since S - K holds only temporal
nodes outside K.  F/G formulas contain no X, so they are
stutter-invariant and a shorter lasso stretches to the exact shape
(1 + |S - K|, max(1, |S|)) by repeating letters.
Unsatisfiability at that one shape therefore decides the formula.  An {X}
formula of temporal depth td reads only positions 0..td, so the one shape
(td, 1) decides it.

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

Each node's definition v <-> op(args) is split into v -> op(args) and
op(args) -> v, and a node gets only the half its polarity needs: the first
if positive, the second if negative, both if mixed (Plaisted & Greenbaum,
JSC 1986).  The F/G prefix recurrence and the shared cycle variable split
the same way.  An unsatisfiable answer stays sound, since these clauses
are a subset of the two-sided ones, which the truth values of any lasso
model of the shape satisfy.  A satisfiable one does too: in a model of
the clauses, by the induction above, a positive node whose variable is
true is true on the lasso of the model's letters and a negative node
whose variable is false is false there (an F chain that is true ends in a
true argument or in the cycle variable, which needs one on the cycle), so
the root, positive and asserted true, holds.  eval_on_lasso revalidates
every word all the same.
"""

from __future__ import annotations

from .formula import (
    And,
    Finally,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    subformulas,
    temporal_depth,
)
from .propsat import TSEITIN, solve_cdcl

_BOOL = (Prop, *TSEITIN)

# polarity bits of a subformula: some occurrence under an even number of
# negations, some under an odd number, or both
POSITIVE, NEGATIVE, MIXED = 1, 2, 3
_FLIP = (0, NEGATIVE, POSITIVE, MIXED)


def fg_sat(f):
    """Lasso word (prefix letters, cycle letters) satisfying f, or None.

    Letters are frozensets of proposition names.  Small shapes are tried
    first; the final certifying shape is what decides unsatisfiability.
    """
    subs = subformulas(f)
    _require_fragment(subs, (Finally, Globally), "fg_sat needs an {F,G}")
    kids, pol = _structure(subs)
    full = _certifying_shape(subs, kids, pol)
    shape = (1, 1)
    shapes = []
    while shape[0] < full[0] or shape[1] < full[1]:
        shapes.append((min(shape[0], full[0]), min(shape[1], full[1])))
        shape = (shape[0] * 3, shape[1] * 3)
    shapes.append(full)
    for prefix_len, cycle_len in shapes:
        found = _solve_shape(subs, kids, pol, prefix_len, cycle_len)
        if found is not None:
            return found
    return None


def x_sat(f):
    """Lasso word (prefix letters, cycle letters) satisfying {X} formula f, or None."""
    subs = subformulas(f)
    _require_fragment(subs, (Next,), "x_sat needs an {X}")
    kids, pol = _structure(subs)
    return _solve_shape(subs, kids, pol, temporal_depth(f), 1)


def _certifying_shape(subs, kids, pol):
    """(1 + |S - K|, max(1, |S|)) for an {F,G} formula: S the demanding
    nodes, F nodes of positive or mixed polarity and G nodes of negative or
    mixed polarity, and K the G nodes in the root's top-level And tree.
    Never larger than the (t - k + 1, max(1, |S|)) that counts every
    temporal node, since S - K holds only temporal nodes outside K."""
    demanding = {
        k for k, (node, p) in enumerate(zip(subs, pol))
        if isinstance(node, Finally) and p & POSITIVE
        or isinstance(node, Globally) and p & NEGATIVE
    }
    conjuncts = set()
    stack = [len(subs) - 1]
    while stack:
        k = stack.pop()
        if isinstance(subs[k], And):
            stack.extend(kids[k])
        elif isinstance(subs[k], Globally):
            conjuncts.add(k)
    return 1 + len(demanding - conjuncts), max(1, len(demanding))


def _require_fragment(subs, ops, needs):
    for node in subs:
        if not isinstance(node, (*_BOOL, *ops)):
            raise ValueError("%s fragment formula, found %s" % (needs, node.op))


def _structure(subs):
    """Children indices and polarity of each subformula, by index into subs
    (children first, so the root is last), in one top-down pass.  The root
    is positive; Not and the left side of -> flip polarity, every other
    connective keeps it."""
    index = {node: k for k, node in enumerate(subs)}
    kids = [None] * len(subs)
    pol = [0] * len(subs)
    pol[-1] = POSITIVE
    for k in range(len(subs) - 1, -1, -1):
        node = subs[k]
        kids[k] = row = [index[kid] for kid in node.children()]
        p = pol[k]
        if isinstance(node, Not):
            pol[row[0]] |= _FLIP[p]
        elif isinstance(node, Implies):
            pol[row[0]] |= _FLIP[p]
            pol[row[1]] |= p
        else:
            for kid in row:
                pol[kid] |= p
    return kids, pol


def _read_positions(subs, kids, prefix_len, total):
    """Positions at which the root reads each subformula, by index into
    subs (children first, so the root is last), root at 0."""
    reads = [set() for _ in subs]
    reads[-1].add(0)
    for k in range(len(subs) - 1, -1, -1):
        node = subs[k]
        at = reads[k]
        if isinstance(node, Next):
            at = {i + 1 if i + 1 < total else prefix_len for i in at}
        elif isinstance(node, (Finally, Globally)):
            # the prefix recurrence reads it on to the shared cycle variable
            first = min(min(at), prefix_len)
            reads[k] = set(range(first, prefix_len + 1))
            at = range(first, total)
        for kid in kids[k]:
            reads[kid].update(at)
    return reads


def _solve_shape(subs, kids, pol, prefix_len, cycle_len):
    """Lasso word of the given shape satisfying the root, subs[-1], or None.

    kids and pol are _structure(subs): a node of positive polarity gets
    only the v -> op(args) half of its definition, a negative one only the
    op(args) -> v half, and a mixed one both.
    """
    total = prefix_len + cycle_len
    reads = _read_positions(subs, kids, prefix_len, total)
    # ids[k][i]: the variable of subs[k] at a position i where it is read.
    # Variables are numbered node by node, children first, in position
    # order: a node's children are numbered before it, since each is read
    # wherever its parent reads it.  An X node's row holds its argument's
    # variables one position on, and every cycle position of an F/G node
    # holds its one shared cycle variable.  Rows are dicts, not lists of
    # length total, since a chain X^n p reads each node at one position.
    ids = [{} for _ in subs]
    nvars = 0
    clauses = []
    for k, node in enumerate(subs):
        at = sorted(reads[k])
        row = ids[k]
        kid_rows = [ids[kid] for kid in kids[k]]
        if isinstance(node, Next):
            # no variable: X a at i is a at the next position
            (a,) = kid_rows
            for i in at:
                row[i] = a[i + 1 if i + 1 < total else prefix_len]
            continue
        row.update(zip(at, range(nvars + 1, nvars + 1 + len(at))))
        nvars += len(at)
        if isinstance(node, Prop):
            continue
        p = pol[k]
        if not isinstance(node, (Finally, Globally)):
            halves = TSEITIN[type(node)]
            gates = halves if p == MIXED else halves[p - 1 : p]
            # arity spelled out: building the argument list in a
            # comprehension made this loop a sixth slower
            if len(kid_rows) == 2:
                a, b = kid_rows
                for i in at:
                    for gate in gates:
                        clauses.extend(gate(row[i], a[i], b[i]))
            elif kid_rows:
                (a,) = kid_rows
                for i in at:
                    for gate in gates:
                        clauses.extend(gate(row[i], a[i]))
            else:
                for i in at:
                    for gate in gates:
                        clauses.extend(gate(row[i]))
            continue
        # in the prefix, F a at i is a | F a at i+1, and G a is a & G a
        halves = TSEITIN[Or if isinstance(node, Finally) else And]
        gates = halves if p == MIXED else halves[p - 1 : p]
        (a,) = kid_rows
        for i in at[:-1]:
            for gate in gates:
                clauses.extend(gate(row[i], a[i], row[i + 1]))
        v = row[prefix_len]
        row.update(dict.fromkeys(range(prefix_len + 1, total), v))
        args = [a[j] for j in range(prefix_len, total)]
        # the shared cycle variable, in the same two halves
        if isinstance(node, Finally):
            if p & POSITIVE:
                clauses.append((-v, *args))
            if p & NEGATIVE:
                clauses.extend((v, -x) for x in args)
        else:
            if p & POSITIVE:
                clauses.extend((-v, x) for x in args)
            if p & NEGATIVE:
                clauses.append((v, *[-x for x in args]))
    clauses.append((ids[-1][0],))

    model = solve_cdcl(clauses, nvars=nvars)
    if model is None:
        return None
    letters = [set() for _ in range(total)]
    for k, node in enumerate(subs):
        if isinstance(node, Prop):
            for i, v in ids[k].items():
                if model[v]:
                    letters[i].add(node.name)
    letters = [frozenset(letter) for letter in letters]
    return letters[:prefix_len], letters[prefix_len:]
