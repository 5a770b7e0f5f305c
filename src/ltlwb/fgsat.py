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

Before numbering, one pass from the root down (_fold) fixes the pairs
whose value level-0 unit propagation over those one-sided clauses forces:
the root true at 0; the arguments of And true, Or false, Implies false
and Not either way; the argument of X one position on; G true at i
itself up to the cycle variable and its argument from i on; F false the
same with false; Top of negative and Bottom of positive polarity
everywhere.  The encoder gives a fixed pair no variable, builds no clause
that a fixed pair satisfies, and leaves a fixed false literal out of the
clause it sits in.  Where arguments are fixed, a clause of a Boolean
node's own definition cut down to its variable fixes it too.  Proof
obligation: every folded pair takes the value that unit propagation
forces over the one-sided clauses, so every model of those clauses agrees
with it, and putting the values in loses no model: the folded clauses are
satisfiable exactly when the unfolded ones are, a model of the one
extends to the other by the folded values, and the read-back takes a
folded letter's value from the fold.  Two forced values that clash are a
unit-propagation refutation, so the shape is unsatisfiable with no solver
call.

fg_sat tries (1, 1), then the certifying shape, and nothing between.  Of
3,000 random {F,G} formulas of 3-14 nodes (random_formula, seed 1),
(1, 1) answers 2,696, (3, 3) one more and 303 are unsatisfiable, so
(1, 1) pays for itself; on the pwsat family every satisfiable row
answers at the certifying shape (7, 6), and (3, 3) answered none.
"""

from __future__ import annotations

from .formula import (
    And,
    Bottom,
    Finally,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Top,
    fragment_of,
    subformulas,
    temporal_depth,
)
from .propsat import TSEITIN, solve_cdcl

_FG_ONLY = frozenset("FG")
_X_ONLY = frozenset("X")

# polarity bits of a subformula: some occurrence under an even number of
# negations, some under an odd number, or both
POSITIVE, NEGATIVE, MIXED = 1, 2, 3
_FLIP = (0, NEGATIVE, POSITIVE, MIXED)

# literal of a folded pair: TRUE where the fold fixes it true and -TRUE
# where it fixes it false.  No variable number reaches it, and negation
# swaps the two, so the gate table builds clauses over folded pairs as it
# does over variables
TRUE = 1 << 62

# Boolean connectives one half of whose definition forces the arguments
# when the node takes the given value: that value, then what it forces on
# each argument in order.  A Not forces its argument either way
_FORCES = {
    And: (TRUE, (TRUE, TRUE)),
    Or: (-TRUE, (-TRUE, -TRUE)),
    Implies: (-TRUE, (TRUE, -TRUE)),
}
# the values at which the fold settles a pair: every clause of it holds,
# by its own literal or by the arguments the fold forced with it (or, for
# a constant, by the fold's clash check), so the encoder builds none
_SETTLED = {
    And: (TRUE,), Or: (-TRUE,), Implies: (-TRUE,),
    Not: (TRUE, -TRUE), Top: (TRUE, -TRUE), Bottom: (TRUE, -TRUE),
}


def fg_sat(f):
    """Lasso word (prefix letters, cycle letters) satisfying f, or None.

    Letters are frozensets of proposition names.  The shape (1, 1) is
    tried first, then the certifying shape, which decides
    unsatisfiability.
    """
    extra = fragment_of(f) - _FG_ONLY
    if extra:
        raise ValueError("fg_sat needs an {F,G} fragment formula, found %s"
                         % "".join(sorted(extra)))
    subs = subformulas(f)
    kids, pol = _structure(subs)
    full = _certifying_shape(subs, kids, pol)
    for prefix_len, cycle_len in [(1, 1), full] if full != (1, 1) else [full]:
        found = _solve_shape(subs, kids, pol, prefix_len, cycle_len)
        if found is not None:
            return found
    return None


def x_sat(f):
    """Lasso word (prefix letters, cycle letters) satisfying {X} formula f, or None."""
    extra = fragment_of(f) - _X_ONLY
    if extra:
        raise ValueError("x_sat needs an {X} fragment formula, found %s"
                         % "".join(sorted(extra)))
    subs = subformulas(f)
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


def _fold(subs, kids, pol, reads, prefix_len, total):
    """The pairs whose value level-0 unit propagation over the one-sided
    clauses forces, one dict per subformula from position to TRUE or
    -TRUE, or None if two of them clash.

    One pass, parents before children.  The root is true at 0.  And true,
    Or false, Implies false (left true, right false) and Not either way
    force their arguments at the same position, X its argument one
    position on, G true at i itself at i+1..prefix_len and its argument at
    i..total-1, and F false the same with false.  Each is a unit clause of
    the half of the node's definition that its value needs, and that half
    is always emitted: the root is positive, and every rule forces true
    only an argument with a positive occurrence and false only one with a
    negative occurrence.  Top with a negative occurrence and Bottom with a
    positive one are fixed at every read position by the unit clause of
    their definition.
    """
    fixed = [{} for _ in subs]
    fixed[-1][0] = TRUE
    for k in range(len(subs) - 1, -1, -1):
        node = subs[k]
        row = fixed[k]
        cls = type(node)
        if cls is Top or cls is Bottom:
            lit = TRUE if cls is Top else -TRUE
            if pol[k] & (NEGATIVE if cls is Top else POSITIVE):
                for i in reads[k]:
                    if row.setdefault(i, lit) != lit:
                        return None
            continue
        if not row or cls is Prop:
            continue
        if cls is Finally or cls is Globally:
            # every cycle position is the one at prefix_len, and G true or
            # F false carries on to every later position
            for i in [i for i in row if i > prefix_len]:
                lit = row.pop(i)
                if row.setdefault(prefix_len, lit) != lit:
                    return None
            carried = TRUE if cls is Globally else -TRUE
            starts = [i for i, lit in row.items() if lit == carried]
            if starts:
                first = min(starts)
                for i in range(first, prefix_len + 1):
                    if row.setdefault(i, carried) != carried:
                        return None
                arg = fixed[kids[k][0]]
                for i in range(first, total):
                    if arg.setdefault(i, carried) != carried:
                        return None
            continue
        if cls is Next:
            arg = fixed[kids[k][0]]
            for i, lit in row.items():
                if arg.setdefault(i + 1 if i + 1 < total else prefix_len,
                                  lit) != lit:
                    return None
            continue
        if cls is Not:
            arg = fixed[kids[k][0]]
            for i, lit in row.items():
                if arg.setdefault(i, -lit) == lit:
                    return None
            continue
        trigger, forced = _FORCES[cls]
        args = [fixed[kid] for kid in kids[k]]
        for i, lit in row.items():
            if lit == trigger:
                for arg, a in zip(args, forced):
                    if arg.setdefault(i, a) != a:
                        return None
    return fixed


def _keep(out, clauses):
    """Append to out each of clauses that no folded pair satisfies, without
    its folded false literals; False if that leaves one empty."""
    for c in clauses:
        if TRUE in c:
            continue
        if -TRUE in c:
            c = tuple(x for x in c if x != -TRUE)
            if not c:
                return False
        out.append(c)
    return True


def _encode(subs, kids, pol, prefix_len, cycle_len):
    """(ids, nvars, clauses) encoding the shape, or None if the fold
    refutes it.  ids[k][i] is the literal of subs[k] at a position i where
    it is read: a variable, or TRUE or -TRUE for a folded pair.

    kids and pol are _structure(subs): a node of positive polarity gets
    only the v -> op(args) half of its definition, a negative one only the
    op(args) -> v half, and a mixed one both.
    """
    total = prefix_len + cycle_len
    reads = _read_positions(subs, kids, prefix_len, total)
    # the fold's rows hold the folded literals from the start
    ids = _fold(subs, kids, pol, reads, prefix_len, total)
    if ids is None:
        return None
    # Variables are numbered node by node, children first, in position
    # order, skipping folded pairs: a node's children are numbered before
    # it, since each is read wherever its parent reads it.  An X node's row
    # holds its argument's literals one position on, and every cycle
    # position of an F/G node holds its one shared cycle literal.  Rows are
    # dicts, not lists of length total, since a chain X^n p reads each node
    # at one position.  folded[k]: ids[k] may hold TRUE or -TRUE.
    folded = [bool(row) for row in ids]
    nvars = 0
    clauses = []
    for k, node in enumerate(subs):
        at = sorted(reads[k])
        row = ids[k]
        cls = type(node)
        if cls is Next:
            # no variable: X a at i is a at the next position
            (kid,) = kids[k]
            a = ids[kid]
            for i in at:
                row[i] = a[i + 1 if i + 1 < total else prefix_len]
            folded[k] = folded[kid]
            continue
        p = pol[k]
        temporal = cls is Finally or cls is Globally
        if cls is not Prop:
            # in the prefix, F a at i is a | F a at i+1, and G a is a & G a
            halves = TSEITIN[(Or if cls is Finally else And) if temporal else cls]
            gates = halves if p == MIXED else halves[p - 1 : p]
        if not temporal and cls is not Prop and (
                folded[k] or any(folded[kid] for kid in kids[k])):
            nvars = _encode_folded(
                clauses, row, gates, halves, _SETTLED.get(cls, ()),
                [ids[kid] for kid in kids[k]], at, nvars)
            if nvars is None:
                return None
            folded[k] = True
            continue
        if folded[k]:
            for i in at:
                if i not in row:
                    nvars += 1
                    row[i] = nvars
        else:
            row.update(zip(at, range(nvars + 1, nvars + 1 + len(at))))
            nvars += len(at)
        if cls is Prop:
            continue
        kid_rows = [ids[kid] for kid in kids[k]]
        if not temporal:
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
        # G true and F false settle a pair, since the fold forces its
        # argument and the next position with it
        carried = TRUE if cls is Globally else -TRUE
        (a,) = kid_rows
        for i in at[:-1]:
            v, x, w = row[i], a[i], row[i + 1]
            if -TRUE < v < TRUE and -TRUE < x < TRUE and -TRUE < w < TRUE:
                for gate in gates:
                    clauses.extend(gate(v, x, w))
            elif v != carried:
                for gate in gates:
                    if not _keep(clauses, gate(v, x, w)):
                        return None
        v = row[prefix_len]
        row.update(dict.fromkeys(range(prefix_len + 1, total), v))
        if v == carried:
            continue
        args = [a[j] for j in range(prefix_len, total)]
        # the shared cycle variable, in the same two halves
        cycle = []
        if cls is Finally:
            if p & POSITIVE:
                cycle.append((-v, *args))
            if p & NEGATIVE:
                cycle.extend((v, -x) for x in args)
        else:
            if p & POSITIVE:
                cycle.extend((-v, x) for x in args)
            if p & NEGATIVE:
                cycle.append((v, *[-x for x in args]))
        if not _keep(clauses, cycle):
            return None
    if not _keep(clauses, [(ids[-1][0],)]):
        return None
    return ids, nvars, clauses


def _encode_folded(clauses, row, gates, halves, settled, kid_rows, at, nvars):
    """Fill row, a position at a time, for a Boolean node that the fold
    reached or that reads a folded pair, and append its clauses; the last
    variable number, or None if a clause is left empty.

    A settled pair needs no clause.  Another folded pair keeps what is
    left of the half its value needs, which its polarity always has: those
    clauses start with the pair's literal, and the other half holds.  A
    pair the fold left open whose arguments hold a folded literal is fixed
    bottom-up if a clause is cut down to the pair's own variable u, which
    every clause of it holds; by the gate table, every other clause of the
    pair then holds too.
    """
    for i in at:
        lit = row.get(i)
        if lit in settled:
            continue
        args = [a[i] for a in kid_rows]
        if lit is not None:
            if TRUE in args or -TRUE in args:
                if not _keep(clauses, halves[lit < 0](lit, *args)):
                    return None
            else:
                for c in halves[lit < 0](lit, *args):
                    clauses.append(c[1:])
            continue
        u = nvars + 1
        if TRUE not in args and -TRUE not in args:
            nvars = row[i] = u
            for gate in gates:
                clauses.extend(gate(u, *args))
            continue
        rest = []
        for gate in gates:
            _keep(rest, gate(u, *args))
        for c in rest:
            if len(c) == 1:
                row[i] = TRUE if c[0] > 0 else -TRUE
                break
        else:
            nvars = row[i] = u
            clauses.extend(rest)
    return nvars


def _solve_shape(subs, kids, pol, prefix_len, cycle_len):
    """Lasso word of the given shape satisfying the root, subs[-1], or None."""
    encoded = _encode(subs, kids, pol, prefix_len, cycle_len)
    if encoded is None:
        return None
    ids, nvars, clauses = encoded
    model = solve_cdcl(clauses, nvars=nvars)
    if model is None:
        return None
    letters = [set() for _ in range(prefix_len + cycle_len)]
    for k, node in enumerate(subs):
        if isinstance(node, Prop):
            for i, v in ids[k].items():
                if v == TRUE or -TRUE < v < TRUE and model[v]:
                    letters[i].add(node.name)
    letters = [frozenset(letter) for letter in letters]
    return letters[:prefix_len], letters[prefix_len:]
