"""Satisfiability and universal model checking.

sat() routes by fragment: pure-X formulas reduce to propositional
satisfiability after flattening, large {F,G} formulas go to the bounded
lasso engine, everything else to the tableau product over one world whose
letter is free.  Every witness is revalidated with eval_on_lasso before it
is returned.

mc_universal checks the complement: a formula holds on all paths from a
world exactly when no path satisfies its negation, decided by the fused
structure x tableau product.
"""

from __future__ import annotations

# find_accepting_lasso is no longer called here; it stays importable from
# this module because the benchmark's traced run (bench/spans.py) wraps it
# under this name
from .buchi import find_accepting_lasso, fused_product_lasso, model_word
from .fgsat import fg_sat
from .formula import (
    And,
    Bottom,
    Finally,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Top,
    Until,
    fragment_of,
    subformulas,
    temporal_depth,
    x_flatten,
)
from .kripke import KripkeStructure, Lasso, eval_on_lasso, validate_structure
from .propsat import TSEITIN, solve_cdcl

_X_ONLY = frozenset("X")
_FG_ONLY = frozenset("FG")

# below this closure size the tableau route is cheap and exercises the
# general machinery; above it the {F,G} encoding scales much better
FG_CUTOFF = 40


class McInstance:
    """A structure, a start world, and a formula to hold on all paths."""

    __slots__ = ("structure", "world", "formula")

    def __init__(self, structure, world, formula):
        if isinstance(world, str):
            world = structure.index(world)
        self.structure = structure
        self.world = world
        self.formula = formula

    def validate(self):
        problems = validate_structure(self.structure)
        if problems:
            raise ValueError("invalid structure: " + "; ".join(problems))
        if not 0 <= self.world < len(self.structure):
            raise ValueError("world index %d out of range" % self.world)


def until_top_to_finally(f):
    """Rewrite every (true U a) into F a; the two are the same connective."""
    out = {}
    for node in subformulas(f):
        kids = [out[c] for c in node.children()]
        if isinstance(node, Until) and isinstance(kids[0], Top):
            out[node] = Finally(kids[1])
        elif kids:
            out[node] = type(node)(*kids)
        else:
            out[node] = node
    return out[f]


# ---------------------------------------------------------------------------
# satisfiability

def sat(f):
    """(structure, lasso) witnessing satisfiability of f, or None."""
    g = until_top_to_finally(f)
    fragment = fragment_of(g)
    if fragment <= _X_ONLY:
        witness = _x_witness(g)
    else:
        if fragment <= _FG_ONLY and len(subformulas(g)) >= FG_CUTOFF:
            found = fg_sat(g)
        else:
            found = model_word(g)
        witness = None if found is None else _word_witness(*found)
    if witness is None:
        return None
    s, lasso = witness
    if not eval_on_lasso(s, lasso, f):
        raise RuntimeError("satisfiability witness failed revalidation")
    return s, lasso


def _word_witness(prefix_letters, cycle_letters):
    """Chain structure whose single path is exactly prefix·cycle^ω."""
    letters = list(prefix_letters) + list(cycle_letters)
    names = ["s%d" % i for i in range(len(letters))]
    edges = [(names[i], names[i + 1]) for i in range(len(letters) - 1)]
    edges.append((names[-1], names[len(prefix_letters)]))
    labels = {names[i]: letters[i] for i in range(len(letters))}
    s = KripkeStructure(names, edges, labels, names[0])
    lasso = Lasso(
        range(len(prefix_letters)), range(len(prefix_letters), len(letters))
    )
    return s, lasso


def _x_witness(g):
    model, atoms, _ = _solve_flattened(g)
    if model is None:
        return None
    depth = temporal_depth(g)
    letters = [
        frozenset(name for (d, name), v in atoms.items() if d == i and model[v])
        for i in range(depth + 1)
    ]
    return _word_witness(letters[:depth], letters[depth:])


def sat_x(f):
    """Propositional satisfiability of an X-fragment formula.

    After flattening, each maximal X^n p block acts as one atom; clashes
    can only arise between literals at the same nesting depth.
    """
    if not fragment_of(f) <= _X_ONLY:
        raise ValueError("sat_x needs an {X} fragment formula")
    model, _, _ = _solve_flattened(f)
    return model is not None


def _solve_flattened(f):
    """CDCL over the flattened form; returns (model, atom vars, clause count)."""
    g = x_flatten(f)
    atoms = {}
    var = {}
    clauses = []
    counter = 0

    def alloc():
        nonlocal counter
        counter += 1
        return counter

    for node in subformulas(g):
        if isinstance(node, Prop):
            key = (0, node.name)
            if key not in atoms:
                atoms[key] = alloc()
            var[node] = atoms[key]
        elif isinstance(node, Next):
            depth, leaf = 0, node
            while isinstance(leaf, Next):
                depth += 1
                leaf = leaf.arg
            key = (depth, leaf.name)
            if key not in atoms:
                atoms[key] = alloc()
            var[node] = atoms[key]
        elif type(node) in TSEITIN:
            v = var[node] = alloc()
            clauses.extend(TSEITIN[type(node)](v, *(var[c] for c in node.children())))
        else:
            raise ValueError("unexpected %s node after flattening" % node.op)
    clauses.append((var[g],))
    model = solve_cdcl(clauses, nvars=counter)
    return model, atoms, len(clauses)


# ---------------------------------------------------------------------------
# model checking

def exists_path(s, world, f):
    """Lasso from world satisfying f, or None; the dual core of mc_universal."""
    found = fused_product_lasso(s, world, f)
    if found is None:
        return None
    lasso = Lasso(found[0], found[1])
    if not eval_on_lasso(s, lasso, f):
        raise RuntimeError("path witness failed revalidation")
    return lasso


def mc_counterexample(i):
    """A lasso from i.world falsifying i.formula, or None when none exists."""
    i.validate()
    return exists_path(i.structure, i.world, Not(i.formula))


def mc_universal(i):
    """True iff every infinite path from i.world satisfies i.formula."""
    return mc_counterexample(i) is None


def mc_x_bounded(i):
    """Universal checking of an X-fragment formula by bounded path search.

    Only the first td+1 worlds of a path can influence the formula, so the
    successor tree is explored to that depth and nothing else.
    """
    if not fragment_of(i.formula) <= _X_ONLY:
        raise ValueError("mc_x_bounded needs an {X} fragment formula")
    i.validate()
    s, f = i.structure, i.formula
    horizon = temporal_depth(f) + 1
    stack = [(i.world,)]
    while stack:
        path = stack.pop()
        if len(path) == horizon:
            if not _eval_finite(f, s, path):
                return False
            continue
        for w in s.succ[path[-1]]:
            stack.append(path + (w,))
    return True


def _eval_finite(f, s, path):
    """Truth of X-fragment f at the first world of a finite path.

    An explicit stack of (node, position) pairs, children first, so deep
    formulas evaluate without recursion.
    """
    val = {}
    stack = [(f, 0, False)]
    while stack:
        node, pos, ready = stack.pop()
        key = (node, pos)
        if key in val:
            continue
        if isinstance(node, Next):
            kids = [(node.arg, pos + 1)]
        else:
            kids = [(c, pos) for c in node.children()]
        if not ready:
            stack.append((node, pos, True))
            stack.extend((c, p, False) for c, p in kids)
            continue
        args = [val[k] for k in kids]
        if isinstance(node, Prop):
            val[key] = node.name in s.labels[path[pos]]
        elif isinstance(node, Top):
            val[key] = True
        elif isinstance(node, Bottom):
            val[key] = False
        elif isinstance(node, Not):
            val[key] = not args[0]
        elif isinstance(node, And):
            val[key] = args[0] and args[1]
        elif isinstance(node, Or):
            val[key] = args[0] or args[1]
        elif isinstance(node, Implies):
            val[key] = not args[0] or args[1]
        elif isinstance(node, Next):
            val[key] = args[0]
        else:
            raise ValueError("unexpected %s node in X-fragment evaluation" % node.op)
    return val[f, 0]


# ---------------------------------------------------------------------------
# brute-force oracle

def lassos_up_to(s, start, bound):
    """Every lasso from start with prefix plus cycle of at most bound worlds."""
    stack = [(start,)]
    while stack:
        walk = stack.pop()
        succs = s.succ[walk[-1]]
        for j in range(len(walk)):
            if walk[j] in succs:
                yield Lasso(walk[:j], walk[j:])
        if len(walk) < bound:
            for w in succs:
                stack.append(walk + (w,))


def brute_mc(i, bound):
    """False iff some lasso of total length <= bound falsifies the formula.

    Complete for mc_universal once bound covers the product-state count;
    independent of the tableau machinery by construction.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    i.validate()
    for lasso in lassos_up_to(i.structure, i.world, bound):
        if not eval_on_lasso(i.structure, lasso, i.formula):
            return False
    return True
