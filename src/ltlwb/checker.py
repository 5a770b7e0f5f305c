"""Satisfiability and universal model checking.

sat() routes by fragment: {X} formulas and {F,G} formulas go to the
bounded lasso encoder (fgsat), everything else to the tableau product over
one world whose letter is free.  Every witness is revalidated with
eval_on_lasso before it is returned.

mc_universal checks the complement: a formula holds on all paths from a
world exactly when no path satisfies its negation, decided by the fused
structure x tableau product.  mc_x_bounded (bounded successor-tree search
for {X} formulas) and brute_mc (every lasso up to a bound) are second
routes that share no tableau code with it.  Both compile the formula once
and evaluate each path's labels with kripke.eval_word, the bit-row core of
eval_on_lasso, without building or revalidating a Lasso per path: their
paths are walks along succ, so they are valid by construction.
"""

from __future__ import annotations

# find_accepting_lasso and solve_cdcl are not called here:
# fused_product_lasso and model_word reach the first inside buchi, where it
# also expands the product, and fgsat calls the second.  Both stay
# importable from this module because the benchmark's traced run
# (bench/spans.py) wraps them under these names.
from .buchi import find_accepting_lasso, fused_product_lasso, model_word
from .fgsat import fg_sat, x_sat
from .formula import Finally, Not, Top, Until, fragment_of, subformulas, temporal_depth
from .kripke import (
    KripkeStructure,
    Lasso,
    compile_formula,
    eval_on_lasso,
    eval_word,
    validate_structure,
)
from .propsat import solve_cdcl

_X_ONLY = frozenset("X")
_FG_ONLY = frozenset("FG")


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
    """Rewrite every (true U a) into F a; the two are the same connective.
    A formula without U comes back as the same object."""
    if not f.opbits & Until.opbit:
        return f
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
        found = x_sat(g)
    elif fragment <= _FG_ONLY:
        found = fg_sat(g)
    else:
        found = model_word(g)
    if found is None:
        return None
    s, lasso = _word_witness(*found)
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


def sat_x(f):
    """Satisfiability of an X-fragment formula, decided at the one lasso shape (td, 1)."""
    return x_sat(f) is not None


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
    successor tree is explored to that depth and nothing else.  The formula
    is compiled once, and each leaf path's labels are evaluated by
    eval_word as the word whose last letter repeats forever: the formula
    reads positions 0..td only, so the repetition changes nothing.  No
    tableau code runs on this route.
    """
    if not fragment_of(i.formula) <= _X_ONLY:
        raise ValueError("mc_x_bounded needs an {X} fragment formula")
    i.validate()
    s = i.structure
    prog = compile_formula(i.formula)
    horizon = temporal_depth(i.formula) + 1
    stack = [(i.world,)]
    while stack:
        path = stack.pop()
        if len(path) == horizon:
            if not eval_word(prog, [s.labels[w] for w in path], horizon - 1):
                return False
            continue
        for w in s.succ[path[-1]]:
            stack.append(path + (w,))
    return True


# ---------------------------------------------------------------------------
# brute-force oracle

def lassos_up_to(s, start, bound):
    """Every lasso from start with prefix plus cycle of at most bound worlds,
    as (walk, j): the walk's worlds are the prefix walk[:j] followed by the
    cycle walk[j:], and walk[j] is a successor of the walk's last world.
    Walks are built from succ, so every pair is a valid lasso."""
    stack = [(start,)]
    while stack:
        walk = stack.pop()
        succs = s.succ[walk[-1]]
        for j in range(len(walk)):
            if walk[j] in succs:
                yield walk, j
        if len(walk) < bound:
            for w in succs:
                stack.append(walk + (w,))


def brute_mc(i, bound):
    """False iff some lasso of total length <= bound falsifies the formula.

    The formula is compiled once and each lasso's labels are evaluated by
    eval_word, with no Lasso object and no per-lasso validation.  Complete
    for mc_universal once bound covers the product-state count; independent
    of the tableau machinery by construction.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    i.validate()
    labels = i.structure.labels
    prog = compile_formula(i.formula)
    for walk, j in lassos_up_to(i.structure, i.world, bound):
        if not eval_word(prog, [labels[w] for w in walk], j):
            return False
    return True
