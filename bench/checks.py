"""Independent checkers the benchmark compares ltlwb's outputs against.

Nothing here calls ltlwb.oracles, graphs.check_decomposition,
kripke.eval_on_lasso or the formula measures: each decider works from the
problem definition with its own search, so a fault shared by the program's
oracle and its reduction still shows as a disagreement.

Tiles are (up, down, left, right) colour quadruples.  Two tiles sit side by
side when the left one's right colour equals the right one's left colour,
and one above the other when the upper one's down colour equals the lower
one's up colour.
"""

from __future__ import annotations

import itertools

_TEMPORAL = frozenset(("Next", "Finally", "Globally", "Until"))


def _fits_right(tiles):
    return [[a[3] == b[2] for b in tiles] for a in tiles]


def _fits_below(tiles):
    return [[a[1] == b[0] for b in tiles] for a in tiles]


def square_tileable(tiles, k):
    """Whether some k-by-k grid of tiles matches everywhere, decided by
    enumerating every assignment of tiles to cells."""
    right, below = _fits_right(tiles), _fits_below(tiles)
    pairs = [(c, c + 1, right) for c in range(k * k) if (c + 1) % k]
    pairs += [(c, c + k, below) for c in range(k * k - k)]
    for grid in itertools.product(range(len(tiles)), repeat=k * k):
        if all(fit[grid[a]][grid[b]] for a, b, fit in pairs):
            return True
    return False


def rect_tileable(tiles, top, bottom):
    """Whether a grid |tiles| wide and of some height m >= 1 tiles with
    every top-row up colour equal to top and every bottom-row down colour
    equal to bottom; reachability from top rows to bottom rows over the
    horizontally valid rows."""
    n = len(tiles)
    right, below = _fits_right(tiles), _fits_below(tiles)
    rows = [
        row
        for row in itertools.product(range(n), repeat=n)
        if all(right[row[i]][row[i + 1]] for i in range(n - 1))
    ]
    seen = {row for row in rows if all(tiles[t][0] == top for t in row)}
    stack = list(seen)
    while stack:
        row = stack.pop()
        if all(tiles[t][1] == bottom for t in row):
            return True
        for nxt in rows:
            if nxt not in seen and all(below[a][b] for a, b in zip(row, nxt)):
                seen.add(nxt)
                stack.append(nxt)
    return False


def pwsat_satisfiable(nvars, clauses, partitions, capacities):
    """Whether some assignment satisfies every clause and makes exactly
    capacities[p] variables of partitions[p] true; all 2^nvars tried."""
    for bits in range(1 << nvars):
        value = [False] + [bool(bits >> (v - 1) & 1) for v in range(1, nvars + 1)]
        if any(
            sum(value[v] for v in block) != cap
            for block, cap in zip(partitions, capacities)
        ):
            continue
        if all(any(value[abs(l)] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def path_decomposition_problems(vertices, edges, bags, links):
    """Reasons the bags fail to be a path decomposition of the graph;
    empty when they are one.  links must be the chain of consecutive bags;
    every vertex must sit in a bag, every edge inside one bag, and the bags
    holding a vertex must be consecutive."""
    problems = []
    chain = [(i, i + 1) for i in range(len(bags) - 1)]
    if not bags:
        problems.append("no bags")
    if sorted(tuple(sorted(l)) for l in links) != chain:
        problems.append("links are not the chain of consecutive bags")
    known = set(vertices)
    for i, bag in enumerate(bags):
        for v in set(bag) - known:
            problems.append("bag %d holds unknown vertex %s" % (i, v))
    for v in vertices:
        holding = [i for i, bag in enumerate(bags) if v in bag]
        if not holding:
            problems.append("vertex %s in no bag" % v)
        elif holding[-1] - holding[0] + 1 != len(holding):
            problems.append("bags holding %s are not consecutive" % v)
    for a, b in edges:
        if not any(a in bag and b in bag for bag in bags):
            problems.append("edge %s %s in no bag" % (a, b))
    return problems


def bag_width(bags):
    return max(len(bag) for bag in bags) - 1


def formula_measures(f):
    """(temporal depth, distinct propositions, tree nodes) of a formula
    tree, from one post-order walk over its node attributes.  X, F and G
    add one level of depth, U adds one over both arguments."""
    depth, size = {}, {}
    names = set()
    stack = [(f, False)]
    while stack:
        node, done = stack.pop()
        key = id(node)
        if key in depth:
            continue
        kind = type(node).__name__
        if hasattr(node, "arg"):
            kids = (node.arg,)
        elif hasattr(node, "left"):
            kids = (node.left, node.right)
        else:
            kids = ()
        if not done:
            stack.append((node, True))
            stack.extend((c, False) for c in kids if id(c) not in depth)
            continue
        if kind == "Prop":
            names.add(node.name)
        depth[key] = max((depth[id(c)] for c in kids), default=0) + (kind in _TEMPORAL)
        size[key] = 1 + sum(size[id(c)] for c in kids)
    return depth[id(f)], len(names), size[id(f)]
