"""Syntax graphs, tree and path decompositions, and width computation.

A reduction builds the syntax graph of the formula it emits (or the
structure graph of its Kripke structure) together with a witness
decomposition; `check_decomposition` validates the witness, `width` reads
its width and `format_decomposition` writes it as `bag I v1 v2 ...` lines
followed by `link I J` lines.

`syntax_graph` alone names syntax vertices (a proposition by its name,
every other occurrence `@N` in preorder) and, in the same walk, records
each occurrence's vertex in preorder and the formula's temporal depth.

Exact treewidth and pathwidth run a subset dynamic program over elimination
orderings and layouts, so they are limited to small vertex counts; larger
graphs get heuristic upper bounds or externally constructed decompositions.
"""

from __future__ import annotations

import heapq

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
    Until,
)


class Graph:
    """Undirected graph with named, role-labeled vertices and no self-loops.

    `edges` holds index pairs (i, j) with i < j into `names`/`roles`.  A
    syntax graph also carries `at`, mapping each occurrence's child-index
    path (a tuple, () for the root) to its vertex name, and `td`, the
    formula's temporal depth; other graphs have None for both.
    """

    __slots__ = ("names", "roles", "edges", "td", "_occurrences", "_at")

    def __init__(self, vertices, edges, occurrences=None, td=None):
        names = []
        roles = []
        index = {}
        for name, role in vertices:
            if name in index:
                raise ValueError("duplicate vertex %r" % name)
            index[name] = len(names)
            names.append(name)
            roles.append(role)
        self.names = tuple(names)
        self.roles = tuple(roles)
        edge_set = set()
        for a, b in edges:
            if a not in index or b not in index:
                raise ValueError("edge (%r, %r) references unknown vertex" % (a, b))
            ia, ib = index[a], index[b]
            if ia == ib:
                raise ValueError("self-loop at %r" % a)
            edge_set.add((min(ia, ib), max(ia, ib)))
        self.edges = frozenset(edge_set)
        # (formula, vertex name of each occurrence in preorder)
        self._occurrences = occurrences
        self._at = None
        self.td = td

    def __len__(self):
        return len(self.names)

    @property
    def at(self):
        """Child-index path -> vertex name of every occurrence, or None if
        this is not a syntax graph.  Built on first use: the paths together
        grow with the square of the nesting depth, and only the
        reductions' witness recipes read them."""
        if self._at is None and self._occurrences is not None:
            f, order = self._occurrences
            at = {}
            # the preorder of syntax_graph's walk, over nodes of arity 0-2
            stack = [(f, ())]
            pop = stack.pop
            push = stack.append
            for name in order:
                node, path = pop()
                at[path] = name
                children = node.children()
                if len(children) == 2:
                    push((children[1], path + (1,)))
                if children:
                    push((children[0], path + (0,)))
            self._at = at
        return self._at


class Decomposition:
    """Bags of vertex names linked into a tree; a chain of links is a path
    decomposition.  Omitted links default to the consecutive chain."""

    __slots__ = ("bags", "links")

    def __init__(self, bags, links=None):
        self.bags = tuple(frozenset(b) for b in bags)
        if links is None:
            links = [(i, i + 1) for i in range(len(self.bags) - 1)]
        seen = set()
        for i, j in links:
            if not (0 <= i < len(self.bags)) or not (0 <= j < len(self.bags)):
                raise ValueError("link (%d, %d) references missing bag" % (i, j))
            if i == j:
                raise ValueError("self-link at bag %d" % i)
            seen.add((min(i, j), max(i, j)))
        self.links = tuple(sorted(seen))

    def is_tree(self):
        n = len(self.bags)
        if n == 0 or len(self.links) != n - 1:
            return False
        adj = [[] for _ in self.bags]
        for i, j in self.links:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        frontier = [0]
        while frontier:
            for c in adj[frontier.pop()]:
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
        return len(seen) == n


def width(d):
    """Maximal bag size minus one."""
    if not d.bags:
        raise ValueError("decomposition has no bags")
    return max(len(b) for b in d.bags) - 1


def check_decomposition(g, d):
    """Violations of the cover and connectivity conditions; empty means valid."""
    violations = []
    holding = {v: [] for v in g.names}  # vertex -> indices of the bags holding it
    for i, bag in enumerate(d.bags):
        for v in bag:
            if v in holding:
                holding[v].append(i)
            else:
                violations.append("bag %d contains unknown vertex %s" % (i, v))
    violations.extend("vertex %s not covered" % v for v in g.names if not holding[v])
    for ia, ib in sorted(g.edges):
        a, b = g.names[ia], g.names[ib]
        short, other = (holding[a], b) if len(holding[a]) <= len(holding[b]) else (holding[b], a)
        if not any(other in d.bags[i] for i in short):
            violations.append("edge %s %s not covered" % (a, b))
    if not d.is_tree():
        violations.append("links do not form a tree")
        return violations
    # in a tree, the bags holding v are connected iff |holding| - 1 links join two of them
    inner = dict.fromkeys(g.names, 0)
    for i, j in d.links:
        for v in d.bags[i] & d.bags[j]:
            if v in inner:
                inner[v] += 1
    violations.extend("vertex %s occurs in disconnected bags" % v
                      for v in g.names if holding[v] and inner[v] != len(holding[v]) - 1)
    return violations


# ---------------------------------------------------------------------------
# graph builders

_TEMPORAL = (Next, Finally, Globally, Until)

_ROLE = {
    Not: "not",
    And: "and",
    Or: "or",
    Implies: "implies",
    Next: "next",
    Finally: "finally",
    Globally: "globally",
    Until: "until",
    Top: "true",
    Bottom: "false",
}


def syntax_graph(f):
    """One vertex per subformula occurrence, with all occurrences of a
    proposition merged into a single vertex; edges join each node to its
    immediate subformulas.  The result's `at` and `td` come from the same
    walk, which counts occurrences, so a subformula object used twice is
    visited twice."""
    vertices = []
    props = set()
    edges = []
    order = []
    td = 0
    counter = 0
    # preorder walk with explicit stack; each node carries its parent's
    # vertex and the temporal operators above it
    stack = [(f, None, 0)]
    while stack:
        node, parent, depth = stack.pop()
        if isinstance(node, Prop):
            name = node.name
            if name not in props:
                props.add(name)
                vertices.append((name, "prop"))
        else:
            # "@" keeps generated ids outside the proposition alphabet
            name = "@%d" % counter
            counter += 1
            vertices.append((name, _ROLE[type(node)]))
            if isinstance(node, _TEMPORAL):
                depth += 1
                if depth > td:
                    td = depth
            for child in reversed(node.children()):
                stack.append((child, name, depth))
        order.append(name)
        if parent is not None:
            edges.append((parent, name))
    return Graph(vertices, edges, (f, order), td)


# ---------------------------------------------------------------------------
# exact widths by subset dynamic programming

EXACT_LIMIT = 14


def _adj_sets(g):
    adj = [set() for _ in g.names]
    for ia, ib in g.edges:
        adj[ia].add(ib)
        adj[ib].add(ia)
    return adj


def _adj_masks(g):
    masks = [0] * len(g)
    for ia, ib in g.edges:
        masks[ia] |= 1 << ib
        masks[ib] |= 1 << ia
    return masks


def exact_treewidth(g, limit=EXACT_LIMIT):
    """Optimal treewidth with a certifying decomposition.

    Dynamic program over subsets: the cost of eliminating S last-vertex-first
    is min over v of max(cost(S minus v), fill degree of v after S minus v),
    where the fill degree counts vertices outside reachable through the
    eliminated set.
    """
    n = len(g)
    if n > limit:
        raise ValueError("graph too large for exact search (%d > %d)" % (n, limit))
    if n == 0:
        raise ValueError("empty graph")
    masks = _adj_masks(g)
    full = (1 << n) - 1

    def fill_degree(w_mask, v):
        # vertices outside w_mask reachable from v through w_mask
        seen = (1 << v)
        reach = 0
        frontier = masks[v] & ~seen
        while frontier:
            reach |= frontier
            expand = frontier & w_mask
            nxt = 0
            while expand:
                low = expand & -expand
                nxt |= masks[low.bit_length() - 1]
                expand ^= low
            frontier = nxt & ~(reach | seen)
        return (reach & ~w_mask & ~(1 << v)).bit_count()

    size = 1 << n
    cost = [0] * size
    choice = [0] * size
    by_count = sorted(range(size), key=lambda m: m.bit_count())
    for s in by_count:
        if s == 0:
            continue
        best = n
        best_v = -1
        rest = s
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            prev = s ^ low
            c = cost[prev]
            d = fill_degree(prev, v)
            if d > c:
                c = d
            if c < best:
                best = c
                best_v = v
        cost[s] = best
        choice[s] = best_v

    # recover the elimination ordering; the vertex chosen for S is last in S
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    dec = _decomposition_from_elimination(g, order)
    return cost[full], dec


def exact_pathwidth(g, limit=EXACT_LIMIT):
    """Optimal pathwidth via vertex separation over layouts.

    The cost of placing S as a layout prefix is min over v of
    max(cost(S minus v), boundary(S)) where boundary counts vertices of S
    with neighbors outside S; the optimal layout yields the bags.
    """
    n = len(g)
    if n > limit:
        raise ValueError("graph too large for exact search (%d > %d)" % (n, limit))
    if n == 0:
        raise ValueError("empty graph")
    masks = _adj_masks(g)
    full = (1 << n) - 1

    def boundary(s):
        count = 0
        rest = s
        while rest:
            low = rest & -rest
            if masks[low.bit_length() - 1] & ~s:
                count += 1
            rest ^= low
        return count

    size = 1 << n
    cost = [0] * size
    choice = [0] * size
    by_count = sorted(range(size), key=lambda m: m.bit_count())
    for s in by_count:
        if s == 0:
            continue
        b = boundary(s)
        best = n
        best_v = -1
        rest = s
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            c = cost[s ^ low]
            if b > c:
                c = b
            if c < best:
                best = c
                best_v = v
        cost[s] = best
        choice[s] = best_v

    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()

    # bag i holds layout[i] plus every earlier vertex still adjacent forward
    bags = []
    placed = 0
    for i, v in enumerate(order):
        ahead = full & ~placed & ~(1 << v)
        bag = {g.names[v]}
        rest = placed
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            if masks[u] & (ahead | (1 << v)):
                bag.add(g.names[u])
        bags.append(bag)
        placed |= 1 << v
    return cost[full], Decomposition(bags)


def minfill_upper(g):
    """Tree decomposition from min-fill elimination; width is an upper bound.

    The vertex eliminated next has the fewest fill edges (pairs of its
    alive neighbours that are not adjacent), the lowest index among those.
    Fill counts are kept per alive vertex and updated where an elimination
    changes them: its neighbours lose it, and each fill edge a-b it adds
    is one pair less for the common neighbours of a and b and new pairs
    for a and b.  The choice comes from a lazy heap keyed (fill, index),
    so a hub adjacent to everything costs no more than its degree.
    """
    n = len(g)
    if n == 0:
        raise ValueError("empty graph")
    adj = _adj_sets(g)  # adjacency among alive vertices
    fill = [0] * n
    for v in range(n):
        # ordered pairs of neighbours minus ordered adjacent pairs, halved
        d = len(adj[v])
        fill[v] = (d * (d - 1) - sum(len(adj[u] & adj[v]) for u in adj[v])) // 2
    heap = [(f, v) for v, f in enumerate(fill)]
    heapq.heapify(heap)
    alive = [True] * n
    order = []
    while heap:
        f, v = heapq.heappop(heap)
        if not alive[v] or f != fill[v]:
            continue
        alive[v] = False
        order.append(v)
        nb = adj[v]
        touched = set(nb)
        for x in nb:
            adj[x].discard(v)
        for x in nb:
            # the pairs (v, u) with u not adjacent to v leave x's count
            fill[x] -= len(adj[x]) - len(adj[x] & nb)
        nb_list = sorted(nb)
        for i, a in enumerate(nb_list):
            for b in nb_list[i + 1 :]:
                if b in adj[a]:
                    continue
                common = adj[a] & adj[b]
                for x in common:
                    fill[x] -= 1
                touched |= common
                fill[a] += len(adj[a]) - len(common)
                fill[b] += len(adj[b]) - len(common)
                adj[a].add(b)
                adj[b].add(a)
        for x in touched:
            heapq.heappush(heap, (fill[x], x))
    dec = _decomposition_from_elimination(g, order)
    return width(dec), dec


def _decomposition_from_elimination(g, order):
    """Bags from an elimination ordering with standard tree links."""
    n = len(g)
    adj = _adj_sets(g)
    alive = set(range(n))
    position = {v: i for i, v in enumerate(order)}
    bags = []
    links = []
    for i, v in enumerate(order):
        nb = sorted(adj[v] & alive)
        bags.append({g.names[v]} | {g.names[u] for u in nb})
        for a_i, a in enumerate(nb):
            for b in nb[a_i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        alive.remove(v)
        if nb:
            nxt = min(nb, key=lambda u: position[u])
            links.append((i, position[nxt]))
        elif i + 1 < n:
            links.append((i, i + 1))
    return Decomposition(bags, links)


# ---------------------------------------------------------------------------
# text format

def format_decomposition(d):
    lines = []
    for i, bag in enumerate(d.bags):
        lines.append(("bag %d " % i + " ".join(sorted(bag))).rstrip())
    lines.extend("link %d %d" % (i, j) for i, j in d.links)
    return "\n".join(lines) + "\n"
