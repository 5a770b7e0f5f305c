"""Finite Kripke structures, lassos, and exact LTL evaluation on them.

Structures are immutable after construction.  Worlds live at dense integer
indices; names are kept in a side table because generated structures carry
thousands of systematically named worlds.
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
    Until,
    subformulas,
)


class KripkeFormatError(ValueError):
    """Raised on malformed structure or lasso text."""


class KripkeStructure:
    """Worlds with a transition relation, labels, and an initial world.

    The constructor is permissive about totality and dangling edges so that
    validate_structure can report them; it rejects duplicate world names and
    an unknown initial world outright.
    """

    __slots__ = ("names", "labels", "succ", "init", "dangling", "_index")

    def __init__(self, names, edges, labels, init):
        self.names = tuple(names)
        self._index = {}
        for i, n in enumerate(self.names):
            if n in self._index:
                raise ValueError("duplicate world name %r" % n)
            self._index[n] = i
        if init not in self._index:
            raise ValueError("initial world %r is not declared" % init)
        self.init = self._index[init]
        if isinstance(labels, dict):
            label_of = lambda n: labels.get(n, ())
        else:
            label_of = lambda n: labels(n)
        self.labels = tuple(frozenset(label_of(n)) for n in self.names)
        succ = [set() for _ in self.names]
        dangling = []
        for a, b in edges:
            ia = self._index.get(a)
            ib = self._index.get(b)
            if ia is None or ib is None:
                dangling.append((a, b))
            else:
                succ[ia].add(ib)
        self.succ = tuple(tuple(sorted(s)) for s in succ)
        self.dangling = tuple(dangling)

    def __len__(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown world %r" % name) from None

    def __eq__(self, other):
        if not isinstance(other, KripkeStructure):
            return NotImplemented
        return (
            self.names == other.names
            and self.labels == other.labels
            and self.succ == other.succ
            and self.init == other.init
            and self.dangling == other.dangling
        )

    def __hash__(self):
        return hash((self.names, self.labels, self.succ, self.init))


class Lasso:
    """Ultimately periodic path: finite prefix followed by a repeated cycle."""

    __slots__ = ("prefix", "cycle")

    def __init__(self, prefix, cycle):
        self.prefix = tuple(prefix)
        self.cycle = tuple(cycle)
        if not self.cycle:
            raise ValueError("lasso cycle must be nonempty")

    def positions(self):
        return self.prefix + self.cycle

    def world_at(self, i):
        """World index at unrolled position i of prefix·cycle^ω."""
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def __eq__(self, other):
        if not isinstance(other, Lasso):
            return NotImplemented
        return self.prefix == other.prefix and self.cycle == other.cycle

    def __hash__(self):
        return hash((self.prefix, self.cycle))

    def __repr__(self):
        return "Lasso(%r, %r)" % (list(self.prefix), list(self.cycle))


def validate_structure(s):
    """List totality and dangling-edge violations; empty list means valid."""
    violations = []
    for i, succ in enumerate(s.succ):
        if not succ:
            violations.append("non-total at world %s" % s.names[i])
    for a, b in s.dangling:
        violations.append("dangling edge %s %s" % (a, b))
    return violations


def branching_degree(s):
    """Maximum successor count over all worlds."""
    return max((len(succ) for succ in s.succ), default=0)


def validate_lasso(s, lasso):
    """Check that consecutive lasso worlds, including the wrap, are related."""
    walk = lasso.positions()
    for w in walk:
        if not 0 <= w < len(s):
            raise ValueError("lasso world index %d out of range" % w)
    for i in range(len(walk) - 1):
        if walk[i + 1] not in s.succ[walk[i]]:
            raise ValueError(
                "lasso step %s -> %s is not an edge" % (s.names[walk[i]], s.names[walk[i + 1]])
            )
    last = walk[-1]
    back = lasso.cycle[0]
    if back not in s.succ[last]:
        raise ValueError(
            "lasso wrap %s -> %s is not an edge" % (s.names[last], s.names[back])
        )


def eval_on_lasso(s, lasso, f):
    """Exact satisfaction of f at position 0 of the lasso's infinite path.

    Satisfaction sets are computed bottom-up over the distinct positions;
    F/U are least fixpoints and G a greatest fixpoint of the expansion laws,
    which converge within prefix+cycle iterations.
    """
    validate_lasso(s, lasso)
    walk = lasso.positions()
    length = len(walk)
    loop = len(lasso.prefix)

    def nxt(i):
        return i + 1 if i + 1 < length else loop

    val = {}
    for node in subformulas(f):
        if isinstance(node, Prop):
            row = [node.name in s.labels[walk[i]] for i in range(length)]
        elif isinstance(node, Top):
            row = [True] * length
        elif isinstance(node, Bottom):
            row = [False] * length
        elif isinstance(node, Not):
            arg = val[node.arg]
            row = [not arg[i] for i in range(length)]
        elif isinstance(node, And):
            a, b = val[node.left], val[node.right]
            row = [a[i] and b[i] for i in range(length)]
        elif isinstance(node, Or):
            a, b = val[node.left], val[node.right]
            row = [a[i] or b[i] for i in range(length)]
        elif isinstance(node, Implies):
            a, b = val[node.left], val[node.right]
            row = [(not a[i]) or b[i] for i in range(length)]
        elif isinstance(node, Next):
            arg = val[node.arg]
            row = [arg[nxt(i)] for i in range(length)]
        elif isinstance(node, Finally):
            arg = val[node.arg]
            row = _least_fixpoint(length, nxt, lambda i, cur: arg[i] or cur[nxt(i)])
        elif isinstance(node, Globally):
            arg = val[node.arg]
            row = _greatest_fixpoint(length, nxt, lambda i, cur: arg[i] and cur[nxt(i)])
        elif isinstance(node, Until):
            a, b = val[node.left], val[node.right]
            row = _least_fixpoint(
                length, nxt, lambda i, cur: b[i] or (a[i] and cur[nxt(i)])
            )
        else:
            raise TypeError("unknown formula node %r" % node)
        val[node] = row
    return val[f][0]


def _least_fixpoint(length, nxt, step):
    cur = [False] * length
    for _ in range(length + 1):
        new = [step(i, cur) for i in range(length)]
        if new == cur:
            break
        cur = new
    return cur


def _greatest_fixpoint(length, nxt, step):
    cur = [True] * length
    for _ in range(length + 1):
        new = [step(i, cur) for i in range(length)]
        if new == cur:
            break
        cur = new
    return cur


# ---------------------------------------------------------------------------
# text format
#
#   world <id> [label1 label2 ...]
#   edge <id> <id>
#   init <id>
#   # comment

def parse_kripke(text):
    """Read the line-based structure format; rejects undeclared edge endpoints."""
    names = []
    declared = set()
    labels = {}
    edges = []
    init = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "world":
            if len(parts) < 2:
                raise KripkeFormatError("line %d: world needs an id" % lineno)
            name = parts[1]
            if name in declared:
                raise KripkeFormatError("line %d: duplicate world %s" % (lineno, name))
            declared.add(name)
            names.append(name)
            labels[name] = parts[2:]
        elif kind == "edge":
            if len(parts) != 3:
                raise KripkeFormatError("line %d: edge needs two ids" % lineno)
            if parts[1] not in declared or parts[2] not in declared:
                raise KripkeFormatError(
                    "line %d: edge references undeclared world" % lineno
                )
            edges.append((parts[1], parts[2]))
        elif kind == "init":
            if len(parts) != 2:
                raise KripkeFormatError("line %d: init needs one id" % lineno)
            if parts[1] not in declared:
                raise KripkeFormatError("line %d: init world undeclared" % lineno)
            if init is not None:
                raise KripkeFormatError("line %d: repeated init" % lineno)
            init = parts[1]
        else:
            raise KripkeFormatError("line %d: unknown directive %r" % (lineno, kind))
    if init is None:
        raise KripkeFormatError("missing init line")
    return KripkeStructure(names, edges, labels, init)


def format_kripke(s):
    """Canonical text for a structure; parse(format(s)) == s and the text is
    stable under a second round-trip."""
    lines = []
    for i, name in enumerate(s.names):
        row = ["world", name]
        row.extend(sorted(s.labels[i]))
        lines.append(" ".join(row))
    for i, name in enumerate(s.names):
        for j in s.succ[i]:
            lines.append("edge %s %s" % (name, s.names[j]))
    lines.append("init %s" % s.names[s.init])
    return "\n".join(lines) + "\n"


def parse_lasso(text, s):
    """Read a witness path: `prefix [ids...]` then `cycle <ids...>`."""
    prefix = None
    cycle = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "prefix":
            if prefix is not None:
                raise KripkeFormatError("line %d: repeated prefix" % lineno)
            prefix = parts[1:]
        elif parts[0] == "cycle":
            if cycle is not None:
                raise KripkeFormatError("line %d: repeated cycle" % lineno)
            cycle = parts[1:]
        else:
            raise KripkeFormatError("line %d: unknown directive %r" % (lineno, parts[0]))
    if cycle is None or not cycle:
        raise KripkeFormatError("missing or empty cycle line")
    try:
        pre = [s.index(n) for n in (prefix or [])]
        cyc = [s.index(n) for n in cycle]
    except KeyError as e:
        raise KripkeFormatError(str(e)) from None
    return Lasso(pre, cyc)


def format_lasso(lasso, s):
    pre = " ".join(s.names[i] for i in lasso.prefix)
    cyc = " ".join(s.names[i] for i in lasso.cycle)
    return "prefix%s\ncycle %s\n" % (" " + pre if pre else "", cyc)
