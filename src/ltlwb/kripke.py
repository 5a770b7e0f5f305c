"""Finite Kripke structures, lassos, and exact LTL evaluation on them.

Structures are immutable after construction.  Worlds live at dense integer
indices; names are kept in a side table because generated structures carry
thousands of systematically named worlds.

Evaluation is bit-parallel over the positions of a path (Markey and
Schnoebelen, Model checking a path, CONCUR 2003): compile_formula turns a
formula into a flat op list once, and eval_word holds each subformula's
truth over the positions of prefix·cycle as one int, so X is a shift and
U one carry-propagating add.  eval_on_lasso validates a lasso against its
structure and evaluates its labels this way.
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
    """Raised on malformed structure text."""


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

    The lasso is validated against the structure, then its worlds' labels
    are evaluated as a word by eval_word.  This is the evaluator every
    witness is revalidated with, so it uses no automaton code.
    """
    validate_lasso(s, lasso)
    letters = [s.labels[w] for w in lasso.positions()]
    return eval_word(compile_formula(f), letters, len(lasso.prefix))


# op codes of a compiled formula; every op is (code, argument, argument)
_PROP, _TOP, _BOTTOM, _NOT, _AND, _OR, _IMPLIES, _NEXT, _FINALLY, _GLOBALLY, _UNTIL = range(11)
_CODES = {
    Prop: _PROP, Top: _TOP, Bottom: _BOTTOM, Not: _NOT, And: _AND, Or: _OR,
    Implies: _IMPLIES, Next: _NEXT, Finally: _FINALLY, Globally: _GLOBALLY, Until: _UNTIL,
}


def compile_formula(f):
    """Flat program for eval_word: one op per distinct subformula, children
    first and the root last.  Operands are indices of earlier ops; a Prop
    op carries its name."""
    index = {}
    prog = []
    for node in subformulas(f):
        code = _CODES.get(type(node))
        if code is None:
            raise TypeError("unknown formula node %r" % node)
        args = [index[c] for c in node.children()] + [None, None]
        if code == _PROP:
            args[0] = node.name
        index[node] = len(prog)
        prog.append((code, args[0], args[1]))
    return tuple(prog)


def eval_word(prog, letters, loop):
    """Truth of a compiled formula at position 0 of letters[:loop] followed
    by letters[loop:] repeated forever.

    Each subformula's row is one int over the n = len(letters) positions,
    position 0 in the top bit.  X is a left shift whose last bit comes from
    position loop.  a U b is computed on prefix·cycle·cycle, where every
    first-copy position sees its whole future before the word ends, as
    (((t + b) ^ t) & t) | b with t = a | b: adding b to t carries from each
    b position back through the run of a positions before it, and the
    carry flips exactly the bits of that run.  The second copy is then
    shifted off.  F a is true U a, and G a is !(true U !a).  So every node
    but a proposition costs O(1) big-int operations.
    """
    n = len(letters)
    if not 0 <= loop < n:
        raise ValueError("loop point %d is not a position of the word" % loop)
    cycle = n - loop
    mask = (1 << n) - 1
    cycle_mask = (1 << cycle) - 1
    wrap = cycle - 1
    rows = []
    for code, x, y in prog:
        if code >= _FINALLY:
            if code == _UNTIL:
                a, b = rows[x], rows[y]
            elif code == _FINALLY:
                a, b = mask, rows[x]
            else:
                a, b = mask, rows[x] ^ mask
            a = (a << cycle) | (a & cycle_mask)
            b = (b << cycle) | (b & cycle_mask)
            t = a | b
            row = ((((t + b) ^ t) & t) | b) >> cycle
            if code == _GLOBALLY:
                row ^= mask
        elif code == _PROP:
            row = int("".join(["1" if x in letter else "0" for letter in letters]), 2)
        elif code == _AND:
            row = rows[x] & rows[y]
        elif code == _OR:
            row = rows[x] | rows[y]
        elif code == _NOT:
            row = rows[x] ^ mask
        elif code == _NEXT:
            arg = rows[x]
            row = ((arg << 1) & mask) | ((arg >> wrap) & 1)
        elif code == _IMPLIES:
            row = (rows[x] ^ mask) | rows[y]
        elif code == _TOP:
            row = mask
        else:
            row = 0
        rows.append(row)
    return rows[-1] >> (n - 1) == 1


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


def format_lasso(lasso, s):
    pre = " ".join(s.names[i] for i in lasso.prefix)
    cyc = " ".join(s.names[i] for i in lasso.cycle)
    return "prefix%s\ncycle %s\n" % (" " + pre if pre else "", cyc)
