"""LTL formula syntax tree and structural measures.

Grammar (linear-time temporal logic over propositions):

    f ::= p | true | false | !f | f & f | f "|" f | f -> f
        | X f | F f | G f | f U f

Derived connectives (or, implies, G, true, false) are first-class nodes;
measures are taken on the tree as written, nothing is desugared.
"""

from __future__ import annotations


class Formula:
    """Base class for formula nodes. Nodes are immutable and hashable."""

    __slots__ = ("_hash",)

    def children(self):
        return ()

    def __eq__(self, other):
        # explicit stack of node pairs, so deep trees compare without recursion
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if type(a) is Prop:
                if a.name != b.name:
                    return False
            else:
                stack.extend(zip(a.children(), b.children()))
        return True

    def __hash__(self):
        return self._hash

    def __str__(self):
        return format_formula(self)

    def __repr__(self):
        return self.__str__()


class Prop(Formula):
    """Atomic proposition, identified by name."""

    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("p", name)))


class Top(Formula):
    """Constant true."""

    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "_hash", hash("true"))


class Bottom(Formula):
    """Constant false."""

    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "_hash", hash("false"))


class _Unary(Formula):
    __slots__ = ("arg",)
    op = "?"

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_hash", hash((self.op, arg._hash)))

    def children(self):
        return (self.arg,)


class _Binary(Formula):
    __slots__ = ("left", "right")
    op = "?"

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash((self.op, left._hash, right._hash)))

    def children(self):
        return (self.left, self.right)


class Not(_Unary):
    """Negation."""

    __slots__ = ()
    op = "!"


class Next(_Unary):
    """Next-step operator X."""

    __slots__ = ()
    op = "X"


class Finally(_Unary):
    """Eventually operator F."""

    __slots__ = ()
    op = "F"


class Globally(_Unary):
    """Always operator G."""

    __slots__ = ()
    op = "G"


class And(_Binary):
    """Conjunction."""

    __slots__ = ()
    op = "&"


class Or(_Binary):
    """Disjunction."""

    __slots__ = ()
    op = "|"


class Implies(_Binary):
    """Implication."""

    __slots__ = ()
    op = "->"


class Until(_Binary):
    """Until operator U."""

    __slots__ = ()
    op = "U"


TEMPORAL_OPS = frozenset("XFGU")


class NotExpressible(ValueError):
    """Raised when a formula cannot be rewritten into the requested fragment."""


def conj(parts):
    """Left-nested conjunction of parts; true when empty."""
    it = iter(parts)
    try:
        acc = next(it)
    except StopIteration:
        return Top()
    for p in it:
        acc = And(acc, p)
    return acc


def disj(parts):
    """Left-nested disjunction of parts; false when empty."""
    it = iter(parts)
    try:
        acc = next(it)
    except StopIteration:
        return Bottom()
    for p in it:
        acc = Or(acc, p)
    return acc


def subformulas(f):
    """Distinct subformulas of f in bottom-up order (children first)."""
    order = []
    seen = set()
    stack = [(f, 0)]
    while stack:
        node, state = stack.pop()
        if state == 0:
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, 1))
            for c in reversed(node.children()):
                if c not in seen:
                    stack.append((c, 0))
        else:
            order.append(node)
    return order


def ast_size(f):
    """Number of nodes in the tree, counting repeated subtrees once per occurrence."""
    table = {}
    for node in subformulas(f):
        table[node] = 1 + sum(table[c] for c in node.children())
    return table[f]


def temporal_depth(f):
    """Maximal nesting of temporal operators.

    X, F, G add one level; U adds one on top of both arguments; Boolean
    connectives and atoms add nothing.
    """
    table = {}
    for node in subformulas(f):
        kids = node.children()
        base = max((table[c] for c in kids), default=0)
        if isinstance(node, (Next, Finally, Globally, Until)):
            table[node] = base + 1
        else:
            table[node] = base
    return table[f]


def fragment_of(f):
    """Set of temporal operators syntactically present in f."""
    frag = set()
    for node in subformulas(f):
        if isinstance(node, Next):
            frag.add("X")
        elif isinstance(node, Finally):
            frag.add("F")
        elif isinstance(node, Globally):
            frag.add("G")
        elif isinstance(node, Until):
            frag.add("U")
    return frozenset(frag)


def props(f):
    """Set of proposition names occurring in f."""
    return {node.name for node in subformulas(f) if isinstance(node, Prop)}


def nvar(f):
    """Number of distinct propositions in f."""
    return len(props(f))


def rewrite_fragment(f, target):
    """Rewrite f to use only temporal operators from target.

    Uses the depth-preserving equivalences F a = !G!a, G a = !F!a and
    F a = true U a.  X cannot be eliminated and U cannot be introduced
    into any other operator, so those cases raise NotExpressible.
    """
    target = frozenset(target)
    if not target <= TEMPORAL_OPS:
        raise ValueError("unknown fragment operators: %s" % sorted(target - TEMPORAL_OPS))
    table = {}
    for node in subformulas(f):
        kids = [table[c] for c in node.children()]
        if isinstance(node, Next):
            if "X" not in target:
                raise NotExpressible("X cannot be rewritten away")
            table[node] = Next(kids[0])
        elif isinstance(node, Finally):
            table[node] = _rewrite_finally(kids[0], target)
        elif isinstance(node, Globally):
            table[node] = _rewrite_globally(kids[0], target)
        elif isinstance(node, Until):
            if "U" not in target:
                raise NotExpressible("U cannot be rewritten into %s" % sorted(target))
            table[node] = Until(kids[0], kids[1])
        elif isinstance(node, (Prop, Top, Bottom)):
            table[node] = node
        else:
            table[node] = type(node)(*kids)
    return table[f]


def _rewrite_finally(arg, target):
    if "F" in target:
        return Finally(arg)
    if "G" in target:
        return Not(Globally(Not(arg)))
    if "U" in target:
        return Until(Top(), arg)
    raise NotExpressible("F cannot be rewritten into %s" % sorted(target))


def _rewrite_globally(arg, target):
    if "G" in target:
        return Globally(arg)
    if "F" in target:
        return Not(Finally(Not(arg)))
    if "U" in target:
        return Not(Until(Top(), Not(arg)))
    raise NotExpressible("G cannot be rewritten into %s" % sorted(target))


# ---------------------------------------------------------------------------
# printing

_ATOM, _UNARY, _UNTIL, _AND, _OR, _IMPLIES = 100, 90, 80, 70, 60, 50


def _precedence(node):
    if isinstance(node, (Prop, Top, Bottom)):
        return _ATOM
    if isinstance(node, (Not, Next, Finally, Globally)):
        return _UNARY
    if isinstance(node, Until):
        return _UNTIL
    if isinstance(node, And):
        return _AND
    if isinstance(node, Or):
        return _OR
    return _IMPLIES


def format_formula(f):
    """Render f with minimal parentheses; parse(format_formula(f)) == f."""
    text = {}
    for node in subformulas(f):
        if isinstance(node, Prop):
            text[node] = node.name
        elif isinstance(node, Top):
            text[node] = "true"
        elif isinstance(node, Bottom):
            text[node] = "false"
        elif isinstance(node, Not):
            text[node] = "!" + _wrap(text, node.arg, _UNARY)
        elif isinstance(node, (Next, Finally, Globally)):
            text[node] = node.op + " " + _wrap(text, node.arg, _UNARY)
        elif isinstance(node, Until):
            # right-associative
            left = _wrap(text, node.left, _UNTIL + 1)
            right = _wrap(text, node.right, _UNTIL)
            text[node] = left + " U " + right
        elif isinstance(node, Implies):
            # right-associative
            left = _wrap(text, node.left, _IMPLIES + 1)
            right = _wrap(text, node.right, _IMPLIES)
            text[node] = left + " -> " + right
        else:
            # And/Or, left-associative
            level = _precedence(node)
            left = _wrap(text, node.left, level)
            right = _wrap(text, node.right, level + 1)
            text[node] = left + " " + node.op + " " + right
    return text[f]


def _wrap(text, child, minimum):
    s = text[child]
    if _precedence(child) < minimum:
        return "(" + s + ")"
    return s
