"""Parser for the LTL concrete syntax.

Precedence, tightest first: unary (!, X, F, G), U (right-assoc),
& (left-assoc), | (left-assoc), -> (right-assoc).
"""

from __future__ import annotations

import re

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


class ParseError(ValueError):
    """Raised on malformed formula text."""


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[a-zA-Z_][a-zA-Z0-9_^']*)
  | (?P<arrow>->)
  | (?P<sym>[!&|()])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"X", "F", "G", "U", "true", "false"}
_UNARY = {"!": Not, "X": Next, "F": Finally, "G": Globally}


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            raise ParseError("unexpected character %r at offset %d" % (source[pos], pos))
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        text = m.group()
        if m.lastgroup == "name":
            kind = text if text in _KEYWORDS else "name"
        else:
            kind = text
        tokens.append((kind, text, m.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(
                "expected %s but found %r at offset %d" % (kind, tok[1] or "end of input", tok[2])
            )
        self.pos += 1
        return tok

    def implies(self):
        # right-associative; operands collected in a loop and folded from
        # the right, so a long chain cannot overflow
        parts = [self.disjunction()]
        while self.peek() == "->":
            self.pos += 1
            parts.append(self.disjunction())
        f = parts.pop()
        for left in reversed(parts):
            f = Implies(left, f)
        return f

    def disjunction(self):
        acc = self.conjunction()
        while self.peek() == "|":
            self.take("|")
            acc = Or(acc, self.conjunction())
        return acc

    def conjunction(self):
        acc = self.until()
        while self.peek() == "&":
            self.take("&")
            acc = And(acc, self.until())
        return acc

    def until(self):
        # right-associative, folded from the right as implies is
        parts = [self.unary()]
        while self.peek() == "U":
            self.pos += 1
            parts.append(self.unary())
        f = parts.pop()
        for left in reversed(parts):
            f = Until(left, f)
        return f

    def unary(self):
        # iterative, so a long prefix chain such as X X ... X p cannot overflow
        ops = []
        while self.peek() in _UNARY:
            ops.append(_UNARY[self.peek()])
            self.pos += 1
        f = self.atom()
        for op in reversed(ops):
            f = op(f)
        return f

    def atom(self):
        kind = self.peek()
        if kind == "true":
            self.take("true")
            return Top()
        if kind == "false":
            self.take("false")
            return Bottom()
        if kind == "name":
            return Prop(self.take("name")[1])
        if kind == "(":
            self.take("(")
            inner = self.implies()
            self.take(")")
            return inner
        tok = self.tokens[self.pos]
        raise ParseError(
            "expected a formula but found %r at offset %d" % (tok[1] or "end of input", tok[2])
        )


def parse(source):
    """Parse formula text into a syntax tree."""
    p = _Parser(source)
    f = p.implies()
    p.take("end")
    return f
