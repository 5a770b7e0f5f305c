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


# One finditer pass: whitespace matches nothing and is skipped, and any
# other character that starts no token is matched alone by the group.
_TOKEN = re.compile(r"[a-zA-Z_][a-zA-Z0-9_^']*|->|[!&|()]|(\S)")

# token text -> token kind: keywords and symbols are their own kind, and
# any other name is of kind "name"
_KIND = {t: t for t in ("X", "F", "G", "U", "true", "false", "->", "!", "&", "|", "(", ")")}

_UNARY = {"!": Not, "X": Next, "F": Finally, "G": Globally}
# binary operators: token -> (binding strength, node); U and -> associate
# to the right, & and | to the left
_BINARY = {"U": (4, Until), "&": (3, And), "|": (2, Or), "->": (1, Implies)}
_RIGHT = frozenset(("U", "->"))


def _tokenize(source):
    tokens = []
    kind = _KIND.get
    for m in _TOKEN.finditer(source):
        text = m.group()
        if m.lastindex:
            raise ParseError("unexpected character %r at offset %d" % (text, m.start()))
        tokens.append((kind(text, "name"), text, m.start()))
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

    def formula(self):
        """One formula up to the end of input.

        Iterative: an operand is a prefix chain of unary operators on a
        constant, a name or a parenthesised formula, and a "(" opens a new
        frame on an explicit stack instead of recursing, so neither long
        chains nor deep nesting can overflow.  A frame holds the unary
        operators waiting for its closing parenthesis, then its operands
        and the binary operators between them; an arriving operator first
        combines the pending ones that bind at least as tightly, or
        strictly more tightly when it associates to the right.
        """
        frames = [([], [], [])]
        while True:
            ops = []
            while self.peek() in _UNARY:
                ops.append(_UNARY[self.peek()])
                self.pos += 1
            kind = self.peek()
            if kind == "(":
                self.pos += 1
                frames.append((ops, [], []))
                continue
            f = self.atom()
            while True:
                for op in reversed(ops):
                    f = op(f)
                waiting, operands, binary = frames[-1]
                operands.append(f)
                kind = self.peek()
                if kind in _BINARY:
                    self.pos += 1
                    _reduce(operands, binary, _BINARY[kind][0] + (kind in _RIGHT))
                    binary.append(kind)
                    break
                _reduce(operands, binary, 1)
                if len(frames) == 1:
                    self.take("end")
                    return operands[0]
                self.take(")")
                frames.pop()
                f, ops = operands[0], waiting

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
        tok = self.tokens[self.pos]
        raise ParseError(
            "expected a formula but found %r at offset %d" % (tok[1] or "end of input", tok[2])
        )


def _reduce(operands, binary, bound):
    """Combine trailing operands while the last operator binds at least bound."""
    while binary and _BINARY[binary[-1]][0] >= bound:
        right = operands.pop()
        operands[-1] = _BINARY[binary.pop()][1](operands[-1], right)


def parse(source):
    """Parse formula text into a syntax tree."""
    return _Parser(source).formula()
