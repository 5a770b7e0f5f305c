"""Source-problem instance types and their text formats.

CNF instances use DIMACS conventions (`p cnf <vars> <clauses>`, literal lines
terminated by 0); partitioned weighted instances extend DIMACS with
`partition` and `capacity` lines; tiling instances use `colors`, `tile`, and
`k`/`bounds` lines.  Side length k is written in unary as a digit string.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Not, Prop, conj, disj


class InstanceFormatError(ValueError):
    """Raised on malformed instance text or an invariant violation."""


_COLOR_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_clause_vars(clauses, nvars):
    for idx, cl in enumerate(clauses, start=1):
        if not cl:
            raise InstanceFormatError("clause %d is empty" % idx)
        for lit in cl:
            if lit == 0:
                raise InstanceFormatError("clause %d contains literal 0" % idx)
            if abs(lit) > nvars:
                raise InstanceFormatError(
                    "clause %d references variable %d beyond %d" % (idx, abs(lit), nvars)
                )


@dataclass(frozen=True)
class Cnf3:
    """A 3CNF: every clause has exactly three literal slots."""

    nvars: int
    clauses: tuple

    def __post_init__(self):
        if self.nvars < 1:
            raise InstanceFormatError("need at least one variable")
        object.__setattr__(self, "clauses", tuple(tuple(cl) for cl in self.clauses))
        if not self.clauses:
            raise InstanceFormatError("need at least one clause")
        for idx, cl in enumerate(self.clauses, start=1):
            if len(cl) != 3:
                raise InstanceFormatError("clause %d has %d literal slots, need 3" % (idx, len(cl)))
        _check_clause_vars(self.clauses, self.nvars)


@dataclass(frozen=True)
class PwSatInstance:
    """A CNF with its variables split into capacity-constrained partitions.

    partitions[p] lists the variables of block p+1 in ascending order; an
    assignment is saturated when block p has exactly capacities[p] true
    variables.  Partitions must be disjoint and cover 1..nvars.
    """

    nvars: int
    clauses: tuple
    partitions: tuple
    capacities: tuple

    def __post_init__(self):
        if self.nvars < 1:
            raise InstanceFormatError("need at least one variable")
        object.__setattr__(self, "clauses", tuple(tuple(cl) for cl in self.clauses))
        object.__setattr__(
            self, "partitions", tuple(tuple(sorted(part)) for part in self.partitions)
        )
        object.__setattr__(self, "capacities", tuple(int(c) for c in self.capacities))
        if not self.clauses:
            raise InstanceFormatError("need at least one clause")
        _check_clause_vars(self.clauses, self.nvars)
        if not self.partitions:
            raise InstanceFormatError("need at least one partition")
        if len(self.partitions) != len(self.capacities):
            raise InstanceFormatError(
                "%d partitions but %d capacities" % (len(self.partitions), len(self.capacities))
            )
        seen = {}
        for p, part in enumerate(self.partitions, start=1):
            if not part:
                raise InstanceFormatError("partition %d is empty" % p)
            for v in part:
                if not (1 <= v <= self.nvars):
                    raise InstanceFormatError("partition %d lists unknown variable %d" % (p, v))
                if v in seen:
                    raise InstanceFormatError(
                        "variable %d appears in partitions %d and %d" % (v, seen[v], p)
                    )
                seen[v] = p
        if len(seen) != self.nvars:
            missing = sorted(set(range(1, self.nvars + 1)) - set(seen))
            raise InstanceFormatError("variables %s not covered by any partition" % missing)
        for p, (part, cap) in enumerate(zip(self.partitions, self.capacities), start=1):
            if not (0 <= cap <= len(part)):
                raise InstanceFormatError(
                    "capacity %d of partition %d outside 0..%d" % (cap, p, len(part))
                )

    def partition_of(self, var):
        for p, part in enumerate(self.partitions, start=1):
            if var in part:
                return p
        raise KeyError("variable %d not in any partition" % var)


def _check_tiles(colors, tiles):
    if not colors:
        raise InstanceFormatError("need at least one color")
    for c in colors:
        if not c or any(ch not in _COLOR_OK for ch in c):
            raise InstanceFormatError("bad color token %r" % c)
    if len(set(colors)) != len(colors):
        raise InstanceFormatError("duplicate colors")
    if not tiles:
        raise InstanceFormatError("need at least one tile")
    cset = set(colors)
    for idx, tile in enumerate(tiles, start=1):
        if len(tile) != 4:
            raise InstanceFormatError("tile %d needs four colors" % idx)
        for c in tile:
            if c not in cset:
                raise InstanceFormatError("tile %d uses unknown color %r" % (idx, c))


@dataclass(frozen=True)
class SquareTilingInstance:
    """Colors, tiles as (up, down, left, right) quadruples, and side length k."""

    colors: tuple
    tiles: tuple
    k: int

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        object.__setattr__(self, "tiles", tuple(tuple(t) for t in self.tiles))
        _check_tiles(self.colors, self.tiles)
        if self.k < 1:
            raise InstanceFormatError("side length must be at least 1")


@dataclass(frozen=True)
class RectTilingInstance:
    """Colors, boundary colors, and tiles; the grid width is fixed at |tiles|."""

    colors: tuple
    tiles: tuple
    top: str
    bottom: str

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        object.__setattr__(self, "tiles", tuple(tuple(t) for t in self.tiles))
        _check_tiles(self.colors, self.tiles)
        if self.top not in self.colors:
            raise InstanceFormatError("top boundary color %r not declared" % (self.top,))
        if self.bottom not in self.colors:
            raise InstanceFormatError("bottom boundary color %r not declared" % (self.bottom,))

    @property
    def n(self):
        return len(self.tiles)


def cnf_formula(clauses, prefix="q"):
    """The CNF as a propositional formula over `<prefix>_<i>` atoms."""

    def literal(lit):
        atom = Prop("%s_%d" % (prefix, abs(lit)))
        return Not(atom) if lit < 0 else atom

    return conj(disj(literal(l) for l in cl) for cl in clauses)


# ---------------------------------------------------------------------------
# text formats

def _data_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c ") or line == "c" or line.startswith("#"):
            continue
        yield lineno, line.split()


def _parse_dimacs(text, want_extensions):
    nvars = None
    nclauses = None
    clauses = []
    extensions = []
    for lineno, parts in _data_lines(text):
        if parts[0] == "p":
            if nvars is not None:
                raise InstanceFormatError("line %d: duplicate header" % lineno)
            if len(parts) != 4 or parts[1] != "cnf":
                raise InstanceFormatError("line %d: header must be `p cnf <vars> <clauses>`" % lineno)
            try:
                nvars, nclauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise InstanceFormatError("line %d: bad header counts" % lineno) from None
        elif parts[0] in want_extensions:
            extensions.append((lineno, parts))
        else:
            if nvars is None:
                raise InstanceFormatError("line %d: clause before header" % lineno)
            try:
                lits = [int(t) for t in parts]
            except ValueError:
                raise InstanceFormatError("line %d: bad literal" % lineno) from None
            if not lits or lits[-1] != 0:
                raise InstanceFormatError("line %d: clause must end with 0" % lineno)
            if any(l == 0 for l in lits[:-1]):
                raise InstanceFormatError("line %d: literal 0 inside clause" % lineno)
            clauses.append(tuple(lits[:-1]))
    if nvars is None:
        raise InstanceFormatError("missing `p cnf` header")
    if nclauses != len(clauses):
        raise InstanceFormatError(
            "header promises %d clauses, found %d" % (nclauses, len(clauses))
        )
    return nvars, clauses, extensions


def parse_cnf3(text):
    nvars, clauses, _ = _parse_dimacs(text, frozenset())
    try:
        return Cnf3(nvars, clauses)
    except InstanceFormatError:
        raise
    except ValueError as e:
        raise InstanceFormatError(str(e)) from None


def format_cnf3(c):
    lines = ["p cnf %d %d" % (c.nvars, len(c.clauses))]
    lines.extend(" ".join(str(l) for l in cl) + " 0" for cl in c.clauses)
    return "\n".join(lines) + "\n"


def parse_pwsat(text):
    nvars, clauses, extensions = _parse_dimacs(text, frozenset({"partition", "capacity"}))
    partitions = {}
    capacities = {}
    for lineno, parts in extensions:
        try:
            idx = int(parts[1])
            rest = [int(t) for t in parts[2:]]
        except (IndexError, ValueError):
            raise InstanceFormatError("line %d: bad %s line" % (lineno, parts[0])) from None
        if idx < 1:
            raise InstanceFormatError("line %d: partition index must be positive" % lineno)
        target = partitions if parts[0] == "partition" else capacities
        if idx in target:
            raise InstanceFormatError("line %d: duplicate %s %d" % (lineno, parts[0], idx))
        if parts[0] == "partition":
            if not rest:
                raise InstanceFormatError("line %d: partition lists no variables" % lineno)
            partitions[idx] = rest
        else:
            if len(rest) != 1:
                raise InstanceFormatError("line %d: capacity needs one value" % lineno)
            capacities[idx] = rest[0]
    if sorted(partitions) != list(range(1, len(partitions) + 1)):
        raise InstanceFormatError("partition indices must be 1..k without gaps")
    if sorted(capacities) != sorted(partitions):
        raise InstanceFormatError("capacities must match partitions one to one")
    k = len(partitions)
    return PwSatInstance(
        nvars,
        clauses,
        tuple(partitions[p] for p in range(1, k + 1)),
        tuple(capacities[p] for p in range(1, k + 1)),
    )


def format_pwsat(i):
    lines = ["p cnf %d %d" % (i.nvars, len(i.clauses))]
    lines.extend(" ".join(str(l) for l in cl) + " 0" for cl in i.clauses)
    for p, part in enumerate(i.partitions, start=1):
        lines.append("partition %d %s" % (p, " ".join(str(v) for v in part)))
    for p, cap in enumerate(i.capacities, start=1):
        lines.append("capacity %d %d" % (p, cap))
    return "\n".join(lines) + "\n"


def _parse_tiling(text, kind):
    colors = None
    tiles = []
    k = None
    bounds = None
    for lineno, parts in _data_lines(text):
        if parts[0] == "colors":
            if colors is not None:
                raise InstanceFormatError("line %d: duplicate colors line" % lineno)
            colors = parts[1:]
        elif parts[0] == "tile":
            if len(parts) != 5:
                raise InstanceFormatError("line %d: tile needs four colors" % lineno)
            tiles.append(tuple(parts[1:]))
        elif parts[0] == "k":
            if len(parts) != 2 or set(parts[1]) != {"1"}:
                raise InstanceFormatError("line %d: k must be a unary digit string" % lineno)
            if k is not None:
                raise InstanceFormatError("line %d: duplicate k line" % lineno)
            k = len(parts[1])
        elif parts[0] == "bounds":
            if len(parts) != 3:
                raise InstanceFormatError("line %d: bounds needs two colors" % lineno)
            if bounds is not None:
                raise InstanceFormatError("line %d: duplicate bounds line" % lineno)
            bounds = (parts[1], parts[2])
        else:
            raise InstanceFormatError("line %d: unknown directive %r" % (lineno, parts[0]))
    if colors is None:
        raise InstanceFormatError("missing colors line")
    if kind == "square":
        if k is None:
            raise InstanceFormatError("missing k line")
        if bounds is not None:
            raise InstanceFormatError("bounds line not allowed for a square instance")
        return SquareTilingInstance(colors, tiles, k)
    if bounds is None:
        raise InstanceFormatError("missing bounds line")
    if k is not None:
        raise InstanceFormatError("k line not allowed for a rectangle instance")
    return RectTilingInstance(colors, tiles, bounds[0], bounds[1])


def parse_square_tiling(text):
    return _parse_tiling(text, "square")


def parse_rect_tiling(text):
    return _parse_tiling(text, "rect")


def format_square_tiling(t):
    lines = ["colors " + " ".join(t.colors)]
    lines.extend("tile %s %s %s %s" % tile for tile in t.tiles)
    lines.append("k " + "1" * t.k)
    return "\n".join(lines) + "\n"


def format_rect_tiling(t):
    lines = ["colors " + " ".join(t.colors)]
    lines.extend("tile %s %s %s %s" % tile for tile in t.tiles)
    lines.append("bounds %s %s" % (t.top, t.bottom))
    return "\n".join(lines) + "\n"
