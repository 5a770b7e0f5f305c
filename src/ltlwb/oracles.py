"""Brute-force reference solvers for the source problems.

These are deliberately independent of the LTL machinery: plain backtracking
and row-by-row search, no clause learning, no shared code with the checker.
Every returned witness is re-validated against the problem definition before
it leaves the solver.
"""

from __future__ import annotations

from itertools import combinations, product

CNF_VAR_LIMIT = 24
PWSAT_VAR_LIMIT = 20
SQUARE_SIDE_LIMIT = 5


def check_assignment_cnf(clauses, assignment):
    """True when every clause has a satisfied literal."""
    return all(
        any(assignment[abs(l)] == (l > 0) for l in cl)
        for cl in clauses
    )


def solve_cnf(clauses, nvars=None, limit=CNF_VAR_LIMIT):
    """Satisfying assignment as {var: bool}, or None.

    Backtracking over variables in ascending order, false branch first; a
    clause with every literal assigned false prunes the branch.
    """
    clauses = [tuple(cl) for cl in clauses]
    if nvars is None:
        nvars = max((abs(l) for cl in clauses for l in cl), default=0)
    if nvars > limit:
        raise ValueError("too many variables for exhaustive search (%d > %d)" % (nvars, limit))
    assignment = {}

    def falsified(cl):
        return all(abs(l) in assignment and assignment[abs(l)] != (l > 0) for l in cl)

    def extend(var):
        if var > nvars:
            return True
        for value in (False, True):
            assignment[var] = value
            if not any(falsified(cl) for cl in clauses):
                if extend(var + 1):
                    return True
            del assignment[var]
        return False

    if not extend(1):
        return None
    result = dict(assignment)
    if not check_assignment_cnf(clauses, result):
        raise RuntimeError("search produced a non-satisfying assignment")
    return result


def check_saturation(inst, assignment):
    """True when every partition has exactly its capacity of true variables."""
    return all(
        sum(1 for v in part if assignment[v]) == cap
        for part, cap in zip(inst.partitions, inst.capacities)
    )


def solve_pwsat(inst, limit=PWSAT_VAR_LIMIT):
    """Saturated satisfying assignment as {var: bool}, or None.

    Iterates the per-partition true-sets in lexicographic order via
    itertools, so the first satisfying combination is deterministic.
    """
    if inst.nvars > limit:
        raise ValueError(
            "too many variables for exhaustive search (%d > %d)" % (inst.nvars, limit)
        )
    choice_lists = [
        list(combinations(part, cap))
        for part, cap in zip(inst.partitions, inst.capacities)
    ]
    for picks in product(*choice_lists):
        true_vars = {v for pick in picks for v in pick}
        assignment = {v: v in true_vars for v in range(1, inst.nvars + 1)}
        if check_assignment_cnf(inst.clauses, assignment):
            if not check_saturation(inst, assignment):
                raise RuntimeError("search produced a non-saturated assignment")
            return assignment
    return None


def check_tiling(tiles, cells, width, height, top=None, bottom=None):
    """Violations of adjacency and boundary conditions; empty means valid."""
    violations = []
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            if (x, y) not in cells:
                violations.append("cell (%d, %d) not tiled" % (x, y))
    if violations:
        return violations
    for (x, y), t in cells.items():
        up, down, left, right = tiles[t]
        if (x + 1, y) in cells and right != tiles[cells[(x + 1, y)]][2]:
            violations.append("right mismatch at (%d, %d)" % (x, y))
        if (x, y + 1) in cells and down != tiles[cells[(x, y + 1)]][0]:
            violations.append("down mismatch at (%d, %d)" % (x, y))
        if top is not None and y == 1 and up != top:
            violations.append("top boundary mismatch at (%d, %d)" % (x, y))
        if bottom is not None and y == height and down != bottom:
            violations.append("bottom boundary mismatch at (%d, %d)" % (x, y))
    return violations


def solve_square_tiling(t, limit=SQUARE_SIDE_LIMIT):
    """Valid k-by-k tiling as {(x, y): tile index}, or None.

    Cells are filled in row-major order; candidate tiles are tried in
    declaration order, checking the left and up neighbors already placed.
    """
    if t.k > limit:
        raise ValueError("side length too large for backtracking (%d > %d)" % (t.k, limit))
    k = t.k
    cells = {}

    def fits(x, y, tile):
        up, down, left, right = t.tiles[tile]
        if x > 1 and t.tiles[cells[(x - 1, y)]][3] != left:
            return False
        if y > 1 and t.tiles[cells[(x, y - 1)]][1] != up:
            return False
        return True

    def fill(pos):
        if pos == k * k:
            return True
        y, x = divmod(pos, k)
        x, y = x + 1, y + 1
        for tile in range(len(t.tiles)):
            if fits(x, y, tile):
                cells[(x, y)] = tile
                if fill(pos + 1):
                    return True
                del cells[(x, y)]
        return False

    if not fill(0):
        return None
    result = dict(cells)
    if check_tiling(t.tiles, result, k, k):
        raise RuntimeError("search produced an invalid tiling")
    return result


def _compatible_rows(tiles):
    """All horizontally valid rows as tuples of tile indices, in lex order."""
    n = len(tiles)
    rows = []

    def grow(row):
        if len(row) == n:
            rows.append(tuple(row))
            return
        for tile in range(n):
            if row and tiles[row[-1]][3] != tiles[tile][2]:
                continue
            row.append(tile)
            grow(row)
            row.pop()

    grow([])
    return rows


def solve_rect_tiling(t, bound=None):
    """Smallest m with a valid n-by-m boundary tiling, as (m, cells), or None.

    Breadth-first search over horizontally valid rows; two consecutive rows
    must match down colors to up colors.  The default bound |D|^n + 1 is
    complete: a valid tiling longer than the number of distinct rows repeats
    a row, and cutting the segment between the repeats stays valid because
    only adjacent rows constrain each other.
    """
    n = t.n
    if bound is None:
        bound = len(t.tiles) ** n + 1
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rows = _compatible_rows(t.tiles)
    starts = [r for r in rows if all(t.tiles[i][0] == t.top for i in r)]
    ends = {r for r in rows if all(t.tiles[i][1] == t.bottom for i in r)}

    def stacks(above, below):
        return all(t.tiles[a][1] == t.tiles[b][0] for a, b in zip(above, below))

    parent = {}
    frontier = list(starts)
    for r in starts:
        parent[r] = None
    m = 1
    while frontier and m <= bound:
        hit = next((r for r in frontier if r in ends), None)
        if hit is not None:
            sequence = []
            while hit is not None:
                sequence.append(hit)
                hit = parent[hit]
            sequence.reverse()
            cells = {
                (x, y): tile
                for y, row in enumerate(sequence, start=1)
                for x, tile in enumerate(row, start=1)
            }
            if check_tiling(t.tiles, cells, n, m, top=t.top, bottom=t.bottom):
                raise RuntimeError("search produced an invalid tiling")
            return m, cells
        nxt = []
        for r in frontier:
            for s in rows:
                if s not in parent and stacks(r, s):
                    parent[s] = r
                    nxt.append(s)
        frontier = nxt
        m += 1
    return None


# ---------------------------------------------------------------------------
# witness text

def format_assignment(assignment):
    lines = [
        "assign %d %d" % (v, 1 if assignment[v] else 0) for v in sorted(assignment)
    ]
    return "\n".join(lines) + "\n"


def format_cells(cells):
    lines = [
        "cell %d %d %d" % (x, y, cells[(x, y)])
        for x, y in sorted(cells, key=lambda c: (c[1], c[0]))
    ]
    return "\n".join(lines) + "\n"
