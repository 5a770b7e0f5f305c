"""Encodings of saturated SAT and tiling problems into small-fragment LTL.

Each reduction emits the target instance together with a recipe for a
machine-checkable witness: a path decomposition of the emitted formula's
syntax graph (or of the emitted structure) whose width backs the
certificate the construction claims.  The recipe runs when the witness or
the certificates are first read.  Witnesses are built by placing every
syntax vertex on a line of positions and taking interval hulls, so
validity reduces to making sure both endpoints of every syntax edge share
a position somewhere.
"""

from functools import cached_property

from .checker import McInstance
from .formula import (
    TEMPORAL_OPS,
    And,
    Finally,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Top,
    Until,
    conj,
    disj,
    nvar,
    rewrite_fragment,
    temporal_depth,
)
from .graphs import Decomposition, Graph, syntax_graph, width
from .instances import cnf_formula
from .kripke import KripkeStructure, branching_degree

# Design widths for the rectangle encodings.  The natural bag recipe lands a
# little lower on small colour sets; witnesses are padded up to these values
# so the certificate is the same number for every instance of a family.
RECT_XF_WIDTH = 24
RECT_U_WIDTH = 29


class ReductionOutput:
    """Target instance plus the decomposition witness and its certificates.

    Exactly one of formula (satisfiability target) and mc (model-checking
    target) is set.  recipe() returns (witness_graph, witness), a path
    decomposition of the emitted formula's syntax graph or of the emitted
    structure as an undirected graph, on the first read of either or of
    certificates."""

    def __init__(self, recipe, formula=None, mc=None):
        self.formula = formula
        self.mc = mc
        self._recipe = recipe

    @property
    def emitted(self):
        """The emitted formula, of either target."""
        return self.formula if self.mc is None else self.mc.formula

    @cached_property
    def _built(self):
        return self._recipe()

    @property
    def witness_graph(self):
        return self._built[0]

    @property
    def witness(self):
        return self._built[1]

    @cached_property
    def certificates(self):
        """td from the emitted formula's root; nvar from the proposition
        vertices of a syntax witness graph, else by a walk of the formula;
        delta of the structure, if any; the witness's width."""
        g, witness = self._built
        f = self.emitted
        certs = {"td": temporal_depth(f),
                 "nvar": nvar(f) if g.at is None else g.roles.count("prop")}
        if self.mc is not None:
            certs["delta"] = branching_degree(self.mc.structure)
        certs["width"] = width(witness)
        return certs


def drop_conjunct(f):
    """Remove the leftmost conjunct, descending through negation and into
    the last disjunct; the sound-but-incomplete variants this produces are
    what the verification harness uses to prove it can detect breakage."""
    spine = []  # the Not, And and Or nodes passed on the way down
    while isinstance(f, (Not, Or)) or isinstance(f, And) and isinstance(f.left, And):
        spine.append(f)
        f = f.arg if isinstance(f, Not) else f.right if isinstance(f, Or) else f.left
    if not isinstance(f, And):
        raise ValueError("formula has no conjunct to drop")
    f = f.right
    for w in reversed(spine):
        if isinstance(w, Not):
            f = Not(f)
        elif isinstance(w, Or):
            f = Or(w.left, f)
        else:
            f = And(f, w.right)
    return f


def _chain_items(node, path, count):
    """Items of a left-nested count-way conj/disj rooted at path, first to
    last, plus the joining nodes: (join path, j) where join j combines the
    first j items."""
    if count == 0:
        return [], []
    items = []
    joins = []
    cur, curp = node, path
    for j in range(count, 1, -1):
        joins.append((curp, j))
        items.append((cur.right, curp + (1,)))
        cur, curp = cur.left, curp + (0,)
    items.append((cur, curp))
    items.reverse()
    joins.reverse()
    return items, joins


class _SyntaxPlacer:
    """Places the syntax vertices of emitted on a line of positions, for a
    path decomposition of its syntax graph; occurrences are addressed by
    their child-index paths."""

    def __init__(self, emitted):
        self.graph = g = syntax_graph(emitted)
        self.names = g.at
        self.spots = {}
        self.wides = set()
        self.maxpos = 1

    def at(self, path, t):
        self._mark(self.names[path], t)

    def _mark(self, name, t):
        self.spots.setdefault(name, set()).add(t)
        if t > self.maxpos:
            self.maxpos = t

    def subtree(self, node, path, t):
        stack = [(node, path)]
        while stack:
            n, p = stack.pop()
            self._mark(self.names[p], t)
            for i, ch in enumerate(n.children()):
                stack.append((ch, p + (i,)))

    def wide(self, path):
        self.wides.add(self.names[path])

    def wide_name(self, name):
        self.wides.add(name)

    def wide_subtree(self, node, path):
        stack = [(node, path)]
        while stack:
            n, p = stack.pop()
            self.wides.add(self.names[p])
            for i, ch in enumerate(n.children()):
                stack.append((ch, p + (i,)))

    def chain(self, node, path, count, homes):
        """Place a left-nested chain: item subtrees at their homes, each
        joining node with the two items it bridges."""
        items, joins = _chain_items(node, path, count)
        for (n, p), t in zip(items, homes):
            self.subtree(n, p, t)
        for p, j in joins:
            self.at(p, homes[j - 2])
            self.at(p, homes[j - 1])

    def enter(self, node, path, mark=None):
        """Step through negation and temporal wrappers down to the enclosed
        body, marking the wrapper vertices wide (or at a fixed position)."""
        put = self.wide if mark is None else (lambda p: self.at(p, mark))
        while True:
            if isinstance(node, (Globally, Finally, Not)):
                put(path)
                node, path = node.arg, path + (0,)
            elif isinstance(node, Until) and isinstance(node.left, Top):
                put(path)
                put(path + (0,))
                node, path = node.right, path + (1,)
            else:
                return node, path

    def bags(self):
        missing = set(self.graph.names) - self.wides - set(self.spots)
        if missing:
            raise RuntimeError(
                "decomposition recipe left %d vertices unplaced" % len(missing)
            )
        out = [set(self.wides) for _ in range(self.maxpos)]
        for v, ts in self.spots.items():
            if v in self.wides:
                continue
            for t in range(min(ts), max(ts) + 1):
                out[t - 1].add(v)
        return Decomposition(out)


def structure_graph(s):
    """Undirected view of a structure: directions merged, self-loops
    dropped, so it can be handed to the decomposition checker."""
    vertices = [(name, "world") for name in s.names]
    edges = set()
    for i, succs in enumerate(s.succ):
        for j in succs:
            if i == j:
                continue
            a, b = s.names[i], s.names[j]
            edges.add((a, b) if a <= b else (b, a))
    return Graph(vertices, sorted(edges))


def _xpow(f, p):
    for _ in range(p):
        f = Next(f)
    return f


# --- saturated SAT into satisfiability -------------------------------------


def reduce_pwsat_to_sat(inst, target):
    """Encode a saturation-constrained CNF as an LTL formula of temporal
    depth three that is satisfiable iff the instance is.

    A model walks down a staircase of levels d_0 > d_1 > ..., freezing one
    variable per level; crossing level i raises a top or bottom signal for
    i's block, and alternating markers m_0/m_1 clock unary counters that
    tally the signals.  The counters cap out at the block's capacity from
    above and its co-capacity from below, which pins the number of true
    variables per block exactly.
    """
    target = frozenset(target)
    if not target or not target <= TEMPORAL_OPS:
        raise ValueError("target fragment must be a nonempty subset of XFGU")
    n = inst.nvars
    nparts = len(inst.partitions)
    sizes = [len(p) for p in inst.partitions]
    caps = list(inst.capacities)

    d = lambda i: Prop("d_%d" % i)
    q = lambda i: Prop("q_%d" % i)
    m = (Prop("m_0"), Prop("m_1"))
    top = lambda j, p: Prop("top^%d_%d" % (j, p))
    bot = lambda j, p: Prop("bot^%d_%d" % (j, p))
    topup = lambda p: Prop("topup_%d" % p)
    botup = lambda p: Prop("botup_%d" % p)
    edge = lambda i: And(d(i), Not(d(i + 1)))

    formula_part = cnf_formula(inst.clauses)

    depth_items = [
        Implies(edge(i), conj([m[i % 2], Not(m[1 - i % 2]),
                               Finally(edge(i + 1))]))
        for i in range(0, n + 1)
    ]
    depth_part = Globally(conj(depth_items))

    fixedq_items = [
        And(Implies(q(i), Globally(q(i))),
            Implies(Not(q(i)), Globally(Not(q(i)))))
        for i in range(1, n + 1)
    ]
    fixedq_part = conj(fixedq_items)

    signal_items = [
        Implies(edge(i),
                And(Implies(q(i), topup(inst.partition_of(i))),
                    Implies(Not(q(i)), botup(inst.partition_of(i)))))
        for i in range(1, n + 1)
    ]
    signal_part = Globally(conj(signal_items))

    init_part = conj([d(0), Not(d(1)),
                      Globally(conj([And(top(0, p), bot(0, p))
                                     for p in range(1, nparts + 1)]))])

    count_items = []
    for p in range(1, nparts + 1):
        for j in range(0, sizes[p - 1] + 1):
            for mm in (0, 1):
                count_items.append(And(
                    Implies(conj([topup(p), top(j, p), m[mm]]),
                            Globally(Implies(m[1 - mm],
                                             Globally(top(j + 1, p))))),
                    Implies(conj([botup(p), bot(j, p), m[mm]]),
                            Globally(Implies(m[1 - mm],
                                             Globally(bot(j + 1, p)))))))
    count_part = Globally(conj(count_items))

    mono_d = [Implies(d(i), d(i - 1)) for i in range(1, n + 1)]
    mono_c = [
        And(Implies(top(j, p), top(j - 1, p)),
            Implies(bot(j, p), bot(j - 1, p)))
        for p in range(1, nparts + 1)
        for j in range(1, sizes[p - 1] + 2)
    ]
    mono_part = Globally(conj(mono_d + mono_c))

    target_part = Globally(conj([
        And(Not(top(caps[p - 1] + 1, p)),
            Not(bot(sizes[p - 1] - caps[p - 1] + 1, p)))
        for p in range(1, nparts + 1)
    ]))

    parity_part = And(Globally(Finally(m[0])), Globally(Finally(m[1])))

    persist_items = [Implies(d(i), Globally(d(i))) for i in range(0, n + 2)]
    persist_part = Globally(conj(persist_items))

    parts = [formula_part, depth_part, fixedq_part, signal_part, init_part,
             count_part, mono_part, target_part, parity_part, persist_part]
    psi = conj(parts)

    if frozenset("FG") <= target:
        emitted = psi
    else:
        emitted = rewrite_fragment(psi, target)
    return ReductionOutput(lambda: _pwsat_witness(emitted, inst), formula=emitted)


def _pwsat_witness(emitted, inst):
    """Sections along variable levels, then along each block's counter.

    Clause, freeze, signal, staircase, and persistence conjuncts live in
    the section of their level; counting and monotonicity conjuncts live
    in the section of their counter value.  The handful of small parts and
    the markers go everywhere.  Interval hulls then keep every d-, q- and
    counter-proposition within a constant band when the clause structure
    is local, which is what the construction's width claim is about.
    """
    n = inst.nvars
    nparts = len(inst.partitions)
    sizes = [len(p) for p in inst.partitions]

    level = lambda i: min(max(i, 1), n)
    offsets = []
    acc = n
    for p in range(nparts):
        offsets.append(acc)
        acc += sizes[p] + 1
    section = lambda p, j: offsets[p - 1] + j + 1

    pl = _SyntaxPlacer(emitted)
    items, joins = _chain_items(emitted, (), 10)
    for p, _ in joins:
        pl.wide(p)

    def entered(idx):
        node, path = items[idx]
        return pl.enter(node, path)

    # clause conjuncts sit at their deepest variable's level
    node, path = items[0]
    homes = [level(max(abs(l) for l in cl)) for cl in inst.clauses]
    pl.chain(node, path, len(inst.clauses), homes)

    node, path = entered(1)
    pl.chain(node, path, n + 1, [level(i) for i in range(0, n + 1)])

    node, path = items[2]
    pl.chain(node, path, n, [level(i) for i in range(1, n + 1)])

    node, path = entered(3)
    pl.chain(node, path, n, [level(i) for i in range(1, n + 1)])

    pl.wide_subtree(*items[4])

    node, path = entered(5)
    count_homes = [section(p, j)
                   for p in range(1, nparts + 1)
                   for j in range(0, sizes[p - 1] + 1)
                   for _ in (0, 1)]
    pl.chain(node, path, len(count_homes), count_homes)

    node, path = entered(6)
    mono_homes = [level(i) for i in range(1, n + 1)] + [
        section(p, j - 1)
        for p in range(1, nparts + 1)
        for j in range(1, sizes[p - 1] + 2)
    ]
    pl.chain(node, path, len(mono_homes), mono_homes)

    pl.wide_subtree(*items[7])
    pl.wide_subtree(*items[8])

    node, path = entered(9)
    pl.chain(node, path, n + 2, [level(i) for i in range(0, n + 2)])

    return pl.graph, pl.bags()


# --- CNF into universal model checking --------------------------------------


def reduce_3sat_to_mc(c, op):
    """Paths of the emitted structure choose an assignment variable by
    variable; the formula asserts some clause has all three literals
    flipped, so it holds on every path iff the CNF is unsatisfiable."""
    if op not in ("X", "F"):
        raise ValueError("operator must be X or F")
    n = c.nvars
    names = ["w0"]
    edges = []
    labels = {}
    for i in range(1, n + 1):
        names += ["w%dp" % i, "w%dn" % i]
        labels["w%dp" % i] = ("x_%d" % i,)
        labels["w%dn" % i] = ("nx_%d" % i,)
    edges += [("w0", "w1p"), ("w0", "w1n")]
    for i in range(1, n):
        for a in "pn":
            for b in "pn":
                edges.append(("w%d%s" % (i, a), "w%d%s" % (i + 1, b)))
    edges += [("w%dp" % n, "w%dp" % n), ("w%dn" % n, "w%dn" % n)]
    s = KripkeStructure(names, edges, labels, "w0")

    def flipped(lit):
        prop = Prop("nx_%d" % lit) if lit > 0 else Prop("x_%d" % -lit)
        if op == "F":
            return Finally(prop)
        return _xpow(prop, abs(lit))

    psi = disj([conj([flipped(l) for l in cl]) for cl in c.clauses])
    return ReductionOutput(lambda: _3sat_witness(s, n), mc=McInstance(s, "w0", psi))


def _3sat_witness(s, n):
    """Consecutive choice levels share a bag: width 3 for any n."""
    bags = [{"w0", "w1p", "w1n"}] + [
        {"w%dp" % i, "w%dn" % i, "w%dp" % (i + 1), "w%dn" % (i + 1)}
        for i in range(1, n)]
    return structure_graph(s), Decomposition(bags)


# --- square tiling into universal model checking -----------------------------


def _square_structure(t, with_depth):
    k = t.k
    kk = k * k
    names = ["wstart"]
    edges = []
    labels = {}
    ntiles = len(t.tiles)
    for i in range(1, kk + 1):
        for di, tile in enumerate(t.tiles):
            w = "w%d_%d" % (i, di)
            names.append(w)
            lab = ["c_%s_%s_%d" % (tile[si], side, i)
                   for si, side in enumerate(("u", "d", "l", "r"))]
            if i % k == 0:
                lab.append("q_border")
            if with_depth:
                lab.append("d_%d" % i)
            labels[w] = tuple(lab)
    names.append("wend")
    labels["wend"] = ("q_end",)
    for di in range(ntiles):
        edges.append(("wstart", "w1_%d" % di))
        edges.append(("w%d_%d" % (kk, di), "wend"))
    for i in range(1, kk):
        for a in range(ntiles):
            for b in range(ntiles):
                edges.append(("w%d_%d" % (i, a), "w%d_%d" % (i + 1, b)))
    edges.append(("wend", "wend"))
    return KripkeStructure(names, edges, labels, "wstart")


def _square_checks(t, i, opf):
    """Right and below colour agreements for position i, one conjunct per
    colour; the border label defuses right checks at row ends and the end
    label absorbs everything past the square."""
    k = t.k
    kk = k * k
    out = []
    for c in t.colors:
        if opf is _xpow:
            # a next-step from the last cell lands on the end world
            right = opf(Or(Prop("q_end"), Prop("c_%s_l_%d" % (c, i + 1))), 1)
        else:
            # an eventuality must not be allowed to resolve at the end
            # world, which every path reaches
            right = opf(Prop("c_%s_l_%d" % (c, i + 1)), 1)
        pr = Or(Prop("q_border"),
                Implies(Prop("c_%s_r_%d" % (c, i)), right))
        if opf is _xpow:
            pd = Implies(Prop("c_%s_d_%d" % (c, i)),
                         opf(Or(Prop("q_end"),
                                Prop("c_%s_u_%d" % (c, i + k))), k))
        elif i + k <= kk:
            pd = Implies(Prop("c_%s_d_%d" % (c, i)),
                         opf(Prop("c_%s_u_%d" % (c, i + k)), k))
        else:
            pd = Top()
        out.append(And(pr, pd))
    return out


def reduce_sqtiling_to_mc_x(t):
    """Serialize the square row-major along a path and pin each position
    with a tower of next-operators; the emitted negation holds on all
    paths iff no tiling exists."""
    k = t.k
    kk = k * k
    s = _square_structure(t, with_depth=False)
    blocks = [_xpow(conj(_square_checks(t, i, _xpow)), i)
              for i in range(1, kk + 1)]
    emitted = Not(conj(blocks))
    return ReductionOutput(lambda: _square_witness(emitted, t, op=None),
                           mc=McInstance(s, "wstart", emitted))


def _opf_factory(op):
    if op == "F":
        return lambda f, steps: Finally(f)
    if op == "G":
        return lambda f, steps: Not(Globally(Not(f)))
    if op == "U":
        return lambda f, steps: Until(Top(), f)
    raise ValueError("operator must be F, G or U")


def reduce_sqtiling_to_mc_t(t, op):
    """Depth labels replace the next-towers: position i is the only world
    carrying d_i, so a single eventuality per block reaches it and the
    emitted formula keeps constant temporal depth in the chosen operator."""
    opf = _opf_factory(op)
    k = t.k
    kk = k * k
    s = _square_structure(t, with_depth=True)
    blocks = [
        opf(And(Prop("d_%d" % i), conj(_square_checks(t, i, opf))), 1)
        for i in range(1, kk)
    ]
    emitted = Not(conj(blocks))
    return ReductionOutput(lambda: _square_witness(emitted, t, op=op),
                           mc=McInstance(s, "wstart", emitted))


def _square_witness(emitted, t, op):
    """One position per (square cell, colour); a block's tower or
    eventuality cluster collapses into the block's last position, and the
    top-level glue spans everything, which is where the quadratic bag
    bound comes from."""
    ncolors = len(t.colors)
    kk = t.k * t.k
    nblocks = kk if op is None else kk - 1
    pl = _SyntaxPlacer(emitted)
    pl.wide(())
    if nblocks == 0:
        # a single-cell square under an eventuality operator has nothing to
        # check; the emitted formula is just the negated truth constant
        pl.wide((0,))
        return pl.graph, pl.bags()
    items, joins = _chain_items(emitted.arg, (0,), nblocks)
    for p, _ in joins:
        pl.wide(p)
    pos = lambda b, c: b * ncolors + c + 1
    for b, (node, path) in enumerate(items):
        last = pos(b, ncolors - 1)
        if op is None:
            while isinstance(node, Next):
                pl.at(path, last)
                node, path = node.arg, path + (0,)
        else:
            node, path = pl.enter(node, path, mark=last)
            # the block body is And(depth marker, colour checks)
            pl.at(path, last)
            pl.at(path + (0,), last)
            node, path = node.right, path + (1,)
        homes = [pos(b, c) for c in range(ncolors)]
        pl.chain(node, path, ncolors, homes)
    return pl.graph, pl.bags()


# --- rectangle tiling into universal model checking ---------------------------


def _rect_structure(t, with_depth):
    n = t.n
    names = ["wleft"]
    edges = []
    labels = {"wleft": ("q_left",), "wright": ("q_right",),
              "wend": ("q_end",)}
    for i in range(1, n + 1):
        for di, tile in enumerate(t.tiles):
            w = "w%d_%d" % (i, di)
            names.append(w)
            lab = ["c_%s_%s" % (tile[si], side)
                   for si, side in enumerate(("u", "d", "l", "r"))]
            if with_depth:
                lab += ["c_%s_%s_%d" % (tile[si], side, i)
                        for si, side in enumerate(("u", "d", "l", "r"))]
                lab.append("d_%d" % i)
            labels[w] = tuple(lab)
    names += ["wright", "wend"]
    for di in range(n):
        edges.append(("wleft", "w1_%d" % di))
        edges.append(("w%d_%d" % (n, di), "wright"))
    for i in range(1, n):
        for a in range(n):
            for b in range(n):
                edges.append(("w%d_%d" % (i, a), "w%d_%d" % (i + 1, b)))
    edges += [("wright", "wend"), ("wright", "wleft"), ("wend", "wend")]
    return KripkeStructure(names, edges, labels, "wleft")


def reduce_recttiling_to_mc_xf(t):
    """Rows ride around the wleft -> tiles -> wright cycle; a step of n+2
    next-operators lands on the same column one row down, so colour checks
    need no position indexing and the formula's syntax graph keeps
    constant pathwidth while the rectangle's height stays unbounded."""
    n = t.n
    cp = lambda c, side: Prop("c_%s_%s" % (c, side))
    first_part = conj([_xpow(cp(t.top, "u"), i) for i in range(1, n + 1)])
    last_part = Finally(conj(
        [Prop("q_left"), _xpow(Prop("q_end"), n + 2)]
        + [_xpow(cp(t.bottom, "d"), i) for i in range(1, n + 1)]))
    checks = []
    for c in t.colors:
        pr = Implies(cp(c, "r"), Next(Or(Prop("q_right"), cp(c, "l"))))
        pd = Implies(cp(c, "d"),
                     _xpow(Or(Prop("q_end"), cp(c, "u")), n + 2))
        checks.append(And(pr, pd))
    always_part = Not(Finally(Not(conj(checks))))
    emitted = Not(conj([first_part, last_part, always_part]))
    s = _rect_structure(t, with_depth=False)
    return ReductionOutput(lambda: _rect_xf_witness(emitted, t),
                           mc=McInstance(s, "wleft", emitted))


def _rect_xf_witness(emitted, t):
    """Marker propositions ride in every bag; each tower of
    next-operators unrolls into a run of paired positions and each colour
    check takes a single one, so bag sizes never see the tower lengths."""
    n = t.n
    ncolors = len(t.colors)
    pl = _SyntaxPlacer(emitted)
    for name in ("q_left", "q_right", "q_end"):
        pl.wide_name(name)
    pl.wide(())
    items, joins = _chain_items(emitted.arg, (0,), 3)
    for p, _ in joins:
        pl.wide(p)

    cursor = 1

    def run_tower(node, path, length):
        # consecutive tower vertices share a position: pair bags
        nonlocal cursor
        start = cursor
        end = start + max(length - 1, 1) - 1
        j = 0
        while isinstance(node, Next):
            pl.at(path, min(start + j, end))
            if start + j - 1 >= start:
                pl.at(path, start + j - 1)
            node, path = node.arg, path + (0,)
            j += 1
        # whatever hangs below the tower shares its final position
        pl.subtree(node, path, end)
        cursor = end + 1
        return start

    def chain_of_towers(node, path, count, lengths):
        items, joins = _chain_items(node, path, count)
        homes = []
        for (it, p), ln in zip(items, lengths):
            if ln == 0:
                pl.at(p, cursor)
                homes.append(cursor)
            else:
                homes.append(run_tower(it, p, ln))
        for p, j in joins:
            pl.at(p, homes[j - 2])
            pl.at(p, homes[j - 1])

    node, path = items[0]
    chain_of_towers(node, path, n, list(range(1, n + 1)))

    node, path = items[1]
    pl.wide(path)  # the eventuality wrapper
    node, path = node.arg, path + (0,)
    chain_of_towers(node, path, n + 2, [0, n + 2] + list(range(1, n + 1)))

    node, path = pl.enter(*items[2])
    check_items, check_joins = _chain_items(node, path, ncolors)
    homes = []
    for it, p in check_items:
        home = cursor
        pl.at(p, home)
        pr, prp = it.left, p + (0,)
        pl.subtree(pr, prp, home)
        pd, pdp = it.right, p + (1,)
        pl.at(pdp, home)
        pl.at(pdp + (0,), home)
        tower, tp = pd.right, pdp + (1,)
        run_tower(tower, tp, n + 2)
        homes.append(home)
    for p, j in check_joins:
        pl.at(p, homes[j - 2])
        pl.at(p, homes[j - 1])

    return pl.graph, _top_up(pl.bags(), RECT_XF_WIDTH)


def reduce_recttiling_to_mc_u(t):
    """Until-only variant: row position is recovered from depth labels
    rather than operator towers, keeping the temporal depth at three.

    A right check rides its own colour label until the next tile; a below
    check rides to the first row end and then forbids the column's depth
    label until it reappears under the required upper colour."""
    n = t.n
    cp = lambda c, side: Prop("c_%s_%s" % (c, side))
    dp = lambda c, side, i: Prop("c_%s_%s_%d" % (c, side, i))
    first_part = Until(Or(Prop("q_left"), cp(t.top, "u")), Prop("q_right"))
    last_part = Until(Top(), And(Prop("q_left"),
                                 Until(Or(Prop("q_left"), cp(t.bottom, "d")),
                                       Prop("q_right"))))
    checks = []
    for i in range(1, n + 1):
        for c in t.colors:
            pr = Implies(dp(c, "r", i),
                         Until(dp(c, "r", i),
                               Or(Prop("q_right"), dp(c, "l", i + 1))))
            pd = Implies(dp(c, "d", i),
                         Until(Not(Prop("q_right")),
                               And(Prop("q_right"),
                                   Until(Not(Prop("d_%d" % i)),
                                         Or(Prop("q_end"),
                                            And(Prop("d_%d" % i),
                                                dp(c, "u", i)))))))
            checks.append(And(pr, pd))
    always_part = Not(Until(Top(), Not(conj(checks))))
    emitted = Not(conj([first_part, last_part, always_part]))
    s = _rect_structure(t, with_depth=True)
    return ReductionOutput(lambda: _rect_u_witness(emitted, t),
                           mc=McInstance(s, "wleft", emitted))


def _rect_u_witness(emitted, t):
    """Column-indexed checks take one position each; boundary parts and
    the unindexed propositions they mention span every bag."""
    n = t.n
    ncolors = len(t.colors)
    pl = _SyntaxPlacer(emitted)
    pl.wide(())
    items, joins = _chain_items(emitted.arg, (0,), 3)
    for p, _ in joins:
        pl.wide(p)
    node, path = items[0]
    pl.subtree(node, path, 1)
    node, path = items[1]
    pl.subtree(node, path, 1)
    for name in ("q_left", "q_right", "q_end"):
        pl.wide_name(name)

    # boundary parts keep position 1 to themselves; one position per check
    node, path = pl.enter(*items[2])
    count = n * ncolors
    homes = list(range(2, count + 2))
    pl.chain(node, path, count, homes)
    return pl.graph, _top_up(pl.bags(), RECT_U_WIDTH)


def _top_up(dec, target_width):
    """Pad the widest bag up to the design width by stretching nearby
    vertices' intervals; family members then share one certificate value
    instead of drifting with the colour count."""
    bags = [set(b) for b in dec.bags]
    while True:
        sizes = [len(b) for b in bags]
        t = max(range(len(bags)), key=lambda i: sizes[i])
        if sizes[t] - 1 >= target_width:
            break
        grown = False
        for dist in range(1, len(bags)):
            for u in (t - dist, t + dist):
                if 0 <= u < len(bags):
                    extra = bags[u] - bags[t]
                    if extra:
                        v = min(extra)
                        for b in range(min(u, t), max(u, t) + 1):
                            bags[b].add(v)
                        grown = True
                        break
            if grown:
                break
        if not grown:
            break
    return Decomposition(bags)
