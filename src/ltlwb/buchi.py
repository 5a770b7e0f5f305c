"""LTL tableau fused with a Kripke structure, and its emptiness check.

The tableau (the on-the-fly expansion of Gerth, Peled, Vardi and Wolper)
works on negation normal form with an internal Release dual; user-facing
formulas never see it.  Each call compiles the normal form once into
arrays indexed by subformula id, ids in bottom-up `subformulas` order: a
connective kind, the children's ids, and for each literal the bit of its
complement.  Obligation sets are int bitmasks over those ids; states are
the expanded (old, next) mask pairs, and one acceptance set guards every
eventuality (U or F node of the normal form).  The expansion runs against
each structure world's exact valuation, held as two masks computed once
per world: the subformulas its letter refutes outright, and the
eventualities that can never be redeemed in its future.  That prunes
unreachable obligation sets early and keeps generated-instance model
checking tractable.  Satisfiability runs the same product against one
self-looped world whose letter is free, so model checking and
satisfiability share one exploration and one emptiness check.
"""

from __future__ import annotations

from types import SimpleNamespace

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
    _Binary,
    subformulas,
)


class Release(_Binary):
    """Dual of Until; internal to the normal form."""

    __slots__ = ()
    op = "R"


# connective -> (its normal-form connective, that of its negation)
_NNF_DUAL = {
    And: (And, Or),
    Or: (Or, And),
    Next: (Next, Next),
    Finally: (Finally, Globally),
    Globally: (Globally, Finally),
    Until: (Until, Release),
    Release: (Release, Until),
}


def to_nnf(f):
    """Negation normal form over {literals, and, or, X, F, G, U, R}."""
    # both polarities of every subformula, children first
    pos = {}
    neg = {}
    for node in subformulas(f):
        if isinstance(node, Prop):
            pos[node], neg[node] = node, Not(node)
        elif isinstance(node, Top):
            pos[node], neg[node] = node, Bottom()
        elif isinstance(node, Bottom):
            pos[node], neg[node] = node, Top()
        elif isinstance(node, Not):
            pos[node], neg[node] = neg[node.arg], pos[node.arg]
        elif isinstance(node, Implies):
            a, b = node.left, node.right
            pos[node], neg[node] = Or(neg[a], pos[b]), And(pos[a], neg[b])
        elif isinstance(node, _Binary):
            a, b = node.left, node.right
            cls, dual = _NNF_DUAL[type(node)]
            pos[node], neg[node] = cls(pos[a], pos[b]), dual(neg[a], neg[b])
        elif type(node) in _NNF_DUAL:
            cls, dual = _NNF_DUAL[type(node)]
            pos[node], neg[node] = cls(pos[node.arg]), dual(neg[node.arg])
        else:
            raise TypeError("unknown formula node %r" % node)
    return pos[f]


# connective kinds of the compiled normal form; the last four branch
_LIT, _AND, _NEXT, _GLOBALLY, _OR, _UNTIL, _RELEASE, _FINALLY = range(8)
_KIND = {And: _AND, Next: _NEXT, Globally: _GLOBALLY, Or: _OR,
         Until: _UNTIL, Release: _RELEASE, Finally: _FINALLY}


class _Tableau:
    """The normal form of a formula compiled to arrays over subformula ids.

    Ids follow the bottom-up order of `subformulas`, so the root has the
    highest id and ascending ids are the order obligations expand in.
    Literals (propositions, their negations, true and false) share one
    kind; a unary node stores its argument as both children.
    """

    __slots__ = (
        "subs", "kind", "left", "right", "clash", "top", "bottom", "props",
        "literals", "composite", "events", "relevant",
    )

    def __init__(self, f):
        subs = self.subs = subformulas(to_nnf(f))
        ids = {g: i for i, g in enumerate(subs)}
        n = len(subs)
        self.kind = [_LIT] * n
        self.left = list(range(n))
        self.right = list(range(n))
        self.clash = [0] * n
        self.top = self.bottom = self.props = self.relevant = 0
        self.literals = {}  # proposition name -> [bit of p, bit of !p]
        self.composite = []  # (id, kind, left, right) of non-literals
        self.events = []  # (bit of U or F node, bit of its witness)
        for i, g in enumerate(subs):
            if isinstance(g, Prop):
                self.literals.setdefault(g.name, [0, 0])[0] = 1 << i
                self.props |= 1 << i
            elif isinstance(g, Not):
                p = ids[g.arg]
                self.literals.setdefault(g.arg.name, [0, 0])[1] = 1 << i
                self.clash[i], self.clash[p] = 1 << p, 1 << i
            elif isinstance(g, Top):
                self.top = 1 << i
            elif isinstance(g, Bottom):
                self.bottom = 1 << i
            else:
                kids = g.children()
                k = self.kind[i] = _KIND[type(g)]
                a = self.left[i] = ids[kids[0]]
                b = self.right[i] = ids[kids[-1]]
                self.composite.append((i, k, a, b))
                if k == _UNTIL or k == _FINALLY:
                    self.events.append((1 << i, 1 << b))
                    self.relevant |= 1 << i | 1 << b

    def world_masks(self, s, w):
        """(refuted, doomed, keep) masks for world w of structure s.

        refuted holds the subformulas that w's letter alone refutes.  Sound
        for pruning: a refuted branch arm dies during its own expansion at
        this letter, so skipping it drops no leaf.  X and F only constrain
        later letters and are never refuted here.  A free letter (label
        None) refutes only false.

        doomed holds the eventualities whose witness is false on every
        suffix drawing its letters from the union of labels over w's strict
        future: no accepting run passes through a state that defers one.
        A negated literal is never false that way, since the union says
        nothing about any single letter.

        keep is what states at w retain of old.  Acceptance only ever looks
        up eventualities and their witnesses there, so states differing
        elsewhere are indistinguishable onward and fold together; a free
        world's states also keep the positive literals they read.
        """
        letter = s.labels[w]
        if letter is None:
            return self.bottom, 0, self.relevant | self.props
        seen = set(s.succ[w])
        stack = list(seen)
        while stack:
            for v in s.succ[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        future = frozenset().union(*(s.labels[v] for v in seen))
        ref = never = self.bottom
        for name, (p, q) in self.literals.items():
            ref |= q if name in letter else p
            if name not in future:
                never |= p
        for i, k, a, b in self.composite:
            if k == _AND:
                r = ref >> a | ref >> b
                v = never >> a | never >> b
            elif k == _OR:
                r = ref >> a & ref >> b
                v = never >> a & never >> b
            else:
                v = never >> b
                if k == _UNTIL:
                    r = ref >> a & ref >> b
                elif k == _RELEASE or k == _GLOBALLY:
                    r = ref >> b
                else:
                    r = 0
            ref |= (r & 1) << i
            never |= (v & 1) << i
        doomed = 0
        for g, wit in self.events:
            if never & wit:
                doomed |= g
        return ref, doomed, self.relevant


def _ids(mask):
    """Ids of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _saturate(t, obligations, ref):
    """Expand the obligation mask into fully processed (old, next) leaf
    mask pairs of tableau t, against a world whose letter refutes ref.

    An obligation is refuted when ref holds its bit or old holds the
    complement of its literal: for a labelled world ref resolves every
    literal on the spot, for the free world it holds only false, and
    literals are recorded so that later ones can clash with them.  True
    literals still enter `old` so acceptance witnessing can see them, and
    `old` starts with true in it, which every state satisfies.
    Non-branching obligations drain before any disjunctive split, and a
    split whose arm is already refuted follows the surviving arm in place,
    so most contradictions surface before the obligation sets get copied.
    """
    kind, left, right, clash = t.kind, t.left, t.right, t.clash
    out = []
    seen = set()
    work = [(_ids(obligations), [], t.top, 0)]
    while work:
        new, split, old, nxt = work.pop()
        dead = False
        while new or split:
            if not new:
                f = split.pop()
                bit = 1 << f
                if old & bit:
                    continue
                old |= bit
                k, a, b = kind[f], left[f], right[f]
                lf = ref >> a & 1 or old & clash[a]
                rf = ref >> b & 1 or old & clash[b]
                if k == _OR:
                    if lf and rf:
                        dead = True
                        break
                    if lf:
                        new.append(b)
                    elif rf:
                        new.append(a)
                    else:
                        work.append((new + [b], list(split), old, nxt))
                        new.append(a)
                elif k == _UNTIL:
                    if lf and rf:
                        dead = True
                        break
                    if rf:
                        nxt |= bit
                        new.append(a)
                    elif lf:
                        new.append(b)
                    else:
                        work.append((new + [a], list(split), old, nxt | bit))
                        new.append(b)
                elif k == _RELEASE:
                    if rf:
                        dead = True
                        break
                    if lf:
                        nxt |= bit
                        new.append(b)
                    else:
                        work.append((new + [b], list(split), old, nxt | bit))
                        new.append(a)
                        new.append(b)
                else:  # Finally
                    if lf:
                        nxt |= bit
                    else:
                        work.append((list(new), list(split), old, nxt | bit))
                        new.append(a)
                continue
            f = new.pop()
            bit = 1 << f
            if old & bit:
                continue
            k = kind[f]
            if k == _LIT:
                if ref & bit or old & clash[f]:
                    dead = True
                    break
                old |= bit
            elif k == _AND:
                old |= bit
                new.append(left[f])
                new.append(right[f])
            elif k == _NEXT:
                old |= bit
                nxt |= 1 << left[f]
            elif k == _GLOBALLY:
                old |= bit
                nxt |= bit
                new.append(left[f])
            else:
                split.append(f)
        if not dead:
            leaf = (old, nxt)
            if leaf not in seen:
                seen.add(leaf)
                out.append(leaf)
    return out


# ---------------------------------------------------------------------------
# emptiness: accepting-lasso search over an explicit graph

def find_accepting_lasso(succ, initial, accept_sets):
    """Shortest-ish accepting lasso (prefix, cycle) as node lists, or None.

    succ: dict node -> iterable of nodes; accept_sets: list of node sets.
    A lasso is accepting when its cycle meets every acceptance set; with an
    empty family any reachable cycle qualifies.
    """
    comps = _tarjan_components(succ, initial)
    for comp in comps:
        comp_set = set(comp)
        nontrivial = len(comp) > 1 or any(
            v in succ[v] for v in comp
        )
        if not nontrivial:
            continue
        if all(comp_set & acc for acc in accept_sets):
            return _stitch_witness(succ, initial, comp_set, accept_sets)
    return None


def _tarjan_components(succ, roots):
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = 0
    for root in roots:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in onstack:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _bfs_path(succ, sources, targets, allowed=None, min_len=0):
    """Shortest node path from a source to a target; may require length > 0."""
    targets = set(targets)
    parent = {}
    queue = []
    if min_len == 0:
        for s in sources:
            if s in targets:
                return [s]
    for s in sources:
        if s not in parent:
            parent[s] = None
            queue.append(s)
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in succ[v]:
            if allowed is not None and w not in allowed:
                continue
            if w in targets:
                path = [w, v]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None


def _stitch_witness(succ, initial, comp_set, accept_sets):
    prefix_path = _bfs_path(succ, list(initial), comp_set)
    anchor = prefix_path[-1]
    walk = [anchor]
    cur = anchor
    for acc in accept_sets:
        reps = comp_set & acc
        if cur in reps:
            continue
        seg = _bfs_path(succ, [cur], reps, allowed=comp_set)
        walk.extend(seg[1:])
        cur = seg[-1]
    # close the cycle with at least one edge
    starts = [w for w in succ[cur] if w in comp_set]
    if anchor in starts:
        closing = [cur, anchor]
    else:
        seg = _bfs_path(succ, starts, {anchor}, allowed=comp_set)
        closing = [cur] + seg
    walk.extend(closing[1:])
    cycle = walk[:-1]
    return prefix_path[:-1], cycle


# ---------------------------------------------------------------------------
# product: structure x tableau, explored from the reachable valuations only

# one self-looped world whose letter is free; the product with it accepts
# exactly the models of the formula
_FREE = SimpleNamespace(names=("free",), succ=((0,),), labels=(None,))


def _accepting_run(s, start_world, t):
    """Accepting lasso of structure x tableau t, as (prefix, cycle) lists of
    (world, old, next) product nodes, or None.

    Obligation sets are expanded only against the valuations actually
    reachable.  A world labelled None reads a free letter: its expansion
    records literals instead of resolving them, and its states keep their
    positive literals, which spell the letter they read.
    """
    expand_cache = {}
    world_masks = {}

    def expand(obligations, world):
        key = (obligations, world)
        hit = expand_cache.get(key)
        if hit is None:
            masks = world_masks.get(world)
            if masks is None:
                masks = world_masks[world] = t.world_masks(s, world)
            ref, doomed, keep = masks
            hit = list(dict.fromkeys(
                (old & keep, nxt)
                for old, nxt in _saturate(t, obligations, ref)
                if not nxt & doomed
            ))
            expand_cache[key] = hit
        return hit

    adj = {}
    worklist = []

    def intern(world, pairs):
        ids = []
        for old, nxt in pairs:
            node = (world, old, nxt)
            if node not in adj:
                adj[node] = None
                worklist.append(node)
            ids.append(node)
        return ids

    initial = intern(start_world, expand(1 << len(t.subs) - 1, start_world))
    while worklist:
        node = worklist.pop()
        w, _, nxt = node
        out = []
        for w2 in s.succ[w]:
            out.extend(intern(w2, expand(nxt, w2)))
        adj[node] = list(dict.fromkeys(out))
    accept_sets = [
        {n for n in adj if not n[1] & g or n[1] & wit} for g, wit in t.events
    ]
    return find_accepting_lasso(adj, initial, accept_sets)


def fused_product_lasso(s, start_world, f):
    """Lasso of s from start_world satisfying f, as (prefix, cycle) world
    index lists, or None."""
    found = _accepting_run(s, start_world, _Tableau(f))
    if found is None:
        return None
    prefix, cycle = found
    return [n[0] for n in prefix], [n[0] for n in cycle]


def model_word(f):
    """Lasso word (prefix letters, cycle letters) of a model of f, or None.

    Letters are frozensets of proposition names, read off the positive
    literals that the run's states over the free world keep in old.
    """
    t = _Tableau(f)
    found = _accepting_run(_FREE, 0, t)
    if found is None:
        return None
    prefix, cycle = found
    letter = lambda n: frozenset(t.subs[i].name for i in _ids(n[1] & t.props))
    return [letter(n) for n in prefix], [letter(n) for n in cycle]
