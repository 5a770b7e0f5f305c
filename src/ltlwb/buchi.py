"""LTL tableau fused with a Kripke structure, and its emptiness check.

The tableau (the on-the-fly expansion of Gerth, Peled, Vardi and Wolper)
works on negation normal form with an internal Release dual; user-facing
formulas never see it.  States are the expanded obligation sets
(old, next); one acceptance set guards every eventuality (U or F node of
the normal form).  The expansion runs against each structure world's exact
valuation, which prunes unreachable obligation sets early and keeps
generated-instance model checking tractable.  Satisfiability runs the same
product against one self-looped world whose letter is free, so model
checking and satisfiability share one exploration and one emptiness check.
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


def _refuted(f, letter, memo):
    """Definite refutation of f by the current letter alone.

    Sound for pruning: a refuted branch arm dies during its own expansion
    at this letter, so skipping it drops no leaf.  Next and Finally only
    constrain later letters and are never refuted here.
    """
    v = memo.get(f)
    if v is None:
        if isinstance(f, Prop):
            v = f.name not in letter
        elif isinstance(f, Not):
            v = f.arg.name in letter
        elif isinstance(f, And):
            v = _refuted(f.left, letter, memo) or _refuted(f.right, letter, memo)
        elif isinstance(f, Or):
            v = _refuted(f.left, letter, memo) and _refuted(f.right, letter, memo)
        elif isinstance(f, Until):
            v = _refuted(f.right, letter, memo) and _refuted(f.left, letter, memo)
        elif isinstance(f, Release):
            v = _refuted(f.right, letter, memo)
        elif isinstance(f, Globally):
            v = _refuted(f.arg, letter, memo)
        else:
            v = isinstance(f, Bottom)
        memo[f] = v
    return v


def _never_true(f, union, memo):
    """f false on every suffix whose letters all draw from union.

    union is the set of propositions true somewhere in a future-closed
    region: a bare proposition outside it can never hold again, and the
    verdict propagates through the normal form.  Negated literals are
    never refutable this way, since membership in the union says nothing
    about any single letter.
    """
    v = memo.get(f)
    if v is None:
        if isinstance(f, Prop):
            v = f.name not in union
        elif isinstance(f, And):
            v = _never_true(f.left, union, memo) or _never_true(f.right, union, memo)
        elif isinstance(f, Or):
            v = _never_true(f.left, union, memo) and _never_true(f.right, union, memo)
        elif isinstance(f, (Until, Release)):
            v = _never_true(f.right, union, memo)
        elif isinstance(f, (Finally, Globally, Next)):
            v = _never_true(f.arg, union, memo)
        else:
            v = isinstance(f, Bottom)
        memo[f] = v
    return v


def _saturate(obligations, letter, refuted=None):
    """Expand obligations into fully processed (old, next) leaf pairs.

    letter is None for a free expansion (literals recorded, contradictions
    pruned) or a frozenset of true propositions that resolves literals on
    the spot.  True literals still enter `old` so acceptance witnessing
    can see them.  Non-branching obligations drain before any disjunctive
    split, and a split whose arm is already refuted follows the surviving
    arm in place, so most contradictions surface before the obligation
    sets get copied.  refuted may carry a letter-keyed memo dict shared
    across calls expanding against the same letter.
    """
    out = []
    seen = set()
    if letter is not None:
        if refuted is None:
            refuted = {}
        sf = lambda g: _refuted(g, letter, refuted)
    else:
        # free expansion: only literal clashes with old are decidable
        sf = lambda g: (
            isinstance(g, Bottom)
            or (isinstance(g, Prop) and Not(g) in old)
            or (isinstance(g, Not) and g.arg in old)
        )
    work = [(list(obligations), [], set(), set())]
    while work:
        new, split, old, nxt = work.pop()
        dead = False
        while new or split:
            if not new:
                f = split.pop()
                if f in old:
                    continue
                old.add(f)
                if isinstance(f, Or):
                    lf = sf(f.left)
                    rf = sf(f.right)
                    if lf and rf:
                        dead = True
                        break
                    if lf:
                        new.append(f.right)
                    elif rf:
                        new.append(f.left)
                    else:
                        work.append((new + [f.right], list(split), set(old), set(nxt)))
                        new.append(f.left)
                elif isinstance(f, Until):
                    lf = sf(f.left)
                    rf = sf(f.right)
                    if lf and rf:
                        dead = True
                        break
                    if rf:
                        nxt.add(f)
                        new.append(f.left)
                    elif lf:
                        new.append(f.right)
                    else:
                        defer = (new + [f.left], list(split), set(old), set(nxt))
                        defer[3].add(f)
                        work.append(defer)
                        new.append(f.right)
                elif isinstance(f, Release):
                    if sf(f.right):
                        dead = True
                        break
                    if sf(f.left):
                        nxt.add(f)
                        new.append(f.right)
                    else:
                        defer = (new + [f.right], list(split), set(old), set(nxt))
                        defer[3].add(f)
                        work.append(defer)
                        new.append(f.left)
                        new.append(f.right)
                else:  # Finally
                    if sf(f.arg):
                        nxt.add(f)
                    else:
                        defer = (list(new), list(split), set(old), set(nxt))
                        defer[3].add(f)
                        work.append(defer)
                        new.append(f.arg)
                continue
            f = new.pop()
            if f in old:
                continue
            if isinstance(f, Top):
                continue
            if isinstance(f, Bottom):
                dead = True
                break
            if isinstance(f, Prop):
                if letter is None:
                    if Not(f) in old:
                        dead = True
                        break
                elif f.name not in letter:
                    dead = True
                    break
                old.add(f)
            elif isinstance(f, Not):
                if letter is None:
                    if f.arg in old:
                        dead = True
                        break
                elif f.arg.name in letter:
                    dead = True
                    break
                old.add(f)
            elif isinstance(f, And):
                old.add(f)
                new.append(f.left)
                new.append(f.right)
            elif isinstance(f, Next):
                old.add(f)
                nxt.add(f.arg)
            elif isinstance(f, Globally):
                old.add(f)
                nxt.add(f)
                new.append(f.arg)
            elif isinstance(f, (Or, Until, Release, Finally)):
                split.append(f)
            else:
                raise TypeError("unexpected node %r in normal form" % f)
        if not dead:
            leaf = (frozenset(old), frozenset(nxt))
            if leaf not in seen:
                seen.add(leaf)
                out.append(leaf)
    return out


def _witnessed(g, witness, old):
    return g not in old or witness in old or isinstance(witness, Top)


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


def _accepting_run(s, start_world, f):
    """Accepting lasso of structure x tableau of f, as (prefix, cycle) lists
    of (world, old, next) product nodes, or None.

    Obligation sets are expanded only against the valuations actually
    reachable.  A world labelled None reads a free letter: its expansion
    records literals instead of resolving them, and its states keep their
    positive literals, which spell the letter they read.
    """
    root = to_nnf(f)
    subs = subformulas(root)
    order = {g: i for i, g in enumerate(subs)}
    # eventualities with their witnesses, in subformula order
    events = [
        (g, g.right if isinstance(g, Until) else g.arg)
        for g in subs
        if isinstance(g, (Until, Finally))
    ]
    relevant = frozenset(g for pair in events for g in pair)
    with_letter = relevant | frozenset(g for g in subs if isinstance(g, Prop))
    witness_of = dict(events)
    expand_cache = {}
    refuted_memos = {}

    # union of labels over the strict future of each world: a deferred
    # eventuality whose witness can never hold over those letters cannot
    # be redeemed, so no accepting run passes through a state carrying it
    future = {}
    for w in range(len(s.names)):
        if s.labels[w] is None:
            continue
        seen = set(s.succ[w])
        stack = list(seen)
        while stack:
            v = stack.pop()
            for v2 in s.succ[v]:
                if v2 not in seen:
                    seen.add(v2)
                    stack.append(v2)
        future[w] = frozenset().union(*(s.labels[v] for v in seen)) if seen else frozenset()
    future_memos = {}

    def expand(obligations_key, world):
        key = (obligations_key, world)
        hit = expand_cache.get(key)
        if hit is None:
            letter = s.labels[world]
            memo = refuted_memos.setdefault(world, {})
            fmemo = future_memos.setdefault(world, {})
            obligations = sorted(obligations_key, key=order.__getitem__)
            pairs = _saturate(obligations, letter, memo)
            # acceptance only ever looks up eventualities and their
            # witnesses in old, so states differing elsewhere in old
            # are indistinguishable onward; fold them together, except
            # that a free world's states keep the letter they read
            keep = relevant if letter is not None else with_letter
            hit = []
            for old, nxt in pairs:
                if letter is not None and any(
                    g in witness_of and _never_true(witness_of[g], future[world], fmemo)
                    for g in nxt
                ):
                    continue
                hit.append((old & keep, nxt))
            hit = list(dict.fromkeys(hit))
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
        return list(dict.fromkeys(ids))

    initial = intern(start_world, expand(frozenset([root]), start_world))
    while worklist:
        node = worklist.pop()
        if adj[node] is not None:
            continue
        w, old, nxt = node
        out = []
        for w2 in s.succ[w]:
            out.extend(intern(w2, expand(nxt, w2)))
        adj[node] = list(dict.fromkeys(out))
    accept_sets = [
        {n for n in adj if _witnessed(g, wit, n[1])} for g, wit in events
    ]
    return find_accepting_lasso(adj, initial, accept_sets)


def fused_product_lasso(s, start_world, f):
    """Lasso of s from start_world satisfying f, as (prefix, cycle) world
    index lists, or None."""
    found = _accepting_run(s, start_world, f)
    if found is None:
        return None
    prefix, cycle = found
    return [n[0] for n in prefix], [n[0] for n in cycle]


def model_word(f):
    """Lasso word (prefix letters, cycle letters) of a model of f, or None.

    Letters are frozensets of proposition names, read off the run over the
    free world.
    """
    found = _accepting_run(_FREE, 0, f)
    if found is None:
        return None
    prefix, cycle = found
    letter = lambda n: frozenset(g.name for g in n[1] if isinstance(g, Prop))
    return [letter(n) for n in prefix], [letter(n) for n in cycle]
