"""Tableau core: normal form, state invariants, language checks, products."""

import random

from ltlwb import And, Bottom, Finally, Globally, Implies, Next, Not, Or, Prop, Top, Until, parse
from ltlwb import buchi
from ltlwb.buchi import (
    Release,
    _ids,
    _saturate,
    _Tableau,
    find_accepting_lasso,
    fused_product_lasso,
    model_word,
    to_nnf,
)
from ltlwb.checker import McInstance, brute_mc, mc_counterexample
from ltlwb.kripke import KripkeStructure, Lasso, eval_on_lasso, validate_lasso

from helpers import random_formula


def word_structure(prefix_letters, cycle_letters):
    """Deterministic chain realizing exactly the word prefix·cycle^ω."""
    letters = list(prefix_letters) + list(cycle_letters)
    names = ["n%d" % i for i in range(len(letters))]
    edges = [(names[i], names[i + 1]) for i in range(len(letters) - 1)]
    edges.append((names[-1], names[len(prefix_letters)]))
    labels = {names[i]: sorted(letters[i]) for i in range(len(letters))}
    s = KripkeStructure(names, edges, labels, names[0])
    lasso = Lasso(
        range(len(prefix_letters)),
        range(len(prefix_letters), len(letters)),
    )
    return s, lasso


def random_total_structure(rng, nworlds, names=("p", "q")):
    worlds = ["w%d" % i for i in range(nworlds)]
    edges = []
    for a in worlds:
        succs = rng.sample(worlds, rng.randint(1, nworlds))
        edges.extend((a, b) for b in succs)
    labels = {w: [n for n in names if rng.random() < 0.5] for w in worlds}
    return KripkeStructure(worlds, edges, labels, "w0")


def eval_nnf(s, lasso, f):
    """Independent evaluation of normal-form formulas, Release included."""
    length = len(lasso.positions())
    loop = len(lasso.prefix)

    def nxt(i):
        return i + 1 if i + 1 < length else loop

    def run(node):
        if isinstance(node, Prop):
            return [node.name in s.labels[w] for w in lasso.positions()]
        if isinstance(node, Top):
            return [True] * length
        if isinstance(node, Bottom):
            return [False] * length
        if isinstance(node, Not):
            return [not v for v in run(node.arg)]
        if isinstance(node, And):
            return [a and b for a, b in zip(run(node.left), run(node.right))]
        if isinstance(node, Or):
            return [a or b for a, b in zip(run(node.left), run(node.right))]
        if isinstance(node, Next):
            a = run(node.arg)
            return [a[nxt(i)] for i in range(length)]
        if isinstance(node, Finally):
            a = run(node.arg)
            cur = [False] * length
            for _ in range(length + 1):
                cur = [a[i] or cur[nxt(i)] for i in range(length)]
            return cur
        if isinstance(node, Globally):
            a = run(node.arg)
            cur = [True] * length
            for _ in range(length + 1):
                cur = [a[i] and cur[nxt(i)] for i in range(length)]
            return cur
        if isinstance(node, Until):
            a, b = run(node.left), run(node.right)
            cur = [False] * length
            for _ in range(length + 1):
                cur = [b[i] or (a[i] and cur[nxt(i)]) for i in range(length)]
            return cur
        if isinstance(node, Release):
            a, b = run(node.left), run(node.right)
            cur = [True] * length
            for _ in range(length + 1):
                cur = [b[i] and (a[i] or cur[nxt(i)]) for i in range(length)]
            return cur
        raise TypeError(node)

    return run(f)[0]


class TestNormalForm:
    def test_shape(self):
        rng = random.Random(101)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 12))
            g = to_nnf(f)
            for node in _walk(g):
                assert not isinstance(node, Implies)
                if isinstance(node, Not):
                    assert isinstance(node.arg, Prop)

    def test_preserves_meaning(self):
        rng = random.Random(102)
        for _ in range(300):
            f = random_formula(rng, rng.randint(1, 10))
            s = random_total_structure(rng, rng.randint(1, 3))
            lasso = _random_lasso(rng, s)
            want = eval_on_lasso(s, lasso, f)
            assert eval_nnf(s, lasso, to_nnf(f)) == want

    def test_release_is_until_dual(self):
        f = to_nnf(Not(Until(Prop("p"), Prop("q"))))
        assert isinstance(f, Release)
        assert f.left == Not(Prop("p"))
        assert f.right == Not(Prop("q"))

    def test_deep_nesting(self):
        # nesting far beyond the interpreter's recursion limit
        f = Prop("p")
        for _ in range(10000):
            f = Not(Implies(Prop("q"), Not(f)))
        g = to_nnf(f)
        for _ in range(10000):
            assert g.left == Prop("q")
            g = g.right
        assert g == Prop("p")


def _walk(f):
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.children())
        yield node


def _random_lasso(rng, s):
    walk = [s.init]
    for _ in range(rng.randint(1, 6)):
        walk.append(rng.choice(s.succ[walk[-1]]))
    last = walk[-1]
    starts = [j for j in range(len(walk) - 1) if walk[j] in s.succ[last]]
    if not starts:
        walk.append(rng.choice(s.succ[last]))
        starts = [len(walk) - 1]
    j = rng.choice(starts)
    return Lasso(walk[:j], walk[j:])


def free_states(f):
    """Every (old, next) leaf reachable by free expansion from f's normal
    form, decoded from the compiled tableau's masks into formula sets."""
    t = _Tableau(f)
    initial = _saturate(t, 1 << len(t.subs) - 1, t.bottom)
    states = set(initial)
    stack = list(initial)
    while stack:
        _, nxt = stack.pop()
        for leaf in _saturate(t, nxt, t.bottom):
            if leaf not in states:
                states.add(leaf)
                stack.append(leaf)
    # true sits in every state's old; the invariants never look it up there
    decode = lambda mask: frozenset(t.subs[i] for i in _ids(mask))
    leaf = lambda pair: (decode(pair[0] & ~t.top), decode(pair[1]))
    return [leaf(p) for p in initial], {leaf(p) for p in states}


class TestStateInvariants:
    def present(self, x, old):
        return isinstance(x, Top) or x in old

    def check(self, states):
        for old, nxt in states:
            for f in old:
                if isinstance(f, Prop):
                    assert Not(f) not in old
                elif isinstance(f, Not):
                    assert f.arg not in old
                elif isinstance(f, And):
                    assert self.present(f.left, old) and self.present(f.right, old)
                elif isinstance(f, Or):
                    assert self.present(f.left, old) or self.present(f.right, old)
                elif isinstance(f, Next):
                    assert f.arg in nxt
                elif isinstance(f, Until):
                    assert self.present(f.right, old) or (
                        self.present(f.left, old) and f in nxt
                    )
                elif isinstance(f, Release):
                    assert self.present(f.right, old) and (
                        self.present(f.left, old) or f in nxt
                    )
                elif isinstance(f, Finally):
                    assert self.present(f.arg, old) or f in nxt
                elif isinstance(f, Globally):
                    assert self.present(f.arg, old) and f in nxt

    def test_random_formulas(self):
        rng = random.Random(103)
        for _ in range(120):
            f = random_formula(rng, rng.randint(1, 9))
            self.check(free_states(f)[1])

    def test_top_single_unconstrained_state(self):
        initial, states = free_states(parse("true"))
        assert initial == [(frozenset(), frozenset())]
        assert states == set(initial)
        assert model_word(parse("true")) == ([], [frozenset()])

    def test_contradiction_empty(self):
        assert free_states(parse("p & !p")) == ([], set())
        assert model_word(parse("p & !p")) is None


class TestLanguage:
    def accepts(self, f, prefix_letters, cycle_letters):
        s, _ = word_structure(prefix_letters, cycle_letters)
        return fused_product_lasso(s, 0, f) is not None

    def all_words(self, total, names=("p",)):
        alphabet = []
        for mask in range(1 << len(names)):
            alphabet.append(frozenset(n for i, n in enumerate(names) if mask >> i & 1))
        for n in range(1, total + 1):
            for cyc in range(1, n + 1):
                pre = n - cyc
                for colors in _tuples(alphabet, n):
                    yield colors[:pre], colors[pre:]

    def test_globally_finally(self):
        f = parse("G F p")
        for pre, cyc in self.all_words(4):
            s, lasso = word_structure(pre, cyc)
            assert self.accepts(f, pre, cyc) == eval_on_lasso(s, lasso, f)

    def test_random_formula_language(self):
        rng = random.Random(104)
        for _ in range(200):
            f = random_formula(rng, rng.randint(1, 7), names=("p", "q"))
            n = rng.randint(1, 5)
            cyc = rng.randint(1, n)
            letters = [
                frozenset(x for x in ("p", "q") if rng.random() < 0.5)
                for _ in range(n)
            ]
            s, lasso = word_structure(letters[: n - cyc], letters[n - cyc :])
            assert self.accepts(f, letters[: n - cyc], letters[n - cyc :]) == eval_on_lasso(
                s, lasso, f
            )

    def test_model_word_against_small_words(self):
        # a word found over the free world models f; when none is found, no
        # lasso word of at most four letters over {p} does either
        rng = random.Random(107)
        words = list(self.all_words(4))
        for _ in range(150):
            f = random_formula(rng, rng.randint(1, 7), names=("p",))
            found = model_word(f)
            if found is not None:
                s, lasso = word_structure(*found)
                assert eval_on_lasso(s, lasso, f)
            else:
                for pre, cyc in words:
                    s, lasso = word_structure(pre, cyc)
                    assert not eval_on_lasso(s, lasso, f)


def _tuples(alphabet, n):
    if n == 0:
        yield ()
        return
    for rest in _tuples(alphabet, n - 1):
        for a in alphabet:
            yield rest + (a,)


BRUTE_BOUND = 6


class TestProducts:
    def test_fused_agrees_with_brute(self):
        # independent of the tableau: a returned lasso is a path of s that
        # satisfies f, and when none is returned brute force finds no lasso
        # of at most BRUTE_BOUND worlds satisfying f
        rng = random.Random(105)
        for _ in range(400):
            f = random_formula(rng, rng.randint(1, 8))
            s = random_total_structure(rng, rng.randint(1, 4))
            fused = fused_product_lasso(s, s.init, f)
            if fused is not None:
                lasso = Lasso(fused[0], fused[1])
                validate_lasso(s, lasso)
                assert eval_on_lasso(s, lasso, f)
            else:
                assert brute_mc(McInstance(s, s.init, Not(f)), BRUTE_BOUND)

    def test_counterexample_duality(self):
        # a path satisfies !f exactly when it does not satisfy f; the fused
        # product for !f must therefore be empty iff every lasso satisfies f
        rng = random.Random(106)
        for _ in range(60):
            f = random_formula(rng, rng.randint(1, 5), names=("p",))
            s = random_total_structure(rng, rng.randint(1, 2), names=("p",))
            found = fused_product_lasso(s, s.init, Not(f))
            holds_everywhere = all(
                eval_on_lasso(s, lasso, f) for lasso in _small_lassos(s, 6)
            )
            if found is not None:
                assert not eval_on_lasso(s, Lasso(found[0], found[1]), f)
            else:
                assert holds_everywhere


def reference_accepting(succ, initial, masks, full):
    """Plain reference for the search: is some reachable strongly connected
    component with a cycle (more than one node, or a self-loop) covered?"""
    def reach(sources):
        seen = set(sources)
        stack = list(sources)
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    after = {v: reach([v]) for v in succ}
    for v in reach(initial):
        comp = {u for u in after[v] if v in after[u]}
        union = 0
        for u in comp:
            union |= masks[u]
        if (len(comp) > 1 or v in succ[v]) and union & full == full:
            return True
    return False


def random_explicit_graph(rng):
    n = rng.randint(1, 9)
    nsets = rng.randint(0, 3)
    full = (1 << nsets) - 1
    forward = rng.random() < 0.4  # mostly trivial components
    density = rng.choice((0.1, 0.25, 0.5))
    succ = {}
    for v in range(n):
        succ[v] = [w for w in range(n)
                   if (w > v or not forward or rng.random() < 0.1)
                   and rng.random() < density]
    masks = {v: rng.choice((0, full, rng.randint(0, full))) for v in succ}
    initial = rng.sample(range(n), rng.randint(1, min(3, n)))
    return succ, initial, masks, full


def check_lasso(succ, initial, masks, full, found):
    prefix, cycle = found
    assert cycle, found
    walk = prefix + cycle + cycle[:1]
    assert walk[0] in initial
    for a, b in zip(walk, walk[1:]):
        assert b in succ[a], (a, b, found)
    union = 0
    for v in cycle:
        union |= masks[v]
    assert union & full == full, found


class TestEmptinessSearch:
    def test_against_full_scc_reference(self):
        rng = random.Random(108)
        seen = {"found": 0, "none": 0, "trivial_full": 0, "unreached": 0}
        for _ in range(3000):
            succ, initial, masks, full = random_explicit_graph(rng)
            found = find_accepting_lasso(succ, initial, masks.__getitem__, full)
            expected = reference_accepting(succ, initial, masks, full)
            assert (found is not None) == expected, (succ, initial, masks, full)
            if found is not None:
                check_lasso(succ, initial, masks, full, found)
                seen["found"] += 1
            else:
                seen["none"] += 1
                if any(masks[v] & full == full and v not in succ[v] for v in succ):
                    seen["trivial_full"] += 1
                if reference_accepting(succ, list(succ), masks, full):
                    seen["unreached"] += 1
        assert min(seen.values()) >= 100, seen

    def test_trivial_components_are_not_reported(self):
        succ = {0: [1], 1: [2], 2: []}
        masks = {0: 3, 1: 3, 2: 3}
        assert find_accepting_lasso(succ, [0], masks.__getitem__, 3) is None
        succ[2] = [2]
        found = find_accepting_lasso(succ, [0], masks.__getitem__, 3)
        assert found == ([0, 1], [2])

    def test_unreachable_cycle_and_second_initial(self):
        # the accepting cycle 3 <-> 4 is reached only from the second start
        succ = {0: [1], 1: [], 2: [3], 3: [4], 4: [3]}
        masks = {0: 1, 1: 1, 2: 0, 3: 0, 4: 1}
        assert find_accepting_lasso(succ, [0], masks.__getitem__, 1) is None
        found = find_accepting_lasso(succ, [0, 2], masks.__getitem__, 1)
        check_lasso(succ, [0, 2], masks, 1, found)
        assert found[0] == [2]

    def test_merged_masks_cover_the_sets(self):
        # neither cycle through 0 meets both sets alone; the component does
        succ = {0: [1, 2], 1: [0], 2: [0]}
        masks = {0: 0, 1: 1, 2: 2}
        found = find_accepting_lasso(succ, [0], masks.__getitem__, 3)
        check_lasso(succ, [0], masks, 3, found)

    def test_stops_at_first_counterexample(self, monkeypatch):
        # a counterexample loops at the start world; a chain of `tail`
        # worlds hangs off it, all labelled p alone, so the full product
        # spans them all
        tail = 300
        names = ["s"] + ["t%d" % i for i in range(tail)]
        edges = [("s", "s"), ("s", "t0"), ("t%d" % (tail - 1), "t%d" % (tail - 1))]
        edges += [("t%d" % i, "t%d" % (i + 1)) for i in range(tail - 1)]
        s = KripkeStructure(names, edges, {w: ["p"] for w in names}, "s")
        explored = []
        original = buchi.find_accepting_lasso

        def counting(succ, *rest):
            found = original(succ, *rest)
            explored.append(len(succ))
            return found

        monkeypatch.setattr(buchi, "find_accepting_lasso", counting)
        cex = mc_counterexample(McInstance(s, "s", parse("G F q")))
        assert cex is not None and set(cex.prefix + cex.cycle) == {0}
        assert len(explored) == 1 and explored[0] < tail // 10
        # the same counter reads the whole tail when nothing is found
        assert mc_counterexample(McInstance(s, "s", parse("G p"))) is None
        assert explored[1] > tail


def _small_lassos(s, bound):
    out = []
    stack = [[s.init]]
    while stack:
        walk = stack.pop()
        last = walk[-1]
        for j in range(len(walk)):
            if walk[j] in s.succ[last]:
                out.append(Lasso(walk[:j], walk[j:]))
        if len(walk) < bound:
            for w in s.succ[last]:
                stack.append(walk + [w])
    return out
