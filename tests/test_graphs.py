"""Syntax graphs, decompositions, and width computation."""

import random

import pytest

from ltlwb import (
    And,
    Finally,
    Globally,
    Implies,
    Next,
    NotExpressible,
    Or,
    Prop,
    Until,
    fragment_of,
    nvar,
    parse,
    rewrite_fragment,
    subformulas,
    temporal_depth,
)
from ltlwb import graphs
from ltlwb.buchi import Release, to_nnf
from ltlwb.checker import until_top_to_finally
from ltlwb.graphs import (
    Decomposition,
    Graph,
    check_decomposition,
    exact_pathwidth,
    exact_treewidth,
    format_decomposition,
    minfill_upper,
    syntax_graph,
    width,
)

from helpers import random_formula


_REFERENCE_OPS = {Next: "X", Finally: "F", Globally: "G", Until: "U", Release: "U"}


def reference_measures(f):
    """Temporal depth and temporal operator set of f, by a walk over its
    subformulas that reads neither node field."""
    table = {}
    for node in subformulas(f):
        kids = [table[c] for c in node.children()]
        depth = max((d for d, _ in kids), default=0)
        ops = frozenset().union(*(o for _, o in kids))
        op = _REFERENCE_OPS.get(type(node))
        table[node] = (depth + 1, ops | {op}) if op else (depth, ops)
    return table[f]


def _assert_node_measures(f):
    for node in subformulas(f):
        depth, ops = reference_measures(node)
        assert node.td == temporal_depth(node) == depth, node
        assert fragment_of(node) == ops, node


def path_graph(n):
    return Graph(
        [("v%d" % i, "x") for i in range(n)],
        [("v%d" % i, "v%d" % (i + 1)) for i in range(n - 1)],
    )


def complete_graph(n):
    return Graph(
        [("v%d" % i, "x") for i in range(n)],
        [("v%d" % i, "v%d" % j) for i in range(n) for j in range(i + 1, n)],
    )


def cycle_graph(n):
    return Graph(
        [("v%d" % i, "x") for i in range(n)],
        [("v%d" % i, "v%d" % ((i + 1) % n)) for i in range(n)],
    )


def random_graph(rng, n, p=0.4):
    edges = [
        ("v%d" % i, "v%d" % j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph([("v%d" % i, "x") for i in range(n)], edges)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph([("a", "x")], [("a", "a")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            Graph([("a", "x")], [("a", "b")])

    def test_duplicate_edges_collapse(self):
        g = Graph([("a", "x"), ("b", "x")], [("a", "b"), ("b", "a")])
        assert len(g.edges) == 1


class TestSyntaxGraph:
    def test_repeated_proposition_merges(self):
        g = syntax_graph(parse("p & p"))
        assert len(g) == 2
        assert len(g.edges) == 1
        assert sorted(g.roles) == ["and", "prop"]

    def test_shared_proposition_makes_cycle(self):
        # or / two ands / p merged / q / r: 6 vertices, 6 edges, one cycle
        g = syntax_graph(parse("(p & q) | (p & r)"))
        assert len(g) == 6
        assert len(g.edges) == 6
        assert g.roles.count("prop") == 3
        tw, dec = exact_treewidth(g)
        assert tw == 2

    def test_proposition_free_formula_is_tree(self):
        g = syntax_graph(parse("G (true U (false & X true)) -> F false"))
        assert len(g.edges) == len(g) - 1
        tw, dec = exact_treewidth(g)
        assert tw == 1
        assert check_decomposition(g, dec) == []

    def test_negated_occurrence_is_distinct_vertex(self):
        g = syntax_graph(parse("p & !p"))
        assert len(g) == 3
        assert sorted(g.roles) == ["and", "not", "prop"]

    def test_derived_connectives_are_nodes(self):
        g = syntax_graph(parse("p -> (q | true)"))
        assert sorted(g.roles) == ["implies", "or", "prop", "prop", "true"]

    def test_preorder_names_at_paths(self):
        g = syntax_graph(parse("(p U !q) & p"))
        assert g.at == {(): "@0", (0,): "@1", (0, 0): "p", (0, 1): "@2",
                        (0, 1, 0): "q", (1,): "p"}

    def test_one_walk_names_places_and_measures(self):
        # reductions place witness vertices by g.at and certify nvar from
        # the same walk, which counts a reused subformula object twice; td
        # and the fragment are the fields of the formula's own nodes
        rng = random.Random(229)
        for i in range(2000):
            f = random_formula(rng, rng.randint(1, 14), ops="XFGU")
            if i % 3 == 0:
                f = rng.choice([And, Or, Until, lambda a, b: Implies(a, Next(b))])(f, f)
            _assert_node_measures(f)
            g = syntax_graph(f)
            assert g.roles.count("prop") == nvar(f)
            assert set(g.at.values()) == set(g.names)
            role = dict(zip(g.names, g.roles))
            for path, name in g.at.items():
                node = f
                for c in path:
                    node = node.children()[c]
                if isinstance(node, Prop):
                    assert name == node.name and role[name] == "prop"
                else:
                    assert name.startswith("@") and role[name] != "prop"
            adjacent = {frozenset((g.names[a], g.names[b])) for a, b in g.edges}
            assert adjacent == {frozenset((g.at[p[:-1]], g.at[p])) for p in g.at if p}

    def test_node_measures_of_built_formulas(self):
        # every constructor sets td and opbits: formulas built by the parser,
        # the rewriters and the normal form (with its Release nodes) all agree
        # with the reference walk
        rng = random.Random(331)
        releases = 0
        for _ in range(600):
            f = random_formula(rng, rng.randint(1, 14), ops="XFGU")
            built = [parse(str(f)), to_nnf(f), until_top_to_finally(f)]
            for target in ("FG", "U", "XF", "XU", "G"):
                try:
                    built.append(rewrite_fragment(f, target))
                except NotExpressible:
                    pass
            for g in built:
                _assert_node_measures(g)
            releases += any(isinstance(n, Release) for n in subformulas(built[1]))
            if "U" not in reference_measures(f)[1]:
                assert until_top_to_finally(f) is f
        assert releases > 50


class TestDecomposition:
    def test_single_bag_covers_everything(self):
        g = complete_graph(4)
        d = Decomposition([set(g.names)])
        assert check_decomposition(g, d) == []
        assert width(d) == 3

    def test_path_bags(self):
        g = path_graph(3)
        d = Decomposition([{"v0", "v1"}, {"v1", "v2"}])
        assert check_decomposition(g, d) == []
        assert width(d) == 1
        assert d.links == ((0, 1),)

    def test_edge_cover_violation(self):
        g = Graph(
            [("v0", "x"), ("v1", "x"), ("v2", "x")],
            [("v0", "v1"), ("v1", "v2"), ("v0", "v2")],
        )
        d = Decomposition([{"v0", "v1"}, {"v1", "v2"}])
        assert check_decomposition(g, d) == ["edge v0 v2 not covered"]

    def test_vertex_cover_violation(self):
        g = path_graph(2)
        d = Decomposition([{"v0"}])
        assert "vertex v1 not covered" in check_decomposition(g, d)

    def test_connectivity_violation(self):
        g = path_graph(3)
        d = Decomposition([{"v0", "v1"}, {"v1", "v2"}, {"v0", "v2"}])
        assert any("disconnected" in v for v in check_decomposition(g, d))

    def test_non_tree_links_reported(self):
        g = path_graph(2)
        d = Decomposition([{"v0", "v1"}, {"v0", "v1"}], links=[])
        assert "links do not form a tree" in check_decomposition(g, d)

    def test_width_requires_bags(self):
        with pytest.raises(ValueError):
            width(Decomposition([]))

    def test_matches_reference_checker(self):
        rng = random.Random(233)
        invalid = 0
        for _ in range(1500):
            g = random_graph(rng, rng.randint(1, 7))
            pool = list(g.names)
            if rng.random() < 0.3:
                pool += ["u0", "u1"]
            nbags = rng.randint(1, 6)
            bags = [rng.sample(pool, rng.randint(0, min(4, len(pool)))) for _ in range(nbags)]
            r = rng.random()
            if r < 0.3:
                links = None
            elif r < 0.6:
                links = [(i, rng.randrange(i)) for i in range(1, nbags)]
            else:
                links = [(rng.randrange(nbags), rng.randrange(nbags)) for _ in range(nbags)]
                links = [(i, j) for i, j in links if i != j]
            d = Decomposition(bags, links)
            got = check_decomposition(g, d)
            assert got == _reference_check(g, d)
            invalid += bool(got)
        assert 300 < invalid < 1400


def _reference_check(g, d):
    """Cover, edge cover and a per-vertex search over the bags holding it."""
    out = []
    for i, bag in enumerate(d.bags):
        out.extend("bag %d contains unknown vertex %s" % (i, v) for v in bag if v not in g.names)
    out.extend("vertex %s not covered" % v for v in g.names if not any(v in b for b in d.bags))
    for ia, ib in sorted(g.edges):
        a, b = g.names[ia], g.names[ib]
        if not any(a in bag and b in bag for bag in d.bags):
            out.append("edge %s %s not covered" % (a, b))
    n = len(d.bags)
    if n == 0 or len(d.links) != n - 1 or not _linked(d, set(range(n))):
        return out + ["links do not form a tree"]
    for v in g.names:
        holding = {i for i, bag in enumerate(d.bags) if v in bag}
        if holding and not _linked(d, holding):
            out.append("vertex %s occurs in disconnected bags" % v)
    return out


def _linked(d, targets):
    start = min(targets)
    seen = {start}
    frontier = [start]
    while frontier:
        b = frontier.pop()
        for i, j in d.links:
            for x, y in ((i, j), (j, i)):
                if x == b and y in targets and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen == targets


class TestExactWidths:
    def test_path_pathwidth_one(self):
        pw, dec = exact_pathwidth(path_graph(5))
        assert pw == 1
        assert check_decomposition(path_graph(5), dec) == []
        assert dec.links == tuple((i, i + 1) for i in range(len(dec.bags) - 1))

    def test_complete_graph_widths(self):
        g = complete_graph(4)
        tw, tdec = exact_treewidth(g)
        pw, pdec = exact_pathwidth(g)
        assert tw == 3
        assert pw == 3
        assert check_decomposition(g, tdec) == []
        assert check_decomposition(g, pdec) == []

    def test_cycle_treewidth_two(self):
        tw, dec = exact_treewidth(cycle_graph(4))
        assert tw == 2
        assert check_decomposition(cycle_graph(4), dec) == []

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            exact_treewidth(path_graph(15))
        exact_treewidth(path_graph(15), limit=15)

    def test_pathwidth_bounds_treewidth(self):
        rng = random.Random(211)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 7))
            tw, tdec = exact_treewidth(g)
            pw, pdec = exact_pathwidth(g)
            assert tw <= pw
            assert check_decomposition(g, tdec) == []
            assert check_decomposition(g, pdec) == []
            assert width(tdec) == tw
            assert width(pdec) == pw

    def test_deterministic(self):
        g = random_graph(random.Random(5), 7)
        for exact in (exact_treewidth, exact_pathwidth):
            (w1, d1), (w2, d2) = exact(g), exact(g)
            assert (w1, d1.bags, d1.links) == (w2, d2.bags, d2.links)


class TestMinfill:
    def test_tree_width_one(self):
        g = Graph(
            [("r", "x"), ("a", "x"), ("b", "x"), ("c", "x")],
            [("r", "a"), ("r", "b"), ("b", "c")],
        )
        w, dec = minfill_upper(g)
        assert w == 1
        assert check_decomposition(g, dec) == []

    def test_complete_graph(self):
        w, dec = minfill_upper(complete_graph(5))
        assert w == 4
        assert check_decomposition(complete_graph(5), dec) == []

    def test_never_below_exact(self):
        rng = random.Random(223)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 8))
            w, dec = minfill_upper(g)
            tw, _ = exact_treewidth(g)
            assert w >= tw
            assert check_decomposition(g, dec) == []

    def test_same_order_as_full_rescan(self, monkeypatch):
        # reference: every step recomputes the fill of every alive vertex
        # and takes the lowest index among the minimum
        def reference_order(g):
            adj = [set() for _ in g.names]
            for a, b in g.edges:
                adj[a].add(b)
                adj[b].add(a)
            alive = set(range(len(g)))
            order = []
            while alive:
                best_v = best_fill = None
                for v in sorted(alive):
                    nb = sorted(adj[v] & alive)
                    fill = sum(
                        1 for i, a in enumerate(nb) for b in nb[i + 1 :] if b not in adj[a]
                    )
                    if best_fill is None or fill < best_fill:
                        best_v, best_fill = v, fill
                nb = sorted(adj[best_v] & alive)
                for i, a in enumerate(nb):
                    for b in nb[i + 1 :]:
                        adj[a].add(b)
                        adj[b].add(a)
                alive.remove(best_v)
                order.append(best_v)
            return order

        orders = []

        def record(g, order):
            orders.append(list(order))
            return build(g, order)

        build = graphs._decomposition_from_elimination
        monkeypatch.setattr(graphs, "_decomposition_from_elimination", record)
        rng = random.Random(229)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 24), rng.choice((0.1, 0.25, 0.5, 0.8)))
            if rng.random() < 0.3:
                # a hub joined to every other vertex
                hub = g.names[rng.randrange(len(g))]
                g = Graph(
                    [(v, "x") for v in g.names],
                    [(g.names[a], g.names[b]) for a, b in g.edges]
                    + [(hub, v) for v in g.names if v != hub],
                )
            want = reference_order(g)
            w, dec = minfill_upper(g)
            assert orders.pop() == want
            ref = build(g, want)
            assert (w, format_decomposition(dec)) == (width(ref), format_decomposition(ref))


class TestTextFormats:
    def test_decomposition_golden(self):
        d = Decomposition([{"b", "a"}, {"c", "b"}, set()], [(2, 1), (0, 1)])
        assert format_decomposition(d) == "bag 0 a b\nbag 1 b c\nbag 2\nlink 0 1\nlink 1 2\n"

    def test_decomposition_default_chain(self):
        d = Decomposition([{"a", "b"}, {"b", "c"}, {"c"}])
        assert d.links == ((0, 1), (1, 2))
        assert format_decomposition(d).endswith("link 0 1\nlink 1 2\n")

    def test_decomposition_bad_indices(self):
        with pytest.raises(ValueError):
            Decomposition([{"a"}], [(0, 5)])
        with pytest.raises(ValueError):
            Decomposition([{"a"}, {"b"}], [(1, 1)])
