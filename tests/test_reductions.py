"""Fragment encodings: depth and width certificates, oracle agreement."""

import itertools
import random

import pytest

from ltlwb import And, Not, Or, Prop, conj
from ltlwb.checker import McInstance, mc_universal, sat
from ltlwb.formula import fragment_of, nvar, temporal_depth
from ltlwb.graphs import check_decomposition, width
from ltlwb.instances import (
    Cnf3,
    PwSatInstance,
    RectTilingInstance,
    SquareTilingInstance,
)
from ltlwb.kripke import branching_degree, validate_structure
from ltlwb.oracles import (
    solve_cnf,
    solve_pwsat,
    solve_rect_tiling,
    solve_square_tiling,
)
from ltlwb.reductions import (
    RECT_U_WIDTH,
    RECT_XF_WIDTH,
    drop_conjunct,
    reduce_3sat_to_mc,
    reduce_pwsat_to_sat,
    reduce_recttiling_to_mc_u,
    reduce_recttiling_to_mc_xf,
    reduce_sqtiling_to_mc_t,
    reduce_sqtiling_to_mc_x,
)


def check_output(out):
    """Structural sanity shared by every family."""
    bad = check_decomposition(out.witness_graph, out.witness)
    assert bad == []
    assert out.certificates["width"] == width(out.witness)
    emitted = out.formula if out.formula is not None else out.mc.formula
    assert out.certificates["td"] == temporal_depth(emitted)
    assert out.certificates["nvar"] == nvar(emitted)
    if out.mc is not None:
        assert validate_structure(out.mc.structure) == []
        assert out.certificates["delta"] == branching_degree(out.mc.structure)


class TestDropConjunct:
    def test_top_level_and_drops_left(self):
        f = And(Prop("a"), Prop("b"))
        assert drop_conjunct(f) == Prop("b")

    def test_left_nested_chain_drops_first(self):
        f = And(And(Prop("a"), Prop("b")), Prop("c"))
        assert drop_conjunct(f) == And(Prop("b"), Prop("c"))

    def test_descends_negation(self):
        f = Not(And(Prop("a"), Prop("b")))
        assert drop_conjunct(f) == Not(Prop("b"))

    def test_descends_last_disjunct(self):
        f = Or(Prop("a"), And(Prop("b"), Prop("c")))
        assert drop_conjunct(f) == Or(Prop("a"), Prop("c"))

    def test_no_conjunct_raises(self):
        with pytest.raises(ValueError):
            drop_conjunct(Prop("a"))

    def test_deep_conjunction(self):
        props = [Prop("p%d" % i) for i in range(10000)]
        assert drop_conjunct(conj(props)) == conj(props[1:])

    def test_deep_negation(self):
        f, want = And(Prop("a"), Prop("b")), Prop("b")
        for _ in range(10000):
            f, want = Not(f), Not(want)
        assert drop_conjunct(f) == want


class TestPwSatReduction:
    def example(self, capacity):
        return PwSatInstance(
            2, [(1, -2), (-1, 2)], [(1, 2)], [capacity]
        )

    def test_depth_three_and_fragment(self):
        out = reduce_pwsat_to_sat(self.example(1), {"F", "G"})
        assert temporal_depth(out.formula) == 3
        assert fragment_of(out.formula) <= {"F", "G"}
        check_output(out)

    def test_decision_tracks_capacity(self):
        # clauses force q1 == q2, so exactly capacity 0 or 2 admit a model
        for capacity, expect in ((0, True), (1, False), (2, True)):
            out = reduce_pwsat_to_sat(self.example(capacity), {"F", "G"})
            oracle = solve_pwsat(self.example(capacity))
            assert (oracle is not None) == expect
            assert (sat(out.formula) is not None) == expect

    def test_until_rewrite_same_decision(self):
        for capacity in (0, 1, 2):
            out = reduce_pwsat_to_sat(self.example(capacity), {"U"})
            assert fragment_of(out.formula) <= {"U"}
            assert temporal_depth(out.formula) == 3
            check_output(out)
            oracle = solve_pwsat(self.example(capacity))
            assert (sat(out.formula) is not None) == (oracle is not None)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            reduce_pwsat_to_sat(self.example(1), set())
        with pytest.raises(ValueError):
            reduce_pwsat_to_sat(self.example(1), {"Z"})

    def test_two_block_sweep_agrees(self):
        inst5 = lambda c1, c2: PwSatInstance(
            3, [(1, 2, -3), (-1, -2, 3)], [(1, 3), (2,)], [c1, c2]
        )
        for c1 in range(3):
            for c2 in range(2):
                inst = inst5(c1, c2)
                out = reduce_pwsat_to_sat(inst, {"F", "G"})
                assert (sat(out.formula) is not None) == (
                    solve_pwsat(inst) is not None
                )

    def test_mutation_flips_an_instance(self):
        inst = self.example(0)
        out = reduce_pwsat_to_sat(inst, {"F", "G"})
        assert sat(out.formula) is not None
        assert sat(drop_conjunct(out.formula)) is not None
        broken = self.example(1)
        out = reduce_pwsat_to_sat(broken, {"F", "G"})
        # dropping the first clause of the embedded CNF frees a model
        assert sat(out.formula) is None
        assert sat(drop_conjunct(out.formula)) is not None


class TestCnfReduction:
    def test_satisfiable_example(self):
        c = Cnf3(2, [(1, -2, 1)])
        for op in "XF":
            out = reduce_3sat_to_mc(c, op)
            check_output(out)
            assert out.certificates["delta"] == 2
            # some assignment works, so not every path shows a flip
            assert mc_universal(out.mc) is False

    def test_contradiction_example(self):
        c = Cnf3(1, [(1, 1, 1), (-1, -1, -1)])
        for op in "XF":
            out = reduce_3sat_to_mc(c, op)
            assert mc_universal(out.mc) is True

    def test_fragments_and_depth(self):
        c = Cnf3(3, [(1, -2, 3), (2, 3, -1)])
        out_f = reduce_3sat_to_mc(c, "F")
        assert fragment_of(out_f.mc.formula) <= {"F"}
        assert temporal_depth(out_f.mc.formula) == 1
        out_x = reduce_3sat_to_mc(c, "X")
        assert fragment_of(out_x.mc.formula) <= {"X"}
        assert temporal_depth(out_x.mc.formula) == 3

    def test_repeated_deep_literal(self):
        # variable 400 sits under 400 X's in both clauses; the emitted
        # formula compares equal deep subtrees while it is built
        out = reduce_3sat_to_mc(Cnf3(400, [(400, 1, 2), (400, 3, 4)]), "X")
        check_output(out)
        assert out.certificates["td"] == 400

    def test_witness_width_stays_small(self):
        for n in (1, 5, 20, 50):
            c = Cnf3(n, [(1, -n, n), (-1, 2 if n > 1 else 1, -1)])
            for op in "XF":
                out = reduce_3sat_to_mc(c, op)
                check_output(out)
                assert width(out.witness) <= 3

    def test_exhaustive_one_clause_agrees(self):
        lits = [1, -1, 2, -2]
        for slots in itertools.product(lits, repeat=3):
            c = Cnf3(2, [slots])
            expect_unsat = solve_cnf(c.clauses, c.nvars) is None
            for op in "XF":
                out = reduce_3sat_to_mc(c, op)
                assert mc_universal(out.mc) == expect_unsat

    def test_mutation_flips_an_instance(self):
        # dropping a conjunct weakens the emitted formula, so the flip is
        # always no-flip -> flip; the unique model (T,T) escapes the
        # original but the gutted last clause covers it
        c = Cnf3(2, [(1, 1, 1), (2, -1, -1)])
        assert solve_cnf(c.clauses, c.nvars) is not None
        for op in "XF":
            out = reduce_3sat_to_mc(c, op)
            assert mc_universal(out.mc) is False
            mutated = McInstance(
                out.mc.structure, out.mc.world, drop_conjunct(out.mc.formula)
            )
            assert mc_universal(mutated) is True


class TestSquareReduction:
    def two_tiles(self):
        return SquareTilingInstance(
            ("a", "b"), (("a", "b", "a", "a"), ("b", "a", "a", "a")), 2
        )

    def test_x_depth_law_and_width(self):
        for k in (1, 2, 3):
            t = SquareTilingInstance(("a",), (("a", "a", "a", "a"),), k)
            out = reduce_sqtiling_to_mc_x(t)
            check_output(out)
            assert temporal_depth(out.mc.formula) == k * k + k
            assert width(out.witness) <= 2 * k * k + k + 15
            assert fragment_of(out.mc.formula) <= {"X"}

    def test_temporal_fragments_exact(self):
        t = self.two_tiles()
        for op in "FGU":
            out = reduce_sqtiling_to_mc_t(t, op)
            check_output(out)
            assert fragment_of(out.mc.formula) == {op}
            assert temporal_depth(out.mc.formula) == 2

    def test_uniform_tile_is_tileable(self):
        t = SquareTilingInstance(("a",), (("a", "a", "a", "a"),), 2)
        assert solve_square_tiling(t) is not None
        for op in "XFGU":
            out = (
                reduce_sqtiling_to_mc_x(t)
                if op == "X"
                else reduce_sqtiling_to_mc_t(t, op)
            )
            assert mc_universal(out.mc) is False

    def test_mismatched_tile_is_not(self):
        t = SquareTilingInstance(("a", "b"), (("a", "b", "a", "a"),), 2)
        assert solve_square_tiling(t) is None
        for op in "XFGU":
            out = (
                reduce_sqtiling_to_mc_x(t)
                if op == "X"
                else reduce_sqtiling_to_mc_t(t, op)
            )
            assert mc_universal(out.mc) is True

    def test_exhaustive_single_tiles_k2(self):
        colors = ("a", "b")
        for tile in itertools.product(colors, repeat=4):
            t = SquareTilingInstance(colors, (tile,), 2)
            expect = solve_square_tiling(t) is None
            for op in "XFGU":
                out = (
                    reduce_sqtiling_to_mc_x(t)
                    if op == "X"
                    else reduce_sqtiling_to_mc_t(t, op)
                )
                assert mc_universal(out.mc) == expect, (tile, op)

    def test_mutation_flips_an_instance(self):
        # untileable pair whose only conflict shows at the first cell, so
        # dropping that cell's block lets a path through
        t = SquareTilingInstance(
            ("a", "b"), (("a", "b", "a", "b"), ("b", "b", "b", "a")), 2
        )
        assert solve_square_tiling(t) is None
        for op in "XFGU":
            out = (
                reduce_sqtiling_to_mc_x(t)
                if op == "X"
                else reduce_sqtiling_to_mc_t(t, op)
            )
            assert mc_universal(out.mc) is True
            mutated = McInstance(
                out.mc.structure, out.mc.world, drop_conjunct(out.mc.formula)
            )
            assert mc_universal(mutated) is False, op


class TestRectReduction:
    def chain(self):
        # 'a' on the left column forces alternation that dies at the border
        return RectTilingInstance(
            ("a", "b"),
            (("a", "b", "a", "b"), ("b", "a", "b", "a")),
            "a",
            "b",
        )

    def test_xf_certificates(self):
        t = self.chain()
        out = reduce_recttiling_to_mc_xf(t)
        check_output(out)
        assert fragment_of(out.mc.formula) <= {"X", "F"}
        assert temporal_depth(out.mc.formula) == t.n + 3
        assert width(out.witness) == RECT_XF_WIDTH

    def test_u_certificates(self):
        t = self.chain()
        out = reduce_recttiling_to_mc_u(t)
        check_output(out)
        assert fragment_of(out.mc.formula) == {"U"}
        assert temporal_depth(out.mc.formula) == 3
        assert width(out.witness) == RECT_U_WIDTH

    def test_widths_constant_across_sizes(self):
        rng = random.Random(7)
        for ncolors in (1, 2, 3):
            colors = tuple("abc"[:ncolors])
            for nd in (1, 2, 3):
                tiles = tuple(
                    tuple(rng.choice(colors) for _ in range(4))
                    for _ in range(nd)
                )
                t = RectTilingInstance(colors, tiles, colors[0], colors[-1])
                out = reduce_recttiling_to_mc_xf(t)
                assert width(out.witness) == RECT_XF_WIDTH, (ncolors, nd)
                assert temporal_depth(out.mc.formula) == nd + 3
                out = reduce_recttiling_to_mc_u(t)
                assert width(out.witness) == RECT_U_WIDTH, (ncolors, nd)
                assert temporal_depth(out.mc.formula) == 3

    def test_decisions_agree_small(self):
        colors = ("a", "b")
        sides = list(itertools.product(colors, repeat=4))
        rng = random.Random(3)
        picks = [
            (rng.choice(sides), rng.choice(sides)) for _ in range(6)
        ] + [(s,) for s in sides[:4]]
        for combo in picks:
            t = RectTilingInstance(colors, combo, "a", "b")
            expect = solve_rect_tiling(t) is None
            assert mc_universal(reduce_recttiling_to_mc_u(t).mc) == expect
            assert mc_universal(reduce_recttiling_to_mc_xf(t).mc) == expect

    def test_mutation_flips_an_instance(self):
        # the top border is the only obstruction, and the mutation drops
        # exactly the top-border conjunct
        t = RectTilingInstance(
            ("a", "b"), (("a", "a", "a", "a"),), "b", "a"
        )
        assert solve_rect_tiling(t) is None
        for reducer in (reduce_recttiling_to_mc_xf, reduce_recttiling_to_mc_u):
            out = reducer(t)
            assert mc_universal(out.mc) is True
            mutated = McInstance(
                out.mc.structure, out.mc.world, drop_conjunct(out.mc.formula)
            )
            assert mc_universal(mutated) is False
