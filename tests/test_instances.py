"""Instance types, invariants, and their text formats."""

import pytest

from ltlwb.formula import format_formula
from ltlwb.instances import (
    Cnf3,
    InstanceFormatError,
    PwSatInstance,
    RectTilingInstance,
    SquareTilingInstance,
    cnf_formula,
    parse_cnf3,
    parse_pwsat,
    parse_rect_tiling,
    parse_square_tiling,
)


class TestCnf3:
    def test_round_trip(self):
        c = Cnf3(3, [(1, -2, 3), (2, 2, 2)])
        assert parse_cnf3("p cnf 3 2\n1 -2 3 0\n2 2 2 0\n") == c

    def test_format_is_dimacs(self):
        assert parse_cnf3("p cnf 2 1\n1 -2 1 0\n") == Cnf3(2, [(1, -2, 1)])

    def test_clause_width_enforced(self):
        with pytest.raises(InstanceFormatError):
            Cnf3(2, [(1, -2)])

    def test_variable_range_enforced(self):
        with pytest.raises(InstanceFormatError):
            Cnf3(2, [(1, -3, 2)])

    def test_header_count_must_match(self):
        with pytest.raises(InstanceFormatError):
            parse_cnf3("p cnf 2 2\n1 -2 1 0\n")

    def test_clause_before_header_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_cnf3("1 -2 1 0\np cnf 2 1\n")

    def test_comments_ignored(self):
        c = parse_cnf3("c a comment\np cnf 1 1\n1 1 1 0\n")
        assert c.clauses == ((1, 1, 1),)


class TestPwSat:
    def test_round_trip(self):
        i = PwSatInstance(3, [(1, 2), (-3,)], [(1, 2), (3,)], [1, 0])
        text = "p cnf 3 2\n1 2 0\n-3 0\npartition 1 1 2\npartition 2 3\ncapacity 1 1\ncapacity 2 0\n"
        assert parse_pwsat(text) == i

    def test_format(self):
        i = PwSatInstance(2, [(1, -2)], [(2, 1)], [1])
        assert parse_pwsat("p cnf 2 1\n1 -2 0\npartition 1 1 2\ncapacity 1 1\n") == i

    def test_partitions_sorted(self):
        i = PwSatInstance(2, [(1,)], [(2, 1)], [0])
        assert i.partitions == ((1, 2),)

    def test_overlap_rejected(self):
        with pytest.raises(InstanceFormatError):
            PwSatInstance(2, [(1,)], [(1, 2), (2,)], [1, 1])

    def test_cover_required(self):
        with pytest.raises(InstanceFormatError):
            PwSatInstance(3, [(1,)], [(1, 2)], [1])

    def test_capacity_bounds(self):
        with pytest.raises(InstanceFormatError):
            PwSatInstance(2, [(1,)], [(1, 2)], [3])
        with pytest.raises(InstanceFormatError):
            PwSatInstance(2, [(1,)], [(1, 2)], [-1])

    def test_partition_of(self):
        i = PwSatInstance(3, [(1,)], [(1, 3), (2,)], [1, 0])
        assert i.partition_of(1) == 1
        assert i.partition_of(3) == 1
        assert i.partition_of(2) == 2

    def test_parse_gap_rejected(self):
        text = "p cnf 2 1\n1 0\npartition 1 1\npartition 3 2\ncapacity 1 0\ncapacity 3 0\n"
        with pytest.raises(InstanceFormatError):
            parse_pwsat(text)


class TestTilings:
    def test_square_round_trip(self):
        t = SquareTilingInstance(("a", "b"), [("a", "b", "a", "a")], 3)
        assert parse_square_tiling("colors a b\ntile a b a a\nk 111\n") == t

    def test_square_format_unary(self):
        t = SquareTilingInstance(("a",), [("a", "a", "a", "a")], 4)
        assert parse_square_tiling("colors a\ntile a a a a\nk 1111\n") == t

    def test_rect_round_trip(self):
        t = RectTilingInstance(("a", "b"), [("a", "b", "b", "b"), ("b", "a", "b", "b")], "a", "a")
        assert parse_rect_tiling("colors a b\ntile a b b b\ntile b a b b\nbounds a a\n") == t

    def test_unknown_tile_color(self):
        with pytest.raises(InstanceFormatError):
            SquareTilingInstance(("a",), [("a", "b", "a", "a")], 2)

    def test_side_length_positive(self):
        with pytest.raises(InstanceFormatError):
            SquareTilingInstance(("a",), [("a", "a", "a", "a")], 0)

    def test_boundary_color_declared(self):
        with pytest.raises(InstanceFormatError):
            RectTilingInstance(("a",), [("a", "a", "a", "a")], "a", "b")

    def test_unary_digits_enforced(self):
        with pytest.raises(InstanceFormatError):
            parse_square_tiling("colors a\ntile a a a a\nk 12\n")

    def test_bounds_and_k_exclusive(self):
        with pytest.raises(InstanceFormatError):
            parse_square_tiling("colors a\ntile a a a a\nk 11\nbounds a a\n")
        with pytest.raises(InstanceFormatError):
            parse_rect_tiling("colors a\ntile a a a a\nbounds a a\nk 11\n")

    def test_rect_width_is_tile_count(self):
        t = RectTilingInstance(("a",), [("a", "a", "a", "a")] * 3, "a", "a")
        assert t.n == 3


class TestCnfFormula:
    def test_single_clause(self):
        assert format_formula(cnf_formula([(1, -2)])) == "q_1 | !q_2"

    def test_conjunction_and_prefix(self):
        f = cnf_formula([(1,), (-1,)], prefix="x")
        assert format_formula(f) == "x_1 & !x_1"

    def test_duplicate_literals_preserved(self):
        f = cnf_formula([(2, 2, 2)])
        assert format_formula(f) == "q_2 | q_2 | q_2"
