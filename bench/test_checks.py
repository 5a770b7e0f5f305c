"""Hand-made cases with known answers for the benchmark's own checkers.

Run with `python3 bench/test_checks.py` from the repository root, or with
pytest naming this file.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from ltlwb.formula import And, Finally, Globally, Next, Not, Prop, Until  # noqa: E402


def test_square_tileable():
    assert checks.square_tileable([("a", "a", "a", "a")], 3)
    # down b never meets up a: one row only
    assert checks.square_tileable([("a", "b", "a", "a")], 1)
    assert not checks.square_tileable([("a", "b", "a", "a")], 2)
    # columns alternate the two tiles
    assert checks.square_tileable([("a", "b", "a", "a"), ("b", "a", "a", "a")], 3)
    # rows alternate the two tiles
    assert checks.square_tileable([("a", "a", "a", "b"), ("a", "a", "b", "a")], 2)
    # right b never meets left a: one column only
    assert not checks.square_tileable([("a", "a", "a", "b")], 2)


def test_rect_tileable():
    assert checks.rect_tileable([("a", "a", "a", "a")], "a", "a")
    assert not checks.rect_tileable([("a", "a", "a", "a")], "b", "a")
    tiles = [("b", "c", "a", "a"), ("c", "a", "a", "a")]
    assert checks.rect_tileable(tiles, "b", "a")  # rows (0,0) then (1,1)
    assert checks.rect_tileable(tiles, "b", "c")  # row (0,0) alone
    assert not checks.rect_tileable(tiles, "b", "b")
    # the only start row cannot continue and is no end row
    assert not checks.rect_tileable([("a", "b", "a", "a"), ("c", "c", "a", "a")], "a", "c")


def test_pwsat_satisfiable():
    assert not checks.pwsat_satisfiable(2, [(1, 1, 1)], [(1, 2)], [0])
    assert checks.pwsat_satisfiable(2, [(1, 1, 1)], [(1, 2)], [1])
    clauses = [(1, 2, 2), (-1, -1, -1)]
    assert checks.pwsat_satisfiable(2, clauses, [(1,), (2,)], [0, 1])
    assert not checks.pwsat_satisfiable(2, clauses, [(1,), (2,)], [1, 0])
    assert not checks.pwsat_satisfiable(3, [(1, 2, 3)], [(1, 2, 3)], [0])


def test_path_decomposition_problems():
    vs, es = ["a", "b", "c"], [("a", "b"), ("b", "c")]
    chain = [(0, 1)]
    assert checks.path_decomposition_problems(vs, es, [{"a", "b"}, {"b", "c"}], chain) == []
    assert checks.bag_width([{"a", "b"}, {"b", "c"}]) == 1
    gap = [{"a", "b"}, {"c"}, {"b", "c"}]
    assert checks.path_decomposition_problems(vs, es, gap, [(0, 1), (1, 2)]) == [
        "bags holding b are not consecutive"
    ]
    assert checks.path_decomposition_problems(vs, es, [{"a"}, {"b", "c"}], chain) == [
        "edge a b in no bag"
    ]
    assert checks.path_decomposition_problems(vs, es, [{"a", "b"}, {"c"}], chain) == [
        "edge b c in no bag"
    ]
    assert checks.path_decomposition_problems(vs, es, [{"a", "b", "c", "d"}], []) == [
        "bag 0 holds unknown vertex d"
    ]
    star = [{"b"}, {"a", "b"}, {"b", "c"}]
    assert checks.path_decomposition_problems(vs, es, star, [(0, 1), (0, 2)]) == [
        "links are not the chain of consecutive bags"
    ]
    assert "vertex c in no bag" in checks.path_decomposition_problems(
        vs, [("a", "b")], [{"a", "b"}], []
    )


def test_formula_measures():
    p, q = Prop("p"), Prop("q")
    assert checks.formula_measures(p) == (0, 1, 1)
    assert checks.formula_measures(Next(Finally(p))) == (2, 1, 3)
    assert checks.formula_measures(And(Until(p, q), Globally(p))) == (1, 2, 6)
    assert checks.formula_measures(Next(Until(p, Next(q)))) == (3, 2, 5)
    assert checks.formula_measures(Not(And(p, Not(p)))) == (0, 1, 5)
    # a shared subtree counts once per occurrence in the node total
    shared = Finally(And(p, q))
    assert checks.formula_measures(And(shared, Next(shared))) == (2, 2, 10)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
