"""End-to-end coverage of the command-line surface via main(argv)."""

import os
import subprocess
import sys
import time

import pytest

from ltlwb import checker, cli


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SELF_LOOP = "world w0 p\nedge w0 w0\ninit w0\n"


# ---------------------------------------------------------------------------
# analyze

def test_analyze_formula(tmp_path, capsys):
    f = _write(tmp_path, "f.ltl", "F p\n")
    code, out, err = run(["analyze", f], capsys)
    assert code == 0
    assert out.strip() == "td=1 nvar=1 fragment=F tw=1"


def test_analyze_propositional_formula_has_empty_fragment(tmp_path, capsys):
    f = _write(tmp_path, "f.ltl", "p & q\n")
    code, out, err = run(["analyze", f], capsys)
    assert code == 0
    assert "fragment=-" in out
    assert "td=0" in out


def test_analyze_structure(tmp_path, capsys):
    f = _write(tmp_path, "s.kripke", SELF_LOOP)
    code, out, err = run(["analyze", f], capsys)
    assert code == 0
    assert out.strip() == "delta=1 pw<=0"


def test_analyze_large_structure_reports_upper_bound(tmp_path, capsys):
    n = 16
    lines = ["world w%d p" % i for i in range(n)]
    lines += ["edge w%d w%d" % (i, (i + 1) % n) for i in range(n)]
    lines.append("init w0")
    f = _write(tmp_path, "big.kripke", "\n".join(lines) + "\n")
    code, out, err = run(["analyze", f], capsys)
    assert code == 0
    assert "upper-bound" in out
    assert out.startswith("delta=1 pw<=")


def test_analyze_hub_formula(tmp_path, capsys):
    # p is joined to all 2,000 conjunctions of the syntax graph; a min-fill
    # pass that rescans every vertex per step took over a minute here
    n = 2000
    f = _write(tmp_path, "hub.ltl", "(p & " * n + "q" + ")" * n + "\n")
    started = time.perf_counter()
    code, out, err = run(["analyze", f], capsys)
    assert time.perf_counter() - started < 30
    assert code == 0
    assert out == "td=0 nvar=2 fragment=- tw<=2 upper-bound\n"


def test_analyze_deep_hub_formula_memory(tmp_path):
    # nesting depth 10,000: building a child-index path per occurrence
    # along with the syntax graph peaked near 800 MiB, though analyze
    # reads none of them
    n = 10_000
    f = _write(tmp_path, "hub.ltl", "(p & " * n + "q" + ")" * n + "\n")
    probe = (
        "import resource, sys\n"
        "from ltlwb import cli\n"
        "code = cli.main(['analyze', sys.argv[1]])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe, f], capture_output=True,
                          text=True, env=env, timeout=120)
    answer, last = done.stdout.splitlines()
    assert answer == "td=0 nvar=2 fragment=- tw<=2 upper-bound"
    code, peak_kib = map(int, last.split())
    assert code == 0
    assert peak_kib < 200 * 1024


def test_analyze_malformed_input(tmp_path, capsys):
    f = _write(tmp_path, "junk.ltl", "F F (\n")
    code, out, err = run(["analyze", f], capsys)
    assert code == 2
    assert err.strip()


def test_analyze_missing_file(tmp_path, capsys):
    code, out, err = run(["analyze", str(tmp_path / "absent.ltl")], capsys)
    assert code == 2
    assert err.strip()


# ---------------------------------------------------------------------------
# reduce

def test_reduce_3sat_writes_artifacts(tmp_path, capsys):
    f = _write(tmp_path, "c.cnf", "p cnf 3 1\n1 -2 3 0\n")
    outdir = tmp_path / "out"
    code, out, err = run(["reduce", "3sat-f", f, str(outdir)], capsys)
    assert code == 0
    assert (outdir / "formula.txt").exists()
    assert (outdir / "structure.txt").exists()
    assert (outdir / "witness.txt").exists()
    assert (outdir / "certificate.txt").exists()
    cert = (outdir / "certificate.txt").read_text()
    assert out.strip() == cert.strip()
    assert "delta=2" in cert
    assert "width<=3" in cert
    assert "world" in (outdir / "structure.txt").read_text()
    assert "bag" in (outdir / "witness.txt").read_text()


def test_reduce_pwsat_emits_formula_only(tmp_path, capsys):
    text = (
        "p cnf 2 1\n1 -2 2 0\n"
        "partition 1 1\npartition 2 2\ncapacity 1 1\ncapacity 2 1\n"
    )
    f = _write(tmp_path, "i.pw", text)
    outdir = tmp_path / "out"
    code, out, err = run(["reduce", "pwsat", f, str(outdir)], capsys)
    assert code == 0
    assert (outdir / "formula.txt").exists()
    assert not (outdir / "structure.txt").exists()
    assert "td=3" in out
    assert "width<=" in out


def test_reduce_sqtile_x_depth_follows_grid_size(tmp_path, capsys):
    f = _write(tmp_path, "t.tile", "colors a\ntile a a a a\nk 11\n")
    outdir = tmp_path / "out"
    code, out, err = run(["reduce", "sqtile-x", f, str(outdir)], capsys)
    assert code == 0
    assert "td=6" in out


def test_reduce_3sat_x_deep_formula_reads_back(tmp_path, capsys):
    # temporal depth 1000, with variable 1000 in both clauses
    f = _write(tmp_path, "c.cnf", "p cnf 1000 2\n1000 1 2 0\n1000 3 4 0\n")
    outdir = tmp_path / "out"
    code, out, err = run(["reduce", "3sat-x", f, str(outdir)], capsys)
    assert code == 0
    assert "td=1000" in out
    code, out, err = run(
        ["check", "mc", "--formula", str(outdir / "formula.txt"),
         "--structure", str(outdir / "structure.txt")],
        capsys,
    )
    assert code == 0
    assert out.strip() == "false"


def test_reduce_3sat_x_deep_formula_x_routes(tmp_path, capsys):
    # temporal depth 1000 through the X-fragment routes
    f = _write(tmp_path, "c.cnf", "p cnf 1000 1\n1 2 1000 0\n")
    outdir = tmp_path / "out"
    code, out, err = run(["reduce", "3sat-x", f, str(outdir)], capsys)
    assert code == 0
    formula = str(outdir / "formula.txt")
    code, out, err = run(["check", "sat-x", "--formula", formula], capsys)
    assert code == 0
    assert out.strip() in ("sat", "unsat")
    code, out, err = run(
        ["check", "mc-x", "--formula", formula,
         "--structure", str(outdir / "structure.txt")],
        capsys,
    )
    assert code == 0
    assert out.strip() in ("true", "false")


def test_reduce_rejects_overlapping_partition(tmp_path, capsys):
    text = (
        "p cnf 2 1\n1 -2 2 0\n"
        "partition 1 1 2\npartition 2 2\ncapacity 1 1\ncapacity 2 1\n"
    )
    f = _write(tmp_path, "bad.pw", text)
    code, out, err = run(["reduce", "pwsat", f, str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.strip()


def test_reduce_unknown_family_is_usage_error(tmp_path, capsys):
    f = _write(tmp_path, "c.cnf", "p cnf 1 1\n1 1 1 0\n")
    code, out, err = run(["reduce", "nosuch", f, str(tmp_path / "out")], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# check

def test_check_sat_unsat(tmp_path, capsys):
    f = _write(tmp_path, "f.ltl", "p & !p\n")
    code, out, err = run(["check", "sat", "--formula", f], capsys)
    assert code == 0
    assert out.strip() == "unsat"


def test_check_sat_witness(tmp_path, capsys):
    f = _write(tmp_path, "f.ltl", "F p & G (p -> F q)\n")
    w = tmp_path / "w.txt"
    code, out, err = run(
        ["check", "sat", "--formula", f, "--witness", str(w)], capsys
    )
    assert code == 0
    assert out.strip() == "sat"
    text = w.read_text()
    assert "world" in text
    assert "cycle" in text


def test_check_mc_true(tmp_path, capsys):
    s = _write(tmp_path, "s.kripke", SELF_LOOP)
    f = _write(tmp_path, "f.ltl", "G p\n")
    code, out, err = run(["check", "mc", "--structure", s, "--formula", f], capsys)
    assert code == 0
    assert out.strip() == "true"


def test_check_mc_false_writes_counterexample(tmp_path, capsys):
    s = _write(
        tmp_path,
        "s.kripke",
        "world w0 p\nworld w1\nedge w0 w0\nedge w0 w1\nedge w1 w1\ninit w0\n",
    )
    f = _write(tmp_path, "f.ltl", "G p\n")
    w = tmp_path / "cex.txt"
    code, out, err = run(
        ["check", "mc", "--structure", s, "--formula", f, "--witness", str(w)],
        capsys,
    )
    assert code == 0
    assert out.strip() == "false"
    assert "cycle" in w.read_text()


def test_check_brute_agrees(tmp_path, capsys):
    s = _write(tmp_path, "s.kripke", SELF_LOOP)
    f = _write(tmp_path, "f.ltl", "F p\n")
    code, out, err = run(
        ["check", "brute", "--structure", s, "--formula", f, "--bound", "6"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "true"


def test_check_mc_x_rejects_other_fragments(tmp_path, capsys):
    s = _write(tmp_path, "s.kripke", SELF_LOOP)
    f = _write(tmp_path, "f.ltl", "F p\n")
    code, out, err = run(["check", "mc-x", "--structure", s, "--formula", f], capsys)
    assert code == 2
    assert err.strip()


def test_check_mc_requires_structure(tmp_path, capsys):
    f = _write(tmp_path, "f.ltl", "G p\n")
    code, out, err = run(["check", "mc", "--formula", f], capsys)
    assert code == 2


def test_check_sat_x(tmp_path, capsys):
    f = _write(tmp_path, "f.ltl", "X p & X !p\n")
    code, out, err = run(["check", "sat-x", "--formula", f], capsys)
    assert code == 0
    assert out.strip() == "unsat"


def test_check_failed_revalidation_is_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checker, "eval_on_lasso", lambda s, lasso, f: False)
    f = _write(tmp_path, "f.ltl", "F p\n")
    code, out, err = run(["check", "sat", "--formula", f], capsys)
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: ")


def test_check_deep_parentheses(tmp_path, capsys):
    f = _write(tmp_path, "f.ltl", "(" * 10000 + "p" + ")" * 10000 + "\n")
    code, out, err = run(["check", "sat", "--formula", f], capsys)
    assert code == 0
    assert out == "sat\n"
    code, out, err = run(["analyze", f], capsys)
    assert code == 0
    assert out.startswith("td=0 nvar=1 ")


# ---------------------------------------------------------------------------
# oracle

def test_oracle_cnf_sat(tmp_path, capsys):
    f = _write(tmp_path, "c.cnf", "p cnf 3 1\n1 -2 3 0\n")
    code, out, err = run(["oracle", "3sat-f", f], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sat"
    assert any(l.startswith("assign 1 ") for l in lines[1:])


def test_oracle_cnf_unsat(tmp_path, capsys):
    f = _write(tmp_path, "c.cnf", "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    code, out, err = run(["oracle", "3sat-x", f], capsys)
    assert code == 0
    assert out.strip() == "unsat"


def test_oracle_square_tiling(tmp_path, capsys):
    f = _write(tmp_path, "t.tile", "colors a\ntile a a a a\nk 11\n")
    code, out, err = run(["oracle", "sqtile-u", f], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tileable"
    assert "cell 1 1 0" in lines[1:]


def test_oracle_rect_tiling(tmp_path, capsys):
    f = _write(tmp_path, "t.tile", "colors a\ntile a a a a\nbounds a a\n")
    code, out, err = run(["oracle", "recttile-u", f], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("tileable m=")


def test_oracle_pwsat(tmp_path, capsys):
    text = (
        "p cnf 2 1\n1 -2 2 0\n"
        "partition 1 1\npartition 2 2\ncapacity 1 1\ncapacity 2 1\n"
    )
    f = _write(tmp_path, "i.pw", text)
    code, out, err = run(["oracle", "pwsat", f], capsys)
    assert code == 0
    assert out.splitlines()[0] == "sat"


# ---------------------------------------------------------------------------
# verify

def test_verify_pass_and_determinism(capsys):
    argv = ["verify", "sqtile-x", "colors=1", "tiles=1", "k=1", "--exhaustive"]
    code, out, err = run(argv, capsys)
    assert code == 0
    assert out.endswith("-> pass\n")
    code2, out2, err2 = run(argv, capsys)
    assert code2 == 0
    assert out2 == out


def test_verify_bounds_accepted_after_flags(capsys):
    a = ["verify", "3sat-f", "vars=2", "clauses=1", "--exhaustive"]
    b = ["verify", "3sat-f", "--exhaustive", "vars=2", "clauses=1"]
    code_a, out_a, _ = run(a, capsys)
    code_b, out_b, _ = run(b, capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_verify_mutation_fails(capsys):
    argv = [
        "verify", "3sat-f", "vars=3", "clauses=2",
        "--exhaustive", "--mutate", "drop-conjunct",
    ]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert "-> FAIL" in out


def test_verify_rejects_unknown_bound(capsys):
    code, out, err = run(["verify", "3sat-f", "wat=3"], capsys)
    assert code == 2
    assert err.strip()


def test_verify_rejects_unknown_family(capsys):
    code, out, err = run(["verify", "nosuch"], capsys)
    assert code == 2


def test_seeded_verify_row_count(capsys):
    argv = ["verify", "sqtile-f", "--count", "5", "--seed", "3"]
    code, out, err = run(argv, capsys)
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("#")]
    assert len(rows) == 5
