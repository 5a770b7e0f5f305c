"""Reference figures: verify ms/row per family on fixed sweeps, and the two
extrapolations tests/test_acceptance.py computes before it marks its
budget clauses xfail.  Run through `python3 bench/run.py --reference`;
takes about six minutes on a 2-core machine.
"""

import itertools
import random
import time

import workloads

PWSAT_FAMILY_SIZE = 36344
PWSAT_BUDGET_S = 600.0


def _ms_per_row(verify, family, instances):
    started = time.perf_counter()
    report = verify.run_family(family, instances, "reference")
    elapsed = time.perf_counter() - started
    if not report.passed:
        raise RuntimeError("%s sweep did not pass" % family)
    return elapsed / len(report.rows) * 1e3, len(report.rows)


def family_table(verify):
    """(family, sweep, rows, ms/row) on the first rows of the acceptance
    sweeps."""
    cnf = list(itertools.islice(verify.cnf3_instances(3, 2), 200))
    squares = list(verify.square_instances(2, 2, 2))
    squares_k3 = list(verify.square_instances_seeded(2, 3, 3, 50, 0))
    rects = list(itertools.islice(verify.rect_instances(2, 2), 100))
    sweeps = [
        ("3sat-f", "cnf3(3,2) first 200", cnf),
        ("3sat-x", "cnf3(3,2) first 200", cnf),
        ("sqtile-x", "square(2,2,2) all 272", squares),
        ("sqtile-f", "square(2,2,2) all 272", squares),
        ("sqtile-g", "square(2,2,2) all 272", squares),
        ("sqtile-u", "square(2,2,2) all 272", squares),
        ("sqtile-u", "square seeded(2,3,3,50,0)", squares_k3),
        ("recttile-xf", "rect(2,2) first 100", rects),
        ("recttile-u", "rect(2,2) first 100", rects),
    ]
    for family, sweep, instances in sweeps:
        ms, n = _ms_per_row(verify, family, instances)
        yield family, sweep, n, ms


def pwsat_extrapolation(verify):
    """The guard of test_pwsat_reduction_agreement: 60 canonical and 100
    seeded instances through both targets, scaled to the full family."""
    insts = list(itertools.islice(verify.pwsat_instances(3, 2), 60))
    insts += list(verify.pwsat_instances_seeded(3, 2, 100, 1))
    per_family = {}
    total = 0.0
    for family in ("pwsat", "pwsat-u"):
        ms, n = _ms_per_row(verify, family, insts)
        per_family[family] = ms
        total += ms * n / 1e3
    rows = 2 * len(insts)
    return per_family, rows, total, total / rows * (2 * PWSAT_FAMILY_SIZE)


def brute_rate(ltlwb):
    """The pairs of test_checker_brute_cross_validation without
    LTLWB_ACCEPT_FULL: every structure of at most two worlds with every
    formula of size at most 2, then 200 seeded pairs up to size 5."""
    checker = ltlwb.checker
    structures = workloads.all_structures(ltlwb)
    by_size = workloads.formulas_by_size(ltlwb, 5)
    small = by_size[1] + by_size[2]
    pool = [f for size in range(1, 6) for f in by_size[size]]
    started = time.perf_counter()
    checked = 0
    for s in structures:
        for f in small:
            inst = checker.McInstance(s, 0, f)
            if checker.brute_mc(inst, 12) != checker.mc_universal(inst):
                raise RuntimeError("brute_mc and mc_universal disagree")
            checked += 1
    rng = random.Random(11)
    for _ in range(200):
        inst = checker.McInstance(rng.choice(structures), 0, rng.choice(pool))
        if checker.brute_mc(inst, 12) != checker.mc_universal(inst):
            raise RuntimeError("brute_mc and mc_universal disagree")
        checked += 1
    elapsed = time.perf_counter() - started
    return checked, elapsed


def main(ltlwb):
    verify = ltlwb.verify
    print("family       sweep                          rows   ms/row")
    for family, sweep, n, ms in family_table(verify):
        print("%-12s %-30s %5d %8.1f" % (family, sweep, n, ms), flush=True)
    per_family, rows, total, estimate = pwsat_extrapolation(verify)
    for family, ms in per_family.items():
        print("%-12s %-30s %5d %8.1f" % (family, "guard 60 canonical + 100 seeded",
                                          rows // 2, ms))
    print("pwsat full family: %d guard rows in %.0f s extrapolate to %.0f s "
          "for %d rows (budget %.0f s)"
          % (rows, total, estimate, 2 * PWSAT_FAMILY_SIZE, PWSAT_BUDGET_S), flush=True)
    checked, elapsed = brute_rate(ltlwb)
    print("brute cross-validation: %d pairs in %.1f s, %.1f pairs/s"
          % (checked, elapsed, checked / elapsed))
