"""The traced benchmark run wraps ltlwb functions by name; every name it
looks up must exist, so a rename or deletion fails here and not only in a
traced run."""

import os

import ltlwb

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_span_install_finds_every_name(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans

    original = ltlwb.graphs.check_decomposition
    tracer = spans.Tracer()
    try:
        spans.install(tracer, ltlwb)
        assert ltlwb.graphs.check_decomposition is not original
    finally:
        tracer.restore()
    assert ltlwb.graphs.check_decomposition is original


def test_reduction_problems_pass_on_every_family(monkeypatch):
    """What the benchmark's independent check reads of a reduction's
    output (formula, witness, witness graph, certificates) is still there
    and still consistent, one small instance per family."""
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    for family in ltlwb.verify.FAMILIES:
        inst = next(ltlwb.verify.family_instances(family, exhaustive=False, seed=1, count=1))
        out = ltlwb.verify._RUNNERS[family][1](inst)
        assert workloads.reduction_problems(family, inst, out, out.certificates) == [], family
