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
