"""Spans and counts around ltlwb's public functions, for the traced run.

Each wrapper replaces a function where the program looks it up (a module
attribute, or an entry of verify._RUNNERS, which holds direct references)
and records one span: name, start, end and the span open when it began.
Spans stay in memory, in flat arrays, and are written out when the run
ends.  Self time is a span's duration minus that of its child spans.
Counting hooks run after their span has closed; the time they take is
taken off the enclosing span's self time, so it is charged to no layer.
"""

from __future__ import annotations

import gzip
import time
from array import array

import checks

# span name -> per-layer time metric; the span measures self time
TIME_METRICS = {
    "oracles.solve": "oracles.solve_s",
    "reductions.reduce": "reductions.reduce_s",
    "formula.rewrite_fragment": "formula.rewrite_fragment_s",
    "formula.measures": "formula.measures_s",
    "formula.format": "formula.format_s",
    "parser.parse": "parser.parse_s",
    "graphs.syntax_graph": "graphs.syntax_graph_s",
    "graphs.width": "graphs.width_s",
    "graphs.check_decomposition": "graphs.check_decomposition_s",
    "checker.mc": "checker.mc_s",
    "buchi.to_nnf": "buchi.to_nnf_s",
    "buchi.explore": "buchi.explore_s",
    "buchi.emptiness": "buchi.emptiness_s",
    "checker.sat": "checker.sat_s",
    "fgsat.encode": "fgsat.encode_s",
    "propsat.solve": "propsat.solve_s",
    "checker.brute_enumerate": "checker.brute_enumerate_s",
    "kripke.eval_on_lasso": "kripke.eval_on_lasso_s",
    "verify.run_family": "verify.overhead_s",
}

COUNT_METRICS = (
    "buchi.calls",
    "buchi.product_nodes",
    "buchi.product_edges",
    "buchi.lasso_positions",
    "fgsat.shapes_tried",
    "propsat.vars",
    "propsat.clauses",
    "kripke.lasso_evals",
    "kripke.lasso_positions",
    "reductions.emitted_nodes",
    "graphs.syntax_vertices",
    "graphs.witness_bags",
)

RATIO_METRIC = "checker.brute_word_ratio"


def per_layer_units():
    units = {m: "s" for m in TIME_METRICS.values()}
    units.update({m: "count" for m in COUNT_METRICS})
    units[RATIO_METRIC] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.hidden = array("d")
        self.open = []
        self.paused = False
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.brute_words = None
        self.brute_distinct = 0
        self.brute_lassos = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.open[-1] if self.open else -1)
        self.end.append(0.0)
        self.hidden.append(0.0)
        self.open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx):
        self.end[idx] = time.perf_counter()
        self.open.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if count is not None:
                t = time.perf_counter()
                count(self, args, kwargs, result)
                if self.open:
                    self.hidden[self.open[-1]] += time.perf_counter() - t
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def patch_runners(self, verify):
        """Wrap the oracle and reducer of every verify family; run_family
        reads them from _RUNNERS, which holds direct references."""
        for family, (oracle, reducer, rowfn, labels) in list(verify._RUNNERS.items()):
            self._undo.append((verify._RUNNERS, family, verify._RUNNERS[family]))
            verify._RUNNERS[family] = (
                self.wrap("oracles.solve", oracle),
                self.wrap("reductions.reduce", reducer, _count_emitted),
                rowfn,
                labels,
            )

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = [0.0] * len(self.names)
        for i in range(n):
            totals[self.name_of[i]] += (
                self.end[i] - self.start[i] - child[i] - self.hidden[i]
            )
        return dict(zip(self.names, totals))

    def metrics(self, rounds):
        """Per-layer metrics per round of the workload."""
        selfs = self.self_times()
        out = {m: selfs.get(span, 0.0) / rounds for span, m in TIME_METRICS.items()}
        for m in COUNT_METRICS:
            out[m] = self.counts[m] / rounds
        out[RATIO_METRIC] = (
            self.brute_distinct / self.brute_lassos if self.brute_lassos else 0.0
        )
        return out

    def write(self, path, t0):
        """All spans as gzipped CSV; times in seconds from t0, and the
        counting time taken off each span's self time."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s,hidden_s\n")
            for i in range(len(self.start)):
                fh.write("%d,%d,%s,%.7f,%.7f,%.7f\n" % (
                    i, self.parent[i], self.names[self.name_of[i]],
                    self.start[i] - t0, self.end[i] - t0, self.hidden[i],
                ))


# ---------------------------------------------------------------------------
# counting hooks: (tracer, positional arguments, keyword arguments, result)

def _count_emitted(tr, args, kwargs, out):
    emitted = out.formula if out.mc is None else out.mc.formula
    tr.counts["reductions.emitted_nodes"] += checks.formula_measures(emitted)[2]


def _count_product(tr, args, kwargs, found):
    succ = args[0]
    tr.counts["buchi.calls"] += 1
    tr.counts["buchi.product_nodes"] += len(succ)
    tr.counts["buchi.product_edges"] += sum(len(v) for v in succ.values())
    if found is not None:
        tr.counts["buchi.lasso_positions"] += len(found[0]) + len(found[1])


def _count_sat_call(tr, args, kwargs, model):
    clauses = args[0]
    tr.counts["propsat.clauses"] += len(clauses)
    nvars = kwargs.get("nvars", args[1] if len(args) > 1 else None)
    if nvars is None:
        nvars = max((abs(l) for cl in clauses for l in cl), default=0)
    tr.counts["propsat.vars"] += nvars


def _count_shape(tr, args, kwargs, model):
    tr.counts["fgsat.shapes_tried"] += 1
    _count_sat_call(tr, args, kwargs, model)


def _count_lasso(tr, args, kwargs, value):
    s, lasso = args[0], args[1]
    tr.counts["kripke.lasso_evals"] += 1
    tr.counts["kripke.lasso_positions"] += len(lasso.prefix) + len(lasso.cycle)
    if tr.brute_words is not None:
        tr.brute_lassos += 1
        tr.brute_words.add((
            tuple(s.labels[w] for w in lasso.prefix),
            tuple(s.labels[w] for w in lasso.cycle),
        ))


def _count_syntax(tr, args, kwargs, g):
    tr.counts["graphs.syntax_vertices"] += len(g.names)


def _count_bags(tr, args, kwargs, problems):
    tr.counts["graphs.witness_bags"] += len(args[1].bags)


def install(tr, ltlwb):
    """Wrap every public function the workloads reach, where it is looked up."""
    buchi, checker, formula = ltlwb.buchi, ltlwb.checker, ltlwb.formula
    fgsat, graphs, parser = ltlwb.fgsat, ltlwb.graphs, ltlwb.parser
    reductions, verify = ltlwb.reductions, ltlwb.verify
    tr.patch_runners(verify)
    tr.patch(verify, "run_family", "verify.run_family")
    tr.patch(verify, "mc_universal", "checker.mc")
    tr.patch(verify, "sat", "checker.sat")
    tr.patch(verify, "check_decomposition", "graphs.check_decomposition", _count_bags)
    tr.patch(checker, "mc_universal", "checker.mc")
    tr.patch(checker, "fused_product_lasso", "buchi.explore")
    tr.patch(checker, "find_accepting_lasso", "buchi.emptiness", _count_product)
    tr.patch(checker, "fg_sat", "fgsat.encode")
    tr.patch(checker, "solve_cdcl", "propsat.solve", _count_sat_call)
    tr.patch(checker, "eval_on_lasso", "kripke.eval_on_lasso", _count_lasso)
    tr.patch(checker, "fragment_of", "formula.measures")
    tr.patch(checker, "temporal_depth", "formula.measures")
    tr.patch(buchi, "to_nnf", "buchi.to_nnf")
    tr.patch(buchi, "find_accepting_lasso", "buchi.emptiness", _count_product)
    tr.patch(fgsat, "solve_cdcl", "propsat.solve", _count_shape)
    tr.patch(reductions, "rewrite_fragment", "formula.rewrite_fragment")
    tr.patch(reductions, "temporal_depth", "formula.measures")
    tr.patch(reductions, "nvar", "formula.measures")
    tr.patch(reductions, "syntax_graph", "graphs.syntax_graph", _count_syntax)
    tr.patch(reductions, "width", "graphs.width")
    tr.patch(formula, "format_formula", "formula.format")
    tr.patch(parser, "parse", "parser.parse")
    tr.patch(graphs, "check_decomposition", "graphs.check_decomposition", _count_bags)

    original_brute = checker.brute_mc

    def brute(i, bound):
        tr.brute_words = set()
        try:
            return original_brute(i, bound)
        finally:
            tr.brute_distinct += len(tr.brute_words)
            tr.brute_words = None

    tr._undo.append((checker, "brute_mc", original_brute))
    checker.brute_mc = tr.wrap("checker.brute_enumerate", brute)
