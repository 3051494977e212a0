"""In-memory spans around dualsel's public functions, for the traced run.

``Tracer.installed()`` rebinds each traced function in the module namespace
its callers look it up in, and puts the original back on exit. ``analytic``
imports the specfun primitives by name, so those are rebound inside
``analytic``; everything else is rebound on its own module, which is where
``selection``, ``cli`` and the benchmark's queries reach it. Each call
records one span (name, start, end, parent, query id) in flat arrays, and a
few calls also add to work counters. Spans stay in memory until ``write``.
"""

import csv
import gzip
import math
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from dualsel import analytic, cli, montecarlo, selection
from dualsel.specfun import QuadratureError


def _count_quad(counts, args, result, exc):
    if isinstance(exc, QuadratureError):
        counts["specfun.quad.failed"] += 1
        counts["specfun.quad.evals"] += exc.evaluations
    elif exc is None:
        counts["specfun.quad.evals"] += result.evaluations


def _count_cdf_points(counts, args, result, exc):
    counts["analytic.cdf_T.points"] += int(np.size(args[0]))


def _count_trials(counts, trials, K):
    counts["montecarlo.trials"] += trials
    # Each trial consumes 2K uniforms padded up to whole 4-lane Philox blocks.
    counts["montecarlo.uniforms"] += trials * 4 * math.ceil(2 * K / 4)


def _count_estimate(counts, args, result, exc):
    cfg, trials = args[0], args[1]
    _count_trials(counts, trials, cfg.num_users)


def _count_estimate_tdma(counts, args, result, exc):
    K, trials = args[0], args[2]
    _count_trials(counts, trials, K)


def _count_cells(counts, args, result, exc):
    if exc is None:
        counts["selection.cells"] += len(result.esr_by_n)


def _count_rows(counts, args, result, exc):
    # The cli query sends stdout to a fresh buffer, so the rows cli.main
    # wrote are the buffer's lines minus the CSV header.
    text = sys.stdout.getvalue()
    counts["cli.rows"] += max(0, text.count("\n") - 1)


#: (module, attribute, span name, counter) for every rebound function.
TARGETS = (
    (analytic, "quad_interval", "specfun.quad", _count_quad),
    (analytic, "quad_semi_infinite", "specfun.quad", _count_quad),
    (analytic, "e1_scaled", "specfun.e1_scaled", None),
    (analytic, "li2", "specfun.li2", None),
    (analytic, "cdf_T", "analytic.cdf_T", _count_cdf_points),
    (analytic, "theta_corrected", "analytic.theta_corrected", None),
    (analytic, "exp_cb", "analytic.exp_cb", None),
    (analytic, "esr_exact", "analytic.esr_exact", None),
    (analytic, "esr_high_snr", "analytic.esr_high_snr", None),
    (analytic, "esr_tdma_exact", "analytic.esr_tdma", None),
    (analytic, "esr_tdma_high_snr", "analytic.esr_tdma", None),
    (montecarlo, "estimate_esr", "montecarlo.estimate", _count_estimate),
    (montecarlo, "estimate_esr_tdma", "montecarlo.estimate", _count_estimate_tdma),
    (selection, "select_served", "selection.select_served", _count_cells),
    (cli, "main", "cli.main", _count_rows),
)

QUERY_SPAN = "query"


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.names = [QUERY_SPAN]
        self._name_ids = {QUERY_SPAN: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts = Counter()
        self._stack = [-1]
        self._query = -1

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name_id, fn, args, kwargs, counter=None):
        """Run fn inside a span; counters see the arguments and the outcome."""
        i = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_query.append(self._query)
        self.span_start.append(0)
        self.span_end.append(0)
        self._stack.append(i)
        result, exc = None, None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as e:
            exc = e
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.span_start[i] = start
            self.span_end[i] = end
            if counter is not None:
                counter(self.counts, args, result, exc)

    def query(self, fn):
        """Answer one query under a root span with a fresh query id."""
        self._query += 1
        return self.call(0, fn, (), {})

    def _wrap(self, fn, name, counter):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            return self.call(name_id, fn, args, kwargs, counter)

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        originals = []
        try:
            for module, attr, name, counter in TARGETS:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def times(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; one thread runs them in turn, so children never overlap.
        """
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(
            self.span_start, dtype=np.int64
        )
        own = dur.copy()
        child = parents >= 0
        np.subtract.at(own, parents[child], dur[child])
        out = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = (int(mask.sum()), dur[mask].sum() / 1e9, own[mask].sum() / 1e9)
        return out

    def write(self, path):
        """Write every span as one row of a gzipped CSV file."""
        with gzip.open(path, "wt", compresslevel=1, newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "query", "parent", "start_ns", "end_ns"])
            for i in range(len(self.span_name)):
                out.writerow(
                    [
                        i,
                        self.names[self.span_name[i]],
                        self.span_query[i],
                        self.span_parent[i],
                        self.span_start[i],
                        self.span_end[i],
                    ]
                )


#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "specfun.quad.calls": ("count", "lower"),
    "specfun.quad.evals": ("count", "lower"),
    "specfun.quad.self_s": ("s", "lower"),
    "specfun.quad.failed": ("count", "lower"),
    "specfun.e1_scaled.calls": ("count", "lower"),
    "specfun.e1_scaled.s": ("s", "lower"),
    "specfun.li2.calls": ("count", "lower"),
    "specfun.li2.s": ("s", "lower"),
    "analytic.cdf_T.calls": ("count", "lower"),
    "analytic.cdf_T.points": ("count", "lower"),
    "analytic.cdf_T.self_s": ("s", "lower"),
    "analytic.theta_corrected.calls": ("count", "lower"),
    "analytic.theta_corrected.self_s": ("s", "lower"),
    "analytic.exp_cb.s": ("s", "lower"),
    "analytic.esr_exact.calls": ("count", "lower"),
    "analytic.esr_exact.s": ("s", "lower"),
    "analytic.esr_exact.evals_per_call": ("count", "lower"),
    "analytic.cdf_T.share_of_esr_exact": ("1", "lower"),
    "analytic.esr_high_snr.calls": ("count", "lower"),
    "analytic.esr_high_snr.self_s": ("s", "lower"),
    "analytic.esr_tdma.calls": ("count", "lower"),
    "analytic.esr_tdma.self_s": ("s", "lower"),
    "montecarlo.estimate.calls": ("count", "lower"),
    "montecarlo.estimate.s": ("s", "lower"),
    "montecarlo.trials": ("count", "lower"),
    "montecarlo.uniforms": ("count", "lower"),
    "montecarlo.ns_per_trial": ("ns", "lower"),
    "selection.select_served.calls": ("count", "lower"),
    "selection.cells": ("count", "higher"),
    "selection.select_served.self_s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.rows": ("count", "higher"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, passes, overhead_ratio):
    """Every per-layer metric, per traced pass.

    All traced passes answer the same query list, so counts divide exactly.
    """
    t = tracer.times()
    c = tracer.counts

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0] / passes

    def total_s(name):
        return t.get(name, (0, 0.0, 0.0))[1] / passes

    def self_s(name):
        return t.get(name, (0, 0.0, 0.0))[2] / passes

    def count(name):
        return c[name] / passes

    m = {
        "specfun.quad.calls": calls("specfun.quad"),
        "specfun.quad.evals": count("specfun.quad.evals"),
        "specfun.quad.self_s": self_s("specfun.quad"),
        "specfun.quad.failed": count("specfun.quad.failed"),
        "specfun.e1_scaled.calls": calls("specfun.e1_scaled"),
        "specfun.e1_scaled.s": total_s("specfun.e1_scaled"),
        "specfun.li2.calls": calls("specfun.li2"),
        "specfun.li2.s": total_s("specfun.li2"),
        "analytic.cdf_T.calls": calls("analytic.cdf_T"),
        "analytic.cdf_T.points": count("analytic.cdf_T.points"),
        "analytic.cdf_T.self_s": self_s("analytic.cdf_T"),
        "analytic.theta_corrected.calls": calls("analytic.theta_corrected"),
        "analytic.theta_corrected.self_s": self_s("analytic.theta_corrected"),
        "analytic.exp_cb.s": total_s("analytic.exp_cb"),
        "analytic.esr_exact.calls": calls("analytic.esr_exact"),
        "analytic.esr_exact.s": total_s("analytic.esr_exact"),
        "analytic.esr_high_snr.calls": calls("analytic.esr_high_snr"),
        "analytic.esr_high_snr.self_s": self_s("analytic.esr_high_snr"),
        "analytic.esr_tdma.calls": calls("analytic.esr_tdma"),
        "analytic.esr_tdma.self_s": self_s("analytic.esr_tdma"),
        "montecarlo.estimate.calls": calls("montecarlo.estimate"),
        "montecarlo.estimate.s": total_s("montecarlo.estimate"),
        "montecarlo.trials": count("montecarlo.trials"),
        "montecarlo.uniforms": count("montecarlo.uniforms"),
        "selection.select_served.calls": calls("selection.select_served"),
        "selection.cells": count("selection.cells"),
        "selection.select_served.self_s": self_s("selection.select_served"),
        "cli.main.calls": calls("cli.main"),
        "cli.rows": count("cli.rows"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_ratio": overhead_ratio,
    }
    m["analytic.esr_exact.evals_per_call"] = _ratio(
        m["specfun.quad.evals"], m["analytic.esr_exact.calls"]
    )
    m["analytic.cdf_T.share_of_esr_exact"] = _ratio(
        m["analytic.cdf_T.self_s"], m["analytic.esr_exact.s"]
    )
    m["montecarlo.ns_per_trial"] = _ratio(
        m["montecarlo.estimate.s"] * 1e9, m["montecarlo.trials"]
    )
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        value = m[name]
        out[name] = int(value) if unit == "count" and float(value).is_integer() else value
    return out
