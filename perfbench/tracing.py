"""Spans around the public calls of each hypertoric layer, from outside.

``Tracer.install()`` wraps the functions listed in ``FUNCTIONS`` and the
methods in ``METHODS``.  A wrapped function is replaced wherever a module of
the package holds it, which is where its callers look it up: ``snf`` is
patched in ``hypertoric.chow`` as well as in ``hypertoric.exact``.  Methods
are replaced on their class.  Nothing in the library changes on disk.

Each call records a span ``[name, start, end, parent, op]``; spans stay in
memory until ``Tracer.summary()`` folds them into per-name call counts and
self times.  A span's self time is its duration minus the durations of its
child spans (calls are nested, so the children never overlap).  Counters
such as the largest SNF entry are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _max_bits(res) -> int:
    return max(
        (abs(e).bit_length() for m in (res.U, res.D, res.V) for row in m.entries for e in row),
        default=0,
    )


def _observe_snf(tracer, args, res):
    m = args[0]
    tracer.maximize("exact.snf.max_bits", _max_bits(res))
    tracer.maximize("exact.snf.max_cells", m.rows * m.cols)


def _observe_cokernel(tracer, args, res):
    tracer.count("exact.cokernel.elements", len(res))


def _model_key(kind):
    def observe(tracer, args, res):
        tracer.distinct("model.builds", (kind, res.base.matrix.entries, res.theta,
                                         res.arrangement.unstable_minimal))
    return observe


def _observe_components(tracer, args, res):
    tracer.count("inertia.sectors", len(res))


def _observe_pairs(tracer, args, res):
    tracer.count("inertia.pairs", len(res))


def _observe_charts(tracer, args, res):
    tracer.count("verifiers.charts.samples", sum(c.samples for c in res.charts))


def _presentation_key(pres):
    return (pres.num_vars, pres.relations, pres.truncation)


def _observe_gysin(tracer, args, res):
    emb = args[0]
    tracer.distinct("chow.gysin.checks", (_presentation_key(emb.sub),
                                          _presentation_key(emb.ambient), emb.normal_chars))


# (span name, module, function, observer)
FUNCTIONS = (
    ("exact.snf", "hypertoric.exact", "snf", _observe_snf),
    ("exact.cokernel", "hypertoric.exact", "cokernel_torsion_elements", _observe_cokernel),
    ("exact.solve", "hypertoric.exact", "solve_rational", None),
    ("model.build", "hypertoric.model", "lawrence_model", _model_key("lawrence")),
    ("model.build", "hypertoric.model", "hypertoric_model", _model_key("hypertoric")),
    ("model.build", "hypertoric.model", "direct_model", _model_key("direct")),
    ("model.unstable_sets", "hypertoric.model", "minimal_unstable_sets", None),
    ("inertia.components", "hypertoric.inertia", "inertia_components", _observe_components),
    ("inertia.double", "hypertoric.inertia", "double_inertia", _observe_pairs),
    ("inertia.sector_model", "hypertoric.inertia", "sector_model", None),
    ("chow.reduce", "hypertoric.chow", "reduce_class", None),
    ("chow.iso", "hypertoric.chow", "ring_map_is_iso", None),
    ("orbifold.obstruction", "hypertoric.orbifold", "obstruction", None),
    ("orbifold.star", "hypertoric.orbifold", "star", None),
    ("orbifold.table", "hypertoric.orbifold", "orbifold_table", None),
    ("orbifold.pullback", "hypertoric.orbifold", "verify_obstruction_pullback", None),
    ("orbifold.iso", "hypertoric.orbifold", "verify_orbifold_iso", None),
    ("verifiers.charts", "hypertoric.verifiers", "verify_charts", _observe_charts),
    ("verifiers.sre", "hypertoric.verifiers", "sre_condition_iii", None),
    ("cli.parse", "hypertoric.cli", "parse_model", None),
    ("cli.parse", "hypertoric.cli", "_parse_sre_input", None),
    ("cli.serialize", "hypertoric.cli", "_render_text", None),
)

# (span name, module, class, method, observer)
METHODS = (
    ("chow.piece", "hypertoric.chow", "GradedRingPresentation", "piece", None),
    ("chow.gysin", "hypertoric.chow", "SectorEmbedding", "check", _observe_gysin),
)

# Per-layer metrics: name -> (unit, how it is read from a merged summary).
# "self" and "calls" read a span name; "count", "max" read a counter;
# "ratio" is distinct keys per call of a counter.
LAYER_METRICS = {
    "exact.snf.calls": ("count", "calls", "exact.snf"),
    "exact.snf.self_s": ("s", "self", "exact.snf"),
    "exact.snf.max_bits": ("bit", "max", "exact.snf.max_bits"),
    "exact.snf.max_cells": ("count", "max", "exact.snf.max_cells"),
    "exact.cokernel.calls": ("count", "calls", "exact.cokernel"),
    "exact.cokernel.elements": ("count", "count", "exact.cokernel.elements"),
    "exact.cokernel.self_s": ("s", "self", "exact.cokernel"),
    "exact.solve.calls": ("count", "calls", "exact.solve"),
    "exact.solve.self_s": ("s", "self", "exact.solve"),
    "model.builds": ("count", "calls", "model.build"),
    "model.distinct_ratio": ("ratio", "ratio", "model.builds"),
    "model.build.self_s": ("s", "self", "model.build"),
    "model.unstable_sets.self_s": ("s", "self", "model.unstable_sets"),
    "inertia.components.calls": ("count", "calls", "inertia.components"),
    "inertia.components.self_s": ("s", "self", "inertia.components"),
    "inertia.sectors": ("count", "count", "inertia.sectors"),
    "inertia.double.calls": ("count", "calls", "inertia.double"),
    "inertia.double.self_s": ("s", "self", "inertia.double"),
    "inertia.pairs": ("count", "count", "inertia.pairs"),
    "inertia.sector_model.calls": ("count", "calls", "inertia.sector_model"),
    "chow.pieces.built": ("count", "count", "chow.pieces.built"),
    "chow.pieces.max_degree": ("count", "max", "chow.pieces.max_degree"),
    "chow.piece.self_s": ("s", "self", "chow.piece"),
    "chow.reduce.calls": ("count", "calls", "chow.reduce"),
    "chow.reduce.self_s": ("s", "self", "chow.reduce"),
    "chow.gysin.checks": ("count", "calls", "chow.gysin"),
    "chow.gysin.distinct_ratio": ("ratio", "ratio", "chow.gysin.checks"),
    "chow.iso.self_s": ("s", "self", "chow.iso"),
    "orbifold.obstruction.calls": ("count", "calls", "orbifold.obstruction"),
    "orbifold.obstruction.self_s": ("s", "self", "orbifold.obstruction"),
    "orbifold.star.calls": ("count", "calls", "orbifold.star"),
    "orbifold.star.self_s": ("s", "self", "orbifold.star"),
    "orbifold.table.self_s": ("s", "self", "orbifold.table"),
    "orbifold.pullback.self_s": ("s", "self", "orbifold.pullback"),
    "orbifold.iso.self_s": ("s", "self", "orbifold.iso"),
    "verifiers.charts.samples": ("count", "count", "verifiers.charts.samples"),
    "verifiers.charts.self_s": ("s", "self", "verifiers.charts"),
    "verifiers.sre.calls": ("count", "calls", "verifiers.sre"),
    "cli.process_s": ("s", "count", "cli.process_s"),
    "cli.import_s": ("s", "count", "cli.import_s"),
    "cli.parse.self_s": ("s", "self", "cli.parse"),
    "cli.serialize.self_s": ("s", "self", "cli.serialize"),
}


class _JsonProxy:
    """Stands in for the ``json`` module inside ``hypertoric.cli`` so that
    its ``dumps`` is traced without patching the real module."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counts: dict[str, float] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)

    def count(self, name, value=1):
        self.counts[name] += value

    def maximize(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def distinct(self, name, key):
        """Record one key of a counter; keys are distinct within an op."""
        self.keys[name].add((self.op, key))

    def wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def _wrap_piece(self, piece):
        """``piece`` caches by degree; a call that fills the cache is a
        build, and its degree feeds the largest built degree."""
        tracer = self

        def observed(pres, k):
            built = k not in pres._pieces
            out = piece(pres, k)
            if built:
                tracer.count("chow.pieces.built")
                tracer.maximize("chow.pieces.max_degree", k)
            return out

        return self.wrap("chow.piece", functools.wraps(piece)(observed))

    def install(self):
        """Wrap every target; the package and its modules must be imported."""
        import hypertoric  # noqa: F401  (loads every layer module)
        import hypertoric.cli

        modules = [m for name, m in sys.modules.items()
                   if name == "hypertoric" or name.startswith("hypertoric.")]
        for name, module, attr, observe in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attr, observe in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            method = vars(cls)[attr]
            if attr == "piece":
                setattr(cls, attr, self._wrap_piece(method))
            else:
                setattr(cls, attr, self.wrap(name, method, observe))
        cli = hypertoric.cli
        cli.json = _JsonProxy(cli.json, self.wrap("cli.serialize", cli.json.dumps))

    def summary(self, now=None) -> dict:
        """Per-name calls and self times, with the counters.  Spans still
        open (a stopped op) are closed at ``now``."""
        now = perf_counter() if now is None else now
        child = [0.0] * len(self.spans)
        dur = [0.0] * len(self.spans)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            dur[i] = (now if end is None else end) - start
            if parent >= 0:
                child[parent] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, span in enumerate(self.spans):
            self_s[span[0]] += dur[i] - child[i]
            calls[span[0]] += 1
        return {
            "self": dict(self_s),
            "calls": dict(calls),
            "count": dict(self.counts),
            "max": dict(self.maxima),
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "spans": len(self.spans),
        }


def merge(summaries) -> dict:
    """Sum several process summaries (maxima take the maximum)."""
    out = {"self": defaultdict(float), "calls": defaultdict(int), "count": defaultdict(int),
           "max": defaultdict(int), "distinct": defaultdict(int), "spans": 0}
    for s in summaries:
        for kind in ("self", "calls", "count", "distinct"):
            for k, v in s[kind].items():
                out[kind][k] += v
        for k, v in s["max"].items():
            out["max"][k] = max(out["max"][k], v)
        out["spans"] += s["spans"]
    return out


def layer_metrics(summary) -> dict:
    """The per-layer metrics of a merged summary, with their units."""
    out = {}
    for name, (unit, kind, key) in LAYER_METRICS.items():
        if kind == "ratio":
            calls = summary["calls"].get(_RATIO_SPANS[key], 0)
            value = summary["distinct"].get(key, 0) / calls if calls else 0.0
        else:
            value = summary[kind].get(key, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# The span whose call count is the denominator of each distinct ratio.
_RATIO_SPANS = {"model.builds": "model.build", "chow.gysin.checks": "chow.gysin"}
