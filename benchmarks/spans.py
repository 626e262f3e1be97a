"""Spans for the traced run, and the traced decomposition of each command.

The decomposition calls the public functions of each ``wiser`` module in
the order the CLI command calls them, each wrapped in a span (name, start,
end, parent). Spans of one command share a trace id, stay in memory, and
are written out when the run ends. ``SemGraph.build`` is wrapped only while a
traced decomposition runs, so that graph construction shows as a child of
the codec read that calls it.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter_ns

from refgraph import BAGS


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.trace_id = 0
        self.spans: list[tuple[int, int, int | None, str, int, int]] = []
        self._stack: list[int] = []
        self._null = contextlib.nullcontext()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else self._null

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for trace, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": trace, "id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")

    def summary(self, since: int) -> "SpanSummary":
        """Self time and durations by span name, of the spans recorded after
        the first ``since``."""
        spans = self.spans[since:]
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_ns[parent] += end - start
        summary = SpanSummary()
        roots = {sid for _, sid, parent, *_ in spans if parent is None}
        for _, sid, parent, name, start, end in spans:
            duration = end - start
            summary.self_s[name] += (duration - child_ns[sid]) / 1e9
            summary.durations[name].append(duration / 1e9)
            if parent in roots:
                summary.layers_s += duration / 1e9
        return summary


class SpanSummary:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.layers_s = 0.0  # summed top-level layer spans


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans) + len(tr._stack)
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.sid)
        self.start = perf_counter_ns()

    def __exit__(self, *exc):
        end = perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((tr.trace_id, self.sid, self.parent, self.name, self.start, end))
        return False


@contextlib.contextmanager
def traced_build(tracer: Tracer):
    """Record every ``SemGraph.build`` call as a ``graph.build`` span."""
    from wiser.graph import SemGraph

    original = SemGraph.__dict__["build"]
    func = original.__func__

    def build(cls, *args, **kwargs):
        with tracer.span("graph.build"):
            return func(cls, *args, **kwargs)

    SemGraph.build = classmethod(build)
    try:
        yield
    finally:
        SemGraph.build = original


def convert_steps(tr: Tracer, input_path, catalog_path, output_path) -> dict[str, int]:
    """``wiser convert --mode wiser --catalog ...``, layer by layer."""
    from wiser.codec import read_corpus, write_corpus
    from wiser.convert import ConversionConfig, convert_graph, trim_corpus
    from wiser.frames import load_catalog
    from wiser.rules import REIFIED_OVERRIDES, compile_rules, map_catalog

    with tr.span("command"):
        with tr.span("codec.read"):
            corpus = read_corpus(input_path)
        with tr.span("frames.load_catalog"):
            catalog = load_catalog(catalog_path)
        with tr.span("rules.compile_rules"):
            rules = compile_rules()
        with tr.span("rules.map_catalog"):
            mapping, _ = map_catalog(catalog, rules, REIFIED_OVERRIDES)
        config = ConversionConfig(mode="wiser", mapping=mapping, overrides=REIFIED_OVERRIDES)
        with tr.span("convert.trim"):
            kept, _ = trim_corpus(corpus, catalog, config)
        with tr.span("convert.convert"):
            converted = [convert_graph(g, config) for g in kept]
        with tr.span("codec.write"):
            write_corpus(converted, output_path)
    relabeled = sum(a[1] != b[1] for g, c in zip(kept, converted) for a, b in zip(g.edges, c.edges))
    return {
        "codec.docs_read": len(corpus),
        "codec.bytes_written": output_path.stat().st_size,
        "rules.arguments_mapped": sum(1 for r in mapping.values() if r.role is not None),
        "convert.docs_out": len(converted),
        "convert.relabeled_edges": relabeled,
    }


def score_steps(tr: Tracer, gold_path, pred_path, metrics, restarts: int = 5, seed: int = 0):
    """``wiser score`` with its default scheme, restarts and seed, layer by
    layer: per pair and metric, normalize, extract and transform both sides,
    then align (``score_triples``); bag metrics go through ``fine_grained``.

    Returns the corpus totals per metric as (matched, total_pred, total_gold),
    the number of documents read, and the gold variable count of each pair.
    """
    from wiser.codec import read_corpus
    from wiser.graph import extract_triples, normalize
    from wiser.metrics import fine_grained, score_triples, transform_triples

    totals = {m: [0, 0, 0] for m in metrics}
    with tr.span("command"):
        with tr.span("codec.read"):
            gold = read_corpus(gold_path)
        with tr.span("codec.read"):
            pred = read_corpus(pred_path)
        by_id = {g.metadata["id"]: g for g in pred}
        for i, g in enumerate(gold):
            p = by_id[g.metadata["id"]]
            for m in metrics:
                if m in BAGS:
                    with tr.span("metrics.bag"):
                        entry = fine_grained(p, g, m, scheme="wiser", restarts=restarts, seed=seed + i)
                else:
                    with tr.span("graph.normalize"):
                        np_ = normalize(p)
                    with tr.span("graph.normalize"):
                        ng = normalize(g)
                    with tr.span("graph.extract_triples"):
                        tp = extract_triples(np_)
                    with tr.span("graph.extract_triples"):
                        tg = extract_triples(ng)
                    with tr.span("metrics.transform"):
                        xp = transform_triples(tp, m, "wiser")
                        xg = transform_triples(tg, m, "wiser")
                    with tr.span("metrics.align." + m):
                        entry = score_triples(m, xp, xg, restarts=restarts, seed=seed + i)
                t = totals[m]
                t[0] += entry.matched
                t[1] += entry.total_pred
                t[2] += entry.total_gold
    return ({m: tuple(t) for m, t in totals.items()}, len(gold) + len(pred),
            [len(g.instances) for g in gold])
