"""Latency statistics and the traced per-layer breakdown.

A request's breakdown splits its client-observed latency into:

* ``serving.http.wire`` — latency minus the time inside
  ``ServingContext``: sockets, the kernel, HTTP parsing and JSON
  encoding on both sides. It is split further into the HTTP handler's
  own server time (``serving.http`` self time) and ``wire.network``,
  the part outside the server's handler span;
* ``serving.batcher.wait`` — from ``ServingContext`` entry to the start
  of the coalesced engine call that served the request;
* the self time of every traced span below ``ServingContext``, the
  engine call included (a batched engine call appears in the breakdown
  of every request it served). Self time is a span's duration minus the
  part of it its child spans cover;
* ``unattributed`` — time inside ``ServingContext`` that is neither the
  wait nor covered by a traced child span.

Spans that ran in parallel (shard fan-out) can sum to more than the
wall time they cover; coverage is therefore computed from interval
unions, never from sums.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass


def percentiles(values: list[float]) -> dict:
    """Median and p90 with their sample counts.

    The p90 is reported as supported only with at least ten samples
    beyond it (n >= 100).
    """
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "p90": 0.0, "p90_supported": False}
    ordered = sorted(values)
    p90 = (
        statistics.quantiles(ordered, n=10, method="inclusive")[8]
        if n > 1 else ordered[0]
    )
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "p90": p90,
        "p90_supported": n - int(0.9 * n) >= 10,
    }


def phase_accounting(phase) -> dict:
    """Requests sent, succeeded and failed per operation in one phase."""
    table: dict = {}
    for record in phase.records:
        row = table.setdefault(
            record.op, {"sent": 0, "succeeded": 0, "failed": 0}
        )
        row["sent"] += 1
        row["succeeded" if record.ok else "failed"] += 1
    return {"elapsed_s": round(phase.elapsed_s, 3),
            "inputs_exhausted": phase.exhausted, "ops": table}


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    start: int
    end: int
    rids: tuple
    attrs: dict | None

    @property
    def dur_ms(self) -> float:
        return (self.end - self.start) / 1e6

    @property
    def n(self) -> int:
        return (self.attrs or {}).get("n", 1)


def _union_ms(intervals: list[tuple[int, int]], lo: int, hi: int) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total / 1e6


class Trace:
    """Spans written by one traced server."""

    def __init__(self, path) -> None:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        self.spans = [
            Span(sid, parent, name, start, end, tuple(rids), attrs)
            for sid, parent, name, start, end, rids, attrs in raw["spans"]
        ]
        self.by_id = {span.sid: span for span in self.spans}
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            self.children[span.parent].append(span)
        self.context_of: dict[str, Span] = {}
        self.http_of: dict[str, Span] = {}
        self.engine_of: dict[str, Span] = {}
        for span in self.spans:
            if span.name == "serving.context" and len(span.rids) == 1:
                self.context_of[span.rids[0]] = span
            elif span.name == "serving.http" and len(span.rids) == 1:
                self.http_of[span.rids[0]] = span
            elif span.name == "serving.batcher.run":
                for rid in span.rids:
                    self.engine_of.setdefault(rid, span)

    def outermost(self, span: Span) -> bool:
        """No ancestor shares the span's name (nested calls count once)."""
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == span.name:
                return False
            parent = self.by_id.get(parent.parent)
        return True

    def _kids(self, span: Span, rid: str) -> list[Span]:
        kids = list(self.children.get(span.sid, ()))
        if span.name == "serving.context" and rid in self.engine_of:
            kids.append(self.engine_of[rid])
        return kids

    def breakdown(self, rid: str, latency_ms: float) -> dict | None:
        """Self time per layer for one request (see the module docs)."""
        context = self.context_of.get(rid)
        if context is None:
            return None
        parts: dict[str, float] = defaultdict(float)
        http = self.http_of.get(rid)
        wire = latency_ms - context.dur_ms
        parts["serving.http.wire"] = wire
        if http is not None:
            parts["wire.network"] = latency_ms - http.dur_ms
            parts["serving.http"] = http.dur_ms - context.dur_ms
        engine = self.engine_of.get(rid)
        wait = (engine.start - context.start) / 1e6 if engine else 0.0
        parts["serving.batcher.wait"] = wait

        stack = [context]
        while stack:
            span = stack.pop()
            kids = self._kids(span, rid)
            covered = _union_ms([(k.start, k.end) for k in kids],
                                span.start, span.end)
            self_ms = span.dur_ms - covered
            if span is context:
                parts["unattributed"] = max(self_ms - wait, 0.0)
            else:
                parts[span.name] += self_ms
            stack.extend(kids)
        parts["latency"] = latency_ms
        parts["coverage"] = 1.0 - parts["unattributed"] / latency_ms
        return dict(parts)

    def spans_for(self, rids: set[str]) -> list[Span]:
        """Spans serving any of ``rids``, each once."""
        return [s for s in self.spans if rids.intersection(s.rids)]

    def load_s(self) -> float:
        loads = [s for s in self.spans
                 if s.name == "core.storage.load" and self.outermost(s)]
        return sum(s.dur_ms for s in loads) / 1e3


def layer_metrics(trace: Trace, timed_rids: set[str], n_reads: int,
                  n_queries: int) -> dict:
    """Per-layer ``(value, unit)`` over the timed phase (0 where a layer is idle)."""
    spans = [s for s in trace.spans_for(timed_rids) if trace.outermost(s)]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total_ms(name):
        return sum(s.dur_ms for s in by_name[name])

    def items(name):
        return sum(s.n for s in by_name[name])

    def per(value, count):
        return value / count if count else 0.0

    def mean_ms(name):
        return per(total_ms(name), len(by_name[name]))

    fanouts = []
    for span in by_name["vectordb.sharded.search"]:
        shard_calls = [k.dur_ms for k in trace.children.get(span.sid, ())
                       if k.name == "vectordb.collection.search"]
        if shard_calls:
            fanouts.append(span.dur_ms - max(shard_calls))
    graph_rows = items("vectordb.hnsw.search")
    flat_rows = items("vectordb.flat.search")
    wal = by_name["vectordb.wal.append"]
    ms, count = "ms", "count"
    return {
        "core.filtering.ms_per_query": (
            per(total_ms("core.filtering"), n_queries), ms),
        "embeddings.embed_ms_per_text": (per(
            total_ms("embeddings.embed_batch"), items("embeddings.embed_batch")), ms),
        "vectordb.search_ms_per_query": (per(
            total_ms("vectordb.client.search"), items("vectordb.client.search")), ms),
        # Filter.matches runs inside Collection._matching_nodes, on the
        # thread of the per-collection search span that counted it.
        "vectordb.filters.matches_per_query": (per(sum(
            (s.attrs or {}).get("counted", 0)
            for s in by_name["vectordb.collection.search"]), n_reads), count),
        "vectordb.sharded.fanout_ms": (per(sum(fanouts), len(fanouts)), ms),
        "vectordb.hnsw.search_ms": (
            per(total_ms("vectordb.hnsw.search"), n_reads), ms),
        "vectordb.flat.search_ms": (
            per(total_ms("vectordb.flat.search"), n_reads), ms),
        "vectordb.graph_share": (
            per(graph_rows, graph_rows + flat_rows), "ratio"),
        "vectordb.search_rows": (graph_rows + flat_rows, count),
        "vectordb.upsert_ms_per_point": (per(
            total_ms("vectordb.client.upsert"), items("vectordb.client.upsert")), ms),
        "vectordb.hnsw.add_ms": (mean_ms("vectordb.hnsw.add"), ms),
        "vectordb.wal.append_ms": (mean_ms("vectordb.wal.append"), ms),
        "vectordb.wal.bytes_per_point": (per(
            sum((s.attrs or {}).get("bytes", 0) for s in wal),
            sum(s.n for s in wal)), "bytes"),
        "core.refinement.ms_per_query": (
            per(total_ms("core.refinement"), n_queries), ms),
        "llm.prompt_build_ms": (mean_ms("llm.prompt_build"), ms),
        "llm.chat_ms": (mean_ms("llm.chat"), ms),
        "semantics.extract_calls_per_query": (
            per(len(by_name["semantics.extract"]), n_queries), count),
        "semantics.extract_ms_per_query": (
            per(total_ms("semantics.extract"), n_queries), ms),
        "llm.estimate_tokens_ms_per_query": (
            per(total_ms("llm.estimate_tokens"), n_queries), ms),
    }


def batch_sizes(trace: Trace, rids: set[str]) -> float:
    """Mean requests per engine call over the calls serving ``rids``."""
    calls = {trace.engine_of[r].sid: trace.engine_of[r]
             for r in rids if r in trace.engine_of}
    if not calls:
        return 0.0
    return statistics.mean(float(len(span.rids)) for span in calls.values())
