"""A Dapper-style span recorder, wrapped around the program from outside.

Spans follow Sigelman et al. (2010): each has a name, a start and an end
(``time.monotonic_ns``, the clock the load generator uses too), the id
of the span that caused it, and the ids of the requests it serves. They
are kept in memory and written out once, when the server shuts down.

Nothing here edits the program. :func:`install` replaces public entry
points of each layer with timing wrappers before the server is built:

* the HTTP handler's dispatch opens a request's root span, taking the
  request id from the ``X-Perfbench-Request-Id`` header;
* every item handed to a coalescer is remembered with the request that
  submitted it, so the coalesced engine call, which runs on the
  dispatcher thread, is attributed to every request in its batch;
* ``ThreadPoolExecutor.submit`` carries the caller's span context into
  worker threads (shard fan-out, parallel refinement).

``Filter.matches`` runs once per stored point per filtered search, far
too often for a span each, so it only bumps a per-thread call counter;
each span stores how many such calls its thread made while it was open.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

#: Header carrying the load generator's request id.
REQUEST_ID_HEADER = "X-Perfbench-Request-Id"

_ROOT = (0, ())  # (parent span id, request ids) outside any span


class SpanRecorder:
    """Collects spans, and per-thread call counts, from one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._items: dict[int, tuple[object, tuple[str, ...]]] = {}

    # -- context -------------------------------------------------------

    def context(self) -> tuple[int, tuple[str, ...]]:
        """The calling thread's ``(current span id, request ids)``."""
        return getattr(self._local, "ctx", _ROOT)

    def _set_context(self, ctx: tuple[int, tuple[str, ...]]) -> None:
        self._local.ctx = ctx

    # -- recording -----------------------------------------------------

    def wrap(self, fn, name, rids_of=None, attrs_of=None, after=None):
        """``fn`` timed as span ``name``.

        ``rids_of(args, kwargs)`` may override the request ids the span
        serves (otherwise inherited from the caller); ``attrs_of``
        returns a dict stored with the span; ``after(args, attrs)`` may
        add to it once the call returns.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = recorder.context()
            rids = outer[1]
            if rids_of is not None:
                rids = rids_of(args, kwargs) or rids
            attrs = attrs_of(args, kwargs) if attrs_of is not None else {}
            span_id = next(recorder._ids)
            recorder._set_context((span_id, rids))
            calls = recorder.calls()
            start = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                recorder._set_context(outer)
                counted = recorder.calls() - calls
                if counted:
                    attrs["counted"] = counted
                if after is not None:
                    after(args, attrs)
                recorder.spans.append(
                    (span_id, outer[0], name, start, end, rids, attrs)
                )

        return wrapper

    def count(self, fn):
        """One-argument method ``fn``, each call added to its thread's count."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(obj, arg):
            local.calls = getattr(local, "calls", 0) + 1
            return fn(obj, arg)

        return wrapper

    def calls(self) -> int:
        """Counted calls made by the calling thread so far."""
        return getattr(self._local, "calls", 0)

    def remember(self, item: object) -> None:
        """Note which requests submitted ``item`` to a coalescer."""
        self._items[id(item)] = (item, self.context()[1])

    def requests_of(self, items) -> tuple[str, ...]:
        """The request ids behind a batch of remembered items."""
        rids: list[str] = []
        for item in items:
            entry = self._items.get(id(item))
            if entry is not None and entry[0] is item:
                rids.extend(entry[1])
        return tuple(rids)

    def dump(self, path: str) -> None:
        """Write every span as JSON."""
        body = [
            [sid, parent, name, start, end, list(rids), attrs]
            for sid, parent, name, start, end, rids, attrs in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": body}, fh)


def _size(position: int):
    """Span attrs ``{"n": len(args[position])}`` (0 for a bare iterator)."""
    def attrs(args, kwargs):
        items = args[position]
        return {"n": len(items) if hasattr(items, "__len__") else 0}
    return attrs


def _one(args, kwargs):
    return {"n": 1}


def _patch(owner, attr: str, wrapper_factory) -> None:
    setattr(owner, attr, wrapper_factory(getattr(owner, attr)))


def _subclasses(cls):
    seen = []
    stack = [cls]
    while stack:
        current = stack.pop()
        seen.append(current)
        stack.extend(current.__subclasses__())
    return seen


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points; call before building a server."""
    import repro.core.refinement as refinement_module
    import repro.core.storage as storage_module
    import repro.llm.base as llm_base
    import repro.serving.bootstrap as bootstrap_module
    import repro.vectordb.persistence as persistence_module
    from repro.core.filtering import FilteringStage
    from repro.core.refinement import RefinementStage
    from repro.embeddings.base import EmbeddingModel
    from repro.semantics.lexicon import ConceptExtractor
    from repro.serving.batcher import (
        MicroBatcher,
        QueryCoalescer,
        SearchCoalescer,
    )
    from repro.serving.http import ServingContext, _Handler
    from repro.vectordb.client import VectorDBClient
    from repro.vectordb.collection import Collection
    from repro.vectordb.filters import Filter
    from repro.vectordb.flat import FlatIndex
    from repro.vectordb.hnsw import HNSWIndex
    from repro.vectordb.sharded import ShardedCollection
    from repro.vectordb.wal import WriteAheadLog

    wrap = recorder.wrap

    # HTTP edge: the request's root span.
    def request_id(args, kwargs):
        rid = args[0].headers.get(REQUEST_ID_HEADER)
        return (rid,) if rid else ()

    _patch(_Handler, "_dispatch",
           lambda fn: wrap(fn, "serving.http", rids_of=request_id))
    for op in ("search", "query", "upsert"):
        _patch(ServingContext, op,
               lambda fn: wrap(fn, "serving.context"))

    # Coalescer: remember who submitted each item; the engine call
    # serves every request in its batch.
    original_submit = MicroBatcher.submit

    @functools.wraps(original_submit)
    def submit(self, key, item, *args, **kwargs):
        recorder.remember(item)
        return original_submit(self, key, item, *args, **kwargs)

    MicroBatcher.submit = submit

    def batch_requests(args, kwargs):
        return recorder.requests_of(args[2])

    for coalescer in (SearchCoalescer, QueryCoalescer):
        _patch(coalescer, "_run", lambda fn: wrap(
            fn, "serving.batcher.run", rids_of=batch_requests,
            attrs_of=_size(2),
        ))

    # Context propagation into worker threads.
    original_pool_submit = ThreadPoolExecutor.submit

    @functools.wraps(original_pool_submit)
    def pool_submit(self, fn, /, *args, **kwargs):
        ctx = recorder.context()

        def in_context(*a, **kw):
            previous = recorder.context()
            recorder._set_context(ctx)
            try:
                return fn(*a, **kw)
            finally:
                recorder._set_context(previous)

        return original_pool_submit(self, in_context, *args, **kwargs)

    ThreadPoolExecutor.submit = pool_submit

    # SemaSK pipeline.
    _patch(FilteringStage, "run_batch",
           lambda fn: wrap(fn, "core.filtering", attrs_of=_size(1)))
    _patch(FilteringStage, "run",
           lambda fn: wrap(fn, "core.filtering", attrs_of=_one))
    for cls in _subclasses(EmbeddingModel):
        if "embed_batch" in cls.__dict__:
            _patch(cls, "embed_batch", lambda fn: wrap(
                fn, "embeddings.embed_batch", attrs_of=_size(1)))
    _patch(RefinementStage, "run",
           lambda fn: wrap(fn, "core.refinement"))
    refinement_module.build_rerank_prompt = wrap(
        refinement_module.build_rerank_prompt, "llm.prompt_build")
    _patch(llm_base.LLMClient, "chat", lambda fn: wrap(fn, "llm.chat"))
    llm_base.estimate_tokens = wrap(
        llm_base.estimate_tokens, "llm.estimate_tokens")
    _patch(ConceptExtractor, "extract",
           lambda fn: wrap(fn, "semantics.extract"))

    # Vector engine, read path.
    _patch(VectorDBClient, "search_batch", lambda fn: wrap(
        fn, "vectordb.client.search", attrs_of=_size(2)))
    _patch(VectorDBClient, "search", lambda fn: wrap(
        fn, "vectordb.client.search", attrs_of=_one))
    for cls, name in ((ShardedCollection, "vectordb.sharded.search"),
                      (Collection, "vectordb.collection.search"),
                      (HNSWIndex, "vectordb.hnsw.search"),
                      (FlatIndex, "vectordb.flat.search")):
        _patch(cls, "search_batch",
               lambda fn, name=name: wrap(fn, name, attrs_of=_size(1)))
        _patch(cls, "search",
               lambda fn, name=name: wrap(fn, name, attrs_of=_one))
    for cls in _subclasses(Filter):
        if "matches" in cls.__dict__ and cls is not Filter:
            _patch(cls, "matches", recorder.count)

    # Vector engine, write path.
    _patch(VectorDBClient, "upsert", lambda fn: wrap(
        fn, "vectordb.client.upsert", attrs_of=_size(2)))
    _patch(ShardedCollection, "upsert", lambda fn: wrap(
        fn, "vectordb.sharded.upsert", attrs_of=_size(1)))
    _patch(Collection, "upsert", lambda fn: wrap(
        fn, "vectordb.collection.upsert", attrs_of=_size(1)))
    _patch(HNSWIndex, "add", lambda fn: wrap(fn, "vectordb.hnsw.add"))

    def wal_before(args, kwargs):
        return {"n": len(args[1]), "offset": args[0].offset}

    def wal_after(args, attrs):
        attrs["bytes"] = args[0].offset - attrs.pop("offset")

    _patch(WriteAheadLog, "append_points", lambda fn: wrap(
        fn, "vectordb.wal.append", attrs_of=wal_before, after=wal_after))

    # Set-up: snapshot loads (the name each caller imported is patched).
    for module in (bootstrap_module, storage_module):
        module.load_prepared = wrap(module.load_prepared, "core.storage.load")
    for module in (persistence_module, storage_module):
        module.load_collection = wrap(
            module.load_collection, "core.storage.load")
