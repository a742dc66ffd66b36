"""The benchmark's three workloads, and why each was chosen.

A workload supplies its inputs, the set-up probe (the first request a
fresh server must answer correctly), its request streams and its
oracle checks; :class:`Workload` holds the flow they share.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from perfbench import inputs as gen
from perfbench.loadgen import Client, ServerProcess
from perfbench.oracle import Oracle, QueryChecker, SearchChecker, failure, parse

#: Keep-alive connections per run: at most nproc on the reference box (2).
CONNECTIONS = 2
WARMUP_S = 1.5
#: Upper end of each connection's seeded think time between an answer
#: and its next request. With none, the two connections lock into one
#: of two stable phase relations (both requests in one coalesced batch,
#: or strictly alternating) and a run's numbers depend on which one it
#: happened to fall into.
THINK_S = 0.010
#: Connections for the untimed verification phases.
VERIFY_CONNECTIONS = 8


class Bench:
    """State of one benchmark run: servers, phases and the oracle."""

    def __init__(self, root: Path, seed: int, seconds: float,
                 workdir: Path) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.servers: list[ServerProcess] = []
        self.phases: list = []
        self.oracle = Oracle()

    def launch(self, mode: str, snapshot: Path, wal: str | None,
               trace: bool) -> ServerProcess:
        server = ServerProcess(
            self.root, self.workdir, f"server{len(self.servers) + 1}", mode,
            snapshot, wal=wal, trace=trace,
        )
        self.servers.append(server)
        return server

    def phase(self, client: Client, name: str, sources, **options):
        """Run one phase on ``client`` (see ``Client.run``) and keep it."""
        phase = client.run(name, sources, **options)
        self.phases.append(phase)
        return phase

    def all_records(self) -> list:
        return [r for phase in self.phases for r in phase.records]

    def stop_all(self) -> None:
        for server in self.servers:
            server.stop()


class Workload:
    """One traffic mix; subclasses supply inputs, probes and checks."""

    why = ""
    mode = "vector"
    wal: str | None = None
    #: The request the end-to-end latency and throughput describe.
    primary = "search"
    #: The coalesced read request (batcher metrics are taken over it).
    read = "search"

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self._sent: dict[str, int] = {}  # stream -> requests already sent
        self.acked: list[str] = []       # points the live server acked

    # -- hooks -----------------------------------------------------------

    def snapshot_for_launch(self) -> Path:
        raise NotImplementedError

    def probe(self) -> tuple:
        raise NotImplementedError

    def check_probe(self, record) -> None:
        raise NotImplementedError

    def sources(self) -> list:
        """Requests for the next phase: one shared list or one per connection."""
        raise NotImplementedError

    def check_timed(self, phase) -> float:
        """Oracle over a warm-up or timed phase; returns its quality."""
        raise NotImplementedError

    def after(self, client: Client, server: ServerProcess) -> float | None:
        """Post-run phases and checks; may return the quality figure."""
        return None

    def throughput(self, phase) -> float:
        return sum(1 for r in phase.of(self.primary) if r.ok) / phase.elapsed_s

    def short_results(self) -> int:
        return 0

    # -- shared flow -----------------------------------------------------

    def unsent(self, stream: str, requests: list) -> list:
        """The part of a stream this run has not sent yet (wraps around)."""
        start = self._sent.get(stream, 0) % max(len(requests), 1)
        return requests[start:] + requests[:start]

    def start_server(self, trace: bool = False):
        """Launch, send the probe; returns (server, setup_s, probe_ms)."""
        server = self.bench.launch(self.mode, self.snapshot_for_launch(),
                                   self.wal, trace)
        self.acked = []
        probe_client = Client(server.port, 1)
        phase = self.bench.phase(
            probe_client, self.tag(server) + "setup", [self.probe()])
        probe_client.close()
        record = phase.records[0]
        self.check_probe(record)
        setup_s = (record.end_ns - server.launched_ns) / 1e9
        return server, setup_s, record.latency_ms

    def drive(self, server: ServerProcess, seconds: float):
        """Warm-up, then the timed phase, each checked by the oracle.

        Returns the client, the timed phase, the server CPU seconds it
        used, and its quality figure.
        """
        client = Client(server.port, CONNECTIONS)
        tag = self.tag(server)
        for name, length in (("warmup", WARMUP_S), ("timed", seconds)):
            if name == "timed":
                cpu_before = server.cpu_s()
            phase = self.bench.phase(
                client, tag + name, self.sources(), seconds=length,
                think_s=THINK_S, seed=self.bench.seed,
            )
            for record in phase.records:
                self._sent[record.op] = self._sent.get(record.op, 0) + 1
                if record.op == "upsert" and record.ok:
                    self.acked.extend(
                        self.inputs.new_ids[row] for row in record.meta["rows"])
            quality = self.check_timed(phase)
        return client, phase, server.cpu_s() - cpu_before, quality

    def tag(self, server: ServerProcess) -> str:
        return "traced-" if server.trace_path is not None else ""


class SemaskQuery(Workload):
    """``POST /query`` against ``repro serve`` on paper-scale Saint Louis."""

    why = ("SemaSK's own request path: about 2/3 LLM refinement, 1/3 the "
           "per-point geo scan; texts never repeat, so only shared work caches")
    mode = "semask"
    primary = read = "query"

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        self.inputs = gen.prepare_semask(bench.seed, bench.workdir)
        self.requests = gen.semask_requests(self.inputs)
        self.checker = QueryChecker(self.inputs, bench.oracle)

    def snapshot_for_launch(self) -> Path:
        return self.inputs.snapshot

    def probe(self) -> tuple:
        return self.requests["vetted"][0]

    def check_probe(self, record) -> None:
        body = self.checker.response(record)
        self.bench.oracle.require(
            body is not None and body["entries"] == self.inputs.expected[0],
            f"{record.rid}: set-up probe is not the in-process answer",
        )

    def sources(self) -> list:
        # Texts never repeat within a run: no wrap-around here.
        return self.requests["stream"][self._sent.get("query", 0):]

    def check_timed(self, phase) -> float:
        for record in phase.of("query"):
            self.checker.response(record)
        return 0.0

    def after(self, client: Client, server: ServerProcess) -> float:
        verifier = Client(server.port, VERIFY_CONNECTIONS)
        vetted = self.bench.phase(verifier, self.tag(server) + "vetted",
                                  self.requests["vetted"])
        verifier.close()
        return self.checker.vetted(vetted.records)


class VectorSearch(Workload):
    """``POST /search`` over a 2-shard clustered corpus, no LLM."""

    why = ("HTTP edge, coalescer, shard fan-out and merge, HNSW (with the "
           "filtered post-filter path) and flat subset scans do all the work")

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        self.inputs = gen.prepare_vectors(bench.seed, bench.workdir)
        self.searches = gen.search_requests(self.inputs.searches)
        self.checker = SearchChecker(self.inputs, bench.oracle)
        self.initial = self.checker.initial_rows()

    def snapshot_for_launch(self) -> Path:
        return self.inputs.snapshot

    def probe(self) -> tuple:
        return self.searches[0]

    def check_probe(self, record) -> None:
        self.checker.response(record, self.initial, exact_count=True)

    def sources(self) -> list:
        return self.unsent("search", self.searches[1:])

    def check_searches(self, records, live, exact_count: bool) -> float:
        """Oracle over ``/search`` answers; returns their mean recall@10."""
        recalls = []
        for record in records:
            recall = self.checker.response(record, live, exact_count)
            if recall is not None:
                recalls.append(recall)
        return float(np.mean(recalls)) if recalls else 0.0

    def check_timed(self, phase) -> float:
        return self.check_searches(phase.of("search"), self.initial, True)

    def short_results(self) -> int:
        return self.checker.short_results


class IngestMixed(VectorSearch):
    """``/upsert`` batches beside ``/search`` on one WAL-backed snapshot."""

    why = ("the engine's write path (HNSW insert, mmap copy-on-write, WAL "
           "append, write lock) beside concurrent searches")
    wal = "batch"
    primary = "upsert"

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        self.upserts = gen.upsert_requests(self.inputs)

    def snapshot_for_launch(self) -> Path:
        """A pristine copy per launch: no write survives into the next."""
        target = self.bench.workdir / f"ingest{len(self.bench.servers)}"
        shutil.copytree(self.inputs.snapshot, target / "snapshot")
        return target / "snapshot"

    def sources(self) -> list:
        # Each upsert inserts new points, so the batches never repeat.
        return [self.upserts[self._sent.get("upsert", 0):],
                self.unsent("search", self.searches[1:])]

    def check_timed(self, phase) -> float:
        oracle = self.bench.oracle
        for record in phase.of("upsert"):
            if not oracle.require(record.ok, failure(record)):
                continue
            body = parse(record) or {}
            oracle.require(
                body.get("inserted") == gen.UPSERT_BATCH,
                f"{record.rid}: upsert not fully acknowledged: {body}",
            )
        # Concurrent inserts only add points: the initial corpus bounds
        # the match count from below.
        self.check_searches(phase.of("search"), self.initial, False)
        return 0.0

    def throughput(self, phase) -> float:
        """Acknowledged points per second."""
        acked = sum(1 for r in phase.of("upsert") if r.ok)
        return acked * gen.UPSERT_BATCH / phase.elapsed_s

    def after(self, client: Client, server: ServerProcess) -> float:
        """Count and self-lookup checks, then recall over the grown index."""
        bench, tag = self.bench, self.tag(server)
        info = bench.phase(client, tag + "count",
                           [("collections", "/collections", None, None)])
        listed = parse(info.records[0]) or []
        points = next((c["points"] for c in listed
                       if c.get("name") == gen.VECTOR_COLLECTION), None)
        bench.oracle.require(
            points == len(self.inputs.ids) + len(self.acked),
            f"collection holds {points} points, expected "
            f"{len(self.inputs.ids)} + {len(self.acked)} acknowledged",
        )
        row_of = {pid: row for row, pid in enumerate(self.inputs.new_ids)}
        lookups = [
            ("lookup", "/search", gen.search_body(
                self.inputs.new_vectors[row_of[pid]], exact=True,
                with_payload=False, k=1), {"id": pid})
            for pid in self.acked
        ]
        # Untimed, so more connections than the load uses: each answer
        # spends about 40 ms on the wire, and there can be thousands.
        verifier = Client(server.port, VERIFY_CONNECTIONS)
        for record in bench.phase(verifier, tag + "verify", lookups).records:
            self.checker.self_lookup(record)
        verifier.close()

        probes = bench.phase(client, tag + "recall",
                             gen.search_requests(self.inputs.probes))
        return self.check_searches(
            probes.records, self.checker.rows_of(self.acked), True)


WORKLOADS = {
    "semask_query": SemaskQuery,
    "vector_search": VectorSearch,
    "ingest_mixed": IngestMixed,
}
