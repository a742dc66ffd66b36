"""Closed-loop load over keep-alive HTTP connections, and the server process.

Each connection is one thread holding one ``http.client`` connection: it
sends a request, waits for the whole response, records it and only then
sends the next one. SemaSK's callers each wait for their answer, so the
load is a closed loop with a fixed number of connections; a slower
server receives less load. Requests are timed with
``time.monotonic_ns``, the clock the span recorder uses on the server.
"""

from __future__ import annotations

import http.client
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.spans import REQUEST_ID_HEADER

#: Socket timeout per request: a wedged server fails requests, not the run.
REQUEST_TIMEOUT_S = 30.0
#: A server that is not listening this long after launch fails the run.
READY_TIMEOUT_S = 60.0


@dataclass
class Record:
    """One request as the client saw it."""

    rid: str
    op: str
    phase: str
    start_ns: int
    end_ns: int
    status: int          # 0 for a transport error
    body: bytes
    meta: object

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


@dataclass
class Phase:
    """Every record of one phase, with its wall-clock span."""

    name: str
    records: list[Record] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0
    exhausted: bool = False

    @property
    def elapsed_s(self) -> float:
        return max(self.end_ns - self.start_ns, 1) / 1e9

    def of(self, op: str) -> list[Record]:
        return [r for r in self.records if r.op == op]


class _Source:
    """A thread-safe cursor over a request list."""

    def __init__(self, requests: list[tuple]) -> None:
        self._requests = requests
        self._next = 0
        self._lock = threading.Lock()
        self.exhausted = False

    def take(self):
        with self._lock:
            if self._next >= len(self._requests):
                self.exhausted = True
                return None
            request = self._requests[self._next]
            self._next += 1
            return request


class Client:
    """Sends phases of requests to one server over ``connections`` sockets."""

    def __init__(self, port: int, connections: int) -> None:
        self._port = port
        # Connected one at a time, before any request: the server's
        # accept backlog is small.
        self._conns = [self._connect() for _ in range(connections)]
        self._serial = 0
        self._serial_lock = threading.Lock()

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self._port, timeout=REQUEST_TIMEOUT_S
        )
        conn.connect()
        return conn

    def _rid(self, phase: str) -> str:
        with self._serial_lock:
            self._serial += 1
            return f"{phase}-{self._serial}"

    def send(self, slot: int, request: tuple, phase: str) -> Record:
        """One request on connection ``slot``; reconnects after errors."""
        op, path, body, meta = request
        rid = self._rid(phase)
        conn = self._conns[slot]
        start = time.monotonic_ns()
        try:
            if body is None:
                conn.request("GET", path, headers={REQUEST_ID_HEADER: rid})
            else:
                conn.request("POST", path, body, {
                    "Content-Type": "application/json",
                    REQUEST_ID_HEADER: rid,
                })
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            data, status = repr(exc).encode(), 0
            try:
                self._conns[slot] = self._connect()
            except OSError:
                pass  # the next request on this slot fails and retries

        return Record(rid, op, phase, start, time.monotonic_ns(), status,
                      data, meta)

    def run(self, phase: str, sources: list, seconds: float | None = None,
            think_s: float = 0.0, seed: int = 0) -> Phase:
        """Closed loop: connection ``i`` draws from ``sources[i]``.

        Pass one list per connection, or a single list that every
        connection shares. After each answer a connection waits a think
        time drawn uniformly from ``[0, think_s]`` (seeded). Stops after
        ``seconds`` (the requests in flight finish) or when the sources
        run dry.
        """
        if sources and isinstance(sources[0], tuple):
            shared = _Source(sources)
            cursors = [shared] * len(self._conns)
        else:
            cursors = [_Source(s) for s in sources]
        result = Phase(phase)
        deadline = None if seconds is None else time.monotonic() + seconds
        per_slot: list[list[Record]] = [[] for _ in cursors]

        def loop(slot: int) -> None:
            rng = random.Random(f"{seed}:{phase}:{slot}")
            while deadline is None or time.monotonic() < deadline:
                request = cursors[slot].take()
                if request is None:
                    return
                per_slot[slot].append(self.send(slot, request, phase))
                if think_s:
                    time.sleep(rng.uniform(0.0, think_s))

        threads = [
            threading.Thread(target=loop, args=(slot,), daemon=True)
            for slot in range(len(cursors))
        ]
        result.start_ns = time.monotonic_ns()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.end_ns = time.monotonic_ns()
        result.records = sorted(
            (r for records in per_slot for r in records),
            key=lambda r: r.start_ns,
        )
        result.exhausted = seconds is not None and any(
            c.exhausted for c in cursors
        )
        return result

    def close(self) -> None:
        for conn in self._conns:
            conn.close()


class ServerProcess:
    """One ``perfbench.server`` process, from launch to shutdown."""

    def __init__(self, root: Path, workdir: Path, tag: str, mode: str,
                 snapshot: Path, wal: str | None = None,
                 trace: bool = False) -> None:
        self.stats_path = workdir / f"{tag}.stats.json"
        self.trace_path = workdir / f"{tag}.trace.json" if trace else None
        self._log = open(workdir / f"{tag}.log", "wb")
        command = [sys.executable, "-m", "perfbench.server", "--mode", mode,
                   "--snapshot", str(snapshot), "--stats", str(self.stats_path)]
        if wal:
            command += ["--wal", wal]
        if self.trace_path is not None:
            command += ["--trace", str(self.trace_path)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.launched_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, bufsize=0,  # unbuffered: select sees every line
        )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode(errors="replace")
            if not line:
                break  # the server exited
            if line.startswith("PERFBENCH-READY "):
                return int(line.split()[1])
        self.stop()
        raise RuntimeError(
            f"server did not listen (exit code {self.proc.returncode}); "
            "see its log in the work directory"
        )

    def rss_mb(self) -> float:
        """Resident set size now, in MiB, from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmRSS line")

    def cpu_s(self) -> float:
        """User plus system CPU time used so far, in seconds."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM, wait for the graceful shutdown, reap the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
