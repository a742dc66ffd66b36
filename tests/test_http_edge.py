"""The shared JSON HTTP edge (:mod:`repro.serving.edge`), on both fronts.

Pins the wire contract :class:`~repro.serving.http.ServingServer` and
:class:`~repro.serving.router.RouterServer` share:

* **One write per response.** Status line, headers and body leave in a
  single ``wfile.write`` on a ``TCP_NODELAY`` socket, for successes,
  handler errors, sheds, deadlines and the stdlib's own parse errors.
  A two-write response stalls ~40 ms on every keep-alive answer after
  the first (Nagle against delayed ACK); the keep-alive guards catch
  that regression from the outside.
* **Same bytes as before.** The single write carries exactly what the
  stdlib's ``send_response``/``send_header``/``end_headers`` sequence
  wrote in two.
* **Every error is JSON**, including a bad request line (400), an
  overlong one (414) and an unsupported method (501).
* **Hostile bodies get 400**, never 200/500 or a poisoned corpus:
  non-finite numbers (``NaN`` literals, ``1e400``, float32 overflow),
  JSON nested past the decoder's recursion limit, and filters nested
  past :data:`~repro.serving.http.MAX_FILTER_DEPTH`.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import statistics
import threading
import time

import numpy as np
import pytest

from repro.errors import ServerOverloaded
from repro.serving.edge import JsonRequestHandler
from repro.serving.http import (
    MAX_FILTER_DEPTH,
    BadRequest,
    ServingContext,
    ServingServer,
    filter_from_json,
)
from repro.serving.router import ReplicaRouter, RouterServer
from repro.testing import chaos
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import PointStruct

DIM = 8
N_POINTS = 50

#: A keep-alive answer that took the Nagle/delayed-ACK stall costs
#: ~40 ms; a healthy one on loopback costs ~1-5 ms.
KEEPALIVE_MEDIAN_BOUND_MS = 20.0


def _vectors(n: int, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, DIM)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _search_body(k: int = 3, **extra) -> dict:
    return {"collection": "pts", "vector": _vectors(1, seed=9)[0].tolist(),
            "k": k, **extra}


@pytest.fixture()
def backend():
    client = VectorDBClient()
    client.create_collection("pts", dim=DIM).upsert([
        PointStruct(id=f"p{i}", vector=v, payload={"i": i})
        for i, v in enumerate(_vectors(N_POINTS))
    ])
    with ServingServer(ServingContext(client), port=0).start() as server:
        yield server


@pytest.fixture()
def front(backend):
    host, port = backend.address
    router = ReplicaRouter([f"{host}:{port}"], health_interval_s=60.0)
    with RouterServer(router, port=0).start() as server:
        yield server


class _CountingWriter:
    """Wraps a handler's ``wfile``; records the size of every write."""

    def __init__(self, inner, writes: list[int]) -> None:
        self._inner = inner
        self._writes = writes

    def write(self, data: bytes) -> int:
        self._writes.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def wire(monkeypatch):
    """Per accepted connection: bound port, TCP_NODELAY flag, writes."""
    connections: list[dict] = []
    original_setup = JsonRequestHandler.setup

    def setup(self):
        original_setup(self)
        record = {
            "port": self.server.server_address[1],
            "nodelay": self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            ),
            "writes": [],
        }
        connections.append(record)
        self.wfile = _CountingWriter(self.wfile, record["writes"])

    monkeypatch.setattr(JsonRequestHandler, "setup", setup)
    return connections


def _raw(address: tuple[str, int], request: bytes) -> tuple[int, dict, dict]:
    """Send raw request bytes on a fresh connection; read to EOF.

    The request must make the server close the connection (an error, or
    ``Connection: close``). Returns (status, headers, JSON body).
    """
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, json.loads(body)


def _request(
    method: str, path: str, body: dict | str | None = None,
    headers: dict | None = None,
) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: test", "Connection: close"]
    lines += [f"{k}: {v}" for k, v in (headers or {}).items()]
    data = b""
    if body is not None:
        data = (body if isinstance(body, str) else json.dumps(body)).encode()
        lines += ["Content-Type: application/json",
                  f"Content-Length: {len(data)}"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + data


def _keepalive_ms(address, method, path, body=None, n=10) -> list[float]:
    """Latencies of ``n`` sequential requests on one keep-alive connection."""
    payload = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        latencies = []
        for _ in range(n):
            started = time.perf_counter()
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            response.read()
            latencies.append((time.perf_counter() - started) * 1000.0)
            assert response.status == 200
        return latencies
    finally:
        conn.close()


def _overloaded(**_context) -> None:
    raise ServerOverloaded("chaos: queue full")


# ----------------------------------------------------------------------
# one write per response, TCP_NODELAY
# ----------------------------------------------------------------------


def _assert_single_writes(wire, port: int, expected: int) -> None:
    mine = [c for c in wire if c["port"] == port]
    assert len(mine) == expected
    for connection in mine:
        assert connection["writes"] and len(connection["writes"]) == 1, (
            connection
        )
        assert connection["nodelay"] != 0


class TestSingleWrite:
    @pytest.mark.parametrize("which, health", [
        ("backend", "/healthz"), ("front", "/router/healthz"),
    ])
    def test_every_answer_is_one_write(self, which, health, request, wire):
        addr = request.getfixturevalue(which).address
        cases = [
            (_request("GET", health), 200),
            (_request("POST", "/search", _search_body()), 200),
            (_request("GET", "/nope"), 404),
            (_request("POST", "/search", {"collection": "pts"}), 400),
            (_request("POST", "/search", _search_body(),
                      {"X-Repro-Deadline-Ms": "0"}), 504),
            (b"POST /search HTTP/1.1\r\nHost: t\r\n\r\n", 411),
            (b"POST /search HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
             413),
            (_request("PUT", "/search"), 501),
            (b"GARBAGE\r\n\r\n", 400),
        ]
        for raw, status in cases:
            assert _raw(addr, raw)[0] == status, raw
        # a shed inside the server; the router relays it unchanged
        with chaos.fault("http.request", _overloaded):
            status, headers, body = _raw(
                addr, _request("POST", "/search", _search_body())
            )
        assert status == 429 and headers["Retry-After"] == "1"
        assert body == {"error": "chaos: queue full"}
        _assert_single_writes(wire, addr[1], len(cases) + 1)

    @pytest.mark.parametrize("which, message", [
        ("backend", "server overloaded (in-flight cap reached)"),
        ("front", "router overloaded"),
    ])
    def test_inflight_shed_is_one_write(self, which, message, backend, wire):
        entered, release = threading.Event(), threading.Event()

        def hold(method, path):
            entered.set()
            release.wait(timeout=30)

        if which == "backend":
            context = ServingContext(VectorDBClient(), coalesce=False)
            capped = ServingServer(context, port=0, max_inflight=1)
        else:
            host, port = backend.address
            router = ReplicaRouter([f"{host}:{port}"], health_interval_s=60.0)
            capped = RouterServer(router, port=0, max_inflight=1)
        with capped.start(), chaos.fault("http.request", hold):
            # the first request parks in the (backend's) dispatch hook
            held = threading.Thread(
                target=_raw, args=(capped.address, _request("GET", "/healthz"))
            )
            held.start()
            assert entered.wait(timeout=30)
            status, headers, body = _raw(
                capped.address, _request("GET", "/healthz")
            )
            release.set()
            held.join(timeout=30)
        assert not held.is_alive()
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert headers["Connection"] == "close"
        assert body == {"error": message}
        _assert_single_writes(wire, capped.address[1], 2)


# ----------------------------------------------------------------------
# the single write carries the bytes the stdlib header API wrote
# ----------------------------------------------------------------------


def _offline_handler(close: bool) -> JsonRequestHandler:
    handler = JsonRequestHandler.__new__(JsonRequestHandler)
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET / HTTP/1.1"
    handler.close_connection = close
    handler.wfile = io.BytesIO()
    handler.date_time_string = lambda timestamp=None: "Sat, 17 Oct 2026"
    return handler


@pytest.mark.parametrize("status", [200, 400, 404, 411, 429, 500, 504])
@pytest.mark.parametrize("close", [False, True])
def test_single_write_matches_stdlib_header_sequence(status, close):
    body = b'{"error": "x"}'
    single = _offline_handler(close)
    single._send(status, body)

    stdlib = _offline_handler(close)
    stdlib.send_response(status)
    stdlib.send_header("Content-Type", "application/json; charset=utf-8")
    stdlib.send_header("Content-Length", str(len(body)))
    if status == 429:
        stdlib.send_header("Retry-After", "1")
    if close:
        stdlib.send_header("Connection", "close")
    stdlib.end_headers()
    stdlib.wfile.write(body)

    assert single.wfile.getvalue() == stdlib.wfile.getvalue()


# ----------------------------------------------------------------------
# keep-alive guards
# ----------------------------------------------------------------------


class TestKeepAlive:
    def test_server_keepalive_healthz(self, backend):
        latencies = _keepalive_ms(backend.address, "GET", "/healthz")
        assert statistics.median(latencies) < KEEPALIVE_MEDIAN_BOUND_MS, (
            latencies
        )

    def test_router_keepalive_healthz(self, front):
        latencies = _keepalive_ms(front.address, "GET", "/healthz")
        assert statistics.median(latencies) < KEEPALIVE_MEDIAN_BOUND_MS, (
            latencies
        )

    def test_router_keepalive_search(self, front):
        latencies = _keepalive_ms(
            front.address, "POST", "/search", _search_body()
        )
        assert statistics.median(latencies) < KEEPALIVE_MEDIAN_BOUND_MS, (
            latencies
        )


# ----------------------------------------------------------------------
# every error is JSON
# ----------------------------------------------------------------------


@pytest.mark.parametrize("which", ["backend", "front"])
def test_stdlib_errors_are_json(which, request):
    server = request.getfixturevalue(which)
    addr = server.address
    cases = [
        (_request("PUT", "/search"), 501, "Unsupported method ('PUT')"),
        (b"GARBAGE\r\n\r\n", 400, "Bad request syntax ('GARBAGE')"),
        # exactly one byte past the stdlib's 65536-byte line limit, so
        # nothing is left unread when the server closes
        (b"GET /" + b"a" * (65537 - 5), 414, "Request-URI Too Long"),
    ]
    for raw, status, message in cases:
        got, headers, body = _raw(addr, raw)
        assert got == status
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        assert headers["Connection"] == "close"
        assert body == {"error": message}


# ----------------------------------------------------------------------
# hostile bodies: non-finite numbers, deep nesting
# ----------------------------------------------------------------------


def _vector_text(bad: str) -> str:
    return "[" + ", ".join([bad] + ["0.1"] * (DIM - 1)) + "]"


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e39"]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_search_vector_is_400(backend, bad):
    body = f'{{"collection": "pts", "k": 3, "vector": {_vector_text(bad)}}}'
    status, _, answer = _raw(backend.address, _request("POST", "/search", body))
    assert status == 400
    assert "finite" in answer["error"]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_upsert_leaves_corpus_untouched(backend, bad):
    good = json.dumps(_vectors(1, seed=3)[0].tolist())
    body = (
        '{"collection": "pts", "points": ['
        f'{{"id": "fine", "vector": {good}}}, '
        f'{{"id": "poison", "vector": {_vector_text(bad)}}}]}}'
    )
    status, _, answer = _raw(backend.address, _request("POST", "/upsert", body))
    assert status == 400
    assert "finite" in answer["error"]
    _, _, collections = _raw(backend.address, _request("GET", "/collections"))
    assert collections[0]["points"] == N_POINTS


def test_nan_anywhere_in_the_body_is_400(backend):
    body = json.dumps(_search_body())[:-1] + ', "ef": NaN}'
    status, _, answer = _raw(backend.address, _request("POST", "/search", body))
    assert status == 400
    assert answer == {"error": "non-finite number NaN is not allowed"}


def test_json_nested_past_recursion_limit_is_400(backend):
    body = '{"filter": ' + "[" * 3000 + "]" * 3000 + "}"
    status, _, answer = _raw(backend.address, _request("POST", "/search", body))
    assert status == 400
    assert answer == {"error": "JSON body nests too deeply"}


def _nested_filter(depth: int) -> dict:
    spec = {"match": {"key": "i", "value": 1}}
    for _ in range(depth - 1):
        spec = {"must_not": spec}
    return spec


def test_filter_depth_cap():
    assert filter_from_json(_nested_filter(MAX_FILTER_DEPTH)) is not None
    with pytest.raises(BadRequest, match="deeper than"):
        filter_from_json(_nested_filter(MAX_FILTER_DEPTH + 1))
    with pytest.raises(BadRequest, match="deeper than"):
        filter_from_json({"must": [_nested_filter(MAX_FILTER_DEPTH)]})


def test_deep_filter_over_http_is_400(backend):
    body = _search_body(filter=_nested_filter(400))
    status, _, answer = _raw(backend.address, _request("POST", "/search", body))
    assert status == 400
    assert "deeper than" in answer["error"]
    # a filter at the cap still answers
    body = _search_body(filter=_nested_filter(MAX_FILTER_DEPTH))
    assert _raw(backend.address, _request("POST", "/search", body))[0] == 200
