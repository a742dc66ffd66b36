"""The JSON HTTP edge shared by the serving server and the replica router.

:class:`JsonRequestHandler` is where the stack meets the wire, once for
both fronts (:mod:`repro.serving.http` and :mod:`repro.serving.router`):
HTTP/1.1 keep-alive, one body-framing reader, one response writer, and
JSON errors for everything — including the failures the stdlib raises
while parsing a request line before any route runs.

One write per response. Every answer — status line, headers and body —
leaves in a single ``wfile.write`` on a socket with ``TCP_NODELAY`` set.
A response split into two writes (headers, then body) meets Nagle's
algorithm (RFC 896) on a keep-alive connection: the body waits for the
ACK of the headers, and the client delays that ACK (RFC 1122
§4.2.3.2) by up to ~40 ms, so every answer after the first on a
connection would stall that long.

:class:`TrackingHTTPServer` is the listening side both fronts use: a
``ThreadingHTTPServer`` that counts in-flight handlers, for the
``max_inflight`` 429 shed and for draining on shutdown.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.errors import ReproError

__all__ = [
    "BadRequest",
    "HttpError",
    "JsonRequestHandler",
    "TrackingHTTPServer",
    "json_error",
]

class BadRequest(ValueError):
    """A client error that should surface as HTTP 400."""


class HttpError(ReproError):
    """An error carrying its own HTTP status (411, 413, ...)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def json_error(message: str) -> bytes:
    """The encoded ``{"error": message}`` body."""
    return json.dumps({"error": message}).encode("utf-8")


def _reject_constant(literal: str) -> Any:
    # json.loads calls this only for NaN / Infinity / -Infinity, which
    # are not JSON (RFC 8259 §6) and would poison vectors and scores.
    raise BadRequest(f"non-finite number {literal} is not allowed")


# reprolint: disable=RL06 -- a live socket server is never pickled
class TrackingHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that counts in-flight request handlers.

    Handler threads are daemonic (an *idle* keep-alive connection must
    not block shutdown), so ``server_close`` cannot be relied on to
    join them; instead every dispatched request is counted and
    :meth:`wait_idle` lets a graceful shutdown drain the requests that
    are actually executing before the coalescers and client close.
    """

    daemon_threads = True

    def __init__(
        self,
        *args: Any,
        max_inflight: int | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self.max_inflight = max_inflight
        self.shed_total = 0

    @property
    def inflight(self) -> int:
        """Requests currently executing a handler."""
        with self._inflight_cv:
            return self._inflight

    def request_began(self) -> bool:
        """Admit a request unless ``max_inflight`` handlers already run.

        Returns False — and counts the shed — when at capacity; the
        caller answers 429 without touching the context. Admission and
        the count are one atomic step, so a burst can never overshoot
        the cap.
        """
        with self._inflight_cv:
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                self.shed_total += 1
                return False
            self._inflight += 1
            return True

    def request_finished(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            if self._inflight <= 0:
                self._inflight_cv.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is executing (True) or timeout (False)."""
        deadline = time.monotonic() + timeout
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
        return True


class JsonRequestHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive handler speaking JSON, one write per response.

    Subclasses route requests and answer through :meth:`_send` (or
    :meth:`send_error`, which the stdlib also calls for request lines it
    cannot parse); bodies come in through :meth:`_read_body` /
    :meth:`_read_json_body`.
    """

    protocol_version = "HTTP/1.1"  # keep-alive: clients reuse connections
    disable_nagle_algorithm = True  # TCP_NODELAY on every accepted socket
    server: TrackingHTTPServer

    #: Hard cap on accepted request bodies; larger gets 413 unread. Even
    #: a full batch of float vectors fits in a fraction of this.
    MAX_BODY_BYTES = 8 * 1024 * 1024

    def log_message(self, *args: object) -> None:
        """Silence per-request stderr logging."""

    def _send(self, status: int, body: bytes) -> None:
        """Write status line, headers and JSON ``body`` in one write.

        Adds ``Retry-After`` to a 429 and ``Connection: close`` when the
        connection will not serve another request.
        """
        phrase = self.responses.get(status, ("",))[0]
        head = [
            f"{self.protocol_version} {status} {phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            "Content-Type: application/json; charset=utf-8",
            f"Content-Length: {len(body)}",
        ]
        if status == 429:
            head.append("Retry-After: 1")
        if self.close_connection:
            head.append("Connection: close")
        head += ["", ""]
        self.wfile.write("\r\n".join(head).encode("latin-1") + body)

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Answer ``{"error": message}`` and close the connection.

        Replaces the stdlib's HTML error page, so a bad request line
        (400), an overlong one (414), oversized headers (431) and an
        unsupported method (501) keep the JSON error contract.
        ``explain`` is accepted for the stdlib's signature and unused.
        """
        self.close_connection = True
        phrase = self.responses.get(code, ("error",))[0]
        self._send(code, json_error(message or phrase))

    def _read_body(self) -> bytes:
        """Read the request body, refusing to read unbounded bytes.

        A missing/zero ``Content-Length`` is 411 (chunked bodies are not
        accepted) and one beyond :attr:`MAX_BODY_BYTES` is 413 — in both
        cases the body is *never read*, so a hostile header cannot make
        the handler allocate; the connection closes since unread bytes
        would poison the next keep-alive request.
        """
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self.close_connection = True
            raise HttpError(411, "Content-Length required")
        try:
            length = int(raw_length)
        except ValueError as exc:
            self.close_connection = True
            raise HttpError(
                411, f"invalid Content-Length {raw_length!r}"
            ) from exc
        if length <= 0:
            self.close_connection = True
            raise HttpError(411, "request body required")
        if length > self.MAX_BODY_BYTES:
            self.close_connection = True
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.MAX_BODY_BYTES}-byte limit",
            )
        return self.rfile.read(length)

    def _read_json_body(self) -> dict:
        """Read and parse a JSON-object body (framing as :meth:`_read_body`).

        Raises :class:`BadRequest` for invalid JSON, the non-finite
        literals ``NaN``/``Infinity``/``-Infinity``, nesting deeper than
        the decoder can recurse, and a top level that is not an object.
        """
        raw = self._read_body()
        try:
            body = json.loads(raw, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        except RecursionError as exc:
            raise BadRequest("JSON body nests too deeply") from exc
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        return body
