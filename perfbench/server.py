"""The benchmark's server launcher: one serving process per launch.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 -m perfbench.server --mode semask --snapshot DIR --stats OUT
    python3 -m perfbench.server --mode vector --snapshot DIR --wal batch \\
        --stats OUT --trace TRACE_OUT

``semask`` mode runs ``repro serve --snapshot DIR --port 0`` itself, so
the server is built exactly as the CLI builds it. ``vector`` mode serves
a bare collection snapshot, which the CLI has no command for; it builds
the same :class:`~repro.serving.http.ServingContext` with the CLI's
``serve`` defaults and no SemaSK pipeline.

The launcher prints ``PERFBENCH-READY <port>`` once the socket listens,
serves until SIGTERM, then writes ``--stats`` (the LLM usage ledger and
coalescer counters). With ``--trace``, :func:`perfbench.spans.install`
wraps the layers first and the spans are written there on shutdown.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys


def _capturing_server(holder: dict):
    """A ``ServingServer`` that announces its port and keeps a handle."""
    from repro.serving.http import ServingServer

    class AnnouncingServer(ServingServer):
        def __init__(self, context, *args, **kwargs):
            super().__init__(context, *args, **kwargs)
            holder["context"] = context
            print(f"PERFBENCH-READY {self.address[1]}", flush=True)

    return AnnouncingServer


def _serve_vector(snapshot: str, wal: str | None, server_cls) -> None:
    from repro.cli import build_parser
    from repro.serving.http import ServingContext
    from repro.vectordb.client import VectorDBClient

    defaults = build_parser().parse_args(["serve"])
    client = VectorDBClient()
    client.load(snapshot, mmap=not defaults.no_mmap, wal=wal)
    context = ServingContext(
        client,
        coalesce=not defaults.no_coalesce,
        max_batch=defaults.max_batch,
        max_wait_s=defaults.max_wait_ms / 1000.0,
        parallel_refine=defaults.parallel_refine,
        max_pending=defaults.max_pending or None,
    )
    server = server_cls(
        context, host=defaults.host, port=0,
        max_inflight=defaults.max_inflight or None,
    )

    def _terminate(signum, frame):  # as ``repro serve`` does
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    server.serve_forever()


def _stats(context) -> dict:
    # The context keeps its pipeline private; the usage ledger is on it.
    system = getattr(context, "_system", None)
    ledger = system.llm.ledger.summary() if system is not None else {}
    return {"ledger": ledger, "coalescers": context.metrics_body()["coalescers"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=["semask", "vector"], required=True)
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--wal", default=None,
                        help="WAL fsync mode (vector mode only)")
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        from perfbench.spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)

    import repro.serving.http as http_module

    holder: dict = {}
    server_cls = _capturing_server(holder)
    if args.mode == "semask":
        # cmd_serve imports ServingServer from the module when it runs.
        http_module.ServingServer = server_cls
        from repro.cli import main as cli_main

        code = cli_main(["serve", "--snapshot", args.snapshot, "--port", "0"])
    else:
        _serve_vector(args.snapshot, args.wal, server_cls)
        code = 0

    if recorder is not None:
        recorder.dump(args.trace)
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(_stats(holder["context"]), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
