"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload semask_query --seed 1 \\
        --seconds 10 --trace 0

Workloads (``perfbench/README.md`` gives the reasons for each):

* ``semask_query`` — ``POST /query`` on ``repro serve`` over the
  paper-scale Saint Louis corpus, distinct generated texts;
* ``vector_search`` — ``POST /search`` over a 2-shard clustered corpus
  loaded from a snapshot with prebuilt graphs;
* ``ingest_mixed`` — the same snapshot with a write-ahead log: one
  connection sends ``/upsert`` batches, the other ``/search``.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` prints the per-layer metrics: one untraced server for the
overhead baseline, then one traced server whose spans give the
breakdown. Human-readable detail (per-phase request accounting, sample
counts, the median request's breakdown, ``nproc`` and the Python
version) is printed first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Server launches per run for ``setup_s``; the last one serves the run.
SETUP_LAUNCHES = 3

def run_end_to_end(workload) -> tuple[dict, dict]:
    """Untraced: median set-up over several launches, then the load."""
    from perfbench.report import percentiles

    bench = workload.bench
    setup_times, probe_ms = [], []
    for launch in range(SETUP_LAUNCHES):
        server, setup_s, first_ms = workload.start_server()
        setup_times.append(setup_s)
        probe_ms.append(first_ms)
        if launch < SETUP_LAUNCHES - 1:
            server.stop()
    client, timed, cpu_s, quality = workload.drive(server, bench.seconds)
    after = workload.after(client, server)
    if after is not None:
        quality = after
    rss = server.rss_mb()
    client.close()
    server.stop()

    latencies = percentiles(
        [r.latency_ms for r in timed.of(workload.primary) if r.ok])
    records = bench.all_records()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_ms": (latencies["p50"], "ms"),
        "latency_p90_ms": (latencies["p90"], "ms"),
        "throughput_per_s": (workload.throughput(timed), "1/s"),
        "quality_at_10": (quality, "ratio"),
        "ok_frac": (sum(r.ok for r in records) / max(len(records), 1), "ratio"),
        "server_rss_mb": (rss, "MiB"),
    }
    detail = {
        "setup_s_samples": setup_times,
        "probe_latency_ms_samples": probe_ms,
        "latency_samples": latencies,
        "inputs_exhausted": timed.exhausted,
        "server_cpu_ms_per_request": 1e3 * cpu_s / max(len(timed.records), 1),
    }
    return metrics, detail


def run_traced(workload) -> tuple[dict, dict]:
    """An untraced baseline server, then a traced one for the breakdown."""
    from perfbench.report import Trace, batch_sizes, layer_metrics, percentiles

    bench = workload.bench
    server, _, _ = workload.start_server()
    client, untraced, cpu_s, _ = workload.drive(server, bench.seconds)
    client.close()
    server.stop()

    server, _, first_ms = workload.start_server(trace=True)
    client, timed, _, _ = workload.drive(server, bench.seconds)
    workload.after(client, server)
    client.close()
    server.stop()
    trace = Trace(server.trace_path)
    with open(server.stats_path, encoding="utf-8") as fh:
        stats = json.load(fh)

    primary = [r for r in timed.of(workload.primary) if r.ok]
    reads = [r for r in timed.of(workload.read) if r.ok]
    layers = layer_metrics(
        trace, {r.rid for r in timed.records}, len(reads),
        sum(1 for r in timed.of("query") if r.ok),
    )

    def breakdowns(records):
        rows = (trace.breakdown(r.rid, r.latency_ms) for r in records)
        return [row for row in rows if row is not None]

    def median_of(key, rows):
        values = [row[key] for row in rows]
        return statistics.median(values) if values else 0.0

    primary_parts = breakdowns(primary)
    read_parts = breakdowns(reads)
    median_request: dict = {}
    if primary_parts:
        ordered = sorted(primary_parts, key=lambda row: row["latency"])
        median_request = ordered[len(ordered) // 2]

    def p50(records):
        return percentiles([r.latency_ms for r in records])["p50"]

    untraced_p50 = p50([r for r in untraced.of(workload.primary) if r.ok])
    traced_p50 = p50(primary)
    # The ledger covers every /query the traced server answered.
    served = sum(1 for phase in bench.phases if phase.name.startswith("traced-")
                 for r in phase.records if r.op == "query" and r.ok)
    ledger = stats.get("ledger", {})
    tokens = sum(m["input_tokens"] + m["output_tokens"] for m in ledger.values())
    modeled_s = sum(m["latency_s"] for m in ledger.values())
    secondary = [r for r in untraced.of(workload.read) if r.ok]
    if workload.read == workload.primary:
        secondary = []  # no reads under concurrent writes

    metrics = {
        "serving.http.wire_ms": (
            median_of("serving.http.wire", primary_parts), "ms"),
        "serving.http.response_bytes": (
            statistics.mean(len(r.body) for r in primary) if primary else 0.0,
            "bytes"),
        "serving.batcher.wait_ms": (
            median_of("serving.batcher.wait", read_parts), "ms"),
        "serving.batcher.batch_size": (
            batch_sizes(trace, {r.rid for r in reads}), "count"),
    }
    metrics.update(layers)
    metrics.update({
        "vectordb.short_results": (workload.short_results(), "count"),
        "llm.modeled_s_per_query": (modeled_s / served if served else 0.0, "s"),
        "llm.tokens_per_query": (tokens / served if served else 0.0, "tokens"),
        "core.storage.load_s": (trace.load_s(), "s"),
        "setup.first_request_ms": (first_ms, "ms"),
        "server.cpu_ms_per_request": (
            1e3 * cpu_s / max(len(untraced.records), 1), "ms"),
        "client.search_under_write_p50_ms": (p50(secondary), "ms"),
        "client.search_under_write_per_s": (
            len(secondary) / untraced.elapsed_s, "1/s"),
        "trace.untraced_p50_ms": (untraced_p50, "ms"),
        "trace.traced_p50_ms": (traced_p50, "ms"),
        "trace.overhead_frac": (
            traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0, "ratio"),
        "trace.unattributed_ms": (median_of("unattributed", primary_parts), "ms"),
        "trace.median_request_coverage": (
            median_request.get("coverage", 0.0), "ratio"),
    })
    detail = {
        "median_request_breakdown_ms": median_request,
        "median_read_breakdown_ms": (
            sorted(read_parts, key=lambda row: row["latency"])[len(read_parts) // 2]
            if read_parts else {}),
        "breakdown_requests": len(primary_parts),
        "spans": len(trace.spans),
        "server_stats": stats,
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.report import phase_accounting
    from perfbench.workloads import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(ROOT, args.seed, args.seconds, workdir)
    try:
        started = time.monotonic()
        workload = WORKLOADS[args.workload](bench)
        prep_s = time.monotonic() - started
        # The inputs live until the end of the run: freeze them so the
        # collector's full passes never pause a connection mid-request.
        gc.collect()
        gc.freeze()
        runner = run_traced if args.trace else run_end_to_end
        metrics, detail = runner(workload)
    finally:
        bench.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # not empty: another run is using it

    records = bench.all_records()
    report = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_preparation_s": round(prep_s, 3),
        "env": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "phases": [dict(phase_accounting(p), name=p.name) for p in bench.phases],
        "oracle": {"checks": bench.oracle.checked,
                   "failures": bench.oracle.failures},
        "detail": detail,
        "metrics": {name: [value, unit] for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report, indent=1, default=str))
    result = {
        "correct": bench.oracle.ok,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
