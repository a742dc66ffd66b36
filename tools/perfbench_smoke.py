#!/usr/bin/env python
"""End-to-end smoke run of the repository benchmark (``perfbench/``).

``perfbench/run.py`` always exits 0 and reports its verdict in the JSON
on its last output line, so a broken oracle — or a renamed entry point
that silently breaks the tracer — would not fail a CI step on its own.
This script runs two short workloads and fails unless each run's last
line reports ``"correct": true`` and ``"failed": 0``:

* ``semask_query`` untraced (the ``/query`` path and its oracle), and
* ``vector_search`` traced (the span recorder patched onto the layers).

Run from the repository root::

    python tools/perfbench_smoke.py

Exit code 0 = both runs correct with no failed request; 1 otherwise
(the offending run's output is printed).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: (workload, --trace) pairs to run, each for a few seconds at seed 1.
RUNS = (("semask_query", 0), ("vector_search", 1))


def verdict(output: str) -> str | None:
    """None when the last line is a correct, failure-free result."""
    lines = output.strip().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return f"last line is not JSON: {lines[-1][:200]!r}"
    if result.get("correct") is not True:
        return f"oracle verdict correct={result.get('correct')!r}"
    if result.get("failed") != 0:
        return f"{result.get('failed')!r} failed request(s)"
    return None


def main() -> int:
    status = 0
    for workload, trace in RUNS:
        command = [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "2", "--trace", str(trace),
        ]
        run = subprocess.run(
            command, cwd=REPO, capture_output=True, text=True, check=False
        )
        problem = verdict(run.stdout)
        if run.returncode != 0 and problem is None:
            problem = f"exit code {run.returncode}"
        label = f"{workload} --trace {trace}"
        if problem is None:
            print(f"perfbench smoke OK: {label}")
            continue
        status = 1
        print(f"perfbench smoke FAILED: {label}: {problem}")
        print(run.stdout[-4000:])
        print(run.stderr[-4000:], file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
