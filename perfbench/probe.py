"""Host-speed probe: times a fixed snippet on one CPU until stdin closes.

Usage (from :mod:`perfbench.run`, which pins its workers to the same
CPU)::

    python3 perfbench/probe.py --cpu 0

Every ``PERIOD_S`` the probe wakes, runs ``_snippet`` once to warm up and
once timed, and keeps ``(perf_counter at start, duration)``.  When its
stdin reaches end of file it prints the samples as one JSON list and
exits.

On a shared host a core's speed flips between full and reduced every few
seconds (another tenant on its sibling hardware thread), which moves
wall times by up to half.  The snippet is short, so each sample reads
the core's speed at that moment and the probe takes about 2% of the
CPU.  ``perf_counter`` is the system-wide monotonic clock, so samples
line up with the workers' timestamps.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import re
import select
import sys
import time

import numpy as np

#: Seconds between samples.
PERIOD_S = 0.02


class _Item:
    __slots__ = ("key", "load")

    def __init__(self, key: int, load: float) -> None:
        self.key = key
        self.load = load


def _snippet_inputs() -> dict:
    values = np.random.default_rng(7).random(100)
    return {
        "values": values,
        "rows": [
            (int(v * 1000) % 97, float(v), f"p{i}") for i, v in enumerate(values)
        ],
        "doc": {
            "phones": [
                {"id": f"p{i}", "rate": float(v), "jobs": list(range(i % 5))}
                for i, v in enumerate(values[:10])
            ]
        },
        "text": " ".join(f"job-{i}:{v:.3f}" for i, v in enumerate(values[:30])),
        "pattern": re.compile(r"job-(\d+):(0\.\d+)"),
    }


def _snippet(inputs: dict) -> float:
    """About 150 us of the kinds of work the program does between calls
    into numpy: sorting, heaps, JSON, regular expressions, attribute and
    dict access, and small-array numpy calls.  A tight loop fits in the
    first-level caches and slows less than the program when another
    tenant shares the core; a spread of code slows about as much.
    """
    values, rows = inputs["values"], inputs["rows"]
    total = sorted(rows, key=lambda row: (row[0], -row[1]))[0][1]
    heap: list[tuple[float, str]] = []
    for _, value, name in rows[:40]:
        heapq.heappush(heap, (value, name))
    while len(heap) > 15:
        total += heapq.heappop(heap)[0]
    total += len(json.loads(json.dumps(inputs["doc"])))
    matches = inputs["pattern"].findall(inputs["text"])
    total += sum(float(match[1]) for match in matches)
    loads: dict[int, float] = {}
    for item in [_Item(i, v) for i, v in enumerate(values[:50])]:
        loads[item.key % 13] = loads.get(item.key % 13, 0.0) + item.load
    total += max(loads.values())
    matrix = values.reshape(10, 10)
    for j in range(5):
        column = matrix[:, j][np.argsort(matrix[:, j])]
        total += float(np.cumsum(column)[-1]) + int(np.searchsorted(column, 0.5))
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    inputs = _snippet_inputs()
    samples: list[tuple[float, float]] = []
    clock = time.perf_counter
    while True:
        _snippet(inputs)
        began = clock()
        _snippet(inputs)
        samples.append((began, clock() - began))
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.buffer.read1(4096):
            break
    json.dump(samples, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
