"""The live workload's load generator, run as a child process of the benchmark.

Usage (the benchmark starts it; it is not meant to be run by hand)::

    python3 perfbench/loadgen.py SRC_DIR

It reads pickles from standard input and writes pickles to standard
output.  The first input is ``(address, urls, expected, clients)``; each
later one is a window length in seconds, or ``None`` to end.  For each
window it writes ``(wall seconds, [latency, ...])``.

A plain child process on two pipes, rather than ``multiprocessing``,
because a ``multiprocessing`` child brings a resource-tracker process
with it that outlives the benchmark.
"""

from __future__ import annotations

import math
import pickle
import sys
import threading
import time
from typing import Any, BinaryIO, Dict, List, Tuple


def closed_loop_clients(
    address: Tuple[str, int],
    urls: List[str],
    expected: Dict[str, bytes],
    clients: int,
    commands: BinaryIO,
    results: BinaryIO,
) -> None:
    """``clients`` closed-loop threads, one window at a time.

    It runs in a process of its own, so the clients do not compete with
    the cluster's threads for one interpreter lock.  For each window
    length read from ``commands`` (``None`` ends), the threads send
    requests for that long and ``(wall seconds, [latency, ...])`` is
    written to ``results``.  Between windows the clients are idle, so the
    host speed can be measured on a quiet CPU.  Each request is timed from
    the start of ``connect`` to the last response byte, and counts as
    failed (+inf) unless it is a 200 whose body equals the document
    store's expected content, the comparison ``cluster.verify`` makes.
    """
    from repro.handoff import fetch_one

    position = [k * len(urls) // clients for k in range(clients)]
    while True:
        seconds = pickle.load(commands)
        if seconds is None:
            return
        per_client: List[List[float]] = [[] for _ in range(clients)]

        def client(k: int) -> None:
            samples = per_client[k]
            i = position[k]
            while time.perf_counter() < deadline:
                url = urls[i % len(urls)]
                i += 1
                sent = time.perf_counter()
                try:
                    status, body = fetch_one(address, url, timeout=10.0)
                    ok = status == 200 and body == expected[url]
                except (OSError, RuntimeError, ValueError):
                    ok = False
                samples.append(time.perf_counter() - sent if ok else math.inf)
            position[k] = i

        threads = [threading.Thread(target=client, args=(k,), name=f"bench-client-{k}") for k in range(clients)]
        start = time.perf_counter()
        deadline = start + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        pickle.dump((time.perf_counter() - start, [x for per in per_client for x in per]), results)
        results.flush()


def main(argv: List[str]) -> int:
    sys.path.insert(0, argv[1])
    commands, results = sys.stdin.buffer, sys.stdout.buffer
    address, urls, expected, clients = pickle.load(commands)
    closed_loop_clients(address, urls, expected, clients, commands, results)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
