"""Host-speed probe, run beside the workers for the whole of a run.

    python3 perfbench/probe.py

Every ``INTERVAL_S`` it runs a fixed piece of work that calls nothing in
freqchan and prints ``<start> <end> <cpu seconds>``, the first two on
``time.perf_counter``, whose clock all processes of a machine share.  It
stops on SIGTERM, or when the process that started it has gone.  The
runner scales each result's CPU time by how long the probe took while
that result ran (see ``host_factor`` in timing.py).
"""

from __future__ import annotations

import math
import os
import signal
import sys
import time

import numpy as np

INTERVAL_S = 0.2  # idle time between probes, so the probe loads its core lightly


def work() -> float:
    """Like the library's own work: scalar float math and calls in
    Python, and numpy on short arrays."""
    total = 0.0
    for i in range(1, 40000):
        x = i * 1e-3
        total += math.log1p(x) * math.exp(-x) + math.lgamma(1.0 + x)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(1500):
        total += float(np.log1p(a) @ a)
    return total


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    while os.getppid() == parent:
        start, cpu = time.perf_counter(), time.process_time()
        work()
        print(f"{start!r} {time.perf_counter()!r} "
              f"{time.process_time() - cpu!r}", flush=True)
        time.sleep(INTERVAL_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
