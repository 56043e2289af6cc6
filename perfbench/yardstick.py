"""The host-speed yardstick: a fixed pure-Python loop that times itself
on its own CPU clock every :data:`PERIOD_S` seconds while a run
measures the program beside it, on the same CPU.

The CPU a run is pinned to does not run at one speed: on a shared host
the program's CPU cost per op and this loop's rate rise and fall
together, by up to 1.7x, in spells lasting minutes, with whatever else
the physical host runs.  ``harness.Yardstick`` scales every end-to-end
time by the loop's median rate over the run, so a figure reads what the
program would cost on a CPU running the loop at
``harness.REFERENCE_SPEED``.

Run as a child process of the benchmark; it stops when its standard
input closes and prints, as its only output, the JSON list of the rates
it measured, in loop iterations per CPU microsecond.
"""

from __future__ import annotations

import json
import select
import sys
import time

#: Iterations of one timed slice: about 6 ms of CPU on a 2 GHz Xeon.
LOOP = 60_000
#: Wall seconds between slices; the slices take ~1% of the CPU.
PERIOD_S = 0.5


def slice_rate() -> float:
    """One timed slice, in loop iterations per CPU microsecond."""
    t0 = time.process_time_ns()
    x = 0
    for i in range(LOOP):
        x += i * i % 7
    return LOOP * 1e3 / (time.process_time_ns() - t0)


def main() -> int:
    rates = []
    while True:
        rates.append(slice_rate())
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break  # stdin readable: closed by the benchmark
    print(json.dumps(rates))
    return 0


if __name__ == "__main__":
    sys.exit(main())
