"""Measurement plumbing shared by every workload: the host clock, the
output oracle, the per-run recorder, the summary statistics and the host
metadata.

Nothing here imports :mod:`repro`.

The host clock
--------------

A run is pinned to one CPU (``run.pin_to_one_cpu``) before it starts a
thread or a process, and every host time is read on :data:`CLOCK`: the
CPU time of this process (all its threads) plus that of every live child
process it started.  The program keeps that one CPU busy from the start
of an op to its end (rank threads and worker processes hand off to each
other and never sleep; ``busy_frac`` reads 0.99-1.00 on every workload),
so on a CPU nobody else uses the clock reads what a wall clock would.
When the host takes the CPU away, to another process or as hypervisor
steal (on a kernel that accounts steal time), the wall clock counts the
gap and this clock does not.  On a two-CPU virtual machine, a busy loop
sharing the pinned CPU cut the wall-clock rate of ``collective_small``
by 26% and moved the figures on this clock by under 2%.  Unpinned, the
eight rank threads of the thread backend contend for the interpreter
lock across both CPUs, and how often a handoff crosses CPUs follows
whatever else the host runs: there, a busy loop on one CPU made
``collective_small`` and ``job_stream`` 40-65% *faster*.

The pinned CPU's speed still drifts with what else the physical host
runs, by up to 1.7x in spells lasting minutes, and the program's CPU
cost per op drifts with it.  So an untraced run also runs
``yardstick.py`` beside the program on the same CPU (:class:`Yardstick`)
and reports every end-to-end time scaled to the reference speed
:data:`REFERENCE_SPEED`: times in ``ref_ms``, rates per ``ref_s``.
In ten 30-second runs of each workload on a two-CPU virtual machine, the
spread (quartile distance over median) of ``ops_per_s`` was 0.02-0.07
scaled against 0.08-0.12 unscaled.  Each
record states the clock, the yardstick's median speed, the unscaled
figures and the share of wall time the program was on its CPU
(``busy_frac``).
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Hashable

import numpy as np

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Ops an untraced run makes at least, so that its tail exists.
MIN_OPS = TAIL_MIN_BEYOND + 1
#: The tail is taken in windows of this many consecutive latencies (so
#: the percentile is p90 in each) and the median over windows reported:
#: a run's p99.9 moves with every few-millisecond stall of a shared host,
#: p90 of a 100-op window moves with the host's load like the median does.
TAIL_WINDOW = 100


#: Name of the host clock, as every record states it.
CLOCK_NAME = (
    "program CPU time on one pinned CPU, end-to-end figures scaled to "
    "the reference yardstick speed"
)
#: Yardstick loop iterations per CPU microsecond of the reference CPU,
#: about what a 2 GHz Xeon runs when its host is busy.
REFERENCE_SPEED = 10.0


def _process_cpu_clock(pid: int) -> int:
    """Linux's clock id of the CPU time of process ``pid`` (all its
    threads), as ``clock_getcpuclockid(3)`` makes it."""
    return ((~pid) << 3) | 2


class ProgramClock:
    """CPU time of this process plus that of the child processes that
    :meth:`track_children` last found alive, in nanoseconds.

    Call :meth:`track_children` after the program started or stopped
    child processes and before reading times that should include them.
    A child that exits takes its CPU time out of the sum, so no timed
    interval may span a child's exit.
    """

    def __init__(self) -> None:
        self._children: tuple[int, ...] = ()

    def track_children(self) -> int:
        """Start counting every live child process; returns how many."""
        self._children = tuple(
            _process_cpu_clock(p.pid) for p in multiprocessing.active_children()
        )
        return len(self._children)

    def now_ns(self) -> int:
        t = time.clock_gettime_ns(time.CLOCK_PROCESS_CPUTIME_ID)
        for clock in self._children:
            try:
                t += time.clock_gettime_ns(clock)
            except OSError:  # exited since it was tracked
                pass
        return t


CLOCK = ProgramClock()
#: The host clock every timing of a run reads.
now_ns = CLOCK.now_ns


class Yardstick:
    """``yardstick.py`` running beside the body of a ``with`` block, on
    the CPU this process is pinned to (a child inherits the pinning).
    Not a multiprocessing child, so :data:`CLOCK` never counts it.
    Leaving the block stops it and waits for it."""

    def __init__(self) -> None:
        self.rates: list[float] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Yardstick":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("yardstick.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc: Any) -> None:
        try:
            out, _ = self._proc.communicate(timeout=30)  # closes its stdin
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise
        self.rates = json.loads(out)

    @property
    def speed(self) -> float:
        """Median yardstick rate, iterations per CPU microsecond."""
        return statistics.median(self.rates)

    @property
    def scale(self) -> float:
        """Reference seconds per program CPU second."""
        return self.speed / REFERENCE_SPEED


def chunks(seq: list, min_size: int) -> list[list]:
    """``seq`` cut into as many consecutive chunks of at least
    ``min_size`` items as it holds (one chunk when there are too few),
    whose sizes differ by at most one."""
    k = max(1, len(seq) // min_size)
    bounds = [len(seq) * i // k for i in range(k + 1)]
    return [seq[bounds[i] : bounds[i + 1]] for i in range(k)]


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_MIN_BEYOND`
    samples beyond it: ``(percentile, value, n)``.

    With ``n`` samples sorted ascending, the value is the
    ``(n - 10)``-th smallest: the ten samples after it lie beyond it,
    and the percentile is ``100 * (n - 10) / n``.
    """
    n = len(samples)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(
            f"a tail percentile needs more than {TAIL_MIN_BEYOND} samples, "
            f"got {n}"
        )
    ordered = sorted(samples)
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, ordered[n - TAIL_MIN_BEYOND - 1], n


def windowed_tail(samples: list[float]) -> tuple[float, float, int, int]:
    """The run's tail: :func:`tail_percentile` of each window of
    :data:`TAIL_WINDOW` consecutive latencies, as ``(percentile, median
    of the window tails, samples per window, windows)``; percentile and
    window size are medians over windows, whose sizes differ by at most
    one.  A run of fewer than two windows is one window."""
    tails = [tail_percentile(w) for w in chunks(samples, TAIL_WINDOW)]
    return (
        statistics.median(t[0] for t in tails),
        statistics.median(t[1] for t in tails),
        int(statistics.median(t[2] for t in tails)),
        len(tails),
    )


@dataclass
class Oracle:
    """Counts every op as attempted, and as failed when it raised or its
    output disagreed with the reference.

    The same input must always produce the same virtual makespan and the
    same number of messages: those are the paper's reproduction clock
    and are never averaged, so a repeat that differs fails the ops it
    covers.
    """

    attempted: int = 0
    failed: int = 0
    wrong_outputs: int = 0
    exceptions: int = 0
    clock_mismatches: int = 0
    first_error: str | None = None
    #: input key -> (virtual seconds, messages, ops) of its first run
    clocks: dict[Hashable, tuple[float, int, int]] = field(default_factory=dict)

    def _fail(self, n: int, why: str) -> None:
        self.failed = min(self.attempted, self.failed + n)
        if self.first_error is None:
            self.first_error = why

    def output(self, ok: bool | str) -> None:
        """One completed op: ``ok`` is True when its output matched the
        reference, else False or a string saying what disagreed."""
        self.attempted += 1
        if isinstance(ok, str) or not ok:
            self.wrong_outputs += 1
            self._fail(1, f"wrong output: {ok or 'mismatch'}")

    def raised(self, exc: BaseException, n_ops: int) -> None:
        """A job that raised instead of returning its ``n_ops`` ops."""
        self.attempted += n_ops
        self.exceptions += 1
        self._fail(n_ops, f"{type(exc).__name__}: {exc}")

    def clock(self, key: Hashable, vtime: float, msgs: int, n_ops: int) -> None:
        """The virtual makespan and message count of a run of ``n_ops``
        ops on input ``key``; a repeat that differs fails those ops."""
        seen = self.clocks.setdefault(key, (vtime, msgs, n_ops))
        if seen != (vtime, msgs, n_ops):
            self.clock_mismatches += 1
            self._fail(
                n_ops,
                f"input {key!r}: virtual time/messages {(vtime, msgs)} "
                f"differ from the first run's {seen[:2]}",
            )

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def per_op_clock(self) -> tuple[float, float]:
        """Mean virtual µs and messages per op over the distinct inputs
        seen, each input weighted once, so the figure does not depend on
        how many ops the host managed in the time allowed."""
        if not self.clocks:
            return 0.0, 0.0
        us = [v * 1e6 / n for v, _m, n in self.clocks.values()]
        msgs = [m / n for _v, m, n in self.clocks.values()]
        return statistics.fmean(us), statistics.fmean(msgs)


@dataclass
class Recorder:
    """Host-side samples of one measured segment."""

    latencies_s: list[float] = field(default_factory=list)
    #: (ops, host seconds they kept the loop busy) per completion
    marks: list[tuple[int, float]] = field(default_factory=list)
    jobs: int = 0
    #: op id -> (start ns, end ns) as the client or rank 0 saw it
    intervals: dict[Hashable, tuple[int, int]] = field(default_factory=dict)

    def mark(self, ops: int, busy_s: float) -> None:
        self.marks.append((ops, busy_s))
        self.jobs += 1

    @property
    def ops(self) -> int:
        return sum(m[0] for m in self.marks)

    @property
    def busy_s(self) -> float:
        return sum(m[1] for m in self.marks)

    def ops_per_s(self) -> float:
        """Ops completed per busy second over the whole segment.  The
        CPU cost of an op drifts by 10-20% between regimes lasting
        seconds, at a constant number of thread switches per op, so the
        whole-run rate is steadier than a median over chunks."""
        busy = self.busy_s
        return self.ops / busy if busy > 0 else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest of its
    reaped child processes (``getrusage`` reports children as a
    maximum, not a sum), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is KiB on Linux


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git
    (the benchmark may run from an export that has no ``.git``)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata(
    root: Path, backend: str, why: str, nproc: int, cpu: int
) -> dict[str, Any]:
    """What every result record carries about where it was measured:
    ``nproc`` CPUs were usable before the run pinned itself to ``cpu``."""
    return {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "clock": CLOCK_NAME,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backend": backend,
        "git_commit": git_commit(root),
        "why": why,
    }
