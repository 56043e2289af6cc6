"""The benchmark's own tests: the host clock, the tail rule, the span
arithmetic and the output oracle.  Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import multiprocessing
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from harness import (  # noqa: E402
    REFERENCE_SPEED,
    Oracle,
    ProgramClock,
    Yardstick,
    tail_percentile,
    windowed_tail,
)
from tracing import (  # noqa: E402
    END,
    NAME,
    LayerTotals,
    SpanStore,
    install_probes,
    merge,
    self_times,
    unattributed_frac,
)


# -- the host clock -------------------------------------------------------------


def _spin_on_request(conn):
    conn.recv()
    end = time.process_time() + 0.3
    while time.process_time() < end:
        pass
    conn.send("spun")
    conn.recv()


def test_program_clock_counts_a_live_child_process():
    here, there = multiprocessing.get_context("fork").Pipe()
    child = multiprocessing.get_context("fork").Process(
        target=_spin_on_request, args=(there,)
    )
    child.start()
    try:
        clock = ProgramClock()
        assert clock.track_children() == 1
        own0 = time.process_time()
        t0 = clock.now_ns()
        here.send("go")
        assert here.recv() == "spun"  # blocks: this process stays idle
        t1 = clock.now_ns()
        own = time.process_time() - own0
        assert (t1 - t0) / 1e9 >= 0.3 and own < 0.1
        # Untracked, the child's CPU time is not on the clock.
        assert ProgramClock().now_ns() < clock.now_ns() - 0.25e9
    finally:
        here.send("exit")
        child.join(10)
    assert child.exitcode == 0


def test_yardstick_measures_until_the_block_ends_and_exits():
    with Yardstick() as yard:
        time.sleep(1.2)  # slices at 0, 0.5 and 1.0 s
    assert yard._proc.returncode == 0
    assert len(yard.rates) >= 2 and min(yard.rates) > 0
    assert yard.scale == pytest.approx(yard.speed / REFERENCE_SPEED)


# -- the tail percentile ------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    samples = [float(x) for x in range(1, 101)]
    random.Random(0).shuffle(samples)
    pct, value, n = tail_percentile(samples)
    assert (pct, value, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10


@pytest.mark.parametrize("n", [11, 37, 1000, 6421])
def test_tail_is_the_highest_qualifying_percentile(n):
    samples = random.Random(n).sample(range(10 * n), n)
    pct, value, count = tail_percentile(samples)
    beyond = sum(s > value for s in samples)
    assert count == n and beyond == 10
    # The next larger sample would leave only nine beyond it.
    assert sum(s > min(s for s in samples if s > value) for s in samples) == 9
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_windowed_tail_is_the_median_of_window_tails():
    # Five windows of 100; window w holds w*1000 + 0..99, shuffled.
    samples = []
    for w in (3, 0, 4, 1, 2):
        window = [w * 1000.0 + x for x in range(100)]
        random.Random(w).shuffle(window)
        samples += window
    pct, value, size, windows = windowed_tail(samples)
    assert (windows, size, pct) == (5, 100, 90.0)
    assert value == 2 * 1000.0 + 89  # the median window's 90th smallest
    # Fewer than two windows' worth: the whole run is one window.
    assert windowed_tail(samples[:150])[2:] == (150, 1)


# -- span arithmetic ------------------------------------------------------------


def _span(name, start, end, parent=-1, op=None):
    return [name, start, end, parent, op, 0, None]


def test_self_time_of_a_hand_built_tree():
    spans = [
        _span("root", 0, 100),  # 0
        _span("a", 10, 30, 0),  # 1: children a and b overlap on 20..30
        _span("b", 20, 50, 0),  # 2
        _span("a.x", 15, 25, 1),  # 3
        _span("c", 90, 120, 0),  # 4: runs past its parent; clipped to 90..100
    ]
    assert self_times(spans) == [
        100 - (50 - 10) - (100 - 90),  # root: children cover 10..50 and 90..100
        20 - 10,  # a minus a.x
        30,  # b has no children
        10,
        30,
    ]


def test_merge_counts_overlaps_once():
    assert merge([(0, 10), (5, 15), (20, 30), (30, 31)]) == 15 + 10 + 1
    assert merge([]) == 0


def test_layer_totals_and_unattributed_share():
    store = SpanStore()
    store.threads.append([
        _span("layer.a", 0, 40, op=1),
        _span("layer.b", 10, 20, 0, op=1),
        _span("engine.result", 0, 100, op=1),  # a wait: never covers
        _span("layer.a", 100, 130, op=2),
    ])
    store.threads.append([_span("layer.b", 30, 60, op=1)])
    totals = LayerTotals(store)
    assert totals.calls["layer.a"] == 2 and totals.calls["layer.b"] == 2
    assert totals.ns["layer.a"] == 70 and totals.self_ns["layer.a"] == 60
    assert totals.self_ns["layer.b"] == 40
    # op 1 spans 0..100; its layer spans cover 0..60 on two threads.
    # op 2 spans 100..200 and is covered for 30 of it.
    frac = unattributed_frac(store, {1: (0, 100), 2: (100, 200)})
    assert frac == pytest.approx(1 - (60 + 30) / 200)


def test_probes_record_nested_spans_and_restore():
    import repro.util.sizing as sizing
    from repro.runtime import world

    original = sizing.copy_for_transfer
    store = SpanStore()
    restore = install_probes(store)
    try:
        assert world.copy_for_transfer is not original
        store.set_op(7)
        world.copy_for_transfer(([1.0], (2, 3)))  # recursion folds in
    finally:
        restore()
    assert world.copy_for_transfer is original
    assert sizing.copy_for_transfer is original
    spans = [rec for _t, _i, rec in store.spans()]
    assert [s[NAME] for s in spans] == ["util.sizing.copy"]
    assert spans[0][END] >= spans[0][1] and spans[0][4] == 7


# -- the output oracle ------------------------------------------------------------


def test_oracle_counts_a_wrong_output():
    from workloads import JobStream

    wl = JobStream(seed=5)
    oracle = Oracle()
    wl.setup(oracle)  # one real job per gang size
    try:
        assert oracle.attempted == len(wl.GANGS) and oracle.failed == 0
        handle = wl.engine.submit(wl.job_fn, nprocs=len(wl.inputs[0]),
                                  args=(0, wl.inputs[0]))
        res = handle.result()
    finally:
        wl.teardown()
    wl._check(0, res, oracle)
    assert oracle.failed == 0
    red, xscan = res.returns[1]
    res.returns[1] = (red + 1.0, xscan)  # one rank reports a wrong sum
    wl._check(0, res, oracle)
    assert (oracle.attempted, oracle.failed) == (len(wl.GANGS) + 2, 1)
    assert oracle.fail_frac == pytest.approx(1 / (len(wl.GANGS) + 2))
    assert "reduce rank 1" in oracle.first_error


def test_oracle_fails_a_repeat_with_another_clock():
    oracle = Oracle()
    for _ in range(3):
        oracle.output(True)
    oracle.clock("x", 1e-3, 10, 1)
    oracle.clock("x", 1e-3, 10, 1)
    assert oracle.failed == 0
    oracle.clock("x", 1.5e-3, 10, 1)  # same input, another virtual time
    assert oracle.failed == 1 and oracle.clock_mismatches == 1
    assert oracle.per_op_clock() == (pytest.approx(1000.0), 10.0)


def test_oracle_counts_raised_jobs_as_all_their_ops():
    oracle = Oracle()
    oracle.raised(RuntimeError("boom"), 96)
    assert (oracle.attempted, oracle.failed) == (96, 96)
    assert oracle.fail_frac == 1.0
