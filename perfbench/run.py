"""The repository's benchmark: one workload per run, end-to-end metrics
from an untraced run, the per-layer split from a traced one.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload collective_small --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` sets up the workload several times (reporting the median
set-up time), then runs its closed loop for ``--seconds`` and reports
the ``end_to_end`` metrics of ``BENCHMARK.json``.  A run pins itself to
one CPU first and reads every host time on the program's CPU-time clock,
so a host that lends the CPU to someone else lengthens the run, not the
figures; the end-to-end times are scaled to a reference CPU speed that
a yardstick loop measures beside the program (see ``harness.py``).  ``--trace 1`` runs
half the time untraced and half with host-time probes around each
layer's public functions (see ``tracing.py``) and the ``repro.obs``
tracer on, and reports the ``per_layer`` metrics; its spans are written
to ``perfbench/out/``.

The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it the full record: seed, host metadata, tail
percentile and sample count, failure details.  The program under test is
imported from ``src/`` of the same checkout and nowhere else; without it
the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: An untraced run sets up at least N_SETUPS times and until the set-ups
#: took SETUP_MIN_S seconds (at most SETUP_MOST times); ``setup_s`` is
#: their median.  ``job_stream``'s 6-10 ms set-ups fall in two clusters
#: whose shares drift, so it takes 200 of them.
N_SETUPS = 5
SETUP_MIN_S = 1.5
SETUP_MOST = 200


def pin_to_one_cpu() -> tuple[int, int]:
    """Restrict the calling thread, and every thread and process it
    starts afterwards, to the lowest-numbered CPU it may run on.
    Returns ``(CPUs usable before, the CPU)``.  Call it before anything
    starts a thread: NumPy's BLAS starts its own when imported."""
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[0]})
    return len(usable), usable[0]


def _import_program() -> None:
    """Put this checkout's ``src/`` first on the path and make sure
    ``repro`` comes from there, not from an installed copy."""
    src = (ROOT / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: {src} holds no repro package; run from the root "
            f"of a checkout of the repository\n"
        )
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    where = Path(repro.__file__).resolve().parent
    if where != src / "repro":
        sys.stderr.write(f"perfbench: imported repro from {where}, not {src}\n")
        sys.exit(2)


def _spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _emit(names: list[dict], values: dict[str, float]) -> dict[str, Any]:
    """``{name: {value, unit}}`` in the order ``BENCHMARK.json`` lists
    them; a metric missing from either side is a bug here."""
    want = [m["name"] for m in names]
    if sorted(want) != sorted(values):
        raise RuntimeError(
            f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(want)}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def run_untraced(wl: Any, seconds: float) -> tuple[dict, dict, Any]:
    from harness import (
        CLOCK, MIN_OPS, REFERENCE_SPEED, Oracle, Recorder, Yardstick, now_ns,
        peak_rss_mb, windowed_tail,
    )

    oracle = Oracle()
    setups: list[float] = []
    rec = Recorder()
    with Yardstick() as yard:
        try:
            while len(setups) < N_SETUPS or (
                sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MOST
            ):
                if setups:
                    wl.teardown()
                CLOCK.track_children()  # none: the last set-up was torn down
                t0 = now_ns()
                wl.setup(oracle)
                children = CLOCK.track_children()  # the engine's workers
                setups.append((now_ns() - t0) / 1e9)
            w0, c0 = time.perf_counter(), now_ns()
            wl.run(seconds, rec, oracle, min_ops=MIN_OPS)
            wall_s, cpu_s = time.perf_counter() - w0, (now_ns() - c0) / 1e9
        finally:
            wl.teardown()
        rss = peak_rss_mb()  # before the yardstick process is reaped
    pct, tail, window, windows = windowed_tail(rec.latencies_s)
    vtime, msgs = oracle.per_op_clock()
    cpu_values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": rec.ops_per_s(),
        "op_ms_p50": statistics.median(rec.latencies_s) * 1e3,
        "op_ms_tail": tail * 1e3,
    }
    scale = yard.scale
    values = {
        "setup_s": cpu_values["setup_s"] * scale,
        "ops_per_s": cpu_values["ops_per_s"] / scale,
        "op_ms_p50": cpu_values["op_ms_p50"] * scale,
        "op_ms_tail": cpu_values["op_ms_tail"] * scale,
        "vtime_us_per_op": vtime,
        "msgs_per_op": msgs,
        "peak_rss_mb": rss,
    }
    detail = {
        "unscaled_cpu_figures": cpu_values,
        "yardstick_speed": yard.speed,
        "yardstick_slices": len(yard.rates),
        "reference_speed": REFERENCE_SPEED,
        "setup_samples_s": setups,
        "tail_percentile": pct,
        "tail_window": window,
        "tail_windows": windows,
        "latency_samples": len(rec.latencies_s),
        "ops": rec.ops,
        "jobs": rec.jobs,
        "busy_s": rec.busy_s,
        "child_processes": children,
        "wall_s": wall_s,
        "busy_frac": cpu_s / wall_s,
        "fail_frac": oracle.fail_frac,
    }
    return values, detail, oracle


def _engine_counters(wl: Any) -> dict[str, int]:
    if wl.engine is None:
        return {}
    stats = wl.engine.stats()
    out = {"failed": stats["failed"], "retried": stats["retried"]}
    if stats["ipc"] is not None:
        out.update(stats["ipc"])
    return out


def run_traced(wl: Any, seconds: float) -> tuple[dict, dict, Any]:
    from harness import CLOCK, Oracle, Recorder
    from tracing import (
        NULL_STORE,
        LayerTotals,
        SpanStore,
        VirtualPhases,
        engine_waits,
        install_probes,
        unattributed_frac,
    )

    oracle = Oracle()
    wl.setup(oracle)
    CLOCK.track_children()
    try:
        plain = Recorder()
        wl.run(seconds / 2, plain, oracle, min_ops=1)
        store = SpanStore()
        phases = VirtualPhases()
        traced = Recorder()
        before = _engine_counters(wl)
        raised_before = oracle.exceptions
        wl.store = store
        restore = install_probes(store)
        try:
            wl.run(seconds / 2, traced, oracle, min_ops=1, tracer=True,
                   phases=phases)
        finally:
            restore()
            wl.store = NULL_STORE
        after = _engine_counters(wl)
    finally:
        wl.teardown()

    def delta(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    t = LayerTotals(store)
    ops, jobs = max(traced.ops, 1), max(traced.jobs, 1)

    def per_op(name: str, table: dict) -> float:
        return table.get(name, 0) / ops

    def us_op(name: str, table: dict) -> float:
        return table.get(name, 0) / 1e3 / ops

    def us_job(name: str) -> float:
        return t.ns.get(name, 0) / 1e3 / jobs

    queue_ns, final_ns = engine_waits(store)
    frames = delta("frames")
    values = {
        "runtime.channels.deliver.calls": per_op("runtime.channels.deliver", t.calls),
        "runtime.channels.deliver.us": us_op("runtime.channels.deliver", t.ns),
        "runtime.channels.collect.calls": per_op("runtime.channels.collect", t.calls),
        "runtime.channels.collect.us": us_op("runtime.channels.collect", t.ns),
        "mpi.collectives.run_plan.calls": per_op("mpi.collectives.run_plan", t.calls),
        "mpi.collectives.run_plan.self_us": us_op("mpi.collectives.run_plan", t.self_ns),
        "mpi.schedule_cache.choose.calls": per_op("mpi.schedule_cache.choose", t.calls),
        "mpi.schedule_cache.choose.us": us_op("mpi.schedule_cache.choose", t.ns),
        "mpi.schedule_cache.hit_ratio": t.hit_ratio("mpi.schedule_cache.choose"),
        "engine.submit.calls": t.calls.get("engine.submit", 0) / jobs,
        "engine.submit.us": us_job("engine.submit"),
        "engine.queue_wait.us": statistics.fmean(queue_ns) / 1e3 if queue_ns else 0.0,
        "engine.finalize.us": statistics.fmean(final_ns) / 1e3 if final_ns else 0.0,
        "engine.jobs.failed": (
            delta("failed") if before else oracle.exceptions - raised_before
        ),
        "engine.jobs.retried": delta("retried"),
        "runtime.world.bind.calls": t.calls.get("runtime.world.bind", 0) / jobs,
        "runtime.world.bind.us": us_job("runtime.world.bind"),
        "obs.telemetry.hooks.us": us_job("obs.telemetry.hooks"),
        "core.accumulate.calls": per_op("core.accumulate", t.calls),
        "core.accumulate.self_us": us_op("core.accumulate", t.self_ns),
        "core.accumulate.elements": per_op("core.accumulate", t.amount),
        "core.kernels.compile.calls": per_op("core.kernels.compile", t.calls),
        "core.kernels.cache_hit_ratio": t.hit_ratio("core.kernels.get"),
        "localview.combine.calls": per_op("localview.combine", t.calls),
        "localview.combine.self_us": us_op("localview.combine", t.self_ns),
        "runtime.procworld.accumulate.calls": per_op("runtime.procworld.accumulate", t.calls),
        "runtime.procworld.accumulate.us": us_op("runtime.procworld.accumulate", t.ns),
        "runtime.procworld.accumulate.bytes": per_op("runtime.procworld.accumulate", t.amount),
        "runtime.procworld.shm_hit_ratio": delta("shm_hits") / frames if frames else 0.0,
        "runtime.procworld.inline_fallbacks": delta("inline_fallbacks"),
        "runtime.procworld.worker_restarts": delta("worker_restarts"),
        "util.sizing.copy.calls": per_op("util.sizing.copy", t.calls),
        "util.sizing.copy.us": us_op("util.sizing.copy", t.ns),
        "util.sizing.copy.bytes": per_op("util.sizing.copy", t.amount),
        "nas.is.sort.us": us_op("nas.is.sort", t.ns),
        "nas.is.verify_mpi.us": us_op("nas.is.verify_mpi", t.ns),
        "nas.is.verify_rsmpi.us": us_op("nas.is.verify_rsmpi", t.ns),
        "nas.mg.zran3_mpi.us": us_op("nas.mg.zran3_mpi", t.ns),
        "nas.mg.zran3_rsmpi.us": us_op("nas.mg.zran3_rsmpi", t.ns),
        "obs.vtime.accumulate_us": phases.seconds["accumulate"] * 1e6 / ops,
        "obs.vtime.combine_us": phases.seconds["combine"] * 1e6 / ops,
        "obs.vtime.generate_us": phases.seconds["generate"] * 1e6 / ops,
        "trace.unattributed_frac": unattributed_frac(store, traced.intervals),
        "trace.overhead_frac": (
            1.0 - traced.ops_per_s() / plain.ops_per_s()
            if plain.ops_per_s() > 0 else 0.0
        ),
    }
    spans_file = OUT / f"spans-{wl.name}.jsonl"  # the last traced run's
    n_spans = store.dump(spans_file)
    detail = {
        "untraced_ops": plain.ops,
        "traced_ops": traced.ops,
        "traced_jobs": traced.jobs,
        "untraced_ops_per_s": plain.ops_per_s(),
        "traced_ops_per_s": traced.ops_per_s(),
        "spans": n_spans,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "fail_frac": oracle.fail_frac,
    }
    return values, detail, oracle


def _stop_resource_tracker() -> None:
    """Shared-memory segments start multiprocessing's resource tracker
    as a child process; stop it and wait for it before exiting."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    nproc, cpu = pin_to_one_cpu()
    _import_program()
    from harness import host_metadata
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _spec()
    wl = WORKLOADS[args.workload](args.seed)  # inputs and references
    try:
        if args.trace:
            values, detail, oracle = run_traced(wl, args.seconds)
            metrics = _emit(spec["per_layer"], values)
        else:
            values, detail, oracle = run_untraced(wl, args.seconds)
            metrics = _emit(spec["end_to_end"], values)
    finally:
        _stop_resource_tracker()
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(
            ROOT, wl.backend,
            next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
            nproc, cpu,
        ),
        **detail,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "wrong_outputs": oracle.wrong_outputs,
        "exceptions": oracle.exceptions,
        "clock_mismatches": oracle.clock_mismatches,
        "first_error": oracle.first_error,
        "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
