"""The four workloads: seeded inputs, references, set-up and the closed
loop each one drives.

Every workload is one client thread in one process running a closed
loop: it sends its next op only when an earlier one completed, with at
most two ops outstanding.  All inputs and references are made from the
seed before any timing; the program receives only the generated inputs,
through ``args``.

Output checks, per input:

* integer and order-free results (sums of integer-valued floats, dyadic
  prefix sums, ``MinKOp``, sorted keys, extrema positions) must equal a
  NumPy reference exactly;
* floating-point folds whose rounding depends on the combine order
  (``AffineOp`` scans, the polysum operator) must equal the value the
  thread backend produced for the same input bit for bit, and that value
  must agree with a NumPy reference within :data:`FLOAT_RTOL`;
* the NAS variants must agree with each other, with the reference, and
  both verifiers must report the keys sorted.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Hashable

import numpy as np

from repro import Engine, global_reduce, global_scan, global_xscan, spmd_run
from repro.core.operator import ReduceScanOp
from repro.nas import is_class, mg_class
from repro.nas.intsort import bucket_sort, generate_keys, verify_mpi, verify_rsmpi
from repro.nas.mg import zran3_mpi, zran3_rsmpi
from repro.nas.mg.zran3 import MM
from repro.obs.tracer import Tracer
from repro.ops import MinKOp, SumOp
from repro.ops.recurrence import AffineOp
from repro.runtime.costmodel import cluster_2006
from repro.util.rng import MOD46, randlc_array

from harness import Oracle, Recorder, now_ns
from tracing import NULL_STORE, VirtualPhases

#: Tolerance of an order-dependent float fold against its NumPy reference.
FLOAT_RTOL = 1e-9
#: Wall-clock budget of one job before it counts as hung (and failed).
JOB_TIMEOUT_S = 60.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _randlc_seed(rng: np.random.Generator) -> int:
    """An odd NPB generator seed in (0, 2**46)."""
    return int(rng.integers(1, MOD46 // 2)) * 2 - 1


def _close(a: Any, b: Any) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=np.float64),
                            np.asarray(b, dtype=np.float64),
                            rtol=FLOAT_RTOL, atol=0.0))


class PolySumOp(ReduceScanOp):
    """A user-defined operator that holds the interpreter lock: the sum
    of a degree-6 polynomial over the block, folded 512 elements at a
    time with Horner's rule (seven ufunc calls per chunk).  Defined at
    module level so the process backend can pickle it."""

    commutative = True
    accum_rate = "python_loop"
    CHUNK = 512
    COEFFS = (0.5, -1.25, 2.0, 0.75, -0.5, 1.5, -2.0)

    @property
    def name(self) -> str:
        return "perfbench_polysum"

    def ident(self) -> float:
        return 0.0

    @classmethod
    def poly(cls, x: np.ndarray) -> np.ndarray:
        acc = np.full_like(x, cls.COEFFS[0])
        for c in cls.COEFFS[1:]:
            acc = acc * x + c
        return acc

    def accum(self, state: float, x: Any) -> float:
        return state + float(self.poly(np.atleast_1d(np.float64(x))).sum())

    def combine(self, s1: float, s2: float) -> float:
        return s1 + s2

    def accum_block(self, state: float, values: Any) -> float:
        arr = np.asarray(values, dtype=np.float64)
        total = state
        for lo in range(0, len(arr), self.CHUNK):
            total += float(self.poly(arr[lo : lo + self.CHUNK]).sum())
        return total


class Workload:
    """One named workload.  Subclasses fill in the inputs, the set-up,
    the warm-up and the closed loop."""

    name = ""
    backend = "thread"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: span store of the traced segment; the null store otherwise
        self.store: Any = NULL_STORE
        self.engine: Engine | None = None
        self._next_op = 0

    # -- lifecycle ----------------------------------------------------------

    def setup(self, oracle: Oracle) -> None:
        """Build the resident engine (if any) and run the warm-up job;
        this is what ``setup_s`` times."""
        raise NotImplementedError

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.shutdown(join_timeout=10.0)
            self.engine = None

    def run(
        self,
        seconds: float,
        rec: Recorder,
        oracle: Oracle,
        *,
        min_ops: int = 0,
        tracer: bool = False,
        phases: VirtualPhases | None = None,
    ) -> None:
        """The closed loop: send ops for ``seconds`` (and at least
        ``min_ops``), check each, record host timings in ``rec``.  By
        default one op at a time, cycling through the inputs."""
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline or i < min_ops:
            self._one(i % len(self.inputs), rec, oracle, tracer, phases)
            i += 1

    def _call(self, job: int, k: int, tracer: bool) -> Any:
        """Run one op on input ``k``; returns its ``SpmdResult``."""
        raise NotImplementedError

    def _check(self, k: int, res: Any, oracle: Oracle) -> None:
        raise NotImplementedError

    def _one(self, k: int, rec: Recorder | None, oracle: Oracle,
             tracer: bool, phases: VirtualPhases | None) -> None:
        job = self._op_id()
        self.store.set_op(job)
        t0 = now_ns()
        try:
            res = self._call(job, k, tracer)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            oracle.raised(exc, 1)
            return
        t1 = now_ns()
        if rec is not None:
            rec.latencies_s.append((t1 - t0) / 1e9)
            rec.mark(1, (t1 - t0) / 1e9)
            if self.store.enabled:
                rec.intervals[job] = (t0, t1)
        self._check(k, res, oracle)
        if phases is not None:
            phases.add(res.profile)

    # -- helpers ------------------------------------------------------------

    def _op_id(self) -> int:
        self._next_op += 1
        return self._next_op

    def _submit(self, fn: Any, job: Hashable, tracer: bool, **kw: Any):
        self.store.set_op(job)
        return self.engine.submit(
            fn, tracer=Tracer() if tracer else None, timeout=JOB_TIMEOUT_S, **kw
        )

    def _traced_fn(self, program: Any):
        """The job function: ``program`` between the fn-entry/exit stamps
        that ``engine.queue_wait.us`` and ``engine.finalize.us`` read."""
        wl = self

        def job_fn(comm, job, *inputs):
            store = wl.store  # swapped between untraced and traced segments
            store.fn_enter(job)
            store.set_op(job)
            try:
                return program(comm, *inputs)
            finally:
                store.fn_exit(job)

        job_fn.__name__ = f"{self.name}_job"
        return job_fn


# ---------------------------------------------------------------------------


def _affine_prefix(pairs: np.ndarray) -> list[tuple[float, float]]:
    """Sequential composition of affine maps, the scan's reference."""
    a_acc, b_acc = 1.0, 0.0
    out = []
    for a, b in pairs:
        a_acc, b_acc = a_acc * a, b_acc * a + b
        out.append((a_acc, b_acc))
    return out


class CollectiveSmall(Workload):
    """Back-to-back small collectives inside one resident engine job."""

    name = "collective_small"
    RANKS = 8
    ELEMS = 64
    POOL = 16  # distinct inputs, cycled
    ROUNDS = 32  # rounds per job; a round is reduce + scan + affine scan
    OPS_PER_JOB = 3 * ROUNDS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = _rng(seed, 1)
        p, n = self.RANKS, self.ELEMS
        self.sums = rng.integers(-1000, 1001, size=(self.POOL, p, n)).astype(
            np.float64
        )
        self.affine = np.stack(
            [rng.uniform(0.9, 1.1, size=(self.POOL, p, n)),
             rng.uniform(-1.0, 1.0, size=(self.POOL, p, n))],
            axis=-1,
        )
        flat = self.sums.reshape(self.POOL, p * n)
        self.ref_reduce = flat.sum(axis=1)
        self.ref_scan = np.cumsum(flat, axis=1).reshape(self.POOL, p, n)
        self.ref_affine = [
            np.asarray(_affine_prefix(self.affine[k].reshape(p * n, 2))).reshape(p, n, 2)
            for k in range(self.POOL)
        ]
        #: first thread-backend affine output per input (bit-exact repeats)
        self.seen_affine: dict[int, list] = {}

        pool, rounds = self.POOL, self.ROUNDS
        wl = self

        def program(comm, op_base, sums, affine):
            r = comm.rank
            stamps = []
            outs = []
            set_op = wl.store.set_op
            for i in range(rounds):
                k = i % pool
                for j in range(3):
                    op = op_base + 3 * i + j
                    set_op(op)
                    t0 = now_ns()
                    if j == 0:
                        out = global_reduce(comm, SumOp(), sums[k, r])
                    elif j == 1:
                        out = global_scan(comm, SumOp(), sums[k, r])
                    else:
                        out = global_scan(comm, AffineOp(), affine[k, r])
                    stamps.append((op, t0, now_ns()))
                    outs.append(out)
            return outs, (stamps if r == 0 else None)

        self.job_fn = self._traced_fn(program)

    def _check_job(self, result: Any, oracle: Oracle) -> None:
        outs = [ret[0] for ret in result.returns]
        for i in range(self.ROUNDS):
            k = i % self.POOL
            for j, check in enumerate((self._reduce_ok, self._scan_ok, self._affine_ok)):
                # One op is one collective call, made by every rank.
                verdict: bool | str = True
                for r in range(self.RANKS):
                    got = check(k, r, outs[r][3 * i + j])
                    if got is not True:
                        verdict = got
                        break
                oracle.output(verdict)
        # Every job runs the same rounds on the same inputs.
        oracle.clock("job", result.time, result.summary_trace.n_sends,
                     self.OPS_PER_JOB)

    def _reduce_ok(self, k: int, r: int, out: Any) -> bool | str:
        return bool(out == self.ref_reduce[k]) or f"reduce rank {r}"

    def _scan_ok(self, k: int, r: int, out: list) -> bool | str:
        return (bool(np.array_equal(np.asarray(out), self.ref_scan[k, r]))
                or f"scan rank {r}")

    def _affine_ok(self, k: int, r: int, out: list) -> bool | str:
        seen = self.seen_affine.setdefault(k, [None] * self.RANKS)
        if seen[r] is None:
            if not _close(out, self.ref_affine[k][r]):
                return f"affine scan rank {r} off the NumPy reference"
            seen[r] = out
            return True
        return out == seen[r] or f"affine scan rank {r} not bit-identical"

    def _job(self, rec: Recorder | None, oracle: Oracle, tracer: bool,
             phases: VirtualPhases | None) -> None:
        n = self._op_id()
        job = ("job", n)  # the job's key; its collectives are ops n*1000+i
        t0 = now_ns()
        try:
            res = self._submit(
                self.job_fn, job, tracer,
                args=(job, n * 1000, self.sums, self.affine),
            ).result()
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            oracle.raised(exc, self.OPS_PER_JOB)
            return
        t1 = now_ns()
        self._check_job(res, oracle)
        if phases is not None:
            phases.add(res.profile)
        if rec is not None:
            rec.mark(self.OPS_PER_JOB, (t1 - t0) / 1e9)
            for op, s, e in res.returns[0][1]:
                rec.latencies_s.append((e - s) / 1e9)
                if self.store.enabled:
                    rec.intervals[op] = (s, e)

    def setup(self, oracle: Oracle) -> None:
        self.engine = Engine(self.RANKS, backend=self.backend)
        self._job(None, oracle, False, None)

    def run(self, seconds, rec, oracle, *, min_ops=0, tracer=False, phases=None):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or rec.ops < min_ops:
            self._job(rec, oracle, tracer, phases)


# ---------------------------------------------------------------------------


class JobStream(Workload):
    """Many tiny jobs through admission, placement and finalize."""

    name = "job_stream"
    RANKS = 8
    GANGS = (2, 3, 5, 6, 8)
    ELEMS = 64
    POOL = 10
    OUTSTANDING = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = _rng(seed, 2)
        self.inputs = []
        self.refs = []
        for i in range(self.POOL):
            g = self.GANGS[i % len(self.GANGS)]
            x = rng.integers(-1000, 1001, size=(g, self.ELEMS)).astype(np.float64)
            flat = x.ravel()
            xscan = np.concatenate(([0.0], np.cumsum(flat)[:-1])).reshape(g, -1)
            self.inputs.append(x)
            self.refs.append((flat.sum(), xscan))

        def program(comm, x):
            local = x[comm.rank]
            return (global_reduce(comm, SumOp(), local),
                    global_xscan(comm, SumOp(), local))

        self.job_fn = self._traced_fn(program)

    def _check(self, k: int, res: Any, oracle: Oracle) -> None:
        total, xscan = self.refs[k]
        ok: bool | str = True
        for r, (red, xs) in enumerate(res.returns):
            if red != total:
                ok = f"reduce rank {r}"
            elif not np.array_equal(np.asarray(xs, dtype=np.float64), xscan[r]):
                ok = f"xscan rank {r}"
            if ok is not True:
                break
        oracle.output(ok)
        oracle.clock(k, res.time, res.summary_trace.n_sends, 1)

    def _send(self, k: int, tracer: bool):
        job = self._op_id()
        x = self.inputs[k]
        t0 = now_ns()
        handle = self._submit(self.job_fn, job, tracer, nprocs=len(x),
                              args=(job, x))
        return job, k, t0, handle

    def _drive(self, seconds, rec, oracle, min_ops, tracer, phases):
        deadline = time.perf_counter() + seconds
        inflight: deque = deque()
        sent = 0
        t_prev = now_ns()
        while True:
            more = time.perf_counter() < deadline or sent < min_ops
            while more and len(inflight) < self.OUTSTANDING:
                inflight.append(self._send(sent % self.POOL, tracer))
                sent += 1
            if not inflight:
                break
            job, k, t0, handle = inflight.popleft()
            self.store.set_op(job)
            try:
                res = handle.result()
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                oracle.raised(exc, 1)
                continue
            t1 = now_ns()
            if rec is not None:
                # Two jobs overlap: the loop was busy since the previous
                # completion, not for the whole latency.
                rec.mark(1, (t1 - t_prev) / 1e9)
                rec.latencies_s.append((t1 - t0) / 1e9)
                if self.store.enabled:
                    rec.intervals[job] = (t0, t1)
            t_prev = t1
            # Checking while the other job runs costs the loop about 2%
            # of a job; holding every result until the end would grow
            # memory with the op count instead.
            self._check(k, res, oracle)
            if phases is not None:
                phases.add(res.profile)

    def setup(self, oracle: Oracle) -> None:
        self.engine = Engine(self.RANKS, telemetry=True, backend=self.backend)
        self._drive(0.0, None, oracle, len(self.GANGS), False, None)

    def run(self, seconds, rec, oracle, *, min_ops=0, tracer=False, phases=None):
        self._drive(seconds, rec, oracle, min_ops, tracer, phases)


# ---------------------------------------------------------------------------


def _polysum_program(comm, x):
    return global_reduce(comm, PolySumOp(), x[comm.rank])


class BulkFold(Workload):
    """Large accumulate phases offloaded to the process backend."""

    name = "bulk_fold"
    RANKS = 4
    ELEMS = 1_000_000
    POOL = 2
    K = 8
    backend = "process"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = _rng(seed, 3)
        # Dyadic values (multiples of 2**-10 in [-1, 1]): every prefix
        # sum is exact in float64, so the scan reference is exact too.
        self.inputs = [
            rng.integers(-1024, 1025, size=(self.RANKS, self.ELEMS)) / 1024.0
            for _ in range(self.POOL)
        ]
        self.ref_mink, self.ref_scan, self.ref_poly = [], [], []
        for x in self.inputs:
            flat = x.ravel()
            self.ref_mink.append(np.sort(flat)[: self.K][::-1])
            self.ref_scan.append(np.cumsum(flat).reshape(x.shape))
            # The polysum is an order-dependent float sum: its reference
            # is the thread backend's value, itself checked against NumPy.
            value = spmd_run(_polysum_program, self.RANKS, args=(x,),
                             backend="thread", timeout=JOB_TIMEOUT_S).returns[0]
            numpy_value = float(PolySumOp.poly(flat).sum())
            if not _close(value, numpy_value):
                raise RuntimeError(
                    f"thread-backend polysum {value!r} is off the NumPy "
                    f"reference {numpy_value!r}"
                )
            self.ref_poly.append(value)

        def program(comm, x):
            local = x[comm.rank]
            return (global_reduce(comm, PolySumOp(), local),
                    global_reduce(comm, MinKOp(self.K), local),
                    global_scan(comm, SumOp(), local))

        self.job_fn = self._traced_fn(program)

    def _check(self, k: int, res: Any, oracle: Oracle) -> None:
        ok: bool | str = True
        for r, (poly, mink, scan) in enumerate(res.returns):
            if poly != self.ref_poly[k]:
                ok = f"polysum rank {r}"
            elif not np.array_equal(mink, self.ref_mink[k]):
                ok = f"mink rank {r}"
            elif not np.array_equal(
                np.fromiter(scan, dtype=np.float64, count=len(scan)),
                self.ref_scan[k][r],
            ):
                ok = f"scan rank {r}"
            if ok is not True:
                break
        oracle.output(ok)
        oracle.clock(k, res.time, res.summary_trace.n_sends, 1)

    def _call(self, job: int, k: int, tracer: bool) -> Any:
        return self._submit(
            self.job_fn, job, tracer, args=(job, self.inputs[k])
        ).result()

    def setup(self, oracle: Oracle) -> None:
        self.engine = Engine(self.RANKS, backend=self.backend)
        self._one(0, None, oracle, False, None)


# ---------------------------------------------------------------------------

#: Deterministic cost model of the NAS workload: the paper-era
#: interconnect and the library's default per-element rates, so virtual
#: time never depends on the host (unlike a calibrated model).
NAS_COST = cluster_2006()


def _mg_reference(cls: Any, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Global positions of the MM largest (by descending value) and MM
    smallest (ascending) grid values, ties to the smaller position."""
    values = randlc_array(cls.nx * cls.ny * cls.nz, seed=seed)
    pos = np.arange(len(values))
    top = np.lexsort((pos, -values))[:MM]
    bot = np.lexsort((pos, values))[:MM]
    return top, bot


class PaperNas(Workload):
    """The paper's case studies through ``spmd_run``."""

    name = "paper_nas"
    RANKS = 8
    POOL = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = _rng(seed, 4)
        self.cls_is = is_class("W")
        self.cls_mg = mg_class("S")
        self.inputs = [(_randlc_seed(rng), _randlc_seed(rng)) for _ in range(self.POOL)]
        self.refs = [
            (np.sort(generate_keys(self.cls_is, seed=is_seed)),
             *_mg_reference(self.cls_mg, mg_seed))
            for is_seed, mg_seed in self.inputs
        ]
        cls_is, cls_mg = self.cls_is, self.cls_mg

        def program(comm, is_seed, mg_seed):
            s = bucket_sort(comm, cls_is, seed=is_seed)
            ok_mpi = verify_mpi(comm, s.local_sorted, check_rate="numpy_stream2")
            ok_rsmpi = verify_rsmpi(comm, s.local_sorted, check_rate="numpy_stream")
            z_mpi = zran3_mpi(comm, cls_mg, seed=mg_seed, scan_rate="numpy_stream")
            z_rsmpi = zran3_rsmpi(comm, cls_mg, seed=mg_seed, scan_rate="numpy_stream")
            return s.local_sorted, ok_mpi, ok_rsmpi, z_mpi, z_rsmpi

        self.job_fn = self._traced_fn(program)

    def _check(self, k: int, res: Any, oracle: Oracle) -> None:
        keys, top, bot = self.refs[k]
        rets = res.returns
        gathered = np.concatenate([r[0] for r in rets])
        ok: bool | str = True
        if not (bool(np.all(gathered[1:] >= gathered[:-1]))
                and np.array_equal(gathered, keys)):
            ok = "IS keys not the sorted reference"
        elif not all(r[1] and r[2] for r in rets):
            ok = "an IS verifier reported unsorted keys"
        else:
            for r, (_keys, _m, _s, z_mpi, z_rs) in enumerate(rets):
                if not (np.array_equal(z_mpi.top_positions, top)
                        and np.array_equal(z_mpi.bot_positions, bot)
                        and np.array_equal(z_rs.top_positions, top)
                        and np.array_equal(z_rs.bot_positions, bot)
                        and np.array_equal(z_mpi.local, z_rs.local)):
                    ok = f"ZRAN3 variants disagree on rank {r}"
                    break
        oracle.output(ok)
        oracle.clock(k, res.time, res.summary_trace.n_sends, 1)

    def _call(self, job: int, k: int, tracer: bool) -> Any:
        return spmd_run(
            self.job_fn, self.RANKS, args=(job, *self.inputs[k]),
            cost_model=NAS_COST, timeout=JOB_TIMEOUT_S,
            tracer=Tracer() if tracer else None,
        )

    def setup(self, oracle: Oracle) -> None:
        # No resident engine: every spmd_run call builds its own, so the
        # set-up is the first (warm-up) call.
        self._one(0, None, oracle, False, None)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CollectiveSmall, JobStream, BulkFold, PaperNas)
}
