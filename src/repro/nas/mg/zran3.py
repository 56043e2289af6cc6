"""The ZRAN3 initialization of NAS MG — the subject of Figure 3.

"In the initialization of the NAS MG benchmark, an array is filled with
random numbers.  The ten largest numbers and their locations ... along
with the ten smallest numbers and their locations ... are then
identified.  These positions are then filled with positive ones and
negative ones respectively, and the rest of the array is filled with
zeros."

Two implementations:

* :func:`zran3_mpi` — the F+MPI idiom: "this portion of the computation
  ... is implemented with **forty reductions**."  For each of the 10
  largest and 10 smallest, the original finds the global extreme (one
  all-reduce) and then resolves its owner/position (a second all-reduce
  of a (flag, position) pair), re-scanning the masked local block every
  iteration: 20 extrema x 2 all-reduces = 40 reductions.

* :func:`zran3_rsmpi` — the F+RSMPI idiom: **one** user-defined
  reduction "similar to the mink and mini reductions" — our
  :class:`~repro.ops.extrema.ExtremaKLocOp` — in a single accumulate
  pass and a single combine tree.

Both return identical sparse grids (tested), because both resolve value
ties toward the smaller global position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import mpi
from repro.core.reduce import global_reduce
from repro.mpi.comm import Communicator
from repro.nas.common import MGClass
from repro.nas.mg.grid import Block3D, fill_zran_block
from repro.ops.extrema import ExtremaKLocOp
from repro.util.rng import RANDLC_SEED

__all__ = ["Zran3Result", "zran3_mpi", "zran3_mpi_fused", "zran3_rsmpi", "MM"]

#: Number of extrema of each kind ZRAN3 plants (NPB: mm = 10).
MM = 10


@dataclass
class Zran3Result:
    """One rank's outcome: its sparse block plus the chosen extrema."""

    local: np.ndarray  # this rank's block: zeros with +-1 at the extrema
    top_positions: np.ndarray  # global linear positions of the +1s (desc value)
    bot_positions: np.ndarray  # global linear positions of the -1s (asc value)
    t_fill_end: float  # virtual time after the grid fill
    t_done: float  # virtual time after planting the ones


def _setup(
    comm: Communicator, cls: MGClass, seed: int, fill_rate: str | None
) -> tuple[Block3D, np.ndarray, np.ndarray]:
    block = Block3D.create(cls.nx, cls.ny, cls.nz, comm.size, comm.rank)
    values = fill_zran_block(block, seed=seed)
    if fill_rate is not None:
        comm.charge_elements(fill_rate, len(values), "mg:fill")
    positions = block.local_positions()
    return block, values, positions


def _plant(
    positions: np.ndarray, top_pos: np.ndarray, bot_pos: np.ndarray
) -> np.ndarray:
    """Zero block with +1 at owned top positions, -1 at owned bottoms."""
    out = np.zeros(len(positions), dtype=np.float64)
    out[np.isin(positions, top_pos)] = 1.0
    out[np.isin(positions, bot_pos)] = -1.0
    return out


def zran3_mpi(
    comm: Communicator,
    cls: MGClass,
    *,
    seed: int = RANDLC_SEED,
    fill_rate: str | None = None,
    scan_rate: str | None = None,
) -> Zran3Result:
    """The forty-reduction F+MPI variant.

    ``scan_rate`` charges the per-iteration masked re-scan of the local
    block (the repeated traversal the paper's Figure 3 attributes the
    overhead to, alongside the 40 log-depth reductions).
    """
    block, values, positions = _setup(comm, cls, seed, fill_rate)
    t_fill_end = comm.context.clock.t

    chosen = np.zeros(len(values), dtype=bool)
    top_positions = np.empty(MM, dtype=np.int64)
    bot_positions = np.empty(MM, dtype=np.int64)

    for kind, out_positions in (("top", top_positions), ("bot", bot_positions)):
        chosen[:] = False
        for j in range(MM):
            # local candidate extreme over the not-yet-chosen elements
            masked = np.where(chosen, -np.inf if kind == "top" else np.inf, values)
            if scan_rate is not None:
                comm.charge_elements(scan_rate, len(values), "mg:rescan")
            if len(values) > 0:
                li = int(np.argmax(masked)) if kind == "top" else int(np.argmin(masked))
                lv = float(masked[li])
            else:
                li, lv = -1, (-np.inf if kind == "top" else np.inf)
            # reduction 1: the global extreme value
            op1 = mpi.MAX if kind == "top" else mpi.MIN
            gv = float(comm.allreduce(lv, op1))
            # reduction 2: smallest global position holding that value
            if len(values) > 0 and lv == gv:
                holders = np.where(masked == gv)[0]
                my_pos = float(positions[holders].min())
            else:
                my_pos = np.inf
            gpos = comm.allreduce((0.0, my_pos), mpi.MINLOC)
            gp = int(gpos[1])
            out_positions[j] = gp
            # mark locally if we own it
            if len(values) > 0:
                local_hit = np.where(positions == gp)[0]
                if len(local_hit):
                    chosen[local_hit[0]] = True

    local = _plant(positions, top_positions, bot_positions)
    return Zran3Result(
        local=local,
        top_positions=top_positions,
        bot_positions=bot_positions,
        t_fill_end=t_fill_end,
        t_done=comm.context.clock.t,
    )


def zran3_mpi_fused(
    comm: Communicator,
    cls: MGClass,
    *,
    seed: int = RANDLC_SEED,
    fill_rate: str | None = None,
    scan_rate: str | None = None,
) -> Zran3Result:
    """The F+MPI idiom with **bucketed fusion**: the top-10 and bottom-10
    searches run side by side, so each round's MAX and MIN ride one fused
    wave and the two MINLOC position resolutions ride another — twenty
    collectives instead of forty, bit-identical positions (the two search
    chains never interact, and fusion preserves each member's combine
    order)."""
    block, values, positions = _setup(comm, cls, seed, fill_rate)
    t_fill_end = comm.context.clock.t

    chosen_t = np.zeros(len(values), dtype=bool)
    chosen_b = np.zeros(len(values), dtype=bool)
    top_positions = np.empty(MM, dtype=np.int64)
    bot_positions = np.empty(MM, dtype=np.int64)

    for j in range(MM):
        masked_t = np.where(chosen_t, -np.inf, values)
        masked_b = np.where(chosen_b, np.inf, values)
        if scan_rate is not None:
            comm.charge_elements(scan_rate, 2 * len(values), "mg:rescan")
        if len(values) > 0:
            lv_t = float(masked_t[np.argmax(masked_t)])
            lv_b = float(masked_b[np.argmin(masked_b)])
        else:
            lv_t, lv_b = -np.inf, np.inf
        # fused wave 1: the two global extreme values
        with comm.fused() as bucket:
            h_max = bucket.allreduce(lv_t, mpi.MAX)
            h_min = bucket.allreduce(lv_b, mpi.MIN)
        gv_t, gv_b = float(h_max.result()), float(h_min.result())
        # fused wave 2: the two owner/position resolutions
        pos_t = (
            float(positions[np.where(masked_t == gv_t)[0]].min())
            if len(values) > 0 and lv_t == gv_t else np.inf
        )
        pos_b = (
            float(positions[np.where(masked_b == gv_b)[0]].min())
            if len(values) > 0 and lv_b == gv_b else np.inf
        )
        with comm.fused() as bucket:
            h_pt = bucket.allreduce((0.0, pos_t), mpi.MINLOC)
            h_pb = bucket.allreduce((0.0, pos_b), mpi.MINLOC)
        gp_t, gp_b = int(h_pt.result()[1]), int(h_pb.result()[1])
        top_positions[j] = gp_t
        bot_positions[j] = gp_b
        if len(values) > 0:
            hit = np.where(positions == gp_t)[0]
            if len(hit):
                chosen_t[hit[0]] = True
            hit = np.where(positions == gp_b)[0]
            if len(hit):
                chosen_b[hit[0]] = True

    local = _plant(positions, top_positions, bot_positions)
    return Zran3Result(
        local=local,
        top_positions=top_positions,
        bot_positions=bot_positions,
        t_fill_end=t_fill_end,
        t_done=comm.context.clock.t,
    )


def zran3_rsmpi(
    comm: Communicator,
    cls: MGClass,
    *,
    seed: int = RANDLC_SEED,
    fill_rate: str | None = None,
    scan_rate: str | None = None,
) -> Zran3Result:
    """The one-reduction F+RSMPI variant: a single ``extrema`` operator
    pass (accumulate once, combine once)."""
    block, values, positions = _setup(comm, cls, seed, fill_rate)
    t_fill_end = comm.context.clock.t

    pairs = np.column_stack([values, positions.astype(np.float64)])
    top, bot = global_reduce(
        comm,
        ExtremaKLocOp(MM),
        pairs,
        accum_rate=scan_rate,
    )
    top_positions = top[:, 1].astype(np.int64)
    bot_positions = bot[:, 1].astype(np.int64)

    local = _plant(positions, top_positions, bot_positions)
    return Zran3Result(
        local=local,
        top_positions=top_positions,
        bot_positions=bot_positions,
        t_fill_end=t_fill_end,
        t_done=comm.context.clock.t,
    )
