"""Tests for the NAS MG substrate: 3-D blocks, the randlc fill, and the
two ZRAN3 variants."""

import numpy as np
import pytest

from repro.nas import mg_class
from repro.nas.callcounts import census
from repro.nas.common import MGClass
from repro.nas.mg import MM, Block3D, fill_zran_block, zran3_mpi, zran3_rsmpi
from repro.runtime import spmd_run
from repro.util.rng import Randlc, randlc_array
from tests.conftest import run_all

TINY = MGClass("T", 8, 8, 8)
SIZES = [1, 2, 3, 4, 6, 8]
#: Rank counts for the fill checks; 13 on 8^3 is a 1x1x13 process grid in
#: which ranks 8..12 own empty blocks.
FILL_SIZES = SIZES + [5, 7, 12, 13]


def _scalar_stream(n: int) -> np.ndarray:
    """The first ``n`` stream values from the scalar reference generator."""
    return np.array(Randlc().next_n(n))


class TestBlock3D:
    @pytest.mark.parametrize("p", SIZES + [5, 7, 12])
    def test_blocks_partition_grid(self, p):
        blocks = [Block3D.create(8, 8, 8, p, r) for r in range(p)]
        seen = np.concatenate([b.local_positions() for b in blocks])
        assert sorted(seen.tolist()) == list(range(8 * 8 * 8))
        assert sum(b.n_local for b in blocks) == 512

    def test_coords_roundtrip(self):
        b = Block3D.create(8, 8, 8, 8, 5)
        cx, cy, cz = b.coords
        assert 0 <= cx < b.px and 0 <= cy < b.py and 0 <= cz < b.pz
        assert b.rank == cx + b.px * (cy + b.py * cz)

    def test_global_linear_fortran_order(self):
        b = Block3D.create(4, 3, 2, 1, 0)
        assert b.global_linear(0, 0, 0) == 0
        assert b.global_linear(1, 0, 0) == 1
        assert b.global_linear(0, 1, 0) == 4
        assert b.global_linear(0, 0, 1) == 12

    def test_local_positions_match_fill_order(self):
        """positions[i] must be the stream index of values[i], for every
        rank of every decomposition of a cubic and a non-cubic grid."""
        for dims in [(8, 8, 8), (8, 6, 10)]:
            ref = _scalar_stream(int(np.prod(dims)))
            for p in FILL_SIZES:
                for r in range(p):
                    b = Block3D.create(*dims, p, r)
                    vals = fill_zran_block(b)
                    assert vals.dtype == np.float64
                    assert vals.shape == (b.n_local,)
                    assert np.array_equal(vals, ref[b.local_positions()]), (dims, p, r)


class TestFill:
    @pytest.mark.parametrize("p", SIZES)
    def test_fill_independent_of_p(self, p):
        whole = _scalar_stream(TINY.n_points)

        def prog(comm):
            b = Block3D.create(TINY.nx, TINY.ny, TINY.nz, comm.size, comm.rank)
            vals = fill_zran_block(b)
            out = np.full(TINY.n_points, np.nan)
            out[b.local_positions()] = vals
            return out

        parts = run_all(prog, p)
        merged = np.nanmax(np.vstack(parts), axis=0) if p > 1 else parts[0]
        assert np.array_equal(merged, whole)

    def test_empty_blocks(self):
        blocks = [Block3D.create(8, 8, 8, 13, r) for r in range(13)]
        assert (blocks[0].px, blocks[0].py, blocks[0].pz) == (1, 1, 13)
        for b in blocks[8:]:
            vals = fill_zran_block(b)
            assert vals.shape == (0,) and vals.dtype == np.float64


class TestZran3Variants:
    @pytest.mark.parametrize("p", SIZES)
    def test_variants_identical(self, p):
        r_mpi = spmd_run(lambda comm: zran3_mpi(comm, TINY), p)
        r_rsm = spmd_run(lambda comm: zran3_rsmpi(comm, TINY), p)
        for a, b in zip(r_mpi.returns, r_rsm.returns):
            assert np.array_equal(a.top_positions, b.top_positions)
            assert np.array_equal(a.bot_positions, b.bot_positions)
            assert np.array_equal(a.local, b.local)

    @pytest.mark.parametrize("p", SIZES)
    def test_result_independent_of_p(self, p):
        base = spmd_run(lambda comm: zran3_rsmpi(comm, TINY), 1).returns[0]
        out = spmd_run(lambda comm: zran3_rsmpi(comm, TINY), p).returns[0]
        assert np.array_equal(out.top_positions, base.top_positions)
        assert np.array_equal(out.bot_positions, base.bot_positions)

    def test_extrema_are_true_extrema(self):
        whole = randlc_array(TINY.n_points)
        out = spmd_run(lambda comm: zran3_rsmpi(comm, TINY), 4).returns[0]
        order = np.argsort(whole)
        assert set(out.bot_positions.tolist()) == set(order[:MM].tolist())
        assert set(out.top_positions.tolist()) == set(order[-MM:].tolist())
        # ordered by extremity
        assert np.array_equal(out.bot_positions, order[:MM])
        assert np.array_equal(out.top_positions, order[::-1][:MM])

    @pytest.mark.parametrize("p", [1, 4, 8])
    def test_planted_grid(self, p):
        res = spmd_run(lambda comm: zran3_rsmpi(comm, TINY), p)
        total_plus = sum(float((r.local == 1.0).sum()) for r in res.returns)
        total_minus = sum(float((r.local == -1.0).sum()) for r in res.returns)
        total_zero = sum(float((r.local == 0.0).sum()) for r in res.returns)
        assert total_plus == MM and total_minus == MM
        assert total_zero == TINY.n_points - 2 * MM
        grid = np.zeros(TINY.n_points)
        for r, out in enumerate(res.returns):
            b = Block3D.create(TINY.nx, TINY.ny, TINY.nz, p, r)
            grid[b.local_positions()] = out.local
        assert np.all(grid[res.returns[0].top_positions] == 1.0)
        assert np.all(grid[res.returns[0].bot_positions] == -1.0)

    def test_forty_vs_one_reduction(self):
        r_mpi = spmd_run(lambda comm: zran3_mpi(comm, TINY), 4)
        r_rsm = spmd_run(lambda comm: zran3_rsmpi(comm, TINY), 4)
        assert census(r_mpi.traces).n_reductions == 40  # the paper's count
        assert census(r_rsm.traces).n_reductions == 1

    def test_rsmpi_faster_in_virtual_time(self):
        """Fewer log-depth latencies must show up as less simulated time
        (the Figure 3 effect, in miniature)."""
        r_mpi = spmd_run(lambda comm: zran3_mpi(comm, TINY), 8)
        r_rsm = spmd_run(lambda comm: zran3_rsmpi(comm, TINY), 8)
        assert r_rsm.time < r_mpi.time

    def test_phase_timestamps(self):
        res = spmd_run(lambda comm: zran3_rsmpi(comm, TINY), 4)
        for r in res.returns:
            assert 0.0 <= r.t_fill_end <= r.t_done

    def test_real_class_shapes(self):
        cls = mg_class("S")
        assert (cls.nx, cls.ny, cls.nz) == (32, 32, 32)
        assert mg_class("C", full=True).nx == 512


class TestZran3EdgeCases:
    def test_duplicate_values_tie_to_smallest_position(self):
        """With engineered duplicates both variants must still agree."""
        cls = MGClass("T2", 4, 4, 4)
        for p in (1, 2, 4):
            a = spmd_run(lambda comm: zran3_mpi(comm, cls), p).returns[0]
            b = spmd_run(lambda comm: zran3_rsmpi(comm, cls), p).returns[0]
            assert np.array_equal(a.top_positions, b.top_positions)
            assert np.array_equal(a.bot_positions, b.bot_positions)

    def test_more_ranks_than_z_planes(self):
        cls = MGClass("T3", 4, 4, 2)
        res = spmd_run(lambda comm: zran3_rsmpi(comm, cls), 8)
        total = sum(float(np.abs(r.local).sum()) for r in res.returns)
        assert total == 2 * MM


class TestComm3:
    def test_halo_exchange_message_pattern(self):
        from repro.nas.mg import comm3

        def prog(comm):
            b = Block3D.create(8, 8, 8, comm.size, comm.rank)
            u = fill_zran_block(b)
            comm3(comm, b, u)

        res = spmd_run(prog, 8)
        tr = res.traces[0]
        # six faces per rank per call
        assert tr.p2p_calls["send"] == 6
        assert tr.p2p_calls["recv"] == 6

    def test_norms_independent_of_p(self):
        from repro.nas.mg import norm2u3

        def prog(comm):
            b = Block3D.create(8, 8, 8, comm.size, comm.rank)
            u = fill_zran_block(b)
            return norm2u3(comm, b, u)

        base = spmd_run(prog, 1).returns[0]
        for p in (2, 4, 6, 8):
            out = spmd_run(prog, p).returns[0]
            assert out[0] == pytest.approx(base[0], rel=1e-12)
            assert out[1] == pytest.approx(base[1], rel=1e-12)

    def test_vcycle_round_collective_profile(self):
        from repro.nas.mg import vcycle_communication_round

        def prog(comm):
            b = Block3D.create(8, 8, 8, comm.size, comm.rank)
            u = fill_zran_block(b)
            return vcycle_communication_round(comm, b, u, comm3_calls=5)

        res = spmd_run(prog, 4)
        tr = res.traces[0]
        assert tr.collective_calls["allreduce"] == 2  # the two norms
        assert tr.p2p_calls["send"] == 5 * 6

    def test_neighbor_is_periodic_and_symmetric(self):
        from repro.nas.mg.comm3 import _neighbor

        for p in (2, 4, 8, 12):
            for r in range(p):
                b = Block3D.create(8, 8, 8, p, r)
                for dim in range(3):
                    fwd = _neighbor(b, dim, +1)
                    b_fwd = Block3D.create(8, 8, 8, p, fwd)
                    assert _neighbor(b_fwd, dim, -1) == r
