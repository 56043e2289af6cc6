"""3-D block decomposition and randlc grid fill for NAS MG's ZRAN3.

The grid is distributed over a 3-D process grid (``MPI_Dims_create``
style factoring).  ZRAN3 fills the array with the shared ``randlc``
stream in Fortran element order (x fastest), which we reproduce exactly:
each rank generates its own sub-block as one lattice of the global
stream (:func:`~repro.util.rng.randlc_lattice`, one log-doubling jump-ahead
pass per axis), so the grid contents are bit-identical for any process
count — the property that lets the 40-reduction and 1-reduction variants
be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DistributionError
from repro.mpi.topology import dims_create
from repro.util.rng import RANDLC_SEED, randlc_lattice

__all__ = ["Block3D", "fill_zran_block"]


def _block_bounds(n: int, parts: int, idx: int) -> tuple[int, int]:
    base, extra = divmod(n, parts)
    lo = idx * base + min(idx, extra)
    return lo, lo + base + (1 if idx < extra else 0)


@dataclass(frozen=True)
class Block3D:
    """One rank's sub-block of an (nx, ny, nz) grid."""

    nx: int
    ny: int
    nz: int
    px: int
    py: int
    pz: int
    rank: int

    @classmethod
    def create(cls, nx: int, ny: int, nz: int, nprocs: int, rank: int) -> "Block3D":
        pz, py, px = dims_create(nprocs, 3)  # largest factor on z
        if px * py * pz != nprocs:
            raise DistributionError(  # pragma: no cover - dims_create exact
                f"process grid {px}x{py}x{pz} != {nprocs}"
            )
        return cls(nx, ny, nz, px, py, pz, rank)

    @property
    def coords(self) -> tuple[int, int, int]:
        """This rank's (cx, cy, cz) in the process grid (x fastest)."""
        cx = self.rank % self.px
        cy = (self.rank // self.px) % self.py
        cz = self.rank // (self.px * self.py)
        return cx, cy, cz

    @property
    def bounds(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        cx, cy, cz = self.coords
        return (
            _block_bounds(self.nx, self.px, cx),
            _block_bounds(self.ny, self.py, cy),
            _block_bounds(self.nz, self.pz, cz),
        )

    @property
    def shape(self) -> tuple[int, int, int]:
        (x0, x1), (y0, y1), (z0, z1) = self.bounds
        return (x1 - x0, y1 - y0, z1 - z0)

    @property
    def n_local(self) -> int:
        sx, sy, sz = self.shape
        return sx * sy * sz

    def global_linear(self, ix: int, iy: int, iz: int) -> int:
        """Fortran-order linear index of a *global* coordinate."""
        return ix + self.nx * (iy + self.ny * iz)

    def local_positions(self) -> np.ndarray:
        """Global linear indices of this rank's elements, in local
        (x-fastest) storage order."""
        (x0, x1), (y0, y1), (z0, z1) = self.bounds
        ix = np.arange(x0, x1)
        iy = np.arange(y0, y1)
        iz = np.arange(z0, z1)
        # local order: x fastest, then y, then z
        return (
            ix[:, None, None]
            + self.nx * (iy[None, :, None] + self.ny * iz[None, None, :])
        ).ravel(order="F")


def fill_zran_block(block: Block3D, *, seed: int = RANDLC_SEED) -> np.ndarray:
    """This rank's grid values, flat in local x-fastest order.

    Generates exactly the rank's slice of the global randlc stream — the
    (z, y, x) lattice with strides ``(nx*ny, nx, 1)`` starting at the
    block's first element — bit-identical to a serial fill.
    """
    (x0, x1), (y0, y1), (z0, z1) = block.bounds
    return randlc_lattice(
        (z1 - z0, y1 - y0, x1 - x0),
        (block.nx * block.ny, block.nx, 1),
        seed,
        skip=block.global_linear(x0, y0, z0),
    ).ravel()
