"""Golden digests of the NPB random stream and of every consumer layout.

The digests were taken from the original 23-bit-split generator and its
per-line MG fill.  Any change to the generator or to the way a block is
cut out of the global stream must reproduce them bit for bit; a drift
here would also go unseen by oracles that rebuild their references with
the same generator.
"""

import hashlib

import numpy as np
import pytest

from repro.nas import is_class, mg_class
from repro.nas.intsort import generate_keys_block
from repro.nas.mg import Block3D, fill_zran_block
from repro.util.rng import RANDLC_SEED, randlc_array


def _digest(*arrays: np.ndarray) -> str:
    """SHA-256 over each array's length and little-endian bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(len(a).to_bytes(8, "little"))
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


#: (n, seed, skip, a) -> digest of ``randlc_array(n, seed, a, skip=skip)``.
RANDLC_ARRAY = {
    (1, RANDLC_SEED, 0, 1220703125): "43175496698f00424a1bc4ae5e58899aa9ebb1a0c89b8ac41b925321a5d21e1d",
    (1000, 777, 0, 1220703125): "39baec27340b05b6bf06c9d302b51e5a633e744d66ee079c3ffa21eab4d0536a",
    (2**20, RANDLC_SEED, 0, 1220703125): "980490d2e8f30619ba7a860296dc5ec9b327bbbcf2a25105e5c0b44f17d42d22",
    (4096, RANDLC_SEED, 2**40 + 12345, 1220703125): "4f1a3c00075c64c4df8c09aba1e6e6778142fc66b88f5ebc72616989caa59e8d",
    (777, 271828183, 2**44 - 3, 1220703125): "f41bb12e714e49d0151fd967d3dd7f20d5523d2e59771158b37769eb587489dc",
    (513, 1, 3, 44485709377909): "87de7d9b152285623d288d5dc27d5c5e94e7c08ce14fa08dfb1874332f7e621b",
}

#: p -> digest of every rank's ``fill_zran_block`` for MG class S, in rank order.
MG_S_FILL = {
    1: "a0f2801fe8f5d033aa953aa5be8e7cf2250cb4cba8b8c273874a8159e3a768af",
    2: "1f49675b8d8197c51c69ea228b57bf591db5e91baedd46abbfb35ee5bcb06722",
    3: "1b07504f7761cf41237747be07f344002088df29a0fbff636c2f9ce34bb7461a",
    5: "7b10665d894e71340eaf498bae56781f43abb1a839154efbedbe935292def8d1",
    6: "aa9717e6e25277a3bf193c576a1d2492c0a0a6609e7177432ee94af34382b2d5",
    7: "155e23971ab401be80841f232f54c9d0038c13e2889d2cd59b903705f0871ed9",
    8: "a1dbaeeb80d6709bdffa8f044af360c14f42e73b121b5ccb54fc46c3c0e8775e",
    12: "22cddfff6bf5e2149123270729a737ccd496eae2c98e480c3aa798a0be0fcf47",
}

#: digest of every rank's IS class W key block at p = 8, in rank order.
IS_W_KEYS_P8 = "059f537a94da79c51006f42ee5a7ad69e4c4c3deeee5ac2760fa0d5f2920e917"


@pytest.mark.parametrize("n, seed, skip, a", list(RANDLC_ARRAY))
def test_randlc_array_golden(n, seed, skip, a):
    out = randlc_array(n, seed=seed, a=a, skip=skip)
    assert _digest(out) == RANDLC_ARRAY[n, seed, skip, a]


def _mg_s_fill(p: int) -> list[np.ndarray]:
    cls = mg_class("S")
    return [
        fill_zran_block(Block3D.create(cls.nx, cls.ny, cls.nz, p, r))
        for r in range(p)
    ]


@pytest.mark.parametrize("p", list(MG_S_FILL))
def test_mg_fill_golden(p):
    assert _digest(*_mg_s_fill(p)) == MG_S_FILL[p]


def _is_w_keys(p: int) -> list[np.ndarray]:
    cls = is_class("W")
    base, extra = divmod(cls.n_keys, p)
    blocks = []
    for r in range(p):
        start = r * base + min(r, extra)
        blocks.append(generate_keys_block(cls, start, base + (r < extra)))
    return blocks


def test_is_keys_golden():
    assert _digest(*_is_w_keys(8)) == IS_W_KEYS_P8
