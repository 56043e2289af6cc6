"""Shared utilities: the NAS ``randlc`` generator and transfer sizing."""

from repro.util.rng import (
    RANDLC_A,
    RANDLC_SEED,
    Randlc,
    randlc_array,
    randlc_lattice,
    randlc_pow,
    randlc_skip,
)
from repro.util.sizing import (
    TransferSafe,
    TransferSized,
    copy_for_transfer,
    payload_nbytes,
)

__all__ = [
    "RANDLC_A",
    "RANDLC_SEED",
    "Randlc",
    "randlc_array",
    "randlc_lattice",
    "randlc_pow",
    "randlc_skip",
    "payload_nbytes",
    "copy_for_transfer",
    "TransferSafe",
    "TransferSized",
]
