"""The NAS Parallel Benchmarks pseudo-random number generator (``randlc``).

The NPB generators (used by both IS and MG) are the 46-bit linear
congruential generator

    x_{k+1} = a * x_k  mod 2**46,        r_k = x_k * 2**-46

with the default multiplier ``a = 5**13 = 1220703125`` and default seed
``314159265``.  The generator has period 2**44 and supports O(log n)
jump-ahead because ``x_{k+n} = (a**n mod 2**46) * x_k mod 2**46``.

Two implementations are provided and tested against each other:

* :class:`Randlc` — an exact scalar generator using Python integers,
  mirroring the reference ``randlc`` routine one value at a time.
* :func:`randlc_lattice` (and its 1-D case :func:`randlc_array`) — a
  vectorized generator that fills an n-D block of the global stream with
  NumPy ``uint64`` arithmetic.  The 46-bit modular product is the plain
  wraparound multiply ``(c * x) & (2**46 - 1)``: 2**46 divides 2**64, so
  the low 46 bits of the wrapped 64-bit product are exact.  (The Fortran
  ``vranlc`` splits the product into 23-bit halves only because it
  computes in doubles.)

The block is filled by log-doubling along each axis in turn: given the
values at offsets ``[0, m)`` along an axis with stream stride ``s``, the
values at ``[m, 2m)`` are the element-wise product of ``a**(m*s) mod
2**46`` with the first run.  This is O(log n) vector passes per axis
instead of one scalar step per value.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RANDLC_A",
    "RANDLC_SEED",
    "MOD46",
    "Randlc",
    "randlc_pow",
    "randlc_skip",
    "randlc_array",
    "randlc_lattice",
]

#: Default NPB multiplier, 5**13.
RANDLC_A: int = 1220703125

#: Default NPB seed.
RANDLC_SEED: int = 314159265

#: The modulus 2**46.
MOD46: int = 1 << 46

_R46: float = 0.5 ** 46
_MASK46 = np.uint64(MOD46 - 1)


def _check_generator(seed: int, a: int) -> None:
    if not (0 < seed < MOD46):
        raise ValueError(f"seed must be in (0, 2**46), got {seed}")
    if not (0 < a < MOD46):
        raise ValueError(f"multiplier must be in (0, 2**46), got {a}")


def randlc_pow(a: int, n: int) -> int:
    """Return ``a**n mod 2**46`` (the jump-ahead multiplier for n steps)."""
    if n < 0:
        raise ValueError(f"jump-ahead exponent must be non-negative, got {n}")
    return pow(a, n, MOD46)


def randlc_skip(seed: int, n: int, a: int = RANDLC_A) -> int:
    """Return the generator state after ``n`` steps from ``seed``.

    This is the O(log n) jump-ahead used to give each process an
    independent, reproducible slice of the global random stream.
    """
    return (randlc_pow(a, n) * seed) % MOD46


class Randlc:
    """Exact scalar NAS ``randlc`` generator.

    >>> rng = Randlc()
    >>> r = rng.next()           # one double in [0, 1)
    >>> rng2 = Randlc().skipped(1)
    >>> rng2.state == Randlc(seed=rng.state).state
    True
    """

    __slots__ = ("state", "a")

    def __init__(self, seed: int = RANDLC_SEED, a: int = RANDLC_A):
        _check_generator(seed, a)
        self.state = int(seed)
        self.a = int(a)

    def next(self) -> float:
        """Advance one step and return a double in [0, 1)."""
        self.state = (self.a * self.state) % MOD46
        return self.state * _R46

    def next_n(self, n: int) -> list[float]:
        """Advance ``n`` steps, returning the n values (scalar loop)."""
        out = []
        s, a = self.state, self.a
        for _ in range(n):
            s = (a * s) % MOD46
            out.append(s * _R46)
        self.state = s
        return out

    def skip(self, n: int) -> None:
        """Jump the state forward by ``n`` steps in O(log n) time."""
        self.state = randlc_skip(self.state, n, self.a)

    def skipped(self, n: int) -> "Randlc":
        """Return a new generator whose state is ``n`` steps ahead."""
        g = Randlc(self.state, self.a)
        g.skip(n)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Randlc(state={self.state}, a={self.a})"


def randlc_lattice(
    shape: tuple[int, ...],
    strides: tuple[int, ...],
    seed: int = RANDLC_SEED,
    a: int = RANDLC_A,
    *,
    skip: int = 0,
) -> np.ndarray:
    """Return the randlc values on an n-D lattice of the global stream.

    Element ``k`` of the result (a multi-index into ``shape``) is value
    number ``skip + sum(k[i] * strides[i])`` of the stream, i.e. the value
    ``Randlc(seed, a).skipped(skip + offset).next()``.  A 3-D grid block
    stored x-fastest is the lattice of shape ``(sz, sy, sx)`` with strides
    ``(nx*ny, nx, 1)``.

    Each axis, innermost first, is filled by log-doubling: O(log n) NumPy
    passes per axis, each over a contiguous run of the output.

    Returns
    -------
    numpy.ndarray of float64 values in [0, 1), shape ``shape``.
    """
    _check_generator(seed, a)
    if skip < 0:
        raise ValueError(f"skip must be non-negative, got {skip}")
    if len(shape) != len(strides) or min((*shape, *strides), default=0) < 0:
        raise ValueError(
            f"need non-negative shape and strides of one length, got {shape}, {strides}"
        )
    states = np.empty(shape, dtype=np.uint64)
    if states.size == 0:
        return states.astype(np.float64)
    ndim = len(shape)
    states[(0,) * ndim] = randlc_skip(seed, skip + 1, a)  # value #skip
    for axis in reversed(range(ndim)):
        lead = (0,) * axis
        rest = (slice(None),) * (ndim - axis - 1)  # already filled
        n, m = shape[axis], 1
        while m < n:
            step = min(m, n - m)
            dst = states[lead + (slice(m, m + step),) + rest]
            np.multiply(
                states[lead + (slice(0, step),) + rest],
                np.uint64(randlc_pow(a, m * strides[axis])),
                out=dst,
            )
            np.bitwise_and(dst, _MASK46, out=dst)
            m += step
    return states.astype(np.float64) * _R46


def randlc_array(
    n: int,
    seed: int = RANDLC_SEED,
    a: int = RANDLC_A,
    *,
    skip: int = 0,
) -> np.ndarray:
    """Return the next ``n`` randlc values after skipping ``skip`` steps.

    Equivalent to ``Randlc(seed, a).skipped(skip).next_n(n)`` but
    vectorized: the 1-D case of :func:`randlc_lattice`.

    Parameters
    ----------
    n:
        Number of values to produce.
    seed, a:
        Generator seed and multiplier, validated like :class:`Randlc`.
    skip:
        Number of values of the stream to skip before the first returned
        value.  Lets each rank generate its block of a shared global
        stream independently.

    Returns
    -------
    numpy.ndarray of float64 values in [0, 1), shape ``(n,)``.
    """
    return randlc_lattice((n,), (1,), seed, a, skip=skip)
