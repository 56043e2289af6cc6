"""Tests for the NAS randlc generator (scalar, vectorized, jump-ahead)."""

import numpy as np
import pytest

from repro.util.rng import (
    MOD46,
    RANDLC_A,
    RANDLC_SEED,
    Randlc,
    randlc_array,
    randlc_lattice,
    randlc_pow,
    randlc_skip,
)


class TestScalar:
    def test_values_in_unit_interval(self):
        rng = Randlc()
        for _ in range(1000):
            v = rng.next()
            assert 0.0 <= v < 1.0

    def test_next_n_matches_repeated_next(self):
        a, b = Randlc(), Randlc()
        many = a.next_n(257)
        singles = [b.next() for _ in range(257)]
        assert many == singles

    def test_deterministic_from_seed(self):
        assert Randlc(seed=99).next_n(10) == Randlc(seed=99).next_n(10)

    def test_different_seeds_differ(self):
        assert Randlc(seed=1).next_n(5) != Randlc(seed=2).next_n(5)

    def test_state_evolution_exact(self):
        rng = Randlc()
        rng.next()
        assert rng.state == (RANDLC_A * RANDLC_SEED) % MOD46

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            Randlc(seed=0)
        with pytest.raises(ValueError):
            Randlc(seed=MOD46)
        with pytest.raises(ValueError):
            Randlc(a=0)


class TestJumpAhead:
    def test_skip_equals_stepping(self):
        stepped = Randlc()
        stepped.next_n(1000)
        jumped = Randlc()
        jumped.skip(1000)
        assert jumped.state == stepped.state

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 100, 12345])
    def test_skipped_various(self, n):
        stepped = Randlc()
        stepped.next_n(n)
        assert Randlc().skipped(n).state == stepped.state

    def test_pow_composition(self):
        # a^(m+n) == a^m * a^n  (mod 2^46)
        m, n = 123, 4567
        assert (
            randlc_pow(RANDLC_A, m + n)
            == (randlc_pow(RANDLC_A, m) * randlc_pow(RANDLC_A, n)) % MOD46
        )

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            randlc_pow(RANDLC_A, -1)

    def test_skip_composes(self):
        s1 = randlc_skip(randlc_skip(RANDLC_SEED, 100), 250)
        s2 = randlc_skip(RANDLC_SEED, 350)
        assert s1 == s2


class TestVectorized:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 100, 1023, 4096])
    def test_matches_scalar(self, n):
        assert randlc_array(n).tolist() == Randlc().next_n(n)

    @pytest.mark.parametrize("skip", [0, 1, 5, 1000, 2**20])
    def test_skip_matches_slice(self, skip):
        direct = randlc_array(32, skip=skip)
        via_scalar = Randlc().skipped(skip).next_n(32)
        assert direct.tolist() == via_scalar

    def test_blocks_tile_the_stream(self):
        whole = randlc_array(1000)
        parts = [randlc_array(100, skip=100 * i) for i in range(10)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_zero_length(self):
        out = randlc_array(0)
        assert out.shape == (0,) and out.dtype == np.float64

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            randlc_array(-1)

    @pytest.mark.parametrize("skip", [-1, -2, -(2**40)])
    def test_negative_skip_rejected(self, skip):
        with pytest.raises(ValueError, match="skip must be non-negative"):
            randlc_array(3, skip=skip)

    @pytest.mark.parametrize(
        "kwargs",
        [{"seed": 0}, {"seed": MOD46}, {"seed": -5}, {"a": 0}, {"a": MOD46}],
    )
    def test_generator_validated_like_scalar(self, kwargs):
        with pytest.raises(ValueError):
            Randlc(**kwargs)
        with pytest.raises(ValueError):
            randlc_array(3, **kwargs)

    def test_custom_seed_and_multiplier(self):
        a = 44485709377909  # odd, below 2**46, not the NPB default
        out = randlc_array(50, seed=777, a=a, skip=9)
        assert out.tolist() == Randlc(seed=777, a=a).skipped(9).next_n(50)


class TestLattice:
    @pytest.mark.parametrize(
        "shape, strides",
        [((3, 4, 5), (100, 7, 1)), ((5, 2), (1, 9)), ((4, 3), (0, 2)), ((6,), (3,))],
    )
    def test_matches_scalar_at_offsets(self, shape, strides):
        skip = 11
        out = randlc_lattice(shape, strides, skip=skip)
        assert out.shape == shape and out.dtype == np.float64
        for k in np.ndindex(*shape):
            offset = skip + sum(i * s for i, s in zip(k, strides))
            assert out[k] == Randlc().skipped(offset).next()

    def test_contiguous_strides_tile_the_stream(self):
        out = randlc_lattice((4, 5, 6), (30, 6, 1), skip=17)
        assert np.array_equal(out.ravel(), randlc_array(120, skip=17))

    @pytest.mark.parametrize("shape", [(0, 8, 8), (3, 0, 2), (2, 2, 0)])
    def test_empty(self, shape):
        out = randlc_lattice(shape, (64, 8, 1))
        assert out.shape == shape and out.dtype == np.float64

    @pytest.mark.parametrize(
        "shape, strides", [((2, 3), (1,)), ((2, -1), (3, 1)), ((2, 3), (3, -1))]
    )
    def test_bad_layout_rejected(self, shape, strides):
        with pytest.raises(ValueError):
            randlc_lattice(shape, strides)


class TestStatistics:
    def test_mean_and_variance_near_uniform(self):
        r = randlc_array(200_000)
        assert abs(r.mean() - 0.5) < 5e-3
        assert abs(r.var() - 1.0 / 12.0) < 5e-3

    def test_no_short_cycles(self):
        r = randlc_array(10_000)
        assert len(np.unique(r)) == len(r)

    def test_lagged_correlation_small(self):
        r = randlc_array(100_000)
        c = np.corrcoef(r[:-1], r[1:])[0, 1]
        assert abs(c) < 0.01
