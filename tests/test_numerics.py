import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ikod.numerics import Rng, softmax_causal_block, softmax_rows


def test_softmax_symmetry():
    np.testing.assert_array_equal(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]])


def test_softmax_closed_form():
    out = softmax_rows([[math.log(1.0), math.log(3.0)]])
    np.testing.assert_allclose(out, [[0.25, 0.75]], rtol=1e-15)


def test_softmax_large_inputs_do_not_overflow():
    out = softmax_rows([[1000.0, 0.0]])
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = rng.normal(scale=50.0, size=(5, 17))
        sums = softmax_rows(m).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)
        assert np.all(softmax_rows(m) >= 0.0)


@pytest.mark.parametrize("first, n, heads", [(0, 9, 2), (5, 4, 1), (120, 12, 3)])
def test_causal_block_is_softmax_rows_of_each_positions_own_columns(first, n, heads):
    """Each position's row is softmax_rows of its own columns, bit for bit,
    whatever its later columns hold; those come out zero."""
    scores = np.random.default_rng(first).normal(size=(n, heads, first + n)) * 4
    later = np.arange(first + n) > np.arange(first, first + n)[:, None]
    scores[np.broadcast_to(later[:, None], scores.shape)] = np.nan
    out = np.empty_like(scores)
    softmax_causal_block(scores.copy(), first, out)
    for i in range(n):
        own = first + i + 1
        assert out[i, :, :own].tobytes() == softmax_rows(scores[i, :, :own]).tobytes()
        assert not out[i, :, own:].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_causal_block_rejects_a_non_finite_entry_a_row_reads(bad):
    scores = np.zeros((3, 2, 5))
    scores[1, 1, 3] = bad  # position 3 reads columns 0..3
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        softmax_causal_block(scores, 2, np.empty_like(scores))


def test_rng_reference_stream():
    rng = Rng(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, True, np.bool_(False), 1.5, 2.0, "3", None])
def test_rng_rejects_seeds_it_would_not_take_as_they_are(seed):
    with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, 2\*\*64 - 1\], got "):
        Rng(seed)


def test_rng_takes_numpy_integer_seeds_at_the_range_ends():
    for seed in (0, 2**64 - 1):
        for given in (seed, np.uint64(seed)):
            assert Rng(given).next_u64() == Rng(seed).next_u64()
    assert type(Rng(np.int64(5)).state) is int


def test_rng_uniform_in_unit_interval():
    rng = Rng(12345)
    for _ in range(1000):
        u = rng.next_uniform()
        assert 0.0 <= u < 1.0


def test_rng_streams_are_identical_for_equal_seeds():
    a, b = Rng(99), Rng(99)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


_GOLDEN = 0x9E3779B97F4A7C15

# Seeds a few golden-ratio steps short of the 2**64 wrap, so the counter
# state + i * golden overflows inside the first draws of a block.
near_wrap_seeds = st.builds(
    lambda k, d: (-k * _GOLDEN + d) % 2**64, st.integers(0, 4), st.integers(-3, 3)
)


# Block sizes at and around the block draw's window of 2**14 draws.
W = 1 << 14
window_plan = [(0, 0), (1, 1), (W - 1, 0), (W, 2), (W + 1, 0), (3 * W + 5, 1)]
# 1 / sqrt(d_model), the weight scale, for d_model from 1 to 10**12.
weight_scales = st.integers(1, 10**12).map(lambda d: 1.0 / math.sqrt(d))


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**64 - 1), near_wrap_seeds),
    plan=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)), max_size=8),
    scale=weight_scales,
)
@example(seed=2**64 - 1, plan=[(0, 1), (5, 0), (0, 0), (1, 2)], scale=1.0)
@example(seed=0, plan=[(3, 0)], scale=1.0)
@example(seed=0, plan=window_plan, scale=1.0)
@example(seed=(-2 * _GOLDEN + 1) % 2**64, plan=window_plan, scale=1.0)
@example(seed=2**64 - 1, plan=window_plan, scale=1.0)
@example(seed=12345, plan=window_plan, scale=1e-6)
def test_uniform_block_matches_the_scalar_stream(seed, plan, scale):
    # plan: (block size, scalar next_u64 calls after the block) pairs. Each
    # block value is (2u - 1) * scale of the scalar draw u.
    block, scalar = Rng(seed), Rng(seed)
    for n, between in plan:
        got = block.next_uniform_block(n, scale)
        want = [(2.0 * scalar.next_uniform() - 1.0) * scale for _ in range(n)]
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert block.state == scalar.state
        assert [block.next_u64() for _ in range(between)] == [
            scalar.next_u64() for _ in range(between)
        ]
    assert block.state == scalar.state


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 2**64 - 1, (-3 * _GOLDEN - 2) % 2**64])
def test_u64_block_matches_the_scalar_stream(seed):
    block, scalar = Rng(seed), Rng(seed)
    for n, between in window_plan[:5]:
        got = block.next_u64_block(n)
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert got.tolist() == [scalar.next_u64() for _ in range(n)]
        assert [block.next_u64() for _ in range(between)] == [
            scalar.next_u64() for _ in range(between)
        ]
    assert block.state == scalar.state


def test_uniform_block_rejects_bad_sizes():
    rng = Rng(3)
    for draw in (lambda n: rng.next_uniform_block(n, 1.0), rng.next_u64_block):
        with pytest.raises(ValueError):
            draw(-1)
        with pytest.raises(TypeError):
            draw(2.5)
    assert rng.state == 3
    assert rng.next_uniform_block(np.int64(4), 1.0).shape == (4,)
    assert rng.state == (3 + 4 * _GOLDEN) % 2**64


@pytest.mark.parametrize(
    "scale", ["1", math.nan, -math.inf, True, None, pytest.param(10**400, id="10**400")]
)
def test_uniform_block_takes_a_finite_number_as_its_scale(scale):
    rng = Rng(3)
    with pytest.raises(ValueError, match=f"^scale must be a finite number, got {scale!r}$"):
        rng.next_uniform_block(2, scale)
    assert rng.state == 3


def test_softmax_rows_rejects_an_array_that_is_not_2d():
    with pytest.raises(ValueError, match=r"^expected a 2-d array, got shape \(3,\)$"):
        softmax_rows(np.zeros(3))
