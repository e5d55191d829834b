import math
import re
from enum import Enum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ikod.numerics import (
    Rng,
    _softmax_causal_block,
    require_array,
    require_float,
    require_int,
    require_member,
    require_seed,
    softmax_rows,
)


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
    _softmax_causal_block(scores.copy(), first, out)
    for i in range(n):
        own = first + i + 1
        assert out[i, :, :own].tobytes() == softmax_rows(scores[i, :, :own]).tobytes()
        assert not out[i, :, own:].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_causal_block_rejects_a_non_finite_entry_a_row_reads(bad):
    scores = np.zeros((3, 2, 5))
    scores[1, 1, 3] = bad  # position 3 reads columns 0..3
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        _softmax_causal_block(scores, 2, np.empty_like(scores))


def test_rng_reference_stream():
    rng = Rng(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, True, np.bool_(False), 1.5, "3", None])
def test_rng_rejects_seeds_it_would_not_take_as_they_are(seed):
    """A seed outside 0..2**64 - 1 would alias the stream of its low 64
    bits, and True would pass for seed 1."""
    if type(seed) is int:
        bound = "at least 0" if seed < 0 else f"at most {2**64 - 1}"
        problem = f"^seed must be {bound}, got {seed}$"
    else:
        problem = f"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=problem):
        Rng(seed)


def test_rng_takes_a_whole_float_seed_as_that_integer():
    # As ModelConfig.seed and DecodePolicy.seed read it.
    rng = Rng(2.0)
    assert type(rng.state) is int and rng.next_u64() == Rng(2).next_u64()


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
        with pytest.raises(ValueError, match="^n must be at least 0, got -1$"):
            draw(-1)
        for n in (2.5, "3", None, True):
            problem = f"^n must be an integer, got {re.escape(repr(n))}$"
            with pytest.raises(ValueError, match=problem):
                draw(n)
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
    problem = r"^m must be a \(rows, columns\) array, got shape \(3,\)$"
    with pytest.raises(ValueError, match=problem):
        softmax_rows(np.zeros(3))


class Colour(str, Enum):
    RED = "red"
    BLUE = "blue"


# Each argument rule, called with the name "arg" and, where it takes them,
# bounds or an (n, 3) shape.
RULES = {
    "int": lambda value: require_int(value, "arg", 1),
    "bounded_int": lambda value: require_int(value, "arg", -3, 5),
    "seed": lambda value: require_seed(value, "arg"),
    "float": lambda value: require_float(value, "arg"),
    "closed_float": lambda value: require_float(value, "arg", least=-1.0, most=1.0),
    "open_float": lambda value: require_float(value, "arg", above=0.0, most=1.0),
    "member": lambda value: require_member(Colour, value, "arg"),
    "array": lambda value: require_array(value, "arg", ("n", 3)),
}

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
fractions = finite_floats.filter(lambda x: not x.is_integer())
above_one = st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)
# Malformed for every rule: booleans, None, numeric strings, non-finite
# numbers, ragged lists and arrays of one or three dimensions.
malformed_for_all = st.one_of(
    st.booleans(),
    st.sampled_from([np.bool_(True), None, math.nan, math.inf, -math.inf, np.float64(math.nan)]),
    st.integers().map(str),
    finite_floats.map(repr),
    st.lists(st.lists(finite_floats, max_size=4), min_size=2, max_size=4).filter(
        lambda rows: len({len(row) for row in rows}) > 1
    ),
    st.lists(st.integers(1, 3), min_size=1, max_size=3)
    .filter(lambda shape: len(shape) != 2)
    .map(np.ones),
)
malformed = st.one_of(
    st.tuples(st.just("int"), malformed_for_all | fractions | st.integers(max_value=0)),
    st.tuples(
        st.just("bounded_int"),
        malformed_for_all
        | fractions
        | st.sampled_from([-4, 6, -4.0, np.int64(6)])
        | st.integers(max_value=-4)
        | st.integers(min_value=6),
    ),
    st.tuples(
        st.just("seed"),
        malformed_for_all | fractions | st.integers(max_value=-1) | st.integers(min_value=2**64),
    ),
    st.tuples(st.just("float"), malformed_for_all | st.integers(min_value=2**1024)),
    st.tuples(
        st.just("closed_float"),
        malformed_for_all
        | st.sampled_from([np.nextafter(-1.0, -2.0), np.nextafter(1.0, 2.0), -2, 2])
        | st.floats(max_value=-1.0, exclude_max=True, allow_infinity=False)
        | above_one,
    ),
    st.tuples(
        st.just("open_float"),
        malformed_for_all
        | st.sampled_from([0.0, -0.0, 0, np.nextafter(1.0, 2.0)])
        | st.floats(max_value=0.0, allow_infinity=False, allow_nan=False)
        | above_one,
    ),
    st.tuples(st.just("member"), malformed_for_all | fractions | st.integers() | st.text()),
    st.tuples(
        st.just("array"),
        malformed_for_all
        | fractions
        | st.integers()
        | st.tuples(st.integers(0, 3), st.integers(0, 5).filter(lambda k: k != 3)).map(np.ones)
        # Numbers written as strings, as lists and as str, bytes or object arrays.
        | st.lists(st.lists(finite_floats.map(repr), min_size=3, max_size=3), min_size=1)
        .flatmap(lambda rows: st.sampled_from([
            rows, np.array(rows), np.array(rows, dtype=bytes), np.array(rows, dtype=object)
        ]))
        # Complex numbers, as lists and as arrays, even with no imaginary part.
        | st.lists(
            st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                     min_size=3, max_size=3),
            min_size=1,
        ).flatmap(lambda rows: st.sampled_from([rows, np.array(rows)]))
        | st.lists(st.lists(finite_floats.map(complex), min_size=3, max_size=3), min_size=1),
    ),
)


@settings(max_examples=500, deadline=None)
@given(case=malformed)
def test_each_rule_names_a_malformed_argument(case):
    rule, value = case
    with pytest.raises(ValueError, match="^arg must "):
        RULES[rule](value)


# (rule, well-formed value, the value the rule returns for it)
well_formed = st.one_of(
    st.integers(1, 2**70).map(lambda v: ("int", v, v)),
    st.integers(1, 2**53).map(lambda v: ("int", float(v), v)),
    st.integers(1, 2**63 - 1).map(lambda v: ("int", np.int64(v), v)),
    st.integers(-3, 5).map(lambda v: ("bounded_int", v, v)),
    st.sampled_from([-3, 5]).map(lambda v: ("bounded_int", float(v), v)),
    st.integers(0, 2**64 - 1).map(lambda v: ("seed", v, v)),
    st.integers(0, 2**64 - 1).map(lambda v: ("seed", np.uint64(v), v)),
    finite_floats.map(lambda v: ("float", v, v)),
    st.integers(-(2**70), 2**70).map(lambda v: ("float", v, float(v))),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(
        lambda v: ("float", np.float32(v), float(v))
    ),
    st.floats(-1.0, 1.0).map(lambda v: ("closed_float", v, v)),
    st.sampled_from([-1.0, 1.0, -1, 1]).map(lambda v: ("closed_float", v, float(v))),
    st.floats(0.0, 1.0, exclude_min=True).map(lambda v: ("open_float", v, v)),
    st.sampled_from([5e-324, 1.0, 1]).map(lambda v: ("open_float", v, float(v))),
    st.sampled_from(Colour).map(lambda c: ("member", c.value, c)),
    st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=1, max_size=4).map(
        lambda rows: ("array", rows, np.array(rows, dtype=np.float64).reshape(-1, 3))
    ),
)


@settings(max_examples=500, deadline=None)
@given(case=well_formed)
def test_each_rule_returns_a_well_formed_argument_converted(case):
    rule, value, want = case
    got = RULES[rule](value)
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert got == want


@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda: require_int(-4, "arg", -3, 5), "arg must be at least -3, got -4"),
        (lambda: require_int(6.0, "arg", -3, 5), "arg must be at most 5, got 6"),
        (lambda: require_float(-1.5, "arg", least=-1.0, most=1.0),
         "arg must be at least -1.0, got -1.5"),
        (lambda: require_float(0, "arg", above=0.0, most=1.0), "arg must be above 0.0, got 0.0"),
        (lambda: require_float(1.5, "arg", above=0.0, most=1.0),
         "arg must be at most 1.0, got 1.5"),
        # least is checked before above, and above before most.
        (lambda: require_float(-1.0, "arg", least=0.0, above=0.0),
         "arg must be at least 0.0, got -1.0"),
        (lambda: require_float(2.0, "arg", most=1.0, above=3.0), "arg must be above 3.0, got 2.0"),
    ],
    ids=["int-least", "int-most", "float-least", "float-above", "float-most",
         "float-least-before-above", "float-above-before-most"],
)
def test_a_bounded_rule_names_the_bound_a_value_breaks(call, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        call()


def test_require_array_returns_an_array_of_its_dtype_as_it_is():
    given = np.arange(6.0).reshape(2, 3)
    assert require_array(given, "a", ("n", 3)) is given
    mask = np.zeros(4, dtype=bool)
    assert require_array(mask, "mask", (4,), dtype=bool) is mask
    anchors = require_array([[0, 2]], "anchors", ("n_layers", "k"), dtype=None)
    assert anchors.dtype.kind == "i"


@pytest.mark.parametrize(
    "value, problem",
    [
        (np.zeros(3), "shape (3,)"),
        (np.zeros((2, 4)), "shape (2, 4)"),
        ([[1.0, 2.0, 3.0], [4.0]], "ragged rows or non-numbers"),
        ([["x", 1.0, 2.0]], "ragged rows or non-numbers"),
        (None, "ragged rows or non-numbers"),
        (2.0, "shape ()"),
    ],
)
def test_require_array_names_the_dimensions_it_wants(value, problem):
    want = f"^rows must be a \\(n, 3\\) array, got {re.escape(problem)}$"
    with pytest.raises(ValueError, match=want):
        require_array(value, "rows", ("n", 3))
