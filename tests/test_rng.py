import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrlab.rng import derive_choices, derive_rng, derive_seed, derive_streams


def test_same_key_same_stream():
    a = derive_rng(7, "op", "x").random(8)
    b = derive_rng(7, "op", "x").random(8)
    assert np.array_equal(a, b)


def test_different_parts_different_streams():
    a = derive_rng(7, "op", "x").random(8)
    b = derive_rng(7, "op", "y").random(8)
    c = derive_rng(8, "op", "x").random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_int_and_str_parts_are_distinct_keys_only_by_value():
    # parts are stringified, so 1 and "1" intentionally collide
    a = derive_rng(0, "k", 1).random(4)
    b = derive_rng(0, "k", "1").random(4)
    assert np.array_equal(a, b)


def test_draw_order_independence():
    # consuming one stream never affects another
    r1 = derive_rng(3, "a")
    r2 = derive_rng(3, "b")
    x = r2.random(5)
    r1.random(100)
    y = derive_rng(3, "b").random(5)
    assert np.array_equal(x, y)


def test_derive_seed_range_and_determinism():
    s1 = derive_seed(11, "x")
    s2 = derive_seed(11, "x")
    s3 = derive_seed(11, "y")
    assert s1 == s2 != s3
    assert 0 <= s1 < 2**63


@st.composite
def choice_blocks(draw):
    """(seed, name, lo, hi, n, m) with m from 1 to n - 1, both ends included."""
    n = draw(st.integers(2, 60))
    m = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    lo = draw(st.integers(0, 300))
    return (draw(st.integers(0, 2**130)), draw(st.one_of(st.text(max_size=8), st.integers(-5, 10**6))),
            lo, lo + draw(st.integers(0, 6)), n, m)


@settings(max_examples=300, deadline=None)
@given(choice_blocks())
def test_derive_choices_equal_one_stream_per_row(block):
    seed, name, lo, hi, n, m = block
    rows = derive_choices(seed, name, lo, hi, n, m)
    assert rows.dtype == np.int64 and rows.shape == (hi - lo, m)
    for row, r in zip(rows, range(lo, hi)):
        assert np.array_equal(row, derive_rng(seed, name, r).choice(n, size=m, replace=False))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**127, 2**128 - 1, 2**128, 2**130])
def test_derive_choices_at_seed_word_boundaries(seed):
    # the seed fills one to five 32-bit entropy words
    expected = [derive_rng(seed, "node_kappa", r).choice(1000, size=194, replace=False) for r in range(40, 45)]
    assert np.array_equal(derive_choices(seed, "node_kappa", 40, 45, 1000, 194), np.stack(expected))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**130), st.text(max_size=8),
       st.lists(st.one_of(st.text(max_size=8), st.integers(-5, 10**9)), max_size=6))
def test_derive_streams_equal_derive_rng_per_key(seed, name, keys):
    drawn = 0
    for key, gen in zip(keys, derive_streams(seed, name, keys)):
        rng = derive_rng(seed, name, key)
        # doubles, buffered 32-bit integers and a variable-length draw, in one order
        for method, args in (("random", (3,)), ("integers", (0, 1000, 5)), ("exponential", (2.0,)),
                             ("integers", (0, 7)), ("lognormal", (0.0, 1.0, 2))):
            assert np.array_equal(getattr(gen, method)(*args), getattr(rng, method)(*args))
        drawn += 1
    assert drawn == len(keys)


def test_two_derive_streams_zip_independently():
    keys = ["S0000", "S0001", "S0002"]
    for key, a, b in zip(keys, derive_streams(11, "events", keys), derive_streams(11, "topups", keys)):
        assert a is not b
        assert np.array_equal(a.random(4), derive_rng(11, "events", key).random(4))
        assert np.array_equal(b.random(4), derive_rng(11, "topups", key).random(4))
