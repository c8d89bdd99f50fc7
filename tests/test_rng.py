import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportlab import rng
from supportlab.errors import ValidationError

TOP_SEED = (1 << 64) - 1
TOP_INDEX = (1 << 48) - 1
KINDS = (rng.KIND_DESIGN, rng.KIND_NOISE, rng.KIND_PATTERN)

seeds = st.one_of(st.integers(0, TOP_SEED), st.integers(TOP_SEED - 50, TOP_SEED))
starts = st.one_of(st.integers(0, 5000), st.integers(TOP_INDEX - 40, TOP_INDEX))


def _draws(gen, shape, p, k):
    """A mix of methods, so a buffered half-word or a partly used Philox
    block left by one trial would show in the next."""
    return (
        gen.standard_normal(shape),
        gen.choice(p, size=k, replace=False),
        gen.integers(0, 1000, size=3, dtype=np.uint32),
        gen.standard_normal(),
    )


@given(
    seed=seeds,
    kind=st.sampled_from(KINDS),
    start=starts,
    length=st.integers(0, 6),
    shape=st.sampled_from([(), (1,), (7,), (3, 5), (12, 6)]),
    p=st.integers(1, 30),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_streams_equal_one_fresh_stream_per_index(seed, kind, start, length, shape, p, data):
    k = data.draw(st.integers(0, p))
    stop = min(start + length, TOP_INDEX + 1)
    seen = 0
    for index, gen in zip(range(start, stop), rng.streams(seed, kind, start, stop)):
        got = _draws(gen, shape, p, k)
        want = _draws(rng.stream(seed, kind, index), shape, p, k)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        seen += 1
    assert seen == stop - start


def test_streams_yield_the_whole_range_once():
    gens = list(rng.streams(5, rng.KIND_NOISE, 10, 14))
    assert len(gens) == 4
    assert list(rng.streams(5, rng.KIND_NOISE, 7, 7)) == []


def test_streams_reach_the_top_index():
    [gen] = rng.streams(TOP_SEED, rng.KIND_PATTERN, TOP_INDEX, TOP_INDEX + 1)
    want = rng.stream(TOP_SEED, rng.KIND_PATTERN, TOP_INDEX).standard_normal(4)
    assert np.array_equal(gen.standard_normal(4), want)


@pytest.mark.parametrize("seed, start, stop", [
    (-1, 0, 3),
    (1 << 64, 0, 3),
    (0, -1, 3),
    (0, TOP_INDEX, TOP_INDEX + 2),
    (0, 5, 4),
])
def test_streams_reject_bad_seeds_and_ranges_before_drawing(seed, start, stop):
    # Raised by the call itself, before any generator is handed out.
    with pytest.raises(ValidationError):
        rng.streams(seed, rng.KIND_NOISE, start, stop)
