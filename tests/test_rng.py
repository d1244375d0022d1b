import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repfit.rng
from repfit.errors import ValidationError
from repfit.rng import _SAMPLE_CHUNK, _in_threads, _split, _split_keys
from repfit.simlab import LanguageModel


@given(
    bits=st.sampled_from([np.random.PCG64, np.random.PCG64DXSM]),
    parts=st.integers(1, 8),
    n=st.one_of(st.sampled_from([0, 1]), st.integers(2, 7),
                st.integers(_SAMPLE_CHUNK - 8, 2 * _SAMPLE_CHUNK + 8)),
    seed=st.integers(0, 2**64 - 1),
)
def test_split_parts_are_the_uniforms_of_a_twin_generator(bits, parts, n, seed):
    rng, twin = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
    # A float32 draw leaves half of a 64-bit output buffered for the next
    # 32-bit draw, which the split must keep.
    assert rng.random(dtype=np.float32) == twin.random(dtype=np.float32)
    bounds = [n * p // parts for p in range(parts + 1)]
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    gens = _split(rng, sizes)
    # The parts are drawn last first, in pieces of at most _SAMPLE_CHUNK.
    drawn = [[gen.random(min(_SAMPLE_CHUNK, size - lo)) for lo in range(0, size, _SAMPLE_CHUNK)]
             for gen, size in reversed(list(zip(gens, sizes)))]
    got = np.concatenate([np.empty(0)] + [u for part in reversed(drawn) for u in part])
    assert np.array_equal(got, twin.random(n))
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.random() == twin.random()
    assert rng.random(dtype=np.float32) == twin.random(dtype=np.float32)
    assert rng.integers(0, 26, dtype=np.int16) == twin.integers(0, 26, dtype=np.int16)


@pytest.mark.parametrize("bits", [np.random.MT19937, np.random.SFC64, np.random.Philox])
def test_split_rejects_bit_generators_it_cannot_advance_by_outputs(bits):
    # MT19937 and SFC64 cannot advance; Philox advances in blocks of four outputs.
    with pytest.raises(ValidationError, match=bits.__name__):
        LanguageModel(alphabet_size=4).sample((10,), np.random.Generator(bits(1)))


@given(
    bits=st.sampled_from([np.random.PCG64, np.random.PCG64DXSM]),
    c=st.sampled_from([2**b for b in range(1, 9)]),
    cpus=st.integers(1, 4),
    # Sizes of none, one and a few keys; odd sizes; and sizes past the
    # 2**10-output step of one part, in one or two dimensions.
    shape=st.one_of(st.sampled_from([(0,), (1,), (2,), (3,), (5,), (4, 0), (3, 7)]),
                    st.tuples(st.integers(6, 80)),
                    st.tuples(st.integers(1, 3), st.integers(4 * 1024 - 9, 4 * 1024 + 9))),
    buffered=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
def test_split_keys_equal_the_int16_draw_of_a_twin_generator(bits, c, cpus, shape, buffered,
                                                             seed):
    rng, twin = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
    if buffered:
        # A 32-bit draw leaves the high half of a 64-bit output buffered,
        # which the key draw must take first.
        assert rng.integers(0, 2**32, dtype=np.uint32) == twin.integers(0, 2**32, dtype=np.uint32)
    # Parts of one key at least: up to one per CPU, some with no outputs.
    with mock.patch.object(repfit.rng, "_MIN_PART", 1):
        keys, jobs = _split_keys(rng, shape, c, cpus)
    # The parts fill on threads, last first.
    _in_threads(jobs[::-1])
    expected = twin.integers(0, c, shape, dtype=np.int16)
    assert keys.dtype == np.int16 and keys.shape == expected.shape
    assert np.array_equal(keys, expected)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.integers(0, 2**32, dtype=np.uint32) == twin.integers(0, 2**32, dtype=np.uint32)
    assert rng.random() == twin.random()


def test_in_threads_raises_the_first_failing_job_in_the_list():
    # The second job fails first, and the first only once it has; the
    # first's exception is raised, whatever the order in time.
    second_failed = threading.Event()

    def first():
        assert second_failed.wait(timeout=10)
        raise KeyError("first")

    def second():
        second_failed.set()
        raise ValueError("second")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            second_failed.clear()
            with pytest.raises(KeyError, match="first"):
                _in_threads([lambda: None, first, second])
            with pytest.raises(KeyError, match="first"):
                _in_threads([first, second])
    finally:
        sys.setswitchinterval(interval)
