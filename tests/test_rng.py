import sys
import threading
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repfit.errors import ValidationError
from repfit.rng import (_KEY_BLOCK, _SAMPLE_CHUNK, _SEARCH_FROM, _KeyReader, _fill_categorical,
                        _in_threads, _split, _split_keys)
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
    # Every power of two up to 256, which keeps every half, and alphabets
    # whose draw drops some: seldom at c = 3, 26 and 255, and up to 225 of
    # 2**16 halves at c = 200, 226 and 241 (241 drops the most of c <= 256).
    c=st.sampled_from([2**b for b in range(1, 9)] + [3, 26, 200, 226, 241, 255]),
    # None, one and a few keys; odd counts; and counts past the 2**10
    # outputs a step of the int16 key fill took, up to three such steps.
    n=st.one_of(st.sampled_from([0, 1, 2, 3, 5, 21]), st.integers(6, 80),
                st.integers(4 * 1024 - 9, 3 * (4 * 1024 + 9))),
    # No 32-bit value buffered; one a 32-bit draw leaves; or one whose
    # halves are both dropped off powers of two (0), or only the low one
    # at c = 241 (1 << 16).
    buffered=st.sampled_from([None, "drawn", 0, 1 << 16]),
    key_block=st.sampled_from([1, 3, _KEY_BLOCK]),
    start=st.integers(0, 2**20),
    blocks=st.lists(st.integers(1, 2_000), min_size=1, max_size=6),
    seed=st.integers(0, 2**64 - 1),
)
def test_key_reads_equal_the_int16_draw_of_a_twin_generator(bits, c, n, buffered, key_block,
                                                            start, blocks, seed):
    rng, twin = np.random.Generator(bits(seed)), np.random.Generator(bits(seed))
    if buffered is not None:
        # A 32-bit draw leaves the high half of a 64-bit output buffered,
        # which the key draw must take first.
        assert rng.integers(0, 2**32, dtype=np.uint32) == twin.integers(0, 2**32, dtype=np.uint32)
        if buffered != "drawn":
            for gen in (rng, twin):
                gen.bit_generator.state = {**gen.bit_generator.state, "uinteger": buffered}
    # Keys counted a block of 1, 3 or _KEY_BLOCK outputs at a time.
    with patch("repfit.rng._KEY_BLOCK", key_block):
        keys = _split_keys(rng, n, c)
        expected = twin.integers(0, c, n, dtype=np.int16)
        assert rng.bit_generator.state == twin.bit_generator.state

        # Reads start at every offset mod 4 of the body, near its end, at
        # one more key, and anywhere; each reads the drawn blocks in turn,
        # then the rest in one.
        starts = sorted({*range(8), *range(n - 6, n + 1), start % (n + 1)} & {*range(n + 1)})

        def read_from(first):
            reader, got, pos = _KeyReader(keys, first), [np.empty(0, np.uint8)], first
            for size in [*blocks, n]:
                block = np.full(min(size, n - pos), 255, dtype=np.uint8)
                assert reader.read(block) is block
                got.append(block)
                pos += block.size
            return np.concatenate(got)

        # The readers run on threads, last first.
        for first, got in zip(starts[::-1], _in_threads([partial(read_from, first)
                                                         for first in starts[::-1]])):
            assert np.array_equal(got, expected[first:]), first
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.integers(0, 2**32, dtype=np.uint32) == twin.integers(0, 2**32, dtype=np.uint32)
    assert rng.random() == twin.random()


@pytest.mark.parametrize("kinds, zeros", [(_SEARCH_FROM + 1, 0), (_SEARCH_FROM + 2, 0),
                                          (1_200, 0), (1_200, 40)])
@pytest.mark.parametrize("chunk", [1, 37, _SAMPLE_CHUNK])
def test_categorical_fill_of_many_kinds_is_the_choice_draw(kinds, zeros, chunk):
    # The cdf's last entry, and those of trailing kinds of proportion 0, are
    # 1.0: _SEARCH_FROM entries below it are tallied, one more is searched.
    p = np.random.default_rng(kinds).random(kinds)
    p[kinds - zeros :] = 0
    p /= p.sum()
    codes = np.empty(3 * chunk + 5, dtype=np.uint16)
    _fill_categorical(codes, p, np.random.default_rng(7), chunk)
    assert np.array_equal(codes, np.random.default_rng(7).choice(kinds, codes.size, p=p))


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
