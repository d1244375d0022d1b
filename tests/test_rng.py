import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repfit.errors import ValidationError
from repfit.rng import _split
from repfit.simlab import _SAMPLE_CHUNK, LanguageModel


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
