import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ldslab as L
from ldslab import rng as R
from ldslab.errors import DataError

SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**200),
)


@given(seed=SEEDS, start=st.integers(0, 2**32 - 1), count=st.integers(1, 6))
def test_substream_states_match_numpy_seeding(seed, start, count):
    """The vectorized states equal PCG64(SeedSequence(seed, spawn_key=(i,)))."""
    stop = min(start + count, 2**32)
    states = R.substream_states(seed, start, stop)
    assert len(states) == stop - start
    for i, (state, inc) in enumerate(states, start):
        ref = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))).state["state"]
        assert (state, inc) == (ref["state"], ref["inc"])


def test_substream_draws_match_reference_across_batches(monkeypatch):
    monkeypatch.setattr(R, "_BATCH", 3)
    uniforms, normals = R.substream_draws(2**70 + 3, 8, 5)
    for i in range(8):
        gen = L.substream(2**70 + 3, i)
        assert uniforms[i] == gen.random()
        assert np.array_equal(normals[i], gen.standard_normal(5))


def test_substream_index_must_fit_one_spawn_key_word():
    # Both guards run before anything is allocated for the 2**32 + 1 indices.
    assert len(R.substream_states(0, 2**32 - 1, 2**32)) == 1
    with pytest.raises(DataError, match="2147483648|4294967296"):
        R.substream_states(0, 0, 2**32 + 1)
    with pytest.raises(DataError):
        R.substream_states(0, 5, 4)
    mix = L.MixtureSpec(components=(L.LdsParams(a=[[0.5]], b=[[1.0]], c=[[1.0]], d=[[0.0]]),),
                        weights=[1.0])
    with pytest.raises(DataError):
        L.sample_mixture_dataset(mix, 2**32 + 1, 3, L.NoiseConfig(seed=1))
