from unittest import mock

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
    """The vectorized states equal PCG64(SeedSequence(seed, spawn_key=(i,))),
    and one step of them gives that generator's first random()."""
    stop = min(start + count, 2**32)
    state, inc = R.substream_states(seed, start, stop)
    assert all(half.shape == (stop - start,) for half in (*state, *inc))
    uniforms = R._uniform(R._pcg_step(state, inc))
    for j, i in enumerate(range(start, stop)):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))
        ref = gen.bit_generator.state["state"]
        assert int(state[0][j]) << 64 | int(state[1][j]) == ref["state"]
        assert int(inc[0][j]) << 64 | int(inc[1][j]) == ref["inc"]
        assert uniforms[j] == gen.random()


def test_substream_draws_match_reference_across_batches(monkeypatch):
    monkeypatch.setattr(R, "_BATCH", 3)
    chunks = [(start, uniforms.copy(), normals.copy())
              for start, uniforms, normals in R.substream_draws(2**70 + 3, 8, 5)]
    assert [(start, len(uniforms), normals.shape) for start, uniforms, normals in chunks] == [
        (0, 3, (3, 5)), (3, 3, (3, 5)), (6, 2, (2, 5))]
    for start, uniforms, normals in chunks:
        for j in range(len(uniforms)):
            gen = L.substream(2**70 + 3, start + j)
            assert uniforms[j] == gen.random()
            assert np.array_equal(normals[j], gen.standard_normal(5))


def _rows(draws):
    """(index, uniform, normals) of every row a ``substream_draws`` iterator yields."""
    return [(start + j, uniforms[j], normals[j].copy())
            for start, uniforms, normals in draws for j in range(len(uniforms))]


@given(seed=SEEDS, batch=st.integers(1, 4), n_traj=st.integers(1, 9), width=st.integers(0, 7))
def test_state_words_give_every_row_its_substream(seed, batch, n_traj, width):
    """Each row, drawn after its state is written through the word view, is
    substream(seed, i)'s random() followed by its standard_normal(width)."""
    with mock.patch.object(R, "_BATCH", batch):
        rows = _rows(R.substream_draws(seed, n_traj, width))
    assert [i for i, _, _ in rows] == list(range(n_traj))
    for i, uniform, normals in rows:
        gen = L.substream(seed, i)
        assert uniform == gen.random()
        assert np.array_equal(normals, gen.standard_normal(width))


def test_interleaved_draws_keep_their_own_states(monkeypatch):
    """Each call writes into its own bit generator, so two iterators drawn in
    turn give the rows each gives alone."""
    monkeypatch.setattr(R, "_BATCH", 2)
    alone = [_rows(R.substream_draws(seed, 5, 3)) for seed in (7, 2**130 + 1)]
    first, second = R.substream_draws(7, 5, 3), R.substream_draws(2**130 + 1, 5, 3)
    turns = [_rows([chunk]) for pair in zip(first, second) for chunk in pair]
    for rows, ref in zip((sum(turns[0::2], []), sum(turns[1::2], [])), alone):
        assert len(rows) == len(ref) == 5
        for (i, uniform, normals), (i_ref, uniform_ref, normals_ref) in zip(rows, ref):
            assert (i, uniform) == (i_ref, uniform_ref)
            assert np.array_equal(normals, normals_ref)


def test_word_order_guard_raises_before_the_first_chunk(monkeypatch):
    """A view with the words in the wrong order fails the per-call probe
    against the bitgen.state setter, before any row is drawn or yielded."""
    view = R._state_words
    monkeypatch.setattr(R, "_state_words", lambda bitgen: view(bitgen)[::-1])
    draws = R.substream_draws(3, 5, 4)
    with mock.patch.object(R, "substream_states", wraps=R.substream_states) as states:
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            next(draws)
    states.assert_not_called()


def test_counts_must_be_nonnegative_integers():
    """Indices, counts and widths follow errors.require_int: a float or a
    negative value is a DataError, not numpy's TypeError or ValueError."""
    for start, stop in ((2.0, 3.5), (2, 3.0), (np.float64(1), 2), (-1, 2)):
        with pytest.raises(DataError):
            R.substream_states(1, start, stop)
    for n_traj, width in ((3.0, 2), (3, -1), (3, 2.0), (-1, 2), ("3", 2)):
        with pytest.raises(DataError):
            R.substream_draws(1, n_traj, width)
    assert R.substream_states(1, np.int64(2), np.uint32(4))[1][0].shape == (2,)
    assert [len(u) for _, u, _ in R.substream_draws(1, np.int64(3), np.int8(0))] == [3]


def test_seed_must_be_a_nonnegative_integer():
    """The library applies the CLI's --seed rule: a negative or non-integer
    seed is a DataError, not numpy's ValueError or TypeError."""
    mix = L.MixtureSpec(components=(L.LdsParams(a=[[0.5]], b=[[1.0]], c=[[1.0]], d=[[0.0]]),),
                        weights=[1.0])
    for seed in (-1, 1.5, "3"):
        with pytest.raises(DataError, match="seed needs an integer >= 0"):
            L.sample_mixture_dataset(mix, 5, 18, L.NoiseConfig(seed=seed))
    assert len(L.sample_mixture_dataset(mix, 5, 18, L.NoiseConfig(seed=np.int64(3)))) == 5


def test_substream_index_must_fit_one_spawn_key_word():
    # Both guards run before anything is allocated for the 2**32 + 1 indices.
    assert R.substream_states(0, 2**32 - 1, 2**32)[1][0].shape == (1,)
    with pytest.raises(DataError, match="2147483648|4294967296"):
        R.substream_states(0, 0, 2**32 + 1)
    with pytest.raises(DataError):
        R.substream_states(0, 5, 4)
    mix = L.MixtureSpec(components=(L.LdsParams(a=[[0.5]], b=[[1.0]], c=[[1.0]], d=[[0.0]]),),
                        weights=[1.0])
    with pytest.raises(DataError):
        L.sample_mixture_dataset(mix, 2**32 + 1, 3, L.NoiseConfig(seed=1))
