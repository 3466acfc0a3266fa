"""Every public count or order is checked by ``errors.require_int``: a value
that is not an integer in its range is a DataError (exit 3) naming the
argument as the caller spells it, never numpy's TypeError or a quiet float."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ldslab as L
from ldslab import moments
from ldslab import rng as R
from ldslab.errors import DataError, NumericalError

MAX = R.MAX_SUBSTREAMS
SCALAR = L.LdsParams(a=[[0.5]], b=[[1.0]], c=[[1.0]], d=[[0.3]])
MIX = L.MixtureSpec(components=(SCALAR,), weights=[1.0])
# m = p = 1, length 15 = 6s+3 at s = 2: q = 5 and n <= 2 at s = 2.
DATA = L.sample_mixture_dataset(MIX, 40, 15, L.NoiseConfig(seed=3))
G5 = L.markov_matrix(SCALAR, 4)  # width 5: s = 2 reads p = 1
G15 = L.markov_matrix(SCALAR, 14)  # width 15: s = 1 and s = 2 both divide it
GRID, RHAT = moments.estimate_moments(DATA, 2)
T5 = L.symmetrize_tensor3(L.assemble_pi(GRID))  # q = 5 at s = 2
Q3 = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]
T3 = L.reconstruct(Q3, Q3, Q3)  # three orthogonal rank-one terms


def _rng():
    return np.random.default_rng(0)


# (name the message must open with, call with the value under test, low, high
# or None, in-range values that fit the call's other arguments and are cheap
# to call, each bound where it is): ranges are inclusive.
CASES = {
    # n_traj's upper bound is the substream count, checked in rng before any allocation
    "sample_mixture_dataset.n_traj": (
        "n_traj", lambda v: L.sample_mixture_dataset(MIX, v, 3, L.NoiseConfig()), 1, MAX, (1, 2)),
    "sample_mixture_dataset.length": (
        "length", lambda v: L.sample_mixture_dataset(MIX, 2, v, L.NoiseConfig()), 1, None, (1, 2)),
    "sample_mixture_dataset.seed": (
        "seed", lambda v: L.sample_mixture_dataset(MIX, 2, 3, L.NoiseConfig(seed=v)), 0, None,
        (0, 2**70)),
    "observability_matrix.s": ("s", lambda v: L.observability_matrix(SCALAR, v), 1, None, (1, 2)),
    "controllability_matrix.s": ("s", lambda v: L.controllability_matrix(SCALAR, v), 1, None, (1, 2)),
    "markov_matrix.big_t": ("big_t", lambda v: L.markov_matrix(SCALAR, v), 0, None, (0, 1)),
    "random_mixture.k": ("k", lambda v: L.random_mixture(v, (1, 1, 1), _rng()), 1, None, (1, 2)),
    "random_mixture.s": ("s", lambda v: L.random_mixture(1, (1, 1, 1), _rng(), s=v), 0, None, (0, 1)),
    "min_trajectory_length.s": ("s", L.min_trajectory_length, 0, None, (0, 1)),
    "estimate_moments.s": ("s", lambda v: moments.estimate_moments(DATA, v), 0, None, (0, 2)),
    "build_hankel.s": ("s", lambda v: L.build_hankel(G15, v), 1, None, (1, 2)),
    "ho_kalman.s": ("s", lambda v: L.ho_kalman(G15, v, 1), 1, None, (1, 2)),
    "ho_kalman.n": ("n", lambda v: L.ho_kalman(G5, 2, v), 1, 2, (1, 2)),
    "jennrich_decompose.r": ("r", lambda v: L.jennrich_decompose(T3, v, _rng()), 1, 3, (1, 3)),
    "learn_mixture.k": ("k", lambda v: L.learn_mixture(DATA, v, 1, 2, _rng()), 1, 5, (1, 5)),
    "learn_mixture.n": ("n", lambda v: L.learn_mixture(DATA, 1, v, 2, _rng()), 1, 2, (1, 2)),
    "learn_mixture.s": ("s", lambda v: L.learn_mixture(DATA, 1, 1, v, _rng()), 1, None, (1, 2)),
    "learn_mixture_from_moments.k": (
        "k", lambda v: L.learn_mixture_from_moments(T5, RHAT, v, 1, 2, _rng()), 1, 5, (1, 5)),
    "learn_mixture_from_moments.s": (
        "s", lambda v: L.learn_mixture_from_moments(T5, RHAT, 1, 1, v, _rng()), 1, None, (2,)),
    "align_similarity.s": ("s", lambda v: L.align_similarity(MIX, MIX, v), 1, None, (1, 2)),
    # G15 is the Markov matrix at 2s = 14
    "realization_residual.s": ("s", lambda v: L.realization_residual(G15, SCALAR, v), 0, None, (7,)),
    "substream_states.seed": ("seed", lambda v: R.substream_states(v, 0, 2), 0, None, (0, 2**70)),
    # start 0 with stop 2**32 would compute 2**32 states; start 0 is called everywhere else
    "substream_states.start": ("start", lambda v: R.substream_states(1, v, MAX), 0, MAX,
                               (MAX - 1, MAX)),
    "substream_states.stop": ("stop", lambda v: R.substream_states(1, MAX - 1, v), MAX - 1, MAX,
                              (MAX - 1, MAX)),
    "substream_draws.n_traj": ("n_traj", lambda v: R.substream_draws(1, v, 2), 0, MAX, (0, MAX)),
    "substream_draws.width": ("width", lambda v: R.substream_draws(1, 2, v), 0, None, (0, 1)),
}
NOT_INTEGERS = st.one_of(
    st.sampled_from([2.0, 1.5, "2", None, np.float64(1.0), 2 + 0j]),
    st.floats(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2))


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=10)
@given(data=st.data())
def test_counts_and_orders_are_integers_in_range(case, data):
    name, call, low, high, accepted = CASES[case]
    outside = st.integers(max_value=low - 1)
    if high is not None:
        outside |= st.integers(min_value=high + 1)
    drawn = data.draw(st.one_of(NOT_INTEGERS, outside), label="value")
    for value in (2.0, 1.5, "2", None, low - 1, drawn) + (() if high is None else (high + 1,)):
        with pytest.raises(DataError, match=f"^{name} must be an integer "):
            call(value)
    for value in accepted:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # rank warnings at n = 2 of a rank-1 system
                call(value)
        except NumericalError:
            pass  # the value passed its check; the decomposition may still fail on 40 samples
