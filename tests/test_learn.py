import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import ldslab as L
import oracles
from ldslab.errors import DataError, DimensionError, NumericalError


def scalar_params(a, b=1.0, c=1.0, d=0.0):
    return L.LdsParams(a=[[a]], b=[[b]], c=[[c]], d=[[d]])


# ---------- Markov component recovery ----------

def test_scalar_s0_feedthrough():
    # single scalar component d=2, s=0: tensor is [w * d^3] = [8]
    gtilde, _ = L.learn_markov_components(np.full((1, 1, 1), 8.0), 1, 1, 1,
                                          np.random.default_rng(0))
    assert np.allclose(gtilde[0], [[2.0]])


def test_single_component_exact_recovery():
    rng = np.random.default_rng(1)
    mix = L.MixtureSpec(components=(L.random_lds((2, 2, 2), rng),), weights=[1.0])
    t, _ = oracles.exact_moments(mix, 2)
    gtilde, _ = L.learn_markov_components(t, 1, 2, 2, np.random.default_rng(2))
    g = L.markov_matrix(mix.components[0], 4)
    assert np.linalg.norm(gtilde[0] - g, "fro") <= 1e-8


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), m=st.integers(1, 2),
       p=st.integers(1, 2), s=st.integers(1, 2))
@example(seed=3, k=2, m=2, p=2, s=2)
def test_two_component_exact_recovery_with_matching(seed, k, m, p, s):
    """On exact moments the flattened tensor sum_i w_i v(G_i)^(x)3 is symmetric
    with mode-1 rank <= k, and learn_markov_components returns w_i^(1/3) G_i
    up to a permutation, with a residual at rounding level.  When k exceeds
    the (s+1)mp entries of G_{i,s}, gamma is 0 and no such mixture exists."""
    if k > (s + 1) * m * p:
        with pytest.raises(DataError, match="joint non-degeneracy"):
            L.random_mixture(k, (m, 2, p), np.random.default_rng(seed), min_gamma=0.5, s=s)
        return
    mix = L.random_mixture(k, (m, 2, p), np.random.default_rng(seed), min_gamma=0.5, s=s)
    t, _ = oracles.exact_moments(mix, s)
    q = t.shape[0]
    scale = np.linalg.norm(t)
    for axes in itertools.permutations(range(3)):
        assert np.linalg.norm(t - t.transpose(axes)) <= 1e-12 * scale
    sv = np.linalg.svd(t.reshape(q, q * q), compute_uv=False)
    assert np.all(sv[k:] <= 1e-10 * sv[0])

    gtilde, details = L.learn_markov_components(t, k, m, p, np.random.default_rng(seed + 1))
    truths = [
        w ** (1.0 / 3.0) * L.markov_matrix(c, 2 * s)
        for w, c in zip(mix.weights, mix.components)
    ]
    cost = np.array([[np.linalg.norm(truth - g, "fro") for g in gtilde] for truth in truths])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-6
    assert details["tensor_residual"] <= 1e-8 * details["tensor_norm"]


def test_learn_markov_rejects_bad_rank():
    with pytest.raises(DataError):
        L.learn_markov_components(np.zeros((2, 2, 2)), 3, 1, 2, np.random.default_rng(0))


# ---------- weight regression ----------

def test_recover_weights_single_component():
    params = scalar_params(0.5, d=2.0)
    w = 1.0
    g = L.markov_matrix(params, 4)
    rhat = oracles.exact_cross_covariance_stack(
        L.MixtureSpec(components=(params,), weights=[1.0]), 2
    )
    wtilde, info = L.recover_weights([w ** (1.0 / 3.0) * g], rhat)
    assert np.allclose(wtilde, [w ** (2.0 / 3.0)])
    assert not info["clamped"].any()


def test_recover_weights_two_components_exact():
    rng = np.random.default_rng(5)
    mix = L.random_mixture(2, (2, 2, 2), rng, weights=[0.3, 0.7], min_gamma=0.3, s=2)
    gtilde = [
        w ** (1.0 / 3.0) * L.markov_matrix(c, 4)
        for w, c in zip(mix.weights, mix.components)
    ]
    rhat = oracles.exact_cross_covariance_stack(mix, 2)
    wtilde, _ = L.recover_weights(gtilde, rhat)
    assert np.max(np.abs(wtilde - mix.weights ** (2.0 / 3.0))) <= 1e-10


def test_recover_weights_orthogonal_closed_form():
    # orthogonal flattened matrices: solution is <R, G_i> / ||G_i||^2
    g1 = np.array([[1.0, 0.0, 0.0]])
    g2 = np.array([[0.0, 2.0, 0.0]])
    assembled = 0.25 * g1 + 0.5 * g2
    rhat = L.CrossCovarianceStack(assembled=assembled)
    wtilde, _ = L.recover_weights([g1, g2], rhat)
    assert np.allclose(wtilde, [0.25, 0.5])


def test_recover_weights_clamps_negative():
    g = np.array([[1.0, 0.0]])
    rhat = L.CrossCovarianceStack(assembled=-g)
    wtilde, info = L.recover_weights([g], rhat)
    assert wtilde[0] == pytest.approx(1e-6)
    assert info["clamped"][0]
    assert info["raw_wtilde"][0] == pytest.approx(-1.0)


def test_recover_weights_collinear_error():
    g = np.array([[1.0, 0.5]])
    rhat = L.CrossCovarianceStack(assembled=g)
    with pytest.raises(NumericalError):
        L.recover_weights([g, g.copy()], rhat)


# ---------- full pipeline ----------

def test_learn_from_moments_checks_the_tensor_against_rhat(benchmark_mixture):
    """m and p come from Rhat, which must hold 2s+1 blocks; the tensor must
    then be q*q*q with q = (2s+1)mp."""
    t, rhat = oracles.exact_moments(benchmark_mixture, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError, match="^t: expected shape \\(20, 20, 20\\)"):
        L.learn_mixture_from_moments(t[:-1, :-1, :-1], rhat, 2, 2, 2, rng)
    with pytest.raises(DimensionError, match="^t: "):
        L.learn_mixture_from_moments(t.reshape(20, 400), rhat, 2, 2, 2, rng)
    short = L.CrossCovarianceStack(assembled=rhat.assembled[:, :-1])
    with pytest.raises(DimensionError, match="^rhat: width 9 is not a multiple of 2s\\+1=5"):
        L.learn_mixture_from_moments(t, short, 2, 2, 2, rng)


def test_oracle_pipeline_recovers_mixture():
    hits = 0
    for seed in range(15):
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(1, 4))
        mix = L.random_mixture(k, (2, 2, 2), rng, min_gamma=0.3, s=2)
        flat, rhat = oracles.exact_moments(mix, 2)
        learned = L.learn_mixture_from_moments(
            flat, rhat, k, 2, 2, np.random.default_rng(200 + seed)
        )
        rep = L.align_similarity(mix, learned, 2)
        if rep.max_param_error <= 1e-6 and rep.max_weight_error <= 1e-8:
            hits += 1
    assert hits >= 14, hits


def test_oracle_pipeline_asymmetric_dimensions():
    """Unequal m, n, p exercise every axis convention in the assembly,
    flattening and realization steps."""
    hits = 0
    trials = 0
    for seed in range(40):
        rng = np.random.default_rng(300 + seed)
        m, n, p = (int(rng.integers(1, 4)) for _ in range(3))
        s = int(rng.integers(1, 3))
        if n > min(m * s, p * s):
            continue  # not realizable at this horizon
        k = int(rng.integers(1, 3))
        try:
            mix = L.random_mixture(k, (m, n, p), rng, min_gamma=0.2, s=s)
        except DataError:
            continue
        trials += 1
        flat, rhat = oracles.exact_moments(mix, s)
        try:
            learned = L.learn_mixture_from_moments(
                flat, rhat, k, n, s, np.random.default_rng(400 + seed)
            )
            rep = L.align_similarity(mix, learned, s)
            if rep.max_param_error <= 1e-6 and rep.max_weight_error <= 1e-8:
                hits += 1
        except L.LdsLabError:
            pass
    assert trials >= 20
    assert hits >= 0.9 * trials, (hits, trials)


def test_learn_mixture_single_component_statistical():
    mix = L.MixtureSpec(components=(scalar_params(0.5, d=1.0),), weights=[1.0])
    ds = L.sample_mixture_dataset(mix, 100_000, 18, L.NoiseConfig(seed=21))
    learned = L.learn_mixture(ds, 1, 1, 2, np.random.default_rng(22))
    rep = L.align_similarity(mix, learned, 2)
    assert rep.max_param_error <= 0.05
    assert rep.max_weight_error <= 1e-12  # k = 1 renormalizes to exactly 1


def test_learn_mixture_input_validation():
    with pytest.raises(DataError):
        L.learn_mixture([], 1, 1, 2, np.random.default_rng(0))
    mix = L.MixtureSpec(components=(scalar_params(0.5),), weights=[1.0])
    short = L.sample_mixture_dataset(mix, 10, 6, L.NoiseConfig(seed=1))
    with pytest.raises(DataError, match="15"):
        L.learn_mixture(short, 1, 1, 2, np.random.default_rng(0))


def test_learn_mixture_checks_the_horizon_before_the_moment_pass(monkeypatch):
    """s < 1, k or n out of range, and non-integer k, n or s are DataErrors
    raised before any moment is summed; s = -1 used to fail in numpy, and
    s = 0, k > q, n > s min(m, p) and k or n = 1.5 only after the whole
    moment pass."""
    mix = L.MixtureSpec(components=(scalar_params(0.5),), weights=[1.0])
    ds = L.sample_mixture_dataset(mix, 10, 18, L.NoiseConfig(seed=1))

    def no_moment_pass(*args):
        raise AssertionError("the moment pass ran")

    monkeypatch.setattr(L.moments, "_sixth_moment_sums", no_moment_pass)
    for s in (0, -1):
        with pytest.raises(DataError, match="s must be >= 1"):
            L.learn_mixture(ds, 1, 1, s, np.random.default_rng(0))
    # m = p = 1 and s = 2: q = (2s+1)mp = 5 and n <= s min(m, p) = 2
    for k, n, message in ((0, 1, "rank r must be >= 1"), (6, 1, "rank r=6 exceeds"),
                          (1, 0, "state dimension n=0"), (1, 3, "state dimension n=3"),
                          (1.5, 1, "k must be an integer"), (1, 1.5, "n must be an integer")):
        with pytest.raises(DataError, match=message):
            L.learn_mixture(ds, k, n, 2, np.random.default_rng(0))
    with pytest.raises(DataError, match="s must be an integer"):
        L.learn_mixture(ds, 1, 1, 2.0, np.random.default_rng(0))


def test_learn_mixture_reads_the_dataset_once(monkeypatch, benchmark_mixture):
    """The sixth-moment grid and the cross-covariance stack come from one
    pass: the helper that hands the estimators a dataset's arrays runs once."""
    calls = []
    arrays = L.moments._arrays

    def counting(*args):
        calls.append(1)
        return arrays(*args)

    monkeypatch.setattr(L.moments, "_arrays", counting)
    ds = L.sample_mixture_dataset(benchmark_mixture, 200, 15, L.NoiseConfig(seed=3))
    L.learn_mixture(ds, 2, 2, 2, np.random.default_rng(4))
    assert len(calls) == 1


def test_learn_working_set_is_bounded_by_the_chunk_not_by_n():
    """At q = 112 (m = p = 4, s = 3) and N = 2 chunks + 3, the traced peak of
    learn_mixture above its dataset stays under one 2048-trajectory chunk's
    buffers, 8 * 2048 * (q(m+p+1) + (6s+3)m + (4s+3)p + mp) bytes, plus two
    q^3 grids and 1 MB: about 42.7 MB.  The decomposition holds three q^3
    arrays (34 MB); a fourth, such as the unsymmetrized grid kept alive
    through it, or buffers sized by N (or by a larger chunk) exceed the
    bound."""
    m = p = 4
    s = 3
    q = (2 * s + 1) * m * p
    chunk = 2048
    rng = np.random.default_rng(5)
    mix = L.random_mixture(2, (m, 3, p), rng)
    ds = L.sample_mixture_dataset(mix, 2 * chunk + 3, 21, L.NoiseConfig(seed=6))
    buffers = 8 * chunk * (q * (m + p + 1) + (6 * s + 3) * m + (4 * s + 3) * p + m * p)
    tracemalloc.start()
    try:
        L.learn_mixture(ds, 2, 3, s, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < buffers + 2 * 8 * q**3 + 2**20


def test_a_failed_restart_does_not_keep_the_dataset_alive(monkeypatch, benchmark_mixture):
    """The decomposition keeps the last restart's error to re-raise; were its
    traceback kept too, its frames would hold learn_mixture's Dataset in a
    cycle that only a full garbage collection frees."""
    calls = []
    once = L.tensor._jennrich_once

    def first_call_fails(*args):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalError("a failing restart")
        return once(*args)

    monkeypatch.setattr(L.tensor, "_jennrich_once", first_call_fails)
    ds = L.sample_mixture_dataset(benchmark_mixture, 200, 15, L.NoiseConfig(seed=3))
    ref = weakref.ref(ds)
    gc.disable()
    try:
        L.learn_mixture(ds, 2, 2, 2, np.random.default_rng(4))
        del ds
        assert ref() is None
    finally:
        gc.enable()
    assert len(calls) == L.tensor.RESTARTS


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), data=st.data())
def test_permutation_equivariance_on_exact_moments(seed, k, data):
    """Listing the components in another order permutes the learned mixture
    the same way: from exact moments and one generator state, the two runs
    learn the same components, and each maps to the truth component that the
    reordering moved there."""
    order = data.draw(st.permutations(range(k)))
    mix = L.random_mixture(k, (2, 2, 2), np.random.default_rng(seed), min_gamma=0.3, s=2)
    permuted = L.MixtureSpec(components=tuple(mix.components[i] for i in order),
                             weights=mix.weights[list(order)])
    out1 = L.learn_mixture_from_moments(*oracles.exact_moments(mix, 2), k, 2, 2,
                                        np.random.default_rng(seed))
    out2 = L.learn_mixture_from_moments(*oracles.exact_moments(permuted, 2), k, 2, 2,
                                        np.random.default_rng(seed))
    same = L.align_similarity(out1, out2, 2)  # out2[j] is out1[same.permutation[j]]
    assert same.max_error <= 1e-6
    rep1 = L.align_similarity(mix, out1, 2)
    rep2 = L.align_similarity(permuted, out2, 2)
    for j in range(k):
        assert order[rep2.permutation[j]] == rep1.permutation[same.permutation[j]]
    assert abs(rep1.max_error - rep2.max_error) <= 1e-6


def test_exact_moments_recover_both_orders():
    """A pinned case of the property above that also bounds the recovery
    error: both orders of the same mixture are learned to 1e-8."""
    rng = np.random.default_rng(7)
    mix = L.random_mixture(2, (2, 2, 2), rng, weights=[0.35, 0.65], min_gamma=0.3, s=2)
    swapped = L.MixtureSpec(
        components=(mix.components[1], mix.components[0]),
        weights=[mix.weights[1], mix.weights[0]],
    )
    out1 = L.learn_mixture_from_moments(*oracles.exact_moments(mix, 2), 2, 2, 2,
                                        np.random.default_rng(8))
    out2 = L.learn_mixture_from_moments(*oracles.exact_moments(swapped, 2), 2, 2, 2,
                                        np.random.default_rng(8))
    rep1 = L.align_similarity(mix, out1, 2)
    rep2 = L.align_similarity(swapped, out2, 2)
    assert rep1.max_error <= 1e-8 and rep2.max_error <= 1e-8
    # the two references list the same components in swapped order
    assert rep2.permutation == tuple(1 - p for p in rep1.permutation)


# ---------- alignment ----------

def test_align_truth_with_itself():
    rng = np.random.default_rng(9)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    rep = L.align_similarity(mix, mix, 2)
    assert rep.max_error <= 1e-12
    for u in rep.transforms:
        assert np.max(np.abs(u - np.eye(2))) <= 1e-10


def test_align_recovers_known_conjugation():
    rng = np.random.default_rng(10)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    conj = []
    for comp in mix.components:
        u = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        u_inv = np.linalg.inv(u)
        conj.append(
            L.LdsParams(a=u @ comp.a @ u_inv, b=u @ comp.b, c=comp.c @ u_inv, d=comp.d)
        )
    est = L.MixtureSpec(components=tuple(conj), weights=mix.weights)
    rep = L.align_similarity(mix, est, 2)
    assert rep.max_error <= 1e-8


def test_align_recovers_swap():
    rng = np.random.default_rng(11)
    mix = L.random_mixture(2, (2, 2, 2), rng, weights=[0.3, 0.7], min_gamma=0.3, s=2)
    swapped = L.MixtureSpec(
        components=(mix.components[1], mix.components[0]),
        weights=[mix.weights[1], mix.weights[0]],
    )
    rep = L.align_similarity(mix, swapped, 2)
    assert rep.permutation == (1, 0)
    assert rep.max_error <= 1e-12


def test_align_rejects_component_count_mismatch():
    rng = np.random.default_rng(12)
    mix1 = L.random_mixture(1, (1, 1, 1), rng)
    mix2 = L.random_mixture(2, (1, 1, 1), rng)
    with pytest.raises(DataError):
        L.align_similarity(mix1, mix2, 2)


# ---------- fully observed normalization ----------

def test_normalize_fully_observed_preserves_io_map():
    rng = np.random.default_rng(13)
    params = L.random_lds((2, 2, 2), rng)
    norm = oracles.normalize_fully_observed(params)
    assert np.max(np.abs(norm.c - np.eye(2))) <= 1e-12
    assert np.max(np.abs(L.markov_matrix(norm, 6) - L.markov_matrix(params, 6))) <= 1e-9


def test_normalize_fully_observed_requires_square_c():
    params = L.LdsParams(a=np.eye(2), b=np.eye(2), c=np.ones((1, 2)), d=np.zeros((1, 2)))
    with pytest.raises(DataError):
        oracles.normalize_fully_observed(params)
