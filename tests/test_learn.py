import numpy as np
import pytest

import ldslab as L
import oracles
from ldslab.errors import DataError, NumericalError
from ldslab.moments import FlatTensor3, MomentTensor6


def scalar_params(a, b=1.0, c=1.0, d=0.0):
    return L.LdsParams(a=[[a]], b=[[b]], c=[[c]], d=[[d]])


def exact_inputs(mix, s):
    flat = L.assemble_pi(MomentTensor6.exact(mix, s))
    rhat = L.CrossCovarianceStack.exact(mix, s)
    return flat, rhat


# ---------- Markov component recovery ----------

def test_scalar_s0_feedthrough():
    # single scalar component d=2, s=0: tensor is [w * d^3] = [8]
    flat = FlatTensor3(data=np.full((1, 1, 1), 8.0), s=0, m=1, p=1)
    gtilde = L.learn_markov_components(flat, 1, np.random.default_rng(0))
    assert np.allclose(gtilde[0], [[2.0]])


def test_single_component_exact_recovery():
    rng = np.random.default_rng(1)
    mix = L.MixtureSpec(components=(L.random_lds((2, 2, 2), rng),), weights=[1.0])
    flat, _ = exact_inputs(mix, 2)
    gtilde = L.learn_markov_components(flat, 1, np.random.default_rng(2))
    g = L.markov_matrix(mix.components[0], 4)
    assert np.linalg.norm(gtilde[0] - g, "fro") <= 1e-8


def test_two_component_exact_recovery_with_matching():
    rng = np.random.default_rng(3)
    mix = L.random_mixture(2, (2, 2, 2), rng, min_gamma=0.5, s=2)
    flat, _ = exact_inputs(mix, 2)
    gtilde = L.learn_markov_components(flat, 2, np.random.default_rng(4))
    truths = [
        w ** (1.0 / 3.0) * L.markov_matrix(c, 4)
        for w, c in zip(mix.weights, mix.components)
    ]
    # match by distance, then both must be accurate
    errs = []
    for t in truths:
        errs.append(min(np.linalg.norm(t - g, "fro") for g in gtilde))
    assert max(errs) <= 1e-6


def test_learn_markov_rejects_bad_rank():
    flat = FlatTensor3(data=np.zeros((2, 2, 2)), s=0, m=1, p=2)
    with pytest.raises(DataError):
        L.learn_markov_components(flat, 3, np.random.default_rng(0))


# ---------- weight regression ----------

def test_recover_weights_single_component():
    params = scalar_params(0.5, d=2.0)
    w = 1.0
    g = L.markov_matrix(params, 4)
    rhat = L.CrossCovarianceStack.exact(
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
    rhat = L.CrossCovarianceStack.exact(mix, 2)
    wtilde, _ = L.recover_weights(gtilde, rhat)
    assert np.max(np.abs(wtilde - mix.weights ** (2.0 / 3.0))) <= 1e-10


def test_recover_weights_orthogonal_closed_form():
    # orthogonal flattened matrices: solution is <R, G_i> / ||G_i||^2
    g1 = np.array([[1.0, 0.0, 0.0]])
    g2 = np.array([[0.0, 2.0, 0.0]])
    assembled = 0.25 * g1 + 0.5 * g2
    rhat = L.CrossCovarianceStack(blocks=(assembled[:, :1],), assembled=assembled, s=1)
    wtilde, _ = L.recover_weights([g1, g2], rhat)
    assert np.allclose(wtilde, [0.25, 0.5])


def test_recover_weights_clamps_negative():
    g = np.array([[1.0, 0.0]])
    rhat = L.CrossCovarianceStack(blocks=(np.array([[-1.0]]),), assembled=-g, s=0)
    wtilde, info = L.recover_weights([g], rhat)
    assert wtilde[0] == pytest.approx(1e-6)
    assert info["clamped"][0]
    assert info["raw_wtilde"][0] == pytest.approx(-1.0)


def test_recover_weights_collinear_error():
    g = np.array([[1.0, 0.5]])
    rhat = L.CrossCovarianceStack(blocks=(np.array([[1.0]]),), assembled=g, s=0)
    with pytest.raises(NumericalError):
        L.recover_weights([g, g.copy()], rhat)


# ---------- finalize ----------

def test_finalize_identity_weight():
    g = np.array([[2.0, 1.0]])
    weights, ghat, raw = L.finalize_components([g], [1.0])
    assert np.allclose(weights, [1.0]) and np.allclose(raw, [1.0])
    assert np.allclose(ghat[0], g)


def test_finalize_power_law():
    g = np.array([[2.0]])
    weights, ghat, raw = L.finalize_components([g], [0.25])
    assert raw[0] == pytest.approx(0.125)
    assert weights[0] == pytest.approx(1.0)  # renormalized
    assert np.allclose(ghat[0], g / 0.5)


def test_finalize_exact_pipeline_recovers_weights():
    rng = np.random.default_rng(6)
    mix = L.random_mixture(2, (2, 2, 2), rng, weights=[0.4, 0.6], min_gamma=0.3, s=2)
    gtilde = [
        w ** (1.0 / 3.0) * L.markov_matrix(c, 4)
        for w, c in zip(mix.weights, mix.components)
    ]
    rhat = L.CrossCovarianceStack.exact(mix, 2)
    wtilde, _ = L.recover_weights(gtilde, rhat)
    weights, ghat, _ = L.finalize_components(gtilde, wtilde)
    order = np.argsort(weights)
    assert np.max(np.abs(np.sort(weights) - np.sort(mix.weights))) <= 1e-10
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)


# ---------- full pipeline ----------

def test_oracle_pipeline_recovers_mixture():
    hits = 0
    for seed in range(15):
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(1, 4))
        mix = L.random_mixture(k, (2, 2, 2), rng, min_gamma=0.3, s=2)
        flat, rhat = exact_inputs(mix, 2)
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
            mix = L.random_mixture(k, (m, n, p), rng, min_gamma=0.2, s=s, max_tries=50)
        except DataError:
            continue
        trials += 1
        flat = L.assemble_pi(MomentTensor6.exact(mix, s))
        rhat = L.CrossCovarianceStack.exact(mix, s)
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


def test_permutation_equivariance_on_exact_moments():
    rng = np.random.default_rng(7)
    mix = L.random_mixture(2, (2, 2, 2), rng, weights=[0.35, 0.65], min_gamma=0.3, s=2)
    swapped = L.MixtureSpec(
        components=(mix.components[1], mix.components[0]),
        weights=[mix.weights[1], mix.weights[0]],
    )
    out1 = L.learn_mixture_from_moments(*exact_inputs(mix, 2), 2, 2, 2, np.random.default_rng(8))
    out2 = L.learn_mixture_from_moments(*exact_inputs(swapped, 2), 2, 2, 2, np.random.default_rng(8))
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
