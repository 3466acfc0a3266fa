import numpy as np
import pytest

import ldslab as L
import oracles


def scalar_params(a, b=1.0, c=1.0, d=0.0):
    return L.LdsParams(a=[[a]], b=[[b]], c=[[c]], d=[[d]])


def test_single_step_closed_form_value():
    # c=1, d=0, l=1: u ~ N(0,1) independent of y ~ N(0, 2)
    params = scalar_params(0.9, d=0.0)
    traj = L.Trajectory(u=[[0.0]], y=[[0.0]])
    expect = -0.5 * np.log((2 * np.pi) ** 2 * 2.0)
    assert L.component_log_likelihood(params, traj) == pytest.approx(expect, abs=1e-12)
    assert L.kalman_log_likelihood(params, traj) == pytest.approx(expect, abs=1e-12)


def test_single_step_block_covariance():
    # l=1 joint covariance is [[I, D^T], [D, CC^T + DD^T + I]]
    rng = np.random.default_rng(0)
    params = L.random_lds((2, 3, 2), rng)
    from ldslab.cluster import _joint_covariance

    cov = _joint_covariance(params, 1)
    expect = np.block(
        [
            [np.eye(2), params.d.T],
            [params.d, params.c @ params.c.T + params.d @ params.d.T + np.eye(2)],
        ]
    )
    assert np.max(np.abs(cov - expect)) <= 1e-12


def test_identical_components_identical_likelihoods():
    params = scalar_params(0.5, d=1.0)
    mix = L.MixtureSpec(components=(params, params), weights=[0.3, 0.7])
    traj = oracles.simulate_trajectory(params, 8, L.NoiseConfig(seed=1), L.substream(1, 0))
    post = L.cluster_posterior(mix, traj)
    assert post.log_likelihoods[0] == pytest.approx(post.log_likelihoods[1], abs=1e-12)
    assert np.allclose(post.probabilities, [0.3, 0.7], atol=1e-12)
    assert post.probabilities.sum() == pytest.approx(1.0, abs=1e-10)


def test_two_likelihood_paths_agree():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dims = tuple(int(rng.integers(1, 4)) for _ in range(3))
        params = L.random_lds(dims, rng)
        length = int(rng.integers(1, 15))
        traj = oracles.simulate_trajectory(params, length, L.NoiseConfig(seed=seed), L.substream(seed, 1))
        direct = L.component_log_likelihood(params, traj)
        filtered = L.kalman_log_likelihood(params, traj)
        assert direct == pytest.approx(filtered, abs=1e-8)


def test_joint_covariance_matches_simulator_monte_carlo():
    """The covariance the likelihood integrates over must be the
    covariance the simulator actually produces."""
    rng = np.random.default_rng(99)
    params = L.random_lds((2, 2, 2), rng)
    mix = L.MixtureSpec(components=(params,), weights=[1.0])
    length = 4
    ds = L.sample_mixture_dataset(mix, 200_000, length, L.NoiseConfig(seed=100))
    stacked = np.stack(
        [np.concatenate([t.u.ravel(), t.y.ravel()]) for t in ds]
    )
    empirical = (stacked.T @ stacked) / len(ds)
    from ldslab.cluster import _joint_covariance

    model_cov = _joint_covariance(params, length)
    scale = max(1.0, np.abs(model_cov).max())
    assert np.max(np.abs(empirical - model_cov)) / scale <= 0.05


def test_posterior_invariant_to_common_log_offset():
    rng = np.random.default_rng(2)
    mix = L.random_mixture(3, (1, 1, 1), rng)
    traj = oracles.simulate_trajectory(mix.components[0], 6, L.NoiseConfig(seed=3), L.substream(3, 0))
    post = L.cluster_posterior(mix, traj)
    # recompute with a huge common offset injected into the log domain
    logpost = np.log(mix.weights) + post.log_likelihoods + 1000.0
    logpost -= logpost.max()
    manual = np.exp(logpost)
    manual /= manual.sum()
    assert np.allclose(manual, post.probabilities, atol=1e-12)


def test_scalar_separation_accuracy():
    """Well-separated +-0.9 scalar pair: the exact posterior classifies
    nearly every trajectory."""
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.5, 0.5],
    )
    ds = L.sample_mixture_dataset(mix, 1000, 18, L.NoiseConfig(seed=4))
    posts = L.cluster_dataset(mix, ds)
    correct = sum(p.argmax == t.label for p, t in zip(posts, ds))
    assert correct >= 990
    strong = sum(max(p.probabilities) >= 0.99 for p in posts)
    assert strong >= 950


def test_cluster_dataset_threaded_matches_serial(monkeypatch):
    mix = L.MixtureSpec(
        components=(scalar_params(0.9, d=1.0), scalar_params(-0.9, d=-1.0)),
        weights=[0.5, 0.5],
    )
    ds = L.sample_mixture_dataset(mix, 40, 12, L.NoiseConfig(seed=5))
    monkeypatch.delenv("LDSLAB_THREADS", raising=False)
    serial = L.cluster_dataset(mix, ds)
    monkeypatch.setenv("LDSLAB_THREADS", "4")
    threaded = L.cluster_dataset(mix, ds)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.probabilities, b.probabilities)


def test_posterior_accepts_learned_mixture_shape():
    rng = np.random.default_rng(6)
    mix = L.random_mixture(2, (2, 2, 2), rng, min_gamma=0.3, s=2)
    flat = L.assemble_pi(L.MomentTensor6.exact(mix, 2))
    rhat = L.CrossCovarianceStack.exact(mix, 2)
    learned = L.learn_mixture_from_moments(flat, rhat, 2, 2, 2, np.random.default_rng(7))
    traj = oracles.simulate_trajectory(mix.components[0], 13, L.NoiseConfig(seed=8), L.substream(8, 0))
    post_t = L.cluster_posterior(mix, traj)
    post_l = L.cluster_posterior(learned, traj)
    assert post_l.probabilities.shape == (2,)
    assert post_l.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
    perm = L.align_similarity(mix, learned, 2).permutation
    # exact-moment estimates: the noise response differs only through the
    # similarity transform, which is near-orthogonal here, so posteriors
    # agree loosely; the sharp statement is tested end-to-end with C = I.
    q = np.zeros(2)
    for j in range(2):
        q[perm[j]] = post_l.probabilities[j]
    assert 0.5 * np.abs(q - post_t.probabilities).sum() <= 0.5
