import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ldslab as L
import oracles
from ldslab import moments
from ldslab.errors import DataError
from ldslab.moments import MomentTensor6


def scalar_params(a, b=1.0, c=1.0, d=0.0):
    return L.LdsParams(a=[[a]], b=[[b]], c=[[c]], d=[[d]])


def scalar_mixture(a, d, weight=1.0, **kw):
    return L.MixtureSpec(components=(scalar_params(a, d=d, **kw),), weights=[weight])


# ---------- cross-covariance ----------

def test_cross_covariance_single_trajectory_is_outer_product():
    ds = L.Dataset(u=[[[1.0], [2.0], [5.0]]], y=[[[3.0], [4.0], [6.0]]])
    stack = L.CrossCovarianceStack.estimate(ds, 1)
    assert np.allclose(stack.blocks[0], [[3.0]])
    assert np.allclose(stack.blocks[1], [[4.0]])


def test_exact_cross_covariance_is_weighted_markov_sum():
    rng = np.random.default_rng(2)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    for k1 in range(4):
        expect = sum(
            w * L.markov_parameter(c, k1) for w, c in zip(mix.weights, mix.components)
        )
        assert np.allclose(L.exact_cross_covariance(mix, k1), expect)


def test_exact_cross_covariance_cancellation():
    c1 = scalar_params(0.5, d=1.0)
    c2 = scalar_params(0.5, d=-1.0)
    mix = L.MixtureSpec(components=(c1, c2), weights=[0.5, 0.5])
    assert np.allclose(L.exact_cross_covariance(mix, 0), [[0.0]])


def test_cross_covariance_stack_blocks_match_assembled():
    rng = np.random.default_rng(3)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    ds = L.sample_mixture_dataset(mix, 200, 18, L.NoiseConfig(seed=4))
    stack = L.CrossCovarianceStack.estimate(ds, 2)
    p = mix.dims[2]
    for j, block in enumerate(stack.blocks):
        assert np.array_equal(stack.assembled[:, j * p : (j + 1) * p], block)
        assert np.allclose(block, oracles.estimate_cross_covariance(ds, j))


def test_cross_covariance_errors():
    with pytest.raises(DataError):
        L.CrossCovarianceStack.estimate([], 1)
    with pytest.raises(DataError, match="Dataset"):
        L.CrossCovarianceStack.estimate([L.Trajectory(u=[[1.0]] * 3, y=[[3.0]] * 3)], 1)
    with pytest.raises(DataError, match="need length >= 3"):
        L.CrossCovarianceStack.estimate(L.Dataset(u=[[[1.0]]], y=[[[1.0]]]), 1)


# ---------- sixth moment blocks ----------

def test_sixth_moment_single_trajectory_literal_outer():
    rng = np.random.default_rng(5)
    traj = L.Trajectory(u=rng.standard_normal((9, 2)), y=rng.standard_normal((9, 3)))
    k1, k2, k3 = 1, 0, 2
    est = MomentTensor6.estimate(L.Dataset.from_trajectories([traj]), 1).block(k1, k2, k3)
    expect = np.einsum(
        "a,b,c,d,e,f->abcdef",
        traj.y[k1 + k2 + k3 + 2], traj.u[k1 + k2 + 2],
        traj.y[k1 + k2 + 1], traj.u[k1 + 1],
        traj.y[k1], traj.u[0],
    )
    assert np.allclose(est, expect, atol=1e-14)


def test_sixth_moment_too_short_names_minimum():
    ds = L.Dataset(u=np.zeros((1, 8, 1)), y=np.zeros((1, 8, 1)))
    with pytest.raises(DataError, match="need length >= 9"):
        MomentTensor6.estimate(ds, 1)


def test_exact_sixth_moment_feedthrough_cube():
    mix = scalar_mixture(0.0, d=2.0)
    assert np.allclose(L.exact_sixth_moment_block(mix, 0, 0, 0).ravel(), [8.0])


def test_exact_sixth_moment_markov_products():
    mix = scalar_mixture(0.5, d=0.0)  # b = c = 1
    assert np.allclose(L.exact_sixth_moment_block(mix, 1, 1, 1).ravel(), [1.0])
    assert np.allclose(L.exact_sixth_moment_block(mix, 2, 2, 2).ravel(), [0.125])


def test_exact_sixth_moment_matrix_structure():
    rng = np.random.default_rng(6)
    mix = L.random_mixture(2, (2, 3, 2), rng)
    k1, k2, k3 = 0, 2, 1
    block = L.exact_sixth_moment_block(mix, k1, k2, k3)
    expect = np.zeros_like(block)
    for w, comp in zip(mix.weights, mix.components):
        expect += w * np.einsum(
            "ab,cd,ef->abcdef",
            L.markov_parameter(comp, k3),
            L.markov_parameter(comp, k2),
            L.markov_parameter(comp, k1),
        )
    assert np.allclose(block, expect)


@given(
    m=st.integers(1, 3),
    p=st.integers(1, 3),
    s=st.integers(0, 2),
    n_traj=st.integers(2, 11),
    chunk=st.integers(1, 4),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_moment_grid_matches_per_block_estimates(m, p, s, n_traj, chunk, extra, seed):
    """The chunked grid kernel and its standard errors agree with the
    direct per-block einsum, across chunk boundaries and a partial last
    chunk."""
    rng = np.random.default_rng(seed)
    length = 6 * s + 3 + extra
    ds = L.Dataset.from_trajectories(
        L.Trajectory(u=rng.standard_normal((length, p)), y=rng.standard_normal((length, m)))
        for _ in range(n_traj)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_CHUNK", chunk)
        grid = MomentTensor6.estimate(ds, s, with_se=True)
    squared = L.Dataset(u=ds.u**2, y=ds.y**2)
    g = 2 * s + 1
    for k1, k2, k3 in itertools.product(range(g), repeat=3):
        mean = oracles.estimate_sixth_moment_block(ds, k1, k2, k3)
        mean_sq = oracles.estimate_sixth_moment_block(squared, k1, k2, k3)
        np.testing.assert_allclose(
            grid.block(k1, k2, k3), mean, rtol=0, atol=1e-12 * np.abs(mean).max()
        )
        # compared as variances: the square root would amplify the rounding
        # of mean_sq - mean**2 wherever the two nearly cancel
        var = np.maximum(mean_sq - mean**2, 0.0) / n_traj
        np.testing.assert_allclose(
            grid.se[k1, k2, k3] ** 2, var, rtol=0, atol=1e-12 * mean_sq.max() / n_traj
        )


def test_sixth_moment_monte_carlo_scalar():
    """Feedthrough-only scalar system: block (0,0,0) concentrates at d^3."""
    mix = scalar_mixture(0.0, d=2.0)
    ds = L.sample_mixture_dataset(mix, 1_000_000, 3, L.NoiseConfig(seed=77))
    block = oracles.estimate_sixth_moment_block(ds, 0, 0, 0)
    assert abs(float(block.ravel()[0]) - 8.0) <= 0.2
    r0 = oracles.estimate_cross_covariance(ds, 0)
    assert abs(float(r0[0, 0]) - 2.0) <= 0.02


def test_monte_carlo_error_scales_as_inverse_sqrt_n():
    """Aggregate block error should roughly halve when N quadruples
    (ratio ~ sqrt(10) for our 10x steps), averaged over seeds."""
    mix = L.MixtureSpec(
        components=(scalar_params(0.5, d=1.0), scalar_params(-0.5, d=-1.0)),
        weights=[0.5, 0.5],
    )
    s = 1
    exact = MomentTensor6.exact(mix, s).blocks
    ratios = []
    for seed in range(20):
        errs = []
        for n_traj in (1_000, 10_000, 100_000):
            ds = L.sample_mixture_dataset(mix, n_traj, 6 * (s + 1), L.NoiseConfig(seed=9000 + seed))
            est = MomentTensor6.estimate(ds, s)
            errs.append(np.linalg.norm(est.blocks - exact))
        ratios.append(errs[0] / errs[1])
        ratios.append(errs[1] / errs[2])
    mean_ratio = float(np.mean(ratios))
    assert 2.5 <= mean_ratio <= 4.0, mean_ratio


# ---------- assembly and flattening ----------

def test_assemble_exact_rank_one_for_single_component():
    rng = np.random.default_rng(9)
    mix = L.MixtureSpec(components=(L.random_lds((2, 2, 2), rng),), weights=[1.0])
    flat = L.assemble_pi(MomentTensor6.exact(mix, 1))
    unfold = flat.data.reshape(flat.q, -1)
    sv = np.linalg.svd(unfold, compute_uv=False)
    assert sv[1] <= 1e-10 * sv[0]


def test_assemble_scalar_s0_is_feedthrough_cube():
    mix = scalar_mixture(0.0, d=2.0)
    flat = L.assemble_pi(MomentTensor6.exact(mix, 0))
    assert flat.q == 1 and np.allclose(flat.data.ravel(), [8.0])


def test_assemble_matches_weighted_outer_cubes():
    rng = np.random.default_rng(10)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    s = 2
    flat = L.assemble_pi(MomentTensor6.exact(mix, s))
    expect = np.zeros_like(flat.data)
    for w, comp in zip(mix.weights, mix.components):
        v = oracles.flatten_markov(L.markov_matrix(comp, 2 * s), comp.p)
        expect += w * np.einsum("i,j,k->ijk", v, v, v)
    assert np.max(np.abs(flat.data - expect)) <= 1e-12


def test_assemble_exact_symmetric_rank_bounded_by_k():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(1, 4))
        mix = L.random_mixture(k, (2, 2, 2), rng, min_gamma=0.05)
        flat = L.assemble_pi(MomentTensor6.exact(mix, 1))
        sv = np.linalg.svd(flat.data.reshape(flat.q, -1), compute_uv=False)
        assert np.sum(sv > 1e-8 * sv[0]) <= k


def test_flatten_round_trip_norm_and_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m, p, nblocks = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 6)
        g = rng.standard_normal((m, nblocks * p))
        v = oracles.flatten_markov(g, p)
        assert np.array_equal(L.unflatten_markov(v, m, p), g)
        assert abs(np.linalg.norm(v) - np.linalg.norm(g, "fro")) <= 1e-15 * max(
            1.0, np.linalg.norm(g)
        )
    zero = np.zeros((2, 6))
    assert np.array_equal(oracles.flatten_markov(zero, 2), np.zeros(6 * 2 // 2 * 2)[: 2 * 6])
    assert np.array_equal(L.unflatten_markov(np.zeros(12), 2, 2), np.zeros((2, 6)))


def test_flatten_block_layout():
    # vector index = block * (m p) + row * p + col
    g = np.array([[0.0, 1.0, 10.0, 11.0], [2.0, 3.0, 12.0, 13.0]])  # m=2, p=2, 2 blocks
    v = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
    assert np.array_equal(oracles.flatten_markov(g, 2), v)
    assert np.array_equal(L.unflatten_markov(v, 2, 2), g)


def test_symmetrize_noop_on_exact_tensor():
    rng = np.random.default_rng(12)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    flat = L.assemble_pi(MomentTensor6.exact(mix, 1))
    assert np.max(np.abs(L.symmetrize_tensor3(flat.data) - flat.data)) <= 1e-12
    t = rng.standard_normal((4, 4, 4))
    sym = L.symmetrize_tensor3(t)
    assert np.allclose(sym, sym.transpose(1, 0, 2))
    assert np.allclose(sym, sym.transpose(2, 1, 0))


def test_cross_covariance_is_sixth_moment_contraction_in_expectation():
    """For one component, contracting the (k1, 0, 0) population block
    against the normalized feedthrough twice leaves the k1-th Markov
    parameter: the relation holds for population values only, not per
    sample."""
    rng = np.random.default_rng(14)
    mix = L.MixtureSpec(components=(L.random_lds((2, 2, 2), rng),), weights=[1.0])
    d = mix.components[0].d
    d_unit = d / np.linalg.norm(d, "fro") ** 2
    for k1 in range(3):
        block = L.exact_sixth_moment_block(mix, k1, 0, 0)
        contracted = np.einsum("abcdef,ab,cd->ef", block, d_unit, d_unit)
        assert np.allclose(contracted, L.exact_cross_covariance(mix, k1), atol=1e-12)
    # per-sample the two estimators differ
    ds = L.sample_mixture_dataset(mix, 1, 18, L.NoiseConfig(seed=15))
    block = oracles.estimate_sixth_moment_block(ds, 1, 0, 0)
    contracted = np.einsum("abcdef,ab,cd->ef", block, d_unit, d_unit)
    assert not np.allclose(contracted, oracles.estimate_cross_covariance(ds, 1), atol=1e-3)


def test_moment_tensor_standard_errors_cover_truth():
    mix = scalar_mixture(0.3, d=1.0)
    ds = L.sample_mixture_dataset(mix, 20_000, 18, L.NoiseConfig(seed=13))
    est = MomentTensor6.estimate(ds, 2, with_se=True)
    exact = MomentTensor6.exact(mix, 2)
    z = np.abs(est.blocks - exact.blocks) / np.maximum(est.se, 1e-30)
    assert z.max() <= 6.0
