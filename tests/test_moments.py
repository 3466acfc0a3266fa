import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
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
    pad = [[0.0]] * 6  # length 9 = min_trajectory_length(1)
    ds = L.Dataset(u=[[[1.0], [2.0], [5.0]] + pad], y=[[[3.0], [4.0], [6.0]] + pad])
    stack = L.CrossCovarianceStack.estimate(ds, 1)
    assert np.allclose(stack.assembled[:, 0:1], [[3.0]])
    assert np.allclose(stack.assembled[:, 1:2], [[4.0]])


def test_exact_cross_covariance_is_weighted_markov_sum():
    rng = np.random.default_rng(2)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    for k1 in range(4):
        expect = sum(
            w * oracles.markov_parameter(c, k1) for w, c in zip(mix.weights, mix.components)
        )
        assert np.allclose(oracles.exact_cross_covariance(mix, k1), expect)


def test_exact_cross_covariance_cancellation():
    c1 = scalar_params(0.5, d=1.0)
    c2 = scalar_params(0.5, d=-1.0)
    mix = L.MixtureSpec(components=(c1, c2), weights=[0.5, 0.5])
    assert np.allclose(oracles.exact_cross_covariance(mix, 0), [[0.0]])


def test_cross_covariance_stack_blocks_match_assembled():
    """Column block j of the assembled stack is the lag-j estimate."""
    rng = np.random.default_rng(3)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    ds = L.sample_mixture_dataset(mix, 200, 18, L.NoiseConfig(seed=4))
    stack = L.CrossCovarianceStack.estimate(ds, 2)
    m, _, p = mix.dims
    assert stack.assembled.shape == (m, 5 * p)
    for j in range(5):
        block = stack.assembled[:, j * p : (j + 1) * p]
        assert np.allclose(block, oracles.estimate_cross_covariance(ds, j))


def test_cross_covariance_errors():
    with pytest.raises(DataError):
        L.CrossCovarianceStack.estimate([], 1)
    with pytest.raises(DataError, match="Dataset"):
        L.CrossCovarianceStack.estimate([L.Trajectory(u=[[1.0]] * 3, y=[[3.0]] * 3)], 1)
    with pytest.raises(DataError, match="need length >= 9"):
        L.CrossCovarianceStack.estimate(L.Dataset(u=[[[1.0]]], y=[[[1.0]]]), 1)


@given(s=st.integers(0, 3), m=st.integers(1, 2), p=st.integers(1, 2))
def test_every_estimator_applies_the_one_length_rule(s, m, p):
    """At length 6s+2 both estimators, and learn_mixture for s >= 1, raise
    the same DataError; at 6s+3 both estimators run."""
    need = L.min_trajectory_length(s)
    message = moments.too_short_message(need - 1, need)
    rng = np.random.default_rng(s)

    def dataset(length):
        return L.Dataset(u=rng.standard_normal((2, length, p)),
                         y=rng.standard_normal((2, length, m)))

    short = dataset(need - 1)
    calls = [MomentTensor6.estimate, L.CrossCovarianceStack.estimate]
    if s >= 1:
        calls.append(lambda ds, s: L.learn_mixture(ds, 1, 1, s, np.random.default_rng(0)))
    for call in calls:
        with pytest.raises(DataError) as info:
            call(short, s)
        assert str(info.value) == message
    full = dataset(need)
    assert MomentTensor6.estimate(full, s).blocks.shape == (2 * s + 1,) * 3 + (m, p) * 3
    assert L.CrossCovarianceStack.estimate(full, s).assembled.shape == (m, (2 * s + 1) * p)


# ---------- sixth moment blocks ----------

def test_sixth_moment_single_trajectory_literal_outer():
    rng = np.random.default_rng(5)
    traj = L.Trajectory(u=rng.standard_normal((9, 2)), y=rng.standard_normal((9, 3)))
    k1, k2, k3 = 1, 0, 2
    est = MomentTensor6.estimate(L.Dataset(u=traj.u[None], y=traj.y[None]), 1).block(k1, k2, k3)
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


def test_negative_horizon_is_a_data_error():
    ds = L.Dataset(u=np.zeros((2, 9, 1)), y=np.zeros((2, 9, 1)))
    with pytest.raises(DataError, match="s must be >= 0"):
        moments.min_trajectory_length(-1)
    with pytest.raises(DataError, match="s must be >= 0"):
        MomentTensor6.estimate(ds, -1)
    with pytest.raises(DataError, match="s must be >= 0"):
        L.CrossCovarianceStack.estimate(ds, -1)


def test_sixth_moment_of_a_strided_view_equals_a_contiguous_copy():
    """A stepped Dataset slice is a strided, read-only view of the parent's
    arrays; the kernel gives it the same bits as a contiguous copy."""
    rng = np.random.default_rng(8)
    ds = L.Dataset(u=rng.standard_normal((41, 10, 2)), y=rng.standard_normal((41, 10, 3)))
    view = ds[::2]
    assert not view.u.flags.c_contiguous and not view.u.flags.writeable
    copy = L.Dataset(u=np.ascontiguousarray(view.u), y=np.ascontiguousarray(view.y))
    assert np.array_equal(MomentTensor6.estimate(view, 1).blocks,
                          MomentTensor6.estimate(copy, 1).blocks)
    assert np.array_equal(L.CrossCovarianceStack.estimate(view, 1).assembled,
                          L.CrossCovarianceStack.estimate(copy, 1).assembled)


def test_sixth_moment_across_the_real_chunk_boundary():
    """N = _CHUNK + 3 at the module's own chunk: the last chunk uses the
    first 3 columns of every buffer sized for a full chunk.  The Rhat sums
    taken from the same chunk buffers agree with the direct einsum too."""
    rng = np.random.default_rng(9)
    n_traj, s = moments._CHUNK + 3, 1
    ds = L.Dataset(u=rng.standard_normal((n_traj, 9, 2)), y=rng.standard_normal((n_traj, 9, 2)))
    grid, stack = moments.estimate_moments(ds, s)
    absolute = L.Dataset(u=np.abs(ds.u), y=np.abs(ds.y))
    for k1, k2, k3 in itertools.product(range(2 * s + 1), repeat=3):
        mean = oracles.estimate_sixth_moment_block(ds, k1, k2, k3)
        summands = oracles.estimate_sixth_moment_block(absolute, k1, k2, k3)
        assert np.all(np.abs(grid.block(k1, k2, k3) - mean) <= 1e-12 * summands)
    assert stack.assembled.shape == (2, (2 * s + 1) * 2)
    for k1 in range(2 * s + 1):
        block = stack.assembled[:, 2 * k1 : 2 * k1 + 2]
        mean = oracles.estimate_cross_covariance(ds, k1)
        summands = oracles.estimate_cross_covariance(absolute, k1)
        assert np.all(np.abs(block - mean) <= 1e-12 * summands)


def test_exact_sixth_moment_feedthrough_cube():
    mix = scalar_mixture(0.0, d=2.0)
    assert np.allclose(oracles.exact_sixth_moment_block(mix, 0, 0, 0).ravel(), [8.0])


def test_exact_sixth_moment_markov_products():
    mix = scalar_mixture(0.5, d=0.0)  # b = c = 1
    assert np.allclose(oracles.exact_sixth_moment_block(mix, 1, 1, 1).ravel(), [1.0])
    assert np.allclose(oracles.exact_sixth_moment_block(mix, 2, 2, 2).ravel(), [0.125])


def test_exact_sixth_moment_matrix_structure():
    rng = np.random.default_rng(6)
    mix = L.random_mixture(2, (2, 3, 2), rng)
    k1, k2, k3 = 0, 2, 1
    block = oracles.exact_sixth_moment_block(mix, k1, k2, k3)
    expect = np.zeros_like(block)
    for w, comp in zip(mix.weights, mix.components):
        expect += w * np.einsum(
            "ab,cd,ef->abcdef",
            oracles.markov_parameter(comp, k3),
            oracles.markov_parameter(comp, k2),
            oracles.markov_parameter(comp, k1),
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
# a block whose mean nearly cancels (|mean| 3e-6): its rounding exceeds 1e-12 |mean|
@example(m=1, p=1, s=2, n_traj=11, chunk=1, extra=2, seed=779)
# g = 7 with m != p: every anti-diagonal group size 1..g and both ends of its
# k1 range, with a last chunk of 3
@example(m=2, p=3, s=3, n_traj=11, chunk=4, extra=1, seed=24)
def test_moment_grid_matches_per_block_estimates(m, p, s, n_traj, chunk, extra, seed):
    """The chunked grid kernel agrees with the direct per-block einsum,
    across chunk boundaries and a partial last chunk."""
    rng = np.random.default_rng(seed)
    length = 6 * s + 3 + extra
    ds = L.Dataset(u=rng.standard_normal((n_traj, length, p)),
                   y=rng.standard_normal((n_traj, length, m)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_CHUNK", chunk)
        grid = MomentTensor6.estimate(ds, s)
    absolute = L.Dataset(u=np.abs(ds.u), y=np.abs(ds.y))
    g = 2 * s + 1
    for k1, k2, k3 in itertools.product(range(g), repeat=3):
        mean = oracles.estimate_sixth_moment_block(ds, k1, k2, k3)
        # the rounding of a sum scales with its summands, not with the sum
        summands = oracles.estimate_sixth_moment_block(absolute, k1, k2, k3)
        assert np.all(np.abs(grid.block(k1, k2, k3) - mean) <= 1e-12 * summands)


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
    exact = oracles.exact_moment_tensor(mix, s).blocks
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
    flat = L.assemble_pi(oracles.exact_moment_tensor(mix, 1))
    unfold = flat.reshape(flat.shape[0], -1)
    sv = np.linalg.svd(unfold, compute_uv=False)
    assert sv[1] <= 1e-10 * sv[0]


def test_assemble_scalar_s0_is_feedthrough_cube():
    mix = scalar_mixture(0.0, d=2.0)
    flat = L.assemble_pi(oracles.exact_moment_tensor(mix, 0))
    assert flat.shape == (1, 1, 1) and np.allclose(flat.ravel(), [8.0])


def test_assemble_matches_weighted_outer_cubes():
    rng = np.random.default_rng(10)
    mix = L.random_mixture(2, (2, 2, 2), rng)
    s = 2
    flat = L.assemble_pi(oracles.exact_moment_tensor(mix, s))
    expect = np.zeros_like(flat)
    for w, comp in zip(mix.weights, mix.components):
        v = oracles.flatten_markov(L.markov_matrix(comp, 2 * s), comp.p)
        expect += w * np.einsum("i,j,k->ijk", v, v, v)
    assert np.max(np.abs(flat - expect)) <= 1e-12


def test_assemble_exact_symmetric_rank_bounded_by_k():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(1, 4))
        mix = L.random_mixture(k, (2, 2, 2), rng, min_gamma=0.05)
        flat = L.assemble_pi(oracles.exact_moment_tensor(mix, 1))
        sv = np.linalg.svd(flat.reshape(flat.shape[0], -1), compute_uv=False)
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
    flat = L.assemble_pi(oracles.exact_moment_tensor(mix, 1))
    assert np.max(np.abs(L.symmetrize_tensor3(flat) - flat)) <= 1e-12
    t = rng.standard_normal((4, 4, 4))
    sym = L.symmetrize_tensor3(t)
    assert np.allclose(sym, sym.transpose(1, 0, 2))
    assert np.allclose(sym, sym.transpose(2, 1, 0))
    # dividing by 6 in place keeps the bits of the out-of-place mean
    mean = (t + t.transpose(0, 2, 1) + t.transpose(1, 0, 2) + t.transpose(1, 2, 0)
            + t.transpose(2, 0, 1) + t.transpose(2, 1, 0)) / 6.0
    assert sym.tobytes() == mean.tobytes()


def test_moment_containers_find_non_finite_entries_without_a_bool_grid():
    """A nan or an inf in the last entry of a sixth-moment grid or of the
    decomposition's input tensor is a DataError; a finite one is checked with
    no elementwise temporary (the bool array of a q = 48 grid alone takes
    110 KB).  The decomposition checks its input before its rank bounds, so a
    rank of 0 stops it right after the check."""
    s, m, p = 1, 4, 4
    q = (2 * s + 1) * m * p
    blocks = np.zeros((3, 3, 3) + (m, p) * 3)
    data = np.zeros((q, q, q))
    tracemalloc.start()
    try:
        MomentTensor6(blocks=blocks, s=s)
        with pytest.raises(DataError, match="rank r must be >= 1"):
            L.jennrich_decompose(data, 0, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    for value in (np.nan, np.inf, -np.inf):
        bad = blocks.copy()
        bad.reshape(-1)[-1] = value
        with pytest.raises(DataError, match="non-finite"):
            MomentTensor6(blocks=bad, s=s)
        bad = data.copy()
        bad.reshape(-1)[-1] = value
        with pytest.raises(DataError, match="non-finite"):
            L.jennrich_decompose(bad, 1, np.random.default_rng(0))


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
        block = oracles.exact_sixth_moment_block(mix, k1, 0, 0)
        contracted = np.einsum("abcdef,ab,cd->ef", block, d_unit, d_unit)
        assert np.allclose(contracted, oracles.exact_cross_covariance(mix, k1), atol=1e-12)
    # per-sample the two estimators differ
    ds = L.sample_mixture_dataset(mix, 1, 18, L.NoiseConfig(seed=15))
    block = oracles.estimate_sixth_moment_block(ds, 1, 0, 0)
    contracted = np.einsum("abcdef,ab,cd->ef", block, d_unit, d_unit)
    assert not np.allclose(contracted, oracles.estimate_cross_covariance(ds, 1), atol=1e-3)


def test_moment_tensor_standard_errors_cover_truth():
    mix = scalar_mixture(0.3, d=1.0)
    ds = L.sample_mixture_dataset(mix, 20_000, 18, L.NoiseConfig(seed=13))
    est = MomentTensor6.estimate(ds, 2)
    exact = oracles.exact_moment_tensor(mix, 2)
    z = np.abs(est.blocks - exact.blocks) / np.maximum(oracles.sixth_moment_se(ds, 2), 1e-30)
    assert z.max() <= 6.0
