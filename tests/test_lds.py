import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import ldslab as L
import oracles
from ldslab import rng as R
from ldslab.errors import DataError, DimensionError


def scalar_params(a, b=1.0, c=1.0, d=0.0):
    return L.LdsParams(a=[[a]], b=[[b]], c=[[c]], d=[[d]])


# ---------- types ----------

def test_params_dimension_checks():
    with pytest.raises(DimensionError) as err:
        L.LdsParams(a=np.zeros((2, 3)), b=np.zeros((2, 1)), c=np.zeros((1, 2)), d=np.zeros((1, 1)))
    assert err.value.matrix == "a"
    with pytest.raises(DimensionError) as err:
        L.LdsParams(a=np.zeros((2, 2)), b=np.zeros((3, 1)), c=np.zeros((1, 2)), d=np.zeros((1, 1)))
    assert err.value.matrix == "b"
    with pytest.raises(DimensionError):
        L.LdsParams(a=[[np.nan]], b=[[1.0]], c=[[1.0]], d=[[0.0]])


def test_params_immutable():
    params = scalar_params(0.5)
    with pytest.raises(ValueError):
        params.a[0, 0] = 1.0


def test_mixture_weight_checks():
    comp = scalar_params(0.5)
    with pytest.raises(DataError):
        L.MixtureSpec(components=(comp, comp), weights=[0.6, 0.6])
    with pytest.raises(DataError):
        L.MixtureSpec(components=(comp, comp), weights=[1.2, -0.2])
    mix = L.MixtureSpec(components=(comp, comp), weights=[0.25, 0.75])
    assert mix.k == 2 and mix.dims == (1, 1, 1) and mix.noise_scale == 1.0
    for bad in (-0.5, float("nan"), float("inf")):
        with pytest.raises(DataError, match="noise_scale"):
            L.MixtureSpec(components=(comp, comp), weights=[0.25, 0.75], noise_scale=bad)


def test_trajectory_checks():
    with pytest.raises(DataError):
        L.Trajectory(u=np.zeros((3, 1)), y=np.zeros((2, 1)))


def test_dataset_views_share_the_arrays():
    rng = np.random.default_rng(0)
    u, y = rng.standard_normal((5, 4, 2)), rng.standard_normal((5, 4, 3))
    ds = L.Dataset(u=u, y=y, labels=[0, 1, 1, 0, 2])
    u[0, 0, 0] = 99.0  # a writable input is copied
    assert len(ds) == 5 and ds.length == 4 and ds.u[0, 0, 0] != 99.0
    with pytest.raises(ValueError):
        ds.u[0, 0, 0] = 1.0
    traj = ds[-2]
    assert isinstance(traj, L.Trajectory) and traj.label == 0
    assert np.shares_memory(traj.u, ds.u) and np.shares_memory(traj.y, ds.y)
    assert np.array_equal(traj.y, y[3])
    head = ds[1:3]
    assert isinstance(head, L.Dataset) and np.shares_memory(head.u, ds.u)
    assert head.labels.tolist() == [1, 1] and [t.label for t in ds] == [0, 1, 1, 0, 2]
    assert L.Dataset(u=ds.u, y=ds.y)[0].label is None
    assert ds == ds and ds != ds[:] and len({ds, ds}) == 1  # identity equality


def test_array_dataclasses_compare_by_identity():
    """Equal but distinct objects with array fields compare unequal and hash,
    rather than raising on the ambiguous truth value of an array."""
    params = L.LdsParams(a=[[0.5]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
    twin = L.LdsParams(a=[[0.5]], b=[[1.0]], c=[[1.0]], d=[[0.0]])
    mixes = [L.MixtureSpec(components=(params, twin), weights=[0.5, 0.5]) for _ in range(2)]
    trajs = [L.Trajectory(u=[[1.0], [2.0]], y=[[0.0], [1.0]], label=0) for _ in range(2)]
    for a, b in ([params, twin], mixes, trajs):
        assert a == a and a != b and len({a, b, a}) == 2


def test_dataset_checks():
    u, y = np.zeros((2, 3, 1)), np.zeros((2, 3, 1))
    bad = [
        dict(u=u[0], y=y[0]),  # not (N, l, .)
        dict(u=u, y=y[:, :2]),  # unequal lengths
        dict(u=u[:0], y=y[:0]),  # no trajectory
        dict(u=u, y=np.full_like(y, np.nan)),
        dict(u=u, y=y, labels=[0]),
        dict(u=u, y=y, labels=[0.5, 1.0]),
    ]
    for kwargs in bad:
        with pytest.raises(DataError):
            L.Dataset(**kwargs)


def test_dataset_finiteness_check():
    """A nan or an inf in the last entry is found; p = 0 is accepted; and
    checking read-only arrays makes no elementwise temporary (a bool array
    of u's shape alone would take 720 KB)."""
    u, y = np.zeros((20_000, 18, 2)), np.zeros((20_000, 18, 2))
    u.setflags(write=False)
    y.setflags(write=False)
    tracemalloc.start()
    try:
        L.Dataset(u=u, y=y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    for value in (np.nan, np.inf, -np.inf):
        for name in ("u", "y"):
            arrays = {"u": np.zeros((2, 3, 1)), "y": np.zeros((2, 3, 1))}
            arrays[name][-1, -1, -1] = value
            with pytest.raises(DataError, match="non-finite"):
                L.Dataset(**arrays)
    assert L.Dataset(u=np.zeros((2, 3, 0)), y=np.zeros((2, 3, 1))).u.shape == (2, 3, 0)


# ---------- simulation vs closed form ----------

def test_simulate_one_step_delay():
    # A=0, B=C=1, D=0: y[0]=0 and y[1]=u[0] when noiseless
    params = scalar_params(0.0)
    u = np.array([[0.7], [-1.3]])
    zeros = np.zeros((2, 1))
    traj = oracles.simulate_from_noise(params, [0.0], u, zeros, zeros)
    assert np.allclose(traj.y, [[0.0], [0.7]])


def test_simulate_feedthrough_only():
    params = L.LdsParams(a=np.zeros((2, 2)), b=np.zeros((2, 2)), c=np.eye(2), d=2 * np.eye(2))
    rng = L.substream(3, 0)
    traj = oracles.simulate_trajectory(params, 5, 0.0, rng)
    assert np.allclose(traj.y, 2 * traj.u, atol=1e-14)


def test_simulate_scalar_impulse():
    params = scalar_params(0.5)
    u = np.array([[1.0], [0.0], [0.0]])
    zeros = np.zeros((3, 1))
    traj = oracles.simulate_from_noise(params, [0.0], u, zeros, zeros)
    assert np.allclose(traj.y, [[0.0], [1.0], [0.5]])


def test_closed_form_t0_and_scalar():
    params = scalar_params(0.5)
    u = np.array([[1.0], [0.0], [0.0]])
    zeros = np.zeros((3, 1))
    y0 = oracles.closed_form_observation(params, 0, u, zeros, zeros, [0.3])
    assert np.allclose(y0, [0.3])  # C x0 + D u0 + z0
    y2 = oracles.closed_form_observation(params, 2, u, zeros, zeros, [0.0])
    assert np.allclose(y2, [0.5])
    with pytest.raises(DataError):
        oracles.closed_form_observation(params, 3, u, zeros, zeros, [0.0])


def test_simulate_matches_closed_form_on_shared_draws():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dims = tuple(int(rng.integers(1, 4)) for _ in range(3))
        params = L.random_lds(dims, rng)
        length = int(rng.integers(1, 12))
        x0, u, w, z = L.draw_lds_noise(dims, length, 1.0, L.substream(seed, 0))
        traj = oracles.simulate_trajectory(params, length, 1.0, L.substream(seed, 0))
        assert np.array_equal(traj.u, u)
        for t in range(length):
            ref = oracles.closed_form_observation(params, t, u, w, z, x0)
            assert np.max(np.abs(traj.y[t] - ref)) <= 1e-12


def test_noiseless_simulation_equals_closed_form_with_zero_noise():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = L.random_lds((2, 2, 2), rng)
        traj = oracles.simulate_trajectory(params, 10, 0.0, L.substream(seed, 0))
        zeros_n = np.zeros((10, params.n))
        zeros_m = np.zeros((10, params.m))
        for t in range(10):
            ref = oracles.closed_form_observation(
                params, t, traj.u, zeros_n, zeros_m, np.zeros(params.n)
            )
            assert np.max(np.abs(traj.y[t] - ref)) <= 1e-12


def test_simulate_deterministic_given_seed():
    params = scalar_params(0.5)
    t1 = oracles.simulate_trajectory(params, 7, 1.0, L.substream(9, 3))
    t2 = oracles.simulate_trajectory(params, 7, 1.0, L.substream(9, 3))
    assert np.array_equal(t1.u, t2.u) and np.array_equal(t1.y, t2.y)


# ---------- dataset sampling ----------

def test_dataset_single_component_labels():
    mix = L.MixtureSpec(components=(scalar_params(0.5),), weights=[1.0])
    ds = L.sample_mixture_dataset(mix, 50, 3, L.NoiseConfig(seed=1))
    assert all(t.label == 0 for t in ds)


def test_dataset_label_frequencies():
    mix = L.MixtureSpec(
        components=(scalar_params(0.5), scalar_params(-0.5)), weights=[0.5, 0.5]
    )
    ds = L.sample_mixture_dataset(mix, 100_000, 1, L.NoiseConfig(seed=11))
    freq = np.mean(ds.labels == 0)
    assert 0.49 <= freq <= 0.51


def test_dataset_rejects_empty():
    mix = L.MixtureSpec(components=(scalar_params(0.5),), weights=[1.0])
    with pytest.raises(DataError):
        L.sample_mixture_dataset(mix, 0, 3, L.NoiseConfig(seed=1))


def test_dataset_matches_single_trajectory_substreams():
    """Trajectory i is exactly substream i: the label draw first, then the
    noise block of the drawn component, scaled by the mixture's noise_scale;
    the same seed at unit scale gives the same inputs and labels but other
    outputs."""
    mix = L.MixtureSpec(
        components=(scalar_params(0.3, d=1.0), scalar_params(-0.6, b=2.0, d=-0.5)),
        weights=[0.4, 0.6],
        noise_scale=0.5,
    )
    ds = L.sample_mixture_dataset(mix, 16, 6, L.NoiseConfig(seed=21))
    cumw = np.cumsum(mix.weights)
    for i, traj in enumerate(ds):
        rng = L.substream(21, i)
        label = int(np.searchsorted(cumw, rng.random(), side="right"))
        ref = oracles.simulate_trajectory(mix.components[label], 6, 0.5, rng)
        assert traj.label == label
        assert np.array_equal(traj.u, ref.u)
        assert np.array_equal(traj.y, ref.y)
    assert set(ds.labels.tolist()) == {0, 1}
    unit = L.sample_mixture_dataset(dataclasses.replace(mix, noise_scale=1.0), 16, 6,
                                    L.NoiseConfig(seed=21))
    assert np.array_equal(unit.u, ds.u) and np.array_equal(unit.labels, ds.labels)
    assert not np.allclose(unit.y, ds.y)


def test_dataset_rows_match_their_substreams_across_chunks(monkeypatch, benchmark_mixture):
    """Chunks of 5 over 13 trajectories (the last one partial, each with
    both components): every row is its own substream run through the
    recurrence alone."""
    monkeypatch.setattr(R, "_BATCH", 5)
    mix = dataclasses.replace(benchmark_mixture, noise_scale=0.7)
    ds = L.sample_mixture_dataset(mix, 13, 4, L.NoiseConfig(seed=2**40 + 10))
    cumw = np.cumsum(mix.weights)
    for i, traj in enumerate(ds):
        rng = L.substream(2**40 + 10, i)
        label = int(np.searchsorted(cumw, rng.random(), side="right"))
        ref = oracles.simulate_trajectory(mix.components[label], 4, 0.7, rng)
        assert traj.label == label
        assert np.array_equal(traj.u, ref.u) and np.array_equal(traj.y, ref.y)
    assert all(set(ds.labels[lo:lo + 5].tolist()) == {0, 1} for lo in (0, 5, 10))


def test_dataset_bits_are_pinned(benchmark_mixture):
    """sha256 of the arrays sampled from the benchmark mixture: a change to
    the draws, their order or the recurrence's arithmetic shows here."""
    ds = L.sample_mixture_dataset(benchmark_mixture, 5000, 18, L.NoiseConfig(42))
    digests = {name: hashlib.sha256(getattr(ds, name).tobytes()).hexdigest()
               for name in ("u", "y", "labels")}
    assert ds.labels.dtype == np.int64
    assert digests == {
        "u": "ab218d67234362af46a5d07105e530ae2fa397920ce86061b90845e23831bf5c",
        "y": "76905107115bf1abd6fa9b57e098885297e10d0452ea61fe41b437a169010497",
        "labels": "80039aef0bd77c1ba396e7e09519b683c2b1f0bace645e4d0e25b85d3eea0cb2",
    }


def test_sampling_memory_is_the_dataset_plus_a_chunk(benchmark_mixture):
    """Traced peak of sampling 20000 trajectories (five chunks, the last
    partial) stays within the Dataset plus three (4096, width) float buffers;
    an N-by-width block of normals would exceed it."""
    n_traj, length = 20_000, 18
    m, n, p = benchmark_mixture.dims
    allowance = 3 * R._BATCH * (n + length * (p + n + m)) * 8
    tracemalloc.start()
    try:
        ds = L.sample_mixture_dataset(benchmark_mixture, n_traj, length, L.NoiseConfig(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ds.u.nbytes + ds.y.nbytes + ds.labels.nbytes + allowance


def test_dataset_counts_must_be_integers():
    mix = L.MixtureSpec(components=(scalar_params(0.5),), weights=[1.0])
    with pytest.raises(DataError, match="n_traj must be an integer >= 1, got 5.0"):
        L.sample_mixture_dataset(mix, 5.0, 18, L.NoiseConfig(seed=0))
    with pytest.raises(DataError, match="length must be an integer >= 1, got 18.0"):
        L.sample_mixture_dataset(mix, 5, 18.0, L.NoiseConfig(seed=0))
    assert len(L.sample_mixture_dataset(mix, np.int64(5), 18, L.NoiseConfig(seed=0))) == 5


def test_mixture_and_noise_arguments_are_checked():
    """A bare seed for ``noise`` and a list for ``mix`` were AttributeErrors."""
    mix = L.MixtureSpec(components=(scalar_params(0.5),), weights=[1.0])
    with pytest.raises(DataError, match="expected a NoiseConfig, got int"):
        L.sample_mixture_dataset(mix, 10, 15, 42)
    with pytest.raises(DataError, match="expected a MixtureSpec, got list"):
        L.sample_mixture_dataset(list(mix.components), 10, 15, L.NoiseConfig(seed=0))
    with pytest.raises(DataError, match="expected a MixtureSpec, got list"):
        L.well_behaved_report(list(mix.components), 2, kappa=10.0, w_min=0.1, gamma=0.1)
    for s in (2.0, 0):
        with pytest.raises(DataError, match="^s must be an integer >= 1, got"):
            L.well_behaved_report(mix, s, kappa=10.0, w_min=0.1, gamma=0.1)
    with pytest.raises(DataError, match="^s must be an integer >= 0, got 2.0"):
        L.joint_nondegeneracy_gamma(mix, 2.0)


# ---------- diagnostic matrices ----------

def test_observability_scalar_powers():
    params = scalar_params(0.5)
    obs = L.observability_matrix(params, 3)
    assert np.allclose(obs, [[1.0], [0.5], [0.25]])
    assert np.allclose(L.observability_matrix(params, 1), [[1.0]])


def test_observability_identity_stack():
    params = L.LdsParams(a=np.eye(2), b=np.eye(2), c=np.eye(2), d=np.zeros((2, 2)))
    assert np.allclose(L.observability_matrix(params, 2), np.vstack([np.eye(2), np.eye(2)]))


def test_observability_prefix_property():
    rng = np.random.default_rng(0)
    params = L.random_lds((2, 3, 2), rng)
    s = 3
    big = L.observability_matrix(params, 2 * s)
    assert np.array_equal(big[: s * params.m], L.observability_matrix(params, s))


def test_controllability_scalar_and_nilpotent():
    params = scalar_params(0.5)
    assert np.allclose(L.controllability_matrix(params, 3), [[1.0, 0.5, 0.25]])
    assert np.allclose(L.controllability_matrix(params, 1), [[1.0]])
    a = np.array([[0.0, 1.0], [0.0, 0.0]])  # A^2 = 0
    params = L.LdsParams(a=a, b=np.eye(2), c=np.eye(2), d=np.zeros((2, 2)))
    ctrl = L.controllability_matrix(params, 3)
    assert np.allclose(ctrl, np.hstack([np.eye(2), a, np.zeros((2, 2))]))


def test_markov_parameter_values():
    params = scalar_params(0.5, d=2.0)
    assert np.allclose(oracles.markov_parameter(params, 0), [[2.0]])
    assert np.allclose(oracles.markov_parameter(params, 1), [[1.0]])  # CB
    assert np.allclose(oracles.markov_parameter(params, 2), [[0.5]])  # CAB


def test_markov_matrix_blocks():
    params = scalar_params(0.5, d=2.0)
    assert np.allclose(L.markov_matrix(params, 0), [[2.0]])
    assert np.allclose(L.markov_matrix(params, 2), [[2.0, 1.0, 0.5]])
    rng = np.random.default_rng(5)
    params = L.random_lds((2, 2, 3), rng)
    g = L.markov_matrix(params, 4)
    assert g.shape == (2, 5 * 3)
    for j in range(5):
        assert np.array_equal(g[:, 3 * j : 3 * (j + 1)], oracles.markov_parameter(params, j))


# ---------- joint non-degeneracy ----------

def test_gamma_single_component_is_frobenius_norm():
    params = scalar_params(0.5, d=2.0)
    mix = L.MixtureSpec(components=(params,), weights=[1.0])
    assert np.isclose(
        L.joint_nondegeneracy_gamma(mix, 2), np.linalg.norm(L.markov_matrix(params, 2))
    )


def test_gamma_zero_for_duplicates():
    params = scalar_params(0.5, d=2.0)
    mix = L.MixtureSpec(components=(params, params), weights=[0.5, 0.5])
    assert L.joint_nondegeneracy_gamma(mix, 2) <= 1e-12


def test_gamma_orthogonal_components():
    # first Markov blocks [1, 0] and [0, 2], all later blocks zero
    zero_b = np.zeros((1, 2))
    c1 = L.LdsParams(a=[[0.0]], b=zero_b, c=[[1.0]], d=[[1.0, 0.0]])
    c2 = L.LdsParams(a=[[0.0]], b=zero_b, c=[[1.0]], d=[[0.0, 2.0]])
    mix = L.MixtureSpec(components=(c1, c2), weights=[0.5, 0.5])
    assert np.isclose(L.joint_nondegeneracy_gamma(mix, 1), 1.0)


def test_gamma_zero_when_k_exceeds_the_markov_entries():
    """At s=1 with m=n=p=1 each G_i = [D, CB] has 2 entries, so 3 components
    are linearly dependent: gamma is 0, random_mixture cannot reach a
    positive min_gamma, and validate fails joint non-degeneracy."""
    mix = L.MixtureSpec(
        components=tuple(scalar_params(a, d=d) for a, d in ((0.5, 1.0), (0.2, -1.0), (-0.4, 0.3))),
        weights=[0.3, 0.3, 0.4],
    )
    assert L.joint_nondegeneracy_gamma(mix, 1) == 0.0
    assert L.joint_nondegeneracy_gamma(mix, 2) > 0.5  # [D, CB, CAB]: 3 entries, independent
    report = L.well_behaved_report(mix, 1, kappa=10.0, w_min=0.1, gamma=0.01)
    assert not report.checks["joint_nondegeneracy"]
    with pytest.raises(DataError, match="joint non-degeneracy"):
        L.random_mixture(3, (1, 1, 1), np.random.default_rng(4), min_gamma=0.5, s=1)


def test_random_mixture_rejects_an_unreachable_gamma_before_drawing(monkeypatch):
    """k > (s+1)mp makes gamma 0 by construction, so a positive min_gamma
    raises before any system is drawn instead of after MAX_TRIES futile
    draws; min_gamma = 0 still draws such a mixture."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a system was drawn")

    with monkeypatch.context() as patch:
        patch.setattr(L.lds, "random_lds", no_draw)
        with pytest.raises(DataError, match="joint non-degeneracy.*gamma is 0"):
            L.random_mixture(5, (1, 1, 2), np.random.default_rng(0), min_gamma=0.1, s=1)
    assert L.random_mixture(5, (1, 1, 2), np.random.default_rng(0), s=1).k == 5


def test_gamma_permutation_invariance_and_combination_bound():
    rng = np.random.default_rng(17)
    mix = L.random_mixture(3, (2, 2, 2), rng)
    s = 2
    gamma = L.joint_nondegeneracy_gamma(mix, s)
    perm_mix = L.MixtureSpec(
        components=(mix.components[2], mix.components[0], mix.components[1]),
        weights=[mix.weights[2], mix.weights[0], mix.weights[1]],
    )
    assert np.isclose(L.joint_nondegeneracy_gamma(perm_mix, s), gamma)
    flats = [L.markov_matrix(c, s).ravel() for c in mix.components]
    for _ in range(50):
        c = rng.standard_normal(3)
        c /= np.linalg.norm(c)
        combo = sum(ci * fi for ci, fi in zip(c, flats))
        assert np.linalg.norm(combo) >= gamma - 1e-10


# ---------- well-behaved report ----------

def test_report_duplicate_components_fail_gamma():
    params = scalar_params(0.5, d=1.0)
    mix = L.MixtureSpec(components=(params, params), weights=[0.5, 0.5])
    report = L.well_behaved_report(mix, 2, kappa=10.0, w_min=0.1, gamma=0.1)
    assert report.gamma <= 1e-12
    assert not report.checks["joint_nondegeneracy"]
    assert not report.ok


def test_report_scalar_stable_system_passes():
    params = scalar_params(0.5, b=1.0, c=1.0, d=1.0)
    mix = L.MixtureSpec(components=(params,), weights=[1.0])
    report = L.well_behaved_report(mix, 2, kappa=10.0, w_min=0.5, gamma=0.5)
    assert report.ok, report.checks
    assert np.all(report.obs_ratio >= 1.0) and np.all(report.ctrl_ratio >= 1.0)
    # measured ratios for a = 0.5: sqrt(max eig of O_4^T O_4) / sqrt(min of O_2)
    o4 = L.observability_matrix(params, 4)
    o2 = L.observability_matrix(params, 2)
    expect = np.linalg.norm(o4, 2) / np.linalg.svd(o2, compute_uv=False)[-1]
    assert np.isclose(report.obs_ratio[0], expect)


def test_report_weight_floor():
    mix = L.MixtureSpec(
        components=(scalar_params(0.5, d=1.0), scalar_params(-0.5, d=1.0)),
        weights=[0.99, 0.01],
    )
    report = L.well_behaved_report(mix, 2, kappa=10.0, w_min=0.05, gamma=0.01)
    assert not report.checks["weights"]


# ---------- singular value and power diagnostics ----------

def test_power_norm_check_zero_and_scalar():
    params = L.LdsParams(a=np.zeros((2, 2)), b=np.eye(2), c=np.eye(2), d=np.zeros((2, 2)))
    assert all(oracles.power_norm_check(params, 2, 1.0, t) for t in range(1, 13))
    params = scalar_params(0.5)
    assert all(oracles.power_norm_check(params, 2, 1.0, t) for t in range(1, 13))


def normal_dynamics_system(rng, dims=(2, 2, 2), rho=0.65):
    """Random system whose A is normal (orthogonally diagonalizable).

    The power-norm bound interpolates between integer multiples of s;
    transient growth of a highly non-normal A can break it at t < s even
    when every assumption holds, so the diagnostic suite checks it on
    systems without such transients.
    """
    m, n, p = dims
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(0.2, rho, size=n) * rng.choice([-1.0, 1.0], size=n)
    a = q @ np.diag(eigs) @ q.T
    b = rng.standard_normal((n, p))
    b *= rng.uniform(1.0, 2.0) / np.linalg.norm(b, 2)
    c = rng.standard_normal((m, n))
    c *= rng.uniform(1.0, 2.0) / np.linalg.norm(c, 2)
    return L.LdsParams(a=a, b=b, c=c, d=rng.standard_normal((m, p)))


def test_power_norm_and_sigma_min_on_passing_systems():
    rng = np.random.default_rng(404)
    s, kappa = 2, 10.0
    checked = 0
    while checked < 25:
        params = normal_dynamics_system(rng)
        mix = L.MixtureSpec(components=(params,), weights=[1.0])
        report = L.well_behaved_report(mix, s, kappa=kappa, w_min=0.5, gamma=1e-6)
        if not report.ok:
            continue
        checked += 1
        assert np.all(report.diagnostics["sigma_min_obs_ok"])
        assert np.all(report.diagnostics["sigma_min_ctrl_ok"])
        for t in range(1, 6 * s + 1):
            assert oracles.power_norm_check(params, s, kappa, t)
