import numpy as np
import pytest

import ldslab as L
from ldslab.errors import DataError, DimensionError, RankDeficiencyWarning
from ldslab.tensor import truncated_pinv


def scalar_params(a, b=1.0, c=1.0, d=0.0):
    return L.LdsParams(a=[[a]], b=[[b]], c=[[c]], d=[[d]])


def observable_controllable(dims, rng, s):
    """Random system with full-rank depth-s observability and
    controllability matrices."""
    while True:
        params = L.random_lds(dims, rng)
        n = params.n
        obs_rank = np.linalg.matrix_rank(L.observability_matrix(params, s), tol=1e-8)
        ctrl_rank = np.linalg.matrix_rank(L.controllability_matrix(params, s), tol=1e-8)
        if obs_rank == n and ctrl_rank == n:
            return params


# ---------- Hankel construction ----------

def test_build_hankel_scalar():
    g = np.array([[2.0, 1.0, 0.5, 0.25, 0.125]])
    h = L.build_hankel(g, 2)
    assert np.array_equal(h, [[1.0, 0.5, 0.25], [0.5, 0.25, 0.125]])


def test_build_hankel_s1():
    g = np.array([[2.0, 1.0, 0.5]])
    assert np.array_equal(L.build_hankel(g, 1), [[1.0, 0.5]])


def test_hankel_block_antidiagonals():
    rng = np.random.default_rng(0)
    params = L.random_lds((2, 3, 2), rng)
    s = 3
    g = L.markov_matrix(params, 2 * s)
    h = L.build_hankel(g, s)
    m, p = params.m, params.p
    for i in range(s):
        for j in range(s + 1):
            for i2 in range(s):
                j2 = i + j - i2
                if 0 <= j2 <= s:
                    a = h[i * m : (i + 1) * m, j * p : (j + 1) * p]
                    b = h[i2 * m : (i2 + 1) * m, j2 * p : (j2 + 1) * p]
                    assert np.array_equal(a, b)


def test_build_hankel_width_mismatch():
    with pytest.raises(DimensionError):
        L.build_hankel(np.zeros((1, 7)), 2)


# ---------- realization ----------

def test_scalar_realization_exact():
    params = scalar_params(0.5, d=2.0)
    g = L.markov_matrix(params, 4)
    est = L.ho_kalman(g, 2, 1)
    assert abs(est.d[0, 0] - 2.0) <= 1e-12
    assert abs(est.a[0, 0] - 0.5) <= 1e-10
    assert abs(est.c[0, 0] * est.b[0, 0] - 1.0) <= 1e-10


def test_exact_realization_reproduces_markov_matrix():
    rng = np.random.default_rng(1)
    for _ in range(20):
        params = observable_controllable((2, 2, 2), rng, 2)
        g = L.markov_matrix(params, 4)
        est = L.ho_kalman(g, 2, 2)
        assert L.realization_residual(g, est, 2) <= 1e-8


def test_eigenvalues_preserved():
    rng = np.random.default_rng(2)
    for _ in range(10):
        params = observable_controllable((2, 3, 2), rng, 3)
        g = L.markov_matrix(params, 6)
        est = L.ho_kalman(g, 3, 3)
        ev_t = np.sort_complex(np.linalg.eigvals(params.a))
        ev_e = np.sort_complex(np.linalg.eigvals(est.a))
        assert np.max(np.abs(ev_t - ev_e)) <= 1e-6


def test_perturbation_bound():
    """Injected Markov-matrix error delta must keep the aligned B and C
    errors within 5 sqrt(n delta)."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        params = observable_controllable((2, 2, 2), rng, 2)
        n, s = 2, 2
        g = L.markov_matrix(params, 2 * s)
        for delta in (1e-6, 1e-4):
            noise = rng.standard_normal(g.shape)
            noise *= delta / np.linalg.norm(noise, "fro")
            est = L.ho_kalman(g + noise, s, n)
            u_mat = truncated_pinv(L.observability_matrix(est, s)) @ L.observability_matrix(params, s)
            c_err = np.linalg.norm(params.c - est.c @ u_mat, "fro")
            b_err = np.linalg.norm(params.b - np.linalg.inv(u_mat) @ est.b, "fro")
            assert max(c_err, b_err) <= 5 * np.sqrt(n * delta)


def test_factorization_identities_on_exact_input():
    rng = np.random.default_rng(4)
    params = observable_controllable((2, 2, 2), rng, 2)
    s, n = 2, 2
    g = L.markov_matrix(params, 2 * s)
    h = L.build_hankel(g, s)
    h_minus, h_plus = h[:, : params.p * s], h[:, params.p :]
    est = L.ho_kalman(g, s, n)
    obs = L.observability_matrix(est, s)
    ctrl = L.controllability_matrix(est, s)
    assert np.max(np.abs(obs @ ctrl - h_minus)) <= 1e-10
    assert np.max(np.abs(obs @ est.a @ ctrl - h_plus)) <= 1e-8


def test_similarity_invariance_of_markov_matrix():
    rng = np.random.default_rng(5)
    params = L.random_lds((2, 3, 2), rng)
    u = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    u_inv = np.linalg.inv(u)
    conj = L.LdsParams(
        a=u @ params.a @ u_inv, b=u @ params.b, c=params.c @ u_inv, d=params.d
    )
    g1 = L.markov_matrix(params, 6)
    g2 = L.markov_matrix(conj, 6)
    assert np.max(np.abs(g1 - g2)) <= 1e-10
    assert L.realization_residual(g1, conj, 3) <= 1e-9


def test_realization_residual_zero_cases_and_monotonicity():
    zero = L.LdsParams(a=[[0.0]], b=[[0.0]], c=[[0.0]], d=[[0.0]])
    assert L.realization_residual(np.zeros((1, 5)), zero, 2) == 0.0
    rng = np.random.default_rng(6)
    params = observable_controllable((2, 2, 2), rng, 2)
    g = L.markov_matrix(params, 4)
    base = L.realization_residual(g, params, 2)
    assert base <= 1e-8
    deltas = []
    for mag in (1e-3, 1e-2, 1e-1):
        vals = []
        for _ in range(20):
            noise = rng.standard_normal(g.shape)
            noise *= mag / np.linalg.norm(noise, "fro")
            vals.append(L.realization_residual(g + noise, params, 2))
        deltas.append(np.mean(vals))
    assert deltas[0] < deltas[1] < deltas[2]


def test_rank_warning_when_order_exceeds_hankel_rank():
    params = scalar_params(0.5, d=1.0)  # rank-1 Hankel
    g = np.hstack([L.markov_matrix(params, 4), np.zeros((1, 0))])
    g2 = np.vstack([g, g])  # m=2 copy rows: still rank-1 Hankel
    g2 = np.repeat(g, 2, axis=0)
    with pytest.warns(RankDeficiencyWarning):
        est = L.ho_kalman(g2, 2, 2)
    assert est.a.shape == (2, 2)


def test_order_bounds_checked():
    g = np.zeros((1, 5))
    with pytest.raises(DataError):
        L.ho_kalman(g, 2, 3)  # n > min(ms, ps)
    with pytest.raises(DataError):
        L.ho_kalman(g, 2, 0)
