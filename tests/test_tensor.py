import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import ldslab as L
from ldslab.errors import DataError, EigenPairingError, NumericalError
from ldslab.tensor import _pair_reciprocal


def basis_cube(q, i, scale=1.0):
    e = np.zeros(q)
    e[i] = 1.0
    return scale * np.einsum("i,j,k->ijk", e, e, e)


def random_factors(q, r, rng, smin=0.1, tries=200):
    for _ in range(tries):
        f = rng.standard_normal((q, r))
        f /= np.linalg.norm(f, axis=0)
        if np.linalg.svd(f, compute_uv=False)[-1] >= smin:
            return f
    raise RuntimeError("factor sampling failed")


def terms(factors):
    """The rank-one tensor of each column of three factor matrices."""
    f1, f2, f3 = factors
    return [np.einsum("i,j,k->ijk", f1[:, i], f2[:, i], f3[:, i]) for i in range(f1.shape[1])]


def matched_component_error(true_terms, factors):
    est = terms(factors)
    cost = np.array([[np.linalg.norm(t - e) for e in est] for t in true_terms])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


# ---------- contraction ----------

def test_contract_mode3_basis_vector_is_slice():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 4, 4))
    for z in range(4):
        e = np.zeros(4)
        e[z] = 1.0
        assert np.array_equal(L.contract_mode3(t, e), t[:, :, z])


def test_contract_mode3_linearity():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((5, 5, 5))
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    lhs = L.contract_mode3(t, 2.0 * a - 0.5 * b)
    rhs = 2.0 * L.contract_mode3(t, a) - 0.5 * L.contract_mode3(t, b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_contract_mode3_rank_bounded():
    rng = np.random.default_rng(2)
    x, y, z = (random_factors(6, 2, rng) for _ in range(3))
    t = np.einsum("ir,jr,kr->ijk", x, y, z)
    mat = L.contract_mode3(t, rng.standard_normal(6))
    assert np.linalg.matrix_rank(mat, tol=1e-10) <= 2


# ---------- decomposition ----------

def test_single_spike():
    t = basis_cube(2, 0)
    factors, residual = L.jennrich_decompose(t, 1, np.random.default_rng(3))
    assert [f.shape for f in factors] == [(2, 1)] * 3
    assert np.linalg.norm(L.reconstruct(*factors) - t) <= 1e-10
    assert residual <= 1e-10


def test_two_spikes_with_weights():
    t = basis_cube(3, 0, 2.0) + basis_cube(3, 1, 3.0)
    factors, _ = L.jennrich_decompose(t, 2, np.random.default_rng(4))
    truth = [basis_cube(3, 0, 2.0), basis_cube(3, 1, 3.0)]
    assert matched_component_error(truth, factors) <= 1e-8


def test_two_spikes_perturbed():
    rng = np.random.default_rng(5)
    t = basis_cube(3, 0, 2.0) + basis_cube(3, 1, 3.0)
    noisy = t + rng.standard_normal(t.shape) * 1e-6
    factors, _ = L.jennrich_decompose(noisy, 2, np.random.default_rng(6))
    truth = [basis_cube(3, 0, 2.0), basis_cube(3, 1, 3.0)]
    assert matched_component_error(truth, factors) <= 1e-4


def test_recovery_property_over_seeds():
    """Exact rank-r tensors with sigma_min >= 0.1 factors: the recovered
    rank-one tensors match ground truth in >= 95% of 100 seeds."""
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(7_000 + trial)
        q = int(rng.integers(2, 12))
        r = int(rng.integers(1, q + 1))
        x, y, z = (random_factors(q, r, rng) for _ in range(3))
        sig = rng.uniform(0.5, 2.0, size=r)
        t = np.einsum("ir,jr,kr,r->ijk", x, y, z, sig)
        truth = [
            sig[i] * np.einsum("i,j,k->ijk", x[:, i], y[:, i], z[:, i])
            for i in range(r)
        ]
        try:
            factors, _ = L.jennrich_decompose(t, r, np.random.default_rng(8_000 + trial))
        except (NumericalError, DataError):
            continue
        if matched_component_error(truth, factors) <= 1e-6:
            hits += 1
    assert hits >= 95, hits


def test_determinism_given_seed():
    rng = np.random.default_rng(9)
    x, y, z = (random_factors(5, 3, rng) for _ in range(3))
    t = np.einsum("ir,jr,kr->ijk", x, y, z)
    factors1, residual1 = L.jennrich_decompose(t, 3, np.random.default_rng(10))
    factors2, residual2 = L.jennrich_decompose(t, 3, np.random.default_rng(10))
    for a, b in zip(factors1, factors2):
        assert np.array_equal(a, b)
    assert residual1 == residual2


def test_residual_non_increasing_in_rank():
    """Nested exact inputs: adding the (r+1)-st true component and
    decomposing at the matching rank never worsens the fit to the full
    tensor, and the full-rank run reconstructs it to rounding."""
    rng = np.random.default_rng(11)
    x, y, z = (random_factors(6, 4, rng) for _ in range(3))
    sig = np.array([2.0, 1.5, 1.0, 0.5])
    full = np.einsum("ir,jr,kr,r->ijk", x, y, z, sig)
    residuals = []
    for r in (1, 2, 3, 4):
        t_r = np.einsum("ir,jr,kr,r->ijk", x[:, :r], y[:, :r], z[:, :r], sig[:r])
        factors, _ = L.jennrich_decompose(t_r, r, np.random.default_rng(12))
        assert np.linalg.norm(t_r - L.reconstruct(*factors)) <= 1e-9
        residuals.append(np.linalg.norm(full - L.reconstruct(*factors)))
    assert all(residuals[i + 1] <= residuals[i] + 1e-9 for i in range(3))
    assert residuals[-1] <= 1e-9


def test_least_squares_exact_residual():
    """The residual, taken in the array reconstruct returns, is the norm of t
    minus the reconstruction in every bit: at rounding level on an exact
    rank-2 tensor, and on one that no two terms fit."""
    rng = np.random.default_rng(13)
    x, y, z = (random_factors(5, 2, rng) for _ in range(3))
    t = np.einsum("ir,jr,kr->ijk", x, y, z)
    factors, residual = L.jennrich_decompose(t, 2, np.random.default_rng(14))
    assert residual == float(np.linalg.norm(t - L.reconstruct(*factors)))
    assert residual <= 1e-10
    noisy = t + 0.05 * rng.standard_normal(t.shape)
    factors, residual = L.jennrich_decompose(noisy, 2, np.random.default_rng(14))
    assert residual == float(np.linalg.norm(noisy - L.reconstruct(*factors)))
    assert residual > 0.05


# ---------- reconstruction helpers ----------

def test_reconstruct_indicator():
    e = np.eye(3)
    t = L.reconstruct(e[:, [0]], e[:, [1]], e[:, [2]])
    expect = np.zeros((3, 3, 3))
    expect[0, 1, 2] = 1.0
    assert np.array_equal(t, expect)


# ---------- failure modes ----------

def test_rank_bounds_rejected():
    t = np.zeros((3, 3, 3))
    with pytest.raises(DataError):
        L.jennrich_decompose(t, 0, np.random.default_rng(0))
    with pytest.raises(DataError):
        L.jennrich_decompose(t, 4, np.random.default_rng(0))
    with pytest.raises(DataError):
        L.jennrich_decompose(np.zeros((3, 3, 2)), 1, np.random.default_rng(0))


def test_pairing_failure_carries_eigenvalues():
    with pytest.raises(EigenPairingError) as err:
        _pair_reciprocal(np.array([2.0, 3.0]), np.array([5.0, 7.0]))
    assert len(err.value.left) == 2 and len(err.value.right) == 2
    assert len(err.value.unmatched) >= 1
