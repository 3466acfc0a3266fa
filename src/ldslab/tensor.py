"""Rank-one decomposition of order-3 tensors by simultaneous diagonalization.

Given T approximately equal to a sum of r rank-one terms with linearly
independent factors, two random mode-3 contractions T^(a), T^(b) share
the factor matrices; the eigenvectors of T_r^(a) (T_r^(b))^+ and of
((T_r^(a))^+ T_r^(b))^T recover the mode-1 and mode-2 factors, matched
through (approximately) reciprocal eigenvalues, and the mode-3 factors
come out of a single linear least-squares solve.

A decomposition is three q*r factor matrices (f1, f2, f3): column i of
each is term i, and T ~ sum_i f1[:, i] (x) f2[:, i] (x) f3[:, i].  Only the
outer products are meaningful; the scale split between the three factors
of a term is arbitrary.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError, EigenPairingError, NumericalError

__all__ = [
    "PAIR_TOL",
    "jennrich_decompose",
    "reconstruct",
    "contract_mode3",
    "truncated_pinv",
]

# Singular values below PINV_RTOL * sigma_max are treated as zero.
PINV_RTOL = 1e-12
# Eigenvalues with imaginary part above IMAG_RTOL * spectral radius mean
# the generic-real-factor assumption failed.
IMAG_RTOL = 1e-6
# Independent random contractions tried by jennrich_decompose.
RESTARTS = 5
# A pairing of eigenvalues lam, mu is accepted when |lam*mu - 1| <= PAIR_TOL.
PAIR_TOL = 1.0


def contract_mode3(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Contract the third mode with a: result[i, j] = sum_z t[i, j, z] a[z]."""
    return np.asarray(t, dtype=float) @ np.asarray(a, dtype=float)


def truncated_pinv(mat: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse, singular values below PINV_RTOL * sigma_max cut."""
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
    cut = PINV_RTOL * sv[0] if sv.size and sv[0] > 0 else 0.0
    inv = np.where(sv > cut, 1.0 / np.where(sv > cut, sv, 1.0), 0.0)
    return (vt.T * inv) @ u.T


def _rank_truncate(mat: np.ndarray, r: int) -> np.ndarray:
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
    return (u[:, :r] * sv[:r]) @ vt[:r]


def _top_eigenpairs(mat: np.ndarray, r: int):
    """Top-r eigenpairs by |eigenvalue|, with real, sign-fixed vectors.

    Raises :class:`NumericalError` when the selected eigenvalues are
    materially complex, which the generic real-factor model rules out.
    """
    vals, vecs = np.linalg.eig(mat)
    order = np.argsort(-np.abs(vals), kind="stable")[:r]
    vals = vals[order]
    vecs = vecs[:, order]
    spectral_radius = np.abs(vals[0]) if r else 0.0
    if np.any(np.abs(vals.imag) > IMAG_RTOL * max(spectral_radius, 1e-300)):
        raise NumericalError(
            "complex eigenvalues beyond tolerance; conjugate pair without a "
            f"real separation (imag parts {vals.imag!r})"
        )
    out = np.empty((mat.shape[0], r))
    for i in range(r):
        v = vecs[:, i]
        j = int(np.argmax(np.abs(v)))
        phase = v[j] / abs(v[j])  # rotate so the largest entry is real positive
        v = (v / phase).real
        out[:, i] = v / np.linalg.norm(v)
    return vals.real, out


def _pair_reciprocal(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Match lam[i] to mu[j] greedily by smallest |lam*mu - 1|.

    Returns perm with mu[perm[i]] paired to lam[i]; raises
    :class:`EigenPairingError` if any accepted pair misses PAIR_TOL.
    """
    r = len(lam)
    cost = np.abs(np.outer(lam, mu) - 1.0)
    order = np.argsort(cost, axis=None, kind="stable")
    perm = np.full(r, -1)
    used_j = np.zeros(r, dtype=bool)
    residual = np.full(r, np.inf)
    for flat in order:
        i, j = divmod(int(flat), r)
        if perm[i] >= 0 or used_j[j]:
            continue
        perm[i] = j
        used_j[j] = True
        residual[i] = cost[i, j]
        if np.all(perm >= 0):
            break
    if np.any(residual > PAIR_TOL):
        raise EigenPairingError(
            f"eigenvalue pairing failed: residuals {residual!r} exceed {PAIR_TOL}",
            left=lam,
            right=mu,
            unmatched=residual[residual > PAIR_TOL],
        )
    return perm


def _jennrich_once(t: np.ndarray, r: int, rng: np.random.Generator) -> tuple:
    """One pass of the seven decomposition steps with fresh contractions."""
    q = t.shape[0]
    a = rng.standard_normal(q)
    a /= np.linalg.norm(a)
    b = rng.standard_normal(q)
    b /= np.linalg.norm(b)
    ta = _rank_truncate(contract_mode3(t, a), r)
    tb = _rank_truncate(contract_mode3(t, b), r)

    u_mat = ta @ truncated_pinv(tb)
    v_mat = (truncated_pinv(ta) @ tb).T
    lam, u_vecs = _top_eigenpairs(u_mat, r)
    mu, v_vecs = _top_eigenpairs(v_mat, r)
    perm = _pair_reciprocal(lam, mu)
    v_vecs = v_vecs[:, perm]

    # T[:, :, z] = sum_i w_i[z] * u_i v_i^T: one least-squares solve for all z.
    design = np.einsum("ir,jr->ijr", u_vecs, v_vecs).reshape(q * q, r)
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] <= PINV_RTOL * sv[0]:
        raise NumericalError(
            "rank-deficient least-squares system: recovered factors are "
            f"numerically collinear (singular values {sv!r})"
        )
    w_all, *_ = np.linalg.lstsq(design, t.reshape(q * q, q), rcond=None)
    return u_vecs, v_vecs, w_all.T


def jennrich_decompose(t: np.ndarray, r: int, rng: np.random.Generator) -> tuple:
    """Decompose a q*q*q tensor into r rank-one terms.

    Returns ``((f1, f2, f3), residual)``: three q*r factor matrices whose
    column i is term i, and the Frobenius norm of t - reconstruct(f1, f2, f3).

    The random contractions occasionally land near an eigenvalue
    collision, where recovery degrades sharply; RESTARTS independent
    draws are made and the one with the smallest residual is returned.
    A draw fails when its eigenvalues pair worse than PAIR_TOL or its
    factors are numerically rank deficient; the failure propagates only
    if every draw fails.  Deterministic given (t, r, generator state).
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 3 or len(set(t.shape)) != 1:
        raise DataError(f"expected a cubic order-3 tensor, got shape {t.shape}")
    q = t.shape[0]
    if r < 1:
        raise DataError("rank r must be >= 1")
    if r > q:
        raise DataError(f"rank r={r} exceeds tensor dimension q={q}")

    best = None
    best_residual = np.inf
    last_error = None
    for _ in range(RESTARTS):
        try:
            factors = _jennrich_once(t, r, rng)
        except NumericalError as exc:
            # Without its traceback: the frames it holds would keep the caller's
            # locals (the learner's Dataset) alive in a cycle until a full GC.
            last_error = exc.with_traceback(None)
            continue
        diff = reconstruct(*factors)
        residual = float(np.linalg.norm(np.subtract(t, diff, out=diff)))
        if residual < best_residual:
            best, best_residual = factors, residual
    if best is None:
        raise last_error
    return best, best_residual


def reconstruct(f1: np.ndarray, f2: np.ndarray, f3: np.ndarray) -> np.ndarray:
    """The tensor sum_i f1[:, i] (x) f2[:, i] (x) f3[:, i] of three factor matrices."""
    return np.einsum("ir,jr,kr->ijk", f1, f2, f3)
