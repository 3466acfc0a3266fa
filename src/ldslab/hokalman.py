"""State-space realization from Markov parameters (stable Ho-Kalman).

Given the Markov matrix G = [X_0, X_1, ..., X_{2s}], the blocks
X_1..X_{2s} fill an s-by-(s+1) block Hankel matrix H whose rank is the
state dimension n.  A rank-n truncated SVD of the first ps columns
splits into observability/controllability square roots, from which
(A, B, C, D) are read off.  The procedure degrades gracefully when G is
perturbed.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import DataError, DimensionError, RankDeficiencyWarning
from .lds import LdsParams, markov_matrix
from .tensor import truncated_pinv

__all__ = ["build_hankel", "ho_kalman", "realization_residual"]

# Relative threshold for the rank-vs-n warning on noisy Hankel input.
HANKEL_RANK_RTOL = 1e-10


def _split_blocks(g: np.ndarray, s: int):
    g = np.asarray(g, dtype=float)
    if g.ndim != 2:
        raise DimensionError("g", f"expected a matrix, got ndim={g.ndim}")
    m, width = g.shape
    if width % (2 * s + 1) != 0:
        raise DimensionError(
            "g", f"width {width} is not a multiple of 2s+1={2 * s + 1}"
        )
    p = width // (2 * s + 1)
    return g, m, p


def build_hankel(g: np.ndarray, s: int) -> np.ndarray:
    """Arrange blocks X_1..X_{2s} of G into the ms-by-p(s+1) Hankel matrix.

    Block (i, j) holds X_{i+j+1} for 0 <= i < s, 0 <= j <= s, so equal
    block anti-diagonals are identical by construction.
    """
    if s < 1:
        raise DataError("s must be >= 1")
    g, m, p = _split_blocks(g, s)
    h = np.empty((m * s, p * (s + 1)))
    for i in range(s):
        for j in range(s + 1):
            blk = g[:, (i + j + 1) * p : (i + j + 2) * p]
            h[i * m : (i + 1) * m, j * p : (j + 1) * p] = blk
    return h


def _signed_svd(mat: np.ndarray):
    """SVD with each left singular vector's largest-magnitude entry made
    positive, for run-to-run determinism."""
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return u, sv, vt


def ho_kalman(g: np.ndarray, s: int, n: int) -> LdsParams:
    """Realize (A, B, C, D) of state dimension n from the Markov matrix G.

    D is the leading block of G; C and B come from the rank-n square
    roots O = U sqrt(S), Q = sqrt(S) V^T of the un-shifted Hankel half,
    and A = O^+ H^+ Q^+ from the shifted half.  The output reproduces G
    exactly (up to the usual similarity freedom) when G is the exact
    Markov matrix of an observable and controllable rank-n system.
    """
    g, m, p = _split_blocks(g, s)
    if s < 1:
        raise DataError("s must be >= 1")
    d_hat = g[:, :p].copy()
    h = build_hankel(g, s)
    h_minus = h[:, : p * s]
    h_plus = h[:, p:]
    u, sv, vt = _signed_svd(h_minus)
    if n < 1 or n > min(m * s, p * s):
        raise DataError(f"state dimension n={n} out of range for ms={m*s}, ps={p*s}")
    numerical_rank = int(np.sum(sv > HANKEL_RANK_RTOL * sv[0])) if sv[0] > 0 else 0
    if n > numerical_rank:
        warnings.warn(
            f"requested order n={n} exceeds numerical Hankel rank "
            f"{numerical_rank}; proceeding with the truncated SVD",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    root = np.sqrt(sv[:n])
    obs = u[:, :n] * root
    ctrl = (root[:, None]) * vt[:n]
    c_hat = obs[:m, :].copy()
    b_hat = ctrl[:, :p].copy()
    a_hat = truncated_pinv(obs) @ h_plus @ truncated_pinv(ctrl)
    return LdsParams(a=a_hat, b=b_hat, c=c_hat, d=d_hat)


def realization_residual(g: np.ndarray, params: LdsParams, s: int) -> float:
    """Frobenius distance between G and the Markov matrix of ``params``.

    Similarity-invariant, hence the canonical fit metric for realizations.
    """
    g, _, _ = _split_blocks(g, s)
    return float(np.linalg.norm(g - markov_matrix(params, 2 * s), "fro"))
