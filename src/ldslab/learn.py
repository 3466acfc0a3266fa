"""End-to-end mixture learning and similarity-aligned evaluation.

Pipeline: estimate the sixth-moment grid and the cross-covariance stack
in one pass, flatten the grid into a q*q*q array and symmetrize it,
decompose that into k rank-one terms, read off scaled Markov matrices
Gtilde_i ~ w_i^(1/3) G_i, regress the stack on them to get
wtilde_i ~ w_i^(2/3), rescale (Ghat_i = Gtilde_i / sqrt(wtilde_i),
what_i = wtilde_i^(3/2)), and realize each by Ho-Kalman.  The stages hand
each other plain arrays.

The result is a :class:`LearnedMixture`: a :class:`~ldslab.lds.MixtureSpec`
with unit noise plus the pipeline's diagnostics.  Learned parameters are
only identified up to a similarity transform per component plus a
permutation of components; :func:`align_similarity` resolves both against
a reference mixture and reports the residual parameter errors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError, DimensionError, NumericalError, require_int
from .hokalman import ho_kalman
from .lds import (
    MixtureSpec,
    markov_matrix,
    numerical_rank,
    observability_matrix,
    require_dataset,
    require_mixture,
)
from .moments import (
    CrossCovarianceStack,
    assemble_pi,
    estimate_moments,
    symmetrize_tensor3,
    unflatten_markov,
)
from .tensor import jennrich_decompose, truncated_pinv

__all__ = [
    "LearnedMixture",
    "AlignmentReport",
    "learn_markov_components",
    "recover_weights",
    "learn_mixture",
    "learn_mixture_from_moments",
    "align_similarity",
]

# Floor applied to negative regression weights; activating it is recorded
# in the diagnostics since it only happens outside the guaranteed regime.
WEIGHT_FLOOR = 1e-6
# Condition-number flag for similarity transforms.
COND_FLAG = 1e8


def learn_markov_components(t: np.ndarray, k: int, m: int, p: int, rng: np.random.Generator):
    """Recover Gtilde_i ~ w_i^(1/3) G_i, each m-by-(2s+1)p, from the symmetric
    q*q*q moment tensor t, q = (2s+1)mp.

    Runs the rank-k decomposition and turns each term (f1, f2, f3) into
    its signed mode-1 vector vhat_i = f1 ||f2|| ||f3||, negated when
    (f1.f2)(f1.f3) < 0.  Then vhat_i ~ w_i ||v(G_i)||^2 v(G_i): a term
    lambda v (x) v (x) v split as (a v, b v, c v) with abc = lambda gives
    lambda v under this rule, whatever the split.  Returns (gtilde,
    details): unflatten(vhat_i / ||vhat_i||^(2/3)) for each i, and the
    Frobenius norms ``tensor_residual`` of the decomposition's residual
    and ``tensor_norm`` of the tensor.
    """
    (f1, f2, f3), residual = jennrich_decompose(t, k, rng)
    gtilde = []
    for i in range(k):
        a, b, c = f1[:, i], f2[:, i], f3[:, i]
        vhat = a * np.linalg.norm(b) * np.linalg.norm(c)
        if (a @ b) * (a @ c) < 0:
            vhat = -vhat
        norm = np.linalg.norm(vhat)
        if norm == 0:
            raise NumericalError("zero-norm rank-one component")
        gtilde.append(unflatten_markov(vhat / norm ** (2.0 / 3.0), m, p))
    details = {"tensor_residual": residual, "tensor_norm": float(np.linalg.norm(t))}
    return gtilde, details


def recover_weights(gtilde, rhat: CrossCovarianceStack):
    """Least-squares coefficients wtilde minimizing
    ||sum_i wtilde_i Gtilde_i - Rhat||_F.

    Returns (wtilde, info); negative solutions are clamped to a small
    positive floor and flagged in info["clamped"].
    """
    design = np.column_stack([np.asarray(g).ravel() for g in gtilde])
    target = rhat.assembled.ravel()
    if design.shape[0] != target.shape[0]:
        raise DataError(
            f"shape mismatch: Gtilde entries {design.shape[0]} vs Rhat {target.shape[0]}"
        )
    sv = np.linalg.svd(design, compute_uv=False)
    if numerical_rank(sv) < design.shape[1]:
        raise NumericalError(
            "weight regression is singular: recovered Markov matrices are "
            "near-collinear (joint non-degeneracy violated); singular values "
            f"{sv!r}"
        )
    raw, *_ = np.linalg.lstsq(design, target, rcond=None)
    clamped = raw < WEIGHT_FLOOR
    wtilde = np.where(clamped, WEIGHT_FLOOR, raw)
    info = {
        "raw_wtilde": raw,
        "clamped": clamped,
        "regression_residual": float(np.linalg.norm(design @ wtilde - target)),
    }
    return wtilde, info


@dataclass(frozen=True, eq=False)  # identity equality: fields are arrays
class LearnedMixture(MixtureSpec):
    """A learned mixture (unit noise) and the ``diagnostics`` of the run
    that produced it: tensor and regression residuals, the clamped
    weights, the raw regression weights and the raw weight sum."""

    diagnostics: dict = field(default_factory=dict)


def learn_mixture_from_moments(
    t: np.ndarray, rhat: CrossCovarianceStack, k: int, n: int, s: int, rng: np.random.Generator
) -> LearnedMixture:
    """Run the pipeline on already-computed moment statistics: the symmetric
    q*q*q tensor t, q = (2s+1)mp, and the m-by-(2s+1)p stack Rhat.

    This is the oracle entry point: feeding exact moments recovers the
    mixture up to similarity transforms and floating-point error.  Exact
    tensors are symmetric already; estimated ones go through
    :func:`symmetrize_tensor3` first, as in :func:`learn_mixture`.
    """
    s = require_int(s, "s", 1)
    g = 2 * s + 1
    m, width = np.shape(rhat.assembled)
    if width % g != 0:
        raise DimensionError("rhat", f"width {width} is not a multiple of 2s+1={g}")
    p = width // g
    q = g * m * p
    if np.shape(t) != (q, q, q):
        raise DimensionError("t", f"expected shape {(q, q, q)}, got {np.shape(t)}")
    gtilde, details = learn_markov_components(t, require_int(k, "k", 1, q), m, p, rng)
    wtilde, winfo = recover_weights(gtilde, rhat)
    # Undo the weight scaling: Ghat_i = Gtilde_i / sqrt(wtilde_i), and the
    # weights wtilde_i^(3/2) renormalized; recover_weights floors wtilde > 0.
    raw = wtilde**1.5
    weights = raw / raw.sum()
    components = tuple(ho_kalman(g / np.sqrt(wt), s, n) for g, wt in zip(gtilde, wtilde))
    diagnostics = {
        **details,
        "regression_residual": winfo["regression_residual"],
        "clamped": winfo["clamped"],
        "raw_wtilde": winfo["raw_wtilde"],
        "raw_weight_sum": float(raw.sum()),
    }
    return LearnedMixture(components=components, weights=weights, diagnostics=diagnostics)


def learn_mixture(dataset, k: int, n: int, s: int, rng: np.random.Generator) -> LearnedMixture:
    """Learn a k-component mixture of order-n systems from a Dataset.

    Its trajectories must have length >= min_trajectory_length(s) = 6s+3;
    the estimators use indices up to 6s+2.  The result is a
    :class:`LearnedMixture`, usable wherever a MixtureSpec is.  The ranges
    of s, k and n are checked before the moment pass: all three are integers,
    Ho-Kalman needs s >= 1 and 1 <= n <= s min(m, p), and the decomposition
    1 <= k <= q = (2s+1)mp.  The sixth-moment grid and its flattening are
    dropped once :func:`symmetrize_tensor3` has averaged the flattening; the
    decomposition sees the symmetric tensor alone.
    """
    s = require_int(s, "s", 1)
    m, p = require_dataset(dataset).y.shape[2], dataset.u.shape[2]
    k = require_int(k, "k", 1, (2 * s + 1) * m * p)
    n = require_int(n, "n", 1, min(m * s, p * s))
    grid, rhat = estimate_moments(dataset, s)
    t = symmetrize_tensor3(assemble_pi(grid))
    del grid
    return learn_mixture_from_moments(t, rhat, k, n, s, rng)


@dataclass(frozen=True)
class AlignmentReport:
    """Best matching of learned components to a reference mixture.

    ``permutation[j]`` is the reference index matched to estimate j;
    ``transforms[j]`` the similarity transform U_j applied as
    (U^-1 Ahat U, U^-1 Bhat, Chat U).  Error arrays are indexed by
    estimate, Frobenius norms for matrices and absolute for weights.
    """

    permutation: tuple
    transforms: tuple
    cond: np.ndarray
    a_err: np.ndarray
    b_err: np.ndarray
    c_err: np.ndarray
    d_err: np.ndarray
    w_err: np.ndarray
    flagged: np.ndarray

    @property
    def max_param_error(self) -> float:
        return float(
            max(self.a_err.max(), self.b_err.max(), self.c_err.max(), self.d_err.max())
        )

    @property
    def max_weight_error(self) -> float:
        return float(self.w_err.max())

    @property
    def max_error(self) -> float:
        return max(self.max_param_error, self.max_weight_error)


def align_similarity(truth: MixtureSpec, learned: MixtureSpec, s: int) -> AlignmentReport:
    """Match components and compute similarity-aligned parameter errors.

    Matching minimizes the total Frobenius distance between Markov
    matrices at horizon 2s (a similarity-invariant cost); each matched
    pair gets the least-squares transform U = Oest^+ Otrue computed from
    the two order-s observability matrices, which is exact whenever the
    estimate is an exact realization of the reference input-output map.
    """
    w_true, comp_true = require_mixture(truth).weights, truth.components
    w_est, comp_est = require_mixture(learned).weights, learned.components
    if len(comp_true) != len(comp_est):
        raise DataError(
            f"component counts differ: {len(comp_true)} vs {len(comp_est)}"
        )
    if truth.dims != learned.dims:
        raise DataError(f"dims (m, n, p) differ: {truth.dims} vs {learned.dims}")
    k, s = len(comp_true), require_int(s, "s", 1)
    g_true = [markov_matrix(c, 2 * s) for c in comp_true]
    g_est = [markov_matrix(c, 2 * s) for c in comp_est]
    cost = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            cost[i, j] = np.linalg.norm(g_true[i] - g_est[j], "fro")
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(k, dtype=int)  # estimate j -> truth perm[j]
    for i, j in zip(rows, cols):
        perm[j] = i

    transforms, conds = [], np.empty(k)
    a_err = np.empty(k)
    b_err = np.empty(k)
    c_err = np.empty(k)
    d_err = np.empty(k)
    w_err = np.empty(k)
    flagged = np.zeros(k, dtype=bool)
    for j in range(k):
        ti = int(perm[j])
        ref, est = comp_true[ti], comp_est[j]
        o_ref = observability_matrix(ref, s)
        o_est = observability_matrix(est, s)
        u_mat = truncated_pinv(o_est) @ o_ref
        conds[j] = np.linalg.cond(u_mat)
        if not np.isfinite(conds[j]) or conds[j] > COND_FLAG:
            flagged[j] = True
            u_inv = truncated_pinv(u_mat)
        else:
            u_inv = np.linalg.inv(u_mat)
        a_err[j] = np.linalg.norm(ref.a - u_inv @ est.a @ u_mat, "fro")
        b_err[j] = np.linalg.norm(ref.b - u_inv @ est.b, "fro")
        c_err[j] = np.linalg.norm(ref.c - est.c @ u_mat, "fro")
        d_err[j] = np.linalg.norm(ref.d - est.d, "fro")
        w_err[j] = abs(w_true[ti] - w_est[j])
        transforms.append(u_mat)
    return AlignmentReport(
        permutation=tuple(int(x) for x in perm),
        transforms=tuple(transforms),
        cond=conds,
        a_err=a_err,
        b_err=b_err,
        c_err=c_err,
        d_err=d_err,
        w_err=w_err,
        flagged=flagged,
    )
