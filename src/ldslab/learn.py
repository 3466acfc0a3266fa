"""End-to-end mixture learning and similarity-aligned evaluation.

Pipeline: estimate the sixth-moment grid, flatten it, decompose into k
rank-one terms, read off scaled Markov matrices Gtilde_i ~ w_i^(1/3) G_i,
regress the cross-covariance stack on the Gtilde_i to get
wtilde_i ~ w_i^(2/3), rescale (Ghat_i = Gtilde_i / sqrt(wtilde_i),
what_i = wtilde_i^(3/2)), and realize each component by Ho-Kalman.

Learned parameters are only identified up to a similarity transform per
component plus a permutation of components; :func:`align_similarity`
resolves both against a reference mixture and reports the residual
parameter errors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError, NumericalError
from .hokalman import ho_kalman
from .lds import MixtureSpec, markov_matrix, observability_matrix
from .moments import (
    CrossCovarianceStack,
    FlatTensor3,
    MomentTensor6,
    assemble_pi,
    symmetrize_tensor3,
    unflatten_markov,
)
from .tensor import jennrich_decompose, rank_one_tensor, truncated_pinv

__all__ = [
    "LearnedMixture",
    "AlignmentReport",
    "learn_markov_components",
    "recover_weights",
    "finalize_components",
    "learn_mixture",
    "learn_mixture_from_moments",
    "align_similarity",
]

# Floor applied to negative regression weights; activating it is recorded
# in the diagnostics since it only happens outside the guaranteed regime.
WEIGHT_FLOOR = 1e-6
# Relative sigma_min threshold below which the weight regression is
# treated as singular (near-collinear recovered Markov matrices).
GRAM_RTOL = 1e-10
# Condition-number flag for similarity transforms.
COND_FLAG = 1e8


def _signed_mode1_vector(comp) -> np.ndarray:
    """Mode-1 vector of a rank-one term, with signs.

    Magnitudes are the Frobenius norms of the mode-1 slices; signs come
    from the mode-1 fiber at the largest-magnitude (mode-2, mode-3)
    index pair, and the global sign is fixed so the implied component
    weight is positive (odd-order symmetric terms with positive weight
    determine the factor sign uniquely).
    """
    mags = np.abs(comp.f1) * np.linalg.norm(comp.f2) * np.linalg.norm(comp.f3)
    a_star = int(np.argmax(np.abs(comp.f2)))
    b_star = int(np.argmax(np.abs(comp.f3)))
    fiber = comp.f1 * (comp.f2[a_star] * comp.f3[b_star])
    signs = np.where(fiber < 0, -1.0, 1.0)
    vhat = mags * signs
    norm = np.linalg.norm(vhat)
    if norm == 0:
        raise NumericalError("zero-norm rank-one component")
    unit = vhat / norm
    cube = (comp.f1 @ unit) * (comp.f2 @ unit) * (comp.f3 @ unit)
    if cube < 0:
        vhat = -vhat
    return vhat


def learn_markov_components(
    flat: FlatTensor3, k: int, rng: np.random.Generator, tol: float = 0.1,
    return_details: bool = False,
):
    """Recover Gtilde_i ~ w_i^(1/3) G_i from the flattened moment tensor.

    Runs the rank-k decomposition, turns each rank-one term into its
    signed mode-1 vector vhat_i ~ w_i ||v(G_i)||^2 v(G_i), and returns
    unflatten(vhat_i / ||vhat_i||^(2/3)) for each i.
    """
    if k < 1:
        raise DataError("k must be >= 1")
    if k > flat.q:
        raise DataError(f"k={k} exceeds tensor dimension q={flat.q}")
    components = jennrich_decompose(flat.data, k, rng, tol=tol)
    gtilde = []
    for comp in components:
        vhat = _signed_mode1_vector(comp)
        scaled = vhat / (np.linalg.norm(vhat) ** (2.0 / 3.0))
        gtilde.append(unflatten_markov(scaled, flat.m, flat.p))
    if return_details:
        residual = flat.data.copy()
        for comp in components:
            residual -= rank_one_tensor(comp)
        details = {
            "tensor_residual": float(np.linalg.norm(residual)),
            "tensor_norm": float(np.linalg.norm(flat.data)),
        }
        return gtilde, details
    return gtilde


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
    if sv[-1] <= GRAM_RTOL * sv[0]:
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


def finalize_components(gtilde, wtilde):
    """Undo the mixing-weight scaling: Ghat_i = Gtilde_i / sqrt(wtilde_i),
    weights wtilde_i^(3/2) renormalized onto the simplex.

    Returns (weights, ghat, raw_weights) where raw_weights are the
    pre-normalization values.
    """
    wtilde = np.asarray(wtilde, dtype=float)
    if np.any(wtilde <= 0):
        raise DataError("wtilde must be positive (clamp upstream)")
    ghat = [np.asarray(g) / np.sqrt(wt) for g, wt in zip(gtilde, wtilde)]
    raw = wtilde**1.5
    weights = raw / raw.sum()
    return weights, ghat, raw


@dataclass(frozen=True)
class LearnedMixture:
    """Estimates plus the pipeline intermediates that produced them.

    ``weights``/``components`` are the final (what_i, Ahat_i..Dhat_i);
    ``gtilde``, ``wtilde`` and ``ghat`` are the intermediate scaled
    Markov matrices and regression weights; ``diagnostics`` records
    tensor and regression residuals, clamp flags and the raw weight sum.
    """

    weights: np.ndarray
    components: tuple
    gtilde: tuple
    wtilde: np.ndarray
    ghat: tuple
    raw_weights: np.ndarray
    s: int
    diagnostics: dict

    def __post_init__(self):
        if np.any(np.asarray(self.weights) <= 0):
            raise DataError("learned weights must be positive after clamping")
        width = (2 * self.s + 1) * self.components[0].p
        for i, g in enumerate(self.ghat):
            if np.asarray(g).shape[1] != width:
                raise DataError(f"ghat[{i}] width {np.asarray(g).shape[1]} != {width}")

    @property
    def k(self) -> int:
        return len(self.components)

    def to_mixture_spec(self) -> MixtureSpec:
        w = np.asarray(self.weights, dtype=float)
        return MixtureSpec(components=tuple(self.components), weights=w / w.sum())


def learn_mixture_from_moments(
    flat: FlatTensor3,
    rhat: CrossCovarianceStack,
    k: int,
    n: int,
    s: int,
    rng: np.random.Generator,
    tol: float = 1.0,
) -> LearnedMixture:
    """Run the pipeline on already-computed moment statistics.

    This is the oracle entry point: feeding exact moments recovers the
    mixture up to similarity transforms and floating-point error.  The
    tensor is symmetrized first (its population value is symmetric, so
    this is a pure variance reduction and a no-op on exact moments).
    """
    flat = FlatTensor3(
        data=symmetrize_tensor3(flat.data), s=flat.s, m=flat.m, p=flat.p
    )
    gtilde, details = learn_markov_components(flat, k, rng, tol=tol, return_details=True)
    wtilde, winfo = recover_weights(gtilde, rhat)
    weights, ghat, raw = finalize_components(gtilde, wtilde)
    components = tuple(ho_kalman(g, s, n) for g in ghat)
    diagnostics = {
        **details,
        "regression_residual": winfo["regression_residual"],
        "clamped": winfo["clamped"],
        "raw_wtilde": winfo["raw_wtilde"],
        "raw_weight_sum": float(raw.sum()),
    }
    return LearnedMixture(
        weights=weights,
        components=components,
        gtilde=tuple(gtilde),
        wtilde=wtilde,
        ghat=tuple(ghat),
        raw_weights=raw,
        s=s,
        diagnostics=diagnostics,
    )


def learn_mixture(
    dataset,
    k: int,
    n: int,
    s: int,
    rng: np.random.Generator,
    tol: float = 1.0,
) -> LearnedMixture:
    """Learn a k-component mixture of order-n systems from a Dataset.

    Its trajectories must have length >= min_trajectory_length(s) = 6s+3;
    the estimators use indices up to 6s+2.
    """
    flat = assemble_pi(MomentTensor6.estimate(dataset, s))
    rhat = CrossCovarianceStack.estimate(dataset, s)
    return learn_mixture_from_moments(flat, rhat, k, n, s, rng, tol=tol)


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


def _weights_and_components(model):
    if isinstance(model, (MixtureSpec, LearnedMixture)):
        return np.asarray(model.weights, dtype=float), tuple(model.components)
    raise DataError(f"expected MixtureSpec or LearnedMixture, got {type(model)!r}")


def align_similarity(truth: MixtureSpec, learned, s: int) -> AlignmentReport:
    """Match components and compute similarity-aligned parameter errors.

    Matching minimizes the total Frobenius distance between Markov
    matrices at horizon 2s (a similarity-invariant cost); each matched
    pair gets the least-squares transform U = Oest^+ Otrue computed from
    the two order-s observability matrices, which is exact whenever the
    estimate is an exact realization of the reference input-output map.
    """
    w_true, comp_true = _weights_and_components(truth)
    w_est, comp_est = _weights_and_components(learned)
    if len(comp_true) != len(comp_est):
        raise DataError(
            f"component counts differ: {len(comp_true)} vs {len(comp_est)}"
        )
    k = len(comp_true)
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
