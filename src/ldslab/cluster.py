"""Trajectory log-likelihoods and the Bayes posterior over mixture components.

Both likelihoods use the Kalman prediction-error decomposition
``log p(u, y) = sum_t log N(u[t]; 0, I) + log p(y | u)`` under noise
covariance ``noise_scale**2 * I`` for x0, w[t] and z[t].  The covariance
recursion (P_t, S_t, K_t) does not depend on the data, so the production
path :func:`log_likelihoods` runs it once per component and filters all
trajectories as one (N, n) array; :func:`kalman_log_likelihood` filters
one trajectory at a time and is the independent reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DataError, NumericalError
from .lds import Dataset, LdsParams, MixtureSpec, Trajectory, require_dataset, require_mixture

__all__ = [
    "PosteriorReport",
    "log_likelihoods",
    "component_log_likelihood",
    "kalman_log_likelihood",
    "cluster_dataset",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


def log_likelihoods(params: LdsParams, u: np.ndarray, y: np.ndarray,
                    noise_scale: float = 1.0) -> np.ndarray:
    """Exact Gaussian log-density of each trajectory under one component.

    ``u`` is (N, l, p) and ``y`` is (N, l, m); returns (N,).  Raises
    NumericalError unless every innovation covariance is positive
    definite, so noise_scale = 0 raises rather than returns a number.
    """
    m, n, p = params.dims
    a, b, c, d = params.a, params.b, params.c, params.d
    n_traj, length = u.shape[:2]
    var = float(noise_scale) ** 2
    if not var > 0:
        raise NumericalError(f"noise_scale {noise_scale!r}: noise-free data has no density")
    total = -0.5 * (length * (p + m) * _LOG_2PI + np.einsum("itj,itj->i", u, u))
    x = np.zeros((n_traj, n))
    cov = var * np.eye(n)
    for t in range(length):
        u_t = u[:, t]
        try:
            chol = np.linalg.cholesky(c @ cov @ c.T + var * np.eye(m))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("innovation covariance is not positive definite") from exc
        innov = y[:, t] - x @ c.T - u_t @ d.T
        # numpy's solve stays in this thread; scipy's triangular solve hands even
        # a 4-by-4 system to an OpenBLAS worker whose hand-off time varies.
        white = np.linalg.solve(chol, innov.T)
        total -= np.log(np.diag(chol)).sum() + 0.5 * np.einsum("ji,ji->i", white, white)
        # With G = L^-1 C P: filtered mean x + K e = x + white^T G, P - K C P = P - G^T G.
        gain = np.linalg.solve(chol, c @ cov)
        x = (x + white.T @ gain) @ a.T + u_t @ b.T
        cov = a @ (cov - gain.T @ gain) @ a.T + var * np.eye(n)
        cov = 0.5 * (cov + cov.T)
    return total


def component_log_likelihood(params: LdsParams, traj: Trajectory,
                             noise_scale: float = 1.0) -> float:
    """:func:`log_likelihoods` of one trajectory."""
    return float(log_likelihoods(params, traj.u[None], traj.y[None], noise_scale)[0])


def kalman_log_likelihood(params: LdsParams, traj: Trajectory,
                          noise_scale: float = 1.0) -> float:
    """Same density, filtering one trajectory at a time (the reference).

    log p(u, y) = sum_t log N(u[t]; 0, I) + log p(y | u), the second term
    accumulated from the innovations of a standard Kalman recursion with
    known inputs.
    """
    m, n, _ = params.dims
    a, b, c, d = params.a, params.b, params.c, params.d
    var = noise_scale**2
    x = np.zeros(n)
    cov = var * np.eye(n)
    total = 0.0
    for t in range(len(traj)):
        u_t, y_t = traj.u[t], traj.y[t]
        total += -0.5 * (len(u_t) * _LOG_2PI + float(u_t @ u_t))
        s_mat = c @ cov @ c.T + var * np.eye(m)
        innov = y_t - c @ x - d @ u_t
        chol = cho_factor(s_mat, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
        total += -0.5 * (m * _LOG_2PI + logdet + float(innov @ cho_solve(chol, innov)))
        gain = cov @ c.T @ cho_solve(chol, np.eye(m))
        x = x + gain @ innov
        cov = cov - gain @ c @ cov
        x = a @ x + b @ u_t
        cov = a @ cov @ a.T + var * np.eye(n)
        cov = 0.5 * (cov + cov.T)
    return total


@dataclass(frozen=True, eq=False)  # identity equality: fields are arrays
class PosteriorReport:
    """Per-trajectory component posterior and its log-likelihood inputs."""

    probabilities: np.ndarray
    log_likelihoods: np.ndarray

    @property
    def argmax(self) -> int:
        return int(np.argmax(self.probabilities))


def cluster_dataset(model: MixtureSpec, dataset: Dataset) -> list:
    """Posterior p_i proportional to w_i * exp(loglik_i) for every trajectory,
    in dataset order, stabilized in log space, scored at the model's
    ``noise_scale``.  A plain list raises DataError.
    """
    components = require_mixture(model).components
    u, y = require_dataset(dataset).u, dataset.y
    m, _, p = model.dims
    if (u.shape[2], y.shape[2]) != (p, m):
        raise DataError(
            f"dataset has (p, m) = {(u.shape[2], y.shape[2])}, the model {(p, m)}"
        )
    logliks = np.stack([log_likelihoods(c, u, y, model.noise_scale) for c in components], axis=1)
    logpost = np.log(model.weights) + logliks
    logpost -= logpost.max(axis=1, keepdims=True)
    probs = np.exp(logpost)
    probs /= probs.sum(axis=1, keepdims=True)
    return [PosteriorReport(probabilities=pr, log_likelihoods=ll)
            for pr, ll in zip(probs, logliks)]
