"""Reference computations the tests check ldslab against.

No library or CLI path calls these, so they live with the tests: a
one-trajectory simulator, the unrolled closed form of the LDS recurrence,
the power-norm bound, the Markov-matrix flattening, single Markov
parameters, the exact population moments, direct per-block moment
estimators, the sixth-moment standard errors, the C = I change of basis,
the one-trajectory posterior and the dense joint-covariance likelihood.
"""
import numpy as np
from scipy.linalg import cho_factor, cho_solve

import ldslab as L
from ldslab.errors import DataError, NumericalError
from ldslab.lds import _iterate_batch
from ldslab.learn import COND_FLAG


def simulate_from_noise(params, x0, u, w, z):
    """The library's recurrence (``lds._iterate_batch``) on one trajectory
    with given noise realizations."""
    u, w, z = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (u, w, z))
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    return L.Trajectory(u=u, y=_iterate_batch(params, x0, u[None], w[None], z[None])[0])


def simulate_trajectory(params, length, noise_scale, rng):
    """One trajectory drawn the way the reproducibility contract orders it
    (``draw_lds_noise`` from ``rng``), run through the recurrence alone."""
    x0, u, w, z = L.draw_lds_noise(params.dims, length, noise_scale, rng)
    return simulate_from_noise(params, x0, u, w, z)


def flatten_markov(gmat, p):
    """m-by-(T+1)p Markov matrix to the vector whose index k*(m*p) + row*p + col
    holds block k; the inverse of ``ldslab.unflatten_markov``."""
    m, width = gmat.shape
    return np.asarray(gmat, dtype=float).reshape(m, width // p, p).transpose(1, 0, 2).ravel()


def markov_parameter(params, j):
    """The j-th impulse-response block: D for j=0, else C A^(j-1) B; block j
    of ``ldslab.markov_matrix``."""
    if j < 0:
        raise DataError("j must be >= 0")
    return L.markov_matrix(params, j)[:, j * params.p :]


def exact_cross_covariance(mix, k1):
    """sum_i w_i X_{i,k1}; the population value of Rhat[k1]."""
    m, _, p = mix.dims
    out = np.zeros((m, p))
    for w, comp in zip(mix.weights, mix.components):
        out += w * markov_parameter(comp, k1)
    return out


def exact_cross_covariance_stack(mix, s):
    """The population ``CrossCovarianceStack``: blocks k1 = 0..2s side by side."""
    blocks = [exact_cross_covariance(mix, k1) for k1 in range(2 * s + 1)]
    return L.CrossCovarianceStack(assembled=np.hstack(blocks))


def exact_sixth_moment_block(mix, k1, k2, k3):
    """sum_j w_j X_{j,k3} (x) X_{j,k2} (x) X_{j,k1}, shape (m,p,m,p,m,p)."""
    m, _, p = mix.dims
    out = np.zeros((m, p, m, p, m, p))
    for w, comp in zip(mix.weights, mix.components):
        x1 = markov_parameter(comp, k1)
        x2 = markov_parameter(comp, k2)
        x3 = markov_parameter(comp, k3)
        out += w * np.einsum("ab,cd,ef->abcdef", x3, x2, x1)
    return out


def exact_moment_tensor(mix, s):
    """The population ``MomentTensor6``: every block of the (2s+1)^3 grid."""
    ks = range(2 * s + 1)
    blocks = np.array([
        [[exact_sixth_moment_block(mix, k1, k2, k3) for k3 in ks] for k2 in ks]
        for k1 in ks
    ])
    return L.MomentTensor6(blocks=blocks, s=s)


def exact_moments(mix, s):
    """(flattened sixth-moment tensor, cross-covariance stack) at population
    values: the moment inputs of ``learn_mixture_from_moments``.  The
    population tensor is symmetric, so it needs no symmetrization."""
    return L.assemble_pi(exact_moment_tensor(mix, s)), exact_cross_covariance_stack(mix, s)


def closed_form_observation(params, t, u, w, z, x0):
    """y[t] from the unrolled recurrence, never iterating the state:

    y[t] = sum_{i=1..t} (C A^{i-1} B u[t-i] + C A^{i-1} w[t-i])
           + C A^t x0 + D u[t] + z[t]
    """
    u, w, z = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (u, w, z))
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if t < 0 or t >= min(u.shape[0], w.shape[0], z.shape[0]):
        raise DataError(f"index t={t} out of range for the provided sequences")
    acc = params.d @ u[t] + z[t]
    apow = np.eye(params.n)
    for i in range(1, t + 1):
        # apow == A^(i-1) on entry
        acc = acc + params.c @ (apow @ (params.b @ u[t - i] + w[t - i]))
        apow = params.a @ apow
    return acc + params.c @ (apow @ x0)


def power_norm_check(params, s, kappa, t):
    """||A^t||_F <= (sqrt(n) * kappa)^(t/s)."""
    if t < 1:
        raise DataError("t must be >= 1")
    lhs = np.linalg.norm(np.linalg.matrix_power(params.a, t), "fro")
    return bool(lhs <= (np.sqrt(params.n) * kappa) ** (t / s))


def _arrays(dataset, need):
    if dataset.length < need:
        raise DataError(f"trajectories of length {dataset.length} are too short; need {need}")
    return dataset.u, dataset.y


def estimate_cross_covariance(dataset, k1):
    """Empirical mean of y[k1] u[0]^T over a Dataset (m-by-p)."""
    u, y = _arrays(dataset, k1 + 1)
    return np.einsum("bm,bp->mp", y[:, k1], u[:, 0]) / len(u)


def estimate_sixth_moment_block(dataset, k1, k2, k3):
    """Empirical sixth-moment block (m,p,m,p,m,p) for one (k1, k2, k3), by a
    direct six-operand einsum independent of the library's grid kernel."""
    u, y = _arrays(dataset, k1 + k2 + k3 + 3)
    return np.einsum(
        "za,zb,zc,zd,ze,zf->abcdef",
        y[:, k1 + k2 + k3 + 2], u[:, k1 + k2 + 2],
        y[:, k1 + k2 + 1], u[:, k1 + 1],
        y[:, k1], u[:, 0],
    ) / len(u)


def sixth_moment_se(dataset, s):
    """Monte-Carlo standard errors of ``MomentTensor6.estimate(dataset, s)``,
    entry by entry.  The square of a six-fold product is the product of the
    squares, so E[x^2] is the same estimate on (u^2, y^2)."""
    mean = L.MomentTensor6.estimate(dataset, s).blocks
    mean_sq = L.MomentTensor6.estimate(L.Dataset(u=dataset.u**2, y=dataset.y**2), s).blocks
    return np.sqrt(np.maximum(mean_sq - mean**2, 0.0) / len(dataset))


def normalize_fully_observed(params):
    """Change the state basis so that C = I (needs m == n and invertible C)."""
    if params.m != params.n:
        raise DataError(f"need m == n for a C=I realization, got m={params.m}, n={params.n}")
    cond = np.linalg.cond(params.c)
    if not np.isfinite(cond) or cond > COND_FLAG:
        raise NumericalError(f"observation matrix is numerically singular (cond={cond:g})")
    t_inv = np.linalg.inv(params.c)
    return L.LdsParams(a=params.c @ params.a @ t_inv, b=params.c @ params.b,
                       c=np.eye(params.n), d=params.d)


def cluster_posterior(model, traj):
    """``ldslab.cluster_dataset`` of the one-trajectory Dataset of ``traj``."""
    return L.cluster_dataset(model, L.Dataset(u=traj.u[None], y=traj.y[None]))[0]


_LOG_2PI = float(np.log(2.0 * np.pi))
_JITTER = 1e-10


def joint_covariance(params, length, noise_scale=1.0):
    """Covariance of (u[0..l-1], y[0..l-1]), built as F F^T where F maps the
    independent sources (x0, u[0..l-1], w[0..l-2], z[0..l-1]) to the stacked
    trajectory; x0, w and z have standard deviation noise_scale."""
    m, n, p = params.dims
    l = length
    n_w = max(l - 1, 0)
    cols = n + l * p + n_w * n + l * m
    f = np.zeros((l * (p + m), cols))
    u_off, w_off, z_off = n, n + l * p, n + l * p + n_w * n
    for t in range(l):
        f[t * p : (t + 1) * p, u_off + t * p : u_off + (t + 1) * p] = np.eye(p)
    ca = [params.c.copy()]  # C A^i
    for _ in range(l - 1):
        ca.append(ca[-1] @ params.a)
    y0 = l * p
    for t in range(l):
        rows = slice(y0 + t * m, y0 + (t + 1) * m)
        f[rows, :n] = noise_scale * ca[t]  # x0 enters as C A^t
        f[rows, u_off + t * p : u_off + (t + 1) * p] = params.d
        for tau in range(t):
            f[rows, u_off + tau * p : u_off + (tau + 1) * p] = ca[t - 1 - tau] @ params.b
            f[rows, w_off + tau * n : w_off + (tau + 1) * n] = noise_scale * ca[t - 1 - tau]
        f[rows, z_off + t * m : z_off + (t + 1) * m] = noise_scale * np.eye(m)
    return f @ f.T


def dense_log_likelihood(params, traj, noise_scale=1.0):
    """Gaussian log-density of the stacked trajectory from one Cholesky factor
    of :func:`joint_covariance`, retried once with 1e-10 I added."""
    cov = joint_covariance(params, len(traj), noise_scale)
    v = np.concatenate([traj.u.ravel(), traj.y.ravel()])
    dim = v.shape[0]
    try:
        chol = cho_factor(cov, lower=True)
    except np.linalg.LinAlgError:
        try:
            chol = cho_factor(cov + _JITTER * np.eye(dim), lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("trajectory covariance is not positive definite") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
    quad = float(v @ cho_solve(chol, v))
    return -0.5 * (dim * _LOG_2PI + logdet + quad)
