"""Reference computations the tests check ldslab against.

No library or CLI path calls these, so they live with the tests: a
one-trajectory simulator, the unrolled closed form of the LDS recurrence,
the power-norm bound, the Markov-matrix flattening, direct per-block
moment estimators and the C = I change of basis.
"""
import numpy as np

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


def simulate_trajectory(params, length, noise, rng):
    """One trajectory drawn the way the reproducibility contract orders it
    (``draw_lds_noise`` from ``rng``), run through the recurrence alone."""
    x0, u, w, z = L.draw_lds_noise(params.dims, length, noise, rng)
    return simulate_from_noise(params, x0, u, w, z)


def flatten_markov(gmat, p):
    """m-by-(T+1)p Markov matrix to the vector whose index k*(m*p) + row*p + col
    holds block k; the inverse of ``ldslab.unflatten_markov``."""
    m, width = gmat.shape
    return np.asarray(gmat, dtype=float).reshape(m, width // p, p).transpose(1, 0, 2).ravel()


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
