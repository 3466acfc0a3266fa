"""Moment statistics of LDS mixtures: cross-covariances and sixth moments.

With 0-based trajectory indexing, the two estimators implemented here are

    Rhat[k1]          = mean_i  y[k1] (x) u[0]
    That[k1, k2, k3]  = mean_i  y[k1+k2+k3+2] (x) u[k1+k2+2] (x) y[k1+k2+1]
                                (x) u[k1+1] (x) y[k1] (x) u[0]

whose expectations are, respectively, sum_j w_j X_{j,k1} and
sum_j w_j X_{j,k3} (x) X_{j,k2} (x) X_{j,k1}, where X_{j,l} is the l-th
Markov parameter of component j.  Piecing the sixth-moment blocks
together over 0 <= k1,k2,k3 <= 2s and flattening (y, u) index pairs
yields a third-order tensor whose rank-one components are the flattened
per-component Markov matrices.

Every factor of the sixth moment is a pair y[i+d] (x) u[i] with
0 <= i <= 4s+2 and 0 <= d <= 2s, so the grid estimator first builds the
pair slab

    pair[i, b, d*(m*p) + row*p + col] = y[b, i+d, row] * u[b, i, col]

of shape (4s+3, B, (2s+1)*m*p) for a chunk of B trajectories.  The three
factors of block (k1, k2, k3) are pair[0] at d = k1, pair[k1+1] at d = k2
and pair[k1+k2+2] at d = k3, so one GEMM per (k1, k2) covers every k3.

Flattening convention, fixed everywhere: a Markov matrix block X_k maps
to vector indices k*(m*p) + row*p + col.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DimensionError
from .lds import MixtureSpec, markov_parameter, require_dataset

__all__ = [
    "CrossCovarianceStack",
    "MomentTensor6",
    "FlatTensor3",
    "exact_cross_covariance",
    "exact_sixth_moment_block",
    "assemble_pi",
    "symmetrize_tensor3",
    "unflatten_markov",
    "min_trajectory_length",
]

# Trajectories are reduced chunk-by-chunk in fixed order.  The chunk
# bounds the length of any single accumulation run regardless of dataset
# size, and the memory of the pair slab: 8 * _CHUNK * (4s+3) * q bytes.
_CHUNK = 8192


def min_trajectory_length(s: int) -> int:
    """Shortest trajectory the order-s estimators accept; the sixth-moment
    grid reads indices up to 6s+2."""
    return 6 * s + 3


def too_short_message(length: int, need: int) -> str:
    return f"trajectories of length {length} are too short; need length >= {need}"


def _arrays(dataset, min_length: int):
    """(u, y) of a Dataset whose trajectories have length >= min_length."""
    dataset = require_dataset(dataset)
    if dataset.length < min_length:
        raise DataError(too_short_message(dataset.length, min_length))
    return dataset.u, dataset.y


def exact_cross_covariance(mix: MixtureSpec, k1: int) -> np.ndarray:
    """sum_i w_i X_{i,k1}; the population value of Rhat[k1]."""
    m, _, p = mix.dims
    out = np.zeros((m, p))
    for w, comp in zip(mix.weights, mix.components):
        out += w * markov_parameter(comp, k1)
    return out


@dataclass(frozen=True)
class CrossCovarianceStack:
    """Blocks Rhat[0..2s] side by side: assembled is m-by-(2s+1)p."""

    blocks: tuple
    assembled: np.ndarray
    s: int

    @classmethod
    def estimate(cls, dataset, s: int) -> "CrossCovarianceStack":
        u, y = _arrays(dataset, 2 * s + 1)
        blocks = tuple(
            np.einsum("bm,bp->bmp", y[:, k1], u[:, 0]).sum(axis=0) / len(u)
            for k1 in range(2 * s + 1)
        )
        return cls(blocks=blocks, assembled=np.hstack(blocks), s=s)

    @classmethod
    def exact(cls, mix: MixtureSpec, s: int) -> "CrossCovarianceStack":
        blocks = tuple(exact_cross_covariance(mix, k1) for k1 in range(2 * s + 1))
        return cls(blocks=blocks, assembled=np.hstack(blocks), s=s)


def _accumulate_sixth(acc, pair, mp):
    """acc[k1, k2] += pair[k1+k2+2].T @ (pair[k1+1] at d=k2 (x) pair[0] at d=k1)."""
    g = acc.shape[0]
    bsz = pair.shape[1]
    for k1 in range(g):
        o1 = pair[0, :, k1 * mp:(k1 + 1) * mp]
        for k2 in range(g):
            o2 = pair[k1 + 1, :, k2 * mp:(k2 + 1) * mp]
            inner = (o2[:, :, None] * o1[:, None, :]).reshape(bsz, mp * mp)
            acc[k1, k2] += pair[k1 + k2 + 2].T @ inner


def _sixth_moment_sums(u, y, s, with_sq=False):
    """Sums over trajectories of the six-fold products on the whole grid,
    and of their squares when ``with_sq``.  Both are (g, g, g*mp, mp*mp)
    arrays indexed [k1, k2, (k3, y3, u3), (y2, u2, y1, u1)] with g = 2s+1,
    which reshape directly into the block grid."""
    n, _, m = y.shape
    p = u.shape[2]
    mp, g, width = m * p, 2 * s + 1, 4 * s + 3
    sums = np.zeros((g, g, g * mp, mp * mp))
    sumsqs = np.zeros_like(sums) if with_sq else None
    slab = np.empty((width, min(n, _CHUNK), g, m, p))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        # windows[b, i, row, d] = y[b, i+d, row]
        windows = sliding_window_view(y[lo:hi], g, axis=1)[:, :width]
        np.multiply(
            windows.transpose(1, 0, 3, 2)[..., None],
            u[lo:hi, :width].transpose(1, 0, 2)[:, :, None, None, :],
            out=slab[:, : hi - lo],
        )
        pair = slab[:, : hi - lo].reshape(width, hi - lo, g * mp)
        _accumulate_sixth(sums, pair, mp)
        if with_sq:
            _accumulate_sixth(sumsqs, np.square(pair, out=pair), mp)
    return sums, sumsqs


def _block_shape(m, p):
    return (m, p, m, p, m, p)


def exact_sixth_moment_block(mix: MixtureSpec, k1: int, k2: int, k3: int) -> np.ndarray:
    """sum_j w_j X_{j,k3} (x) X_{j,k2} (x) X_{j,k1}, shape (m,p,m,p,m,p)."""
    m, _, p = mix.dims
    out = np.zeros(_block_shape(m, p))
    for w, comp in zip(mix.weights, mix.components):
        x1 = markov_parameter(comp, k1)
        x2 = markov_parameter(comp, k2)
        x3 = markov_parameter(comp, k3)
        out += w * np.einsum("ab,cd,ef->abcdef", x3, x2, x1)
    return out


@dataclass(frozen=True)
class MomentTensor6:
    """All (2s+1)^3 sixth-moment blocks on a complete grid.

    ``blocks[k1, k2, k3]`` is the (m,p,m,p,m,p) block; ``se`` (present
    only when estimated with ``with_se=True``) holds the per-entry
    Monte-Carlo standard errors on the same grid.
    """

    blocks: np.ndarray
    s: int
    se: np.ndarray = None

    def __post_init__(self):
        g = 2 * self.s + 1
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim != 9 or b.shape[:3] != (g, g, g):
            raise DimensionError("blocks", f"expected ({g},{g},{g},m,p,m,p,m,p) grid")
        if b.shape[3:] != _block_shape(b.shape[3], b.shape[4]):
            raise DimensionError("blocks", f"inconsistent block shape {b.shape[3:]}")
        if not np.all(np.isfinite(b)):
            raise DataError("sixth-moment blocks contain non-finite entries")
        object.__setattr__(self, "blocks", b)

    @property
    def m(self) -> int:
        return self.blocks.shape[3]

    @property
    def p(self) -> int:
        return self.blocks.shape[4]

    def block(self, k1: int, k2: int, k3: int) -> np.ndarray:
        return self.blocks[k1, k2, k3]

    @classmethod
    def estimate(cls, dataset, s: int, with_se: bool = False) -> "MomentTensor6":
        """Estimate every block from one streaming pass over the dataset."""
        u, y = _arrays(dataset, min_trajectory_length(s))
        n = u.shape[0]
        g = 2 * s + 1
        shape = (g, g, g) + _block_shape(y.shape[2], u.shape[2])
        sums, sumsqs = _sixth_moment_sums(u, y, s, with_sq=with_se)
        blocks = (sums / n).reshape(shape)
        se = None
        if with_se:
            var = np.maximum(sumsqs.reshape(shape) / n - blocks**2, 0.0)
            se = np.sqrt(var / n)
        return cls(blocks=blocks, s=s, se=se)

    @classmethod
    def exact(cls, mix: MixtureSpec, s: int) -> "MomentTensor6":
        """Population blocks computed from the mixture parameters."""
        ks = range(2 * s + 1)
        blocks = np.array([
            [[exact_sixth_moment_block(mix, k1, k2, k3) for k3 in ks] for k2 in ks]
            for k1 in ks
        ])
        return cls(blocks=blocks, s=s)


@dataclass(frozen=True)
class FlatTensor3:
    """Order-3 flattening of the sixth-moment grid, q = (2s+1)*m*p."""

    data: np.ndarray
    s: int
    m: int
    p: int

    def __post_init__(self):
        q = (2 * self.s + 1) * self.m * self.p
        d = np.asarray(self.data, dtype=float)
        if d.shape != (q, q, q):
            raise DimensionError("data", f"expected shape {(q, q, q)}, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise DataError("flattened tensor contains non-finite entries")
        object.__setattr__(self, "data", d)

    @property
    def q(self) -> int:
        return (2 * self.s + 1) * self.m * self.p


def assemble_pi(blocks: MomentTensor6) -> FlatTensor3:
    """Flatten the block grid into a q*q*q tensor.

    Mode 1 indexes (k3, y-row, u-col) of the third measurement pair,
    mode 2 the (k2, ...) pair and mode 3 the (k1, ...) pair, each with
    the block flattening k*(m*p) + row*p + col.  On exact blocks the
    result equals sum_i w_i v(G_i) (x) v(G_i) (x) v(G_i).
    """
    bb = blocks.blocks
    g = 2 * blocks.s + 1
    m, p = blocks.m, blocks.p
    q = g * m * p
    # axes (k1,k2,k3, r3,c3, r2,c2, r1,c1) -> (k3,r3,c3, k2,r2,c2, k1,r1,c1)
    flat = bb.transpose(2, 3, 4, 1, 5, 6, 0, 7, 8).reshape(q, q, q)
    return FlatTensor3(data=flat, s=blocks.s, m=m, p=p)


def symmetrize_tensor3(t: np.ndarray) -> np.ndarray:
    """Average an order-3 tensor over all six mode permutations.

    The population flattened tensor is fully symmetric, so this leaves
    exact tensors unchanged and only averages out estimation noise.
    """
    t = np.asarray(t, dtype=float)
    out = t.copy()
    for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        out += t.transpose(perm)
    return out / 6.0


def unflatten_markov(vec: np.ndarray, m: int, p: int) -> np.ndarray:
    """Rearrange a flattened Markov vector back into an m-by-(T+1)p matrix
    (vector index k*(m*p) + row*p + col holds block k, row, col)."""
    vec = np.asarray(vec, dtype=float).ravel()
    if vec.size % (m * p) != 0:
        raise DimensionError("vec", f"length {vec.size} not a multiple of m*p={m * p}")
    nblocks = vec.size // (m * p)
    return vec.reshape(nblocks, m, p).transpose(1, 0, 2).reshape(m, nblocks * p)
