"""Moment statistics of LDS mixtures: cross-covariances and sixth moments.

With 0-based trajectory indexing, the two statistics estimated here are

    Rhat[k1]          = mean_i  y[k1] (x) u[0]
    That[k1, k2, k3]  = mean_i  y[k1+k2+k3+2] (x) u[k1+k2+2] (x) y[k1+k2+1]
                                (x) u[k1+1] (x) y[k1] (x) u[0]

whose expectations are, respectively, sum_j w_j X_{j,k1} and
sum_j w_j X_{j,k3} (x) X_{j,k2} (x) X_{j,k1}, where X_{j,l} is the l-th
Markov parameter of component j.  Piecing the sixth-moment blocks
together over 0 <= k1,k2,k3 <= 2s and flattening (y, u) index pairs
yields a third-order tensor whose rank-one components are the flattened
per-component Markov matrices.

Both come from one pass over the trajectories, B at a time, with the
trajectory axis last.  With j = k1+k2+2, the summand of block (k1, k2, k3)
splits into a j-side and a k1-side factor,

    left_j[k3]  = y[j+k3] (x) u[j] (x) y[j-1]
    right[k1]   = u[k1+1] (x) y[k1] (x) u[0]

so for each 2 <= j <= 4s+2 one GEMM of left_j, a (q*m, B) block, with the
rows of right for every k1 on the anti-diagonal k1+k2 = j-2 covers all
their blocks: 4s+1 GEMMs per chunk.  Rhat's summand y[k1] (x) u[0] is the
inner factor of right[k1].

Flattening convention, fixed everywhere: a Markov matrix block X_k maps
to vector indices k*(m*p) + row*p + col.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError
from .lds import all_finite, require_dataset

__all__ = [
    "CrossCovarianceStack",
    "MomentTensor6",
    "FlatTensor3",
    "assemble_pi",
    "estimate_moments",
    "symmetrize_tensor3",
    "unflatten_markov",
    "min_trajectory_length",
]

# Trajectories are reduced chunk-by-chunk in fixed order.  The chunk bounds
# the length of any accumulation run and the working memory of the pass:
# the y and u buffers and the factors of the GEMMs take
# 8 * _CHUNK * (q(m+p+1) + (6s+3)m + (4s+3)p + mp) bytes, 19 MB at
# q = 112 (m = p = 4, s = 3) and 2.6 MB at q = 20 (m = p = s = 2), beside
# one GEMM product of at most 8 q^2 mp bytes.
_CHUNK = 2048


def min_trajectory_length(s: int) -> int:
    """Shortest trajectory the order-s estimators accept (s >= 0); the
    sixth-moment grid reads indices up to 6s+2."""
    if s < 0:
        raise DataError(f"s must be >= 0, got {s}")
    return 6 * s + 3


def too_short_message(length: int, need: int) -> str:
    return f"trajectories of length {length} are too short; need length >= {need}"


def _arrays(dataset, s: int):
    """(u, y) of a Dataset long enough for the order-s estimators."""
    dataset, need = require_dataset(dataset), min_trajectory_length(s)
    if dataset.length < need:
        raise DataError(too_short_message(dataset.length, need))
    return dataset.u, dataset.y


@dataclass(frozen=True)
class CrossCovarianceStack:
    """Blocks Rhat[0..2s] side by side: assembled is m-by-(2s+1)p."""

    blocks: tuple
    assembled: np.ndarray
    s: int

    @classmethod
    def estimate(cls, dataset, s: int) -> "CrossCovarianceStack":
        """Rhat alone, for callers outside ``learn_mixture``: it runs all of
        :func:`estimate_moments`, so it costs as much as a sixth-moment estimate."""
        return estimate_moments(dataset, s)[1]


def _sixth_moment_sums(u, y, s):
    """Sums over trajectories of the six-fold products on the whole grid: a
    (g, g, g*mp, mp*mp) array indexed [k1, k2, (k3, y3, u3), (y2, u2, y1, u1)]
    with g = 2s+1, which reshapes directly into the block grid, and of Rhat's
    summands y[d] (x) u[0]: a g*mp vector in the v(G) flattening."""
    (n, _, m), p = y.shape, u.shape[2]
    mp, g = m * p, 2 * s + 1
    q = g * mp
    batch = min(n, _CHUNK)
    sums, cross = np.zeros((g, g, q, mp * mp)), np.zeros(q)
    bufs = [np.empty(shape + (batch,)) for shape in (
        (6 * s + 3, m), (4 * s + 3, p), (g, m, p), (g, p, m, p), (p, m), (g, m, p, m))]
    prod = np.empty(q * m * q * p)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        bsz = hi - lo
        yb, ub, head, right, mid, left = (b[..., :bsz] for b in bufs)
        np.copyto(yb, y[lo:hi, : 6 * s + 3].transpose(1, 2, 0))
        np.copyto(ub, u[lo:hi, : 4 * s + 3].transpose(1, 2, 0))
        # head[k1] = y[k1] (x) u[0], Rhat's summand; right[k1] = u[k1+1] (x) head[k1]
        np.multiply(yb[:g, :, None], ub[0, None], out=head)
        cross += head.reshape(q, bsz).sum(axis=1)
        np.multiply(ub[1 : g + 1, :, None, None], head[:, None], out=right)
        for j in range(2, 2 * g + 1):
            # left[k3] = y[j+k3] (x) u[j] (x) y[j-1], times right[k1] for the
            # k1 in [first, stop) of the blocks (k1, j-2-k1) on the grid
            first, stop = max(0, j - 1 - g), min(g, j - 1)
            np.multiply(ub[j, :, None], yb[j - 1, None], out=mid)
            np.multiply(yb[j : j + g, :, None, None], mid, out=left)
            out = prod[: q * m * (stop - first) * p * mp].reshape(q * m, -1)
            np.matmul(left.reshape(q * m, bsz), right[first:stop].reshape(-1, bsz).T, out=out)
            out = out.reshape(q, m, stop - first, p * mp)
            for k1 in range(first, stop):
                block = sums[k1, j - 2 - k1].reshape(q, m, p * mp)
                block += out[:, :, k1 - first]
    return sums, cross


@dataclass(frozen=True)
class MomentTensor6:
    """All (2s+1)^3 sixth-moment blocks on a complete grid:
    ``blocks[k1, k2, k3]`` is the (m,p,m,p,m,p) block."""

    blocks: np.ndarray
    s: int

    def __post_init__(self):
        g = 2 * self.s + 1
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim != 9 or b.shape[:3] != (g, g, g):
            raise DimensionError("blocks", f"expected ({g},{g},{g},m,p,m,p,m,p) grid")
        if b.shape[3:] != b.shape[3:5] * 3:
            raise DimensionError("blocks", f"inconsistent block shape {b.shape[3:]}")
        if not all_finite(b):
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
    def estimate(cls, dataset, s: int) -> "MomentTensor6":
        """The sixth-moment half of :func:`estimate_moments`."""
        return estimate_moments(dataset, s)[0]


def estimate_moments(dataset, s: int):
    """(MomentTensor6, CrossCovarianceStack) of a Dataset, from one pass over it."""
    u, y = _arrays(dataset, s)
    (n, _, p), m, g = u.shape, y.shape[2], 2 * s + 1
    sums, cross = _sixth_moment_sums(u, y, s)
    sums /= n
    tensor = MomentTensor6(blocks=sums.reshape((g, g, g) + (m, p) * 3), s=s)
    rhat = unflatten_markov(cross / n, m, p)
    return tensor, CrossCovarianceStack(blocks=tuple(np.hsplit(rhat, g)), assembled=rhat, s=s)


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
        if not all_finite(d):
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
    out /= 6.0
    return out


def unflatten_markov(vec: np.ndarray, m: int, p: int) -> np.ndarray:
    """Rearrange a flattened Markov vector back into an m-by-(T+1)p matrix
    (vector index k*(m*p) + row*p + col holds block k, row, col)."""
    vec = np.asarray(vec, dtype=float).ravel()
    if vec.size % (m * p) != 0:
        raise DimensionError("vec", f"length {vec.size} not a multiple of m*p={m * p}")
    nblocks = vec.size // (m * p)
    return vec.reshape(nblocks, m, p).transpose(1, 0, 2).reshape(m, nblocks * p)
