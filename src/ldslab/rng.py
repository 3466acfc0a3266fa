"""Seedable, splittable random number generation.

All randomness in the package flows through numpy ``Generator`` objects.
Reproducibility across runs and across any degree of parallelism is
obtained by deriving one independent substream per trajectory from the
pair (seed, trajectory index): substream ``i`` of seed ``s`` is the
``SeedSequence(s, spawn_key=(i,))`` stream, which is exactly the ``i``-th
child of ``SeedSequence(s).spawn(...)``.  Whoever consumes trajectory
``i`` therefore sees identical draws no matter how work is sharded.

:func:`substream` builds that generator the documented way and remains
the reference.  Datasets are sampled through :func:`substream_draws`,
whose fast path (:func:`substream_states`) reproduces the PCG64 state of
``substream(seed, i)`` bit for bit without a ``SeedSequence`` or a
``Generator`` per index.
"""
from __future__ import annotations

import operator
import os

import numpy as np

from .errors import DataError

__all__ = ["substream", "substream_states", "substream_draws", "worker_threads"]

# SeedSequence constants of numpy/random/bit_generator.pyx (INIT_A, MULT_A,
# INIT_B, MULT_B, MIX_MULT_L, MIX_MULT_R) and PCG_DEFAULT_MULTIPLIER_128 of
# numpy/random/src/pcg64/pcg64.h.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# The index is one 32-bit spawn-key word; states are made per batch.
MAX_SUBSTREAMS = 2**32
_BATCH = 4096


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the generator for substream ``index`` of the given seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _hash(values: np.ndarray, const: int, mult: int):
    """numpy's ``hashmix`` (and ``generate_state`` step): (hashed, next const)."""
    const_next = const * mult & 0xFFFFFFFF
    values = (values ^ np.uint32(const)) * np.uint32(const_next)
    return values ^ (values >> np.uint32(16)), const_next


def substream_states(seed: int, start: int, stop: int) -> list:
    """PCG64 ``(state, inc)`` of ``substream(seed, i)`` for i in [start, stop).

    ``SeedSequence(seed, spawn_key=(i,))`` mixes the seed words into its pool,
    then the word i.  Before that last step the pool is ``SeedSequence(seed).pool``
    and the hash constant has advanced 16 + 4 * max(0, words(seed) - 4) times,
    so only the last step (``hashmix``, ``mix`` of bit_generator.pyx) runs per
    index, vectorized; then ``generate_state(4, uint64)`` and ``pcg64_set_seed``
    (pcg64.c): inc = 2 * initseq + 1, state = (inc + initstate) * MULT + inc.
    Raises DataError unless 0 <= start <= stop <= 2**32.
    """
    seed = operator.index(seed)
    if not 0 <= start <= stop <= MAX_SUBSTREAMS:
        raise DataError(f"substream indices [{start}, {stop}) must lie in [0, {MAX_SUBSTREAMS}]")
    words = max(1, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 2**32) & 0xFFFFFFFF
    index = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    pool = []
    for word in np.random.SeedSequence(seed).pool:
        hashed, const = _hash(index, const, _MULT_A)
        mixed = np.uint32(_MIX_L * int(word) & 0xFFFFFFFF) - _MIX_R * hashed
        pool.append(mixed ^ (mixed >> np.uint32(16)))
    const, state = _INIT_B, []
    for dst in range(8):
        hashed, const = _hash(pool[dst % 4], const, _MULT_B)
        state.append(hashed.tolist())
    out = []
    for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*state):
        initstate = (w1 << 96) | (w0 << 64) | (w3 << 32) | w2
        inc = ((w5 << 97) | (w4 << 65) | (w7 << 33) | (w6 << 1) | 1) % 2**128
        out.append((((inc + initstate) * _PCG_MULT + inc) % 2**128, inc))
    return out


def substream_draws(seed: int, n_traj: int, width: int):
    """(uniforms (n_traj,), normals (n_traj, width)) from substreams 0..n_traj-1.

    Row i holds what ``substream(seed, i)`` gives for one ``random()``
    followed by one ``standard_normal(width)``.
    """
    substream_states(seed, n_traj, n_traj)  # checks seed and n_traj before allocating
    uniforms, normals = np.empty(n_traj), np.empty((n_traj, width))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for start in range(0, n_traj, _BATCH):
        states = substream_states(seed, start, min(start + _BATCH, n_traj))
        for i, (state, inc) in enumerate(states, start):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            uniforms[i] = gen.random()
            gen.standard_normal(out=normals[i])
    return uniforms, normals


def worker_threads() -> int:
    """Worker-thread cap from the LDSLAB_THREADS environment variable.

    Defaults to 1 (serial).  Results are independent of this setting by
    construction; it only bounds concurrency.
    """
    raw = os.environ.get("LDSLAB_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)
