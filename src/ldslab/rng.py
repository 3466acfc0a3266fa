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
which computes in numpy, for a whole chunk of indices at once, the PCG64
state of ``substream(seed, i)`` (:func:`substream_states`) and the first
``random()`` draw of each (one PCG64 step and its XSL-RR output, O'Neill
2014), bit for bit, without a ``SeedSequence`` or a ``Generator`` per
index; only the normals come from numpy's ``Generator``.

Before each row's normals the sampler sets its one ``PCG64`` to that
row's state without the ``bitgen.state`` setter, which numpy validates in
Python.  ``bitgen.ctypes.state_address`` is the address of the bit
generator's state struct, whose first field points at the 128-bit state
and increment; :func:`_state_words` views them as four uint64 words,
which on a build with ``__uint128_t`` are state low, state high, inc low,
inc high.  Each call writes one probe state through the view and checks
it against the documented setter before it yields a row, and raises,
naming numpy's version, if the two disagree, as they would on a build
with the other word order.  This was checked on numpy 2.4.6.
"""
from __future__ import annotations

import ctypes

import numpy as np

from .errors import require_int

__all__ = ["substream", "substream_states", "substream_draws"]

# SeedSequence constants of numpy/random/bit_generator.pyx (INIT_A, MULT_A,
# INIT_B, MULT_B, MIX_MULT_L, MIX_MULT_R) and PCG_DEFAULT_MULTIPLIER_128 of
# numpy/random/src/pcg64/pcg64.h, the latter as (high, low) 64-bit words.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, np.uint32(0x4973F715)
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_LOW32 = np.uint64(0xFFFFFFFF)
# The index is one 32-bit spawn-key word; draws are made per chunk of _BATCH.
MAX_SUBSTREAMS = 2**32
_BATCH = 4096
# The guard's PCG64 state and increment as view words, four distinct values.
_PROBE = (0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x9E3779B97F4A7C15, 0x2545F4914F6CDD1D)


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the generator for substream ``index`` of the given seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _hash(values: np.ndarray, const: int, mult: int):
    """numpy's ``hashmix`` (and ``generate_state`` step): (hashed, next const)."""
    const_next = const * mult & 0xFFFFFFFF
    values = (values ^ np.uint32(const)) * np.uint32(const_next)
    return values ^ (values >> np.uint32(16)), const_next


def _add128(a, b):
    """a + b mod 2**128 on (high, low) pairs of uint64 arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _pcg_step(state, inc):
    """One PCG64 step, state * MULT + inc mod 2**128, on (high, low) pairs.

    The high word of the low words' 128-bit product is summed from 32-bit
    limbs; every other product only matters mod 2**64.
    """
    (hi, lo), (mult_hi, mult_lo) = state, _PCG_MULT
    lo0, lo1, m0, m1 = lo & _LOW32, lo >> 32, mult_lo & _LOW32, mult_lo >> 32
    cross0, cross1 = lo0 * m1, lo1 * m0
    mid = (lo0 * m0 >> 32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    carry = lo1 * m1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    return _add128((carry + hi * mult_lo + lo * mult_hi, lo * mult_lo), inc)


def _uniform(state) -> np.ndarray:
    """``Generator.random()`` from PCG64 states that have just stepped:
    the XSL-RR output (high ^ low rotated right by high >> 58), top 53 bits."""
    hi, lo = state
    xored, rot = hi ^ lo, hi >> 58
    out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> 11) * 2.0**-53


def substream_states(seed: int, start: int, stop: int) -> tuple:
    """PCG64 ``(state, inc)`` of ``substream(seed, i)`` for i in [start, stop).

    Each is a (high, low) pair of uint64 arrays indexed by i - start, so the
    128-bit value for index i is ``int(high[j]) << 64 | int(low[j])``.

    ``SeedSequence(seed, spawn_key=(i,))`` mixes the seed words into its pool,
    then the word i.  Before that last step the pool is ``SeedSequence(seed).pool``
    and the hash constant has advanced 16 + 4 * max(0, words(seed) - 4) times,
    so only the last step (``hashmix``, ``mix`` of bit_generator.pyx) runs per
    index, vectorized; then ``generate_state(4, uint64)`` and ``pcg64_set_seed``
    (pcg64.c): inc = 2 * initseq + 1, state = (inc + initstate) * MULT + inc.
    Raises DataError unless the seed is an integer >= 0 (the CLI's ``--seed``
    rule), start and stop are integers and 0 <= start <= stop <= 2**32.
    """
    seed = require_int(seed, "seed", 0)
    start = require_int(start, "start", 0, MAX_SUBSTREAMS)
    stop = require_int(stop, "stop", start, MAX_SUBSTREAMS)
    words = max(1, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 2**32) & 0xFFFFFFFF
    index = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    pool = []
    for word in np.random.SeedSequence(seed).pool:
        hashed, const = _hash(index, const, _MULT_A)
        mixed = np.uint32(_MIX_L * int(word) & 0xFFFFFFFF) - _MIX_R * hashed
        pool.append(mixed ^ (mixed >> np.uint32(16)))
    const, seeds = _INIT_B, []
    for dst in range(0, 8, 2):  # four uint64 words, each from two uint32 words
        low, const = _hash(pool[dst % 4], const, _MULT_B)
        high, const = _hash(pool[(dst + 1) % 4], const, _MULT_B)
        seeds.append(high.astype(np.uint64) << 32 | low)
    initstate, (seq_hi, seq_lo) = seeds[:2], seeds[2:]
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    return _pcg_step(_add128(inc, initstate), inc), inc


def substream_draws(seed: int, n_traj: int, width: int):
    """Iterate ``(start, uniforms, normals)`` over substreams 0..n_traj-1 in chunks.

    A chunk covers at most ``_BATCH`` substreams from ``start`` on.  Row j
    holds what ``substream(seed, start + j)`` gives for one ``random()``
    (``uniforms[j]``) followed by one ``standard_normal(width)``
    (``normals[j]``).  ``normals`` is one buffer refilled for every chunk, so
    each chunk must be used before the next is drawn.  The seed, n_traj and
    width are checked here, before the caller allocates anything for the
    draws: each a DataError unless an integer >= 0 (n_traj at most 2**32).
    """
    seed = require_int(seed, "seed", 0)
    n_traj = require_int(n_traj, "n_traj", 0, MAX_SUBSTREAMS)
    return _draw_chunks(seed, n_traj, require_int(width, "width", 0))


def _state_words(bitgen: np.random.PCG64) -> np.ndarray:
    """The uint64 words of ``bitgen``'s PCG64 state and increment, as a view."""
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))


def _check_words(bitgen: np.random.PCG64, words: np.ndarray) -> None:
    """Raise unless the probe written through ``words`` is the state the setter gives."""
    state_lo, state_hi, inc_lo, inc_hi = _PROBE
    ref = np.random.PCG64(0)
    ref.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                 "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}}
    words[0], words[1], words[2], words[3] = _PROBE
    if bitgen.state != ref.state or not np.array_equal(bitgen.random_raw(2), ref.random_raw(2)):
        raise RuntimeError(
            f"numpy {np.__version__} lays out the PCG64 state otherwise than ldslab "
            "writes it (state low, state high, inc low, inc high)")


def _draw_chunks(seed: int, n_traj: int, width: int):
    buffer = np.empty((min(n_traj, _BATCH), width))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    words = _state_words(bitgen)
    _check_words(bitgen, words)
    for start in range(0, n_traj, _BATCH):
        state, inc = substream_states(seed, start, min(start + _BATCH, n_traj))
        state = _pcg_step(state, inc)  # the step random() takes
        normals = buffer[: len(inc[0])]
        rows = zip(normals, *(half.tolist() for half in (*state, *inc)))
        for row, state_hi, state_lo, inc_hi, inc_lo in rows:
            words[0], words[1], words[2], words[3] = state_lo, state_hi, inc_lo, inc_hi
            gen.standard_normal(out=row)
        yield start, _uniform(state), normals
