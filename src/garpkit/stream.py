"""The package's one random source: counter-based SplitMix64 streams
(Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
OOPSLA 2014) in numpy uint64 arithmetic.  The verifiers' samples and the
generator's markets and waste corners all come from :func:`_uniforms`.
Value i of a stream depends on its key and i alone, so draws are
reproducible and independent of evaluation order.
"""

from __future__ import annotations

import numpy as np

#: The golden-gamma increment and the two multipliers of the output function.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 2 ** 64 - 1

#: Counters mixed per block of a stream (see :func:`_uniforms`).
_COUNTERS = 8192

#: Stream purposes: verifier budget samples, box and rays; generator markets and corners.
_BUDGET, _BOX, _RAYS, _MARKETS, _CORNERS = 1, 2, 3, 4, 5


def _check_seed(seed, error: type[Exception]) -> None:
    """Raise ``error`` unless ``seed`` is a non-negative integer, not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise error(f"seed must be a non-negative integer, got {seed!r}")


def _check_count(count, name: str, error: type[Exception]) -> None:
    """Raise ``error`` unless ``count`` is an integer of at least 1, not a bool."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise error(f"{name} must be at least 1 and an integer, got {count!r}")


def _mix(z: int) -> int:
    """SplitMix64's output function on a 64-bit Python int."""
    z = (z ^ z >> 30) * _MIX1 & _MASK
    z = (z ^ z >> 27) * _MIX2 & _MASK
    return z ^ z >> 31


def _uniforms(seed: int, purpose: int, t: int, rows: int, cols: int) -> np.ndarray:
    """A ``rows x cols`` array of uniforms in (0, 1), filled row by row from
    stream ``(seed, purpose, t)``.

    The stream's key absorbs ``purpose``, ``t`` and the 64-bit words of the
    seed, lowest first, one SplitMix64 step each, so stream t does not depend
    on how many streams a call uses, and a seed of 2**64 or more is not its
    value modulo 2**64.  Value i (from 1) is ``((z >> 12) + 0.5) * 2**-52``
    with ``z`` the output function of ``key + i * gamma`` modulo 2**64: an
    odd multiple of ``2**-53``, exact in float64, so strictly between 0
    and 1; a 53-bit ``((z >> 11) + 0.5) * 2**-53`` would need 54 bits, and
    its largest value would round to 1.  Counters are mixed ``_COUNTERS``
    at a time in uint64 arrays, whose arithmetic wraps modulo 2**64.
    """
    key, seed = 0, int(seed)
    words = [seed >> shift & _MASK for shift in range(0, max(seed.bit_length(), 1), 64)]
    for word in (purpose, t, *words):
        key = _mix(((key ^ word) + _GAMMA) & _MASK)
    size = rows * cols
    out = np.empty(size)
    steps = np.arange(1, min(size, _COUNTERS) + 1, dtype=np.uint64)
    steps *= np.uint64(_GAMMA)
    z = np.empty_like(steps)
    spare = np.empty_like(steps)
    mix1, mix2 = np.uint64(_MIX1), np.uint64(_MIX2)
    for lo in range(0, size, _COUNTERS):
        m = min(_COUNTERS, size - lo)
        block, other = z[:m], spare[:m]
        np.add(steps[:m], np.uint64((key + lo * _GAMMA) & _MASK), out=block)
        np.right_shift(block, 30, out=other)
        block ^= other
        block *= mix1
        np.right_shift(block, 27, out=other)
        block ^= other
        block *= mix2
        np.right_shift(block, 31, out=other)
        block ^= other
        # (z >> 11) | 1 is 2 * (z >> 12) + 1, below 2**53: exact in float64
        # (and an int64, which converts faster).
        block >>= 11
        block |= 1
        values = out[lo:lo + m]
        values[:] = block.view(np.int64)
        values *= 2.0 ** -53
    return out.reshape(rows, cols)
