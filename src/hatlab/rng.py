"""Counter-based deterministic randomness.

Every draw is a pure function of ``(seed, *indices)``: the same key always
yields the same value, independent of call order, interleaving, or thread
count.  This is what makes randomized constructions replayable from their
recorded seeds alone.

Rows of draws under one key prefix (``coin_mask``, ``chance_mask``,
``randrange_row``) hash the prefix once, then finalize all n lanes in one
big-int pass.  Lane v sits at bit 128*v, so a lane below 2^64 times a
64-bit constant stays in its 128 bits; masking every lane back to its low
64 bits after each xor-shift clears what the shift pulled in, so per lane
this is ``_mix``.
"""

from __future__ import annotations

import struct
from functools import lru_cache

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT = 0xBF58476D1CE4E5B9


def _mix(z: int) -> int:
    # splitmix64 finalizer
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


@lru_cache(maxsize=8)
def _lanes(n: int) -> tuple[int, int, int]:
    """Per-lane constants for n lanes: ones, low-64 masks, the keys v * _MULT."""
    ones = int.from_bytes(b"\x01".ljust(16, b"\0") * n, "little")
    keys = b"".join(((v * _MULT) & _M64).to_bytes(16, "little") for v in range(n))
    return ones, ones * _M64, int.from_bytes(keys, "little")


_BELOW = bytes.maketrans(b"\0\1", b"10")  # a lane's bit 64 as a byte: 0 is "below"


def _lane_bytes(n: int, h: int, threshold: int) -> bytes:
    """Lanes ``_mix(h ^ v * _MULT) + 2^64 - threshold`` for v < n, h < 2^64,
    as 16 big-endian bytes each, lane n - 1 first.  A lane's bit 64, set iff
    its draw is at least ``threshold``, is its byte 7."""
    ones, low, keys = _lanes(n)
    z = (h * ones) ^ keys
    z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
    z = ((z ^ (z >> 31)) & low) + ((1 << 64) - threshold) * ones
    return z.to_bytes(16 * n, "big")


def u64(seed: int, *indices: int) -> int:
    """Uniform 64-bit value keyed by ``seed`` and an index path."""
    h = _mix((seed & _M64) ^ _GOLDEN)
    for x in indices:
        h = _mix(h ^ ((x * _MULT) & _M64))
    return h


def coin(seed: int, *indices: int) -> bool:
    """Fair coin keyed by ``(seed, *indices)``."""
    return u64(seed, *indices) < (1 << 63)


def coin_mask(n: int, seed: int, *indices: int) -> int:
    """n fair coins as a mask: bit v is ``coin(seed, *indices, v)``."""
    lanes = _lane_bytes(n, u64(seed, *indices), 1 << 63)
    return int(lanes[7::16].translate(_BELOW) or b"0", 2)


def chance(p: float, seed: int, *indices: int) -> bool:
    """Event of probability ``p`` (up to 2^-64 rounding) keyed as above."""
    if p <= 0.0:
        return False
    if p >= 1.0:
        return True
    return u64(seed, *indices) < round(p * 2.0**64)


def chance_mask(n: int, p: float, seed: int, *indices: int) -> int:
    """n events as a mask: bit v is ``chance(p, seed, *indices, v)``."""
    threshold = 0 if p <= 0.0 else 1 << 64 if p >= 1.0 else round(p * 2.0**64)
    lanes = _lane_bytes(n, u64(seed, *indices), threshold)
    return int(lanes[7::16].translate(_BELOW) or b"0", 2)


def randrange(n: int, seed: int, *indices: int) -> int:
    """Uniform value in [0, n).  Modulo bias is negligible for n << 2^64."""
    if n <= 0:
        raise ValueError("randrange needs n >= 1")
    return u64(seed, *indices) % n


def randrange_row(count: int, n: int, seed: int, *indices: int) -> list[int]:
    """``count`` values in [0, n): entry v is ``randrange(n, seed, *indices, v)``."""
    if n <= 0:
        raise ValueError("randrange needs n >= 1")
    # threshold 0 puts 1 in each lane's high 8 bytes and leaves the draw in
    # its low 8; stepping back by 2 reads the draws from lane 0 up
    lanes = _lane_bytes(count, u64(seed, *indices), 0)
    return [x % n for x in struct.unpack(f">{2 * count}Q", lanes)[::-2]]
