"""Bit-level helpers used by scan chains, caches and fault models.

All values are non-negative Python integers interpreted as fixed-width
bit-vectors, LSB = bit 0.
"""

from __future__ import annotations


def bit_get(value: int, bit: int) -> int:
    """Return bit ``bit`` (0 or 1) of ``value``."""
    if bit < 0:
        raise ValueError(f"bit index must be non-negative, got {bit}")
    return (value >> bit) & 1


def bit_set(value: int, bit: int, bit_value: int) -> int:
    """Return ``value`` with bit ``bit`` forced to ``bit_value``."""
    if bit < 0:
        raise ValueError(f"bit index must be non-negative, got {bit}")
    if bit_value not in (0, 1):
        raise ValueError(f"bit value must be 0 or 1, got {bit_value}")
    mask = 1 << bit
    if bit_value:
        return value | mask
    return value & ~mask


def bit_flip(value: int, bit: int) -> int:
    """Return ``value`` with bit ``bit`` inverted (the transient bit-flip)."""
    if bit < 0:
        raise ValueError(f"bit index must be non-negative, got {bit}")
    return value ^ (1 << bit)


def popcount(value: int) -> int:
    """Number of set bits in ``value``."""
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    return bin(value).count("1")


#: Parity of every byte value — the cache model computes one parity bit
#: per stored word on every fill and every hit, so this is one of the
#: hottest scalar helpers in the simulator. (``int.bit_count`` would be
#: the obvious tool but the support floor is Python 3.9.)
_BYTE_PARITY = bytes(bin(b).count("1") & 1 for b in range(256))
#: Parity of every 16-bit value, so a 32-bit word folds in two lookups.
#: Row ``hi`` of the table is the byte table itself when ``hi`` has even
#: parity and its complement when odd; joining 256 prebuilt rows keeps
#: import cost far below a per-entry loop over 65,536 values.
_PARITY_ROWS = (_BYTE_PARITY, bytes(1 - p for p in _BYTE_PARITY))
_WORD16_PARITY = b"".join(_PARITY_ROWS[p] for p in _BYTE_PARITY)


def parity(value: int) -> int:
    """Even-parity bit of ``value`` (1 if the popcount is odd).

    This matches the convention used by the THOR-lite cache arrays: the
    stored parity bit makes the total popcount of (word, parity) even, so a
    single bit flip anywhere in the pair is detectable.
    """
    if 0 <= value <= 0xFFFFFFFF:
        # Fold the two halves of a word — XOR preserves parity.
        table = _WORD16_PARITY
        return table[value & 0xFFFF] ^ table[value >> 16]
    return popcount(value) & 1


def mask(width: int) -> int:
    """All-ones mask of ``width`` bits."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def sign_extend(value: int, width: int) -> int:
    """Interpret the low ``width`` bits of ``value`` as two's complement."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    value &= mask(width)
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def to_unsigned(value: int, width: int = 32) -> int:
    """Wrap a (possibly negative) integer into ``width`` unsigned bits."""
    return value & mask(width)


def to_signed(value: int, width: int = 32) -> int:
    """Inverse of :func:`to_unsigned`."""
    return sign_extend(value, width)
