"""GF(2) linear algebra on int bitmasks (bit i = coordinate i)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def bits_of(v: int) -> List[int]:
    """Indices of set bits, ascending."""
    out = []
    i = 0
    while v:
        if v & 1:
            out.append(i)
        v >>= 1
        i += 1
    return out


def parse_bitstring(s: str) -> int:
    """Little-endian bitstring: character at index i is bit i."""
    v = 0
    for i, ch in enumerate(s):
        if ch == "1":
            v |= 1 << i
        elif ch != "0":
            raise ValueError(f"bad bitstring character {ch!r}")
    return v


def format_bitstring(v: int, width: int) -> str:
    return "".join("1" if (v >> i) & 1 else "0" for i in range(width))


class Gf2Span:
    """Incremental span of GF(2) vectors with coefficient recovery.

    Each inserted vector gets the next coefficient slot; `reduce` returns
    the residual together with the combination mask over inserted vectors.
    """

    def __init__(self) -> None:
        self._rows: List[Tuple[int, int, int]] = []  # (pivot, row, combo)
        self._count = 0

    def reduce(self, v: int) -> Tuple[int, int]:
        combo = 0
        for pivot, row, rcombo in self._rows:
            if (v >> pivot) & 1:
                v ^= row
                combo ^= rcombo
        return v, combo

    def add(self, v: int) -> bool:
        """Insert v; returns False if v was already in the span."""
        slot = self._count
        self._count += 1
        residual, combo = self.reduce(v)
        if residual == 0:
            return False
        pivot = residual.bit_length() - 1
        self._rows.append((pivot, residual, combo | (1 << slot)))
        return True

    def solve(self, v: int) -> Optional[int]:
        """Combination mask over inserted vectors producing v, or None."""
        residual, combo = self.reduce(v)
        if residual != 0:
            return None
        return combo

    @property
    def rank(self) -> int:
        return len(self._rows)


def gf2_rank(vectors) -> int:
    span = Gf2Span()
    for v in vectors:
        span.add(v)
    return span.rank


def apply_linear(images: Sequence[int], v: int) -> int:
    """Apply the map sending basis vector i to images[i]."""
    out = 0
    for i in bits_of(v):
        out ^= images[i]
    return out


def complete_basis(vectors: List[int], dim: int) -> List[int]:
    """Standard basis vectors extending `vectors` to all of F2^dim.

    Greedy on lowest coordinate index; the input must be independent.
    """
    span = Gf2Span()
    for v in vectors:
        if not span.add(v):
            raise ValueError("input vectors are dependent")
    extra = []
    for i in range(dim):
        if span.add(1 << i):
            extra.append(1 << i)
    return extra
