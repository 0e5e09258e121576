"""Exact linear algebra over GF(2) with int-bitmask rows.

Words and matrix rows are stored as Python ints (bit j = position j), which
keeps XOR-heavy group enumeration cheap.  All public interfaces are
positional: callers see sequences of 0/1 bits, never the packing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


class SingularMatrixError(ValueError):
    """Raised when a matrix has no GF(2) inverse."""


def bits_to_mask(bits: Sequence[int]) -> int:
    """Pack a 0/1 sequence into an int, bit j = bits[j]."""
    mask = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {j} is {b!r}, expected 0 or 1")
        mask |= b << j
    return mask


def mask_to_bits(mask: int, width: int) -> tuple[int, ...]:
    """Unpack an int into a 0/1 tuple of the given width."""
    return tuple((mask >> j) & 1 for j in range(width))


def popcount(mask: int) -> int:
    return mask.bit_count()


def gf2_rank(rows: Iterable[int]) -> int:
    """Row rank over GF(2) via elimination on int bitmasks."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def span_enumerate(generators: Sequence[int]) -> list[int]:
    """All nonzero GF(2) combinations of the generators.

    Dependent generators collapse: the result always has 2^rank - 1
    distinct words, sorted ascending for determinism.
    """
    seen = {0}
    for g in generators:
        seen |= {w ^ g for w in seen}
    seen.discard(0)
    return sorted(seen)


@dataclass(frozen=True)
class BitMatrix:
    """Dense GF(2) matrix with labeled axes.

    Rows are packed ints; `width` is the column count.  Labels travel with
    the matrix so defining words can be rendered as factor-letter strings.
    """

    rows: tuple[int, ...]
    width: int
    row_labels: tuple[str, ...] = field(default=())
    col_labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.row_labels and len(self.row_labels) != len(self.rows):
            raise ValueError("row_labels length mismatch")
        if self.col_labels and len(self.col_labels) != self.width:
            raise ValueError("col_labels length mismatch")

    @classmethod
    def from_bits(
        cls,
        rows: Sequence[Sequence[int]],
        row_labels: Sequence[str] = (),
        col_labels: Sequence[str] = (),
    ) -> "BitMatrix":
        if not rows:
            raise ValueError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(
            tuple(bits_to_mask(r) for r in rows),
            width,
            tuple(row_labels),
            tuple(col_labels),
        )

    @classmethod
    def identity(cls, n: int, labels: Sequence[str] = ()) -> "BitMatrix":
        return cls(tuple(1 << i for i in range(n)), n, tuple(labels), tuple(labels))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def bit(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        cols = []
        for j in range(self.width):
            col = 0
            for i, r in enumerate(self.rows):
                col |= ((r >> j) & 1) << i
            cols.append(col)
        return BitMatrix(tuple(cols), self.n_rows, self.col_labels, self.row_labels)

    def rank(self) -> int:
        return gf2_rank(self.rows)

    def mul_vector(self, mask: int) -> int:
        """Right-multiply by a column vector given as a bitmask."""
        out = 0
        for i, r in enumerate(self.rows):
            out |= (popcount(r & mask) & 1) << i
        return out

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.width != other.n_rows:
            raise ValueError("dimension mismatch")
        ot = other.transpose()
        rows = tuple(ot.mul_vector(r) for r in self.rows)
        return BitMatrix(rows, other.width, self.row_labels, other.col_labels)

    def inverse(self) -> "BitMatrix":
        """GF(2) inverse via Gauss-Jordan; labels swap roles."""
        n = self.n_rows
        if n != self.width:
            raise SingularMatrixError("matrix not square")
        work = list(self.rows)
        inv = [1 << i for i in range(n)]
        for col in range(n):
            pivot = next(
                (r for r in range(col, n) if (work[r] >> col) & 1), None
            )
            if pivot is None:
                raise SingularMatrixError("matrix is singular over GF(2)")
            work[col], work[pivot] = work[pivot], work[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            for r in range(n):
                if r != col and (work[r] >> col) & 1:
                    work[r] ^= work[col]
                    inv[r] ^= inv[col]
        return BitMatrix(tuple(inv), n, self.col_labels, self.row_labels)

    def render(self) -> str:
        """0/1 grid with header labels, one row per line."""
        cols = self.col_labels or tuple(str(j) for j in range(self.width))
        rlabels = self.row_labels or tuple(str(i) for i in range(self.n_rows))
        widths = [max(1, len(c)) for c in cols]
        head = "  ".join(c.rjust(w) for c, w in zip(cols, widths))
        lw = max(len(r) for r in rlabels)
        lines = [" " * (lw + 2) + head]
        for lab, row in zip(rlabels, self.rows):
            cells = "  ".join(
                str((row >> j) & 1).rjust(w) for j, w in enumerate(widths)
            )
            lines.append(f"{lab.rjust(lw)}  {cells}")
        return "\n".join(lines)


def word_to_letters(mask: int, labels: Sequence[str]) -> str:
    """Render a word as concatenated factor letters, e.g. 0b10101 -> 'ACE'."""
    if mask == 0:
        return "I"
    return "".join(labels[j] for j in range(len(labels)) if (mask >> j) & 1)
