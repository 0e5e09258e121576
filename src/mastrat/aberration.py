"""Generalized word counts and aberration criteria.

B_{k,i} is the normalized squared projection of every order-k factorial
effect column onto stratum i.  `compute_Bki_matrix` evaluates it directly
for any +/-1 design; for regular designs it is the oracle of the one fast
route, `search.RegularEvaluator`, which counts the defining words aliased
into each stratum from small dual codes (MacWilliams identity, then
Moebius inversion over the strata) and builds its table with
`table_from_counts`.  All table entries are exact rationals; floats
appear only in rendered reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf
from typing import Mapping, Sequence

import numpy as np

from .blocks import BlockStructure, StratumDecomposition, VarianceVector

MATRIX_MODE_MAX_FACTORS = 16


class DimensionMismatchError(ValueError):
    pass


class InfeasibleXiError(ValueError):
    pass


class NotAdmissibleError(ValueError):
    pass


@dataclass(frozen=True)
class WordlengthTable:
    """B_{k,i} for k = 1..n and stratum i in structure order (U first, E last)."""

    structure: BlockStructure
    n: int
    b: tuple[tuple[Fraction, ...], ...]  # indexed [k-1][stratum]

    @property
    def strata(self) -> tuple[str, ...]:
        return self.structure.names

    def entry(self, k: int, stratum: str) -> Fraction:
        return self.b[k - 1][self.structure.index(stratum)]

    def stratum_vector(self, stratum: str) -> tuple[Fraction, ...]:
        i = self.structure.index(stratum)
        return tuple(row[i] for row in self.b)


def gray_subsets(n: int):
    """Yield (subset_mask, flipped_bit) in Gray-code order, skipping the empty set."""
    prev = 0
    for g in range(1, 1 << n):
        cur = g ^ (g >> 1)
        yield cur, (cur ^ prev).bit_length() - 1
        prev = cur


def compute_Bki_matrix(
    design: Sequence[Sequence[int]] | np.ndarray,
    strata: StratumDecomposition,
) -> WordlengthTable:
    """Projection-based word counts for an arbitrary +/-1 design table.

    Uses u^T P u = sum_G mu(F,G) (n_G/N) sum_c (class sum)^2, iterating
    effect subsets in Gray order so each column product is one multiply.
    """
    d = np.asarray(design, dtype=np.int64)
    if d.ndim != 2:
        raise DimensionMismatchError("design must be a 2-d table")
    if not np.all(np.abs(d) == 1):
        raise DimensionMismatchError("design entries must be +/-1")
    b = strata.structure
    n_units, n = d.shape
    if n_units != b.N:
        raise DimensionMismatchError(
            f"design has {n_units} runs but structure has {b.N} units"
        )
    if n > MATRIX_MODE_MAX_FACTORS:
        raise DimensionMismatchError(
            f"matrix mode supports at most {MATRIX_MODE_MAX_FACTORS} factors"
        )
    # One-hot class membership per factor: class sums are a single matmul.
    members = {
        nm: _membership(b.factor(nm).classes, b.factor(nm).n_classes)
        for nm in b.names
    }
    # T[k][nm] accumulates sum over |S| = k of sum_c (class sum of u_S)^2.
    totals = {nm: [0] * (n + 1) for nm in b.names}
    u = np.ones(n_units, dtype=np.int64)
    for mask, bit in gray_subsets(n):
        u = u * d[:, bit]
        k = mask.bit_count()
        for nm, m in members.items():
            sums = m @ u
            totals[nm][k] += int(sums @ sums)
    rows = []
    for k in range(1, n + 1):
        row = []
        for f in b.names:
            num = 0
            for g in b.names:
                mu = strata.mobius.get((f, g))
                if mu:
                    num += mu * b.factor(g).n_classes * totals[g][k]
            row.append(Fraction(num, b.N * b.N))
        rows.append(tuple(row))
    return WordlengthTable(b, n, tuple(rows))


def _membership(classes: Sequence[int], n_classes: int) -> np.ndarray:
    m = np.zeros((n_classes, len(classes)), dtype=np.int64)
    for u, c in enumerate(classes):
        m[c, u] = 1
    return m


def table_from_counts(
    structure: BlockStructure, n: int, counts: Mapping[str, Sequence[int]]
) -> WordlengthTable:
    """Regular-design table from per-stratum word-length histograms.

    `counts[stratum][k-1]` is the number of length-k defining words whose
    unit alias lies in that stratum; the E column is the complement so that
    every length-k effect is counted exactly once.
    """
    rows = []
    for k in range(1, n + 1):
        row = []
        for nm in structure.names[:-1]:
            hist = counts.get(nm)
            row.append(Fraction(hist[k - 1] if hist else 0))
        row.append(Fraction(comb(n, k)) - sum(row))
        rows.append(tuple(row))
    return WordlengthTable(structure, n, tuple(rows))


def compute_W(
    table: WordlengthTable, xi: VarianceVector
) -> tuple[Fraction, ...]:
    """Variance-weighted wordlength pattern; 1/infinity is zero."""
    b = table.structure
    if not xi.is_feasible(b):
        raise InfeasibleXiError("xi violates the nesting order")
    xi_e = xi.xi[b.names[-1]]
    if xi_e == inf or xi_e <= 0:
        raise InfeasibleXiError("xi for the finest stratum must be finite positive")
    inv_e = 1 / Fraction(xi_e)
    out = [Fraction(0)] * table.n
    for nm in b.names[:-1]:
        x = xi.xi[nm]
        weight = inv_e - (0 if x == inf else 1 / Fraction(x))
        if weight == 0:
            continue
        vec = table.stratum_vector(nm)
        for k in range(table.n):
            out[k] += weight * vec[k]
    return tuple(out)


def compute_WG(table: WordlengthTable, g: Sequence[str]) -> tuple[Fraction, ...]:
    """Criterion segment for subset G: entrywise sum of B rows over its strata."""
    b = table.structure
    gset = set(g)
    if b.names[-1] in gset:
        raise NotAdmissibleError("G may not contain the finest stratum")
    for nm in gset:
        if nm not in b.names:
            raise NotAdmissibleError(f"unknown stratum {nm!r}")
        for other in b.names[:-1]:
            if b.finer(nm, other) and other not in gset:
                raise NotAdmissibleError(
                    f"G not upward-closed: {nm} in G but not {other}"
                )
    out = [Fraction(0)] * table.n
    for nm in gset:
        vec = table.stratum_vector(nm)
        for k in range(table.n):
            out[k] += vec[k]
    return tuple(out)


def criterion_vector(
    table: WordlengthTable, sequence: Sequence[Sequence[str]]
) -> tuple[Fraction, ...]:
    """Concatenate W_G segments in sequence order for lexicographic ranking."""
    out: list[Fraction] = []
    for g in sequence:
        out.extend(compute_WG(table, g))
    return tuple(out)


def format_value(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    f = float(v)
    text = f"{f:.5f}".rstrip("0")
    return text + "0" if text.endswith(".") else text


def format_pattern(values: Sequence[Fraction]) -> str:
    return "{" + ", ".join(format_value(v) for v in values) + "}"


def render_report(
    table: WordlengthTable, subsets: Sequence[Sequence[str]]
) -> str:
    """One 'G<i>-MA {...}' line per criterion subset."""
    lines = []
    for i, g in enumerate(subsets, start=1):
        lines.append(f"G{i}-MA {format_pattern(compute_WG(table, g))}")
    return "\n".join(lines)
