"""Design-key templates, pools, and generator sets over GF(2).

A design key ties treatment factors to unit pseudo-factors.  Templates fix
the identity scaffolding and leave free (*) positions; pool matrices list
the admissible fill-ins.  Generator sets are the templates' free positions
filled in, from which designs are expanded.

Every template key is unit lower triangular: each stratum generator owns
one key column and stars only earlier columns, so every fill gives an
invertible key.  `KeyTemplate` checks this once, at construction.  The
search inverts keys in batches by forward substitution (in
`search.RegularEvaluator`); `GeneratorSet`'s Gauss-Jordan inverse serves
design expansion and is the independent route the tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .blocks import BlockStructure
from .gf2 import BitMatrix, SingularMatrixError, word_to_letters

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class InfeasibleTemplateError(ValueError):
    """Stratum sizes are incompatible with the requested n and l0."""


class ExhaustedRetriesError(RuntimeError):
    """A distinct-within-stratum draw ran out of pool rows."""


class SingularKeyError(ValueError):
    """Assembled design key is not invertible."""


@dataclass(frozen=True)
class GeneratorSlot:
    """One free generator position of a template.

    role: 'stratum' (an F_i-generator row, alias = own pseudo-column),
    'u' (a treatment generator defining one added factor), or
    'colblock' (strip-plot column blocking word, consumed by the shared
    U-generator rather than forming a key row of its own).
    """

    role: str
    stratum: str
    pool_key: str
    star_positions: tuple[int, ...]
    fixed_mask: int
    column: int = -1  # pseudo-column index for 'stratum' slots
    added_factor: int = -1  # factor index for 'u' slots

    @property
    def width(self) -> int:
        return len(self.star_positions)

    def word(self, fill: int) -> int:
        mask = self.fixed_mask
        for j, pos in enumerate(self.star_positions):
            if (fill >> j) & 1:
                mask |= 1 << pos
        return mask


@dataclass(frozen=True)
class PoolMatrix:
    """Admissible fill-ins for the free positions of one slot family."""

    pool_key: str
    width: int
    rows: tuple[int, ...]
    reduced: bool

    def __post_init__(self) -> None:
        if len(set(self.rows)) != len(self.rows):
            raise ValueError("pool rows must be distinct")


@dataclass(frozen=True)
class KeyTemplate:
    """Key scaffolding for one block structure: columns, slots, coordinates."""

    structure: BlockStructure
    n: int
    l0: int
    kind: str  # 'chain' or 'strip'
    factor_names: tuple[str, ...]
    basic_factors: tuple[int, ...]  # factor index per key column
    column_owner: tuple[str, ...]  # owning unit factor per key column
    column_coords: tuple[tuple[int, ...], ...]  # per unit: 0/1 per column
    slots: tuple[GeneratorSlot, ...]
    # strip-plot bookkeeping: (row fill slot, col fill slot, added factor)
    shared_u: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        # Each stratum generator owns a distinct key column and stars only
        # earlier ones, so the key is unit lower triangular for every fill.
        col_of = {f: j for j, f in enumerate(self.basic_factors)}
        owned: set[int] = set()
        for slot in self.slots:
            if slot.role != "stratum":
                continue
            c = slot.column
            if (
                c in owned
                or not 0 <= c < self.n_basic
                or slot.fixed_mask != 1 << self.basic_factors[c]
                or any(col_of.get(p, c) >= c for p in slot.star_positions)
            ):
                raise InfeasibleTemplateError(
                    f"stratum slot on column {c} breaks the triangular key"
                )
            owned.add(c)

    @property
    def n_basic(self) -> int:
        return len(self.basic_factors)

    @cached_property
    def stratum_alias_counts(self) -> dict[str, int]:
        """Treatment generators whose aliases land in each stratum (tiebreaks)."""
        counts: dict[str, int] = {}
        for slot in self.slots:
            if slot.role == "u":
                owner = self.column_owner[
                    self.basic_factors.index(slot.star_positions[0])
                    if slot.star_positions
                    else 0
                ]
                counts[owner] = counts.get(owner, 0) + 1
        return counts

    @cached_property
    def pool_slots(self) -> dict[str, tuple[int, ...]]:
        """Slot indices per pool key, pools in order of their first slot."""
        out: dict[str, tuple[int, ...]] = {}
        for i, s in enumerate(self.slots):
            out[s.pool_key] = out.get(s.pool_key, ()) + (i,)
        return out


def _class_local_bits(
    structure: BlockStructure, owner: str, width: int
) -> list[tuple[int, ...]]:
    """Per-unit bits of the class index local to the parent grouping."""
    f = structure.factor(owner)
    bits = []
    for u in range(structure.N):
        local = f.classes[u] % (1 << width)
        bits.append(tuple((local >> j) & 1 for j in range(width)))
    return bits


def _equality_local_bits(
    structure: BlockStructure, parent: str, width: int
) -> list[tuple[int, ...]]:
    """Bits of each unit's rank within its finest-stratum class."""
    f = structure.factor(parent)
    counters: dict[int, int] = {}
    bits = []
    for u in range(structure.N):
        r = counters.get(f.classes[u], 0)
        counters[f.classes[u]] = r + 1
        bits.append(tuple((r >> j) & 1 for j in range(width)))
    return bits


def _log2_exact(x: int, what: str) -> int:
    l = x.bit_length() - 1
    if x <= 0 or (1 << l) != x:
        raise InfeasibleTemplateError(f"{what} = {x} is not a power of 2")
    return l


def chain_template(b: BlockStructure, n: int, l0: int) -> KeyTemplate:
    """Template for a nesting chain U > F_1 > ... > F_{m-1} > E."""
    names = b.names
    for i in range(len(names) - 1):
        if not b.leq(names[i + 1], names[i]):
            raise InfeasibleTemplateError("structure is not a nesting chain")
    n_basic = _log2_exact(b.N, "unit count")
    if n - l0 != n_basic:
        raise InfeasibleTemplateError(
            f"n - l0 = {n - l0} but the structure needs {n_basic} basic factors"
        )
    if l0 < 0 or n > len(LETTERS):
        raise InfeasibleTemplateError("unsupported n or l0")
    mids = names[1:-1]
    l_by: dict[str, int] = {}
    prev = 1
    for nm in mids:
        nc = b.factor(nm).n_classes
        l_by[nm] = _log2_exact(nc, f"n_{nm}") - _log2_exact(prev, "prev")
        if l_by[nm] <= 0:
            raise InfeasibleTemplateError(f"stratum {nm} adds no pseudo-factors")
        prev = nc
    l_e = n_basic - sum(l_by.values())
    if l_e < 0:
        raise InfeasibleTemplateError("stratum sizes exceed the unit count")

    # Columns run finest stratum first: E pseudo-factors, then mid strata
    # from finest to coarsest, so each stratum's generators may star every
    # strictly finer column.
    mids_cols = tuple(reversed(mids))
    owners: list[str] = ["E"] * l_e
    for nm in mids_cols:
        owners.extend([nm] * l_by[nm])
    factor_names = tuple(LETTERS[:n])
    basic = tuple(range(n_basic))

    coords_per_unit: list[list[int]] = [[] for _ in range(b.N)]
    finest_mid = mids[-1] if mids else None
    e_bits = (
        _equality_local_bits(b, finest_mid, l_e)
        if finest_mid
        else _class_local_bits(b, "E", l_e)
    )
    for u in range(b.N):
        coords_per_unit[u].extend(e_bits[u])
    for nm in mids_cols:
        bits = _class_local_bits(b, nm, l_by[nm])
        for u in range(b.N):
            coords_per_unit[u].extend(bits[u])

    slots: list[GeneratorSlot] = []
    col = l_e
    star_base = list(range(l_e))
    for nm in mids_cols:
        for _ in range(l_by[nm]):
            slots.append(
                GeneratorSlot(
                    role="stratum",
                    stratum=nm,
                    pool_key=nm,
                    star_positions=tuple(star_base),
                    fixed_mask=1 << col,
                    column=col,
                )
            )
            col += 1
        star_base.extend(range(col - l_by[nm], col))
    for j in range(l0):
        slots.append(
            GeneratorSlot(
                role="u",
                stratum="U",
                pool_key="U",
                star_positions=tuple(range(n_basic)),
                fixed_mask=1 << (n_basic + j),
                added_factor=n_basic + j,
            )
        )
    return KeyTemplate(
        structure=b,
        n=n,
        l0=l0,
        kind="chain",
        factor_names=factor_names,
        basic_factors=basic,
        column_owner=tuple(owners),
        column_coords=tuple(tuple(c) for c in coords_per_unit),
        slots=tuple(slots),
    )


def strip_template(
    b: BlockStructure, n1: int, n2: int
) -> KeyTemplate:
    """Template for a blocked strip-plot 2^l1/(2^(r-l1) x 2^(c-l1)).

    Row treatment factors take the first n1 letters, column factors the
    rest.  The l1 shared treatment generators are words XY built from the
    row and column blocking words (a product of one row word and one column word), so they are derived from
    the blocking fills rather than searched independently.
    """
    names = set(b.names)
    if names != {"U", "B", "R", "C", "E"}:
        raise InfeasibleTemplateError(
            "strip template expects factors {U, B, R, C, E}"
        )
    n = n1 + n2
    l1 = _log2_exact(b.factor("B").n_classes, "n_B")
    rp = _log2_exact(b.factor("R").n_classes, "n_R") - l1
    cp = _log2_exact(b.factor("C").n_classes, "n_C") - l1
    if rp <= 0 or cp <= 0:
        raise InfeasibleTemplateError("row/column strata too coarse")
    l0r = n1 - (rp + l1)
    l0c = n2 - (cp + l1)
    if l0r < 0 or l0c < 0:
        raise InfeasibleTemplateError(
            f"need n1 >= {rp + l1} row and n2 >= {cp + l1} column factors"
        )
    if n > len(LETTERS):
        raise InfeasibleTemplateError("too many factors")

    # Factor layout: rows = basics, block extras, added; columns likewise
    # with the shared added factors between column basics and column added.
    row_basic = list(range(rp))
    row_extra = list(range(rp, rp + l1))
    row_added = list(range(rp + l1, n1))
    col_basic = list(range(n1, n1 + cp))
    col_shared = list(range(n1 + cp, n1 + cp + l1))
    col_added = list(range(n1 + cp + l1, n))

    basic_factors = tuple(row_basic + col_basic + row_extra)
    owners = tuple(["R"] * rp + ["C"] * cp + ["B"] * l1)

    coords_per_unit: list[list[int]] = [[] for _ in range(b.N)]
    for bits in (
        _class_local_bits(b, "R", rp),
        _class_local_bits(b, "C", cp),
        _class_local_bits(b, "B", l1),
    ):
        for u in range(b.N):
            coords_per_unit[u].extend(bits[u])

    slots: list[GeneratorSlot] = []
    shared: list[tuple[int, int, int]] = []
    for k in range(l1):
        slots.append(
            GeneratorSlot(
                role="stratum",
                stratum="B",
                pool_key="B",
                star_positions=tuple(row_basic),
                fixed_mask=1 << row_extra[k],
                column=rp + cp + k,
            )
        )
    for k in range(l1):
        slots.append(
            GeneratorSlot(
                role="colblock",
                stratum="B",
                pool_key="Bc",
                star_positions=tuple(col_basic),
                fixed_mask=1 << col_shared[k],
            )
        )
        shared.append((k, l1 + k, col_shared[k]))
    for j, f in enumerate(row_added):
        slots.append(
            GeneratorSlot(
                role="u",
                stratum="U",
                pool_key="Ur",
                star_positions=tuple(row_basic + row_extra),
                fixed_mask=1 << f,
                added_factor=f,
            )
        )
    for j, f in enumerate(col_added):
        slots.append(
            GeneratorSlot(
                role="u",
                stratum="U",
                pool_key="Uc",
                star_positions=tuple(col_basic + col_shared),
                fixed_mask=1 << f,
                added_factor=f,
            )
        )
    return KeyTemplate(
        structure=b,
        n=n,
        l0=l0r + l0c + l1,
        kind="strip",
        factor_names=tuple(LETTERS[:n]),
        basic_factors=basic_factors,
        column_owner=owners,
        column_coords=tuple(tuple(c) for c in coords_per_unit),
        slots=tuple(slots),
        shared_u=tuple(shared),
    )


def template_for(
    b: BlockStructure,
    n: int,
    l0: int,
    factor_split: Mapping[str, int] | None = None,
) -> KeyTemplate:
    """Pick the template matching the structure's shape."""
    names = b.names
    is_chain = all(
        b.leq(names[i + 1], names[i]) for i in range(len(names) - 1)
    )
    if is_chain:
        return chain_template(b, n, l0)
    if set(names) == {"U", "B", "R", "C", "E"}:
        if not factor_split:
            raise InfeasibleTemplateError(
                "crossed structures need a factor split (rows=n1, cols=n2)"
            )
        n1 = factor_split.get("rows", factor_split.get("n1"))
        n2 = factor_split.get("cols", factor_split.get("n2"))
        if n1 is None or n2 is None or n1 + n2 != n:
            raise InfeasibleTemplateError("factor split must give rows+cols = n")
        t = strip_template(b, n1, n2)
        if t.l0 != l0:
            raise InfeasibleTemplateError(
                f"structure implies l0 = {t.l0}, got {l0}"
            )
        return t
    raise InfeasibleTemplateError("no template for this structure shape")


def pool_for(template: KeyTemplate, pool_key: str, reduced: bool) -> PoolMatrix:
    """Fill-in pool for one slot family.

    Full pools contain every 0/1 fill.  Reduced pools apply the hierarchy
    rule: treatment pools keep fills with at least two ones (words of
    length >= 3); stratum pools drop the all-zero fill (no main effect
    becomes a pure stratum word).
    """
    idx = template.pool_slots.get(pool_key)
    if not idx:
        raise KeyError(f"template has no slots for pool {pool_key!r}")
    width = template.slots[idx[0]].width
    rows = range(1 << width)
    if reduced:
        if pool_key.startswith("U"):
            keep = [r for r in rows if r.bit_count() >= 2]
        else:
            keep = [r for r in rows if r != 0]
    else:
        keep = list(rows)
    return PoolMatrix(pool_key, width, tuple(keep), reduced)


def default_pools(
    template: KeyTemplate, reduced: bool
) -> dict[str, PoolMatrix]:
    return {k: pool_for(template, k, reduced) for k in template.pool_slots}


@dataclass(frozen=True)
class GeneratorSet:
    """A template with every free position filled: one candidate design key."""

    template: KeyTemplate
    fills: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.fills) != len(self.template.slots):
            raise ValueError("one fill per slot required")

    @cached_property
    def generator_words(self) -> tuple[tuple[str, int, int], ...]:
        """(kind, word, alias_column) per generator, assembly order.

        kind is the stratum name for stratum generators and 'U' for
        treatment generators; alias_column is -1 for treatment words.
        """
        t = self.template
        out: list[tuple[str, int, int]] = []
        for slot, fill in zip(t.slots, self.fills):
            if slot.role == "stratum":
                out.append((slot.stratum, slot.word(fill), slot.column))
        for row_i, col_i, added in t.shared_u:
            word = (
                t.slots[row_i].word(self.fills[row_i])
                ^ t.slots[col_i].word(self.fills[col_i])
            )
            out.append(("U", word, -1))
        for slot, fill in zip(t.slots, self.fills):
            if slot.role == "u":
                out.append(("U", slot.word(fill), -1))
        return tuple(out)

    @cached_property
    def key_inverse_basic(self) -> BitMatrix:
        """Square inverse design key on the basic factors (rows = pseudo-factors)."""
        t = self.template
        nb = t.n_basic
        rows = [0] * nb
        col_names = [t.factor_names[f] for f in t.basic_factors]
        row_names = list(col_names)
        fac_to_col = {f: j for j, f in enumerate(t.basic_factors)}
        for col in range(nb):
            rows[col] = 1 << col  # identity scaffolding
        for kind, word, column in self.generator_words:
            if column < 0:
                continue
            packed = 0
            for f in range(t.n):
                if (word >> f) & 1:
                    packed |= 1 << fac_to_col[f]
            rows[column] = packed
            row_names[column] = f"{kind}{column}"
        m = BitMatrix(tuple(rows), nb, tuple(row_names), tuple(col_names))
        return m

    @cached_property
    def alias_masks(self) -> tuple[int, ...]:
        """Row of the design key per treatment factor (bits over key columns)."""
        t = self.template
        try:
            k_basic = self.key_inverse_basic.inverse()
        except SingularMatrixError as exc:
            raise SingularKeyError(str(exc)) from exc
        masks = [0] * t.n
        for j, f in enumerate(t.basic_factors):
            masks[f] = k_basic.rows[j]
        for kind, word, column in self.generator_words:
            if column >= 0:
                continue
            added = max(
                f for f in range(t.n) if (word >> f) & 1 and f not in t.basic_factors
            )
            alias = 0
            for f in range(t.n):
                if f != added and (word >> f) & 1:
                    alias ^= masks[f]
            masks[added] = alias
        return tuple(masks)

    def is_invertible(self) -> bool:
        try:
            self.alias_masks
        except SingularKeyError:
            return False
        return True

    def word_letters(self, mask: int) -> str:
        return word_to_letters(mask, self.template.factor_names)


def expand_design(gs: GeneratorSet, signed: bool = True) -> np.ndarray:
    """N x n design table via X = K Y in the fixed unit indexing.

    Levels are 0/1, or +/-1 with level -> (-1)^level when signed.
    """
    t = gs.template
    masks = gs.alias_masks  # raises SingularKeyError if K is singular
    coords = np.array(t.column_coords, dtype=np.int64)  # N x n_basic
    key_rows = np.array(
        [[(m >> c) & 1 for c in range(t.n_basic)] for m in masks], dtype=np.int64
    )
    levels = (coords @ key_rows.T) & 1
    if signed:
        return 1 - 2 * levels
    return levels


def design_to_text(
    table: np.ndarray, factor_names: Sequence[str], delimiter: str = ","
) -> str:
    lines = [delimiter.join(factor_names)]
    for row in table:
        lines.append(delimiter.join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def random_generator_set(
    template: KeyTemplate,
    pools: Mapping[str, PoolMatrix],
    rng: np.random.Generator,
    distinct_within_stratum: bool = False,
) -> GeneratorSet:
    """Draw one fill per slot; every fill of a template key is invertible."""
    fills: list[int] = []
    used: dict[str, set[int]] = {}
    for slot in template.slots:
        candidates = pools[slot.pool_key].rows
        if distinct_within_stratum:
            taken = used.setdefault(slot.pool_key, set())
            candidates = tuple(r for r in candidates if r not in taken)
            if not candidates:
                raise ExhaustedRetriesError(
                    f"pool {slot.pool_key!r} has fewer rows than slots"
                )
        fill = int(candidates[rng.integers(len(candidates))])
        if distinct_within_stratum:
            taken.add(fill)
        fills.append(fill)
    return GeneratorSet(template, tuple(fills))


def defining_words_text(gs: GeneratorSet) -> str:
    """Human-readable generator summary, letters per the factor order."""
    lines = []
    for kind, word, column in gs.generator_words:
        label = f"{kind}-generator" if kind != "U" else "U-generator"
        lines.append(f"{label}: {gs.word_letters(word)}")
    return "\n".join(lines)


def check_pool_widths(
    template: KeyTemplate, pools: Mapping[str, PoolMatrix]
) -> None:
    for key, idx in template.pool_slots.items():
        pool = pools.get(key)
        if pool is None:
            raise KeyError(f"missing pool {key!r}")
        width = template.slots[idx[0]].width
        if pool.width != width:
            raise ValueError(
                f"pool {key!r} width {pool.width} != slot width {width}"
            )


def letters_for(n: int) -> tuple[str, ...]:
    if n > len(LETTERS):
        raise ValueError("too many factors for letter labels")
    return tuple(LETTERS[:n])
