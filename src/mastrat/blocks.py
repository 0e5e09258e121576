"""Unit-factor posets, orthogonal block structures, and strata.

A unit factor is a partition of the N experimental units; a block structure
is a set of such factors containing the universal factor U (one class) and
the equality factor E (one class per unit).  Strata projectors are computed
by Moebius inversion on the factor poset with exact rational arithmetic;
the numeric eigendecomposition route survives only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

INF = math.inf

_BLOCK_NAMES = ("B", "T", "S", "P", "Q")


class ParseError(ValueError):
    """Structure expression does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonPowerOfTwoError(ValueError):
    """A unit count is not a power of two in 2-level mode."""


class NotOrthogonalError(ValueError):
    """Structure fails the orthogonal-block-structure conditions."""


class AmbiguousOrderError(ValueError):
    """Incomparable strata tie and no tiebreak data was supplied."""


def _canonical(classes: Sequence[Hashable]) -> tuple[int, ...]:
    """Relabel classes by first occurrence; equivalence-invariant form."""
    relabel: dict[Hashable, int] = {}
    out = []
    for c in classes:
        if c not in relabel:
            relabel[c] = len(relabel)
        out.append(relabel[c])
    return tuple(out)


@dataclass(frozen=True)
class UnitFactor:
    """A partition of units 0..N-1 into classes 0..n_classes-1."""

    name: str
    classes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", _canonical(self.classes))

    @property
    def n_units(self) -> int:
        return len(self.classes)

    @property
    def n_classes(self) -> int:
        return max(self.classes) + 1

    def class_sizes(self) -> list[int]:
        sizes = [0] * self.n_classes
        for c in self.classes:
            sizes[c] += 1
        return sizes

    def is_uniform(self) -> bool:
        sizes = self.class_sizes()
        return len(set(sizes)) == 1

    def same_partition(self, other: "UnitFactor") -> bool:
        return self.classes == other.classes

    def renamed(self, name: str) -> "UnitFactor":
        return UnitFactor(name, self.classes)


def universal(n_units: int, name: str = "U") -> UnitFactor:
    return UnitFactor(name, (0,) * n_units)


def equality(n_units: int, name: str = "E") -> UnitFactor:
    return UnitFactor(name, tuple(range(n_units)))


def finer_or_equal(f: UnitFactor, g: UnitFactor) -> bool:
    """f <= g in the nesting order: each f-class inside some g-class."""
    seen: dict[int, int] = {}
    for cf, cg in zip(f.classes, g.classes):
        if seen.setdefault(cf, cg) != cg:
            return False
    return True


def inf_factor(f: UnitFactor, g: UnitFactor, name: str = "") -> UnitFactor:
    """Infimum: the common refinement of the two partitions."""
    pairs = list(zip(f.classes, g.classes))
    return UnitFactor(name or f"{f.name}^{g.name}", _canonical(pairs))


def sup_factor(f: UnitFactor, g: UnitFactor, name: str = "") -> UnitFactor:
    """Supremum: join of partitions via connected components."""
    n = f.n_units
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    first_f: dict[int, int] = {}
    first_g: dict[int, int] = {}
    for u in range(n):
        if f.classes[u] in first_f:
            union(first_f[f.classes[u]], u)
        else:
            first_f[f.classes[u]] = u
        if g.classes[u] in first_g:
            union(first_g[g.classes[u]], u)
        else:
            first_g[g.classes[u]] = u
    return UnitFactor(name or f"{f.name}v{g.name}", tuple(find(u) for u in range(n)))


def orthogonal_pair(f: UnitFactor, g: UnitFactor) -> bool:
    """Proportional class frequencies within every sup-class."""
    s = sup_factor(f, g)
    n_ij: dict[tuple[int, int, int], int] = {}
    n_i: dict[tuple[int, int], int] = {}
    n_j: dict[tuple[int, int], int] = {}
    gamma: dict[int, int] = {}
    for u in range(f.n_units):
        key = (s.classes[u], f.classes[u], g.classes[u])
        n_ij[key] = n_ij.get(key, 0) + 1
        n_i[(s.classes[u], f.classes[u])] = n_i.get((s.classes[u], f.classes[u]), 0) + 1
        n_j[(s.classes[u], g.classes[u])] = n_j.get((s.classes[u], g.classes[u]), 0) + 1
        gamma[s.classes[u]] = gamma.get(s.classes[u], 0) + 1
    for (sc, fc, gc), count in n_ij.items():
        if count * gamma[sc] != n_i[(sc, fc)] * n_j[(sc, gc)]:
            return False
    return True


class BlockStructure:
    """An ordered set of unit factors on the same units.

    Factors are kept in criterion order: U first, then decreasing coarseness
    (increasing class count, declaration order breaking ties), E last.
    """

    def __init__(self, factors: Iterable[UnitFactor]):
        factors = list(factors)
        if not factors:
            raise ValueError("empty structure")
        n = factors[0].n_units
        if any(f.n_units != n for f in factors):
            raise ValueError("factors on different unit sets")
        if n == 1:
            # U and E coincide on a single unit; keep one factor for both.
            self.N = 1
            self.factors = (factors[0],)
            self._by_name = {factors[0].name: factors[0]}
            return
        u = [f for f in factors if f.n_classes == 1]
        e = [f for f in factors if f.same_partition(equality(n))]
        if len(u) != 1 or len(e) != 1:
            raise ValueError("structure must contain exactly one U and one E")
        mid = [f for f in factors if f is not u[0] and f is not e[0]]
        order = {f.name: i for i, f in enumerate(factors)}
        mid.sort(key=lambda f: (f.n_classes, order[f.name]))
        self.N = n
        self.factors: tuple[UnitFactor, ...] = tuple([u[0]] + mid + [e[0]])
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate factor names: {names}")
        self._by_name = {f.name: f for f in self.factors}

    def __repr__(self) -> str:
        return f"BlockStructure(N={self.N}, factors={[f.name for f in self.factors]})"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)

    @property
    def U(self) -> UnitFactor:
        return self.factors[0]

    @property
    def E(self) -> UnitFactor:
        return self.factors[-1]

    def factor(self, name: str) -> UnitFactor:
        return self._by_name[name]

    def index(self, name: str) -> int:
        return self.names.index(name)

    def finer(self, a: str, b: str) -> bool:
        """a strictly finer than b."""
        fa, fb = self._by_name[a], self._by_name[b]
        return not fa.same_partition(fb) and finer_or_equal(fa, fb)

    def leq(self, a: str, b: str) -> bool:
        return finer_or_equal(self._by_name[a], self._by_name[b])

    def sup(self, a: str, b: str) -> UnitFactor:
        s = sup_factor(self._by_name[a], self._by_name[b])
        return self._member_like(s) or s

    def inf(self, a: str, b: str) -> UnitFactor:
        s = inf_factor(self._by_name[a], self._by_name[b])
        return self._member_like(s) or s

    def inf_name(self, names: Iterable[str]) -> str:
        """Infimum of a set of member factors; empty set gives U."""
        acc = self.U
        for nm in names:
            acc = inf_factor(acc, self._by_name[nm])
        member = self._member_like(acc)
        if member is None:
            raise NotOrthogonalError("infimum not a member factor")
        return member.name

    def _member_like(self, f: UnitFactor) -> UnitFactor | None:
        for g in self.factors:
            if g.same_partition(f):
                return g
        return None

    # -- construction -------------------------------------------------

    @staticmethod
    def unstructured(n: int) -> "BlockStructure":
        return BlockStructure([universal(n), equality(n)])

    @staticmethod
    def from_class_table(
        table: Sequence[Sequence[int]], names: Sequence[str]
    ) -> "BlockStructure":
        """Build from per-unit class labels; U and E are added if missing."""
        n = len(table)
        factors = [
            UnitFactor(name, tuple(row[j] for row in table))
            for j, name in enumerate(names)
        ]
        have = [_canonical(f.classes) for f in factors]
        if _canonical(universal(n).classes) not in have:
            factors.insert(0, universal(n))
        if _canonical(equality(n).classes) not in have:
            factors.append(equality(n))
        return BlockStructure(factors)


def cross(b1: BlockStructure, b2: BlockStructure) -> BlockStructure:
    """Definition-1 crossing; unit (w1, w2) is indexed w1 * N2 + w2."""
    return _combine(b1, b2, nested=False)


def nest(b1: BlockStructure, b2: BlockStructure) -> BlockStructure:
    """Definition-2 nesting b1/b2; same row-major unit indexing."""
    return _combine(b1, b2, nested=True)


def _pair_factor(f1: UnitFactor, f2: UnitFactor, n2: int, name: str) -> UnitFactor:
    classes = []
    for u1 in range(f1.n_units):
        for u2 in range(n2):
            classes.append(f1.classes[u1] * f2.n_classes + f2.classes[u2])
    return UnitFactor(name, tuple(classes))


def _combine(b1: BlockStructure, b2: BlockStructure, nested: bool) -> BlockStructure:
    n2 = b2.N
    u1, e1 = b1.U, b1.E
    u2, e2 = b2.U, b2.E

    pairs: list[tuple[UnitFactor, UnitFactor, str]] = []
    if nested:
        # {F1 x U2 : F1 != E1} u {E1 x F2}
        for f1 in b1.factors:
            if f1.same_partition(e1) and b1.N > 1:
                continue
            pairs.append((f1, u2, f1.name))
        for f2 in b2.factors:
            nm = "@block" if f2.same_partition(u2) else f2.name
            pairs.append((e1, f2, nm))
    else:
        # f2-major order declares the left (row) factors before the right
        # (column) factors, so R precedes C in the criterion numbering.
        for f2 in b2.factors:
            for f1 in b1.factors:
                if f2.same_partition(u2):
                    nm = "R" if f1.same_partition(e1) else f1.name
                elif f1.same_partition(u1):
                    nm = "C" if f2.same_partition(e2) else f2.name
                else:
                    nm = f"{f1.name}*{f2.name}"
                pairs.append((f1, f2, nm))

    total = b1.N * n2
    factors: list[UnitFactor] = []
    names: list[str] = []
    for f1, f2, nm in pairs:
        cand = _pair_factor(f1, f2, n2, nm)
        if any(cand.same_partition(g) for g in factors):
            continue  # trivial sides duplicate partitions
        if cand.n_classes == 1:
            nm = "U"
        elif cand.n_classes == total:
            nm = "E"
        factors.append(cand)
        names.append(nm)
    # Resolve fresh blocking names and collisions deterministically.
    used = {nm for nm in names if nm != "@block"}
    final: list[UnitFactor] = []
    for cand, nm in zip(factors, names):
        if nm == "@block":
            nm = next(
                (b for b in _BLOCK_NAMES if b not in used), f"B{len(used)}"
            )
        elif names.count(nm) > 1 and nm in {f.name for f in final}:
            i = 2
            while f"{nm}{i}" in used:
                i += 1
            nm = f"{nm}{i}"
        used.add(nm)
        final.append(cand.renamed(nm))
    return BlockStructure(final)


def _finalize_names(b: BlockStructure) -> BlockStructure:
    """Canonical chain naming: nesting factors get B, T, S, ... by coarseness."""
    if b.N == 1:
        return b
    mids = list(b.factors[1:-1])
    block_like = [
        f for f in mids if f.name.rstrip("0123456789") in _BLOCK_NAMES
    ]
    keep = [f for f in mids if f not in block_like]
    renamed = []
    pool = [n for n in _BLOCK_NAMES if all(f.name != n for f in keep)]
    for i, f in enumerate(sorted(block_like, key=lambda f: f.n_classes)):
        renamed.append(f.renamed(pool[i] if i < len(pool) else f"B{i}"))
    return BlockStructure([b.U] + keep + renamed + [b.E])


def parse_structure(expr: str, two_level: bool = True) -> BlockStructure:
    """Parse a simple-block-structure expression.

    Grammar: S ::= INT | S "/" S | "(" S "x" S ")", with "/" right-associative
    and crossing always parenthesized.  INT n yields n unstructured units.
    """
    tokens: list[tuple[str, int]] = []
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(expr) and expr[j].isdigit():
                j += 1
            tokens.append((expr[i:j], i))
            i = j
        elif ch in "/()xX×*":
            tokens.append(("x" if ch in "xX×*" else ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    pos = 0

    def peek() -> tuple[str, int] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> tuple[str, int]:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of expression", len(expr))
        tok = tokens[pos]
        if expected is not None and tok[0] != expected:
            raise ParseError(f"expected {expected!r}, found {tok[0]!r}", tok[1])
        pos += 1
        return tok

    def atom() -> BlockStructure:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(expr))
        if tok[0] == "(":
            take("(")
            left = nest_expr()
            take("x")
            right = nest_expr()
            take(")")
            return cross(left, right)
        if tok[0].isdigit():
            take()
            n = int(tok[0])
            if n < 1:
                raise ParseError("unit count must be positive", tok[1])
            if two_level and n & (n - 1):
                raise NonPowerOfTwoError(
                    f"{n} is not a power of 2 (position {tok[1]})"
                )
            return BlockStructure.unstructured(n)
        raise ParseError(f"unexpected token {tok[0]!r}", tok[1])

    def nest_expr() -> BlockStructure:
        left = atom()
        tok = peek()
        if tok is not None and tok[0] == "/":
            take("/")
            return nest(left, nest_expr())  # right-associative
        return left

    result = nest_expr()
    if pos != len(tokens):
        raise ParseError(f"trailing input {tokens[pos][0]!r}", tokens[pos][1])
    return _finalize_names(result)


# -- validation --------------------------------------------------------


def validate_obs(b: BlockStructure) -> list[str]:
    """Check (O.1)-(O.3) directly; returns a list of violations."""
    violations: list[str] = []
    for f in b.factors:
        if not f.is_uniform():
            violations.append(f"factor {f.name} is not uniform")
    for i, f in enumerate(b.factors):
        for g in b.factors[i + 1 :]:
            if f.same_partition(g):
                violations.append(f"factors {f.name} and {g.name} are equivalent")
            if not orthogonal_pair(f, g):
                violations.append(f"factors {f.name} and {g.name} not orthogonal")
            if b._member_like(sup_factor(f, g)) is None:
                violations.append(f"sup({f.name},{g.name}) not in structure")
            if b._member_like(inf_factor(f, g)) is None:
                violations.append(f"inf({f.name},{g.name}) not in structure")
    return violations


# -- strata ------------------------------------------------------------


def _mobius(b: BlockStructure) -> dict[tuple[str, str], int]:
    """Moebius function on the factor poset ordered by refinement."""
    names = b.names
    leq = {(a, c): b.leq(a, c) for a in names for c in names}
    mu: dict[tuple[str, str], int] = {}
    # Visit c finest-first: every h strictly finer than c has more classes,
    # so mu[(a, h)] is already available when c is reached.
    for a in names:
        for c in reversed(names):
            if not leq[(a, c)]:
                continue
            if a == c:
                mu[(a, c)] = 1
            else:
                mu[(a, c)] = -sum(
                    mu[(a, h)]
                    for h in names
                    if leq[(a, h)] and leq[(h, c)] and h != c
                )
    return mu


@dataclass(frozen=True)
class StratumDecomposition:
    """Strata projectors P_{W_F} = sum_{G >= F} mu(F,G) A_G, exact rationals."""

    structure: BlockStructure
    mobius: Mapping[tuple[str, str], int]
    dimensions: tuple[int, ...]

    def averaging_matrix(self, name: str) -> list[list[Fraction]]:
        f = self.structure.factor(name)
        n = self.structure.N
        coef = Fraction(f.n_classes, n)
        return [
            [
                coef if f.classes[u] == f.classes[v] else Fraction(0)
                for v in range(n)
            ]
            for u in range(n)
        ]

    def projector(self, name: str) -> list[list[Fraction]]:
        n = self.structure.N
        p = [[Fraction(0)] * n for _ in range(n)]
        for g in self.structure.names:
            mu = self.mobius.get((name, g))
            if not mu:
                continue
            a = self.averaging_matrix(g)
            for u in range(n):
                row_p, row_a = p[u], a[u]
                for v in range(n):
                    row_p[v] += mu * row_a[v]
        return p

    @property
    def projectors(self) -> list[list[list[Fraction]]]:
        return [self.projector(nm) for nm in self.structure.names]


def strata_projectors(b: BlockStructure) -> StratumDecomposition:
    violations = validate_obs(b)
    if violations:
        raise NotOrthogonalError("; ".join(violations))
    mu = _mobius(b)
    dims = []
    for f in b.names:
        # trace(A_G) = n_G, so dim W_F = sum mu(F,G) n_G
        dims.append(
            sum(
                mu.get((f, g), 0) * b.factor(g).n_classes
                for g in b.names
            )
        )
    return StratumDecomposition(b, mu, tuple(dims))


# -- criteria bookkeeping ----------------------------------------------


def admissible_subsets(b: BlockStructure) -> list[tuple[str, ...]]:
    """Nonempty upward-closed subsets of B \\ {E}; each contains U.

    Ordered by size, then declaration order of members, matching the
    G_1, G_2, ... numbering used in reports.
    """
    names = [f.name for f in b.factors[:-1]]
    idx = {nm: i for i, nm in enumerate(names)}
    out: list[tuple[str, ...]] = []
    for mask in range(1, 1 << len(names)):
        subset = [nm for i, nm in enumerate(names) if (mask >> i) & 1]
        ok = all(
            other in subset
            for nm in subset
            for other in names
            if b.finer(nm, other)
        )
        if ok:
            out.append(tuple(subset))
    out.sort(key=lambda g: (len(g), tuple(idx[nm] for nm in g)))
    return out


def criterion_sequence(
    b: BlockStructure,
    direction: str,
    alias_counts: Mapping[str, int] | None = None,
) -> list[tuple[str, ...]]:
    """Forward/backward ordering of the admissible criterion subsets.

    Forward starts at {U} and adds strata coarsest-first; incomparable
    strata are ordered by their alias-effect counts (more first), then by
    declaration order.  Backward is the reverse path.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    subsets = admissible_subsets(b)
    names = list(b.names)

    def stratum_key(nm: str) -> tuple:
        count = (alias_counts or {}).get(nm, 0)
        return (-count, names.index(nm))

    if alias_counts is None:
        for nm in names[1:-1]:
            for other in names[1:-1]:
                if (
                    nm < other
                    and not b.leq(nm, other)
                    and not b.leq(other, nm)
                    and b.factor(nm).n_classes == b.factor(other).n_classes
                ):
                    raise AmbiguousOrderError(
                        f"incomparable strata {nm}, {other} tie; "
                        "supply alias counts or an explicit criterion list"
                    )
    ordered = sorted(
        subsets, key=lambda g: (len(g), tuple(sorted(stratum_key(nm) for nm in g)))
    )
    if direction == "backward":
        ordered.reverse()
    return ordered


@dataclass(frozen=True)
class VarianceVector:
    """Stratum variances xi_F; infinity encodes fixed unit effects."""

    xi: Mapping[str, Fraction | float]

    def is_feasible(self, b: BlockStructure) -> bool:
        for f in b.names:
            for g in b.names:
                if b.finer(f, g) and not (self.xi[f] <= self.xi[g]):
                    return False
        return True


def stratum_variance(
    b: BlockStructure, sigma2: Mapping[str, Fraction | float | int]
) -> VarianceVector:
    """xi_F = sum_{G <= F} (N / n_G) sigma^2_G, with infinity propagating."""
    xi: dict[str, Fraction | float] = {}
    for f in b.names:
        total: Fraction | float = Fraction(0)
        for g in b.names:
            if not b.leq(g, f):
                continue
            s = sigma2[g]
            if s == INF:
                total = INF
                break
            total += Fraction(b.N, b.factor(g).n_classes) * Fraction(s)
        xi[f] = total
    return VarianceVector(xi)
