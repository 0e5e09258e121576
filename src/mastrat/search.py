"""Swarm search for minimum-aberration multi-stratum designs.

One discrete particle-swarm (SIB-style) loop serves both search spaces:
particles are generator fills for regular designs or unit-to-run
assignments for nonregular designs.  Each iteration MIXes every particle
toward the global best, its local best, and fresh pool draws, then MOVEs
it to the best of candidate / current / local best, with a random
perturbation to escape stagnation; the candidates are scored in one
batch and the perturbed positions in a second.  `RegularEvaluator.counts`
takes one key or a batch, and inverts each unit lower triangular key by
forward substitution.  The search runs on one thread; parallel runs are
independent seeds in separate processes.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod
from typing import Callable, Mapping, Sequence

import numpy as np

from .aberration import WordlengthTable, compute_Bki_matrix, table_from_counts
from .blocks import BlockStructure, strata_projectors
from .keys import KeyTemplate, PoolMatrix, check_pool_widths, random_generator_set


class InvalidQError(ValueError):
    pass


class EmptyCandidateSetError(RuntimeError):
    """All addition candidates are excluded by the constraints."""


class SpaceTooLargeError(ValueError):
    """Exhaustive enumeration refused: search space above the cap."""


@dataclass(frozen=True)
class QVector:
    """Substitution counts toward GB, LB, and fresh draws.

    Each field is a scalar total or a per-pool mapping (regular mode).
    """

    q_gb: int | Mapping[str, int]
    q_lb: int | Mapping[str, int]
    q_new: int | Mapping[str, int]

    def totals(self) -> tuple[int, int, int]:
        def tot(v):
            return v if isinstance(v, int) else sum(v.values())

        return tot(self.q_gb), tot(self.q_lb), tot(self.q_new)

    def validate(self, slot_count: int | None = None) -> None:
        gb, lb, new = self.totals()
        if min(gb, lb, new) < 0:
            raise InvalidQError("q values must be nonnegative")
        if slot_count is not None and gb + lb + new > slot_count:
            raise InvalidQError(
                f"q total {gb + lb + new} exceeds the {slot_count} positions"
            )
        if not (new >= gb >= lb):
            warnings.warn(
                "suggested ordering q_new >= q_gb >= q_lb not met",
                stacklevel=2,
            )

    def per_pool(
        self, template: KeyTemplate, rng: np.random.Generator
    ) -> dict[str, tuple[int, int, int]]:
        """Resolve to per-pool (gb, lb, new) counts, bounded by slot counts."""
        sizes = {k: len(idx) for k, idx in template.pool_slots.items()}
        out = {k: [0, 0, 0] for k in sizes}
        for j, q in enumerate((self.q_gb, self.q_lb, self.q_new)):
            if isinstance(q, int):
                # Scalar totals are spread over randomly chosen free positions.
                free = [k for k, v in out.items() for _ in range(sizes[k] - sum(v))]
                take = min(q, len(free))
                for k in rng.choice(len(free), size=take, replace=False) if take else []:
                    out[free[int(k)]][j] += 1
            else:
                for k, v in q.items():
                    if k not in sizes:
                        raise InvalidQError(f"unknown pool {k!r} in q")
                    if v > sizes[k]:
                        raise InvalidQError(
                            f"q for pool {k!r} exceeds its {sizes[k]} positions"
                        )
                    out[k][j] = v
        return {k: tuple(v) for k, v in out.items()}


# ---------------------------------------------------------------------
# Regular designs (Algorithm 3)
# ---------------------------------------------------------------------


def krawtchouk(n: int) -> np.ndarray:
    """(n+1, n+1) matrix K[w, k] = K_k(w) = sum_j (-1)^j C(w, j) C(n-w, k-j).

    K_k(w) is the sum of (-1)^|S & x| over the order-k effects S of n
    factors, for any x of weight w.
    """
    return np.array([np.convolve(
        [(-1) ** j * comb(w, j) for j in range(w + 1)],
        [comb(n - w, j) for j in range(n - w + 1)],
    ) for w in range(n + 1)])


class RegularEvaluator:
    """Word counts per stratum for generator fills: the one regular route.

    An effect lies in the infimum of the unit factors owning its alias's
    key columns (treatment defining words alias to U), so it lies at or
    above F exactly when its alias avoids the columns whose owners are not
    at or above F.  Those effects form a code whose dual is spanned by one
    n-bit word per such column.  `counts` gets each code's weight
    distribution from its dual (at most 2^n_basic words, not 2^n effects)
    by the MacWilliams identity, then splits it into strata by Moebius
    inversion; `value` and `table` are built from it.  `counts` takes one
    fills tuple or a batch of them, and every step runs over the batch.
    `aberration.compute_Bki_matrix` is the independent oracle.
    """

    def __init__(self, template: KeyTemplate, sequence: Sequence[Sequence[str]]):
        self.template = template
        self.sequence = [tuple(g) for g in sequence]
        b, n, t = template.structure, template.n, template
        mu = strata_projectors(b).mobius
        self._mobius = np.array([[mu.get((f, g), 0) for g in b.names] for f in b.names])
        self._kraw = krawtchouk(n)
        # Dual words are indexed by key-column subsets; stratum F sums the
        # 2^|D| of them inside its dropped columns D (owners not >= F).
        self._cols = np.arange(template.n_basic)
        self._subsets = np.arange(1 << template.n_basic)
        kept = np.array([[b.leq(f, o) for o in template.column_owner] for f in b.names])
        inside = self._subsets & (kept @ (1 << self._cols))[:, None]
        self._member = (inside == 0).astype(np.int64)
        self._shift = (~kept).sum(axis=1, keepdims=True)
        self._gmat = np.zeros((len(b.names), len(self.sequence)), dtype=np.int64)
        for j, g in enumerate(self.sequence):
            self._gmat[[b.index(nm) for nm in g], j] = 1
        # Aliases over the key columns: a basic factor starts from its own
        # column, an added factor from 0.  The key is unit lower triangular,
        # so taking stratum generators in column order (forward
        # substitution), then shared strip-plot words, then treatment
        # words, each step XORs the final aliases of the other factors in
        # its generator word: the fixed ones, and the starred ones whose
        # fill bit is set.
        self._alias0 = np.zeros(n, dtype=np.int64)
        self._alias0[list(t.basic_factors)] = 1 << self._cols
        col = {i: s.column for i, s in enumerate(t.slots) if s.role == "stratum"}
        gens = (
            [(t.basic_factors[col[i]], (i,)) for i in sorted(col, key=col.get)]
            + [(f, (r, c)) for r, c, f in t.shared_u]
            + [(s.added_factor, (i,)) for i, s in enumerate(t.slots) if s.role == "u"]
        )
        self._steps, terms = [], []
        for f, idx in gens:
            fixed = [p for i in idx for p in range(n)
                     if t.slots[i].fixed_mask >> p & 1 and p != f]
            stars = [(i, j, p) for i in idx
                     for j, p in enumerate(t.slots[i].star_positions)]
            self._steps.append((f, fixed, slice(len(terms), len(terms) + len(stars)),
                                [p for *_, p in stars]))
            terms += stars
        # Fill bit j of slot i, for every starred term of every step.
        self._slot, self._bit, _ = np.array(terms, dtype=np.intp).reshape(-1, 3).T
        # _parity[x]: the parity of the bits of a key-column subset x.
        self._parity = ((self._subsets[:, None] >> self._cols) & 1).sum(1) & 1
        self._memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    def counts(self, fills: Sequence | np.ndarray) -> np.ndarray:
        """Length-k effect counts per stratum: an (n, n_strata) matrix for
        one fills tuple, an (m, n, n_strata) array for an (m, slots) batch."""
        batch = np.array(fills, dtype=np.int64, ndmin=2)
        on = (batch[:, self._slot] >> self._bit & 1).T
        masks = np.repeat(self._alias0[:, None], len(batch), axis=1)
        for f, fixed, terms, star in self._steps:
            masks[f] ^= np.bitwise_xor.reduce(on[terms] * masks[star], axis=0)
            for p in fixed:
                masks[f] ^= masks[p]
        # Factor f is in the dual word of a column subset when its alias
        # has an odd number of bits in that subset.
        odd = self._parity[masks.T[:, :, None] & self._subsets]
        # |K| <= C(n, k) < 2^n over at most 2^n_basic words, and templates
        # cap n at 26, so every int64 sum stays below 2^52.
        cum = (self._member @ self._kraw[odd.sum(axis=1)]) >> self._shift
        out = (self._mobius @ cum)[..., 1:].swapaxes(1, 2)
        return out if np.ndim(fills) == 2 else out[0]

    def _criteria(self, c: np.ndarray) -> np.ndarray:
        """Per key of a counts batch, the W_G rows of the sequence, concatenated."""
        return (c @ self._gmat).swapaxes(1, 2).reshape(len(c), -1)

    def values(self, batch: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Criteria of fills tuples; one `counts` batch scores the unseen ones."""
        memo = self._memo
        new = list(dict.fromkeys(f for f in batch if f not in memo))
        if new:
            memo.update(zip(new, map(tuple, self._criteria(self.counts(new)).tolist())))
        return [memo[f] for f in batch]

    def value(self, fills: tuple[int, ...]) -> tuple[int, ...]:
        return self.values([fills])[0]

    def table(self, fills: tuple[int, ...]) -> WordlengthTable:
        c, b = self.counts(fills), self.template.structure
        rows = {nm: c[:, i].tolist() for i, nm in enumerate(b.names)}
        return table_from_counts(b, self.template.n, rows)


@dataclass
class Particle:
    """A swarm position with its criterion value and its local best.

    The position is a tuple of generator fills (regular search) or of
    pool runs per slot (nonregular search).
    """

    pos: tuple
    value: tuple
    lb_pos: tuple = ()
    lb_value: tuple = ()

    def __post_init__(self) -> None:
        if not self.lb_pos:
            self.lb_pos, self.lb_value = self.pos, self.value


def mix_regular(
    x: Particle,
    gb: Particle,
    lb: Particle,
    template: KeyTemplate,
    pools: Mapping[str, PoolMatrix],
    q: QVector,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Three-source position swaps: GB fills, LB fills, then fresh draws.

    Returns the candidate position; the swarm scores candidates in batches.
    """
    plan = q.per_pool(template, rng)
    fills = list(x.pos)
    for key, (n_gb, n_lb, n_new) in plan.items():
        idx = template.pool_slots[key]
        total = n_gb + n_lb + n_new
        if total == 0:
            continue
        chosen = rng.choice(len(idx), size=min(total, len(idx)), replace=False)
        positions = [idx[int(i)] for i in chosen]
        for j, pos in enumerate(positions):
            if j < n_gb:
                fills[pos] = gb.pos[pos]
            elif j < n_gb + n_lb:
                fills[pos] = lb.pos[pos]
            else:
                pool = pools[key]
                fills[pos] = int(pool.rows[rng.integers(len(pool.rows))])
    return tuple(fills)


def compare_values(a: Sequence, b: Sequence) -> int:
    if len(a) != len(b):
        raise ValueError("criterion vectors of different length")
    if tuple(a) < tuple(b):
        return -1
    if tuple(a) > tuple(b):
        return 1
    return 0


def move(
    candidate,
    current,
    local_best,
    perturb: Callable[[object], object] | None = None,
):
    """Pick the best of the three; perturb when the candidate trails both.

    Ties prefer the incumbent: current first, then the local best, so a
    particle never drifts on equal criteria.
    """
    c_cur = compare_values(candidate.value, current.value)
    c_lb = compare_values(candidate.value, local_best.value)
    if c_cur > 0 and c_lb > 0 and perturb is not None:
        return perturb(current)
    best = current
    if compare_values(local_best.value, best.value) < 0:
        best = local_best
    if compare_values(candidate.value, best.value) < 0:
        best = candidate
    return best


@dataclass
class SearchResult:
    kind: str
    best: tuple
    value: tuple
    table: WordlengthTable
    report_subsets: list[tuple[str, ...]]
    co_optimal: list[tuple]
    trace: list[tuple[int, tuple]]
    metadata: dict


def _swarm(
    kind: str,
    sequence: Sequence[Sequence[str]],
    S: int,
    T: int,
    q: QVector,
    seed: int,
    *,
    init: Callable[[np.random.Generator], tuple],
    values: Callable[[list[tuple]], list[tuple]],
    mix: Callable[[Particle, Particle, Particle, np.random.Generator], tuple],
    perturb: Callable[[tuple, np.random.Generator], tuple],
    table: Callable[[tuple], WordlengthTable],
    refine: Callable[[Particle], Particle] = lambda p: p,
) -> SearchResult:
    """The SIB loop shared by Algorithms 3 and 4.

    Every particle draws from its own stream spawned from ``seed``, so a
    seeded run is reproducible.  ``values`` scores a list of positions.
    An iteration runs in passes: every particle MIXes a candidate, the
    candidates are scored in one batch, every particle MOVEs (drawing a
    perturbation when its candidate trails), and the perturbed positions
    are scored in a second batch.  The global best is fixed within an
    iteration and scoring draws no random numbers, so each stream sees the
    draws of a particle-by-particle loop.  ``refine`` is applied to each
    new global best before it is adopted.
    """
    start = time.monotonic()
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(S)]
    starts = [init(rng) for rng in streams]
    particles = [Particle(pos, v) for pos, v in zip(starts, values(starts))]
    gb = min(particles, key=lambda p: p.value)
    gb = refine(Particle(gb.pos, gb.value))
    co_optimal: dict[tuple, None] = {gb.pos: None}
    trace: list[tuple[int, tuple]] = [(1, gb.value)]

    for t in range(2, T + 1):
        lbs = [Particle(p.lb_pos, p.lb_value) for p in particles]
        cands = [mix(p, gb, lb, rng) for p, lb, rng in zip(particles, lbs, streams)]
        moved = [
            move(Particle(c, v), p, lb,
                 lambda cur, rng=rng: Particle(perturb(cur.pos, rng), None))
            for c, v, p, lb, rng in zip(cands, values(cands), particles, lbs, streams)
        ]
        fresh = [m for m in moved if m.value is None]  # perturbed, not yet scored
        for m, v in zip(fresh, values([m.pos for m in fresh])):
            m.value = v
        for p, new in zip(particles, moved):
            p.pos, p.value = new.pos, new.value
            if compare_values(p.value, p.lb_value) < 0:
                p.lb_pos, p.lb_value = p.pos, p.value
        best = min(particles, key=lambda p: p.lb_value)
        if compare_values(best.lb_value, gb.value) < 0:
            gb = refine(Particle(best.lb_pos, best.lb_value))
            co_optimal = {gb.pos: None}
        for p in particles:
            if p.lb_value == gb.value:
                co_optimal[p.lb_pos] = None
        trace.append((t, gb.value))

    return SearchResult(
        kind=kind,
        best=gb.pos,
        value=gb.value,
        table=table(gb.pos),
        report_subsets=[tuple(g) for g in sequence],
        co_optimal=list(co_optimal),
        trace=trace,
        metadata={
            "seed": seed,
            "S": S,
            "T": T,
            "q": q.totals(),
            "wall_time": time.monotonic() - start,
        },
    )


def _check_run_args(S: int, T: int, threads: int) -> None:
    if S < 1 or T < 1:
        raise ValueError("S and T must be at least 1")
    if threads != 1:
        raise ValueError(
            "the search runs on one thread; run independent seeds in "
            "separate processes instead"
        )


def run_algorithm3(
    template: KeyTemplate,
    pools: Mapping[str, PoolMatrix],
    sequence: Sequence[Sequence[str]],
    S: int,
    T: int,
    q: QVector,
    seed: int,
    threads: int = 1,
    distinct_within_stratum: bool = False,
    polish: bool = True,
) -> SearchResult:
    """SIB search for regular multi-stratum designs.

    With ``polish`` enabled, every new global best is refined by
    coordinate descent over the generator slots, one batch of pool rows
    per slot, before being adopted.  ``threads`` is accepted only as 1.
    """
    _check_run_args(S, T, threads)
    check_pool_widths(template, pools)
    q.validate(len(template.slots))
    evaluator = RegularEvaluator(template, sequence)

    def polish_best(p: Particle) -> Particle:
        if not polish:
            return p
        fills, value = list(p.pos), p.value
        improved = True
        while improved:
            improved = False
            for pos, slot in enumerate(template.slots):
                rows = pools[slot.pool_key].rows
                vals = evaluator.values(
                    [(*fills[:pos], int(r), *fills[pos + 1:]) for r in rows]
                )
                i = min(range(len(rows)), key=vals.__getitem__)
                if vals[i] < value:
                    value, fills[pos], improved = vals[i], int(rows[i]), True
        return Particle(tuple(fills), value)

    def perturb(pos: tuple, rng: np.random.Generator) -> tuple:
        _, _, n_new = q.totals()
        fills = list(pos)
        take = min(max(n_new, 1), len(fills))
        for i in rng.choice(len(fills), size=take, replace=False):
            pool = pools[template.slots[int(i)].pool_key]
            fills[int(i)] = int(pool.rows[rng.integers(len(pool.rows))])
        return tuple(fills)

    return _swarm(
        "regular", sequence, S, T, q, seed,
        init=lambda rng: random_generator_set(
            template, pools, rng, distinct_within_stratum
        ).fills,
        values=evaluator.values,
        mix=lambda x, gb, lb, rng: mix_regular(x, gb, lb, template, pools, q, rng),
        perturb=perturb,
        table=evaluator.table,
        refine=polish_best,
    )


def oracle_regular(
    template: KeyTemplate,
    pools: Mapping[str, PoolMatrix],
    sequence: Sequence[Sequence[str]],
    cap: int = 10**6,
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Exhaustive minimum over all pool combinations.

    Returns (best fills, best value, number of co-optimal combinations):
    the first minimum in enumeration order, the last slot varying fastest.
    """
    check_pool_widths(template, pools)
    rows = [np.array(pools[s.pool_key].rows, dtype=np.int64) for s in template.slots]
    space = prod(len(r) for r in rows)
    if space > cap:
        raise SpaceTooLargeError(f"search space has {space} combinations")
    evaluator = RegularEvaluator(template, sequence)
    # Each fill is visited once, so nothing is memoised; chunks keep the
    # largest batch array, (keys, 2^n_basic, n + 1) int64, near 256 kB.
    chunk = max(1, (1 << 15) // ((template.n + 1) << template.n_basic))
    best_fills, best_value, ties = None, None, 0
    for first in range(0, space, chunk):
        flat = np.arange(first, min(first + chunk, space))
        fills = np.empty((len(flat), len(rows)), dtype=np.int64)
        for j in reversed(range(len(rows))):
            flat, digit = np.divmod(flat, len(rows[j]))
            fills[:, j] = rows[j][digit]
        v = evaluator._criteria(evaluator.counts(fills))
        at = _lex_ties(v)
        value = tuple(v[at[0]].tolist())
        if best_value is None or value < best_value:
            best_fills, best_value, ties = tuple(fills[at[0]].tolist()), value, len(at)
        elif value == best_value:
            ties += len(at)
    return best_fills, best_value, ties


# ---------------------------------------------------------------------
# Nonregular designs (Algorithm 4)
# ---------------------------------------------------------------------


class NonregularProblem:
    """Assignment-based search space for nonregular designs.

    Each particle assigns one pool row (a treatment combination packed as
    a bitmask, bit=1 meaning level -1) to every search slot.  In direct
    mode a slot is a unit; in crossed mode a slot is one sub-design run
    replicated across a whole class of units (e.g. a column of a
    strip-plot), with the other axis held fixed.

    Word counts come from pairwise run distances: for runs a and b the
    order-k effect columns give sum_{|S|=k} chi_a(S) chi_b(S) =
    K_k(popcount(a ^ b)), so a class's order-k sum of squared effect
    totals (its energy) is K_k summed over the ordered pairs of its runs.
    """

    def __init__(
        self,
        structure: BlockStructure,
        n: int,
        pool: Sequence[int],
        slot_units: Sequence[Sequence[int]] | None = None,
        slot_run: Callable[[int, int], int] | None = None,
        constraints: Sequence[Callable[[int], bool]] = (),
        distinct: bool = False,
        fraction_size: int | None = None,
    ):
        if n > 12:
            # Each greedy addition step scores up to 2^n pool runs per
            # empty slot against every unit: 4096 runs at n = 12.
            raise SpaceTooLargeError(f"n = {n} exceeds 12 for nonregular search")
        self.structure = structure
        self.n = n
        self.constraints = list(constraints)
        self.distinct = distinct
        # Word counts are reported as sums of squared class totals over
        # N * fraction_size, where fraction_size is the run size of the
        # unreplicated regular fraction the design is benchmarked against
        # (2^(n-l0)).  For power-of-two designs this equals N and the
        # formula reduces to the usual 1/N^2 normalization.
        self.fraction_size = fraction_size if fraction_size else structure.N
        self.pool = [
            r for r in pool if all(ok(r) for ok in self.constraints)
        ]
        if not self.pool:
            raise EmptyCandidateSetError("constraints exclude the whole pool")
        N = structure.N
        self.slot_units = (
            [list(s) for s in slot_units]
            if slot_units is not None
            else [[u] for u in range(N)]
        )
        # Full-design run for slot value v at unit u (crossed mode merges
        # the fixed sub-design into the searched one).
        self.slot_run = slot_run or (lambda u, v: v)
        self.n_slots = len(self.slot_units)
        self._strata = strata_projectors(structure)
        self.names = structure.names
        self.mobius = self._strata.mobius
        self.n_classes = np.array(
            [structure.factor(nm).n_classes for nm in self.names]
        )
        # Slots are padded to equal width with unit N, whose class (one past
        # each factor's last) holds no real unit.
        self._classes = np.array([
            structure.factor(nm).classes + (nc,)
            for nm, nc in zip(self.names, self.n_classes)
        ])
        width = max(len(s) for s in self.slot_units)
        self._units = np.array(
            [s + [N] * (width - len(s)) for s in self.slot_units]
        )
        # _unit_run[u, v]: the full-design run at unit u for slot value v.
        values = range(1 << n)
        self._unit_run = np.array(
            [[self.slot_run(u, v) for v in values] for u in range(N)]
            + [[0] * len(values)]
        )
        # _k_of[x, k - 1] = K_k(popcount(x)), for x the XOR of two runs.
        popcount = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).sum(1)
        self._k_of = krawtchouk(n)[popcount, 1:]
        self.sequence: list[tuple[str, ...]] = [("U",)]
        self.set_sequence(self.sequence)

    def set_sequence(self, sequence: Sequence[Sequence[str]]) -> None:
        self.sequence = [tuple(g) for g in sequence]
        # _weights[j, i]: the Moebius weight of factor i's class energies
        # in W_G for the j-th G.
        self._weights = np.array(
            [
                [sum(self.mobius.get((f, nm), 0) for f in g) for nm in self.names]
                for g in self.sequence
            ],
            dtype=np.int64,
        ).reshape(len(self.sequence), len(self.names))

    def admissible(self, run: int) -> bool:
        return all(ok(run) for ok in self.constraints)

    def design_rows(self, assignment: Sequence[int]) -> np.ndarray:
        """Full +/-1 design table in unit order."""
        N = self.structure.N
        out = np.empty((N, self.n), dtype=np.int64)
        for s, v in enumerate(assignment):
            for u in self.slot_units[s]:
                r = self.slot_run(u, v)
                out[u] = 1 - 2 * ((r >> np.arange(self.n)) & 1)
        return out

    def exact_value(self, assignment: Sequence[int]) -> tuple[Fraction, ...]:
        """Exact W_G concatenation for a full assignment."""
        units: list[int] = []
        runs: list[int] = []
        for s, v in enumerate(assignment):
            for u in self.slot_units[s]:
                units.append(u)
                runs.append(self.slot_run(u, v))
        r = np.array(runs, dtype=np.int64)
        cls = self._classes[:, units]
        same = (cls[:, :, None] == cls[:, None, :]).astype(np.int64)
        energy = np.einsum("fuv,uvk->fk", same, self._k_of[r[:, None] ^ r])
        totals = (self._weights * self.n_classes) @ energy
        den = self.structure.N * self.fraction_size
        return tuple(Fraction(int(t), den) for t in totals.ravel())

    def table(self, assignment: Sequence[int]) -> WordlengthTable:
        tbl = compute_Bki_matrix(self.design_rows(assignment), self._strata)
        if self.fraction_size != self.structure.N:
            scale = Fraction(self.structure.N, self.fraction_size)
            tbl = WordlengthTable(
                tbl.structure,
                tbl.n,
                tuple(tuple(v * scale for v in row) for row in tbl.b),
            )
        return tbl


class _PartialState:
    """A partial assignment, scored exactly for greedy MIX steps.

    A partial design's score is its W_G concatenation with each class's
    energy averaged over the class's assigned units: per order k, the sum
    over factors of weight * sum_class energy / count.  Placing (sign=+1)
    or lifting (sign=-1) the runs A that a slot puts in a class changes
    its energy by 2 * sign * sum_{a in A, v} K(d(a, v)) + sum_{a, a' in A}
    K(d(a, a')), v over the class's runs assigned before the step, and its
    count by sign * |A|: one formula for direct mode (|A| = 1) and crossed
    mode.
    """

    def __init__(self, problem: NonregularProblem, assignment: Sequence[int | None]):
        self.p = problem
        self.values: list[int | None] = list(assignment)
        self.run = np.full(problem.structure.N, -1, dtype=np.int64)
        for s, v in enumerate(self.values):
            self.set(s, v)

    def set(self, slot: int, value: int | None) -> None:
        self.values[slot] = value
        units = self.p.slot_units[slot]
        self.run[units] = -1 if value is None else self.p._unit_run[units, value]

    def deltas(
        self, slots: Sequence[int], values: Sequence[int], sign: int
    ) -> tuple[np.ndarray, int]:
        """Exact score changes when each candidate slot takes (sign=+1) or
        gives up (sign=-1) its value, as integer rows times a common scale.

        Returns (rows, scale): row j over scale is candidate j's change.
        """
        p = self.p
        live = np.flatnonzero(self.run >= 0)
        lr = self.run[live]
        units = p._units[np.asarray(slots)]
        runs = p._unit_run[units, np.asarray(values)[:, None]]
        k_live = p._k_of[lr[:, None] ^ lr]
        k_cross = p._k_of[runs[:, :, None] ^ lr]
        k_self = p._k_of[runs[:, :, None] ^ runs[:, None, :]]
        terms, present = [], np.zeros(p.structure.N + 1, dtype=bool)
        for i in np.flatnonzero(p._weights.any(axis=0)):
            cls, nc = p._classes[i], p.n_classes[i]
            lc, uc = cls[live], cls[units]
            live_hot = (lc[:, None] == np.arange(nc)).astype(np.int64)
            hot = (uc[:, :, None] == np.arange(nc)).astype(np.int64)
            energy = live_hot.T @ _same_class_sum(lc, lc, k_live)
            change = 2 * sign * _same_class_sum(uc, lc, k_cross) + _same_class_sum(
                uc, uc[:, None], k_self
            )
            count = live_hot.sum(0)
            new_count = count + sign * hot.sum(1)
            new_energy = energy + np.einsum("cwj,cwk->cjk", hot, change)
            present[count] = present[new_count] = True
            terms.append((i, energy, count, new_energy, new_count))
        # A class of m runs has order-k energy at most C(n, k) m^2, so its
        # averaged energies sum to at most 2^n m * scale over the orders.
        scale = lcm(*np.flatnonzero(present[1:]) + 1)
        weight = int(np.abs(p._weights).sum(1).max())
        if (2 * weight * p.structure.N << p.n) * scale >= 2**63:
            raise OverflowError("greedy scores would overflow int64")

        def averaged(e: np.ndarray, m: np.ndarray) -> np.ndarray:
            return (e * (scale // np.maximum(m, 1))[..., None]).sum(-2)

        out = np.zeros((len(p.sequence), len(units), p.n), dtype=np.int64)
        for i, energy, count, new_energy, new_count in terms:
            out += p._weights[:, i, None, None] * (
                averaged(new_energy, new_count) - averaged(energy, count)
            )
        return out.transpose(1, 0, 2).reshape(len(units), -1), scale

    def best_removal(self, slots: Sequence[int], rng: np.random.Generator) -> int:
        """Slot whose removal leaves the best-scoring partial design."""
        rows, _ = self.deltas(slots, [self.values[s] for s in slots], -1)
        return slots[_lex_argmin(rows, rng)]

    def best_addition(
        self, slots: Sequence[int], runs: Sequence[int], rng: np.random.Generator
    ) -> tuple[int, int]:
        """(slot, run) pair whose addition scores best."""
        pairs = [(s, r) for s in slots for r in runs]
        rows, _ = self.deltas([s for s, _ in pairs], [r for _, r in pairs], +1)
        return pairs[_lex_argmin(rows, rng)]


def _same_class_sum(
    cls: np.ndarray, other: np.ndarray, k: np.ndarray
) -> np.ndarray:
    """Sum of k[..., b, :] over the b with other[..., b] == cls[...]."""
    same = (cls[..., None] == other).astype(np.int64)
    return np.einsum("...b,...bk->...k", same, k)


def _lex_ties(rows: np.ndarray) -> np.ndarray:
    """Ascending indices of the lexicographically smallest integer rows."""
    ties = np.arange(len(rows))
    for col in rows.T:
        vals = col[ties]
        ties = ties[vals == vals.min()]
        if len(ties) == 1:
            break
    return ties


def _lex_argmin(rows: np.ndarray, rng: np.random.Generator) -> int:
    """Index of the lexicographically smallest integer row.

    Exact ties are broken at random, so greedy steps do not always favor
    low indices.
    """
    ties = _lex_ties(rows)
    return int(ties[rng.integers(len(ties))])


def mix_nonregular(
    x: Particle,
    gb: Particle,
    lb: Particle,
    problem: NonregularProblem,
    q: QVector,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Per-source MIX: for GB, LB, then the pool, greedily delete q_i runs
    and greedily refill them from that source.  Returns the candidate
    position; the swarm scores candidates in batches."""
    n_gb, n_lb, n_new = q.totals()
    if n_gb + n_lb + n_new > problem.n_slots:
        raise InvalidQError("q total exceeds the number of runs")
    if n_gb + n_lb + n_new == 0:
        return x.pos
    state = _PartialState(problem, x.pos)
    # The third source is the whole run pool; randomized tie-breaking in
    # the greedy steps keeps that phase stochastic.
    # Exploration first, exploitation last: the GB phase repairs whatever
    # the pool-wide NEW phase disturbed.
    for source, cnt in (
        (list(problem.pool), n_new),
        (list(lb.pos), n_lb),
        (list(gb.pos), n_gb),
    ):
        if cnt == 0:
            continue
        emptied: list[int] = []
        for _ in range(cnt):
            live = [s for s, v in enumerate(state.values) if v is not None]
            if len(live) <= 1:
                break
            s = state.best_removal(live, rng)
            state.set(s, None)
            emptied.append(s)
        runs = sorted({r for r in source if problem.admissible(r)})
        for _ in range(len(emptied)):
            empty = [s for s in emptied if state.values[s] is None]
            options = runs
            if problem.distinct:
                used = {v for v in state.values if v is not None}
                options = [r for r in runs if r not in used]
                if not options:
                    options = sorted(r for r in problem.pool if r not in used)
            elif not options:
                options = list(problem.pool)
            if not options:
                raise EmptyCandidateSetError(
                    "no admissible candidate runs for the addition step"
                )
            s, r = state.best_addition(empty, options, rng)
            state.set(s, r)
    final = tuple(state.values)
    if any(v is None for v in final):
        raise EmptyCandidateSetError("addition step left empty slots")
    return final


def _random_assignment(
    problem: NonregularProblem, rng: np.random.Generator
) -> tuple[int, ...]:
    pool = problem.pool
    if problem.distinct:
        if len(pool) < problem.n_slots:
            raise EmptyCandidateSetError("pool smaller than the design")
        picks = rng.choice(len(pool), size=problem.n_slots, replace=False)
    else:
        picks = rng.integers(len(pool), size=problem.n_slots)
    return tuple(int(pool[int(i)]) for i in picks)


def run_algorithm4(
    problem: NonregularProblem,
    sequence: Sequence[Sequence[str]],
    S: int,
    T: int,
    q: QVector,
    seed: int,
    threads: int = 1,
) -> SearchResult:
    """SIB search for nonregular multi-stratum designs.

    ``threads`` is accepted only as 1.
    """
    _check_run_args(S, T, threads)
    q.validate(problem.n_slots)
    problem.set_sequence(sequence)

    def perturb(pos: tuple, rng: np.random.Generator) -> tuple:
        _, _, n_new = q.totals()
        a = list(pos)
        take = min(max(n_new, 1), len(a))
        pool = problem.pool
        for i in rng.choice(len(a), size=take, replace=False):
            if problem.distinct:
                used = set(a)
                options = [r for r in pool if r not in used]
                if not options:
                    continue
            else:
                options = pool
            a[int(i)] = int(options[rng.integers(len(options))])
        return tuple(a)

    return _swarm(
        "nonregular", sequence, S, T, q, seed,
        init=lambda rng: _random_assignment(problem, rng),
        values=lambda batch: [problem.exact_value(p) for p in batch],
        mix=lambda x, gb, lb, rng: mix_nonregular(x, gb, lb, problem, q, rng),
        perturb=perturb,
        table=problem.table,
    )


FISH_MIXTURE_ROWS: tuple[int, ...] = tuple(
    m for m in range(8) if m != 0b111
)  # all blends except (-1, -1, -1); bit=1 encodes level -1


def fish_patty_problem(
    n_process_runs: int = 4, distinct: bool = True
) -> tuple[NonregularProblem, BlockStructure]:
    """28-run strip-plot: 7 fixed mixture blends crossed with a searched
    sub-design of processing runs.

    Factors are (x1, x2, x3, z1, z2, z3); rows carry the fixed mixture
    part and the search chooses the z sub-design columns.
    """
    from .blocks import cross, BlockStructure as BS

    rows = len(FISH_MIXTURE_ROWS)
    structure = cross(
        BS.unstructured(rows), BS.unstructured(n_process_runs)
    )
    slot_units = [
        [i * n_process_runs + j for i in range(rows)]
        for j in range(n_process_runs)
    ]

    def slot_run(u: int, v: int) -> int:
        blend = FISH_MIXTURE_ROWS[u // n_process_runs]
        return blend | (v << 3)

    problem = NonregularProblem(
        structure,
        6,
        pool=list(range(8)),  # all z combinations
        slot_units=slot_units,
        slot_run=slot_run,
        distinct=distinct,
        fraction_size=2 ** 5,  # benchmark fraction: half of the 2^6 runs
    )
    return problem, structure
