"""The benchmark's workloads: inputs from the seed, timed operations, checks.

A workload builds its fixed inputs once (`setup`), then draws a run's
operations (searches or design scorings) from the workload seed
(`inputs`).  A round runs every operation once (`run`, the timed part);
a run repeats the same round.  `check` re-derives an operation's value
through the independent matrix route (`compute_Bki_matrix` then
`criterion_vector`), or compares a repeat with the checked first run of
the same inputs, and runs outside the timing.

Every call into mastrat goes through its module (`search.run_algorithm3`,
not a name imported from it), so the trace wrappers see it.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

import numpy as np

from mastrat import aberration, blocks, fixtures, keys, search

# Paper optima of the 2^(13-8) design on 8/4 (acceptance criterion 1):
# D2 under the forward sequence, D1 under the backward one.
D2_FORWARD = (
    (0, 0, 0, 55, 0, 96, 0, 87, 0, 16, 0, 1, 0)
    + (0, 36, 0, 365, 0, 848, 0, 651, 0, 140, 0, 7, 0)
)
D1_BACKWARD = (
    (0, 22, 80, 163, 320, 452, 416, 311, 192, 70, 16, 5, 0)
    + (0, 0, 4, 39, 32, 48, 56, 39, 32, 0, 4, 1, 0)
)
# Strength-2 OA(8, 2^6) pattern (acceptance criterion 3).
OA8_OPTIMUM = (0, 0, 4, 3, 0, 0)


@dataclass
class Op:
    """One operation: its input, its result, and how it fared."""

    kind: str
    seed: int
    best: tuple = ()  # the search's best key or assignment; a scoring's input
    value: tuple = ()
    optimum: tuple = ()  # known optimum of a search, () when none
    matrix: tuple = ()  # the same value through the matrix route
    error: str = ""
    ok: bool = False

    @property
    def reached_optimum(self) -> bool:
        return bool(self.optimum) and tuple(self.value) == self.optimum

    def fresh(self) -> Op:
        """The same input with no result, for a repeat of the operation."""
        best = self.best if self.kind == "score" else ()
        return Op(self.kind, self.seed, best=best, optimum=self.optimum)


def derived_seeds(seed: int, count: int) -> list[int]:
    """Per-operation seeds of a run, a pure function of the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(s) for s in state]


def _failed(op: Op) -> None:
    op.error = traceback.format_exc(limit=3)


class _Workload:
    ref_units = 20  # reference units timed before each operation

    def check(self, op: Op, first: Op | None = None) -> None:
        """Check `op`: by the matrix route, or against `first`.

        `first` is the checked first run of the same inputs.  A seeded
        operation must give the same result every time it runs.
        """
        if op.error:
            return
        if first is None:
            try:
                self.verify(op)
            except Exception:
                _failed(op)
            return
        op.ok = first.ok and (op.best, op.value) == (first.best, first.value)
        if not op.ok:
            op.error = "result differs from the first run of the same inputs"


class _Search(_Workload):
    """Shared check: the search's best value against the matrix route."""

    def verify(self, op: Op) -> None:
        op.matrix = self.matrix_value(op)
        op.ok = op.matrix == tuple(op.value)


class BlockedSearch(_Search):
    """Regular search (Algorithm 3) on 8 blocks of 4 units."""

    def __init__(
        self,
        name: str,
        n: int,
        l0: int,
        directions: tuple[str, ...],
        seeds: int,
        S: int,
        T: int,
        optima: dict[str, tuple] | None = None,
        trace_rounds: int = 1,
    ):
        self.name = name
        self.n, self.l0 = n, l0
        self.directions = directions
        self.seeds = seeds
        self.S, self.T = S, T
        self.optima = optima or {}
        self.trace_rounds = trace_rounds
        self.q = search.QVector(2, 1, 3)

    def setup(self) -> None:
        b = blocks.parse_structure("8/4")
        self.structure = b
        self.template = keys.template_for(b, self.n, self.l0)
        self.pools = keys.default_pools(self.template, True)
        self.sequences = {
            d: blocks.criterion_sequence(b, d) for d in self.directions
        }

    def inputs(self, seed: int) -> list[Op]:
        return [
            Op(d, s, optimum=self.optima.get(d, ()))
            for s in derived_seeds(seed, self.seeds)
            for d in self.directions
        ]

    def run(self, op: Op) -> None:
        try:
            res = search.run_algorithm3(
                self.template, self.pools, self.sequences[op.kind],
                S=self.S, T=self.T, q=self.q, seed=op.seed, threads=1,
                # The polish runs a number of evaluations that depends on
                # the seed, which would make run_s measure the seeds.
                polish=False,
            )
            op.best, op.value = tuple(res.best), tuple(res.value)
        except Exception:
            _failed(op)

    def matrix_value(self, op: Op) -> tuple:
        gs = keys.GeneratorSet(self.template, tuple(op.best))
        table = aberration.compute_Bki_matrix(
            keys.expand_design(gs), blocks.strata_projectors(self.structure)
        )
        return aberration.criterion_vector(table, self.sequences[op.kind])


class NonregularSearch(_Search):
    """Nonregular search (Algorithm 4) on unstructured runs."""

    def __init__(
        self,
        name: str,
        n_units: int,
        n: int,
        seeds: int,
        S: int,
        T: int,
        optimum: tuple = (),
        trace_rounds: int = 1,
    ):
        self.name = name
        self.n_units, self.n = n_units, n
        self.seeds = seeds
        self.S, self.T = S, T
        self.optimum = optimum
        self.trace_rounds = trace_rounds
        self.q = search.QVector(2, 2, 4)
        self.sequence = [("U",)]

    def setup(self) -> None:
        self.structure = blocks.BlockStructure.unstructured(self.n_units)
        self.problem = search.NonregularProblem(
            self.structure, self.n, pool=range(1 << self.n)
        )

    def inputs(self, seed: int) -> list[Op]:
        return [
            Op("U", s, optimum=self.optimum)
            for s in derived_seeds(seed, self.seeds)
        ]

    def run(self, op: Op) -> None:
        try:
            res = search.run_algorithm4(
                self.problem, self.sequence, S=self.S, T=self.T,
                q=self.q, seed=op.seed, threads=1,
            )
            op.best, op.value = tuple(res.best), tuple(res.value)
        except Exception:
            _failed(op)

    def matrix_value(self, op: Op) -> tuple:
        table = aberration.compute_Bki_matrix(
            self.problem.design_rows(op.best),
            blocks.strata_projectors(self.structure),
        )
        return aberration.criterion_vector(table, self.sequence)


class LatinScoring(_Workload):
    """Score seeded 16-run designs on the Latin square by both routes."""

    ref_units = 1  # a scoring takes about four units

    def __init__(
        self, name: str, n: int, designs: int, trace_rounds: int = 1
    ):
        self.name = name
        self.n = n
        self.designs = designs
        self.trace_rounds = trace_rounds

    def setup(self) -> None:
        lat = fixtures.latin16_structure()
        self.structure = lat
        self.sequence = blocks.admissible_subsets(lat)
        self.strata = blocks.strata_projectors(lat)
        self.problem = search.NonregularProblem(
            lat, self.n, pool=range(1 << self.n)
        )
        self.problem.set_sequence(self.sequence)

    def inputs(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        runs = rng.integers(1 << self.n, size=(self.designs, self.structure.N))
        return [Op("score", seed, best=tuple(int(v) for v in row)) for row in runs]

    def run(self, op: Op) -> None:
        try:
            op.value = self.problem.exact_value(op.best)
            table = aberration.compute_Bki_matrix(
                self.problem.design_rows(op.best), self.strata
            )
            op.matrix = aberration.criterion_vector(table, self.sequence)
        except Exception:
            _failed(op)

    def check(self, op: Op, first: Op | None = None) -> None:
        # Both routes ran in the timed round, so every repeat is compared.
        # The values are dropped once compared, so that a run's memory
        # does not grow with its rounds.
        if not op.error:
            op.ok = tuple(op.value) == tuple(op.matrix)
        op.value = op.matrix = ()


WORKLOADS = {
    w.name: w
    for w in (
        BlockedSearch(
            "blocked-n13", 13, 8, ("forward", "backward"), seeds=2, S=30, T=30,
            optima={"forward": D2_FORWARD, "backward": D1_BACKWARD},
        ),
        BlockedSearch(
            "blocked-n16", 16, 11, ("forward",), seeds=6, S=10, T=10
        ),
        NonregularSearch(
            "nonregular-oa8", 8, 6, seeds=3, S=20, T=15, optimum=OA8_OPTIMUM
        ),
        LatinScoring("evaluate-latin", 10, designs=8, trace_rounds=20),
    )
}
