"""Swarm-search machinery: q-vectors, MIX, MOVE, and the SIB drivers."""

import tracemalloc
from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastrat.blocks import (
    BlockStructure,
    admissible_subsets,
    criterion_sequence,
    parse_structure,
    strata_projectors,
)
from mastrat.fixtures import latin16_structure
from mastrat.keys import GeneratorSet, PoolMatrix, default_pools, template_for
from mastrat.search import (
    EmptyCandidateSetError,
    FISH_MIXTURE_ROWS,
    InvalidQError,
    NonregularProblem,
    QVector,
    RegularEvaluator,
    Particle,
    SpaceTooLargeError,
    _PartialState,
    compare_values,
    fish_patty_problem,
    mix_nonregular,
    mix_regular,
    move,
    oracle_regular,
    run_algorithm3,
    run_algorithm4,
)


def blocked_setup(n=5, l0=0):
    b = parse_structure("8/4")
    t = template_for(b, n, l0)
    pools = default_pools(t, True)
    seq = criterion_sequence(b, "forward")
    return b, t, pools, seq


# ----- QVector -----

def test_q_negative_rejected():
    with pytest.raises(InvalidQError):
        QVector(-1, 0, 0).validate()


def test_q_exceeds_positions():
    with pytest.raises(InvalidQError):
        QVector(2, 1, 3).validate(slot_count=3)


def test_q_ordering_warns():
    with pytest.warns(UserWarning):
        QVector(0, 1, 0).validate()


def test_q_accepts_suggested_ordering():
    QVector(2, 1, 3).validate(slot_count=11)  # no warning, no error


def test_q_per_pool_unknown_pool():
    _, t, _, _ = blocked_setup()
    with pytest.raises(InvalidQError):
        QVector({"Z": 1}, 0, 0).per_pool(t, np.random.default_rng(0))


def test_q_per_pool_bounded_by_slots():
    _, t, _, _ = blocked_setup()
    with pytest.raises(InvalidQError):
        QVector({"B": 4}, 0, 0).per_pool(t, np.random.default_rng(0))


# ----- mix_regular / move -----

def test_mix_regular_zero_q_identity():
    _, t, pools, seq = blocked_setup()
    ev = RegularEvaluator(t, seq)
    x = Particle((1, 2, 3), ev.value((1, 2, 3)))
    out = mix_regular(x, x, x, t, pools, QVector(0, 0, 0), np.random.default_rng(0))
    assert out == x.pos


def test_mix_regular_swaps_toward_gb():
    _, t, pools, seq = blocked_setup()
    ev = RegularEvaluator(t, seq)
    x = Particle((1, 2, 3), ev.value((1, 2, 3)))
    gb = Particle((3, 1, 2), ev.value((3, 1, 2)))
    out = mix_regular(
        x, gb, x, t, pools, QVector({"B": 2}, 0, 0), np.random.default_rng(1)
    )
    changed = [i for i in range(3) if out[i] != x.pos[i]]
    assert len(changed) <= 2
    assert all(out[i] == gb.pos[i] for i in changed)
    assert GeneratorSet(t, out).is_invertible()


def test_move_adopts_better_candidate():
    a = Particle((0,), (0,))
    b = Particle((1,), (1,))
    assert move(a, b, b) is a


def test_move_tie_keeps_incumbent():
    a = Particle((0,), (1,))
    cur = Particle((1,), (1,))
    assert move(a, cur, cur) is cur


def test_move_perturbs_when_candidate_trails():
    cand = Particle((0,), (5,))
    cur = Particle((1,), (1,))
    lb = Particle((2,), (0,))
    marker = Particle((9,), (9,))
    out = move(cand, cur, lb, perturb=lambda p: marker)
    assert out is marker


def test_compare_values():
    assert compare_values((1, 2), (1, 3)) == -1
    assert compare_values((1, 2), (1, 2)) == 0
    with pytest.raises(ValueError):
        compare_values((1,), (1, 2))


# ----- Algorithm 3 driver -----

def test_algorithm3_trace_monotone_and_reproducible():
    _, t, pools, seq = blocked_setup()
    r1 = run_algorithm3(t, pools, seq, S=5, T=8, q=QVector(1, 0, 1), seed=11)
    r2 = run_algorithm3(t, pools, seq, S=5, T=8, q=QVector(1, 0, 1), seed=11)
    assert r1.value == r2.value and r1.best == r2.best
    assert [v for _, v in r1.trace] == [v for _, v in r2.trace]
    for (_, a), (_, b) in zip(r1.trace, r1.trace[1:]):
        assert compare_values(b, a) <= 0


def test_algorithm3_different_seeds_allowed_to_differ():
    _, t, pools, seq = blocked_setup()
    r1 = run_algorithm3(t, pools, seq, S=3, T=3, q=QVector(1, 0, 1), seed=1)
    assert r1.kind == "regular"
    assert r1.metadata["seed"] == 1 and r1.metadata["S"] == 3


def test_algorithm3_rejects_bad_iterations():
    _, t, pools, seq = blocked_setup()
    with pytest.raises(ValueError):
        run_algorithm3(t, pools, seq, S=0, T=5, q=QVector(0, 0, 1), seed=1)
    with pytest.raises(ValueError):
        run_algorithm3(t, pools, seq, S=5, T=5, q=QVector(0, 0, 1), seed=1, threads=2)


def test_entry_points_check_pool_widths():
    _, t, _, seq = blocked_setup()
    pools = {"B": PoolMatrix("B", 3, (1, 2), True)}
    with pytest.raises(ValueError):
        run_algorithm3(t, pools, seq, S=2, T=2, q=QVector(1, 0, 1), seed=1)
    with pytest.raises(ValueError):
        oracle_regular(t, pools, seq)


def test_seeded_runs_pin_the_random_stream():
    """Exact results of one small seeded search per driver."""
    b = parse_structure("8/4")
    t = template_for(b, 9, 4)
    pools = default_pools(t, True)
    seq = criterion_sequence(b, "forward")
    r3 = run_algorithm3(t, pools, seq, S=10, T=10, q=QVector(2, 1, 3), seed=1)
    first = (0, 0, 0, 9, 0, 6, 0, 0, 0, 0, 16, 0, 66, 0, 40, 0, 5, 0)
    final = (0, 0, 0, 6, 8, 0, 0, 1, 0, 0, 12, 16, 38, 32, 12, 16, 1, 0)
    assert r3.best == (3, 3, 3, 15, 22, 29, 26)
    assert r3.value == final
    assert r3.trace == [(i, first if i < 8 else final) for i in range(1, 11)]
    assert r3.co_optimal == [r3.best]

    # The headline 2^(13-8) case improves inside the loop (iteration 3),
    # so it pins each particle's own stream, not only the seed.
    t = template_for(b, 13, 8)
    r3 = run_algorithm3(
        t, default_pools(t, True), seq, S=10, T=10, q=QVector(2, 1, 3), seed=4
    )
    first = (0, 0, 6, 28, 51, 42, 42, 51, 28, 6, 0, 0, 1,
             0, 27, 63, 170, 357, 406, 406, 357, 170, 63, 27, 0, 1)
    final = (0, 0, 0, 55, 0, 96, 0, 87, 0, 16, 0, 1, 0,
             0, 36, 0, 365, 0, 848, 0, 651, 0, 140, 0, 7, 0)
    assert r3.best == (1, 2, 1, 11, 7, 13, 31, 19, 22, 26, 21)
    assert r3.value == final
    assert r3.trace == [(i, first if i < 3 else final) for i in range(1, 11)]
    assert r3.co_optimal == [r3.best]

    prob = NonregularProblem(BlockStructure.unstructured(8), 6, pool=list(range(64)))
    r4 = run_algorithm4(prob, [("U",)], S=10, T=6, q=QVector(2, 2, 4), seed=1)
    F = Fraction
    first = (F(1, 8), F(5, 2), F(11, 4), F(1, 2), F(9, 8), F(0))
    final = (F(0), F(1), F(5, 2), F(3), F(1, 2), F(0))
    assert r4.best == (59, 23, 2, 28, 45, 1, 40, 54)
    assert r4.value == final
    assert r4.trace == [(i, first if i < 2 else final) for i in range(1, 7)]
    assert r4.co_optimal == [r4.best]


def test_oracle_small_space_matches_search():
    _, t, pools, seq = blocked_setup()
    fills, value, ties = oracle_regular(t, pools, seq)
    res = run_algorithm3(t, pools, seq, S=10, T=10, q=QVector(1, 0, 1), seed=3)
    assert tuple(res.value) == tuple(value)
    assert ties >= 1


def test_oracle_space_too_large():
    _, t, pools, seq = blocked_setup(n=13, l0=8)
    with pytest.raises(SpaceTooLargeError):
        oracle_regular(t, pools, seq, cap=10**6)


def test_oracle_keeps_no_memo():
    # 8192 fills, each visited once: memoising their values took 2.5 MB.
    b = parse_structure("2/4/2")
    t = template_for(b, 6, 2)
    pools = default_pools(t, False)
    seq = criterion_sequence(b, "forward")
    tracemalloc.start()
    try:
        result = oracle_regular(t, pools, seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    value = (0, 0, 0, 3, 0, 0, 0, 0, 4, 3, 0, 0, 2, 7, 12, 7, 2, 1)
    assert result == ((0, 0, 3, 7, 14), value, 36)


def test_oracle_cross_check_blocked_n8():
    # 3^3 * 26^3 = 474,552 fills on 8/4, all scored in batches.
    b = parse_structure("8/4")
    t = template_for(b, 8, 3)
    pools = default_pools(t, True)
    seq = criterion_sequence(b, "forward")
    fills, value, ties = oracle_regular(t, pools, seq)
    assert prod(len(pools[s.pool_key].rows) for s in t.slots) == 474_552
    assert RegularEvaluator(t, seq).value(fills) == value and ties >= 1
    hits = sum(
        run_algorithm3(t, pools, seq, S=50, T=50, q=QVector(2, 1, 3), seed=s).value
        == value
        for s in range(1, 6)
    )
    assert hits >= 4, f"only {hits}/5 seeds reached the oracle optimum"


# ----- nonregular problems -----

def test_nonregular_problem_refuses_large_n():
    # Greedy MIX would score 2^13 pool runs per empty slot; refuse up front.
    with pytest.raises(SpaceTooLargeError):
        NonregularProblem(BlockStructure.unstructured(8), 13, pool=[0])


def test_nonregular_problem_builds_no_table_of_effects():
    # The 4^n table of effect signs took 403 MB here.
    tracemalloc.start()
    try:
        NonregularProblem(BlockStructure.unstructured(8), 12, pool=range(4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def partial_score(problem, values):
    """The greedy score of a partial assignment, by its definition.

    Per G and order k: the sum over unit factors of their Moebius weight
    in W_G times the sum over occupied classes of (class total of an
    effect column)^2 / (units assigned in the class), summed over the
    order-k effects, in Fractions from explicit +/-1 columns.
    """
    b, n = problem.structure, problem.n
    mu = strata_projectors(b).mobius
    levels = {}
    for s, v in enumerate(values):
        if v is not None:
            for u in problem.slot_units[s]:
                r = problem.slot_run(u, v)
                levels[u] = [1 - 2 * ((r >> f) & 1) for f in range(n)]
    per_order = {}
    for nm in b.names:
        classes = b.factor(nm).classes
        per_order[nm] = [Fraction(0)] * (n + 1)
        for c in {classes[u] for u in levels}:
            members = [u for u in levels if classes[u] == c]
            for effect in range(1, 1 << n):
                bits = [f for f in range(n) if effect >> f & 1]
                total = sum(prod(levels[u][f] for f in bits) for u in members)
                per_order[nm][len(bits)] += Fraction(total * total, len(members))
    return [
        sum(sum(mu.get((f, nm), 0) for f in g) * per_order[nm][k] for nm in b.names)
        for g in problem.sequence
        for k in range(1, n + 1)
    ]


def check_greedy_scores(problem, values, runs):
    state = _PartialState(problem, values)
    before = partial_score(problem, values)
    live = [s for s, v in enumerate(values) if v is not None]
    empty = [s for s, v in enumerate(values) if v is None]
    removals = (live, [values[s] for s in live], -1)
    additions = ([s for s in empty for _ in runs], [r for _ in empty for r in runs], +1)
    for slots, vals, sign in (removals, additions):
        rows, scale = state.deltas(slots, vals, sign)
        assert len(rows) == len(slots)
        for row, s, v in zip(rows, slots, vals):
            after = list(values)
            after[s] = v if sign > 0 else None
            want = [a - b for a, b in zip(partial_score(problem, after), before)]
            assert [Fraction(int(x), scale) for x in row] == want


def random_partial(rng, problem, runs, holes):
    values = [int(v) for v in rng.choice(runs, size=problem.n_slots)]
    for s in rng.choice(problem.n_slots, size=holes, replace=False):
        values[int(s)] = None
    return values


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
def test_greedy_scores_match_definition_direct(seed):
    rng = np.random.default_rng(seed)
    b = parse_structure("2/4")
    problem = NonregularProblem(b, 4, pool=range(16))
    problem.set_sequence(admissible_subsets(b))
    check_greedy_scores(problem, random_partial(rng, problem, 16, 3), range(16))


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
def test_greedy_scores_match_definition_crossed(seed):
    rng = np.random.default_rng(seed)
    problem, _ = fish_patty_problem()
    problem.set_sequence([("U",), ("U", "C"), ("U", "R"), ("U", "C", "R")])
    check_greedy_scores(problem, random_partial(rng, problem, 8, 2), range(8))
    # Slots of unequal width, each unit taking its own run for a value.
    b = parse_structure("2/4")
    uneven = NonregularProblem(
        b, 3, pool=range(8), slot_units=[[0, 1, 2], [3, 4], [5], [6, 7]],
        slot_run=lambda u, v: v ^ (u & 3),
    )
    uneven.set_sequence(admissible_subsets(b))
    check_greedy_scores(uneven, random_partial(rng, uneven, 8, 2), range(8))


def test_greedy_scores_refuse_int64_overflow():
    problem = NonregularProblem(BlockStructure.unstructured(8), 6, pool=range(64))
    # Inflated weights put the guard's bound at 2^66, past int64.
    problem._weights = problem._weights << 56
    state = _PartialState(problem, [1, 2, 3, 4, 5, 6, 7, None])
    with pytest.raises(OverflowError):
        state.deltas([7], [9], +1)


def test_greedy_score_bound_far_below_int64(monkeypatch):
    # The problems of acceptance criteria 3-5.  A class never holds more
    # than N units, so every scale divides lcm(1..N); the guard's bound at
    # that scale is the largest a search on the problem can reach.
    fish, _ = fish_patty_problem()
    fish.set_sequence([("U",), ("U", "C"), ("U", "R"), ("U", "C", "R")])
    problems = [
        NonregularProblem(BlockStructure.unstructured(8), 7, pool=range(128)),
        NonregularProblem(latin16_structure(), 6, pool=range(64), distinct=True),
        fish,
    ]
    scales = []
    deltas = _PartialState.deltas

    def record(self, slots, values, sign):
        rows, scale = deltas(self, slots, values, sign)
        scales.append(scale)
        return rows, scale

    monkeypatch.setattr(_PartialState, "deltas", record)
    for problem in problems:
        N = problem.structure.N
        top = lcm(*range(1, N + 1))
        weight = int(np.abs(problem._weights).sum(1).max())
        assert (2 * weight * N << problem.n) * top < 2**63 // 1000
        scales.clear()
        run_algorithm4(problem, problem.sequence, S=4, T=3, q=QVector(1, 1, 2), seed=1)
        assert scales and all(top % s == 0 for s in scales)


def test_nonregular_value_matches_matrix_route():
    from mastrat.aberration import compute_Bki_matrix
    from mastrat.blocks import strata_projectors

    b = BlockStructure.unstructured(8)
    prob = NonregularProblem(b, 3, pool=list(range(8)))
    rng = np.random.default_rng(0)
    assign = tuple(int(v) for v in rng.integers(0, 8, size=8))
    val = prob.exact_value(assign)
    tab = compute_Bki_matrix(prob.design_rows(assign), strata_projectors(b))
    assert val == tab.stratum_vector("U")


def test_nonregular_constraints_filter_pool():
    b = BlockStructure.unstructured(4)
    prob = NonregularProblem(b, 2, pool=list(range(4)), constraints=[lambda r: r != 3])
    assert 3 not in prob.pool


def test_nonregular_empty_pool_rejected():
    b = BlockStructure.unstructured(4)
    with pytest.raises(EmptyCandidateSetError):
        NonregularProblem(b, 2, pool=list(range(4)), constraints=[lambda r: False])


def test_mix_nonregular_zero_q_identity():
    b = BlockStructure.unstructured(4)
    prob = NonregularProblem(b, 2, pool=list(range(4)))
    a = (0, 1, 2, 3)
    p = Particle(a, prob.exact_value(a))
    out = mix_nonregular(p, p, p, prob, QVector(0, 0, 0), np.random.default_rng(0))
    assert out == a


def test_mix_nonregular_q_exceeds_runs():
    b = BlockStructure.unstructured(4)
    prob = NonregularProblem(b, 2, pool=list(range(4)))
    a = (0, 1, 2, 3)
    p = Particle(a, prob.exact_value(a))
    with pytest.raises(InvalidQError):
        mix_nonregular(p, p, p, prob, QVector(2, 2, 2), np.random.default_rng(0))


def test_algorithm4_single_particle_identity():
    b = BlockStructure.unstructured(4)
    prob = NonregularProblem(b, 2, pool=list(range(4)))
    r = run_algorithm4(prob, [("U",)], S=1, T=1, q=QVector(0, 0, 0), seed=5)
    assert r.value == prob.exact_value(r.best)


def test_algorithm4_reproducible_and_monotone():
    b = BlockStructure.unstructured(8)
    prob = NonregularProblem(b, 4, pool=list(range(16)))
    r1 = run_algorithm4(prob, [("U",)], S=5, T=6, q=QVector(1, 1, 2), seed=2)
    r2 = run_algorithm4(prob, [("U",)], S=5, T=6, q=QVector(1, 1, 2), seed=2)
    assert r1.value == r2.value and r1.best == r2.best
    for (_, a), (_, c) in zip(r1.trace, r1.trace[1:]):
        assert compare_values(c, a) <= 0


def test_algorithm4_distinct_rows():
    b = BlockStructure.unstructured(8)
    prob = NonregularProblem(b, 4, pool=list(range(16)), distinct=True)
    r = run_algorithm4(prob, [("U",)], S=4, T=5, q=QVector(1, 1, 2), seed=7)
    assert len(set(r.best)) == 8


def test_full_factorial_assignment_scores_zero():
    b = BlockStructure.unstructured(4)
    prob = NonregularProblem(b, 2, pool=list(range(4)))
    assert prob.exact_value((0, 1, 2, 3)) == (Fraction(0), Fraction(0))


# ----- fish-patty crossed mode -----

def test_fish_mixture_rows_exclude_zero_blend():
    assert len(FISH_MIXTURE_ROWS) == 7
    assert 0b111 not in FISH_MIXTURE_ROWS  # (-1,-1,-1) mixture never occurs


def test_fish_problem_shape():
    prob, structure = fish_patty_problem()
    assert structure.N == 28
    assert prob.n_slots == 4
    assert all(len(s) == 7 for s in prob.slot_units)


def test_fish_design_rows_never_contain_zero_blend():
    prob, _ = fish_patty_problem()
    d = prob.design_rows((0, 1, 2, 3))
    assert not any(tuple(row[:3]) == (-1, -1, -1) for row in d)
    # Each processing column repeats its z sub-design across all 7 blends.
    for j, units in enumerate(prob.slot_units):
        assert len({tuple(d[u][3:]) for u in units}) == 1
