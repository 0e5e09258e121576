"""Property-based invariants: GF(2) algebra, projectors, word counts, search."""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mastrat.blocks import (
    BlockStructure,
    admissible_subsets,
    criterion_sequence,
    parse_structure,
    strata_projectors,
    stratum_variance,
)
from mastrat.aberration import compute_Bki_matrix
from mastrat.fixtures import latin16_structure
from mastrat.gf2 import BitMatrix, gf2_rank, span_enumerate
from mastrat.keys import (
    GeneratorSet,
    default_pools,
    expand_design,
    random_generator_set,
    template_for,
)
from mastrat.aberration import criterion_vector
from mastrat.search import (
    NonregularProblem,
    QVector,
    RegularEvaluator,
    compare_values,
    fish_patty_problem,
    run_algorithm3,
)

STRUCTURES = ["8/4", "2/(4x4)", "2/4/4", "latin16"]


def get_structure(name):
    return latin16_structure() if name == "latin16" else parse_structure(name)


# ----- GF(2) -----

@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << n) - 1),
            min_size=n, max_size=n,
        )
    )
    return BitMatrix(tuple(rows), n)


@given(square_matrices())
def test_double_inverse_is_identity_map(m):
    assume(m.rank() == m.width)
    assert m.inverse().inverse().rows == m.rows


@given(square_matrices())
def test_rank_equals_transpose_rank(m):
    assert m.rank() == m.transpose().rank()


@given(
    st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=5)
)
def test_span_closed_under_addition(gens):
    words = span_enumerate(gens)
    assert len(words) == (1 << gf2_rank(gens)) - 1
    ws = set(words)
    for a in words:
        for b in words:
            if a != b:
                assert a ^ b in ws


# ----- strata projectors -----

@pytest.mark.parametrize("name", STRUCTURES)
def test_projector_suite(name):
    b = get_structure(name)
    sd = strata_projectors(b)
    projs = sd.projectors
    N = b.N
    total = [[sum(p[i][j] for p in projs) for j in range(N)] for i in range(N)]
    assert total == [
        [Fraction(1) if i == j else Fraction(0) for j in range(N)]
        for i in range(N)
    ]
    for p in projs:
        for i in range(N):
            for j in range(i):
                assert p[i][j] == p[j][i]
        sq = [
            [sum(p[i][k] * p[k][j] for k in range(N)) for j in range(N)]
            for i in range(N)
        ]
        assert sq == p
    for a, c in combinations(projs, 2):
        for i in range(N):
            row = [sum(a[i][k] * c[k][j] for k in range(N)) for j in range(N)]
            assert all(v == 0 for v in row)


@pytest.mark.parametrize("name", ["8/4", "2/(4x4)"])
@given(sig=st.lists(st.integers(min_value=1, max_value=7), min_size=5, max_size=5))
@settings(max_examples=5, deadline=None)
def test_projectors_are_eigenprojectors_of_V(name, sig):
    # V = sum_F sigma2_F X_F X_F^T must satisfy V P_F = xi_F P_F exactly.
    b = get_structure(name)
    sigma2 = {nm: Fraction(s) for nm, s in zip(b.names, sig)}
    xi = stratum_variance(b, sigma2).xi
    N = b.N
    V = [[Fraction(0)] * N for _ in range(N)]
    for nm in b.names:
        cls = b.factor(nm).classes
        for u in range(N):
            for v in range(N):
                if cls[u] == cls[v]:
                    V[u][v] += sigma2[nm]
    sd = strata_projectors(b)
    for nm in b.names:
        p = sd.projector(nm)
        for u in range(N):
            for v in range(N):
                lhs = sum(V[u][k] * p[k][v] for k in range(N))
                assert lhs == xi[nm] * p[u][v]


@pytest.mark.parametrize("name", STRUCTURES)
def test_admissible_subsets_match_brute_force(name):
    b = get_structure(name)
    mids = b.names[1:-1]
    expected = []
    for r in range(len(mids) + 1):
        for combo in combinations(mids, r):
            g = ("U",) + combo
            if all(
                other in g
                for nm in g
                for other in b.names[:-1]
                if b.finer(nm, other)
            ):
                expected.append(frozenset(g))
    assert {frozenset(g) for g in admissible_subsets(b)} == set(expected)


# ----- three-way word-count agreement -----

def fraction_Bki(design, b):
    """Direct definition-level evaluation with exact projector matrices."""
    sd = strata_projectors(b)
    N, n = design.shape
    rows = []
    for k in range(1, n + 1):
        row = []
        for nm in b.names:
            p = sd.projector(nm)
            total = Fraction(0)
            for s in combinations(range(n), k):
                u = [Fraction(1)] * N
                for j in s:
                    for i in range(N):
                        u[i] *= int(design[i, j])
                pu = [sum(p[i][l] * u[l] for l in range(N)) for i in range(N)]
                total += sum(x * y for x, y in zip(u, pu))
            row.append(total / N)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("config", [("8/4", 5, 0), ("2/4/2", 5, 1)])
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=5, deadline=None)
def test_three_way_Bki_agreement(config, seed):
    expr, n, l0 = config
    b = parse_structure(expr)
    t = template_for(b, n, l0)
    gs = random_generator_set(
        t, default_pools(t, True), np.random.default_rng(seed)
    )
    regular = RegularEvaluator(t, ()).table(gs.fills).b
    design = expand_design(gs)
    matrix = compute_Bki_matrix(design, strata_projectors(b)).b
    direct = fraction_Bki(design, b)
    assert regular == matrix == direct


# The Fraction route is too slow at N = 32 with n = 10, so these larger
# keys are checked against the matrix route only.
@pytest.mark.parametrize(
    "config",
    [
        ("2/(4x4)", 10, 5, {"rows": 6, "cols": 4}),
        ("2/4/4", 9, 4, None),
        ("8/4", 13, 8, None),
        ("8/4", 16, 11, None),
    ],
)
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=5, deadline=None)
def test_regular_counts_match_matrix_route(config, seed):
    expr, n, l0, split = config
    b = parse_structure(expr)
    t = template_for(b, n, l0, split)
    gs = random_generator_set(
        t, default_pools(t, False), np.random.default_rng(seed)
    )
    regular = RegularEvaluator(t, ()).table(gs.fills).b
    matrix = compute_Bki_matrix(expand_design(gs), strata_projectors(b)).b
    assert regular == matrix


@st.composite
def structure_exprs(draw, depth=3, max_units=32):
    """(expression, N) from S ::= INT | S "/" S | "(" S "x" S ")"."""
    kinds = ["int", "nest", "cross"] if depth > 1 and max_units >= 4 else ["int"]
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        n = draw(st.sampled_from([k for k in (2, 4, 8, 16, 32) if k <= max_units]))
        return str(n), n
    left, n_left = draw(structure_exprs(depth - 1, max_units // 2))
    right, n_right = draw(structure_exprs(depth - 1, max_units // n_left))
    expr = f"{left}/{right}" if kind == "nest" else f"({left}x{right})"
    return expr, n_left * n_right


def matrix_value(problem, assignment, sequence):
    """The W_G concatenation by the projector route, on exact_value's scale."""
    table = compute_Bki_matrix(
        problem.design_rows(assignment), strata_projectors(problem.structure)
    )
    scale = Fraction(problem.structure.N, problem.fraction_size)
    return tuple(v * scale for v in criterion_vector(table, sequence))


@given(
    shape=structure_exprs(),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=100, deadline=None)
def test_grammar_structure_values_match_matrix_route(shape, n, seed):
    expr, N = shape
    b = parse_structure(expr)
    assert b.N == N
    problem = NonregularProblem(b, n, pool=range(1 << n))
    sequence = admissible_subsets(b)
    problem.set_sequence(sequence)
    rng = np.random.default_rng(seed)
    assignment = tuple(int(v) for v in rng.integers(1 << n, size=N))
    assert problem.exact_value(assignment) == matrix_value(
        problem, assignment, sequence
    )


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=5, deadline=None)
def test_latin_and_fish_values_match_matrix_route(seed):
    rng = np.random.default_rng(seed)
    lat = latin16_structure()
    problem = NonregularProblem(lat, 6, pool=range(64))
    sequence = admissible_subsets(lat)
    problem.set_sequence(sequence)
    assignment = tuple(int(v) for v in rng.integers(64, size=16))
    assert problem.exact_value(assignment) == matrix_value(
        problem, assignment, sequence
    )
    # Crossed mode: 7 fixed blends times a searched 4-run sub-design.
    fish, _ = fish_patty_problem()
    sequence = [("U",), ("U", "C"), ("U", "R"), ("U", "C", "R")]
    fish.set_sequence(sequence)
    assignment = tuple(int(v) for v in rng.integers(8, size=4))
    assert fish.exact_value(assignment) == matrix_value(
        fish, assignment, sequence
    )


def brute_force_counts(t, fills):
    """Classify all 2^n effects by the infimum of their alias's owners."""
    b, nf = t.structure, len(t.structure.names)
    lookup = np.array([
        b.index(b.inf_name({o for c, o in enumerate(t.column_owner) if a >> c & 1}))
        for a in range(1 << t.n_basic)
    ])
    effects = np.arange(1 << t.n, dtype=np.int64)
    alias, lengths = np.zeros_like(effects), np.zeros_like(effects)
    for f, mask in enumerate(GeneratorSet(t, fills).alias_masks):
        alias ^= ((effects >> f) & 1) * mask
        lengths += (effects >> f) & 1
    flat = np.bincount((lookup[alias] + nf * (lengths - 1))[1:], minlength=nf * t.n)
    return flat.reshape(t.n, nf)


# Functions added in NumPy 2.0 or later; pyproject.toml allows 1.24.
NUMPY2_ONLY = (
    "bitwise_count", "concat", "unstack", "permute_dims", "matrix_transpose",
    "vecdot", "isdtype", "astype", "pow", "acos", "atan2",
)


def test_regular_route_needs_no_numpy2_functions(monkeypatch):
    t = template_for(parse_structure("8/4"), 13, 8)
    rng = np.random.default_rng(0)
    batch = [random_generator_set(t, default_pools(t, False), rng).fills for _ in range(3)]
    expected = np.array([brute_force_counts(t, f) for f in batch])
    pools, seq = default_pools(t, True), [("U",), ("B",)]
    seeded = run_algorithm3(t, pools, seq, S=4, T=3, q=QVector(1, 0, 1), seed=1)
    for name in NUMPY2_ONLY:
        monkeypatch.delattr(np, name, raising=False)
    evaluator = RegularEvaluator(t, seq)
    assert np.array_equal(evaluator.counts(batch), expected)
    assert np.array_equal(evaluator.counts(batch[0]), expected[0])
    again = run_algorithm3(t, pools, seq, S=4, T=3, q=QVector(1, 0, 1), seed=1)
    assert (again.best, again.value, again.trace) == (
        seeded.best, seeded.value, seeded.trace
    )


@st.composite
def regular_batches(draw):
    """A template on a grammar structure of depth <= 3 and N <= 32, a
    nesting chain a/b/c or a blocked strip-plot b/(r x c), with a feasible
    (n, l0), and a batch of 2-4 keys drawn from its full pools."""
    chain = draw(st.booleans())
    k = draw(st.integers(1, 3)) if chain else 3
    logs: list[int] = []
    for i in range(k):
        # Each size is a power of 2 >= 2, and their product is at most 32.
        logs.append(draw(st.integers(1, 5 - sum(logs) - (k - 1 - i))))
    if chain:
        b = parse_structure("/".join(str(1 << e) for e in logs))
        l0 = draw(st.integers(min_value=0, max_value=4))
        t = template_for(b, sum(logs) + l0, l0)
    else:
        l1, rp, cp = logs
        b = parse_structure(f"{1 << l1}/({1 << rp}x{1 << cp})")
        n1 = rp + l1 + draw(st.integers(min_value=0, max_value=2))
        n2 = cp + l1 + draw(st.integers(min_value=0, max_value=2))
        t = template_for(b, n1 + n2, n1 + n2 - rp - cp - l1, {"rows": n1, "cols": n2})
    key = st.tuples(*(st.integers(0, (1 << s.width) - 1) for s in t.slots))
    return t, draw(st.lists(key, min_size=2, max_size=4))


@given(regular_batches())
@settings(max_examples=100, deadline=None)
def test_batch_counts_match_matrix_route(case):
    t, batch = case
    evaluator = RegularEvaluator(t, ())
    strata = strata_projectors(t.structure)
    counts = evaluator.counts(batch)
    assert counts.shape == (len(batch), t.n, len(t.structure.names))
    for fills, c in zip(batch, counts):
        design = expand_design(GeneratorSet(t, fills))
        assert c.tolist() == [list(row) for row in compute_Bki_matrix(design, strata).b]
        # Row i of a batch is key i alone, as one tuple or a batch of one.
        assert np.array_equal(evaluator.counts(fills), c)
        assert np.array_equal(evaluator.counts([fills]), c[None])


# Past the matrix route's 16-factor limit, the 2^n enumeration is the check.
@pytest.mark.parametrize("n", [17, 18, 19])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_regular_counts_match_brute_force(n, seed):
    t = template_for(parse_structure("8/4"), n, n - 5)
    gs = random_generator_set(
        t, default_pools(t, False), np.random.default_rng(seed)
    )
    counts = RegularEvaluator(t, ()).counts(gs.fills)
    assert np.array_equal(counts, brute_force_counts(t, gs.fills))


@pytest.mark.parametrize(
    "config",
    [
        ("8/4", 13, 8, None),
        ("2/4/4", 9, 4, None),
        ("2/(4x4)", 10, 5, {"rows": 6, "cols": 4}),
    ],
)
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
def test_regular_counts_invariants(config, seed):
    expr, n, l0, split = config
    t = template_for(parse_structure(expr), n, l0, split)
    gs = random_generator_set(
        t, default_pools(t, False), np.random.default_rng(seed)
    )
    counts = RegularEvaluator(t, ()).counts(gs.fills)
    # Every length-k effect lies in exactly one stratum.
    assert counts.sum(axis=1).tolist() == [comb(n, k) for k in range(1, n + 1)]
    # The U stratum holds exactly the defining contrast subgroup.
    words = span_enumerate([w for kind, w, _ in gs.generator_words if kind == "U"])
    weights = [sum(w.bit_count() == k for w in words) for k in range(1, n + 1)]
    assert counts[:, t.structure.index("U")].tolist() == weights


@pytest.mark.parametrize("expr", ["8/4", "4/8", "2/16"])
@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
def test_complete_key_is_involution(expr, seed):
    # Complete two-level keys whose grouping rows star only basic unit
    # columns are involutions: K = I + L with L strictly triangular and
    # L^2 = 0, so K^2 = I over GF(2).  (Templates with several grouping
    # strata let a coarser generator star a finer grouping column, which
    # breaks the L^2 = 0 structure.)
    b = parse_structure(expr)
    t = template_for(b, 5, 0)
    gs = random_generator_set(
        t, default_pools(t, True), np.random.default_rng(seed)
    )
    kinv = gs.key_inverse_basic
    assert kinv.inverse().rows == kinv.rows


# ----- search-driver properties -----

@given(seed=st.integers(min_value=0, max_value=10**4))
@settings(max_examples=5, deadline=None)
def test_algorithm3_gb_monotone_any_seed(seed):
    b = parse_structure("8/4")
    t = template_for(b, 5, 0)
    pools = default_pools(t, True)
    seq = criterion_sequence(b, "forward")
    res = run_algorithm3(t, pools, seq, S=4, T=6, q=QVector(1, 0, 1), seed=seed)
    for (_, a), (_, c) in zip(res.trace, res.trace[1:]):
        assert compare_values(c, a) <= 0
    # every visited GB key stays invertible
    assert GeneratorSet(t, res.best).is_invertible()


@given(sig=st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=3))
def test_derived_variance_vectors_always_feasible(sig):
    b = parse_structure("8/4")
    sigma2 = {nm: Fraction(s) for nm, s in zip(b.names, sig)}
    assert stratum_variance(b, sigma2).is_feasible(b)
