"""Design-key templates, pools, generator sets, and design expansion."""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from mastrat.blocks import BlockStructure, parse_structure
from mastrat.keys import (
    ExhaustedRetriesError,
    GeneratorSet,
    InfeasibleTemplateError,
    PoolMatrix,
    check_pool_widths,
    default_pools,
    expand_design,
    letters_for,
    pool_for,
    random_generator_set,
    template_for,
)
from mastrat.search import RegularEvaluator


# ----- templates -----

def test_blocked_2to5_template():
    b = parse_structure("8/4")
    t = template_for(b, 5, 0)
    assert [s.role for s in t.slots] == ["stratum"] * 3
    assert all(s.pool_key == "B" and s.width == 2 for s in t.slots)
    assert t.n_basic == 5 and 1 << t.n_basic == 32


def test_chain_with_mid_strata_template():
    b = parse_structure("2/4/2")
    t = template_for(b, 5, 1)
    roles = [(s.role, s.pool_key, s.width) for s in t.slots]
    assert roles == [
        ("stratum", "T", 1),
        ("stratum", "T", 1),
        ("stratum", "B", 3),
        ("u", "U", 4),
    ]


def test_chain_mid_pools_star_finer_columns():
    # Coarser mid strata may star every strictly finer column, so the
    # B family is wider than the T family.
    b = parse_structure("2/4/4")
    t = template_for(b, 5, 0)
    pools = default_pools(t, False)
    assert {k: len(p.rows) for k, p in pools.items()} == {"T": 4, "B": 16}


def test_fractional_template_pools():
    t = template_for(parse_structure("8/4"), 13, 8)
    pools = default_pools(t, True)
    assert pools["B"].rows == (1, 2, 3)
    assert pools["U"].width == 5 and len(pools["U"].rows) == 26
    assert all(r.bit_count() >= 2 for r in pools["U"].rows)


def test_template_infeasible_sizes():
    with pytest.raises(InfeasibleTemplateError):
        template_for(parse_structure("8/4"), 5, 1)  # needs 5 basics


def test_strip_template_needs_split():
    b = parse_structure("2/(4x4)")
    with pytest.raises(InfeasibleTemplateError):
        template_for(b, 10, 5)


@pytest.mark.parametrize("stars", [(0, 1, 2), (0, 1, 3)])
def test_template_rejects_non_triangular_stratum_slot(stars):
    # The first block generator owns column 2; starring it or a later
    # column could make the key singular.
    t = template_for(parse_structure("8/4"), 5, 0)
    bad = replace(t.slots[0], star_positions=stars)
    with pytest.raises(InfeasibleTemplateError):
        replace(t, slots=(bad,) + t.slots[1:])


def test_template_rejects_shared_stratum_column():
    t = template_for(parse_structure("8/4"), 5, 0)
    with pytest.raises(InfeasibleTemplateError):
        replace(t, slots=(t.slots[0], t.slots[0], t.slots[2]))


@pytest.mark.parametrize(
    "expr, n, l0, split",
    [("2/4/2", 5, 1, None), ("2/(4x4)", 7, 2, {"rows": 3, "cols": 4})],
)
def test_every_template_fill_is_invertible(expr, n, l0, split):
    t = template_for(parse_structure(expr), n, l0, split)
    pools = default_pools(t, False)
    rows = [pools[s.pool_key].rows for s in t.slots]
    for fills in product(*rows):
        assert GeneratorSet(t, fills).is_invertible()


def test_strip_template_layout():
    b = parse_structure("2/(4x4)")
    t = template_for(b, 10, 5, {"rows": 6, "cols": 4})
    kinds = [(s.role, s.pool_key) for s in t.slots]
    assert kinds == [
        ("stratum", "B"),
        ("colblock", "Bc"),
        ("u", "Ur"),
        ("u", "Ur"),
        ("u", "Ur"),
        ("u", "Uc"),
    ]
    # One shared treatment generator joins the row and column grouping words.
    assert len(t.shared_u) == 1
    assert t.stratum_alias_counts == {"R": 3, "C": 1}


# ----- pools -----

def test_full_width2_pool():
    t = template_for(parse_structure("8/4"), 5, 0)
    assert pool_for(t, "B", False).rows == (0, 1, 2, 3)


def test_reduced_pool_subset_of_full():
    t = template_for(parse_structure("8/4"), 13, 8)
    for key in t.pool_slots:
        full = set(pool_for(t, key, False).rows)
        red = set(pool_for(t, key, True).rows)
        assert red < full


def test_pool_unknown_key():
    t = template_for(parse_structure("8/4"), 5, 0)
    with pytest.raises(KeyError):
        pool_for(t, "Z", True)


def test_check_pool_widths():
    t = template_for(parse_structure("8/4"), 5, 0)
    with pytest.raises(ValueError):
        check_pool_widths(t, {"B": PoolMatrix("B", 3, (1, 2), True)})


# ----- generator sets / algorithms -----

def test_blocked_generator_words():
    t = template_for(parse_structure("8/4"), 5, 0)
    gs = GeneratorSet(t, (0, 1, 3))
    words = [gs.word_letters(w) for _, w, _ in gs.generator_words]
    assert words == ["C", "AD", "ABE"]
    assert gs.is_invertible()


def test_random_generator_set_deterministic():
    t = template_for(parse_structure("8/4"), 5, 0)
    pools = default_pools(t, True)
    a = random_generator_set(t, pools, np.random.default_rng(9))
    b = random_generator_set(t, pools, np.random.default_rng(9))
    assert a.fills == b.fills


def test_random_generator_set_fills_every_slot():
    # Complete templates have stratum slots only; fractional ones add one
    # treatment slot per added factor, filled from the same stream.
    b = parse_structure("8/4")
    for n, l0 in ((5, 0), (13, 8)):
        t = template_for(b, n, l0)
        pools = default_pools(t, True)
        gs = random_generator_set(t, pools, np.random.default_rng(4))
        assert len(gs.fills) == len(t.slots) == 3 + l0
        assert all(f in pools[s.pool_key].rows for s, f in zip(t.slots, gs.fills))
        assert sum(s.role == "u" for s in t.slots) == l0


def test_exhausted_retries_on_degenerate_pool():
    t = template_for(parse_structure("8/4"), 5, 0)
    # A single admissible fill cannot supply three distinct rows.
    pools = {"B": PoolMatrix("B", 2, (1,), True)}
    with pytest.raises(ExhaustedRetriesError):
        random_generator_set(
            t, pools, np.random.default_rng(0), distinct_within_stratum=True
        )


def test_distinct_within_stratum():
    t = template_for(parse_structure("8/4"), 5, 0)
    pools = default_pools(t, True)
    gs = random_generator_set(
        t, pools, np.random.default_rng(1), distinct_within_stratum=True
    )
    assert len(set(gs.fills)) == 3


# ----- expansion -----

def test_expand_identity_key():
    b = BlockStructure.unstructured(4)
    t = template_for(b, 2, 0)
    d = expand_design(GeneratorSet(t, ()))
    expect = np.array(
        [[1 - 2 * (u & 1), 1 - 2 * ((u >> 1) & 1)] for u in range(4)]
    )
    assert np.array_equal(d, expect)


def test_expand_roundtrip_key_inverse():
    t = template_for(parse_structure("8/4"), 5, 0)
    gs = GeneratorSet(t, (0, 1, 3))
    d = expand_design(gs, signed=False)
    kinv = gs.key_inverse_basic
    coords = np.array(t.column_coords) % 2
    # Y = K^{-1} X must reproduce the unit pseudo-factor coordinates.
    x = d
    for u in range(32):
        mask = int(sum(int(x[u, j]) << j for j in range(5)))
        y = kinv.mul_vector(mask)
        assert tuple((y >> c) & 1 for c in range(5)) == tuple(coords[u])


def test_expand_fraction_distinct_runs():
    t = template_for(parse_structure("2/4/2"), 5, 1)
    pools = default_pools(t, True)
    gs = random_generator_set(t, pools, np.random.default_rng(5))
    d = expand_design(gs)
    rows = {tuple(r) for r in d}
    assert len(rows) == 16  # 2^(n - l0) distinct combinations on 16 units


def test_expand_strip_row_factor_constancy():
    b = parse_structure("2/(4x4)")
    t = template_for(b, 10, 5, {"rows": 6, "cols": 4})
    gs = random_generator_set(t, default_pools(t, True), np.random.default_rng(3))
    d = expand_design(gs)
    classes = b.factor("R").classes
    for c in range(b.factor("R").n_classes):
        rows = {tuple(d[u][:6]) for u in range(32) if classes[u] == c}
        assert len(rows) == 1  # row factors constant within each row class


# ----- word counts per stratum -----

def test_words_by_stratum_blocked():
    b = parse_structure("8/4")
    t = template_for(b, 5, 0)
    gs = GeneratorSet(t, (0, 1, 3))
    # Effects aliased into the block stratum by the words C, AD and ABE.
    b_words = ["C", "AD", "ABE", "ACD", "BDE", "ABCE", "BCDE"]
    hist = [sum(len(w) == k for w in b_words) for k in range(1, 6)]
    assert hist == [1, 1, 3, 2, 0]
    tab = RegularEvaluator(t, ()).table(gs.fills)
    assert tab.stratum_vector("B") == tuple(hist)
    assert tab.stratum_vector("U") == (0, 0, 0, 0, 0)


def test_words_partition_count():
    t = template_for(parse_structure("2/4/2"), 5, 1)
    gs = random_generator_set(t, default_pools(t, True), np.random.default_rng(8))
    c = RegularEvaluator(t, ()).counts(gs.fills)
    # Every nonzero treatment effect lands in exactly one stratum.
    assert c.sum() == 2**5 - 1


def test_fractional_words_include_treatment_stratum():
    t = template_for(parse_structure("2/4/2"), 5, 1)
    gs = random_generator_set(t, default_pools(t, True), np.random.default_rng(8))
    u = RegularEvaluator(t, ()).counts(gs.fills)[:, t.structure.index("U")]
    # Reduced pools: the defining words have length >= 3.
    assert u.sum() >= 1 and not u[:2].any()


def test_reduced_pool_generator_length_floor():
    # Reduced pools: every treatment generator word has length >= 3 and no
    # grouping generator is a bare stratum column.
    t = template_for(parse_structure("8/4"), 13, 8)
    gs = random_generator_set(t, default_pools(t, True), np.random.default_rng(2))
    for kind, word, _ in gs.generator_words:
        if kind == "U":
            assert int(word).bit_count() >= 3
        else:
            assert int(word).bit_count() >= 2  # stratum column plus >= 1 star


def test_letters():
    assert letters_for(3) == ("A", "B", "C")
    with pytest.raises(ValueError):
        letters_for(99)
