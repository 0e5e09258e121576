"""Generalized word counts B_{k,i}, W(d), W_G(d), and comparison."""

from fractions import Fraction
from math import comb, inf

import numpy as np
import pytest

from mastrat.aberration import (
    DimensionMismatchError,
    InfeasibleXiError,
    NotAdmissibleError,
    compute_Bki_matrix,
    compute_W,
    compute_WG,
    criterion_vector,
    format_pattern,
    format_value,
    render_report,
    table_from_counts,
)
from mastrat.blocks import (
    BlockStructure,
    VarianceVector,
    parse_structure,
    strata_projectors,
)
from mastrat.fixtures import oa8_m, pb8
from mastrat.keys import template_for
from mastrat.search import RegularEvaluator, compare_values


def full_factorial(n):
    return np.array(
        [[1 - 2 * ((r >> f) & 1) for f in range(n)] for r in range(1 << n)]
    )


def blocked_2to5_table():
    b = parse_structure("8/4")
    t = template_for(b, 5, 0)
    # Fills (0, 1, 3) give the grouping words C, AD, ABE.
    return b, RegularEvaluator(t, ()).table((0, 1, 3))


# ----- matrix route -----

def test_full_factorial_zero_u_row():
    b = BlockStructure.unstructured(8)
    tab = compute_Bki_matrix(full_factorial(3), strata_projectors(b))
    assert tab.stratum_vector("U") == (0, 0, 0)


def test_pb8_pattern():
    b = BlockStructure.unstructured(8)
    tab = compute_Bki_matrix(pb8(), strata_projectors(b))
    assert tab.stratum_vector("U") == (0, 0, 7, 7, 0, 0, 1)


def test_oa8_m_pattern():
    b = BlockStructure.unstructured(8)
    tab = compute_Bki_matrix(oa8_m(), strata_projectors(b))
    assert tab.stratum_vector("U") == (0, 0, 4, 3, 0, 0)


def test_matrix_route_rejects_bad_entries():
    b = BlockStructure.unstructured(4)
    with pytest.raises(DimensionMismatchError):
        compute_Bki_matrix(np.zeros((4, 2), dtype=int), strata_projectors(b))


def test_matrix_route_rejects_row_mismatch():
    b = BlockStructure.unstructured(4)
    with pytest.raises(DimensionMismatchError):
        compute_Bki_matrix(full_factorial(3), strata_projectors(b))


def test_row_sum_conservation():
    # Projectors sum to the identity, so summing B_{k,i} over all strata
    # gives (1/N) * sum ||u_S||^2 = C(n,k) for any +/-1 table.
    b = parse_structure("8/4")
    rng = np.random.default_rng(7)
    d = 1 - 2 * rng.integers(0, 2, size=(32, 5))
    tab = compute_Bki_matrix(d, strata_projectors(b))
    for k in range(1, 6):
        assert sum(tab.b[k - 1]) == comb(5, k)


# ----- regular route -----

def test_blocked_2to5_counts():
    _, tab = blocked_2to5_table()
    assert tab.stratum_vector("B") == (1, 1, 3, 2, 0)
    assert tab.stratum_vector("U") == (0, 0, 0, 0, 0)


def test_empty_counts_zero_table():
    b = parse_structure("8/4")
    tab = table_from_counts(b, 5, {})
    assert all(v == 0 for row in tab.b for v in row[:-1])


def test_table_from_counts_matches_report_row():
    # Frozen stratum histograms of a known 2^(13-8) blocked design.
    g1 = [0, 0, 0, 55, 0, 96, 0, 87, 0, 16, 0, 1, 0]
    g2 = [0, 36, 0, 365, 0, 848, 0, 651, 0, 140, 0, 7, 0]
    b = parse_structure("8/4")
    tab = table_from_counts(
        b, 13, {"U": g1, "B": [x - y for x, y in zip(g2, g1)]}
    )
    assert compute_WG(tab, ("U",)) == tuple(Fraction(v) for v in g1)
    assert compute_WG(tab, ("U", "B")) == tuple(Fraction(v) for v in g2)


# ----- W(d) -----

def test_W_all_xi_equal_is_zero():
    _, tab = blocked_2to5_table()
    xi = VarianceVector({"U": Fraction(3), "B": Fraction(3), "E": Fraction(3)})
    assert compute_W(tab, xi) == (0,) * 5


def test_W_weighted_example():
    _, tab = blocked_2to5_table()
    xi = VarianceVector({"U": inf, "B": Fraction(9), "E": Fraction(1)})
    w = Fraction(8, 9)  # 1/xi_E - 1/xi_B
    assert compute_W(tab, xi) == tuple(w * v for v in tab.stratum_vector("B"))


def test_W_infinite_finest_rejected():
    _, tab = blocked_2to5_table()
    xi = VarianceVector({"U": inf, "B": inf, "E": inf})
    with pytest.raises(InfeasibleXiError):
        compute_W(tab, xi)


def test_W_infeasible_ordering_rejected():
    _, tab = blocked_2to5_table()
    xi = VarianceVector({"U": Fraction(1), "B": Fraction(2), "E": Fraction(9)})
    with pytest.raises(InfeasibleXiError):
        compute_W(tab, xi)


# ----- W_G -----

def test_WG_rejects_finest():
    _, tab = blocked_2to5_table()
    with pytest.raises(NotAdmissibleError):
        compute_WG(tab, ("U", "E"))


def test_WG_rejects_not_upward_closed():
    b = parse_structure("2/4/4")
    tab = table_from_counts(b, 5, {})
    with pytest.raises(NotAdmissibleError):
        compute_WG(tab, ("U", "T"))  # missing the coarser mid stratum


def test_WG_full_factorial_zero():
    b = BlockStructure.unstructured(8)
    tab = compute_Bki_matrix(full_factorial(3), strata_projectors(b))
    assert compute_WG(tab, ("U",)) == (0, 0, 0)


def test_criterion_vector_concatenates():
    _, tab = blocked_2to5_table()
    v = criterion_vector(tab, [("U",), ("U", "B")])
    assert v == compute_WG(tab, ("U",)) + compute_WG(tab, ("U", "B"))


# ----- compare -----

def test_compare_backward_head():
    d1 = tuple(map(Fraction, (0, 22, 80, 163)))
    d3 = tuple(map(Fraction, (0, 30, 36, 255)))
    assert compare_values(d1, d3) == -1


def test_compare_forward_head():
    d2 = tuple(map(Fraction, (0, 0, 0, 55)))
    d3 = tuple(map(Fraction, (0, 0, 4, 38)))
    assert compare_values(d2, d3) == -1 and compare_values(d3, d2) == 1


def test_compare_equal_and_mismatch():
    v = (Fraction(1), Fraction(2))
    assert compare_values(v, v) == 0
    with pytest.raises(ValueError):
        compare_values(v, v + (Fraction(0),))


def test_compare_total_order_sorting():
    vs = [(Fraction(1),), (Fraction(0),), (Fraction(2),)]
    assert sorted(vs) == [(Fraction(0),), (Fraction(1),), (Fraction(2),)]


# ----- rendering -----

def test_format_value():
    assert format_value(Fraction(7, 4)) == "1.75"
    assert format_value(Fraction(3)) == "3"
    assert format_value(Fraction(3, 56)) == "0.05357"


def test_format_pattern():
    assert format_pattern([Fraction(0), Fraction(7, 4)]) == "{0, 1.75}"


def test_render_report_lines():
    _, tab = blocked_2to5_table()
    out = render_report(tab, [("U",), ("U", "B")])
    lines = out.splitlines()
    assert lines[0] == "G1-MA {0, 0, 0, 0, 0}"
    assert lines[1] == "G2-MA {1, 1, 3, 2, 0}"
