"""Exact row reduction over Q(zeta_m): ranks, span membership and residues
on rows that mix rational and irrational entries, and a rank oracle
against sympy on random small matrices.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetva.cyclo import CycScalar
from jetva.linalg import RowReducer


def row(m, entries):
    """A row typed over CycScalar from column -> int, Fraction or CycScalar."""
    return {c: CycScalar.coerce(m, v) for c, v in entries.items()}


def test_mixed_rows_order_3():
    m = 3
    z = CycScalar.zeta(m)
    red = RowReducer(m)
    r1 = {0: 1, 1: z, 3: Fraction(1, 2)}
    r2 = {0: 2, 2: 1}
    assert red.add(row(m, r1))
    assert red.add(row(m, r2))
    # z * r1 - (1/3) r2 mixes an irrational row with a rational one
    combo = {0: z - Fraction(2, 3), 1: z * z, 2: Fraction(-1, 3), 3: z * Fraction(1, 2)}
    assert not red.add(row(m, combo))
    assert red.rank == 2
    assert red.add(row(m, {1: 1, 2: z}))
    assert red.rank == 3


def test_mixed_rows_order_4_depend_over_gaussian_rationals():
    # (1, i) and (i, -1) are independent over Q but dependent over Q(i)
    m = 4
    i = CycScalar.zeta(m)
    red = RowReducer(m)
    assert red.add(row(m, {0: 1, 1: i}))
    assert red.contains(row(m, {0: i, 1: -1}))
    assert not red.add(row(m, {0: i, 1: -1}))
    assert red.add(row(m, {0: 3, 2: i + 1}))
    assert red.rank == 2
    assert red.contains(row(m, {0: 4, 1: i, 2: i + 1}))
    assert not red.contains(row(m, {0: 4, 1: 1, 2: i + 1}))


def test_contains_and_residues():
    m = 3
    z = CycScalar.zeta(m)
    red = RowReducer(m)
    red.add(row(m, {0: 1, 1: 1}))
    red.add(row(m, {1: 2, 2: -1}))
    # rational rows give rational CycScalar residues
    res = red.reduce(row(m, {0: 3, 2: 5}))
    assert res == {2: CycScalar.from_rational(m, Fraction(7, 2))}
    assert all(type(v) is CycScalar for v in res.values())
    # and an irrational entry gives an irrational one
    res = red.reduce(row(m, {0: 2, 1: z}))
    assert res == {2: (z - 2) * Fraction(1, 2)}
    assert red.contains(row(m, {0: 1, 1: 3, 2: -1}))
    assert not red.contains(row(m, {2: z}))
    assert red.reduce(row(m, {})) == {}
    assert red.contains({0: CycScalar.zero(m)})
    assert red.rank == 2  # queries do not insert


def test_pivot_with_irrational_lead():
    m = 3
    z = CycScalar.zeta(m)
    red = RowReducer(m)
    assert red.add(row(m, {0: z, 1: 1}))
    # the stored pivot is normalised to 1 at its lead: 1/zeta = zeta^2
    assert red.pivots[0] == {0: CycScalar.one(m), 1: z * z}
    assert red.contains(row(m, {0: 1, 1: z * z}))
    assert red.contains(row(m, {0: 5 * z * z, 1: 5 * z}))
    assert red.reduce(row(m, {0: 1, 1: 1})) == {1: 1 - z * z}
    assert red.add(row(m, {0: 1, 1: 1}))
    assert red.contains(row(m, {1: 7}))


def _rational_matrices():
    entry = st.one_of(
        st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(entry, min_size=cols, max_size=cols), min_size=0, max_size=6
        )
    )


def test_rank_matches_sympy_on_rational_matrices():
    sympy = pytest.importorskip("sympy")

    @settings(max_examples=80, deadline=None)
    @given(rows=_rational_matrices(), m=st.sampled_from([1, 3, 4]))
    def check(rows, m):
        red = RowReducer(m)
        gained = sum(red.add(row(m, dict(enumerate(r)))) for r in rows)
        matrix = sympy.Matrix(
            [[sympy.Rational(q.numerator, q.denominator) for q in map(Fraction, r)]
             for r in rows]
        )
        want = matrix.rank() if rows else 0
        assert gained == red.rank == want
        for r in rows:
            assert red.contains(row(m, dict(enumerate(r))))

    check()


# ---------------------------------------------------------------------------
# one scalar type: every stored or returned entry is a CycScalar of the order


def assert_one_scalar_type(red, residues):
    entries = [v for piv in red.pivots.values() for v in piv.values()]
    entries += [v for res in residues for v in res.values()]
    assert all(type(v) is CycScalar and v.order == red.order for v in entries)


def _insert_all(m, rows):
    """Reduce each row, then insert it: the residues met on the way."""
    red = RowReducer(m)
    residues = []
    for r in rows:
        residues.append(red.reduce(r))
        red.add(r)
    return red, residues


def test_rational_rows_keep_cycscalar_entries():
    @settings(max_examples=60, deadline=None)
    @given(rows=_rational_matrices(), m=st.sampled_from([1, 3, 4]))
    def check(rows, m):
        red, residues = _insert_all(m, [row(m, dict(enumerate(r))) for r in rows])
        assert_one_scalar_type(red, residues)

    check()


def _mixed_rows(m):
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entry = st.one_of(
        st.just(0),
        coord,
        st.lists(coord, min_size=2, max_size=2).map(lambda cs: CycScalar(m, cs)),
    )
    return st.lists(
        st.lists(entry, min_size=4, max_size=4), min_size=1, max_size=6
    ).map(lambda rows: [row(m, dict(enumerate(r))) for r in rows])


@pytest.mark.parametrize("m", [3, 4])
def test_mixed_rows_keep_cycscalar_entries(m):
    @settings(max_examples=40, deadline=None)
    @given(rows=_mixed_rows(m))
    def check(rows):
        red, residues = _insert_all(m, rows)
        assert_one_scalar_type(red, residues)
        assert all(red.contains(r) for r in rows)

    check()
