"""Twisted jet tables of cyclic permutation orbifolds against the untwisted
jet tables of one factor.

Let sigma permute the n factors of Z^n cyclically.  A sigma-twisted arc of
Z^n is one arc f of Z read at t^(1/n), x_j(t) = f(zeta_n^j t^(1/n)), so
C[J^sigma(Z^n)] is C[JZ] with each weight w sent to n*w and each degree
kept (Barron-Dong-Mason, Comm. Math. Phys. 227, 2002, in the commutative
case).  So the twisted table at (W, D) is Z's own table at (nW, D), entry
by entry.

sigma is not diagonal, but the coordinates y_(i,k) = sum_j zeta^(-jk)
x_(i,j) diagonalise it, y_(i,k) with exponent k.  With x_(i,j) = (1/n)
sum_k zeta^(jk) y_(i,k), a term c*x_(i_1)...x_(i_d) of a relation of Z,
summed over the copies j against zeta^(-jl), is n^(1-d) times the sum of
c*y_(i_1,k_1)...y_(i_d,k_d) over every (k_1, ..., k_d) with sum k_t = l
mod n: one relation of Z^n for each l in Z/n, with rational coefficients.
The helpers write those relations as text; they share nothing with the
package but the parser.  Z's side takes the T route of ``jet_generators``.

The fixed points of sigma on Z^n are the diagonal copy of Z, so the main
theorem puts Z's own ring in weight 0 of the coinvariant table of Z^n
under sigma, and 0 in every positive weight.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from jetva.coinv import OrbiSetup, coinvariant_dims
from jetva.jetpoly import jet_var
from jetva.jetscheme import (
    DiagAutomorphism,
    SchemeSpec,
    graded_quotient_dims,
    jet_generators,
    twisted_jet_generators,
)
from jetva.parse import parse_expression


def _text(terms, name):
    """A relation given as [(c, (i_1, ..., i_d))], its factors named by
    name(i), as text the parser reads."""
    return " + ".join(
        f"({c})" + "".join(f"*{name(i)}" for i in factors) for c, factors in terms
    )


def _dft_relations(relations, n):
    """The relations of Z^n in the coordinates y_(i,k), named y1, y2, ...
    with y_(i,k) the ((i-1)*n + k + 1)-th, each given as text."""
    out = []
    for terms in relations:
        for l in range(n):
            acc = Counter()
            for c, factors in terms:
                for ks in product(range(n), repeat=len(factors)):
                    if sum(ks) % n == l:
                        y = tuple(sorted((i - 1) * n + k + 1 for i, k in zip(factors, ks)))
                        acc[y] += Fraction(c) * Fraction(n) ** (1 - len(factors))
            kept = [(c, y) for y, c in acc.items() if c]
            if kept:
                out.append(_text(kept, lambda j: f"y{j}"))
    return out


def _table(order, pres, W, D):
    return graded_quotient_dims(
        order, pres.variables, [g.poly for g in pres.generators], W, D
    )


def _factor(relations, r):
    """Z, on r coordinates, with no symmetry."""
    names = [f"x{i}" for i in range(1, r + 1)]
    return SchemeSpec.of(
        1, r, [parse_expression(_text(t, lambda i: f"x{i}"), 1, names) for t in relations]
    )


def _orbifold(relations, r, n, dft=None):
    """Z^n in the coordinates y_(i,k), with sigma as the diagonal symmetry
    y_(i,k) -> zeta_n^k y_(i,k).  ``dft`` replaces the relations of Z^n."""
    texts = _dft_relations(relations, n) if dft is None else dft
    ynames = [f"y{j}" for j in range(1, r * n + 1)]
    spec = SchemeSpec.of(n, r * n, [parse_expression(t, n, ynames) for t in texts])
    return spec, DiagAutomorphism(n, tuple(k for _ in range(r) for k in range(n)))


def _tables(relations, r, n, W, D, dft=None):
    """Z's table at (nW, D), and the twisted table of Z^n at (W, D) with
    each weight w read as n*w.  ``dft`` replaces the relations of Z^n."""
    plain = _table(1, jet_generators(_factor(relations, r), n * W), n * W, D)
    spec, g = _orbifold(relations, r, n, dft)
    twisted = _table(n, twisted_jet_generators(spec, g, W), W, D)
    return plain, {(n * w, d): dim for (w, d), dim in twisted.items()}


FAT_POINT = [[(1, (1, 1))]]  # x^2
PARABOLA = [[(1, (1, 1)), (-1, (2,))]]  # x1^2 - x2


_CASES = [
    pytest.param(FAT_POINT, 1, 2, 4, 6, 63, id="x^2-n2"),
    pytest.param(FAT_POINT, 1, 3, 4, 8, 117, id="x^2-n3"),
    pytest.param(FAT_POINT, 1, 4, 3, 8, 117, id="x^2-n4"),
    pytest.param(FAT_POINT, 1, 6, 2, 6, 91, id="x^2-n6"),
    pytest.param([[(1, (1, 1, 1))]], 1, 2, 4, 6, 63, id="x^3-n2"),
    pytest.param([[(1, (1, 1, 1, 1))]], 1, 2, 3, 6, 49, id="x^4-n2"),
    pytest.param(PARABOLA, 2, 2, 3, 4, 35, id="parabola-n2"),
    pytest.param(PARABOLA, 2, 3, 2, 4, 35, id="parabola-n3"),
    pytest.param([[(1, (1, 1, 1)), (-1, (2, 2))]], 2, 2, 5, 6, 77, id="cusp-n2"),
    pytest.param([[(1, (1, 1))], [(1, (1, 2))]], 2, 2, 3, 5, 42, id="x1^2,x1x2-n2"),
]


@pytest.mark.parametrize("relations, r, n, W, D, entries", _CASES)
def test_twisted_table_of_a_permutation_orbifold_is_one_factors_table(
    relations, r, n, W, D, entries
):
    plain, twisted = _tables(relations, r, n, W, D)
    assert len(twisted) == entries
    assert twisted == plain


@pytest.mark.parametrize(
    "relations, r, n", [pytest.param(*case.values[:3], id=case.id) for case in _CASES]
)
def test_coinvariants_of_a_permutation_orbifold_are_the_ring_of_one_factor(
    relations, r, n
):
    # The main theorem on Z^n / sigma at W = 2, D = 4: in weight 0 the
    # coinvariants are the ring of the fixed points, the diagonal copy of
    # Z, and every entry of positive weight is 0.
    W, D = 2, 4
    z = _factor(relations, r)
    level0 = tuple(jet_var(i, 0) for i in z.variables)
    ring = graded_quotient_dims(1, level0, list(z.relations), 0, D)
    spec, g = _orbifold(relations, r, n)
    dims = coinvariant_dims(OrbiSetup(spec, g, W, D))
    assert [dims[(0, d)] for d in range(D + 1)] == [ring[(0, d)] for d in range(D + 1)]
    positive = [v for (w, _), v in dims.items() if w > 0]
    assert positive and not any(positive)


def test_dft_relations_of_the_fat_point():
    # the three convolutions of x^2 at n = 3, as the docstring derives them
    assert _dft_relations(FAT_POINT, 3) == [
        "(1/3)*y1*y1 + (2/3)*y2*y3",
        "(2/3)*y1*y2 + (1/3)*y3*y3",
        "(2/3)*y1*y3 + (1/3)*y2*y2",
    ]


def test_a_wrong_convolution_changes_the_table():
    # x^2 at n = 2 with its relation y1*y2 replaced by y1*y2^2
    first, second = _dft_relations(FAT_POINT, 2)
    assert second == "(1)*y1*y2"
    plain, twisted = _tables(FAT_POINT, 1, 2, 4, 6, dft=[first, "(1)*y1*y2*y2"])
    assert twisted.keys() == plain.keys()
    assert sum(twisted[key] != plain[key] for key in plain) == 9
