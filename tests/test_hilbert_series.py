"""Bounded tables of (twisted) arc algebras of a fat point against Hilbert
series known in closed form, computed here by a few lines of integer code
that share nothing with the elimination.

- The arc algebra of x^k = 0, graded by q^(weight + degree), has the
  Andrews–Gordon product prod_{i != 0, +-k mod 2k+1} 1/(1 - q^i); k = 2 is
  Rogers–Ramanujan (Bruschek–Mourtada–Schepers, Ramanujan J. 30, 2013).
- Its twisted analogue at order m and exponent a, graded by q^(m weight),
  counts partitions into parts = -a mod m in which consecutive allowed
  parts occur f_i + f_(i+1) <= k - 1 times together.

The generators are homogeneous in both weight and degree, so each entry of
the box is exact as soon as the box contains it.
"""

from collections import Counter
from fractions import Fraction

import pytest

from jetva.jetpoly import JetPoly
from jetva.jetscheme import (
    DiagAutomorphism,
    SchemeSpec,
    graded_quotient_dims,
    jet_generators,
    twisted_jet_generators,
)


def _andrews_gordon(k, N):
    """Coefficients of q^0..q^N of prod_{i != 0, +-k mod 2k+1} 1/(1 - q^i)."""
    series = [1] + [0] * N
    for i in range(1, N + 1):
        if i % (2 * k + 1) not in (0, k, k + 1):
            for n in range(i, N + 1):
                series[n] += series[n - i]
    return series


def _restricted_partitions(k, m, a, N):
    """Partitions of 0..N into parts = -a mod m with f_i + f_(i+1) <= k - 1
    for consecutive allowed parts i < i+1."""
    # (total, multiplicity of the previous allowed part) -> count
    states = Counter({(0, 0): 1})
    for part in range(1, N + 1):
        if (part + a) % m:
            continue
        grown = Counter()
        for (total, prev), count in states.items():
            for f in range(k - prev):
                if total + f * part > N:
                    break
                grown[(total + f * part, f)] += count
        states = grown
    series = [0] * (N + 1)
    for (total, _), count in states.items():
        series[total] += count
    return series


@pytest.mark.parametrize("k, N", [(2, 12), (3, 9), (4, 8)])
def test_fat_point_arcs_have_the_andrews_gordon_series(k, N):
    spec = SchemeSpec.of(1, 1, [JetPoly.var(1, 1) ** k])
    pres = jet_generators(spec, N)
    dims = graded_quotient_dims(
        1, pres.variables, [g.poly for g in pres.generators], N, N
    )
    series = [0] * (N + 1)
    for (w, d), dim in dims.items():
        if w + d <= N:
            series[int(w) + d] += dim
    assert series == _andrews_gordon(k, N)


@pytest.mark.parametrize(
    "k, m, a, N",
    [(2, 2, 1, 12), (2, 3, 1, 12), (2, 3, 2, 12), (3, 4, 1, 12), (3, 2, 1, 10)],
)
def test_twisted_fat_point_arcs_count_restricted_partitions(k, m, a, N):
    spec = SchemeSpec.of(m, 1, [JetPoly.var(m, 1) ** k])
    pres = twisted_jet_generators(spec, DiagAutomorphism(m, (a,)), Fraction(N, m))
    dims = graded_quotient_dims(
        m, pres.variables, [g.poly for g in pres.generators], Fraction(N, m), N
    )
    series = [0] * (N + 1)
    for (w, _), dim in dims.items():
        series[int(w * m)] += dim
    assert series == _restricted_partitions(k, m, a, N)
