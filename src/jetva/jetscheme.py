"""Jet schemes and twisted jet schemes of affine schemes, presented exactly.

A scheme Z = V(P_1, ..., P_r) inside affine k-space is given by level-0 jet
polynomials.  Its jet scheme coordinate ring is the quotient of the free jet
polynomial ring by the generators P[i,n]; this module computes those
generators two independent ways (iterated translation derivation vs.
coefficient extraction from the jet substitution), their twisted analogues
for a diagonal automorphism of finite order, the fixed-point subscheme, and
exact bigraded dimension tables of bounded quotients.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from fractions import Fraction

from .cyclo import CycScalar
from .jetpoly import (
    JetPoly,
    JetVar,
    Monomial,
    _mono_key,
    admissible_levels,
    apply_automorphism,
    jet_var,
    substitute_jets,
    translation_series,
)
from .linalg import RowReducer


class IdealNotPreservedError(ValueError):
    """The diagonal action does not map the relation span to itself."""


@dataclasses.dataclass(frozen=True)
class SchemeSpec:
    """An affine scheme: variable indices plus level-0 relations."""

    order: int
    variables: tuple[int, ...]
    relations: tuple[JetPoly, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable indices")
        if any(i < 1 for i in self.variables):
            raise ValueError("variable indices are 1-based")
        allowed = set(self.variables)
        for p in self.relations:
            if p.order != self.order:
                raise ValueError("relation coefficient order does not match scheme")
            if not p.is_level_zero():
                raise ValueError("relations must be level-0 polynomials")
            if any(v.index not in allowed or v.point != 0 for v in p.variables()):
                raise ValueError("relation uses a variable outside the scheme")

    @classmethod
    def of(cls, order: int, k: int, relations) -> SchemeSpec:
        return cls(order, tuple(range(1, k + 1)), tuple(relations))

    @property
    def k(self) -> int:
        return len(self.variables)


@dataclasses.dataclass(frozen=True)
class DiagAutomorphism:
    """x_i -> zeta_m^(alpha_i) x_i, exponents aligned with spec.variables."""

    order: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if any(not (0 <= a < self.order) for a in self.exponents):
            raise ValueError("exponents must lie in 0..order-1")

    def inverse(self) -> DiagAutomorphism:
        return DiagAutomorphism(
            self.order, tuple((-a) % self.order for a in self.exponents)
        )

    def offsets(self, spec: SchemeSpec) -> dict[int, Fraction]:
        """Coset offset alpha_i/m in [0,1) for each variable index."""
        return {
            idx: Fraction(a, self.order)
            for idx, a in zip(spec.variables, self.exponents)
        }

    def alpha_by_index(self, spec: SchemeSpec) -> list[int]:
        """Exponent list positioned by variable index (for character sums)."""
        top = max(spec.variables, default=0)
        out = [0] * top
        for idx, a in zip(spec.variables, self.exponents):
            out[idx - 1] = a
        return out


def _poly_row(p: JetPoly, columns: dict[Monomial, int]) -> dict[int, CycScalar]:
    row = {}
    for mon, c in p.terms:
        if mon not in columns:
            columns[mon] = len(columns)
        row[columns[mon]] = c
    return row


def first_outside_span(order: int, basis, polys) -> int | None:
    """The position of the first of ``polys`` outside the span of
    ``basis``, or None when all lie in it.  A monomial that no basis
    polynomial has gets a column of its own that no pivot touches, so a
    polynomial with one is outside the span."""
    columns: dict[Monomial, int] = {}
    red = RowReducer(order)
    for p in basis:
        red.add(_poly_row(p, columns))
    for k, p in enumerate(polys):
        if not red.contains(_poly_row(p, columns)):
            return k
    return None


def preserves_ideal(spec: SchemeSpec, g: DiagAutomorphism) -> bool:
    """Does the diagonal action map span{P_1..P_r} into itself?"""
    if len(g.exponents) != spec.k:
        raise ValueError("exponent count does not match the scheme")
    if not spec.relations:
        return True
    alpha = g.alpha_by_index(spec)
    images = (apply_automorphism(alpha, p) for p in spec.relations)
    return first_outside_span(spec.order, spec.relations, images) is None


# ---------------------------------------------------------------------------
# jet generators
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class JetGenerator:
    weight: Fraction
    relation: int  # 1-based index into spec.relations
    poly: JetPoly


@dataclasses.dataclass(frozen=True)
class JetPresentation:
    variables: tuple[JetVar, ...]
    generators: tuple[JetGenerator, ...]


def _presentation_vars(spec, offsets, max_weight) -> tuple[JetVar, ...]:
    out = []
    for idx in spec.variables:
        for n in admissible_levels(offsets.get(idx, Fraction(0)), max_weight):
            out.append(jet_var(idx, n))
    return tuple(sorted(out))


def _expansion_generators(spec: SchemeSpec, expand) -> tuple[JetGenerator, ...]:
    """The coefficients of every relation's series ``expand(P)``, zeros
    dropped, sorted by weight, then relation."""
    gens = [
        JetGenerator(w, i, coeff)
        for i, p in enumerate(spec.relations, start=1)
        for w, coeff in expand(p).coeffs
    ]
    gens.sort(key=lambda gg: (gg.weight, gg.relation))
    return tuple(gens)


def jet_generators(
    spec: SchemeSpec, max_weight: int, method: str = "T_recursion"
) -> JetPresentation:
    """Untwisted jet ideal generators up to the given weight.

    Two routes are implemented and must agree: ``T_recursion`` reads the
    translation series e^(tT) P_i, whose t^n coefficient is P[i,n] =
    T(P[i,n-1])/n, while ``substitution`` expands P_i along the generic jet
    and reads off the t^n coefficient (the twisted expansion with every
    offset zero).  Exact zeros contribute nothing and are dropped.
    """
    if method not in ("T_recursion", "substitution"):
        raise ValueError(f"unknown method {method!r}")
    W = int(max_weight)
    if method == "substitution":
        gens = _expansion_generators(spec, lambda p: substitute_jets(p, {}, W))
    else:
        gens = _expansion_generators(spec, lambda p: translation_series(p, W))
    return JetPresentation(_presentation_vars(spec, {}, W), gens)


def twisted_jet_generators(
    spec: SchemeSpec, g: DiagAutomorphism, max_weight
) -> JetPresentation:
    """Generators of the g-twisted jet ideal: the t^w coefficients of the
    relations expanded along the twisted jet, for all lattice weights w in
    [0, max_weight] where a coefficient survives."""
    if not preserves_ideal(spec, g):
        raise IdealNotPreservedError(
            f"exponents {g.exponents} do not preserve the relation span"
        )
    W = Fraction(max_weight)
    offsets = g.offsets(spec)
    gens = _expansion_generators(spec, lambda p: substitute_jets(p, offsets, W))
    return JetPresentation(_presentation_vars(spec, offsets, W), gens)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------


def fixed_point_ring(spec: SchemeSpec, g: DiagAutomorphism) -> SchemeSpec:
    """Presentation of the fixed subscheme: keep the variables with trivial
    character, set the others to zero in every relation, drop zeros."""
    if len(g.exponents) != spec.k:
        raise ValueError("exponent count does not match the scheme")
    retained = tuple(
        idx
        for idx, a in zip(spec.variables, g.exponents)
        if a % g.order == 0
    )
    keep = set(retained)
    new_rel = []
    for p in spec.relations:
        acc = {}
        for mon, c in p.terms:
            if all(v.index in keep for v, _ in mon.factors):
                acc[mon] = c
        q = JetPoly._from_dict(p.order, acc)
        if not q.is_zero:
            new_rel.append(q)
    return SchemeSpec(spec.order, retained, tuple(new_rel))


# ---------------------------------------------------------------------------
# bounded bigraded dimension tables
# ---------------------------------------------------------------------------


def _packed_box(ambient: tuple[JetVar, ...], max_weight, max_degree: int):
    """Every monomial of the box, packed into one int each.

    ``ambient`` must be sorted and free of repeats.  Variable j owns bits
    [j*B, (j+1)*B) of the code for its exponent, B = max(1,
    max_degree.bit_length()); weights are ints in units of 1/L, L the lcm of
    the ambient weight denominators.  Returns (B, L, slices), slices mapping
    each integer weight present to its (degree, code) pairs sorted by
    degree.  Since no exponent sum in the box exceeds max_degree, the
    product of two monomials whose product stays in the box is the sum of
    their codes, with no carry between fields.
    """
    D = int(max_degree)
    bits = max(1, D.bit_length())
    L = math.lcm(*(v.weight.denominator for v in ambient))
    W = math.floor(Fraction(max_weight) * L)
    box = [(0, 0, 0)] if W >= 0 else []  # (weight, degree, code)
    for j, v in enumerate(ambient):
        wv = int(v.weight * L)
        grown = []
        for w, d, code in box:
            e = 0
            while d + e <= D and w + wv * e <= W:
                grown.append((w + wv * e, d + e, code + (e << j * bits)))
                e += 1
        box = grown
    slices: dict[int, list[tuple[int, int]]] = {}
    for w, d, code in sorted(box):
        slices.setdefault(w, []).append((d, code))
    return bits, L, slices


def enumerate_monomials(
    ambient: tuple[JetVar, ...], max_weight, max_degree: int
) -> dict[Fraction, list[Monomial]]:
    """All monomials in the ambient variables with weight <= max_weight and
    degree <= max_degree, grouped by weight, each slice sorted by degree."""
    vars_sorted = tuple(sorted(set(ambient)))
    bits, L, packed = _packed_box(vars_sorted, max_weight, max_degree)
    mask = (1 << bits) - 1
    slices: dict[Fraction, list[Monomial]] = {}
    for w, table in packed.items():
        mons = [
            Monomial(
                tuple(
                    (v, e)
                    for j, v in enumerate(vars_sorted)
                    if (e := code >> j * bits & mask)
                )
            )
            for _, code in table
        ]
        mons.sort(key=_mono_key)
        slices[Fraction(w, L)] = mons
    return slices


def graded_quotient_dims(
    order: int,
    ambient: tuple[JetVar, ...],
    ideal_gens,
    max_weight,
    max_degree: int,
) -> dict[tuple[Fraction, int], int]:
    """Dimension of each (weight, degree) piece of the bounded quotient.

    Within a weight slice the ideal rows R are all in-box multiples of the
    generators, and with V_d the span of the degree-d monomials the (w, d)
    entry is dim(R + V<=d) - dim(R + V<d).  Generators may mix degrees (they
    must be weight-homogeneous); the table then reads off the degree
    filtration of the quotient.  Entries are upper bounds for the true
    quotient dimensions, exact once stable under enlarging the bounds.

    Monomials are the packed int codes of ``_packed_box``: the multiple
    q * mon of a generator term is the code sum q + t.  A slice's columns
    are numbered from the last entry of its (degree, code) table to the
    first, so each echelon row of ``RowReducer`` has its pivot, its lowest
    column, on a top-degree term.  Modulo V<=d the rows with a pivot above degree d stay
    independent and the others vanish: dim(R + V<=d) = dim V<=d + #(pivots
    above degree d).  So the (w, d) entry is the number of degree-d
    monomials minus the number of pivots in degree-d columns.
    """
    W = Fraction(max_weight)
    D = int(max_degree)
    ambient = tuple(sorted(set(ambient)))
    allowed = set(ambient)
    gens = [p for p in ideal_gens if not p.is_zero]
    for p in gens:
        if p.order != order:
            raise ValueError("generator scalar order does not match")
        if p.homogeneous_weight() is None:
            raise ValueError(f"ideal generator is not weight-homogeneous: {p}")
        if not p.variables() <= allowed:
            raise ValueError("ideal generator uses a variable outside the ambient set")
    bits, L, slices = _packed_box(ambient, W, D)
    shift_of = {v: j * bits for j, v in enumerate(ambient)}
    # (weight, degree room left for the multiplier, [(term code, coeff)])
    packed_gens = [
        (
            int(p.homogeneous_weight() * L),
            D - p.max_degree(),
            [
                (sum(e << shift_of[v] for v, e in mon.factors), c)
                for mon, c in p.terms
            ],
        )
        for p in gens
    ]
    dims: dict[tuple[Fraction, int], int] = {}
    for w, table in slices.items():
        last = len(table) - 1
        columns = {code: last - j for j, (_, code) in enumerate(table)}
        red = RowReducer(order)
        for wg, room, terms in packed_gens:
            if wg > w or room < 0:
                continue
            for d, q in slices.get(w - wg, ()):
                if d > room:
                    break  # the table is sorted by degree
                red.add({columns[q + t]: c for t, c in terms})
        free = Counter(d for d, _ in table)
        free.subtract(table[last - col][0] for col in red.pivots)
        dims.update({(Fraction(w, L), d): free[d] for d in range(D + 1)})
    return dims
