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

import bisect
import math
from collections import Counter
from fractions import Fraction

from functools import lru_cache

from .cyclo import CycScalar
from .jetpoly import (
    CodedSeries,
    JetPoly,
    JetVar,
    Monomial,
    _jet_var,
    _mono_key,
    _weight_units,
    apply_automorphism,
    exact_units,
    floor_units,
    mul_into,
    substitute_coded,
    substitute_jets,
    translation_series,
)
from .linalg import RowReducer
from .value import Value, setters


class IdealNotPreservedError(ValueError):
    """The diagonal action does not map the relation span to itself."""


class SchemeSpec(Value):
    """An affine scheme: variable indices plus level-0 relations."""

    __slots__ = __match_args__ = ("order", "variables", "relations")

    def __init__(
        self, order: int, variables: tuple[int, ...], relations: tuple[JetPoly, ...]
    ):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable indices")
        if any(i < 1 for i in variables):
            raise ValueError("variable indices are 1-based")
        allowed = set(variables)
        for p in relations:
            if p.order != order:
                raise ValueError("relation coefficient order does not match scheme")
            if not p.is_level_zero():
                raise ValueError("relations must be level-0 polynomials")
            if any(v.index not in allowed or v.point != 0 for v in p.variables()):
                raise ValueError("relation uses a variable outside the scheme")
        _set_spec_order(self, order)
        _set_variables(self, variables)
        _set_relations(self, relations)

    @classmethod
    def of(cls, order: int, k: int, relations) -> SchemeSpec:
        return cls(order, tuple(range(1, k + 1)), tuple(relations))

    @property
    def k(self) -> int:
        return len(self.variables)


_set_spec_order, _set_variables, _set_relations = setters(SchemeSpec)


class DiagAutomorphism(Value):
    """x_i -> zeta_m^(alpha_i) x_i, alpha_i the i-th exponent."""

    __match_args__ = ("order", "exponents")
    __slots__ = (*__match_args__, "_hash")

    def __init__(self, order: int, exponents: tuple[int, ...]):
        if order < 1:
            raise ValueError("order must be positive")
        if any(not (0 <= a < order) for a in exponents):
            raise ValueError("exponents must lie in 0..order-1")
        _set_auto_order(self, order)
        _set_exponents(self, exponents)
        # Worked out once: the field, pair and relation caches hash it in
        # every key.
        _set_auto_hash(self, hash((order, exponents)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not DiagAutomorphism:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.order == other.order
            and self.exponents == other.exponents
        )

    def inverse(self) -> DiagAutomorphism:
        return DiagAutomorphism(
            self.order, tuple((-a) % self.order for a in self.exponents)
        )

    def alpha_by_index(self, spec: SchemeSpec) -> tuple[int, ...]:
        """The exponents, once ``require_fits`` has passed: positioned by
        coordinate, alpha[i-1] acting on x_i."""
        require_fits(spec, self)
        return self.exponents


_set_auto_order, _set_exponents, _set_auto_hash = setters(DiagAutomorphism)


class SpanBasis:
    """The span of a list of polynomials, eliminated once: a column per
    monomial of the list and the echelon rows over those columns.  Reading
    it never changes it, so one basis serves any number of membership
    tests."""

    __slots__ = ("columns", "reducer")

    def __init__(self, order: int, basis):
        self.columns: dict[Monomial, int] = {}
        self.reducer = RowReducer(order)
        for p in basis:
            row = {}
            for mon, c in p.terms:
                row[self.columns.setdefault(mon, len(self.columns))] = c
            self.reducer.add(row)

    def contains(self, p: JetPoly) -> bool:
        """Is ``p`` in the span?  A monomial that no basis polynomial has
        puts it outside, since every basis row is zero there."""
        row = {}
        for mon, c in p.terms:
            col = self.columns.get(mon)
            if col is None:
                return False
            row[col] = c
        return self.reducer.contains(row)

    def first_outside(self, polys) -> int | None:
        """The position of the first of ``polys`` outside the span, or None
        when all lie in it."""
        return next(
            (k for k, p in enumerate(polys) if not self.contains(p)), None
        )


def require_fits(spec: SchemeSpec, g: DiagAutomorphism) -> None:
    """Raise ValueError unless the scheme's coordinates are 1..k and g has
    the scheme's order and k exponents, so that g's i-th exponent acts on
    x_i."""
    if spec.variables != tuple(range(1, spec.k + 1)):
        raise ValueError("a symmetry needs scheme coordinates 1..k")
    if len(g.exponents) != spec.k:
        raise ValueError("exponent count does not match the scheme")
    if spec.order != g.order:
        raise ValueError("scheme and symmetry orders differ")


# Keyed on (scheme, symmetry), bounded like ``coded_relations``: the
# generator table and the descent checks of one case both require the test,
# so its span is eliminated once per case, not once per caller.
@lru_cache(maxsize=64)
def preserves_ideal(spec: SchemeSpec, g: DiagAutomorphism) -> bool:
    """Does the diagonal action map span{P_1..P_r} into itself?"""
    require_fits(spec, g)
    if not spec.relations:
        return True
    images = (apply_automorphism(g.exponents, p) for p in spec.relations)
    return SpanBasis(spec.order, spec.relations).first_outside(images) is None


def require_preserved(spec: SchemeSpec, g: DiagAutomorphism) -> None:
    """Raise IdealNotPreservedError unless ``preserves_ideal``."""
    if not preserves_ideal(spec, g):
        raise IdealNotPreservedError(
            f"exponents {g.exponents} do not preserve the relation span"
        )


# ---------------------------------------------------------------------------
# jet generators
# ---------------------------------------------------------------------------


class JetGenerator(Value):
    __slots__ = __match_args__ = ("units", "relation", "poly")

    def __init__(self, units: int, relation: int, poly: JetPoly):
        _set_units(self, units)  # the weight in units of 1/order, the order of poly
        _set_relation(self, relation)  # 1-based index into spec.relations
        _set_poly(self, poly)

    @property
    def weight(self) -> Fraction:
        return Fraction(self.units, self.poly.order)


_set_units, _set_relation, _set_poly = setters(JetGenerator)


class JetPresentation(Value):
    __slots__ = __match_args__ = ("variables", "generators")

    def __init__(
        self, variables: tuple[JetVar, ...], generators: tuple[JetGenerator, ...]
    ):
        _set_pres_variables(self, variables)
        _set_generators(self, generators)


_set_pres_variables, _set_generators = setters(JetPresentation)


def _presentation_vars(spec, exponents, max_weight) -> tuple[JetVar, ...]:
    """The variables x[i,n] of weight -n <= max_weight, with n in the coset
    exponents[i-1]/m + Z (0 beyond the tuple), sorted."""
    m = spec.order
    hi = floor_units(max_weight, m)
    out = []
    for idx in spec.variables:
        a = exponents[idx - 1] if idx <= len(exponents) else 0
        for u in _weight_units(a % m, m, hi):
            g = math.gcd(u, m)
            out.append(_jet_var(idx, u // g, m // g))
    return tuple(sorted(out))


def _expansion_generators(spec: SchemeSpec, expand) -> tuple[JetGenerator, ...]:
    """The coefficients of every relation's series ``expand(P)``, zeros
    dropped, sorted by weight, then relation."""
    gens = [
        JetGenerator(k, i, coeff)
        for i, p in enumerate(spec.relations, start=1)
        for k, coeff in expand(p).terms.items()
    ]
    gens.sort(key=lambda gg: (gg.units, gg.relation))
    return tuple(gens)


def jet_generators(
    spec: SchemeSpec, max_weight: int, method: str = "T_recursion"
) -> JetPresentation:
    """Untwisted jet ideal generators up to the given weight.

    Two routes are implemented and must agree: ``T_recursion`` reads the
    translation series e^(tT) P_i, whose t^n coefficient is P[i,n] =
    T(P[i,n-1])/n, while ``substitution`` expands P_i along the generic jet
    and reads off the t^n coefficient (the twisted expansion with every
    exponent zero).  Exact zeros contribute nothing and are dropped.
    """
    if method not in ("T_recursion", "substitution"):
        raise ValueError(f"unknown method {method!r}")
    W = int(max_weight)
    if method == "substitution":
        gens = _expansion_generators(spec, lambda p: substitute_jets(p, (), W))
    else:
        gens = _expansion_generators(spec, lambda p: translation_series(p, W))
    return JetPresentation(_presentation_vars(spec, (), W), gens)


def twisted_generators(
    spec: SchemeSpec, g: DiagAutomorphism, max_weight
) -> tuple[JetGenerator, ...]:
    """Generators of the g-twisted jet ideal: the t^w coefficients of the
    relations expanded along the twisted jet, for all lattice weights w in
    [0, max_weight] where a coefficient survives."""
    require_preserved(spec, g)
    W = Fraction(max_weight)
    return _expansion_generators(spec, lambda p: substitute_jets(p, g.exponents, W))


# Keyed on (scheme, symmetry, window): the translates n of a descent sweep
# at windows W - n share the entry at W + n.  64 entries hold every (order,
# curve, symmetry) case of a sweep over the acceptance fixtures at orders 2-4.
@lru_cache(maxsize=64)
def coded_relations(
    spec: SchemeSpec, g: DiagAutomorphism, top: int
) -> tuple[CodedSeries, ...]:
    """Each relation expanded along the twisted jet up to the window top/m
    by the int kernel ``substitute_coded``, one ``CodedSeries`` per
    relation, in order: the generators of ``twisted_generators`` at the
    weight top/m before they are materialised.  The symmetry must
    preserve the relation span, as there."""
    require_preserved(spec, g)
    return tuple(substitute_coded(p, g.exponents, top) for p in spec.relations)


def twisted_jet_generators(
    spec: SchemeSpec, g: DiagAutomorphism, max_weight
) -> JetPresentation:
    """``twisted_generators`` with the jet variables they live in."""
    gens = twisted_generators(spec, g, max_weight)
    W = Fraction(max_weight)
    return JetPresentation(_presentation_vars(spec, g.exponents, W), gens)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------


def fixed_point_ring(spec: SchemeSpec, g: DiagAutomorphism) -> SchemeSpec:
    """Presentation of the fixed subscheme: keep the variables with trivial
    character, set the others to zero in every relation, drop zeros."""
    require_fits(spec, g)
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
    L = math.lcm(*(v.den for v in ambient))
    W = floor_units(Fraction(max_weight), L)
    box = [(0, 0, 0)] if W >= 0 else []  # (weight, degree, code)
    for j, v in enumerate(ambient):
        wv = v.num * (L // v.den)
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


def _box_weights(ambient: tuple[JetVar, ...], max_weight, max_degree: int):
    """The weights of the box's monomials, ascending, as ``_packed_box``
    would find them, from a walk over the distinct ambient weights: each
    reachable weight keeps the least degree that reaches it."""
    L = math.lcm(*(v.den for v in ambient))
    W = floor_units(Fraction(max_weight), L)
    if W < 0:
        return []
    least = {0: 0}  # weight in units of 1/L -> least degree reaching it
    for wv in sorted({v.num * (L // v.den) for v in ambient} - {0}):
        for w in range(W - wv + 1):  # ascending, so multiples of wv chain
            d = least.get(w)
            if d is not None and d < max_degree and d + 1 < least.get(w + wv, d + 2):
                least[w + wv] = d + 1
    return [Fraction(w, L) for w in sorted(least)]


def _solve_linear(order: int, ambient: tuple[JetVar, ...], linear):
    """Each pivot variable of the linear forms' echelon basis, mapped to
    its value on their zero set: a list of (monomial, CycScalar) terms in
    the non-pivot variables, empty when the variable is zero there.

    Columns are the positions in ``ambient``; the pivot rows are
    back-reduced from the last pivot to the first, so each value is free
    of pivots."""
    column = {v: j for j, v in enumerate(ambient)}
    red = RowReducer(order)
    for g in linear:
        red.add({column[mon.factors[0][0]]: c for mon, c in g.terms})
    solved: dict[int, dict] = {}
    for lead in sorted(red.pivots, reverse=True):
        value: dict = {}
        for col, a in red.pivots[lead].items():
            if col != lead:
                for k, b in solved.get(col, {col: 1}).items():
                    value[k] = value.get(k, 0) - a * b
        solved[lead] = {k: v for k, v in value.items() if v}
    return {
        ambient[lead]: [(Monomial(((ambient[k], 1),)), v) for k, v in value.items()]
        for lead, value in solved.items()
    }


def eliminate_linear(order: int, ambient: tuple[JetVar, ...], gens):
    """Split the generators into the linear ones, whose terms all have
    degree 1, and the others, and solve the linear ones: (images, others),
    ``images`` mapping each pivot variable to its value on their zero set
    as ``_solve_linear`` gives it over the sorted ambient (empty with no
    linear generator)."""
    linear, others = [], []
    for g in gens:
        (linear if all(mon.degree == 1 for mon, _ in g.terms) else others).append(g)
    if not linear:
        return {}, others
    return _solve_linear(order, tuple(sorted(set(ambient))), linear), others


def _substitute(g: JetPoly, images) -> JetPoly:
    """``g`` with each variable of ``images`` replaced by its image.  A
    term with a variable whose image is zero is dropped before any product
    is formed; the others are multiplied by an image once per unit of its
    variable's exponent."""
    acc: dict[Monomial, CycScalar] = {}
    for mon, c in g.terms:
        if any(images.get(v) == [] for v, _ in mon.factors):
            continue
        terms = [(Monomial.unit(), c)]
        kept = []
        for v, e in mon.factors:
            image = images.get(v)
            if image is None:
                kept.append((v, e))
                continue
            for _ in range(e):
                prod: dict = {}
                mul_into(prod, terms, image)
                terms = prod.items()
        rest = Monomial(tuple(kept))
        for m, a in terms:
            m = m * rest
            cur = acc.get(m)
            acc[m] = a if cur is None else cur + a
    return JetPoly._from_dict(g.order, acc)


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

    The linear generators, those whose terms all have degree 1, are
    eliminated before the box.  One ``RowReducer`` over the ambient
    variables takes them, and its pivot rows, back-reduced, give each
    pivot variable as a combination of non-pivot variables of the same
    weight (``eliminate_linear``).  That is substituted into the other
    generators, and the pivots leave the ambient.  Three rules keep the
    table the same:

    - each generator keeps the multiplier room D - (its top degree) it had
      before substitution, since a top-degree term may cancel and a
      larger room would admit rows that R does not hold;
    - a generator that becomes zero is dropped;
    - every (w, d) of the unpruned box is reported, in the same order,
      with 0 where the pruned box has no monomial (``_box_weights``).

    Why the entries cannot change: the linear forms are homogeneous in
    weight and degree, so their in-box multiples span exactly the
    intersection of the ideal they generate with the box, which is the
    kernel of the substitution on the box.  The substitution sends each
    degree-d monomial to a degree-d form, so it is an isomorphism of V_box
    modulo that span onto the pruned box, graded by weight and degree, and
    it sends each multiple q*g of another generator to q'*g' with q'
    ranging over the same room.  The filtration, and so every entry, is
    the same.

    The pruned generators then go to ``_box_dims``, the slice-by-slice
    elimination below.  ``_box_dims`` on the raw generators is the
    unpruned route; it is kept as an independent oracle for the tests, as
    ``T_recursion`` is kept next to ``substitution``.
    """
    W = Fraction(max_weight)
    D = int(max_degree)
    ambient = tuple(sorted(set(ambient)))
    allowed = set(ambient)
    gens = [g for g in ideal_gens if not g.is_zero]
    for g in gens:
        if g.order != order:
            raise ValueError("generator scalar order does not match")
        if g.homogeneous_weight() is None:
            raise ValueError(f"ideal generator is not weight-homogeneous: {g}")
        if not g.variables() <= allowed:
            raise ValueError("ideal generator uses a variable outside the ambient set")
    images, others = eliminate_linear(order, ambient, gens)
    if not images:
        return _box_dims(order, ambient, [(g, D - g.max_degree()) for g in gens], W, D)
    pruned = []
    for g in others:
        sub = _substitute(g, images)
        if not sub.is_zero:
            pruned.append((sub, D - g.max_degree()))
    kept = tuple(v for v in ambient if v not in images)
    dims = _box_dims(order, kept, pruned, W, D)
    return {
        (w, d): dims.get((w, d), 0)
        for w in _box_weights(ambient, W, D)
        for d in range(D + 1)
    }


def _box_dims(
    order: int, ambient: tuple[JetVar, ...], gens, W: Fraction, D: int
) -> dict[tuple[Fraction, int], int]:
    """The table of ``graded_quotient_dims`` by elimination in the box,
    slice by slice.  ``ambient`` is sorted and free of repeats, and
    ``gens`` holds (generator, multiplier degree room) pairs of nonzero
    weight-homogeneous generators.

    Monomials are the packed int codes of ``_packed_box``: the multiple
    q * mon of a generator term is the code sum q + t.  A slice's columns
    are numbered from the last entry of its (degree, code) table to the
    first, so each echelon row of ``RowReducer`` has its pivot, its lowest
    column, on a top-degree term.  Modulo V<=d the rows with a pivot above
    degree d stay independent and the others vanish: dim(R + V<=d) =
    dim V<=d + #(pivots above degree d).  So the (w, d) entry is the number
    of degree-d monomials minus the number of pivots in degree-d columns.

    A slice whose rows reach full rank is zero in every entry; in an
    unpruned coinvariant box every slice of positive weight does, as the
    theorem predicts.  The elimination of a slice stops once its rank
    equals the column count, since every later row lies in the span.

    Generators are taken fewest terms first; the pivot columns, and so the
    table, do not depend on the row order, and short rows fill a slice
    soonest.
    """
    bits, L, slices = _packed_box(ambient, W, D)
    shift_of = {v: j * bits for j, v in enumerate(ambient)}
    # (weight, degree room left for the multiplier, [(term code, coeff)])
    packed_gens = [
        (
            exact_units(g.homogeneous_weight(), L),
            room,
            [(sum(e << shift_of[v] for v, e in mon.factors), c) for mon, c in g.terms],
        )
        for g, room in gens
    ]
    # fewest terms first: short rows are cheap and fill a slice soonest
    packed_gens.sort(key=lambda gen: len(gen[2]))
    dims: dict[tuple[Fraction, int], int] = {}
    for w, table in slices.items():
        ncols = len(table)
        columns = {code: ncols - 1 - j for j, (_, code) in enumerate(table)}
        # the table is sorted by degree, so the multipliers that fit are a
        # prefix of it
        rows = (
            (terms, q)
            for wg, room, terms in packed_gens
            if (tab := slices.get(w - wg))
            for _, q in tab[: bisect.bisect_left(tab, (room + 1,))]
        )
        red = RowReducer(order)
        for terms, q in rows:
            if red.rank == ncols:
                break
            red.add({columns[q + t]: c for t, c in terms})
        free = Counter(d for d, _ in table)
        free.subtract(table[ncols - 1 - col][0] for col in red.pivots)
        dims.update({(Fraction(w, L), d): free[d] for d in range(D + 1)})
    return dims
