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
import dataclasses
import math
from collections import Counter
from fractions import Fraction

from .cyclo import CycScalar, modular_root
from .jetpoly import (
    JetPoly,
    JetVar,
    Monomial,
    _mono_key,
    admissible_levels,
    apply_automorphism,
    jet_var,
    mul_into,
    substitute_jets,
    translation_series,
)
from .linalg import RowReducer, spans_mod_p


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


def preserves_ideal(spec: SchemeSpec, g: DiagAutomorphism) -> bool:
    """Does the diagonal action map span{P_1..P_r} into itself?"""
    if len(g.exponents) != spec.k:
        raise ValueError("exponent count does not match the scheme")
    if not spec.relations:
        return True
    alpha = g.alpha_by_index(spec)
    images = (apply_automorphism(alpha, p) for p in spec.relations)
    return SpanBasis(spec.order, spec.relations).first_outside(images) is None


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


def _zero_mod_p(table, fits, columns, D: int, p: int) -> bool:
    """Whether a slice's rows span F_p^columns, which proves it zero.  The
    pass is skipped, with False, when a row has no image in F_p, or when
    the rows cannot fill: for some degree d, fewer rows have a term of
    degree <= d than there are columns of degree <= d."""
    if any(terms_p is None for _, _, terms_p, qs in fits if qs):
        return False
    for d in range(D + 1):
        reach = sum(bisect.bisect_left(qs, (d - low + 1,)) for low, _, _, qs in fits)
        if reach < bisect.bisect_left(table, (d + 1,)):
            return False
    rows = (
        {columns[q + t]: v for t, v in terms_p}
        for _, _, terms_p, qs in fits
        for _, q in qs
    )
    return spans_mod_p(rows, len(table), p)


def _box_weights(ambient: tuple[JetVar, ...], max_weight, max_degree: int):
    """The weights of the box's monomials, ascending, as ``_packed_box``
    would find them, from a walk over the distinct ambient weights: each
    reachable weight keeps the least degree that reaches it."""
    L = math.lcm(*(v.weight.denominator for v in ambient))
    W = math.floor(Fraction(max_weight) * L)
    if W < 0:
        return []
    least = {0: 0}  # weight in units of 1/L -> least degree reaching it
    for wv in sorted({int(v.weight * L) for v in ambient} - {0}):
        for w in range(W - wv + 1):  # ascending, so multiples of wv chain
            d = least.get(w)
            if d is not None and d < max_degree and d + 1 < least.get(w + wv, d + 2):
                least[w + wv] = d + 1
    return [Fraction(w, L) for w in sorted(least)]


def _solve_linear(order: int, ambient: tuple[JetVar, ...], linear):
    """Each pivot variable of the linear forms' echelon basis, mapped to
    its value on their zero set: a list of (monomial, coefficient) terms in
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


def _substitute(g: JetPoly, images, powers) -> JetPoly:
    """``g`` with each variable of ``images`` replaced by its image.  A
    term with a variable whose image is zero is dropped before any product
    is formed; the powers of the images are kept in ``powers`` across
    calls."""
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
            power = powers.get((v, e))
            if power is None:
                power = image
                for _ in range(e - 1):
                    prod: dict = {}
                    mul_into(prod, power, image)
                    power = [(m, a) for m, a in prod.items() if a]
                powers[(v, e)] = power
            prod = {}
            mul_into(prod, terms, power)
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
    weight (``_solve_linear``).  That is substituted into the other
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
    linear, others = [], []
    for g in gens:
        (linear if all(mon.degree == 1 for mon, _ in g.terms) else others).append(g)
    if not linear:
        return _box_dims(order, ambient, [(g, D - g.max_degree()) for g in gens], W, D)
    images = _solve_linear(order, ambient, linear)
    powers: dict = {}
    pruned = []
    for g in others:
        sub = _substitute(g, images, powers)
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
    theorem predicts.  Three rules keep the exact work for the other
    slices:

    - Early exit.  The exact elimination stops once the rank equals the
      column count, since every later row lies in the span.
    - Certificate over F_p.  Before the exact pass, the same rows run over
      F_p, with p and r = zeta mod p from ``modular_root`` and every
      generator coefficient mapped once.  Rows that span F_p^columns prove
      the slice zero, exactly: with every coefficient p-integral the rows
      lie in Z_(p)[zeta], and zeta -> r is a ring map onto F_p that
      commutes with determinants, so a minor that vanishes over Q(zeta_m)
      vanishes mod p.  Hence rank mod p <= rank over Q(zeta_m) <= column
      count, and full rank mod p forces full rank.  A pass that falls
      short proves nothing, and neither does a slice drawing on a
      generator whose coefficient has a denominator divisible by p; both
      go to ``RowReducer``, the one exact path.  No entry is read off F_p.
    - A slice that cannot fill skips the F_p pass (``_zero_mod_p``): for
      some degree d it has fewer rows with a term of degree <= d than
      columns of degree <= d.  In a jet ring whose relations have no term
      below degree 2, say, no row reaches a slice's degree-1 columns.

    Generators are taken fewest terms first; the pivot columns, and so the
    table, do not depend on the row order, and short rows fill a slice
    soonest.
    """
    bits, L, slices = _packed_box(ambient, W, D)
    shift_of = {v: j * bits for j, v in enumerate(ambient)}
    p, r = modular_root(order)
    # (weight, lowest term degree, degree room left for the multiplier,
    #  [(term code, coeff)], the nonzero terms mod p or None if p divides
    #  a denominator)
    packed_gens = []
    for g, room in gens:
        terms = [
            (sum(e << shift_of[v] for v, e in mon.factors), c) for mon, c in g.terms
        ]
        residues = [c.residue(p, r) for _, c in terms]
        terms_p = None
        if None not in residues:
            terms_p = [(t, v) for (t, _), v in zip(terms, residues) if v]
        packed_gens.append(
            (
                int(g.homogeneous_weight() * L),
                min(mon.degree for mon, _ in g.terms),
                room,
                terms,
                terms_p,
            )
        )
    # fewest terms first: short rows are cheap and fill a slice soonest
    packed_gens.sort(key=lambda gen: len(gen[3]))
    dims: dict[tuple[Fraction, int], int] = {}
    for w, table in slices.items():
        ncols = len(table)
        columns = {code: ncols - 1 - j for j, (_, code) in enumerate(table)}
        # (lowest term degree, terms, terms mod p, the multipliers' (degree,
        # code) entries): the table is sorted by degree, so those that fit
        # are a prefix
        fits = [
            (low, terms, terms_p, tab[: bisect.bisect_left(tab, (room + 1,))])
            for wg, low, room, terms, terms_p in packed_gens
            if (tab := slices.get(w - wg))
        ]
        if _zero_mod_p(table, fits, columns, D, p):
            free = Counter()  # every column holds a pivot
        else:
            red = RowReducer(order)
            for terms, q in ((terms, q) for _, terms, _, qs in fits for _, q in qs):
                if red.rank == ncols:
                    break
                red.add({columns[q + t]: c for t, c in terms})
            free = Counter(d for d, _ in table)
            free.subtract(table[ncols - 1 - col][0] for col in red.pivots)
        dims.update({(Fraction(w, L), d): free[d] for d in range(D + 1)})
    return dims
