"""Coinvariants of a pair of twisted modules on the orbifold line.

The cyclic quotient of the projective line has two special points; the
twisted module for g sits at the origin (alphabet 0) and the module for the
inverse symmetry sits at infinity (alphabet 1).  A monomial p in the
coordinates together with an integer j such that j + 1 matches the
character of p modulo m determines a global section p u^j du, and each
section imposes one linear relation on the product of the two modules: the
matching field coefficients at the two points must cancel,

    (coeff of z^(-(j+1)/m) in Y_g(p))       on alphabet 0
  - (coeff of w^((j+1)/m)  in Y_g^-1(p))    on alphabet 1.

Because the sources are level-0, each field is supported in nonnegative
exponents, so each relation is concentrated on one alphabet except for
j = -1, where it glues the two level-0 rings along invariant monomials.
The bounded quotient of the two twisted jet rings by the twisted jet ideals
plus these residue relations is computed exactly; for windows at least one
it collapses onto the coordinate ring of the fixed subscheme in weight
zero, and the verifier confirms that table and the vanishing of every
positive-weight entry.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .cyclo import CycScalar
from .jetpoly import JetPoly, JetVar, Monomial, retag_point
from .jetscheme import (
    DiagAutomorphism,
    SchemeSpec,
    enumerate_monomials,
    fixed_point_ring,
    graded_quotient_dims,
    jet_var,
    twisted_jet_generators,
)
from .reports import CheckResult
from .twisted import twisted_vertex_op


@dataclasses.dataclass(frozen=True)
class OrbiSetup:
    """A scheme with symmetry plus the truncation box for coinvariants."""

    spec: SchemeSpec
    auto: DiagAutomorphism
    max_weight: Fraction
    max_degree: int

    def __post_init__(self):
        object.__setattr__(self, "max_weight", Fraction(self.max_weight))
        if len(self.auto.exponents) != self.spec.k:
            raise ValueError("exponent count does not match the scheme")
        if self.spec.order != self.auto.order:
            raise ValueError("scheme and symmetry orders differ")


@dataclasses.dataclass(frozen=True)
class OutSection:
    """A monomial section p u^j du of the equivariant twisted differentials."""

    poly: Monomial
    j: int
    character: int


def section_j_window(order: int, max_weight) -> tuple[int, int]:
    """Default exponent window [-(m W + 1), m W] covering every relation of
    weight up to the window on either alphabet."""
    span = int(order * Fraction(max_weight))
    return (-(span + 1), span)


def enumerate_sections(
    spec: SchemeSpec,
    g: DiagAutomorphism,
    max_degree: int,
    j_min: int,
    j_max: int,
) -> list[OutSection]:
    """All sections p u^j du with deg p between 1 and max_degree and j in
    the window, subject to j + 1 = character(p) mod m."""
    m = g.order
    alpha = g.alpha_by_index(spec)
    level0 = tuple(jet_var(idx, 0) for idx in spec.variables)
    monos = enumerate_monomials(level0, 0, max_degree).get(Fraction(0), [])
    out = []
    for mon in monos:
        if mon.degree == 0:
            continue
        c = mon.character(alpha) % m
        for j in range(j_min, j_max + 1):
            if (j + 1 - c) % m == 0:
                out.append(OutSection(mon, j, c))
    return out


def residue_relation(sec: OutSection, setup: OrbiSetup) -> JetPoly:
    """The linear relation a section imposes on the two twisted modules."""
    spec, g = setup.spec, setup.auto
    m = g.order
    W = setup.max_weight
    p = JetPoly(spec.order, ((sec.poly, CycScalar.one(spec.order)),))
    w0 = Fraction(-(sec.j + 1), m)
    winf = Fraction(sec.j + 1, m)
    # the default j-window keeps both exponents at most W + 1/m, but callers
    # may widen it, so pad the field window to whatever the section needs
    pad = max(W, w0, winf) + 1
    m0 = JetPoly.zero(spec.order)
    if w0 >= 0:
        m0 = twisted_vertex_op(p, g, pad, spec).coefficient(w0)
    minf = JetPoly.zero(spec.order)
    if winf >= 0:
        minf = twisted_vertex_op(p, g.inverse(), pad, spec).coefficient(winf)
    if not m0.is_zero and m0.homogeneous_weight() != w0:
        raise ValueError(f"field coefficient at z^{w0} is not of weight {w0}")
    if not minf.is_zero and minf.homogeneous_weight() != winf:
        raise ValueError(f"field coefficient at w^{winf} is not of weight {winf}")
    rel = m0 - retag_point(minf, 1)
    if not rel.is_zero and rel.homogeneous_weight() is None:
        raise ValueError(
            f"residue relation of {sec.poly} at j = {sec.j} is not weight-homogeneous"
        )
    return rel


def _retag_vars(vars_: tuple[JetVar, ...], point: int) -> tuple[JetVar, ...]:
    return tuple(JetVar(point, v.index, v.minus_level) for v in vars_)


def coinvariant_dims(
    setup: OrbiSetup, j_min: int | None = None, j_max: int | None = None
) -> dict[tuple[Fraction, int], int]:
    """Bounded bigraded dimension table of the coinvariant space."""
    spec, g, W, D = setup.spec, setup.auto, setup.max_weight, setup.max_degree
    lo, hi = section_j_window(g.order, W)
    j_min = lo if j_min is None else j_min
    j_max = hi if j_max is None else j_max

    pres0 = twisted_jet_generators(spec, g, W)
    presinf = twisted_jet_generators(spec, g.inverse(), W)
    ambient = pres0.variables + _retag_vars(presinf.variables, 1)

    gens: list[JetPoly] = [gen.poly for gen in pres0.generators]
    gens.extend(retag_point(gen.poly, 1) for gen in presinf.generators)
    for sec in enumerate_sections(spec, g, D, j_min, j_max):
        rel = residue_relation(sec, setup)
        if rel.is_zero:
            continue
        if rel.homogeneous_weight() > W:
            continue
        gens.append(rel)
    return graded_quotient_dims(g.order, ambient, gens, W, D)


def verify_fixed_ring(
    setup: OrbiSetup,
) -> tuple[dict[tuple[Fraction, int], int], list[CheckResult]]:
    """Coinvariant table plus the checks that it matches the fixed ring in
    weight zero and vanishes in positive weight."""
    dims = coinvariant_dims(setup)
    spec, g, D = setup.spec, setup.auto, setup.max_degree

    fixed = fixed_point_ring(spec, g)
    fixed_vars = tuple(jet_var(i, 0) for i in fixed.variables)
    ref = graded_quotient_dims(g.order, fixed_vars, fixed.relations, 0, D)

    checks: list[CheckResult] = []
    bad = None
    for d in range(0, D + 1):
        got = dims.get((Fraction(0), d), 0)
        want = ref.get((Fraction(0), d), 0)
        if got != want:
            bad = f"degree {d}: coinvariants {got}, fixed ring {want}"
            break
    checks.append(
        CheckResult(
            "weight 0: coinvariant dimensions equal the fixed-ring table",
            bad is None,
            bad,
        )
    )

    bad = None
    for (w, d), v in sorted(dims.items()):
        if w > 0 and v != 0:
            bad = f"weight {w}, degree {d}: dimension {v}"
            break
    checks.append(
        CheckResult(
            "positive weight: every coinvariant dimension vanishes",
            bad is None,
            bad,
        )
    )
    return dims, checks
