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
exponents, so the relation set is just the coefficients of each monomial's
two fields: the coefficient of Y_g(p) at an exponent e > 0 for
j = -m e - 1, the negated one of Y_g^-1(p) at e for j = m e - 1, and at
exponent 0 the gluing relation p(0) - p(inf) of j = -1, which identifies
the two level-0 rings along invariant monomials.  A coefficient at
exponent e has weight e, so each field is built once, at the weight
window.
The bounded quotient of the two twisted jet rings by the twisted jet ideals
plus these residue relations is computed exactly; for windows at least one
it collapses onto the coordinate ring of the fixed subscheme in weight
zero, and the verifier confirms that table and the vanishing of every
positive-weight entry.

Only the linear generators are built: the twisted jet generators at both
points and the relations of the degree-1 sections x_i u^j du.  On this
line of two points they already hold the relation of every section of
higher degree.

Lemma.  Let phi replace each pivot variable of the linear generators by
its value on their zero set (``eliminate_linear``).  Then phi sends the
relation of every section of degree >= 2 to zero.

Proof.  Y_g(x_i) is the sum of x_i[-e] z^e over the admissible exponents
e <= W, and Y_g^-1(x_i) likewise on alphabet 1.  For e > 0 the coefficient
x_i[-e] is by itself the relation of the degree-1 section with
j = -m e - 1 at 0, and xinf_i[-e] that of j = m e - 1 at infinity; the two
j never meet.  For a fixed coordinate the relation of j = -1 is
x_i[0] - xinf_i[0]; a moved coordinate has no level-0 variable.  So the
ideal I of the degree-1 relations holds every ambient variable of
positive weight and glues x_i[0] to xinf_i[0], and modulo I each
coordinate field is its constant x_i[0], zero for a moved coordinate.
The field map is multiplicative and every exponent is >= 0, so a
coefficient of a product up to W depends only on the factors' up to W:
modulo I, Y_g(p) is the constant p(x[0]) and Y_g^-1(p) the constant
p(xinf[0]).  The relation of each j != -1 then lies in I, and that of
j = -1, p(x[0]) - p(xinf[0]), does too.  The degree-1 relations are
linear generators, and phi is the quotient map by the ideal of the
linear generators, so phi kills I.

``graded_quotient_dims`` substitutes phi into every other generator and
drops those that become zero, so the higher relations would change no
entry; ``coinvariant_dims`` does not build them.

With three or more points (ROADMAP item 2) each section has an expansion
at every point, and the degree-1 sections need not reach every variable
at each of them.  The relations of the higher sections are not shown to
vanish there, so that case must build every section's expansion at every
point again.  On this line its tables must match the unpruned route, the
``unpruned_coinvariants`` fixture of the tests: ``residue_relation`` of
every section, eliminated in the box with no pivot removed.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycScalar
from .jetpoly import JetPoly, JetVar, Monomial, jet_var, retag_point, retag_var
from .jetscheme import (
    DiagAutomorphism,
    SchemeSpec,
    enumerate_monomials,
    fixed_point_ring,
    graded_quotient_dims,
    require_fits,
    twisted_jet_generators,
)
from .reports import CheckResult
from .twisted import twisted_field
from .value import Value, setters


class OrbiSetup(Value):
    """A scheme with symmetry plus the truncation box for coinvariants."""

    __slots__ = __match_args__ = ("spec", "auto", "max_weight", "max_degree")

    def __init__(
        self,
        spec: SchemeSpec,
        auto: DiagAutomorphism,
        max_weight: Fraction,
        max_degree: int,
    ):
        max_weight = Fraction(max_weight)
        require_fits(spec, auto)
        _set_spec(self, spec)
        _set_auto(self, auto)
        _set_max_weight(self, max_weight)
        _set_max_degree(self, max_degree)


_set_spec, _set_auto, _set_max_weight, _set_max_degree = setters(OrbiSetup)


def enumerate_sections(spec: SchemeSpec, max_degree: int) -> list[Monomial]:
    """The level-0 monomials p of degree 1 to max_degree.  Each stands for
    its sections p u^j du, one for every j with j + 1 = character(p) mod m."""
    level0 = tuple(jet_var(idx, 0) for idx in spec.variables)
    monos = enumerate_monomials(level0, 0, max_degree).get(Fraction(0), [])
    return [mon for mon in monos if mon.degree]


def residue_relation(mon: Monomial, setup: OrbiSetup) -> dict[int, JetPoly]:
    """The nonzero relations of the sections of one monomial, keyed by j.

    Both fields are built at the weight window W.  The coefficient of
    Y_g(p) at an exponent k/m, 0 < k/m <= W, is the relation of j = -k - 1,
    the one of Y_g^-1(p) there, moved to alphabet 1 and negated, that of
    j = k - 1, and the two constant coefficients glue at j = -1.
    """
    spec, g, W = setup.spec, setup.auto, setup.max_weight
    m = g.order
    p = JetPoly(spec.order, ((mon, CycScalar.one(spec.order)),))
    rels = {-k - 1: c for k, c in twisted_field(p, g, W).terms.items()}
    for k, c in twisted_field(p, g.inverse(), W).terms.items():
        j = k - 1
        c = retag_point(c, 1)
        rels[j] = rels[j] - c if j in rels else -c
    for j, rel in rels.items():
        w = Fraction(abs(j + 1), m)
        if rel.homogeneous_weight() != w:
            raise ValueError(
                f"residue relation of {mon} at j = {j} is not of weight {w}"
            )
    return dict(sorted(rels.items()))


def _base_generators(setup: OrbiSetup) -> tuple[tuple[JetVar, ...], list[JetPoly]]:
    """The ambient variables and the linear generators: the twisted jet
    generators at both points and the relations of the degree-1
    sections."""
    spec, g, W = setup.spec, setup.auto, setup.max_weight
    pres0 = twisted_jet_generators(spec, g, W)
    presinf = twisted_jet_generators(spec, g.inverse(), W)
    ambient = pres0.variables + tuple(retag_var(v, 1) for v in presinf.variables)

    gens: list[JetPoly] = [gen.poly for gen in pres0.generators]
    gens.extend(retag_point(gen.poly, 1) for gen in presinf.generators)
    for mon in enumerate_sections(spec, 1):
        gens.extend(residue_relation(mon, setup).values())
    return ambient, gens


def coinvariant_dims(setup: OrbiSetup) -> dict[tuple[Fraction, int], int]:
    """Bounded bigraded dimension table of the coinvariant space, from the
    linear generators alone (see the module docstring)."""
    ambient, gens = _base_generators(setup)
    return graded_quotient_dims(
        setup.auto.order, ambient, gens, setup.max_weight, setup.max_degree
    )


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
