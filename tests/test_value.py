"""The value types over ``jetva.value``: immutable, pickled and copied
whole, hashed as their field tuples, and printed as ``Name(field=value)``
(``JetPoly`` keeps its own form)."""

import copy
import pickle
from fractions import Fraction

import pytest

from jetva.coinv import OrbiSetup
from jetva.jetpoly import JetPoly, Monomial, PuiseuxSeries, jet_var
from jetva.jetscheme import DiagAutomorphism, JetGenerator, JetPresentation, SchemeSpec
from jetva.parse import Token
from jetva.reports import CheckResult


def _spec():
    return SchemeSpec.of(2, 2, [JetPoly.var(2, 1) ** 2 - JetPoly.var(2, 2)])


X1 = "JetPoly(2, x1[0])"
SPEC = "SchemeSpec(order=2, variables=(1, 2), relations=(JetPoly(2, -x2[0] + x1[0]^2),))"
VAR = "JetVar(point=0, index={}, num={}, den={})"

# (build, field names, repr), each build making a fresh instance.
CASES = {
    "JetVar": (
        lambda: jet_var(2, Fraction(-3, 2)),
        ("point", "index", "num", "den"),
        VAR.format(2, 3, 2),
    ),
    "Monomial": (
        lambda: Monomial.of((jet_var(1, 0), 2), (jet_var(2, -1), 1)),
        ("factors",),
        f"Monomial(factors=(({VAR.format(1, 0, 1)}, 2), ({VAR.format(2, 1, 1)}, 1)))",
    ),
    "JetPoly": (
        lambda: JetPoly.var(2, 1, -1) * 3 - JetPoly.var(2, 2),
        ("order", "terms"),
        "JetPoly(2, -x2[0] + 3*x1[-1])",
    ),
    "PuiseuxSeries": (
        lambda: PuiseuxSeries(2, {1: JetPoly.var(2, 1, Fraction(-1, 2))}, 3),
        ("order", "terms", "top"),
        "PuiseuxSeries(order=2, terms={1: JetPoly(2, x1[-1/2])}, top=3)",
    ),
    "SchemeSpec": (_spec, ("order", "variables", "relations"), SPEC),
    "DiagAutomorphism": (
        lambda: DiagAutomorphism(2, (1, 0)),
        ("order", "exponents"),
        "DiagAutomorphism(order=2, exponents=(1, 0))",
    ),
    "JetGenerator": (
        lambda: JetGenerator(2, 1, JetPoly.var(2, 1)),
        ("units", "relation", "poly"),
        f"JetGenerator(units=2, relation=1, poly={X1})",
    ),
    "JetPresentation": (
        lambda: JetPresentation(
            (jet_var(1, 0),), (JetGenerator(0, 1, JetPoly.var(2, 1)),)
        ),
        ("variables", "generators"),
        f"JetPresentation(variables=({VAR.format(1, 0, 1)},), "
        f"generators=(JetGenerator(units=0, relation=1, poly={X1}),))",
    ),
    "OrbiSetup": (
        lambda: OrbiSetup(_spec(), DiagAutomorphism(2, (1, 0)), 2, 3),
        ("spec", "auto", "max_weight", "max_degree"),
        f"OrbiSetup(spec={SPEC}, auto=DiagAutomorphism(order=2, exponents=(1, 0)), "
        "max_weight=Fraction(2, 1), max_degree=3)",
    ),
    "Token": (
        lambda: Token("name", "x1", 1, 4),
        ("kind", "value", "line", "col"),
        "Token(kind='name', value='x1', line=1, col=4)",
    ),
    "CheckResult": (
        lambda: CheckResult("vacuum", False, "x1"),
        ("name", "passed", "witness"),
        "CheckResult(name='vacuum', passed=False, witness='x1')",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_types_are_immutable(name):
    build, fields, _ = CASES[name]
    value = build()
    for attr in (*fields, "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 1)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert value == build()


@pytest.mark.parametrize("name", CASES)
def test_value_types_pickle_copy_and_hash_as_their_fields(name):
    build, fields, _ = CASES[name]
    value, twin = build(), build()
    assert twin is not value and twin == value
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(back) is type(value) and back == value
    values = tuple(getattr(value, f) for f in fields)
    if name == "PuiseuxSeries":  # its terms are a dict
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(value) == hash(twin) == hash(values)
    assert hash(pickle.loads(pickle.dumps(value))) == hash(value)


@pytest.mark.parametrize("name", CASES)
def test_value_types_keep_their_repr(name):
    build, _, text = CASES[name]
    assert repr(build()) == text
