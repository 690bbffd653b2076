"""Expression parser and canonical printer: frozen forms, error positions,
and round-trip properties.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetva.cyclo import CycScalar
from jetva.jetpoly import JetPoly
from jetva.parse import ParseError, format_poly, parse_expression


NAMES = ("x1", "x2")


def parse(text, order=1, variables=NAMES):
    return parse_expression(text, order, variables)


def x(i, m=1):
    return JetPoly.var(m, i)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic_forms():
    assert parse("x1") == x(1)
    assert parse("x1 + x2") == x(1) + x(2)
    assert parse("x1^2 - x2") == x(1) ** 2 - x(2)
    assert parse("2*x1*x2") == (x(1) * x(2)).scale(2)
    assert parse("1/2*x1") == x(1).scale(Fraction(1, 2))
    assert parse("-1*x2 + x1^2") == x(1) ** 2 - x(2)
    assert parse("(x1 + x2)^2") == (x(1) + x(2)) ** 2
    assert parse("3") == JetPoly.one(1).scale(3)
    assert parse("-2/3") == JetPoly.one(1).scale(Fraction(-2, 3))


def test_parse_zeta():
    z = CycScalar.zeta(4)
    p = parse("zeta*x1 + zeta^2*x2", order=4)
    assert p == x(1, m=4).scale(z) + x(2, m=4).scale(z * z)


def test_parse_custom_names():
    p = parse_expression("u*v - w", 1, ("u", "v", "w"))
    assert p == x(1) * x(2) - JetPoly.var(1, 3)


def test_parse_rejects_unary_minus_on_names():
    with pytest.raises(ParseError):
        parse("-x1")
    with pytest.raises(ParseError):
        parse("x1 + -x2")


def test_parse_error_positions():
    with pytest.raises(ParseError, match=r"line 1, column 6"):
        parse("x1 + @")
    with pytest.raises(ParseError, match=r"line 2, column 4"):
        parse("x1 +\n  (x3)")
    with pytest.raises(ParseError, match="unknown name"):
        parse("y1")
    with pytest.raises(ParseError, match="zero"):
        parse("1/0")
    # only ASCII digits: int() rejects a superscript two and reads an
    # Arabic-Indic one as 1
    with pytest.raises(ParseError, match=r"'²' \(line 1, column 4\)"):
        parse("x1^²")
    with pytest.raises(ParseError, match=r"'١' \(line 1, column 4\)"):
        parse("x1^١")


def test_parse_refuses_a_name_that_starts_with_an_underscore():
    # identifier := letter (letter | digit | '_')*
    assert parse_expression("x_1*y_", 1, ("x_1", "y_")) == x(1) * x(2)
    for text, col in (("_x", 1), ("x1 + _x", 6), ("x1*(__)", 5)):
        where = rf"start with a letter \(line 1, column {col}\)"
        with pytest.raises(ParseError, match=where):
            parse_expression(text, 1, ("x1", "_x", "__"))


def test_parse_unbalanced_and_trailing():
    for bad in ["(x1", "x1)", "x1 *", "x1 x2", "x1^", "x1^-2", ""]:
        with pytest.raises(ParseError):
            parse(bad)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def test_format_frozen():
    assert format_poly(x(1) ** 2 - x(2), NAMES) == "-1*x2 + x1^2"
    assert format_poly((x(1) * x(2)).scale(2), NAMES) == "2*x1*x2"
    assert format_poly(JetPoly.zero(1), NAMES) == "0"
    assert format_poly(x(1).scale(Fraction(-1, 2)), NAMES) == "-1/2*x1"


def test_format_cyclotomic_coefficient():
    p = x(1, m=4).scale(CycScalar.zeta(4) + 1)
    out = format_poly(p, NAMES)
    assert out == "(1 + zeta)*x1"
    assert parse(out, order=4) == p


def test_format_rejects_jet_levels():
    with pytest.raises(ValueError):
        format_poly(JetPoly.var(1, 1, -1), NAMES)


def test_round_trip_frozen_relations():
    for text in ["x1^2 - x2", "x1*x2", "x1^3 - x2^2", "x1^2"]:
        p = parse(text)
        assert parse(format_poly(p, NAMES)) == p


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    order = rng.choice([1, 2, 3, 4])
    p = JetPoly.zero(order)
    for _ in range(rng.randint(1, 4)):
        mono = JetPoly.one(order)
        for _ in range(rng.randint(0, 3)):
            mono = mono * JetPoly.var(order, rng.randint(1, 2))
        c = CycScalar.coerce(order, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        if order > 1 and rng.random() < 0.5:
            c = c * CycScalar.zeta(order) ** rng.randint(0, order - 1)
        p = p + mono.scale(c)
    text = format_poly(p, NAMES)
    assert parse_expression(text, order, NAMES) == p
