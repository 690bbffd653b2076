"""The package's caches: every one is bounded but the per-order tables of
``cyclo``, and the ``fraction_calls`` fixture empties every bounded one, so
a Fraction count does not depend on the order the tests run in."""

import inspect
from fractions import Fraction

from conftest import bounded_caches, package_caches
from jetva.jetpoly import JetPoly
from jetva.jetscheme import DiagAutomorphism, SchemeSpec
from jetva.twisted import check_descent, check_twisted_borcherds, twisted_field
from jetva.va import check_borcherds


def test_only_the_per_order_tables_are_unbounded():
    unbounded = {
        name: f
        for name, f in package_caches().items()
        if f.cache_parameters()["maxsize"] is None
    }
    assert unbounded, "the walk found none of cyclo's per-order tables"
    for name, f in unbounded.items():
        assert name.startswith("jetva.cyclo."), name
        assert list(inspect.signature(f).parameters) == ["m"], name


def test_fraction_calls_empties_every_bounded_cache(fraction_calls):
    bounded = bounded_caches()
    # the preservation tests that relation reads require, the one memo of
    # field and relation expansions, the divided translates and the coded
    # slots of the kernel
    assert "jetva.jetscheme.preserves_ideal" in bounded
    for name in ("_expansion_memo", "_translate_chain", "_coded_slots"):
        assert f"jetva.jetpoly.{name}" in bounded
    x1, x2 = JetPoly.var(2, 1), JetPoly.var(2, 2)
    spec = SchemeSpec.of(2, 2, [x1**2 - x2])
    g = DiagAutomorphism(2, (1, 0))
    check_descent(spec, g, 1, 1, 2)
    check_twisted_borcherds(x1, x1, g, -1, Fraction(1, 2), Fraction(1, 2), 2, spec)
    check_borcherds(x1, x2, -1, -1, -1, 2)
    # passing checks compare codes: a field read materialises monomials
    assert twisted_field(x1, g, 2).coefficient(Fraction(1, 4)).is_zero
    empty = sorted(name for name, f in bounded.items() if not f.cache_info().currsize)
    assert not empty, f"the warm-up above does not reach {empty}"

    fraction_calls(lambda: None)
    assert {name: f.cache_info().currsize for name, f in bounded.items()} == {
        name: 0 for name in bounded
    }
