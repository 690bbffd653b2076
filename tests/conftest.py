"""Shared fixtures."""

from fractions import Fraction

import pytest

from jetva import jetpoly, jetscheme, twisted


@pytest.fixture(scope="session")
def unpruned():
    """The unpruned route of ``graded_quotient_dims``, same arguments:
    ``_box_dims`` on the raw generators, each with the multiplier room of
    its own top degree, so the linear generators are eliminated in the
    box with the rest.  It is the oracle for the linear pre-pass."""

    def dims(order, ambient, gens, max_weight, max_degree):
        D = int(max_degree)
        rows = [(g, D - g.max_degree()) for g in gens if not g.is_zero]
        return jetscheme._box_dims(
            order, tuple(sorted(set(ambient))), rows, Fraction(max_weight), D
        )

    return dims


@pytest.fixture
def fraction_calls(monkeypatch):
    """Count the Fractions built by a call: ``fraction_calls(f, *args)``
    returns (number of ``Fraction.__new__`` calls, f's result).  The
    package's field and expansion caches are emptied first, so the count
    does not depend on what ran before."""
    original = Fraction.__new__

    def count(f, *args):
        for cached in (
            jetpoly._jet_expansion,
            twisted._build_field,
            twisted._descent_basis,
            twisted._divided_product,
        ):
            cached.cache_clear()
        calls = 0

        def counting(cls, *a, **kw):
            nonlocal calls
            calls += 1
            return original(cls, *a, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counting)
            result = f(*args)
        return calls, result

    return count
