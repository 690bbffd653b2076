"""Shared fixtures."""

from fractions import Fraction

import pytest

from jetva import coinv, jetpoly, jetscheme, twisted, va
from jetva.linalg import RowReducer


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


@pytest.fixture(scope="session")
def unpruned_coinvariant_args():
    """The arguments of ``graded_quotient_dims`` for a coinvariant setup
    with nothing pruned: (order, ambient, generators, W, D), the generators
    being the twisted jet generators at both points and ``residue_relation``
    of every section, as the unpruned route built them."""

    def args(setup):
        spec, g, W, D = setup.spec, setup.auto, setup.max_weight, setup.max_degree
        pres0 = jetscheme.twisted_jet_generators(spec, g, W)
        presinf = jetscheme.twisted_jet_generators(spec, g.inverse(), W)
        ambient = pres0.variables + tuple(
            jetpoly.retag_var(v, 1) for v in presinf.variables
        )
        gens = [gen.poly for gen in pres0.generators]
        gens += [jetpoly.retag_point(gen.poly, 1) for gen in presinf.generators]
        for mon in coinv.enumerate_sections(spec, D):
            gens += coinv.residue_relation(mon, setup).values()
        return g.order, ambient, gens, W, D

    return args


@pytest.fixture(scope="session")
def unpruned_coinvariants(unpruned, unpruned_coinvariant_args):
    """The coinvariant table of a setup on the fully unpruned route:
    ``_box_dims`` on the raw jet generators and the residue relations of
    every section.  It is the oracle for the pruned relations and the
    linear pre-pass together."""
    return lambda setup: unpruned(*unpruned_coinvariant_args(setup))


@pytest.fixture
def counted_reducers(monkeypatch):
    """``jetscheme.RowReducer`` replaced by a subclass that notes the rank
    before each ``add`` in ``ranks_before``; the fixture is the list of the
    reducers made so far, in order."""
    made = []

    class Counted(RowReducer):
        def __init__(self, order):
            super().__init__(order)
            self.ranks_before = []
            made.append(self)

        def add(self, row):
            self.ranks_before.append(self.rank)
            return super().add(row)

    monkeypatch.setattr(jetscheme, "RowReducer", Counted)
    return made


def empty_caches():
    """Empty the package's bounded caches, so that a count does not depend
    on what ran before."""
    for cached in (
        jetpoly._jet_expansion,
        jetpoly._jet_var,
        jetpoly._coded_monomial,
        jetpoly._divided_translate,
        twisted._build_field,
        twisted._descent_basis,
        twisted._pair_context,
        va._trivial_symmetry,
    ):
        cached.cache_clear()


@pytest.fixture
def substitutions(monkeypatch):
    """The caches emptied, and a list that gets (source, window) for every
    substitution ``twisted`` makes from then on."""
    empty_caches()
    made = []
    real = twisted.substitute_jets

    def recorded(p, exponents, window):
        made.append((p, window))
        return real(p, exponents, window)

    monkeypatch.setattr(twisted, "substitute_jets", recorded)
    return made


@pytest.fixture
def fraction_calls(monkeypatch):
    """Count the Fractions built by a call: ``fraction_calls(f, *args)``
    returns (number of ``Fraction.__new__`` calls, f's result).  The
    package's field and expansion caches are emptied first."""
    original = Fraction.__new__

    def count(f, *args):
        empty_caches()
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
