"""Shared fixtures."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import jetva
from jetva import coinv, jetpoly, jetscheme, twisted
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


def package_caches() -> dict:
    """Every ``lru_cache``-wrapped function defined in a jetva module, by
    its qualified name, found by walking the package's modules."""
    found = {}
    for info in pkgutil.iter_modules(jetva.__path__, "jetva."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == info.name:
                found[f"{info.name}.{name}"] = obj
    return found


def bounded_caches() -> dict:
    """The caches of ``package_caches`` that hold a bounded number of entries."""
    return {
        name: f
        for name, f in package_caches().items()
        if f.cache_parameters()["maxsize"] is not None
    }


def empty_caches():
    """Empty the package's bounded caches, so that a count does not depend
    on what ran before."""
    for cached in bounded_caches().values():
        cached.cache_clear()


def relation_entries(spec, g) -> list:
    """The entries of the memo behind ``jetpoly.expansion`` that
    ``coded_relations`` reads for (spec, g), one per relation: each a list
    that holds the relation's widest expansion, empty before a read."""
    return [
        jetpoly._expansion_memo(p, jetpoly.require_coordinates(p, g.exponents), None)
        for p in spec.relations
    ]


@pytest.fixture
def substitutions(monkeypatch):
    """The caches emptied, and a list that gets (source, top) for every
    substitution made from then on, top being the window in units of 1/m:
    the expansions of the memo ``jetpoly.expansion``, through the kernel
    ``jetpoly.substitute_coded``, and the descent translates, through
    ``twisted``'s name for it."""
    empty_caches()
    made = []
    real = jetpoly.substitute_coded

    def recorded(p, exponents, top, layout=None):
        made.append((p, top))
        return real(p, exponents, top, layout)

    monkeypatch.setattr(jetpoly, "substitute_coded", recorded)
    monkeypatch.setattr(twisted, "substitute_coded", recorded)
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
