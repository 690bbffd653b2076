"""Immutable value types over ``__slots__``.

Every value type of the package is a class whose ``__slots__`` hold its
fields and, for some, a value worked out from them once (a hash, a sort
key).  Instances never change: ``Value`` makes ``__setattr__`` and
``__delattr__`` raise AttributeError, so a constructor (or a factory such
as ``cyclo._make``) sets each slot through the slot's own descriptor,
taken once per class from ``setters``: ``Cls.field.__set__``, which is
also quicker than ``object.__setattr__``.

From the field names in ``__match_args__``, the constructor's arguments
in order, ``Value`` also gives:

- equality: the same class and equal field tuples;
- the hash of the field tuple;
- ``repr`` as ``Name(field=value, ...)``;
- pickling and copying, by calling the constructor on the fields again.

A type that keeps its hash, or compares in a hot loop, overrides
``__hash__`` and ``__eq__`` with methods that give the same answers;
``CycScalar``, whose constructor takes coordinates rather than its
slots, overrides all four.
"""

from __future__ import annotations


def setters(cls: type) -> tuple:
    """The ``__set__`` of each of cls's slots, in the order of ``__slots__``."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class Value:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()
