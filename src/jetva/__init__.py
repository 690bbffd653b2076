"""Exact jet-space fields: jet schemes, twisted jets, vertex-operator
axioms at finite truncation, and orbifold coinvariants.

The Python API is the submodules (``jetva.coinv``, ``jetva.twisted``, ...);
the command line is ``jetva.cli``."""
