"""Per-layer tracing of jetva, installed from outside the package.

The tracer replaces chosen jetva functions and methods with wrappers after
``import jetva`` and before any work starts; no file of the package
changes.  A function is replaced by identity in every ``jetva`` module
namespace that holds it (``coinv`` keeps its own reference to functions
it imported, ``twisted`` calls ``twisted_field`` through its globals), so
no call escapes through a stale binding.  A method is replaced on its class
under every name that holds it (``PuiseuxSeries.__rmul__`` is
``__mul__``), which also covers every module that shares the class.

Span wrappers record each call as a span (name, parent span, start, end)
on a stack held in memory; a span's self time is its duration minus the
durations of its direct child spans.  Count wrappers only count: the
cyclotomic scalar operations are so small that a span would cost more than
the operation.  Spans are written out once the traced job has ended.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from fractions import Fraction


def _rows_hook(tracer, args, kwargs, result):
    row = args[1]
    tracer.bump("linalg.add.rank_gained", 1 if result else 0)
    if any(not v.is_rational() for v in row.values()):
        tracer.bump("linalg.add.nonrational_rows", 1)


def _monomials_hook(tracer, args, kwargs, result):
    tracer.bump(
        "jetscheme.enumerate_monomials.monomials",
        sum(len(mons) for mons in result.values()),
    )


def _sections_hook(tracer, args, kwargs, result):
    tracer.bump("coinv.enumerate_sections.sections", len(result))


def _field_key_hook(tracer, args, kwargs, result):
    # The key under which the package caches a built field.
    bound = dict(zip(("a", "g", "window", "spec"), args), **kwargs)
    g, spec = bound["g"], bound.get("spec")
    alpha = tuple(g.alpha_by_index(spec)) if spec is not None else g.exponents
    tracer.field_keys.add((bound["a"], g.order, alpha, Fraction(bound["window"])))


# (metric prefix, module, attribute path, hook run inside the span)
SPANS = [
    ("linalg.add", "jetva.linalg", "RowReducer.add", _rows_hook),
    ("linalg.contains", "jetva.linalg", "RowReducer.contains", None),
    ("jetscheme.graded_quotient_dims", "jetva.jetscheme", "graded_quotient_dims", None),
    ("jetscheme.enumerate_monomials", "jetva.jetscheme", "enumerate_monomials", _monomials_hook),
    ("jetscheme.twisted_jet_generators", "jetva.jetscheme", "twisted_jet_generators", None),
    ("jetscheme.jet_generators", "jetva.jetscheme", "jet_generators", None),
    ("jetscheme.preserves_ideal", "jetva.jetscheme", "preserves_ideal", None),
    ("coinv.residue_relation", "jetva.coinv", "residue_relation", None),
    ("coinv.enumerate_sections", "jetva.coinv", "enumerate_sections", _sections_hook),
    ("coinv.coinvariant_dims", "jetva.coinv", "coinvariant_dims", None),
    ("twisted.twisted_field", "jetva.twisted", "twisted_field", _field_key_hook),
    ("twisted.check_twisted_borcherds", "jetva.twisted", "check_twisted_borcherds", None),
    ("twisted.check_twisted_axioms", "jetva.twisted", "check_twisted_axioms", None),
    ("twisted.check_descent", "jetva.twisted", "check_descent", None),
    ("jetpoly.JetPoly.mul", "jetva.jetpoly", "JetPoly.__mul__", None),
    ("jetpoly.PuiseuxSeries.mul", "jetva.jetpoly", "PuiseuxSeries.__mul__", None),
    ("jetpoly.derivation_T", "jetva.jetpoly", "derivation_T", None),
    ("jetpoly.divided_t_power", "jetva.jetpoly", "divided_t_power", None),
    ("jetpoly.substitute_jets", "jetva.jetpoly", "substitute_jets", None),
    ("va.check_borcherds", "jetva.va", "check_borcherds", None),
    ("va.check_va_axioms", "jetva.va", "check_va_axioms", None),
    ("quasiconf.check_commutators", "jetva.quasiconf", "check_commutators", None),
    ("parse.parse_expression", "jetva.parse", "parse_expression", None),
    ("cli.main", "jetva.cli", "main", None),
]

# (metric prefix, module, attribute paths counted together).  A subtraction
# also runs one negation and one addition, which count too.
COUNTS = [
    ("cyclo.mul", "jetva.cyclo", ("CycScalar.__mul__",)),
    (
        "cyclo.add",
        "jetva.cyclo",
        ("CycScalar.__add__", "CycScalar.__sub__", "CycScalar.__rsub__", "CycScalar.__neg__"),
    ),
    ("cyclo.inverse", "jetva.cyclo", ("CycScalar.inverse",)),
]


def _resolve(module: str, path: str):
    """(owner, current value) for 'func' or 'Class.method'."""
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, getattr(owner, name)


def _replace(owner, original, wrapper) -> int:
    """Rebind every name of ``original`` to ``wrapper``.  A class is patched
    in its own namespace; a module-level function in every jetva module."""
    if isinstance(owner, type):
        spaces = [owner]
    else:
        spaces = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "jetva" or name.startswith("jetva.")
        ]
    hits = 0
    for space in spaces:
        for attr, value in list(vars(space).items()):
            if value is original:
                setattr(space, attr, wrapper)
                hits += 1
    return hits


class Tracer:
    """Spans and counters for one traced job."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters = dict.fromkeys(
            (
                "linalg.add.rank_gained",
                "linalg.add.nonrational_rows",
                "jetscheme.enumerate_monomials.monomials",
                "coinv.enumerate_sections.sections",
            ),
            0,
        )
        self.field_keys: set = set()
        self._count_cells: dict[str, list[int]] = {}
        # one entry per span, appended at its start
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, seconds spent in children]

    def bump(self, name: str, n: int) -> None:
        self.counters[name] += n

    def _span_wrapper(self, prefix: str, fn, hook):
        nid = len(self.names)
        self.names.append(prefix)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    @staticmethod
    def _count_wrapper(cell: list[int], fn):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        """Wrap every target; call after ``import jetva``, before any work."""
        for prefix, module, path, hook in SPANS:
            owner, fn = _resolve(module, path)
            if not _replace(owner, fn, self._span_wrapper(prefix, fn, hook)):
                raise RuntimeError(f"no binding of {module}.{path} to wrap")
        for prefix, module, paths in COUNTS:
            cell = self._count_cells.setdefault(prefix, [0])
            for path in paths:
                owner, fn = _resolve(module, path)
                _replace(owner, fn, self._count_wrapper(cell, fn))

    def metrics(self) -> dict[str, float]:
        """Every traced number, keyed ``<module>.<function>.<what>``."""
        out: dict[str, float] = {}
        for nid, prefix in enumerate(self.names):
            out[f"{prefix}.calls"] = self.calls[nid]
            out[f"{prefix}.s"] = self.self_s[nid]
        for prefix, cell in self._count_cells.items():
            out[f"{prefix}.calls"] = cell[0]
        out.update(self.counters)
        adds = out["linalg.add.calls"]
        out["linalg.add.useful_ratio"] = (
            out["linalg.add.rank_gained"] / adds if adds else 0.0
        )
        out["twisted.twisted_field.distinct_keys"] = len(self.field_keys)
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start and end in
        nanoseconds from the first span."""
        base = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for idx in range(len(self.span_start)):
                fh.write(
                    f"{idx}\t{self.span_parent[idx]}\t"
                    f"{self.names[self.span_name[idx]]}\t"
                    f"{round((self.span_start[idx] - base) * 1e9)}\t"
                    f"{round((self.span_end[idx] - base) * 1e9)}\n"
                )
