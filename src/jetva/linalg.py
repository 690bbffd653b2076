"""Gaussian elimination over Q(zeta_m).

``RowReducer`` is the package's one row elimination: every rank, span
membership and dimension table goes through it.  Rows are sparse mappings
column-index -> CycScalar.  The reducer keeps a row-echelon basis and
supports incremental rank queries, which is what the graded dimension
counts and the span-membership checks need.  There is no pivoting
heuristic beyond "lowest column first" because there is no rounding to
fight.

Rows come in typed over CycScalar, but every rational entry is lowered to
its Fraction, the constant numerator over the scalar's denominator, on
entry and whenever an update leaves an entry rational; only the
irrational entries stay CycScalar.  So the common all-rational
row is reduced with Fraction arithmetic alone, and mixed products and sums
go through CycScalar's reflected operators, which take a rational operand
without a full cyclotomic product.  Stored pivot rows and returned
residues hold these lowered entries.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycScalar


Row = dict[int, CycScalar]


def _lower(v: Fraction | CycScalar) -> Fraction | CycScalar:
    """A rational CycScalar as its Fraction; anything else unchanged."""
    if type(v) is CycScalar and v.is_rational():
        return Fraction(v.nums[0], v.den)
    return v


class RowReducer:
    """Incremental row-echelon form over a fixed cyclotomic field."""

    def __init__(self, order: int):
        self.order = order
        # pivot column -> row with entry 1 there, entries lowered
        self.pivots: dict[int, dict[int, Fraction | CycScalar]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> dict[int, Fraction | CycScalar]:
        """Return the residue of ``row`` modulo the current row space, with
        rational entries as Fractions."""
        work = {c: _lower(v) for c, v in row.items() if v}
        pivots = self.pivots
        while work:
            lead = min(work)
            piv = pivots.get(lead)
            if piv is None:
                return work
            factor = work[lead]
            for c, v in piv.items():
                acc = work.get(c, 0) - factor * v
                if acc:
                    work[c] = _lower(acc)
                else:
                    work.pop(c, None)
        return work

    def add(self, row: Row) -> bool:
        """Insert a row; True if it enlarged the row space."""
        res = self.reduce(row)
        if not res:
            return False
        lead = min(res)
        inv = 1 / res[lead]
        self.pivots[lead] = {c: _lower(inv * v) for c, v in res.items()}
        return True

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)

