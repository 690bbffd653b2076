"""Exact Gaussian elimination over Q(zeta_m).

Rows are sparse mappings column-index -> CycScalar.  The reducer keeps a
row-echelon basis and supports incremental rank queries, which is what the
graded dimension counts and the span-membership checks need.  Everything is
exact; there is no pivoting heuristic beyond "lowest column first" because
there is no rounding to fight.
"""

from __future__ import annotations

from .cyclo import CycScalar


Row = dict[int, CycScalar]


class RowReducer:
    """Incremental row-echelon form over a fixed cyclotomic field."""

    def __init__(self, order: int):
        self.order = order
        self.pivots: dict[int, Row] = {}  # pivot column -> normalized row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Return the residue of ``row`` modulo the current row space."""
        work = {c: v for c, v in row.items() if v}
        while work:
            lead = min(work)
            piv = self.pivots.get(lead)
            if piv is None:
                return work
            factor = work[lead]
            for c, v in piv.items():
                acc = work.get(c, CycScalar.zero(self.order)) - factor * v
                if acc:
                    work[c] = acc
                else:
                    work.pop(c, None)
        return work

    def add(self, row: Row) -> bool:
        """Insert a row; True if it enlarged the row space."""
        res = self.reduce(row)
        if not res:
            return False
        lead = min(res)
        inv = res[lead].inverse()
        self.pivots[lead] = {c: inv * v for c, v in res.items()}
        return True

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)
