"""Gaussian elimination over Q(zeta_m).

``RowReducer`` is the package's one row elimination: every rank, span
membership and dimension table goes through it.  Rows are sparse mappings
column-index -> CycScalar, and every entry it stores or returns is a
CycScalar of its order: pivot rows, residues and the updates between them.
The reducer keeps a row-echelon basis and supports incremental rank
queries, which is what the graded dimension counts and the
span-membership checks need.  There is no pivoting heuristic beyond
"lowest column first" because there is no rounding to fight.
"""

from __future__ import annotations

from .cyclo import CycScalar


Row = dict[int, CycScalar]


class RowReducer:
    """Incremental row-echelon form over a fixed cyclotomic field."""

    def __init__(self, order: int):
        self.order = order
        # pivot column -> row with entry 1 there
        self.pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: Row) -> Row:
        """Return the residue of ``row`` modulo the current row space."""
        work = {c: v for c, v in row.items() if v}
        pivots = self.pivots
        while work:
            lead = min(work)
            piv = pivots.get(lead)
            if piv is None:
                return work
            factor = work[lead]
            for c, v in piv.items():
                acc = work[c] - factor * v if c in work else -(factor * v)
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
