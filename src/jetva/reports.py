"""Shared check-report record."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One verified identity: name, outcome, and the exact discrepancy
    (already rendered) when it fails."""

    name: str
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness
        return d

