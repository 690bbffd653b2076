"""Shared check-report record."""

from __future__ import annotations

from .value import Value, setters


class CheckResult(Value):
    """One verified identity: name, outcome, and the exact discrepancy
    (already rendered) when it fails."""

    __slots__ = __match_args__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: str | None = None):
        _set_name(self, name)
        _set_passed(self, passed)
        _set_witness(self, witness)

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


_set_name, _set_passed, _set_witness = setters(CheckResult)
