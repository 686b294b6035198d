"""One sub-claim of a check: what is stated, what was computed, whether it holds.

The reports in spans and census and the check registry all speak in Claims,
and each serialises as {"name", "expected", "actual", "pass"}.
"""
from __future__ import annotations

from .record import Record


class Claim(Record):
    __slots__ = ("name", "expected", "actual", "ok")

    def __init__(self, name: str, expected: str, actual: str, ok: bool):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "ok", ok)

    @staticmethod
    def of(name: str, expected, actual) -> "Claim":
        """The claim that actual equals expected."""
        return Claim(name, str(expected), str(actual), expected == actual)

    def to_json(self) -> dict:
        return {"name": self.name, "expected": self.expected,
                "actual": self.actual, "pass": self.ok}
