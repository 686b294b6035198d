"""One sub-claim of a check: what is stated, what was computed, whether it holds.

The reports in spans and census and the check registry all speak in Claims,
and each serialises as {"name", "expected", "actual", "pass"}.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Claim:
    name: str
    expected: str
    actual: str
    ok: bool

    @staticmethod
    def of(name: str, expected, actual) -> "Claim":
        """The claim that actual equals expected."""
        return Claim(name, str(expected), str(actual), expected == actual)

    def to_json(self) -> dict:
        return {"name": self.name, "expected": self.expected,
                "actual": self.actual, "pass": self.ok}
