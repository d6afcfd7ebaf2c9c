"""Categorical income recoding.

Some surveys collect monthly income as a letter code naming a bracket
("between 100,000 and 150,000") instead of an amount. Recoding replaces
each letter with the midpoint of its bracket so downstream totals can be
computed. Two presets of the standard 12-bracket map are provided:

* corrected: every amount is the true midpoint of its bracket, the ninth
  bracket accepts both its positional letter I and the legacy letter U,
  and an unmapped token is an error.
* paper-literal: reproduces a widely circulated reference table verbatim,
  including its two quirks: the F amount was computed from a typo'd bound
  (30,000 where 300,000 was meant, giving 115,000 instead of 250,000) and
  the ninth bracket is keyed U only. Unmapped tokens fall back to 0.

Lookups are case-sensitive and exact after whitespace trimming.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import HdbError


@dataclass(frozen=True)
class IncomeRangeMap:
    """An ordered letter-to-amount map with an optional fallback amount.

    ``default_amount`` is what an unmapped token recodes to; None means an
    unmapped token raises UNKNOWN_INCOME_CODE.
    """

    entries: Mapping[str, float]
    default_amount: float | None = None

    def __post_init__(self):
        if not self.entries:
            raise HdbError("ERROR", "income map has no entries")
        for code, amount in self.entries.items():
            if len(code) != 1 or code != code.strip() or not code:
                raise HdbError("ERROR", f"income code {code!r} is not a single character")
            if not amount >= 0:
                raise HdbError("ERROR", f"income amount for {code!r} must be >= 0, got {amount}")
        if self.default_amount is not None and not self.default_amount >= 0:
            raise HdbError("ERROR",
                           f"default income amount must be >= 0, got {self.default_amount}")
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))


def elim1_default_map(paper_literal: bool = False) -> IncomeRangeMap:
    """The standard 12-bracket monthly-income map (bracket midpoints)."""
    if paper_literal:
        return IncomeRangeMap(
            entries={
                "A": 14500.0,
                "B": 39500.0,
                "C": 75000.0,
                "D": 125000.0,
                "E": 175000.0,
                # (200000 + 30000) / 2: the missing zero is reproduced on purpose
                "F": 115000.0,
                "G": 400000.0,
                "H": 625000.0,
                "U": 875000.0,
                "J": 1250000.0,
                "K": 2000000.0,
                "L": 3000000.0,
            },
            default_amount=0.0,
        )
    return IncomeRangeMap(
        entries={
            "A": 14500.0,
            "B": 39500.0,
            "C": 75000.0,
            "D": 125000.0,
            "E": 175000.0,
            "F": 250000.0,
            "G": 400000.0,
            "H": 625000.0,
            "I": 875000.0,
            "U": 875000.0,  # legacy alias for the ninth bracket
            "J": 1250000.0,
            "K": 2000000.0,
            "L": 3000000.0,
        },
        default_amount=None,
    )


def income_from_letter(raw: str, mapping: IncomeRangeMap) -> float:
    """Recode one letter token to its bracket amount.

    The token is whitespace-trimmed, then matched case-sensitively. An empty
    token is a BAD_INCOME_TOKEN error; an unmapped non-empty token uses the
    map's default amount, or raises UNKNOWN_INCOME_CODE when there is none.
    """
    token = raw.strip()
    if not token:
        raise HdbError("BAD_INCOME_TOKEN", f"cannot read {raw!r} as an income amount")
    amount = mapping.entries.get(token)
    if amount is not None:
        return amount
    if mapping.default_amount is not None:
        return mapping.default_amount
    raise HdbError("UNKNOWN_INCOME_CODE", f"income code {token!r} is not in the range map")
