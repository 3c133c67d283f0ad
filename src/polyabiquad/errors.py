"""Exception types and the work budget shared by the search layers."""

from __future__ import annotations

import sys


class InvalidInputError(ValueError):
    """Malformed argument: zero input, degenerate field, non-ideal lattice."""


class DomainError(ValueError):
    """Operation applied outside its mathematical domain (e.g. the
    fundamental unit of an imaginary field)."""


class BudgetExceededError(RuntimeError):
    """Search budget exhausted before the answer was decided.

    Deliberately distinct from a mathematical verdict: a search that runs
    out of budget never reports "nonprincipal".
    """


class InconsistencyError(RuntimeError):
    """Two independent routes to the same quantity disagreed, or a closed
    formula produced a non-integer.  Always indicates an internal bug."""


def bit_lengths(x) -> str:
    """The bit lengths of the integers x, as "a/b/...": a message names
    these, not the integers, as str() of an int past 4,300 digits raises
    ValueError in CPython 3.10.7 and later."""
    return "/".join(str(c.bit_length()) for c in x)


class Budget:
    """Mutable counter of abstract work units (cycle steps, candidate
    tests).  charge() raises once the allowance is spent; no units means
    no limit (the command line reads its limit in cli._budget_units)."""

    def __init__(self, units: int | None = None):
        self.limit = sys.maxsize if units is None else units
        self.spent = 0

    def charge(self, units: int = 1) -> None:
        self.spent += units
        if self.spent > self.limit:
            raise BudgetExceededError(
                f"work budget exhausted ({self.spent} > {self.limit} units)"
            )

    def cached(self, cache: dict, key, build):
        """cache[key], charged to this budget at the units its build spent.
        On a miss build() charges this budget as it runs, and the value is
        stored with the units it charged only when build returns, so a build
        cut short caches nothing.  A hit searches nothing and is charged
        those units at once: every budget is charged the same, hit or miss."""
        if key in cache:
            value, units = cache[key]
            self.charge(units)
            return value
        before = self.spent
        value = build()
        cache[key] = value, self.spent - before
        return value
