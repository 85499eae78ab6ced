"""Validation findings: rule violations reported as data, not exceptions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from .errors import ModelError


@dataclass(frozen=True)
class Finding:
    """One violated rule, naming the offending element."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, rule: str, message: str) -> None:
        self.findings.append(Finding(rule, message))

    def raise_if_failed(self, what: str = "value") -> None:
        """Raise ModelError when any finding was recorded."""
        if self.findings:
            details = "; ".join(str(f) for f in self.findings)
            raise ModelError(f"invalid {what}: {details}")


def non_strings(names: Iterable) -> list:
    """The distinct names that are not strings, in first-seen order.  One
    pass over the names' types settles the usual case where all are (a str
    subclass fails it, so then each name is checked)."""
    names = tuple(names)
    if set(map(type, names)) <= {str}:
        return []
    out: list = []
    for x in names:
        if not isinstance(x, str) and x not in out:
            out.append(x)
    return out


def refuse_non_strings(names: Iterable, doing: str) -> None:
    """Raise `ModelError("cannot <doing>: name ... is not a string")`,
    naming the first name that is not a string; return when all are."""
    odd = non_strings(names)
    if odd:
        raise ModelError(f"cannot {doing}: name {odd[0]!r} is not a string")


def bound(value: object, name: str) -> int:
    """`value` as the bound `name`: raise `ModelError` unless it is an int,
    and not a bool, of at least 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ModelError(f"{name} must be at least 1, got {value}")
    return value


def repeated(items: Iterable[Hashable]) -> list:
    """The items listed more than once, sorted, each named once."""
    return sorted(x for x, k in Counter(items).items() if k > 1)
