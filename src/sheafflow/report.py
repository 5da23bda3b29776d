"""Structured pass/fail reporting for law suites.

Every validation surface in the package funnels through LawReport so that
violations always carry a named law and a concrete witness.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Violation:
    law: str
    witness: Any
    detail: str = ""

    def __str__(self) -> str:
        base = f"{self.law}: witness={self.witness!r}"
        return f"{base} ({self.detail})" if self.detail else base


@dataclass
class LawReport:
    """Tally of checks run and the violations found."""

    title: str = ""
    checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, law: str, passed: bool, witness: Any = None, detail: str = "") -> bool:
        self.checks += 1
        if not passed:
            self.violations.append(Violation(law, witness, detail))
        return passed

    def summary(self) -> str:
        head = f"{self.title}: " if self.title else ""
        if self.ok:
            return f"{head}ok ({self.checks} checks)"
        return f"{head}{len(self.violations)} violation(s) in {self.checks} checks; first: {self.violations[0]}"

