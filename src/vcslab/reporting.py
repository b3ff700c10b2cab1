"""Verification reports: typed check records, JSON and text rendering.

Reports are deterministic for a fixed config and seed: two runs differ only
in the ``timestamp`` and ``wall_time_s`` fields.  JSON is written with sorted
keys so the byte layout is stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["CheckRecord", "VerificationReport", "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CheckRecord:
    """One numeric check: a value compared against a tolerance.

    ``comparator`` is ``"<="`` for a residual that must stay small, and
    ``"within"`` for a value that must stay in the window ``tolerance =
    (low, high)``, both ends included; a window with a positive floor
    requires a large value.  A NaN or an infinite value fails both.
    """

    name: str
    anchor: str
    value: float
    tolerance: float | tuple[float, float]
    comparator: str = "<="

    @property
    def passed(self) -> bool:
        low, high = (-math.inf, self.tolerance) if self.comparator == "<=" else self.tolerance
        return math.isfinite(self.value) and low <= self.value <= high

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "value": self.value,
            "tolerance": self.tolerance,
            "comparator": self.comparator,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    title: str
    kind: str
    anchor: str
    config: dict
    seed: int
    library_version: str
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0
    timestamp: str = ""

    @property
    def overall_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "title": self.title,
            "kind": self.kind,
            "anchor": self.anchor,
            "config": self.config,
            "seed": self.seed,
            "library_version": self.library_version,
            "checks": [check.to_dict() for check in self.checks],
            "overall_pass": self.overall_pass,
            "wall_time_s": self.wall_time_s,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary_text(self) -> str:
        """Human-readable pass/fail table."""
        lines = [
            f"{self.title}",
            f"kind: {self.kind}   anchor: {self.anchor}   seed: {self.seed}",
            "-" * 84,
            f"{'check':<44}{'value':>12}  {'bound':<22}result",
            "-" * 84,
        ]
        for check in self.checks:
            bound = f"{check.comparator} {json.dumps(check.tolerance)}"
            verdict = "pass" if check.passed else "FAIL"
            lines.append(f"{check.name:<44}{check.value:>12.3e}  {bound:<22}{verdict}")
        lines.append("-" * 84)
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"
