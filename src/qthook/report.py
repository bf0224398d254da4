"""Verification reports: the JSON surface shared by every check."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class VerificationReport:
    check: str
    family: str | None = None
    params: dict | None = None
    degree: int | None = None
    mode: str | None = None
    points: list | None = None
    result: str = "pass"
    mismatch: dict | None = None
    elapsed_ms: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_dict(self) -> dict:
        out = {
            "schemaVersion": SCHEMA_VERSION,
            "check": self.check,
            "family": self.family,
            "params": self.params,
            "D": self.degree,
            "mode": self.mode,
            "points": self.points,
            "result": self.result,
            "mismatch": self.mismatch,
            "elapsedMs": round(self.elapsed_ms, 3),
        }
        out.update(self.extra)
        return out


@contextmanager
def timed(report: VerificationReport):
    """Fill ``report.elapsed_ms`` with the wall time of the block, also when
    it raises."""
    t0 = time.perf_counter()
    try:
        yield report
    finally:
        report.elapsed_ms = (time.perf_counter() - t0) * 1000.0
