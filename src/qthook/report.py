"""Verification reports: the JSON surface shared by every check."""

from __future__ import annotations

import time
from contextlib import contextmanager

SCHEMA_VERSION = 1


class VerificationReport:
    """One check's outcome.  A plain class, not a dataclass: ``dataclasses``
    would pull ``inspect`` and its imports into every qthook process."""

    __slots__ = ("check", "family", "params", "degree", "mode", "points",
                 "result", "mismatch", "elapsed_ms", "extra")

    def __init__(self, check: str, family: str | None = None,
                 params: dict | None = None, degree: int | None = None,
                 mode: str | None = None, points: list | None = None,
                 result: str = "pass", mismatch: dict | None = None,
                 elapsed_ms: float = 0.0, extra: dict | None = None):
        self.check, self.family, self.params = check, family, params
        self.degree, self.mode, self.points = degree, mode, points
        self.result, self.mismatch, self.elapsed_ms = result, mismatch, elapsed_ms
        self.extra = {} if extra is None else extra

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
