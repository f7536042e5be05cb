"""Structured results for verification runs.

A report is a flat list of independent checks, each with a machine-parsable
verdict, so runs can be diffed, archived, and rendered either as JSON or as
a fixed-width text table.  JSON serialization uses sorted keys and sorted
check ids so that two runs with identical outcomes differ only in the
timestamp and runtime fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Sequence, Tuple

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class CheckResult:
    id: str
    claim: str
    computed: str
    target: str
    tolerance: str
    verdict: str
    runtime_ms: float

    def __post_init__(self):
        if self.verdict not in (PASS, FAIL):
            raise ValueError(f"verdict must be {PASS!r} or {FAIL!r}, got {self.verdict!r}")


@dataclass(frozen=True)
class VerificationReport:
    version: str
    timestamp: str
    checks: Tuple[CheckResult, ...]

    @staticmethod
    def build(version: str, checks: Sequence[CheckResult]) -> "VerificationReport":
        ordered = tuple(sorted(checks, key=lambda c: c.id))
        ids = [c.id for c in ordered]
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise ValueError(f"duplicate check ids: {sorted(dupes)}")
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return VerificationReport(version, stamp, ordered)

    def all_passed(self) -> bool:
        return all(c.verdict == PASS for c in self.checks)

    def counts(self) -> Tuple[int, int]:
        passed = sum(1 for c in self.checks if c.verdict == PASS)
        return passed, len(self.checks) - passed

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "timestamp": self.timestamp,
            "checks": [asdict(c) for c in self.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        headers = ("id", "verdict", "computed", "target", "tolerance", "claim")
        rows = [
            (c.id, c.verdict, c.computed, c.target, c.tolerance, c.claim)
            for c in self.checks
        ]
        widths = [
            max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        passed, failed = self.counts()
        lines.append("")
        lines.append(f"{passed} passed, {failed} failed ({self.timestamp}, v{self.version})")
        return "\n".join(lines)
