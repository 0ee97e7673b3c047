"""Structured verification reports: per-check records with deterministic JSON
serialization.  Every check is exact and reports the residual "0" or an
exact nonzero value ("1/1" for a false bool).  Runtimes are measured but
zeroed in the serialized form unless explicitly requested, so that rerunning
a suite with the same configuration and seed produces byte-identical output.
"""

from __future__ import annotations

import json
import time
from collections import namedtuple

PASS = "PASS"
FAIL = "FAIL"
CONJECTURE_PASS = "CONJECTURE-PASS"
CONJECTURE_FAIL = "CONJECTURE-FAIL"
SKIPPED = "SKIPPED"


class CheckRecord(namedtuple("CheckRecord", "check_id anchor params status residual "
                             "runtime_ms detail", defaults=("",))):
    __slots__ = ()

    def to_json(self, with_timings: bool = False) -> dict:
        return {
            "check": self.check_id,
            "anchor": self.anchor,
            "params": self.params,
            "status": self.status,
            "residual": self.residual,
            "runtime_ms": round(self.runtime_ms, 3) if with_timings else 0,
            **({"detail": self.detail} if self.detail else {}),
        }


class VerificationReport:
    def __init__(self, suite: str, config: dict):
        self.suite = suite
        self.config = config
        self.checks = []
        self.internal_error = False

    def add(self, record: CheckRecord):
        self.checks.append(record)

    @property
    def failed(self) -> bool:
        return any(c.status == FAIL for c in self.checks)

    @property
    def conjecture_failed(self) -> bool:
        return any(c.status == CONJECTURE_FAIL for c in self.checks)

    def sorted_checks(self) -> list:
        return sorted(self.checks, key=lambda c: c.check_id)

    def to_json(self, with_timings: bool = False) -> str:
        payload = {
            "suite": self.suite,
            "config": self.config,
            "checks": [c.to_json(with_timings) for c in self.sorted_checks()],
            "summary": {
                "total": len(self.checks),
                "pass": sum(c.status == PASS for c in self.checks),
                "fail": sum(c.status == FAIL for c in self.checks),
                "conjecture_pass": sum(
                    c.status == CONJECTURE_PASS for c in self.checks
                ),
                "conjecture_fail": sum(
                    c.status == CONJECTURE_FAIL for c in self.checks
                ),
                "skipped": sum(c.status == SKIPPED for c in self.checks),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self, with_timings: bool = False) -> str:
        lines = [f"suite {self.suite}"]
        width = max((len(c.check_id) for c in self.checks), default=10)
        for c in self.sorted_checks():
            t = f"  {c.runtime_ms:9.1f} ms" if with_timings else ""
            lines.append(
                f"  {c.check_id:<{width}}  {c.status:<16} residual={c.residual}{t}"
            )
        lines.append(
            "  => {} checks, {} fail, {} conjecture-fail".format(
                len(self.checks),
                sum(c.status == FAIL for c in self.checks),
                sum(c.status == CONJECTURE_FAIL for c in self.checks),
            )
        )
        return "\n".join(lines)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ms = (time.perf_counter() - self.t0) * 1000.0
        return False
