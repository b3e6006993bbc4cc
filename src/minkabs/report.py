"""Machine-readable run reports for the verification commands.

A report is deterministic for a fixed configuration and seed: the JSON
serialization sorts keys and, by default, zeroes the wall-clock timings
(opt back in with ``include_timings``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

__all__ = ["CheckResult", "Checks", "RunReport", "sweep_csv", "SWEEP_CSV_HEADER"]

SWEEP_CSV_HEADER = "delta_t_sec,rapidity,leakage,N"


@dataclass(frozen=True)
class CheckResult:
    """One measured residual against its tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    n: int
    seconds: float
    details: dict = field(default_factory=dict)
    below: bool = True  # the residual must stay at or below the tolerance


class Checks(list):
    """Checks recorded in order, as ``check(name, residual, tolerance,
    below=True, **details)``; each is timed over the work since the previous
    record, the first since the recorder was made.  ``n`` is the lattice
    size, 0 without one."""

    def __init__(self, n: int = 0):
        super().__init__()
        self.n = n
        self._since = time.perf_counter()

    def __call__(self, name, residual, tolerance, below=True, **details) -> None:
        now = time.perf_counter()
        ok = bool(residual <= tolerance if below else residual >= tolerance)
        seconds, self._since = now - self._since, now
        residual, tolerance = float(residual), float(tolerance)
        self.append(CheckResult(name, residual, tolerance, ok, self.n, seconds, details, below))


@dataclass
class RunReport:
    """Results of one verification suite run."""

    suite: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    tables: dict[str, list[dict]] = field(default_factory=dict)

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, include_timings: bool = False) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "passed": self.all_passed(),
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "bound": "upper" if c.below else "lower",
                    "passed": c.passed,
                    "N": c.n,
                    "seconds": c.seconds if include_timings else 0.0,
                    "details": c.details,
                }
                for c in self.checks
            ],
            "tables": self.tables,
        }

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_timings=include_timings),
            indent=2,
            sort_keys=True,
            allow_nan=False,
        )

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            rel = "<=" if c.below else ">="
            lines.append(
                f"{mark} {c.name}: residual {c.residual:.3e} {rel} {c.tolerance:.3e}"
            )
        return lines


def sweep_csv(rows: list[dict]) -> str:
    """Leakage sweep as CSV with the fixed header."""
    out = [SWEEP_CSV_HEADER]
    for r in rows:
        out.append(
            f"{r['delta_t_sec']!r},{r['rapidity']!r},{r['leakage']!r},{r['N']}"
        )
    return "\n".join(out) + "\n"
