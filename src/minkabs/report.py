"""Machine-readable run reports for the verification commands.

A report is deterministic for a fixed configuration and seed: the JSON
serialization sorts keys and, by default, zeroes the wall-clock timings
(opt back in with ``include_timings``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

__all__ = ["CheckResult", "RunReport", "sweep_csv", "SWEEP_CSV_HEADER"]

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

    @staticmethod
    def make(name, residual, tolerance, n, t0, below=True, **details):
        """A check timed from ``t0``; ``n`` is the lattice size, 0 without one."""
        ok = residual <= tolerance if below else residual >= tolerance
        return CheckResult(
            name=name,
            residual=float(residual),
            tolerance=float(tolerance),
            passed=bool(ok),
            n=n,
            seconds=time.perf_counter() - t0,
            details=details,
            below=below,
        )


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

    def check(self, name, tolerance, n, thunk, below=True) -> CheckResult:
        """Add the check of ``thunk()``, timed over that call alone: ``thunk``
        returns the residual, or the residual and a dict of details."""
        t0 = time.perf_counter()
        out = thunk()
        residual, details = out if isinstance(out, tuple) else (out, {})
        return self.add(CheckResult.make(name, residual, tolerance, n, t0, below, **details))

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
