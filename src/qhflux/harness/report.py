"""Structured pass/fail rows with deterministic CSV/JSON serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

CSV_HEADER = "case_id,N,n,kappa,gamma,regime,quantity,measured,predicted,bound,ratio,pass"


def fmt(x: float) -> str:
    """Lossless (17 significant digit) float formatting."""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def csv_field(s: str) -> str:
    """A text field made safe for an unquoted CSV column: commas become ';'."""
    return s.replace(",", ";")


@dataclass(frozen=True)
class ReportRow:
    case_id: str
    N: int
    n: int
    kappa: float
    gamma: float
    regime: str
    quantity: str
    measured: float
    predicted: float = math.nan
    bound: float = math.nan
    mode: str = "bound"           # "bound": measured <= bound;
    ratio_override: float | None = None   # for log-domain comparisons

    @property
    def deviation(self) -> float:
        if self.mode == "tolerance":
            return abs(self.measured - self.predicted)
        return self.measured

    @property
    def ratio(self) -> float:
        if self.ratio_override is not None:
            return self.ratio_override
        if not math.isfinite(self.bound) or self.bound == 0.0:
            return math.nan
        return self.deviation / self.bound

    @property
    def passed(self) -> bool:
        if self.ratio_override is not None:
            return self.ratio_override <= 1.0
        return self.deviation <= self.bound

    def csv_line(self) -> str:
        return ",".join([
            csv_field(self.case_id), str(self.N), str(self.n), fmt(self.kappa),
            fmt(self.gamma), csv_field(self.regime), csv_field(self.quantity),
            fmt(self.measured), fmt(self.predicted), fmt(self.bound),
            fmt(self.ratio), "1" if self.passed else "0",
        ])


@dataclass
class VerificationReport:
    suite: str
    seed: int
    params: dict = field(default_factory=dict)
    rows: list[ReportRow] = field(default_factory=list)

    def add(self, row: ReportRow):
        self.rows.append(row)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def failures(self) -> list[ReportRow]:
        return [r for r in self.rows if not r.passed]

    @property
    def max_ratio(self) -> float:
        ratios = [r.ratio for r in self.rows if math.isfinite(r.ratio)]
        return max(ratios) if ratios else math.nan

    def to_csv(self) -> str:
        lines = [CSV_HEADER] + [r.csv_line() for r in self.rows]
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "params": self.params,
            "rows": len(self.rows),
            "passed": self.all_passed,
            "max_ratio": None if math.isnan(self.max_ratio) else self.max_ratio,
            "failures": [f"{r.case_id}:{r.quantity}" for r in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"
