"""Merging-regime classification of hole configurations.

delta_N = kappa sqrt(log N / N) sets the exclusion scales: configurations
must sit inside the shrunk droplet |y_j| <= 1 - delta_N; pairs closer than
2 delta_N count as merging; a single merging pair with separation^2 at least
N^{-1-gamma} is "single-merging", anything worse is "remainder".  Threshold
equalities resolve toward the more singular regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..partition import HoleConfig


@dataclass(frozen=True)
class Regime:
    kind: str                       # outside-droplet | no-merging | single-merging | remainder
    pair: tuple[int, int] | None = None

    @property
    def has_prediction(self) -> bool:
        """Whether the leading-order predictions cover this kind; they take
        self.pair, which is None away from merging."""
        return self.kind in ("no-merging", "single-merging")

    def __str__(self):
        if self.kind == "single-merging" and self.pair is not None:
            return f"single-merging({self.pair[0]},{self.pair[1]})"
        return self.kind


@dataclass(frozen=True)
class RegimeClassifier:
    kappa: float = 2.0
    gamma: float = 1.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.kappa, self.gamma)):
            raise ValueError(f"kappa and gamma must be finite and positive, got "
                             f"kappa={self.kappa}, gamma={self.gamma}")

    def delta(self, N: int) -> float:
        return self.kappa * math.sqrt(math.log(N) / N)

    def classify(self, cfg: HoleConfig) -> Regime:
        d = self.delta(cfg.N)
        if any(abs(w) > 1.0 - d for w in cfg.w):
            return Regime("outside-droplet")
        close = []
        for i in range(cfg.n):
            for j in range(i + 1, cfg.n):
                if abs(cfg.w[i] - cfg.w[j]) <= 2.0 * d:
                    close.append((i, j))
        if not close:
            return Regime("no-merging")
        if len(close) == 1:
            i, j = close[0]
            if abs(cfg.w[i] - cfg.w[j]) ** 2 >= cfg.N ** (-1.0 - self.gamma):
                return Regime("single-merging", pair=(i, j))
        return Regime("remainder")
