"""Log-domain complex values for quantities far outside double range."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


# Cody-Waite split of ln 2: _LN2_HI has 20+ trailing zero mantissa bits, so
# k * _LN2_HI is exact for |k| < 2^20 and exp() never sees a huge argument.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _exp_accurate(x: float) -> float:
    """exp(x) with ~1 ulp relative error even for |x| near 700."""
    if x == -math.inf:
        return 0.0
    k = round(x / math.log(2.0))
    rem = (x - k * _LN2_HI) - k * _LN2_LO
    try:
        return math.ldexp(math.exp(rem), k)
    except OverflowError:
        return math.inf


def _wrap_phase(phi: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    phi = math.fmod(phi, 2.0 * math.pi)
    if phi > math.pi:
        phi -= 2.0 * math.pi
    elif phi <= -math.pi:
        phi += 2.0 * math.pi
    return phi


@dataclass(frozen=True)
class LogComplex:
    """A complex number stored as exp(log_mag) * exp(i * phase).

    log_mag = -inf is the distinguished zero result (e.g. from a kernel sum
    that cancels below its rounding floor); ordinary values are nonzero.
    """

    log_mag: float
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "phase", _wrap_phase(self.phase))

    @staticmethod
    def zero() -> "LogComplex":
        return LogComplex(-math.inf, 0.0)

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    @staticmethod
    def from_complex(value: complex) -> "LogComplex":
        value = complex(value)
        if value == 0:
            return LogComplex.zero()
        return LogComplex(math.log(abs(value)), cmath.phase(value))

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        mag = _exp_accurate(self.log_mag)
        return complex(mag * math.cos(self.phase), mag * math.sin(self.phase))
