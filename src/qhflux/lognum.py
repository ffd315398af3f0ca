"""Log-domain complex arithmetic for quantities far outside double range."""

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

    log_mag = -inf is the distinguished zero result (e.g. from exact
    cancellation in :func:`log_sum`); ordinary values are nonzero.
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

    @staticmethod
    def from_real(value: float) -> "LogComplex":
        if value == 0:
            return LogComplex.zero()
        if value > 0:
            return LogComplex(math.log(value), 0.0)
        return LogComplex(math.log(-value), math.pi)

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        mag = _exp_accurate(self.log_mag)
        return complex(mag * math.cos(self.phase), mag * math.sin(self.phase))

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.is_zero or other.is_zero:
            return LogComplex.zero()
        return LogComplex(self.log_mag + other.log_mag, self.phase + other.phase)

    def __neg__(self) -> "LogComplex":
        if self.is_zero:
            return self
        return LogComplex(self.log_mag, self.phase + math.pi)

    def conjugate(self) -> "LogComplex":
        return LogComplex(self.log_mag, -self.phase)

    def powi(self, k: int) -> "LogComplex":
        if self.is_zero:
            return LogComplex.zero() if k > 0 else LogComplex(0.0, 0.0)
        return LogComplex(k * self.log_mag, k * self.phase)


def log_sum(terms: list[LogComplex]) -> LogComplex:
    """Sum log-domain complex values by factoring out the largest magnitude.

    A result that falls below the roundoff noise floor of the shifted sum
    (a few eps times the summed mantissa magnitudes) is cancellation at
    working precision and is reported as the distinguished zero.
    """
    if not terms:
        raise ValueError("log_sum requires a nonempty list of terms")
    m = max(t.log_mag for t in terms)
    if m == -math.inf:
        return LogComplex.zero()
    acc = 0j
    mass = 0.0
    for t in terms:
        if t.is_zero:
            continue
        r = math.exp(t.log_mag - m)
        acc += complex(r * math.cos(t.phase), r * math.sin(t.phase))
        mass += r
    if abs(acc) <= 8.0 * 2.220446049250313e-16 * mass:
        return LogComplex.zero()
    return LogComplex(m + math.log(abs(acc)), cmath.phase(acc))
