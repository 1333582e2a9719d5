"""Exact arithmetic over Lebesgue exponents.

An exponent p in (0, inf] is stored via its reciprocal 1/p as an exact
Fraction, so p = inf is the first-class value recip = 0 and every
comparison between exponents is an exact rational comparison of
reciprocals (q >= p iff 1/q <= 1/p, uniformly covering inf).

It also holds `BifracError`, the base of every refusal in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

ExponentLike = Union["Exponent", int, str, Fraction]


class BifracError(ValueError):
    """An input bifrac refuses: malformed, out of range or outside the
    hypotheses of a characterization."""


class ConjugateUndefinedError(BifracError):
    """Raised when the Hoelder conjugate is requested for p < 1."""


@dataclass(frozen=True, order=False)
class Exponent:
    """A Lebesgue exponent p in (0, inf], stored as recip = 1/p >= 0."""

    recip: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.recip, Fraction):
            object.__setattr__(self, "recip", Fraction(self.recip))
        if self.recip < 0:
            raise BifracError(f"reciprocal must be >= 0, got {self.recip}")

    # -- construction ------------------------------------------------

    @classmethod
    def from_value(cls, p: ExponentLike) -> "Exponent":
        """Build from a p-value: an int, Fraction, "a/b" string or "inf";
        floats are refused (see parse_rational)."""
        if isinstance(p, Exponent):
            return p
        if isinstance(p, str) and p.strip().lower() in ("inf", "infinity",
                                                        "oo"):
            return cls(Fraction(0))
        p = parse_rational(p)
        if p <= 0:
            raise BifracError(f"exponent must be positive, got {p}")
        return cls(1 / p)

    @classmethod
    def infinity(cls) -> "Exponent":
        return cls(Fraction(0))

    # -- predicates --------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self.recip == 0

    # -- ordering in p (not in recip) --------------------------------

    def __lt__(self, other: "Exponent") -> bool:
        return self.recip > other.recip

    def __le__(self, other: "Exponent") -> bool:
        return self.recip >= other.recip

    def __gt__(self, other: "Exponent") -> bool:
        return self.recip < other.recip

    def __ge__(self, other: "Exponent") -> bool:
        return self.recip <= other.recip

    def __float__(self) -> float:
        if self.is_infinite:
            return float("inf")
        return float(1 / self.recip)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(1 / self.recip)

    def __repr__(self) -> str:
        return f"Exponent({self})"


def conjugate(p: Exponent) -> Exponent:
    """Hoelder conjugate p' with 1/p + 1/p' = 1; defined for p >= 1."""
    if p.recip > 1:
        raise ConjugateUndefinedError(f"conjugate undefined for p = {p} < 1")
    return Exponent(1 - p.recip)


def homogeneous_lambda(n1: int, n2: int, m: int,
                       p1: Exponent, p2: Exponent, q: Exponent) -> Fraction:
    """The order forced by dilation invariance: n1/p1' + n2/p2' + m/q."""
    if min(n1, n2, m) < 1:
        raise BifracError("dimensions must be positive")
    return (n1 * conjugate(p1).recip
            + n2 * conjugate(p2).recip
            + m * q.recip)


def parse_rational(v) -> Fraction:
    """Parse an exact rational from an int, Fraction or "a/b" string;
    booleans and floats are refused."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise TypeError(f"refusing to read boolean {v!r} as a rational")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise BifracError(f"zero denominator in {v!r}") from None
    if isinstance(v, float):
        raise TypeError(f"refusing to coerce float {v!r} to exact rational")
    raise TypeError(f"cannot parse rational from {type(v).__name__}")
