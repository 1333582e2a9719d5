"""Closed-form values of the 1+1 bilinear operator on interval inputs,
in plain `math` on floats, as an independent reference for the
quadrature.

With D1 = D2 = 1 the operator applied to 1_[α1, β1] and 1_[α2, β2] is,
after the shift s = y1 − x, t = y2 − x,

    I(x) = ∫_{α1−x}^{β1−x} ∫_{α2−x}^{β2−x} (|s| + |t|)^(−λ) dt ds,

an inclusion–exclusion of four quadrant integrals
H(s, t) = sgn(s)·sgn(t)·F(|s|, |t|), F(a, b) = ∫_0^a ∫_0^b (u + v)^(−λ).
"""

import math


def quadrant_integral(a: float, b: float, lam: float) -> float:
    """F(a, b) = ∫_0^a ∫_0^b (u + v)^(−λ) dv du for a, b >= 0, λ < 2."""
    if lam == 1.0:
        def g(t):
            return t * math.log(t) if t > 0 else 0.0
        return g(a + b) - g(a) - g(b)
    e = 2.0 - lam
    return ((a + b) ** e - a ** e - b ** e) / ((1.0 - lam) * e)


def signed_quadrant(s: float, t: float, lam: float) -> float:
    """H(s, t) = ∫_0^s ∫_0^t (|u| + |v|)^(−λ), oriented integrals."""
    sign = math.copysign(1.0, s) * math.copysign(1.0, t)
    return sign * quadrant_integral(abs(s), abs(t), lam)


def interval_pair(x: float, lam: float, interval1=(-1.0, 1.0),
                  interval2=(-1.0, 1.0)) -> float:
    """I(1_interval1, 1_interval2)(x) for D1 = D2 = 1, 0 < λ < 2."""
    (a1, b1), (a2, b2) = interval1, interval2
    return (signed_quadrant(b1 - x, b2 - x, lam)
            - signed_quadrant(a1 - x, b2 - x, lam)
            - signed_quadrant(b1 - x, a2 - x, lam)
            + signed_quadrant(a1 - x, a2 - x, lam))
