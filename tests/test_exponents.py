"""Exact exponent arithmetic: conjugates, homogeneity, ordering."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bifrac.exponents import (ConjugateUndefinedError, Exponent, conjugate,
                              homogeneous_lambda, parse_rational)


def exp(v):
    return Exponent.from_value(v)


def test_conjugate_fixed_point():
    assert conjugate(exp(2)) == exp(2)


def test_conjugate_of_one_is_infinity():
    assert conjugate(exp(1)).is_infinite


def test_conjugate_three_halves():
    assert conjugate(exp("3/2")) == exp(3)


def test_conjugate_rejects_p_below_one():
    with pytest.raises(ConjugateUndefinedError):
        conjugate(exp("1/2"))


def test_homogeneous_lambda_examples():
    # direct substitution of the three worked instances
    assert homogeneous_lambda(1, 1, 1, exp(2), exp(2), exp(2)) == Fraction(3, 2)
    assert homogeneous_lambda(2, 2, 1, exp(2), exp(2), exp(1)) == Fraction(3)
    assert homogeneous_lambda(1, 1, 1, exp(1), exp(2), exp(2)) == Fraction(1)
    assert homogeneous_lambda(2, 1, 1, exp(2), exp(2), exp(1)) == Fraction(5, 2)


def test_check_homogeneity_exact():
    from bifrac.classifier import Clause, classify_bilinear, make_config
    cfg = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(3, 2))
    assert classify_bilinear(cfg).bounded
    off = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2,
                      Fraction(3, 2) + Fraction(1, 100))
    verdict = classify_bilinear(off)
    assert not verdict.bounded
    assert verdict.clause == Clause.HOMOGENEITY_FAILED


def test_infinity_round_trip():
    inf = Exponent.infinity()
    assert inf.is_infinite
    assert Exponent.from_value("inf") == inf
    assert str(inf) == "inf"
    assert float(inf) == float("inf")


def test_ordering_is_in_p_not_in_recip():
    assert exp(2) < exp(3) < Exponent.infinity()
    assert exp("1/2") < exp(1)


def test_parse_rational_refuses_floats():
    with pytest.raises(TypeError):
        parse_rational(0.5)
    assert parse_rational("3/7") == Fraction(3, 7)


@given(st.fractions(min_value=0, max_value=1))
def test_conjugate_involution_and_sum(r):
    p = Exponent(r)
    assert conjugate(conjugate(p)) == p
    assert p.recip + conjugate(p).recip == 1


@given(st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1))
def test_homogeneous_lambda_monotone(a1, a2, b1, b2):
    """Decreasing in each input reciprocal, increasing in 1/q."""
    lo, hi = min(a1, a2), max(a1, a2)
    base = homogeneous_lambda(2, 3, 1, Exponent(hi), Exponent(a2),
                              Exponent(b1))
    up = homogeneous_lambda(2, 3, 1, Exponent(lo), Exponent(a2),
                            Exponent(b1))
    assert up >= base
    blo, bhi = min(b1, b2), max(b1, b2)
    assert (homogeneous_lambda(2, 3, 1, Exponent(a1), Exponent(a2),
                               Exponent(bhi))
            >= homogeneous_lambda(2, 3, 1, Exponent(a1), Exponent(a2),
                                  Exponent(blo)))
