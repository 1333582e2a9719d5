"""Witness descriptors: pointwise values, norms, transforms and the
counterexample families."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bifrac.classifier import Clause, classify_bilinear, make_config
from bifrac.exponents import Exponent
from bifrac.functions import (Constant, DivergentNormError, Gaussian,
                              IndicatorBall, MollifiedDelta, NoWitnessError,
                              PowerLog, SplitPowerLog, descriptor_from_dict,
                              descriptor_to_dict, dilate, evaluate, lp_norm,
                              translate, truncated_powerlog_norm, witness_for)


# -- pointwise evaluation ---------------------------------------------


def test_indicator_ball_values():
    f = IndicatorBall(dim=1)
    assert evaluate(f, [0.5]) == 1.0
    assert evaluate(f, [2.0]) == 0.0


def test_powerlog_formula_value():
    f = PowerLog(dim=1, p=2.0, eps=0.2)
    got = evaluate(f, [math.exp(-2)])
    want = math.e * 2 ** (-0.6)
    assert got == pytest.approx(want, rel=1e-12)
    assert evaluate(f, [0.0]) == 0.0
    assert evaluate(f, [0.6]) == 0.0


def test_dilated_support_scales():
    f = dilate(IndicatorBall(dim=1), 2.0)
    assert evaluate(f, [1.5]) == 1.0
    assert evaluate(f, [2.5]) == 0.0
    assert dilate(IndicatorBall(dim=1), 1.0) == IndicatorBall(dim=1)


def test_translate_then_evaluate():
    f = translate(Gaussian(dim=2), [1.0, -1.0])
    y = np.array([0.25, 0.5])
    assert evaluate(f, y) == pytest.approx(
        evaluate(Gaussian(dim=2), y - [1.0, -1.0]))


def test_split_powerlog_depends_on_tail_block_only():
    f = SplitPowerLog(dim=2, head=1, tail=1, p=2.0, eps=0.1)
    a = evaluate(f, [0.1, 0.2])
    b = evaluate(f, [-0.1, 0.2])
    assert a == b > 0
    assert evaluate(f, [0.6, 0.2]) == 0.0  # outside the joint support


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate(IndicatorBall(dim=2), [0.5])


# -- norms ------------------------------------------------------------


def test_indicator_ball_l2_norm():
    est = lp_norm(IndicatorBall(dim=1), 2)
    assert est.value == pytest.approx(math.sqrt(2), rel=1e-12)
    assert est.method == "analytic"


def test_mollified_delta_unit_mass():
    for d in (1.0, 0.25, 0.015625):
        assert lp_norm(MollifiedDelta(dim=1, width=d), 1).value == \
            pytest.approx(1.0, rel=1e-12)
    assert lp_norm(MollifiedDelta(dim=2, width=0.5), 1).value == \
        pytest.approx(1.0, rel=1e-12)


def test_powerlog_l2_norm_closed_form():
    # the squared norm telescopes to 2/log 2 for this instance
    est = lp_norm(PowerLog(dim=1, p=2.0, eps=1.0), 2)
    assert est.value == pytest.approx(math.sqrt(2 / math.log(2)), rel=1e-9)


def test_gaussian_norm_closed_form():
    est = lp_norm(Gaussian(dim=1), 2)
    assert est.value == pytest.approx((math.pi / 2) ** 0.25, rel=1e-12)


def test_constant_norms():
    c = Constant(dim=1, value=3.0)
    assert lp_norm(c, Exponent.infinity()).value == 3.0
    with pytest.raises(DivergentNormError):
        lp_norm(c, 2)


def test_powerlog_sup_norm_diverges():
    with pytest.raises(DivergentNormError):
        lp_norm(PowerLog(dim=1, p=2.0, eps=0.1), Exponent.infinity())


def test_dilation_norm_law():
    rng_fs = [Gaussian(dim=1), IndicatorBall(dim=2),
              PowerLog(dim=1, p=2.0, eps=0.1)]
    for f in rng_fs:
        base = lp_norm(f, 2).value
        for a in (0.25, 0.5, 2.0, 4.0):
            got = lp_norm(dilate(f, a), 2).value
            assert got == pytest.approx(a ** (f.dim / 2) * base, rel=1e-9)


def test_quasi_norm_below_one():
    # p < 1 uses the same power-sum formula
    est = lp_norm(IndicatorBall(dim=1), Fraction(1, 2))
    assert est.value == pytest.approx(4.0, rel=1e-12)


def test_powerlog_divergence_without_log_damping():
    """With eps = 0 the norm at the descriptor's own exponent is
    infinite; truncated tails grow without bound."""
    f = PowerLog(dim=1, p=2.0, eps=0.0)
    with pytest.raises(DivergentNormError):
        lp_norm(f, 2)
    tails = [truncated_powerlog_norm(f, 2, r)
             for r in (1e-2, 1e-4, 1e-8, 1e-16)]
    assert all(b > a * 1.2 for a, b in zip(tails, tails[1:]))


def test_split_powerlog_norm_finite_iff_damped():
    f = SplitPowerLog(dim=2, head=1, tail=1, p=2.0, eps=0.1)
    assert lp_norm(f, 2).value > 0
    with pytest.raises(DivergentNormError):
        lp_norm(SplitPowerLog(dim=2, head=1, tail=1, p=2.0, eps=0.0), 2)


# -- witness families -------------------------------------------------


def unbounded_examples():
    yield make_config(1, 1, 1, [[1]], [[1]], 1, 2, 1, Fraction(3, 2))
    yield make_config(1, 1, 1, [[1]], [[1]], 1, 1, 2, Fraction(1, 2))
    yield make_config(1, 1, 1, [[1]], [[1]], 1, 2, "inf", Fraction(1, 2))
    yield make_config(1, 1, 2, [[1, 0]], [[2, 0]], 2, 2, 2, Fraction(1))
    yield make_config(2, 2, 1, [[1], [0]], [[0], [1]], 3, 3, 1,
                      Fraction(11, 3))
    # ExponentRangeFailed with the constant on side 1 or on neither side
    yield make_config(1, 1, 1, [[1]], [[0]], "inf", 2, 4, Fraction(7, 4))
    yield make_config(1, 1, 1, [[1]], [[1]], "inf", 1, 2, Fraction(3, 2))
    yield make_config(1, 1, 1, [[1]], [[1]], "1/2", 2, 2, Fraction(1))


def test_witness_families_exist_and_are_norm_finite():
    for cfg in unbounded_examples():
        verdict = classify_bilinear(cfg)
        assert not verdict.bounded
        family = witness_for(cfg, verdict.clause)
        assert len(family) >= 1
        for f1, f2, _h in family:
            assert f1.dim == cfg.n1 and f2.dim == cfg.n2
            assert lp_norm(f1, cfg.p1).value < float("inf")
            assert lp_norm(f2, cfg.p2).value < float("inf")


def test_no_witness_for_bounded_clause():
    cfg = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(3, 2))
    with pytest.raises(NoWitnessError):
        witness_for(cfg, Clause.ACCEPTED)


def test_split_witness_follows_rank_pattern():
    cfg = make_config(2, 2, 2, [[1, 0], [0, 0]], [[0, 1], [0, 0]],
                      2, 3, 3, Fraction(7, 3))
    verdict = classify_bilinear(cfg)
    family = witness_for(cfg, Clause.CASE_4D)
    f1, f2, _h = family[0]
    assert isinstance(f1, SplitPowerLog) and f1.head == 1
    assert isinstance(f2, SplitPowerLog) and f2.head == 1


# -- serialization ----------------------------------------------------


def test_descriptor_round_trip():
    ball = {"tag": "indicator-ball", "dim": 2, "radius": 1.0,
            "center": [0.0, 0.0]}
    cases = [
        (IndicatorBall(dim=2, radius=0.5, center=(1.0, 0.0)),
         dict(ball, radius=0.5, center=[1.0, 0.0])),
        (MollifiedDelta(dim=1, width=0.0625),
         {"tag": "mollified-delta", "dim": 1, "width": 0.0625}),
        (PowerLog(dim=3, p=1.5, eps=0.05),
         {"tag": "power-log", "dim": 3, "p": 1.5, "eps": 0.05,
          "cutoff": 0.5}),
        (SplitPowerLog(dim=2, head=1, tail=1, p=2.0, eps=0.1),
         {"tag": "split-power-log", "dim": 2, "head": 1, "tail": 1,
          "p": 2.0, "eps": 0.1}),
        (Constant(dim=1, value=2.0),
         {"tag": "constant", "dim": 1, "value": 2.0}),
        (Gaussian(dim=2, scale=0.5),
         {"tag": "gaussian", "dim": 2, "scale": 0.5}),
        (dilate(translate(Gaussian(dim=1), [0.5]), 2.0),
         {"tag": "dilated", "dim": 1, "a": 2.0,
          "inner": {"tag": "translated", "dim": 1, "z": [0.5], "mask": None,
                    "inner": {"tag": "gaussian", "dim": 1, "scale": 1.0}}}),
        (translate(IndicatorBall(dim=2), [1.0, 2.0], mask=[True, False]),
         {"tag": "translated", "dim": 2, "z": [1.0, 2.0],
          "mask": [True, False], "inner": ball}),
    ]
    for f, d in cases:
        assert descriptor_to_dict(f) == d
        assert descriptor_from_dict(d) == f


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        descriptor_from_dict({"tag": "mystery", "dim": 1})
