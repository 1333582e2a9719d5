"""Witness descriptors: pointwise values, norms, transforms and the
counterexample families."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bifrac import functions
from bifrac.classifier import Clause, classify_bilinear, make_config
from bifrac.exponents import Exponent
from bifrac.functions import (Constant, DivergentNormError, Gaussian,
                              IndicatorBall, MollifiedDelta, NoWitnessError,
                              PowerLog, SplitPowerLog, descriptor_from_dict,
                              descriptor_to_dict, dilate, evaluate, lp_norm,
                              translate, truncated_powerlog_norm, witness_for)


# -- pointwise evaluation ---------------------------------------------


VALUES_BANK = [
    IndicatorBall(dim=2, radius=0.7, center=(0.1, -0.2)),
    MollifiedDelta(dim=2, width=0.8),
    PowerLog(dim=2, p=4.0),
    SplitPowerLog(dim=2, head=1, tail=1),
    Constant(dim=2, value=3.0),
    Gaussian(dim=2, scale=0.5),
    dilate(Gaussian(dim=2), 2.0),
    translate(PowerLog(dim=2), [0.25, -0.5], mask=[True, False]),
]


@pytest.mark.parametrize("f", VALUES_BANK,
                         ids=[type(f).__name__ for f in VALUES_BANK])
def test_values_keep_the_leading_axes(f):
    """values on a (2, 3, dim) array is the (2, 3) array of the values
    at its points."""
    y = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 3, f.dim))
    out = f.values(y)
    assert out.shape == (2, 3)
    assert np.array_equal(out.ravel(), f.values(y.reshape(6, f.dim)))
    assert np.array_equal(out.ravel(), [evaluate(f, p)
                                        for p in y.reshape(6, f.dim)])


def test_values_bank_covers_every_descriptor_class():
    assert {type(f) for f in VALUES_BANK} == set(functions._TAGS.values())


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
        for f1, f2 in family:
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
    f1, f2 = family[0]
    assert isinstance(f1, SplitPowerLog) and f1.head == 1
    assert isinstance(f2, SplitPowerLog) and f2.head == 1


# One unbounded config per clause and per leading side: the p = 1 side,
# the p = inf side or a power-log pair, on side 1 or side 2, with
# rectangular pairs whose power-logs split by rank (or do not, facing a
# bump or a constant).
FAMILY_BANK = [
    ("4a-delta-1", (1, 1, 1, [[1]], [[1]], "1", "2", "1", "3/2")),
    ("4a-delta-2", (1, 1, 1, [[1]], [[1]], "2", "1", "1", "3/2")),
    ("4a-delta-1-wide", (1, 2, 1, [[1]], [[1], [0]], "1", "2", "1", "2")),
    ("4a-constant-1", (1, 2, 1, [[1]], [[1], [0]], "inf", "2", "2", "5/2")),
    ("4a-constant-2", (2, 1, 1, [[1], [0]], [[1]], "2", "inf", "2", "5/2")),
    ("4a-pair", (1, 2, 1, [[1]], [[1], [0]], "2", "2", "1", "5/2")),
    ("4b-delta-1", (1, 1, 1, [[0]], [[1]], "1", "2", "1", "3/2")),
    ("4b-delta-2", (1, 1, 1, [[0]], [[1]], "2", "1", "1", "3/2")),
    ("4b-pair", (1, 1, 1, [[0]], [[1]], "2", "2", "2", "3/2")),
    ("4c-delta-1", (1, 3, 2, [[1, 1]], [[1, 0], [0, 1], [0, 0]],
                    "1", "2", "1", "7/2")),
    ("4c-delta-2", (1, 3, 2, [[1, 1]], [[1, 0], [0, 1], [0, 0]],
                    "2", "1", "1", "5/2")),
    ("4c-constant-1", (1, 3, 2, [[1, 1]], [[1, 0], [0, 1], [0, 0]],
                       "inf", "2", "2", "7/2")),
    ("4c-constant-2", (3, 1, 2, [[1, 0], [0, 1], [0, 0]], [[1, 1]],
                       "2", "inf", "2", "7/2")),
    ("4c-pair", (2, 3, 2, [[1, 0], [0, 0]], [[1, 0], [0, 1], [0, 0]],
                 "2", "2", "1", "9/2")),
    ("4d-delta-1", (1, 1, 2, [[1, 0]], [[0, 1]], "1", "2", "2", "3/2")),
    ("4d-delta-2", (1, 1, 2, [[1, 0]], [[0, 1]], "2", "1", "2", "3/2")),
    ("4d-pair", (2, 2, 2, [[1, 0], [0, 0]], [[0, 1], [0, 0]],
                 "2", "2", "4/3", "7/2")),
    ("homogeneity", (1, 1, 1, [[1]], [[1]], "2", "2", "2", "1")),
    ("stack-deficient", (1, 1, 2, [[1, 0]], [[2, 0]], "2", "2", "2", "1")),
    ("range-constant-1", (1, 1, 1, [[1]], [[1]], "inf", "1", "2", "3/2")),
    ("range-constant-2", (1, 1, 1, [[0]], [[1]], "1", "inf", "inf", "1")),
    ("range-balls", (1, 1, 1, [[1]], [[1]], "1/2", "2", "2", "1")),
    ("q-finite-delta-1", (1, 1, 1, [[1]], [[1]], "1", "2", "inf", "1/2")),
    ("q-finite-delta-2", (1, 1, 1, [[1]], [[1]], "2", "1", "inf", "1/2")),
    ("q-finite-constant", (1, 1, 1, [[0]], [[1]], "inf", "2", "inf", "3/2")),
]

# (clause, members, first tags, SHA-256 of the JSON list of
# [descriptor_to_dict(f1), descriptor_to_dict(f2)] pairs, sort_keys=True),
# recorded from the implementation whose members were (f1, f2, h)
# triples: h dropped, and QMustBeFinite taken as its first member (its
# three members differed only in h).
FAMILY_DIGESTS = {
    "4a-delta-1": ("Case4a", 3, "mollified-delta", "power-log",
        "d4d64b4d1999fc3feb366f75b2e8ce11"
        "1019be41ffd49cee5d706f95c863ffbe"),
    "4a-delta-2": ("Case4a", 3, "power-log", "mollified-delta",
        "170dd1a1efd3f8a989eeed02a29dc2c2"
        "f75486806e48353f49536adebfdcdcb1"),
    "4a-delta-1-wide": ("Case4a", 3, "mollified-delta", "power-log",
        "b69f4e80ceeb176d29804e5148448f84"
        "ea7d1fb23af37bee1dcaf28a81968a63"),
    "4a-constant-1": ("Case4a", 4, "constant", "power-log",
        "871f3b95bd48ebd9ae1ec316ef0800f8"
        "a015ca94ac5b23b2c10c8ae2bd0227e5"),
    "4a-constant-2": ("Case4a", 4, "power-log", "constant",
        "a2e077601c5dd522a066eb3ae0c35c13"
        "a76105ecb0061bfa20035c2a0334b477"),
    "4a-pair": ("Case4a", 4, "power-log", "split-power-log",
        "8dbfc5ccc75dce5a8462bac45fa1b0fa"
        "ab80f1f02184cb68575a0825ded47379"),
    "4b-delta-1": ("Case4b", 3, "mollified-delta", "power-log",
        "d4d64b4d1999fc3feb366f75b2e8ce11"
        "1019be41ffd49cee5d706f95c863ffbe"),
    "4b-delta-2": ("Case4b", 3, "power-log", "mollified-delta",
        "170dd1a1efd3f8a989eeed02a29dc2c2"
        "f75486806e48353f49536adebfdcdcb1"),
    "4b-pair": ("Case4b", 4, "power-log", "power-log",
        "bddce171bad642bd0582de7b4a388077"
        "cd4f25f817dbaaed46050d4fbb702efc"),
    "4c-delta-1": ("Case4c", 3, "mollified-delta", "power-log",
        "21a98fa265213e4882c064e81fdcf7ca"
        "8036346f365d1cde675607c1ed6a6bce"),
    "4c-delta-2": ("Case4c", 3, "power-log", "mollified-delta",
        "48a4a00904eb30bf35d11ffb52079b41"
        "f80f8c5c345862f15f7651e69cc9a088"),
    "4c-constant-1": ("Case4c", 4, "constant", "power-log",
        "f970674aef5d66c98d7004cd12ab23ac"
        "1d523cddeb4f3eb558b258c255569a2a"),
    "4c-constant-2": ("Case4c", 4, "power-log", "constant",
        "9c930ed1a2ef542220441468a8ad0894"
        "876c8bba6ecc61b4b78edc812ac8def1"),
    "4c-pair": ("Case4c", 4, "split-power-log", "split-power-log",
        "e7d523cd60ba2be652c943c3c052a8a5"
        "057f896e80b9825f312e5209e0b61675"),
    "4d-delta-1": ("Case4d", 3, "mollified-delta", "power-log",
        "d4d64b4d1999fc3feb366f75b2e8ce11"
        "1019be41ffd49cee5d706f95c863ffbe"),
    "4d-delta-2": ("Case4d", 3, "power-log", "mollified-delta",
        "170dd1a1efd3f8a989eeed02a29dc2c2"
        "f75486806e48353f49536adebfdcdcb1"),
    "4d-pair": ("Case4d", 4, "split-power-log", "split-power-log",
        "ac5f851c82f98b90e976c68816f37af4"
        "cbce788447ffc5c6436c198f1a42fbcb"),
    "homogeneity": ("HomogeneityFailed", 4, "dilated", "dilated",
        "7ab5a93f8996f9a73f04570e563027e5"
        "074455e698aa8aa5b9f6699856608bba"),
    "stack-deficient": ("RankStackDeficient", 1, "indicator-ball", "indicator-ball",
        "6a2a4cbab6876b553af0e97deb9ee597"
        "06f7a23dc32ed6697a35c06c625fef48"),
    "range-constant-1": ("ExponentRangeFailed", 1, "constant", "indicator-ball",
        "a609c044ee8a05c8ea88ef97e66bab65"
        "7d06cb5f60744a4039e105274eb421a9"),
    "range-constant-2": ("ExponentRangeFailed", 1, "indicator-ball", "constant",
        "e25333169619ad06e706401d8ce71944"
        "7152d803d44c93f8ec825dc794a63876"),
    "range-balls": ("ExponentRangeFailed", 1, "indicator-ball", "indicator-ball",
        "6a2a4cbab6876b553af0e97deb9ee597"
        "06f7a23dc32ed6697a35c06c625fef48"),
    "q-finite-delta-1": ("QMustBeFinite", 1, "mollified-delta", "power-log",
        "60858dd13f527990711b917f1b396649"
        "b93f73807c271bb3207108453524e880"),
    "q-finite-delta-2": ("QMustBeFinite", 1, "power-log", "mollified-delta",
        "30e47bc9d7ebc0927e5536e634c76a72"
        "bfb7947a2baab6537999838c92271ae3"),
    "q-finite-constant": ("QMustBeFinite", 1, "constant", "power-log",
        "38bf4d1f0771b1f8bb72e0199f015927"
        "d106bdc9d6264bd620e820eb1f600822"),
}


@pytest.mark.parametrize("name, args", FAMILY_BANK)
def test_witness_families_are_pinned(name, args):
    cfg = make_config(*args)
    verdict = classify_bilinear(cfg)
    family = witness_for(cfg, verdict.clause)
    clause, members, tag1, tag2, digest = FAMILY_DIGESTS[name]
    dicts = [[descriptor_to_dict(f1), descriptor_to_dict(f2)]
             for f1, f2 in family]
    assert verdict.clause.value == clause
    assert len(family) == members
    assert (dicts[0][0]["tag"], dicts[0][1]["tag"]) == (tag1, tag2)
    text = json.dumps(dicts, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == digest


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


@pytest.mark.parametrize("d, message", [
    ({"tag": "gaussian", "dim": 1, "scale": "a"},
     "scale must be a finite number, got 'a'"),
    ({"tag": "indicator-ball", "dim": 1, "radius": True},
     "radius must be a finite number, got True"),
    ({"tag": "gaussian", "dim": 1.0},
     "dim must be an integer, got 1.0"),
    ({"tag": "dilated", "dim": 1, "a": 2.0,
      "inner": {"tag": "gaussian", "dim": 1, "scale": None}},
     "inner.scale must be a finite number, got None"),
    ({"tag": "translated", "dim": 1, "z": [0.5],
      "inner": {"tag": "dilated", "dim": 1, "a": "2",
                "inner": {"tag": "gaussian", "dim": 1}}},
     "inner.a must be a finite number, got '2'"),
    ({"tag": "translated", "dim": 1, "z": ["0.5"],
      "inner": {"tag": "gaussian", "dim": 1}},
     r"z\[0\] must be a finite number, got '0.5'"),
    ({"tag": "translated", "dim": 1, "z": [0.5], "mask": [1.0],
      "inner": {"tag": "gaussian", "dim": 1}},
     r"mask\[0\] must be true or false, got 1.0"),
    ({"tag": "dilated", "dim": 1, "a": 2.0, "inner": 3},
     "inner must be a descriptor object, got 3"),
    ({"tag": "power-log", "dim": 1, "p": [2.0]},
     r"p must be a finite number, got \[2.0\]"),
    ({"tag": "translated", "dim": 1, "z": 0.5,
      "inner": {"tag": "gaussian", "dim": 1}},
     "z must be a list, got 0.5"),
    ({"tag": "dilated", "dim": 1, "a": 2.0,
      "inner": {"tag": "gaussian", "dim": 1, "scal": 2.0}},
     "inner.scal is not a parameter of 'gaussian'"),
])
def test_wrongly_typed_parameter_is_refused_by_its_path(d, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        descriptor_from_dict(d)
