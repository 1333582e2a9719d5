"""Decision-procedure tests: worked instances, cross-checks between
the independent classifiers, and structural invariances."""

import itertools
import random
from fractions import Fraction

import pytest

from bifrac import classifier
from bifrac.classifier import (EQUALITY_NOT_ACCESSIBLE, Clause,
                               HypothesisError, classify_bilinear, decide,
                               make_config, sweep_verdicts)
from bifrac.exponents import Exponent, homogeneous_lambda
from bifrac.matrices import RationalMatrix, rank, signature
from oracles import classify_pairing, classify_symmetric


def cfg(n1, n2, m, D1, D2, p1, p2, q, lam):
    return make_config(n1, n2, m, D1, D2, p1, p2, q, lam)


def simple(p1, p2, q, lam):
    return cfg(1, 1, 1, [[1]], [[1]], p1, p2, q, lam)


# -- worked bilinear instances ---------------------------------------


def test_equality_with_min_exponent_one_is_bounded():
    v = classify_bilinear(simple(1, 2, 2, Fraction(1)))
    assert v.bounded and v.clause == Clause.ACCEPTED


def test_strict_interior_point_is_bounded():
    v = classify_bilinear(simple(2, 2, 2, Fraction(3, 2)))
    assert v.bounded


def test_equality_needs_dimension_slack_on_both_sides():
    # one side has no slack beyond the output dimension, so the
    # endpoint 1/q = 1/p1 + 1/p2 is not attainable
    v = classify_bilinear(cfg(1, 2, 1, [[1]], [[1], [0]], 2, 2, 1,
                              Fraction(5, 2)))
    assert not v.bounded
    assert v.clause == Clause.CASE_4A
    assert v.subreason == "equality-not-accessible"


def test_stacked_rank_deficiency_is_unbounded():
    v = classify_bilinear(cfg(1, 1, 2, [[1, 0]], [[2, 0]], 2, 2, 2,
                              Fraction(1)))
    assert not v.bounded
    assert v.clause == Clause.RANK_STACK_DEFICIENT


def test_both_exponents_one_fails_index_constraint():
    for q in (1, 2, 4):
        lam = Fraction(1, q)
        v = classify_bilinear(simple(1, 1, q, lam))
        assert not v.bounded
        assert v.clause == Clause.EXPONENT_RANGE_FAILED
        assert v.subreason == "no-index-in-open-interval"


def test_order_hypothesis_raises_not_unbounded():
    with pytest.raises(HypothesisError):
        classify_bilinear(simple(2, 2, 2, Fraction(2)))
    with pytest.raises(HypothesisError):
        classify_bilinear(simple(2, 2, 2, Fraction(-1)))


def test_homogeneity_failure_reported():
    v = classify_bilinear(simple(2, 2, 2, Fraction(3, 2) + Fraction(1, 10)))
    assert not v.bounded
    assert v.clause == Clause.HOMOGENEITY_FAILED


def test_p_below_one_fails_exponent_floor():
    v = classify_bilinear(simple("1/2", 2, 2, Fraction(3, 2)))
    assert not v.bounded
    assert v.subreason == "p-below-one"


def test_infinite_exponent_needs_full_partner_rank():
    # p1 = inf with rank(D2) < m
    v = classify_bilinear(cfg(1, 2, 2, [[1, 0]], [[0, 1], [0, 0]],
                              "inf", 2, 4, Fraction(5, 2)))
    assert not v.bounded
    assert v.subreason == "p1-infinite-with-r2-deficient"


def test_q_infinite_needs_dual_open_exponents():
    v = classify_bilinear(simple(1, 2, "inf", Fraction(1, 2)))
    assert not v.bounded
    assert v.clause == Clause.Q_MUST_BE_FINITE
    # both open with 1/p1 + 1/p2 >= 1 admits q = inf
    v = classify_bilinear(simple(2, 2, "inf", Fraction(1)))
    assert v.bounded


def test_zero_rank_side_case():
    # D1 = 0 (1x1 against m=1 impossible: stack would be deficient);
    # use m=1 with D1 the 1x1 zero matrix and D2 = [1]
    v = classify_bilinear(cfg(1, 1, 1, [[0]], [[1]], 2, 2, 4,
                              Fraction(5, 4)))
    assert v.bounded  # q > p2
    v = classify_bilinear(cfg(1, 1, 1, [[0]], [[1]], 2, 2, 2,
                              Fraction(3, 2)))
    # q = p2 equality needs n2 > m, absent here
    assert not v.bounded and v.clause == Clause.CASE_4B
    v = classify_bilinear(cfg(1, 2, 1, [[0]], [[1], [0]], 2, 2, 2,
                              Fraction(2)))
    assert v.bounded  # q = p2 with n2 > m and p1 = p2'


def test_intermediate_rank_case():
    # r1 = 1 < m = 2 = r2: bound is the full-rank side's exponent
    D1 = [[1, 0]]
    D2 = [[1, 0], [0, 1]]
    lam = homogeneous_lambda(1, 2, 2, Exponent.from_value(2),
                             Exponent.from_value(2), Exponent.from_value(3))
    v = classify_bilinear(cfg(1, 2, 2, D1, D2, 2, 2, 3, lam))
    assert v.bounded  # q = 3 > p2 = 2
    lam = homogeneous_lambda(1, 2, 2, Exponent.from_value(2),
                             Exponent.from_value(2), Exponent.from_value(2))
    v = classify_bilinear(cfg(1, 2, 2, D1, D2, 2, 2, 2, lam))
    assert v.bounded  # q = p2 allowed in this rank pattern
    lam = homogeneous_lambda(1, 2, 2, Exponent.from_value(2),
                             Exponent.from_value(3), Exponent.from_value(2))
    v = classify_bilinear(cfg(1, 2, 2, D1, D2, 2, 3, 2, lam))
    assert not v.bounded and v.clause == Clause.CASE_4C


def test_both_ranks_intermediate_case():
    # n1 = n2 = 2, m = 2, r1 = r2 = 1, overlapping (r1 + r2 > m fails:
    # r1 + r2 = m here), equality via distinct exponents
    D1 = [[1, 0], [0, 0]]
    D2 = [[0, 1], [0, 0]]
    e = Exponent.from_value
    lam = homogeneous_lambda(2, 2, 2, e(2), e(3), e(3))
    v = classify_bilinear(cfg(2, 2, 2, D1, D2, 2, 3, 3, lam))
    assert v.bounded  # q = max{p}, accessible since p1 != p2
    lam = homogeneous_lambda(2, 2, 2, e(3), e(3), e(3))
    v = classify_bilinear(cfg(2, 2, 2, D1, D2, 3, 3, 3, lam))
    # equal exponents, r1 + r2 = m, but p = 3 > 2: not accessible
    assert not v.bounded and v.clause == Clause.CASE_4D
    lam = homogeneous_lambda(2, 2, 2, e(2), e(2), e(2))
    v = classify_bilinear(cfg(2, 2, 2, D1, D2, 2, 2, 2, lam))
    # p1 = p2 = 2 with complementary ranks and slack on both sides
    assert v.bounded


# -- pairing ---------------------------------------------------------


def test_pairing_worked_instances():
    e = Exponent.from_value
    assert classify_pairing(1, 1, e(2), e(2)).bounded
    assert not classify_pairing(1, 1, e(3), e(3)).bounded
    assert not classify_pairing(1, 1, e(1), e(2)).bounded


# -- cross-checks and invariances ------------------------------------


def test_agrees_with_symmetric_oracle_on_grid():
    grid = [Fraction(i, 8) for i in range(9)]
    checked = 0
    for n in (1, 2, 3):
        I = RationalMatrix.identity(n)
        for a1 in grid:
            for a2 in grid:
                for b in grid:
                    p1, p2, q = Exponent(a1), Exponent(a2), Exponent(b)
                    lam = homogeneous_lambda(n, n, n, p1, p2, q)
                    if not 0 < lam < 2 * n:
                        continue
                    ours = classify_bilinear(
                        make_config(n, n, n, I, I, p1, p2, q, lam))
                    other = classify_symmetric(n, p1, p2, q, lam)
                    assert ours.bounded == other.bounded, (n, a1, a2, b)
                    checked += 1
    assert checked > 1000


def test_swap_symmetry():
    rng = random.Random(23)
    grid = [Fraction(i, 8) for i in range(9)]
    for _ in range(100):
        n1, n2, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        D1 = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n1)]
        D2 = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n2)]
        a1, a2, b = rng.choice(grid), rng.choice(grid), rng.choice(grid)
        p1, p2, q = Exponent(a1), Exponent(a2), Exponent(b)
        lam = homogeneous_lambda(n1, n2, m, p1, p2, q)
        if not 0 < lam < n1 + n2:
            continue
        c = make_config(n1, n2, m, D1, D2, p1, p2, q, lam)
        assert classify_bilinear(c).bounded == \
            classify_bilinear(c.swapped()).bounded


def test_bounded_region_in_q_is_an_interval():
    """Sweeping 1/q upward never flips the verdict more than twice."""
    e = Exponent.from_value
    for (p1, p2) in ((2, 2), (1, 2), ("3/2", 3)):
        flips = 0
        prev = None
        for i in range(0, 33):
            b = Fraction(i, 32)
            q = Exponent(b)
            lam = homogeneous_lambda(2, 2, 1, e(p1), e(p2), q)
            if not 0 < lam < 4:
                continue
            v = classify_bilinear(make_config(2, 2, 1, [[1], [0]],
                                              [[0], [1]], p1, p2, q, lam))
            if prev is not None and v.bounded != prev:
                flips += 1
            prev = v.bounded
        assert flips <= 2


def test_verdict_record_shape():
    v = classify_bilinear(simple(2, 2, 2, Fraction(3, 2)))
    rec = v.to_record()
    assert rec["bounded"] is True
    assert rec["clause"] == "Accepted"
    assert rec["lambda"] == "3/2"
    assert set(rec) == {"bounded", "clause", "subreason", "r1", "r2",
                        "lambda", "detail"}


# -- the sign-class sweep --------------------------------------------

# One pair per rank pattern with n_i = m, the same patterns with
# n_i > m (so that the equality branches that need slack run), a 4d
# pair with r1 + r2 > m, a stack-deficient and a rectangular pair.
SWEEP_BANK = [
    ([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
    ([[1], [0]], [[0], [1], [1]]),
    ([[0, 0], [0, 0]], [[1, 0], [0, 1]]),
    ([[0]], [[1], [2]]),
    ([[1, 0], [0, 0]], [[1, 0], [0, 1]]),
    ([[1, 0, 0], [0, 0, 0], [0, 0, 0]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),
    ([[1, 0], [0, 0]], [[0, 0], [0, 1]]),
    ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    ([[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]),
    ([[1, 0], [0, 0]], [[1, 0], [0, 0]]),
    ([["1/2", 1]], [[1, -1], [2, -2], [0, 0]]),
]


def _bank_signature(D1, D2):
    return signature(RationalMatrix.from_rows(D1),
                     RationalMatrix.from_rows(D2))


def _per_row_decide(sig, divisor):
    """(i, j, k, (bounded, clause)) from one `decide` per lattice row,
    and the set of (clause, subreason) pairs it returned."""
    n1, n2, m = sig[:3]
    rows, seen = [], set()
    for i, j, k in itertools.product(range(divisor + 1), repeat=3):
        p1, p2, q = (Exponent(Fraction(v, divisor)) for v in (i, j, k))
        try:
            v = decide(sig, p1, p2, q,
                       homogeneous_lambda(n1, n2, m, p1, p2, q))
            label = v.bounded, v.clause
            seen.add((v.clause, v.subreason))
        except HypothesisError as exc:
            label = False, exc.clause
        rows.append((i, j, k, label))
    return rows, seen


def test_sign_class_sweep_matches_per_row_decide(monkeypatch):
    """`sweep_verdicts` labels every row as a per-row `decide` does, and
    calls `decide` once per sign class, not once per row."""
    seen = set()
    for divisor in (2, 5, 12):
        for D1, D2 in SWEEP_BANK:
            sig = _bank_signature(D1, D2)
            expected, seen_here = _per_row_decide(sig, divisor)
            assert list(sweep_verdicts(sig, divisor)) == expected, \
                (D1, D2, divisor)
            seen |= seen_here
    # every refused equality of 4a, 4b and 4d ran in the oracle
    for case in (Clause.CASE_4A, Clause.CASE_4B, Clause.CASE_4D):
        assert (case, EQUALITY_NOT_ACCESSIBLE) in seen

    calls = []

    def counting_decide(*args):
        calls.append(args)
        return decide(*args)

    monkeypatch.setattr(classifier, "decide", counting_decide)
    for D1, D2 in SWEEP_BANK:
        calls.clear()
        rows = sum(1 for _ in sweep_verdicts(_bank_signature(D1, D2), 24))
        assert rows == 25 ** 3
        assert 0 < len(calls) < 300, (D1, D2, len(calls))
