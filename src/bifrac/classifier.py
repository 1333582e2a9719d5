"""Exact boundedness classifiers for fractional integral operators.

All decisions are made on exact rationals: exponents are compared via
their reciprocals (q >= p iff 1/q <= 1/p, which covers p = inf
uniformly) and the order parameter is an exact Fraction.  Hypothesis
violations (order outside its admissible range, dimension mismatch)
raise HypothesisError rather than returning "Unbounded": the
characterization says nothing outside its hypotheses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exponents import Exponent, conjugate, homogeneous_lambda, parse_rational
from .matrices import RationalMatrix, rank, signature


class Clause(str, enum.Enum):
    RANK_STACK_DEFICIENT = "RankStackDeficient"
    LAMBDA_OUT_OF_RANGE = "LambdaOutOfRange"
    HOMOGENEITY_FAILED = "HomogeneityFailed"
    EXPONENT_RANGE_FAILED = "ExponentRangeFailed"
    Q_MUST_BE_FINITE = "QMustBeFinite"
    CASE_4A = "Case4a"
    CASE_4B = "Case4b"
    CASE_4C = "Case4c"
    CASE_4D = "Case4d"
    # extra tags used by the linear/radial/pairing classifiers
    RANK_DEFICIENT = "RankDeficient"
    ACCEPTED = "Accepted"


STRICT_FAILED = "strict-inequality-failed"
EQUALITY_NOT_ACCESSIBLE = "equality-not-accessible"


class HypothesisError(ValueError):
    """The input lies outside the hypotheses of the characterization."""

    def __init__(self, clause: Clause, detail: str):
        super().__init__(detail)
        self.clause = clause
        self.detail = detail


@dataclass(frozen=True)
class Verdict:
    bounded: bool
    clause: Clause
    detail: str
    subreason: Optional[str] = None
    r1: Optional[int] = None
    r2: Optional[int] = None
    lam: Optional[Fraction] = None

    def to_record(self) -> dict:
        return {
            "bounded": self.bounded,
            "clause": self.clause.value,
            "subreason": self.subreason,
            "r1": self.r1,
            "r2": self.r2,
            "lambda": None if self.lam is None else str(self.lam),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class OperatorConfig:
    """A bilinear fractional integral instance.

    Kernel (|D1 x - y1| + |D2 x - y2|)^(-lam) acting on
    L^p1(R^n1) x L^p2(R^n2) -> L^q(R^m).
    """

    n1: int
    n2: int
    m: int
    D1: RationalMatrix
    D2: RationalMatrix
    p1: Exponent
    p2: Exponent
    q: Exponent
    lam: Fraction

    def __post_init__(self) -> None:
        if min(self.n1, self.n2, self.m) < 1:
            raise ValueError("dimensions must be positive")
        check_shapes(self.n1, self.n2, self.m, self.D1, self.D2)

    def swapped(self) -> "OperatorConfig":
        return OperatorConfig(self.n2, self.n1, self.m, self.D2, self.D1,
                              self.p2, self.p1, self.q, self.lam)


def check_shapes(n1: int, n2: int, m: int,
                 D1: RationalMatrix, D2: RationalMatrix) -> None:
    """Raise ValueError unless D1 is n1 x m and D2 is n2 x m."""
    check_shape("D1", D1, n1, m)
    check_shape("D2", D2, n2, m)


def check_shape(name: str, D: RationalMatrix, n: int, m: int) -> None:
    """Raise ValueError, naming the matrix, unless D is n x m."""
    if (D.rows, D.cols) != (n, m):
        raise ValueError(f"{name} must be {n}x{m}, got {D.rows}x{D.cols}")


def make_config(n1, n2, m, D1, D2, p1, p2, q, lam) -> OperatorConfig:
    """Convenience constructor accepting raw rationals and nested lists."""
    return OperatorConfig(
        n1=n1, n2=n2, m=m,
        D1=D1 if isinstance(D1, RationalMatrix) else RationalMatrix.from_rows(D1),
        D2=D2 if isinstance(D2, RationalMatrix) else RationalMatrix.from_rows(D2),
        p1=Exponent.from_value(p1), p2=Exponent.from_value(p2),
        q=Exponent.from_value(q),
        lam=parse_rational(lam),
    )


def _fail(clause: Clause, detail: str, subreason=None, r1=None, r2=None, lam=None) -> Verdict:
    return Verdict(False, clause, detail, subreason=subreason, r1=r1, r2=r2, lam=lam)


def classify_bilinear(cfg: OperatorConfig) -> Verdict:
    """Full boundedness characterization of the bilinear operator."""
    return decide(signature(cfg.D1, cfg.D2), cfg.p1, cfg.p2, cfg.q, cfg.lam)


def decide(sig: tuple, p1: Exponent, p2: Exponent, q: Exponent,
           lam: Fraction) -> Verdict:
    """The bilinear verdict from a rank signature and the exponents.

    sig is `matrices.signature(D1, D2)`.  Checks run in a fixed order
    and the first failure wins: (0) order hypothesis, (1) stacked rank,
    (2) exponent floor and homogeneity, (3) index-vector constraints,
    (4) q-range per rank pattern with exact equality-accessibility
    side conditions.
    """
    n1, n2, m, r1, r2, stacked = sig
    a1, a2, b = p1.recip, p2.recip, q.recip

    # (0) hypothesis: 0 < lam < n1 + n2
    if not (0 < lam < n1 + n2):
        raise HypothesisError(
            Clause.LAMBDA_OUT_OF_RANGE,
            f"order {lam} outside (0, {n1 + n2}); outside theorem scope")

    def fail(clause, detail, subreason=None):
        return _fail(clause, detail, subreason=subreason, r1=r1, r2=r2, lam=lam)

    # (1) stacked rank
    if stacked < m:
        return fail(Clause.RANK_STACK_DEFICIENT,
                    f"stacked matrix has rank < m = {m}")

    # (2) p_i >= 1, then exact homogeneity
    if a1 > 1 or a2 > 1:
        return fail(Clause.EXPONENT_RANGE_FAILED,
                    f"p1 = {p1}, p2 = {p2}: both must be >= 1",
                    subreason="p-below-one")
    lam_star = homogeneous_lambda(n1, n2, m, p1, p2, q)
    if lam != lam_star:
        return fail(Clause.HOMOGENEITY_FAILED,
                    f"order {lam} != homogeneity value {lam_star}")

    # (3) index-vector constraints
    n_open = sum(1 for a in (a1, a2) if 0 < a < 1)
    if n_open == 0:
        return fail(Clause.EXPONENT_RANGE_FAILED,
                    "no index lies in (1, inf)",
                    subreason="no-index-in-open-interval")
    if a1 == 0 and r2 < m:
        return fail(Clause.EXPONENT_RANGE_FAILED,
                    "p1 = inf requires rank(D2) = m",
                    subreason="p1-infinite-with-r2-deficient")
    if a2 == 0 and r1 < m:
        return fail(Clause.EXPONENT_RANGE_FAILED,
                    "p2 = inf requires rank(D1) = m",
                    subreason="p2-infinite-with-r1-deficient")

    # (4) preamble: q may be infinite only with both p_i in (1, inf)
    # and 1/p1 + 1/p2 >= 1
    if b == 0 and (n_open < 2 or a1 + a2 < 1):
        return fail(Clause.Q_MUST_BE_FINITE,
                    "q must be finite when only one index is in (1, inf) "
                    "or 1/p1 + 1/p2 < 1")

    def accepted(case: str) -> Verdict:
        return Verdict(True, Clause.ACCEPTED,
                       f"all conditions of case {case} hold",
                       r1=r1, r2=r2, lam=lam)

    # (4a) both matrices of full rank
    if r1 == m and r2 == m:
        s = sum(a for a in (a1, a2) if a < 1)
        if b > s:
            return fail(Clause.CASE_4A,
                        f"1/q = {b} exceeds sum over open indices {s}",
                        subreason=STRICT_FAILED)
        if b == s:
            ok = (a1 == 1 or a2 == 1) or (
                n_open == 2 and n1 > m and n2 > m and a1 + a2 >= 1)
            if not ok:
                return fail(Clause.CASE_4A,
                            "equality 1/q = sum over open indices is not "
                            "accessible here",
                            subreason=EQUALITY_NOT_ACCESSIBLE)
        return accepted("4a")

    # (4b) one matrix zero, the other full rank
    if (r1 == 0 and r2 == m) or (r1 == m and r2 == 0):
        # orient so the zero-rank side carries index "z" and the
        # full-rank side index "f": for r1 = 0 that is (z, f) = (1, 2)
        if r1 == 0:
            az, af, nf = a1, a2, n2
        else:
            az, af, nf = a2, a1, n1
        if af == 1:  # exponent on the full-rank side equals 1
            if b > az:
                return fail(Clause.CASE_4B,
                            "q >= p on the zero-rank side is required",
                            subreason=STRICT_FAILED)
            return accepted("4b")
        # full-rank side exponent in (1, inf); clause 3 rules out inf
        if b > af:
            return fail(Clause.CASE_4B,
                        "q >= p on the full-rank side is required",
                        subreason=STRICT_FAILED)
        if b == af:
            ok = nf > m and 0 < az < 1 and az >= 1 - af
            if not ok:
                return fail(Clause.CASE_4B,
                            "equality q = p on the full-rank side needs "
                            "n > m on that side and 1 < p_other <= p'",
                            subreason=EQUALITY_NOT_ACCESSIBLE)
        return accepted("4b")

    # (4c) exactly one matrix of full rank, the other of intermediate rank
    if (0 < r1 < r2 == m) or (0 < r2 < r1 == m):
        if a1 == 1 or a2 == 1:
            if b > min(a1, a2):  # q >= max{p1, p2}
                return fail(Clause.CASE_4C,
                            "q >= max{p1, p2} is required when min{p} = 1",
                            subreason=STRICT_FAILED)
            return accepted("4c")
        if a1 == 0 or a2 == 0:
            # the infinite exponent sits on the full-rank side (clause 3)
            if b >= max(a1, a2):  # q > min{p1, p2} strictly
                return fail(Clause.CASE_4C,
                            "q > min{p1, p2} is required when the "
                            "full-rank side's partner exponent is inf",
                            subreason=STRICT_FAILED)
            return accepted("4c")
        # both in (1, inf): bound is the full-rank side's own exponent
        a_own = a1 if r1 == m else a2
        if b > a_own:
            return fail(Clause.CASE_4C,
                        "q >= p on the full-rank side is required",
                        subreason=STRICT_FAILED)
        return accepted("4c")

    # (4d) both ranks intermediate; clause 3 forces p1, p2 < inf
    if b > min(a1, a2):  # q >= max{p1, p2}
        return fail(Clause.CASE_4D,
                    "q >= max{p1, p2} is required",
                    subreason=STRICT_FAILED)
    if b == min(a1, a2):
        ok = False
        # (i) some p_i = 1 with r1 + r2 > m or slack on the other side
        if a1 == 1 and (r1 + r2 > m or r2 < n2):
            ok = True
        if a2 == 1 and (r1 + r2 > m or r1 < n1):
            ok = True
        # (ii) distinct finite open exponents
        if 0 < a1 < 1 and 0 < a2 < 1 and a1 != a2:
            ok = True
        # (iii) equal exponents with overlapping ranks
        if a1 == a2 and r1 + r2 > m:
            ok = True
        # (iv) equal exponents <= 2, complementary ranks, slack both sides
        if (a1 == a2 and Fraction(1, 2) <= a1 < 1 and r1 + r2 == m
                and n1 > r1 and n2 > r2):
            ok = True
        if not ok:
            return fail(Clause.CASE_4D,
                        "equality q = max{p1, p2} is not accessible here",
                        subreason=EQUALITY_NOT_ACCESSIBLE)
    return accepted("4d")


def classify_linear(n: int, m: int, D: RationalMatrix,
                    p: Exponent, q: Exponent, lam: Fraction) -> Verdict:
    """Generalized Riesz potential with matrix argument Dx.

    Bounded iff rank(D) = m, 1 < p < q < inf and lam = n/p' + m/q.
    """
    if not (0 < lam < n):
        raise HypothesisError(Clause.LAMBDA_OUT_OF_RANGE,
                              f"order {lam} outside (0, {n})")
    r = rank(D)
    if r < m:
        return _fail(Clause.RANK_DEFICIENT, f"rank(D) = {r} < m = {m}",
                     r1=r, lam=lam)
    if not (p.is_strictly_between_one_and_inf()
            and q.is_strictly_between_one_and_inf()
            and q.recip < p.recip):
        return _fail(Clause.EXPONENT_RANGE_FAILED,
                     "1 < p < q < inf is required", r1=r, lam=lam)
    lam_star = n * conjugate(p).recip + m * q.recip
    if lam != lam_star:
        return _fail(Clause.HOMOGENEITY_FAILED,
                     f"order {lam} != homogeneity value {lam_star}",
                     r1=r, lam=lam)
    return Verdict(True, Clause.ACCEPTED,
                   "rank(D) = m, 1 < p < q < inf and homogeneity hold",
                   r1=r, lam=lam)


def classify_radial(n: int, m: int, p: Exponent, q: Exponent,
                    lam: Fraction) -> Verdict:
    """Radial kernel (|x| + |y|)^(-lam): bounded iff homogeneity holds
    and 1 < p <= q < inf (the diagonal p = q is admitted here)."""
    if lam <= 0:
        raise HypothesisError(Clause.LAMBDA_OUT_OF_RANGE,
                              f"order {lam} must be positive")
    if not (p.is_strictly_between_one_and_inf()
            and q.is_strictly_between_one_and_inf()
            and q.recip <= p.recip):
        return _fail(Clause.EXPONENT_RANGE_FAILED,
                     "1 < p <= q < inf is required", lam=lam)
    lam_star = n * conjugate(p).recip + m * q.recip
    if lam != lam_star:
        return _fail(Clause.HOMOGENEITY_FAILED,
                     f"order {lam} != homogeneity value {lam_star}", lam=lam)
    return Verdict(True, Clause.ACCEPTED,
                   "homogeneity and 1 < p <= q < inf hold", lam=lam)


def classify_pairing(n1: int, n2: int, p1: Exponent, p2: Exponent) -> Verdict:
    """Bilinear pairing against (|y1| + |y2|)^-(n1/p1' + n2/p2'):
    bounded iff 1 < p1, p2 < inf and 1/p1 + 1/p2 >= 1."""
    a1, a2 = p1.recip, p2.recip
    if not (0 < a1 < 1 and 0 < a2 < 1):
        return _fail(Clause.EXPONENT_RANGE_FAILED,
                     "both exponents must lie in (1, inf)")
    if a1 + a2 < 1:
        return _fail(Clause.EXPONENT_RANGE_FAILED,
                     "1/p1 + 1/p2 >= 1 is required",
                     subreason=STRICT_FAILED)
    return Verdict(True, Clause.ACCEPTED,
                   "1 < p1, p2 < inf and 1/p1 + 1/p2 >= 1 hold")


def classify_symmetric(n: int, p1: Exponent, p2: Exponent, q: Exponent,
                       lam: Fraction) -> Verdict:
    """Independent cross-check oracle for the symmetric full-rank case
    n1 = n2 = m = n with identity coefficient matrices.

    Preconditions: 1 <= p1, p2 <= inf, 0 < lam < 2n and the scaling
    relation 1/p1 + 1/p2 = 1/q + (2n - lam)/n; violations raise.
    """
    a1, a2, b = p1.recip, p2.recip, q.recip
    if a1 > 1 or a2 > 1:
        raise HypothesisError(Clause.EXPONENT_RANGE_FAILED,
                              "requires 1 <= p1, p2 <= inf")
    if not (0 < lam < 2 * n):
        raise HypothesisError(Clause.LAMBDA_OUT_OF_RANGE,
                              f"order {lam} outside (0, {2 * n})")
    if a1 + a2 != b + Fraction(2 * n, n) - Fraction(lam, n):
        raise HypothesisError(Clause.HOMOGENEITY_FAILED,
                              "scaling relation fails")
    if not (0 < a1 < 1 or 0 < a2 < 1):
        return _fail(Clause.EXPONENT_RANGE_FAILED,
                     "no index lies in (1, inf)", lam=lam)
    if a1 == 1 or a2 == 1:  # min{p1, p2} = 1
        ok = 0 < b <= min(a1, a2)  # max{p1, p2} <= q < inf
        row = "max{p1,p2} <= q < inf"
    elif a1 == 0 or a2 == 0:  # max{p1, p2} = inf
        ok = 0 < b < max(a1, a2)  # min{p1, p2} < q < inf
        row = "min{p1,p2} < q < inf"
    elif a1 + a2 < 1:
        ok = 0 < b < a1 + a2
        row = "0 < 1/q < 1/p1 + 1/p2"
    else:
        ok = 0 <= b < a1 + a2
        row = "0 <= 1/q < 1/p1 + 1/p2"
    if ok:
        return Verdict(True, Clause.ACCEPTED, f"row '{row}' holds", lam=lam)
    return _fail(Clause.EXPONENT_RANGE_FAILED, f"row '{row}' fails", lam=lam)
