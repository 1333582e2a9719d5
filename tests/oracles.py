"""Test-only oracles and instruments, written on bifrac's public API.

`classify_symmetric` and `classify_pairing` are characterizations
written out independently of the engine they check;
`translation_covariance_defect` and `combined_grid_error` measure
criterion 7; `evaluate` reads a descriptor at one point.
"""

from fractions import Fraction

import numpy as np

from bifrac.classifier import (STRICT_FAILED, Clause, HypothesisError,
                               OperatorConfig, Verdict)
from bifrac.exponents import Exponent
from bifrac.functions import TestFunction, translate
from bifrac.operators import GridSpec, QuadratureSpec, eval_bilinear


def classify_pairing(n1: int, n2: int, p1: Exponent, p2: Exponent) -> Verdict:
    """Bilinear pairing against (|y1| + |y2|)^-(n1/p1' + n2/p2'):
    bounded iff 1 < p1, p2 < inf and 1/p1 + 1/p2 >= 1."""
    a1, a2 = p1.recip, p2.recip
    if not (0 < a1 < 1 and 0 < a2 < 1):
        return Verdict(False, Clause.EXPONENT_RANGE_FAILED,
                       "both exponents must lie in (1, inf)")
    if a1 + a2 < 1:
        return Verdict(False, Clause.EXPONENT_RANGE_FAILED,
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
        return Verdict(False, Clause.EXPONENT_RANGE_FAILED,
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
    return Verdict(False, Clause.EXPONENT_RANGE_FAILED, f"row '{row}' fails",
                   lam=lam)


def _grid_values(cfg, f1, f2, xs, quad):
    """I(f1, f2) and its error estimate at each point of xs, in order."""
    ests = [eval_bilinear(cfg, f1, f2, x, quad) for x in xs]
    return (np.array([e.value for e in ests]),
            np.array([e.abs_error for e in ests]))


def translation_covariance_defect(cfg: OperatorConfig,
                                  f1: TestFunction, f2: TestFunction, z,
                                  grid: GridSpec = GridSpec(),
                                  quad: QuadratureSpec = QuadratureSpec()
                                  ) -> float:
    """Max-over-grid defect of the translation covariance identity.

    Shifting each input by its own matrix image of z must equal an
    output shift by z: I(f1(. - D1 z), f2(. - D2 z))(x) =
    I(f1, f2)(x - z) exactly in the continuum; the defect is
    quadrature-level small.
    """
    z = np.asarray(z, dtype=float).reshape(cfg.m)
    z1 = cfg.D1.to_float() @ z
    z2 = cfg.D2.to_float() @ z
    xs = grid.points(cfg.m)
    shifted, _ = _grid_values(cfg, translate(f1, z1), translate(f2, z2),
                              xs, quad)
    base, _ = _grid_values(cfg, f1, f2, xs - z[None, :], quad)
    return float(np.max(np.abs(shifted - base)))


def combined_grid_error(cfg: OperatorConfig, f1: TestFunction,
                        f2: TestFunction, grid: GridSpec = GridSpec(),
                        quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Sum of per-point quadrature error estimates over the grid; the
    natural yardstick for translation-defect comparisons."""
    _, errs = _grid_values(cfg, f1, f2, grid.points(cfg.m), quad)
    return float(np.sum(errs))


def evaluate(f: TestFunction, y) -> float:
    """Pointwise value at a single point y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (f.dim,):
        raise ValueError(f"point has shape {y.shape}, expected ({f.dim},)")
    return float(f.values(y[None, :])[0])
