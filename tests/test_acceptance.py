"""Acceptance gate: end-to-end checks of the decision engine and the
quadrature laboratory, one criterion per test, each printing a single
pass/fail line with its runtime."""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from bifrac.classifier import HypothesisError, classify_bilinear, make_config
from bifrac.exponents import Exponent, homogeneous_lambda
from bifrac.functions import (Gaussian, IndicatorBall, MollifiedDelta,
                              PowerLog, dilate, lp_norm)
from bifrac.matrices import (RationalMatrix, joint_normal_form, rank,
                             single_normal_form)
from bifrac.operators import (GridSpec, QuadratureSpec, blowup_probe,
                              dilation_slope, eval_bilinear, eval_linear,
                              eval_radial, lq_norm_on_grid, norm_ratio)
from oracles import (classify_symmetric, combined_grid_error,
                     translation_covariance_defect)


def report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})")
    assert ok, f"{name}: {detail}"


def random_matrix(rng, rows, cols, span=3):
    return RationalMatrix.from_rows(
        [[Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3]))
          for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng, n):
    while True:
        A = random_matrix(rng, n, n)
        if rank(A) == n:
            return A


def test_criterion_1_symmetric_oracle_equivalence():
    """Full agreement with the independent symmetric-case classifier on
    the divisor-8 reciprocal grid for n in {1, 2, 3}."""
    start = time.perf_counter()
    grid = [Fraction(i, 8) for i in range(9)]
    checked = 0
    mismatches = 0
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
                    checked += 1
                    if ours.bounded != other.bounded:
                        mismatches += 1
    elapsed = time.perf_counter() - start
    report("criterion-1 symmetric-oracle-equivalence",
           mismatches == 0 and checked > 1000 and elapsed < 10.0,
           f"{checked} points, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_2_gl_invariance():
    """The verdict only sees the matrices through their rank data, so
    it must be invariant under D1 -> G1 D1 M, D2 -> G2 D2 M for
    invertible G1, G2, M; 200 random configurations."""
    import random
    start = time.perf_counter()
    rng = random.Random(101)
    grid = [Fraction(i, 8) for i in range(9)]
    trials = 0
    bad = 0
    while trials < 200:
        n1, n2, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        D1 = random_matrix(rng, n1, m)
        D2 = random_matrix(rng, n2, m)
        p1 = Exponent(rng.choice(grid))
        p2 = Exponent(rng.choice(grid))
        q = Exponent(rng.choice(grid))
        lam = homogeneous_lambda(n1, n2, m, p1, p2, q)
        if not 0 < lam < n1 + n2:
            continue
        G1 = random_invertible(rng, n1)
        G2 = random_invertible(rng, n2)
        M = random_invertible(rng, m)
        base = classify_bilinear(make_config(n1, n2, m, D1, D2,
                                             p1, p2, q, lam))
        moved = classify_bilinear(make_config(n1, n2, m, G1 @ D1 @ M,
                                              G2 @ D2 @ M, p1, p2, q, lam))
        trials += 1
        if base.bounded != moved.bounded or base.clause != moved.clause:
            bad += 1
    elapsed = time.perf_counter() - start
    report("criterion-2 gl-invariance",
           bad == 0 and elapsed < 10.0,
           f"200 configurations, {bad} violations, {elapsed:.2f}s")


def test_criterion_3_normal_forms_exact():
    """200 random single normal forms and 100 random joint normal
    forms reconstruct their inputs exactly over the rationals."""
    import random
    start = time.perf_counter()
    rng = random.Random(211)
    bad = 0
    for _ in range(200):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        form = single_normal_form(A)
        if form.r != rank(A) or not form.reconstructs(A):
            bad += 1
    joint = 0
    while joint < 100:
        m = rng.randint(1, 4)
        D1 = random_matrix(rng, rng.randint(1, 4), m)
        D2 = random_matrix(rng, rng.randint(1, 4), m)
        if rank(D1.stack(D2)) < m:
            continue
        form = joint_normal_form(D1, D2)
        joint += 1
        if not form.reconstructs(D1, D2):
            bad += 1
        w = form.block_widths
        if w != (m - form.r2, form.r1 + form.r2 - m, m - form.r1):
            bad += 1
    elapsed = time.perf_counter() - start
    report("criterion-3 normal-forms-exact",
           bad == 0,
           f"200 single + 100 joint, {bad} failures, {elapsed:.2f}s")


def test_criterion_4_closed_form_values():
    """Quadrature recovers three independently integrable instances:
    the bilinear ball pair at the origin, the linear half-order
    potential of a ball, and the radial log instance."""
    import math
    start = time.perf_counter()
    cfg = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(1, 2))
    b = IndicatorBall(dim=1)
    bil = eval_bilinear(cfg, b, b, [0.0]).value
    lin = eval_linear(1, 1, RationalMatrix.from_rows([[1]]),
                      Fraction(1, 2), b, [0.0]).value
    rad = eval_radial(1, 1, Fraction(1), b, [1.0]).value
    elapsed = time.perf_counter() - start
    ok = (abs(bil - 4.4183) / 4.4183 < 1e-2
          and abs(lin - 4.0) / 4.0 < 5e-3
          and abs(rad - 2 * math.log(2)) / (2 * math.log(2)) < 5e-3
          and elapsed < 30.0)
    report("criterion-4 closed-form-values", ok,
           f"bilinear {bil:.4f}, linear {lin:.4f}, radial {rad:.4f}, "
           f"{elapsed:.2f}s")


def test_criterion_5_dilation_slope_law():
    """Measured log-log slope of the norm ratio under dilation matches
    the exact exponent within 0.05 on ten configurations: five
    homogeneous and five with the order perturbed by 1/10."""
    start = time.perf_counter()
    shapes = [(2, 2, 2), (2, 4, 2), (4, 4, 4), (3, 3, 2), (2, 2, 4)]
    shifts = [Fraction(0)] * 5 + [Fraction(1, 10), Fraction(-1, 10),
                                  Fraction(1, 10), Fraction(-1, 10),
                                  Fraction(1, 10)]
    g = Gaussian(dim=1)
    grid = GridSpec()
    # orders close to the integrability ceiling need extra refinement
    quad = QuadratureSpec(max_depth=18, base_depth=8)
    worst = 0.0
    for (p1, p2, q), shift in zip(shapes + shapes, shifts):
        e = Exponent.from_value
        lam = homogeneous_lambda(1, 1, 1, e(p1), e(p2), e(q)) + shift
        cfg = make_config(1, 1, 1, [[1]], [[1]], p1, p2, q, lam)
        rep = dilation_slope(cfg, g, g, [0.5, 1.0, 2.0], grid, quad,
                             workers=4)
        worst = max(worst, abs(rep.slope - rep.predicted_slope))
    elapsed = time.perf_counter() - start
    report("criterion-5 dilation-slope-law",
           worst < 0.05 and elapsed < 300.0,
           f"10 configurations, worst deviation {worst:.4f}, {elapsed:.2f}s")


def test_criterion_6_bounded_band_and_blowup():
    """Bounded configurations keep the norm ratio inside a factor-10
    band across a function bank and dilations a in [1/8, 8]; an
    unbounded configuration shows strictly monotone ratio growth with
    at least a factor 3 along a concentrating witness family."""
    start = time.perf_counter()
    ref = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(3, 2))
    bank = [Gaussian(dim=1), IndicatorBall(dim=1),
            IndicatorBall(dim=1, radius=0.5),
            MollifiedDelta(dim=1, width=0.25),
            PowerLog(dim=1, p=2.0, eps=0.1)]
    ratios = []
    for f in bank:
        for a in (0.125, 0.5, 1.0, 2.0, 8.0):
            r, _ = norm_ratio(ref, dilate(f, a), dilate(f, a))
            ratios.append(r)
    band = max(ratios) / min(ratios)

    bad = make_config(1, 1, 1, [[1]], [[1]], 1, 2, 1, Fraction(3, 2))
    family = [(MollifiedDelta(dim=1, width=d), PowerLog(dim=1, p=2.0, eps=0.1))
              for d in (0.25, 0.0625, 0.015625)]
    growth = blowup_probe(bad, family)
    monotone = all(b > a for a, b in zip(growth, growth[1:]))
    factor = growth[-1] / growth[0]
    elapsed = time.perf_counter() - start
    ok = (band < 10.0 and monotone and factor >= 3.0 and elapsed < 600.0)
    report("criterion-6 bounded-band-and-blowup", ok,
           f"band {band:.2f}, blowup factor {factor:.2f} "
           f"monotone={monotone}, {elapsed:.2f}s")


def test_criterion_7_translation_covariance():
    """The translation-covariance defect at a non-lattice shift stays
    below ten times the accumulated quadrature error and shrinks when
    the refinement depth increases by two."""
    start = time.perf_counter()
    ref = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(3, 2))
    g = Gaussian(dim=1)
    grid = GridSpec(points_per_axis=17)
    z = [1.0 / 3.0]
    defect = translation_covariance_defect(ref, g, g, z, grid)
    budget = combined_grid_error(ref, g, g, grid)
    deeper = QuadratureSpec(max_depth=QuadratureSpec().depths(2)[1] + 2)
    defect_deep = translation_covariance_defect(ref, g, g, z, grid, deeper)
    elapsed = time.perf_counter() - start
    ok = defect < 10.0 * budget and defect_deep < defect
    report("criterion-7 translation-covariance", ok,
           f"defect {defect:.3e} vs budget {budget:.3e}, "
           f"depth+2 defect {defect_deep:.3e}, {elapsed:.2f}s")


def test_criterion_8_determinism(tmp_path):
    """Byte-identical outputs across repeated runs: in-process grid
    norms with and without worker threads, and two separate CLI
    subprocess invocations of one config."""
    start = time.perf_counter()
    ref = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(3, 2))
    g = Gaussian(dim=1)
    grid = GridSpec(points_per_axis=17)
    serial = lq_norm_on_grid(ref, g, g, grid, workers=1)
    threaded = lq_norm_on_grid(ref, g, g, grid, workers=4)
    again = lq_norm_on_grid(ref, g, g, grid, workers=4)
    in_process = (serial.value == threaded.value == again.value
                  and serial.abs_error == threaded.abs_error)

    cfg = {"n1": 1, "n2": 1, "m": 1, "D1": [[1]], "D2": [[1]],
           "p1": "2", "p2": "2", "q": "2", "lambda": "1/2",
           "witnesses": {"f1": {"tag": "gaussian", "dim": 1},
                         "f2": {"tag": "gaussian", "dim": 1}},
           "x": [0.5]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "bifrac.cli", "--config", str(path),
             "--mode", "norm", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    ok = in_process and outputs[0] == outputs[1]
    report("criterion-8 determinism", ok,
           f"in-process={in_process}, "
           f"cli-bytes-equal={outputs[0] == outputs[1]}, {elapsed:.2f}s")
