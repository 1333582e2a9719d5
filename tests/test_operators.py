"""Numerical operator evaluation: closed-form oracles, structural
identities and probe behavior."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifrac.classifier import Clause, make_config
from bifrac.exponents import BifracError
from bifrac.functions import (Constant, Gaussian, IndicatorBall,
                              MollifiedDelta, PowerLog, SplitPowerLog, dilate,
                              translate, witness_for)
from bifrac import operators
from bifrac.matrices import RationalMatrix
from bifrac.operators import (GridSpec, NonIntegrableError, QuadratureSpec,
                              _axis_levels, _partition,
                              dilation_slope, eval_bilinear, eval_linear,
                              eval_radial, lq_norm_on_grid,
                              predicted_dilation_slope)
from closed_form import interval_pair
from oracles import translation_covariance_defect


REF = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(3, 2))


def ball(n=1):
    return IndicatorBall(dim=n)


# -- closed-form values -----------------------------------------------


def test_bilinear_closed_form_instance():
    cfg = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(1, 2))
    est = eval_bilinear(cfg, ball(), ball(), [0.0])
    exact = (32.0 / 3.0) * (math.sqrt(2) - 1)  # iterated antiderivative
    assert est.value == pytest.approx(exact, rel=1e-2)
    assert est.abs_error < 0.05 * exact


def test_interval_closed_form_reproduces_the_ball_pair_value():
    """The 1+1 closed form at x = 0, λ = 1/2 is the criterion-4 value
    4.4183 and the iterated antiderivative above."""
    assert interval_pair(0.0, 0.5) == pytest.approx(4.4183, abs=5e-5)
    assert interval_pair(0.0, 0.5) == pytest.approx(
        (32.0 / 3.0) * (math.sqrt(2) - 1), rel=1e-12)


@pytest.mark.parametrize("lam, rel", [(Fraction(1, 2), 1e-5),
                                      (Fraction(1), 1e-3)])
def test_error_bars_cover_the_interval_closed_form(lam, rel):
    """Unit-interval inputs on the default 65-point grid with the
    default quadrature: every error bar covers the true error against
    the closed form, and the relative error is below `rel`.  At
    λ >= 3/2 the bars still miss where the singular point (x, x) lies
    in the support."""
    cfg = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, lam)
    for x in GridSpec().points(1)[:, 0]:
        est = eval_bilinear(cfg, ball(), ball(), [x])
        exact = interval_pair(float(x), float(lam))
        assert abs(est.value - exact) <= est.abs_error, x
        assert abs(est.value - exact) < rel * abs(exact), x


def test_linear_closed_form_instance():
    D = RationalMatrix.from_rows([[1]])
    est = eval_linear(1, 1, D, Fraction(1, 2), ball(), [0.0])
    assert est.value == pytest.approx(4.0, rel=5e-3)


def test_radial_closed_form_instance():
    est = eval_radial(1, 1, Fraction(1), ball(), [1.0])
    assert est.value == pytest.approx(2 * math.log(2), rel=5e-3)


def test_linear_far_field_sandwich():
    # support in [-1, 1], x = 10: kernel between 9^(-1/2) and 11^(-1/2)
    D = RationalMatrix.from_rows([[1]])
    est = eval_linear(1, 1, D, Fraction(1, 2), ball(), [10.0],
                      QuadratureSpec(truncation_radius=16.0))
    assert 2 * 11 ** -0.5 <= est.value <= 2 * 9 ** -0.5


def test_zero_input_gives_zero():
    cfg = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(1, 2))
    z = Constant(dim=1, value=0.0)
    assert eval_bilinear(cfg, z, ball(), [0.0]).value == 0.0
    D = RationalMatrix.from_rows([[1]])
    assert eval_linear(1, 1, D, Fraction(1, 2), z, [0.0]).value == 0.0
    assert eval_radial(1, 1, Fraction(1), z, [1.0]).value == 0.0


def test_input_outside_the_box_gives_exact_zero():
    """A ball wholly outside the truncation box is 0 at every leaf point
    and breaks only outside the box: every live range is empty, and the
    value and error estimate are exactly 0, with no refusal."""
    far = translate(IndicatorBall(dim=1), [20.0])
    cfg = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(1, 2))
    est = eval_bilinear(cfg, far, ball(), [0.0])
    assert (est.value, est.abs_error) == (0.0, 0.0)
    D = RationalMatrix.from_rows([[1]])
    est = eval_linear(1, 1, D, Fraction(1, 2), far, [0.0])
    assert (est.value, est.abs_error) == (0.0, 0.0)


def test_unsampled_input_is_refused_anywhere_in_the_box():
    """A narrow ball near the box's edge that no leaf point samples is
    refused though the axis's first kept leaf lies right of it; the
    default depths sample it."""
    f = IndicatorBall(dim=1, radius=0.05, center=(-7.9,))
    D = RationalMatrix.from_rows([[1]])
    with pytest.raises(BifracError, match="^quad: .* breaks at -7.95$"):
        eval_linear(1, 1, D, Fraction(1, 2), f, [7.0],
                    QuadratureSpec(base_depth=2, max_depth=4))
    assert eval_linear(1, 1, D, Fraction(1, 2), f, [7.0]).value > 0


def test_non_integrable_order_rejected():
    cfg = make_config(1, 1, 1, [[1]], [[1]], 1, 1, "1/2", Fraction(2))
    with pytest.raises(NonIntegrableError):
        eval_bilinear(cfg, ball(), ball(), [0.0])
    with pytest.raises(NonIntegrableError):
        eval_linear(1, 1, RationalMatrix.from_rows([[1]]), Fraction(3, 2),
                    ball(), [0.0])


@pytest.mark.parametrize("n", [1, 2])
def test_radial_order_at_the_origin_is_below_n(n):
    """At x = 0 the radial kernel is |y|^-lam, locally integrable only
    for lam < n; away from 0 the order n still evaluates."""
    f = Gaussian(dim=n)
    for lam in (n, n + 1):
        with pytest.raises(NonIntegrableError):
            eval_radial(n, 1, Fraction(lam), f, [0.0])
    est = eval_radial(n, 1, Fraction(n), f, [0.5])
    assert math.isfinite(est.value) and est.value > 0


def test_input_dimension_must_match_its_block():
    cfg = make_config(2, 1, 1, [[1], [0]], [[1]], 2, 2, 2, Fraction(1))
    D = RationalMatrix.from_rows([[1], [0]])
    for evaluate in (lambda: eval_bilinear(cfg, ball(1), ball(1), [0.0]),
                     lambda: eval_bilinear(cfg, ball(2), ball(2), [0.0]),
                     lambda: eval_linear(2, 1, D, Fraction(1), ball(1),
                                         [0.0]),
                     lambda: eval_radial(2, 1, Fraction(1), ball(1),
                                         [0.5])):
        with pytest.raises(ValueError, match="^input of dim"):
            evaluate()


# -- adaptive partition -----------------------------------------------


def axis_cells_reference(half, specials, base_depth, max_depth):
    """The former per-segment 1-d refinement loop, kept as the reference
    for the vectorised builder."""
    segs = [(-half, half)]
    leaves = []
    for level in range(max_depth):
        nxt = []
        for a, b in segs:
            w = b - a
            if level < base_depth or any(a - w <= s <= b + w
                                         for s in specials):
                mid = 0.5 * (a + b)
                nxt.append((a, mid))
                nxt.append((mid, b))
            else:
                leaves.append((a, b))
        segs = nxt
    leaves.extend(segs)
    return np.array(leaves)


def dyadic_cells_reference(lo, hi, targets, base_depth, max_depth):
    """Dyadic partition of the box [lo, hi] in R^d, the former
    `_dyadic_cells`, kept as the reference for the d > 2 layout.

    Every box splits into 2^d children at its midpoint 0.5 (lo + hi)
    until base_depth; after that only boxes whose own-width
    neighborhood contains a target point (rows of `targets`) keep
    splitting, up to max_depth levels.  Returns the leaves' (k, d) lower
    and upper corners, level by level, children in lexicographic order.
    """
    lo = np.asarray(lo, dtype=float)[None, :]
    hi = np.asarray(hi, dtype=float)[None, :]
    d = lo.shape[1]
    targets = np.asarray(targets, dtype=float).reshape(-1, d)[None, :, :]
    upper = np.array(list(itertools.product((False, True), repeat=d)))
    leaves_lo, leaves_hi = [], []
    for level in range(max_depth):
        if level < base_depth:
            split = np.ones(len(lo), dtype=bool)
        else:
            width = hi - lo
            near = ((targets >= (lo - width)[:, None, :])
                    & (targets <= (hi + width)[:, None, :]))
            split = np.any(np.all(near, axis=2), axis=1)
        leaves_lo.append(lo[~split])
        leaves_hi.append(hi[~split])
        slo, shi = lo[split, None, :], hi[split, None, :]
        mid = 0.5 * (slo + shi)
        lo = np.where(upper, mid, slo).reshape(-1, d)
        hi = np.where(upper, shi, mid).reshape(-1, d)
    leaves_lo.append(lo)
    leaves_hi.append(hi)
    return np.concatenate(leaves_lo), np.concatenate(leaves_hi)


def leaves(factors):
    """The leaves of a product of 1-d partitions as (k, d) lower and
    upper corners, factor 0 slowest."""
    def product(ends):
        grids = np.meshgrid(*ends, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    return (product([lo for lo, _ in factors]),
            product([hi for _, hi in factors]))


def layout(singular, breaks, quad):
    """The leaves as (k, d) corners: `_partition`'s in dimension <= 2,
    and above it the d-dimensional reference, which
    `test_grid_values_match_pointwise` pins the layout to bit for bit."""
    if singular.size > 2:
        return partition_reference(singular, breaks, quad)
    return leaves(_partition(singular, breaks, quad, {}))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_partition_tiles_the_truncation_box(d):
    quad = QuadratureSpec()
    singular = np.linspace(0.3, -0.7, d)
    breaks = [[-1.0, 1.0]] * d
    lo, hi = layout(singular, breaks, quad)
    assert np.all(lo >= -8.0) and np.all(hi <= 8.0) and np.all(hi > lo)
    assert float(np.sum(np.prod(hi - lo, axis=1))) == 16.0 ** d


def test_partition_1d_leaves_abut():
    lo, hi = leaves(_partition(np.array([0.3]), [[-1.0, 1.0]],
                               QuadratureSpec(), {}))
    order = np.argsort(lo[:, 0])
    lo, hi = lo[order, 0], hi[order, 0]
    assert lo[0] == -8.0 and hi[-1] == 8.0
    assert np.array_equal(hi[:-1], lo[1:])


@pytest.mark.parametrize("d", [1, 3])
def test_singular_leaf_has_finest_width(d):
    singular = np.full(d, 0.3)
    for quad in (QuadratureSpec(max_depth=7, base_depth=2), QuadratureSpec()):
        lo, hi = layout(singular, [[]] * d, quad)
        inside = np.all((lo <= singular) & (singular < hi), axis=1)
        assert inside.sum() == 1
        width = 16.0 * 2.0 ** -quad.depths(d)[1]
        assert np.all(hi[inside] - lo[inside] == width)


def test_depths_default_by_dimension():
    assert [QuadratureSpec().depths(d) for d in (1, 2, 3, 4, 5)] == [
        (8, 20), (6, 14), (4, 11), (3, 9), (2, 8)]
    assert QuadratureSpec(base_depth=3).depths(2) == (3, 14)
    assert QuadratureSpec(max_depth=5).depths(1) == (5, 5)


EYE2 = make_config(2, 2, 2, [[1, 0], [0, 1]], [[1, 0], [0, 1]], 2, 2, 2, 3)


@pytest.mark.parametrize("evaluate", [
    # d = 1: the unit ball under the order-1/2 Riesz potential at x = 0
    lambda *quad: eval_linear(1, 1, RationalMatrix.from_rows([[1]]),
                              Fraction(1, 2), ball(), [0.0], *quad),
    # d = 4: 2+2 Gaussians at x = (0.5, 0.25)
    lambda *quad: eval_bilinear(EYE2, Gaussian(dim=2), Gaussian(dim=2),
                                [0.5, 0.25], *quad),
], ids=["linear-1d", "bilinear-4d"])
def test_partial_spec_keeps_the_dimension_defaults(evaluate):
    assert evaluate(QuadratureSpec(truncation_radius=8.0)) == evaluate()


@given(st.sampled_from([8.0, 3.3, 1.0]),
       st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
       st.integers(0, 6), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_dyadic_cells_1d_matches_segment_loop(half, specials, base, depth):
    """The leaves of `_axis_levels` are the segment loop's, for the
    drawn targets and for none (the base lattice)."""
    base = min(base, depth)
    for targets in (specials, []):
        kept = [np.stack([lo[~split], hi[~split]], axis=1)
                for lo, hi, split in _axis_levels(half, targets, base, depth)]
        ref = axis_cells_reference(half, targets, base, depth)
        assert np.array_equal(np.concatenate(kept), ref)


def lone_leaves(half, key, base, top):
    """The kept leaves of `_axis_levels` on one key alone, as bytes."""
    kept = [(lo[~split], hi[~split])
            for lo, hi, split in _axis_levels(half, key, base, top)]
    return tuple(np.concatenate(a).tobytes() for a in zip(*kept))


@given(st.sampled_from([8.0, 0.3, 3.7, 1.0]),
       st.lists(st.lists(st.floats(-1.25, 1.25), max_size=4), min_size=1,
                max_size=6),
       st.integers(0, 6), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_batched_refinement_matches_lone_refinement(half, rows, base, top):
    """One `_refine` batch gives each key the kept leaves of
    `_axis_levels` run on that key alone, bit for bit: keys of different
    lengths (NaN-padded), a repeated key and an empty one among them,
    and radii whose midpoints are rounded."""
    base = min(base, top)
    keys = [tuple(u * half for u in row) for row in rows]
    keys += [keys[0], ()]
    quad = QuadratureSpec(truncation_radius=half, base_depth=base,
                          max_depth=top)
    axes = {}
    operators._refine(keys, quad, 1, axes)
    assert set(axes) == set(keys)
    for key in keys:
        assert tuple(a.tobytes() for a in axes[key]) == lone_leaves(
            half, key, base, top)


@pytest.mark.parametrize("n, f1, f2, quad", [
    (1, IndicatorBall(dim=1), MollifiedDelta(dim=1, width=0.25),
     QuadratureSpec()),
    (2, Gaussian(dim=2), Gaussian(dim=2), QuadratureSpec()),
    (3, Gaussian(dim=3), Gaussian(dim=3), QuadratureSpec(max_depth=3)),
], ids=["1+1", "2+2", "3+3"])
def test_chunked_leaf_sum_is_bit_identical(monkeypatch, n, f1, f2, quad):
    """Evaluating the leaves in many small chunks gives the value and
    the error estimate of the one-chunk evaluation bit for bit."""
    column = [[1]] + [[0]] * (n - 1)
    cfg = make_config(n, n, 1, column, column, 2, 2, 2,
                      Fraction(2 * n + 1, 2))
    whole = eval_bilinear(cfg, f1, f2, [0.3], quad)
    # 2^14 points per chunk splits each partition into 8 or more chunks
    monkeypatch.setattr(operators, "_CHUNK_POINTS", 1 << 14)
    chunked = eval_bilinear(cfg, f1, f2, [0.3], quad)
    assert math.isfinite(whole.value) and whole.value > 0
    assert (chunked.value, chunked.abs_error) == (whole.value,
                                                  whole.abs_error)


# -- the factored leaf evaluation against the pointwise one -----------


def partition_reference(singular, breaks, quad):
    """The former `_partition`: the leaves multiplied out into (k, d)
    arrays, the axis partitions' product in dimension <= 2."""
    d = singular.size
    half = quad.truncation_radius
    base, top = quad.depths(d)
    if d > 2:
        return dyadic_cells_reference(np.full(d, -half), np.full(d, half),
                                      singular, base, top)
    axes = [dyadic_cells_reference([-half], [half], [s] + list(b), base, top)
            for s, b in zip(singular, breaks)]
    return leaves([(lo[:, 0], hi[:, 0]) for lo, hi in axes])


def leaf_sum_reference(func, lo, hi, chunk_points=1 << 20):
    """The former `_leaf_sum`: every integrand point as a d-vector,
    the integrand called on (N, d) arrays."""
    d = lo.shape[1]
    corners = np.array(list(itertools.product((0.25, 0.75), repeat=d)))
    step = max(1, chunk_points // len(corners))
    coarse, fine = [], []
    for k in range(0, len(lo), step):
        clo, chi = lo[k:k + step], hi[k:k + step]
        width = chi - clo
        vol = np.prod(width, axis=1)
        coarse.append(func((clo + chi) / 2.0) * vol)
        sub = clo[:, None, :] + corners[None, :, :] * width[:, None, :]
        fine.append(func(sub.reshape(-1, d)).reshape(len(clo), -1)
                    .mean(axis=1) * vol)
    coarse, fine = np.concatenate(coarse), np.concatenate(fine)
    value = float(np.sum(fine + (fine - coarse) / 3.0))
    err = float(np.sum(np.abs(fine - coarse)))
    return value, err


def safe_power_reference(base, lam):
    out = np.zeros_like(base)
    pos = base > 0
    out[pos] = base[pos] ** (-lam)
    return out


def pointwise_reference(integrand, singular, breaks, quad):
    return leaf_sum_reference(integrand,
                              *partition_reference(singular, breaks, quad))


def bilinear_case(cfg, f1, f2, x, quad=QuadratureSpec()):
    """(factored, pointwise) evaluations of I(f1, f2)(x)."""
    xs = np.asarray(x, dtype=float)
    s1, s2 = cfg.D1.to_float() @ xs, cfg.D2.to_float() @ xs

    def integrand(y):
        y1, y2 = y[:, :cfg.n1], y[:, cfg.n1:]
        base = (np.linalg.norm(s1 - y1, axis=1)
                + np.linalg.norm(s2 - y2, axis=1))
        return (f1.values(y1) * f2.values(y2)
                * safe_power_reference(base, float(cfg.lam)))

    return (lambda: eval_bilinear(cfg, f1, f2, x, quad),
            lambda: pointwise_reference(integrand, np.concatenate([s1, s2]),
                                        f1.breaks() + f2.breaks(), quad))


def linear_case(n, lam, f, x, quad=QuadratureSpec()):
    D = RationalMatrix.from_rows([[int(i == j) for j in range(n)]
                                  for i in range(n)])
    s = np.asarray(x, dtype=float)

    def integrand(y):
        return f.values(y) * safe_power_reference(
            np.linalg.norm(s - y, axis=1), float(lam))

    return (lambda: eval_linear(n, n, D, lam, f, x, quad),
            lambda: pointwise_reference(integrand, s, f.breaks(), quad))


def radial_case(n, lam, f, x, quad=QuadratureSpec()):
    ax = float(np.linalg.norm(x))

    def integrand(y):
        return f.values(y) * safe_power_reference(
            ax + np.linalg.norm(y, axis=1), float(lam))

    return (lambda: eval_radial(n, len(x), lam, f, x, quad),
            lambda: pointwise_reference(integrand, np.zeros(n), f.breaks(),
                                        quad))


def gaussians(n1, n2, lam, quad=QuadratureSpec()):
    cols = [[[int(i == j) for j in range(n1)] for i in range(k)]
            for k in (n1, n2)]
    cfg = make_config(n1, n2, n1, cols[0], cols[1], 2, 2, 2, lam)
    x = list(np.linspace(0.3, -0.2, n1))
    return bilinear_case(cfg, Gaussian(dim=n1), Gaussian(dim=n2), x, quad)


ONE = make_config(1, 1, 1, [[1]], [[2]], 2, 2, 2, Fraction(1, 2))
ONE_TWO = make_config(1, 2, 1, [[1]], [[1], [0]], 2, 2, 2, Fraction(2))

FACTORED_BANK = {
    "1+1-gaussians-18/8": bilinear_case(
        make_config(1, 1, 1, [[1]], [[1]], 4, 4, 4, Fraction(7, 4)),
        Gaussian(dim=1), Gaussian(dim=1), [0.3],
        QuadratureSpec(max_depth=18, base_depth=8)),
    "indicator-x-delta": bilinear_case(
        ONE, IndicatorBall(dim=1), MollifiedDelta(dim=1, width=0.25), [0.7]),
    "delta-x-powerlog": bilinear_case(
        ONE, MollifiedDelta(dim=1, width=1 / 64), PowerLog(dim=1), [0.7]),
    "shifted-dilated-indicator-x-split-powerlog": bilinear_case(
        ONE_TWO, translate(dilate(IndicatorBall(dim=1), 0.5), [0.3]),
        SplitPowerLog(dim=2, head=1, tail=1), [0.2]),
    "2+1-gaussians": gaussians(2, 1, Fraction(2)),
    "2+2-gaussians": gaussians(2, 2, Fraction(3)),
    "3+3-gaussians": gaussians(3, 3, Fraction(9, 2),
                               QuadratureSpec(max_depth=3)),
    "linear-1": linear_case(1, Fraction(1, 2), IndicatorBall(dim=1), [0.0]),
    "linear-2": linear_case(2, Fraction(1), PowerLog(dim=2, p=4.0),
                            [0.2, -0.1]),
    "radial-2-constant": radial_case(2, Fraction(3), Constant(dim=2),
                                     [0.7]),
    "linear-3": linear_case(3, Fraction(2), Gaussian(dim=3),
                            [0.3, -0.2, 0.1]),
    "radial-3": radial_case(3, Fraction(2), Gaussian(dim=3), [0.4]),
    # the singular point lies outside both supports: both axes are cut
    "delta-x-powerlog-off-support": bilinear_case(
        ONE, MollifiedDelta(dim=1, width=1 / 64), PowerLog(dim=1), [3.0],
        QuadratureSpec(base_depth=9, max_depth=15)),
    # the tails underflow to exact zeros at different radii
    "gaussians-dilated-0.01-x-0.02": bilinear_case(
        ONE, dilate(Gaussian(dim=1), 0.01), dilate(Gaussian(dim=1), 0.02),
        [0.3], QuadratureSpec(base_depth=9, max_depth=15)),
    # d > 2 with the max depth at the base depth: every cell is a leaf
    "linear-3-at-the-base-depth": linear_case(
        3, Fraction(1), Gaussian(dim=3), [0.3, -0.2, 0.1],
        QuadratureSpec(max_depth=4)),
}


@pytest.mark.parametrize("chunk_points", [None, 1 << 14],
                         ids=["one-chunk", "chunked"])
@pytest.mark.parametrize("case", list(FACTORED_BANK.values()),
                         ids=list(FACTORED_BANK))
def test_factored_leaf_sum_matches_pointwise(monkeypatch, case,
                                             chunk_points):
    """Evaluating each block once per distinct coordinate gives the
    value and the error estimate of the pointwise evaluation bit for
    bit, whatever the chunking."""
    factored, pointwise = case
    if chunk_points is not None:
        monkeypatch.setattr(operators, "_CHUNK_POINTS", chunk_points)
    est = factored()
    assert math.isfinite(est.value) and est.value != 0
    assert (est.value, est.abs_error) == pointwise()


def grid_values(monkeypatch, cfg, f1, f2, grid, quad, workers=None):
    """The per-point values and error estimates `lq_norm_on_grid` forms
    its norm from."""
    seen = []

    def record(*args, **kwargs):
        seen.append(pointwise_values(*args, **kwargs))
        return seen[-1]

    pointwise_values = operators._pointwise_values
    monkeypatch.setattr(operators, "_pointwise_values", record)
    lq_norm_on_grid(cfg, f1, f2, grid, quad, workers=workers)
    monkeypatch.setattr(operators, "_pointwise_values", pointwise_values)
    (values, errors), = seen[0]
    return values, errors


FOURTH_D = make_config(2, 2, 2, [[1, 0], [0, 0]], [[0, 0], [0, 1]],
                       "4/3", "4/3", 1, 3)
THIRDS = make_config(2, 2, 2, [["1/3", 0], [0, 1]], [[1, "1/3"], [0, 1]],
                     2, 2, 2, 3)
COLUMN3 = [[1], ["1/3"], ["1/5"]]
G1, G2, G3 = (Gaussian(dim=n) for n in (1, 2, 3))

GRID_BANK = {
    "2+2-5x5": (EYE2, G2, G2, GridSpec(points_per_axis=5), QuadratureSpec()),
    "2+2-9x9-spacing-1/8": (EYE2, G2, G2,
                            GridSpec(half_width=0.5, points_per_axis=9),
                            QuadratureSpec(base_depth=2, max_depth=6)),
    "2+2-thirds": (THIRDS, G2, G2, GridSpec(half_width=3.0,
                                            points_per_axis=7),
                   QuadratureSpec(base_depth=2, max_depth=5)),
    "2+2-outside-the-box": (EYE2, G2, G2, GridSpec(half_width=3.0,
                                                   points_per_axis=5),
                            QuadratureSpec(truncation_radius=2.0,
                                           max_depth=6)),
    # lattice width 0.825 = 2 * 3.3 / 8: the points' differences to
    # their cells' centroids round apart, so no two share a kernel
    "2+2-inexact-lattice": (EYE2, G2, G2,
                            GridSpec(half_width=1.65, points_per_axis=5),
                            QuadratureSpec(truncation_radius=3.3,
                                           max_depth=5)),
    "2+2-base-0": (EYE2, G2, G2, GridSpec(points_per_axis=5),
                   QuadratureSpec(base_depth=0, max_depth=5)),
    "2+2-base-1": (EYE2, G2, G2, GridSpec(points_per_axis=5),
                   QuadratureSpec(base_depth=1, max_depth=5)),
    "2+1": (make_config(2, 1, 2, [[1, 0], [0, 1]], [[1, 1]], 2, 2, 2, 2),
            G2, G1, GridSpec(points_per_axis=5), QuadratureSpec(max_depth=8)),
    "3+3-chunked": (make_config(3, 3, 1, COLUMN3, COLUMN3, 2, 2, 2,
                                Fraction(9, 2)),
                    G3, G3, GridSpec(points_per_axis=3),
                    QuadratureSpec(max_depth=3)),
    "case-4d-power-log": (FOURTH_D,
                          *witness_for(FOURTH_D, Clause.CASE_4D)[0],
                          GridSpec(half_width=1.0, points_per_axis=5),
                          QuadratureSpec(max_depth=5)),
}


@pytest.mark.parametrize("name", list(GRID_BANK))
def test_grid_values_match_pointwise(monkeypatch, name):
    """Grid points whose levels above the base have bit-equal kernel
    inputs share those levels' kernels and volumes; every point's value
    and error estimate is still the pointwise evaluation's bit for bit
    (a "-chunked" case in chunks of 2^14 integrand points)."""
    cfg, f1, f2, grid, quad = GRID_BANK[name]
    if name.endswith("-chunked"):
        monkeypatch.setattr(operators, "_CHUNK_POINTS", 1 << 14)
    values, errors = grid_values(monkeypatch, cfg, f1, f2, grid, quad)
    for x, value, error in zip(grid.points(cfg.m), values, errors):
        _, pointwise = bilinear_case(cfg, f1, f2, x, quad)
        assert (value, error) == pointwise(), x


@pytest.mark.parametrize("name", ["3+3-chunked", "2+2-5x5"])
def test_grid_levels_honour_the_chunk_bound(monkeypatch, name):
    """The d > 2 layout evaluates each level in sub-boxes: no kernel
    array holds more than _CHUNK_POINTS integrand points."""
    cfg, f1, f2, grid, quad = GRID_BANK[name]
    largest = [0]
    kernel = operators._kernel

    def recorded(*args, **kwargs):
        out = kernel(*args, **kwargs)
        largest[0] = max(largest[0], out.size)
        return out

    monkeypatch.setattr(operators, "_CHUNK_POINTS", 1 << 14)
    monkeypatch.setattr(operators, "_kernel", recorded)
    lq_norm_on_grid(cfg, f1, f2, grid, quad)
    assert 0 < largest[0] <= 1 << 14


def test_grid_values_do_not_depend_on_workers(monkeypatch):
    """Four threads, switching as often as the interpreter allows, give
    the serial per-point values bit for bit."""
    cfg, f1, f2, grid, quad = GRID_BANK["2+2-5x5"]
    serial = grid_values(monkeypatch, cfg, f1, f2, grid, quad)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = grid_values(monkeypatch, cfg, f1, f2, grid, quad,
                               workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(serial, threaded))


def test_grid_values_do_not_depend_on_chunks(monkeypatch):
    """The 25 points of the 5x5 grid share the kernels of every level
    above the base; evaluating the levels in chunks of 2^14 integrand
    points gives the per-point values of one chunk per level bit for
    bit."""
    cfg, f1, f2, grid, quad = GRID_BANK["2+2-5x5"]
    whole = grid_values(monkeypatch, cfg, f1, f2, grid, quad)
    monkeypatch.setattr(operators, "_CHUNK_POINTS", 1 << 14)
    chunked = grid_values(monkeypatch, cfg, f1, f2, grid, quad)
    assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))


# -- family evaluation: one grid pass for a probe's whole family ------


CASE_4A = make_config(1, 1, 1, [[1]], [[1]], 1, 2, 1, Fraction(3, 2))
SLOPE_1D = make_config(1, 1, 1, [[1]], [[1]], 4, 4, 4, Fraction(7, 4))

FAMILY_BANK = {
    # dilated Gaussians have no breaks: one partition and kernel per point
    "1+1-gaussians-18/8": (SLOPE_1D, (G1, G1), [0.5, 1.0, 2.0],
                           GridSpec(points_per_axis=9),
                           QuadratureSpec(max_depth=18, base_depth=8)),
    # the witnesses' breaks differ from pair to pair
    "case-4a-witnesses": (CASE_4A, None, None, GridSpec(points_per_axis=9),
                          QuadratureSpec()),
    # the same family last to first: the workspace grows within a call
    "case-4a-witnesses-reversed": (CASE_4A, None, None,
                                   GridSpec(points_per_axis=9),
                                   QuadratureSpec()),
    # the singular points at x = +-3 lie outside both supports
    "delta-x-powerlog-off-support": (
        ONE, (MollifiedDelta(dim=1, width=1 / 64), PowerLog(dim=1)),
        [1.0, 0.5], GridSpec(half_width=3.0, points_per_axis=5),
        QuadratureSpec(base_depth=9, max_depth=15)),
    # one group, cut to the union of its members' live ranges
    "1+1-gaussians-dilated-0.01-and-0.02": (
        SLOPE_1D, (G1, G1), [0.01, 0.02], GridSpec(points_per_axis=9),
        QuadratureSpec(base_depth=10, max_depth=16)),
    # d > 2: each pair takes its own pass over the nine points
    "2+2-two-pairs": (EYE2, (G2, G2), [0.5, 1.0],
                      GridSpec(points_per_axis=3), QuadratureSpec(max_depth=5)),
}


@pytest.mark.parametrize("mode", ["serial", "chunked", "workers"])
@pytest.mark.parametrize("name", list(FAMILY_BANK))
def test_family_members_match_their_lone_norm_ratio(monkeypatch, name, mode):
    """A probe evaluates its whole family in one grid pass; each member's
    ratio and error are still its own `norm_ratio`'s bit for bit, in
    chunks of 2^14 integrand points and on four threads too."""
    cfg, pair, a_list, grid, quad = FAMILY_BANK[name]
    if pair is None:
        family = witness_for(cfg, Clause.CASE_4A)
        if name.endswith("-reversed"):
            family = family[::-1]
        assert len({repr(f1.breaks() + f2.breaks())
                    for f1, f2 in family}) == len(family) > 1
    else:
        family = [tuple(dilate(f, a) for f in pair) for a in a_list]
    lone = [operators.norm_ratio(cfg, f1, f2, grid, quad)
            for f1, f2 in family]
    assert all(math.isfinite(r) and r > 0 for r, _ in lone)
    if mode == "chunked":
        monkeypatch.setattr(operators, "_CHUNK_POINTS", 1 << 14)
    workers = 4 if mode == "workers" else None
    ratios = operators.blowup_probe(cfg, family, grid, quad, workers)
    assert ratios == [r for r, _ in lone]
    assert operators.blowup_probe(cfg, [], grid, quad, workers) == []
    if a_list is not None:
        report = dilation_slope(cfg, *pair, a_list, grid, quad, workers)
        assert list(zip(report.ratios, report.ratio_errors)) == lone


@pytest.mark.parametrize("batch, workers, chunks", [
    (256, None, 1),   # 9 points x 2 axes x 3 break groups fit one chunk
    (12, None, 5),    # at most 12 axes, 2 points, per chunk
    (256, 4, 4),      # a chunk per worker
])
def test_axes_are_refined_once_per_chunk_of_points(monkeypatch, batch,
                                                   workers, chunks):
    """A d <= 2 grid pass enters `_axis_levels` once per chunk of points,
    not once per point and distinct axis (36 times here), with the
    ratios of one chunk bit for bit."""
    family = witness_for(CASE_4A, Clause.CASE_4A)
    grid = GridSpec(points_per_axis=9)
    serial = operators.blowup_probe(CASE_4A, family, grid)
    calls = []
    axis_levels = operators._axis_levels

    def counted(*args):
        calls.append(args)
        return axis_levels(*args)

    monkeypatch.setattr(operators, "_axis_levels", counted)
    monkeypatch.setattr(operators, "_BATCH_AXES", batch)
    ratios = operators.blowup_probe(CASE_4A, family, grid, workers=workers)
    assert len(calls) == chunks
    assert ratios == serial


# -- structural identities --------------------------------------------


def test_swap_symmetry_of_kernel():
    cfg = make_config(1, 1, 1, [[1]], [[2]], 2, 2, 2, Fraction(1, 2))
    f1 = Gaussian(dim=1)
    f2 = IndicatorBall(dim=1, radius=0.5)
    a = eval_bilinear(cfg, f1, f2, [0.7])
    b = eval_bilinear(cfg.swapped(), f2, f1, [0.7])
    assert a.value == pytest.approx(b.value, rel=1e-9)


def test_linearity_in_each_slot():
    # the unit interval indicator splits into two half-interval
    # indicators almost everywhere, so the evaluations must add up
    cfg = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(1, 2))
    whole = IndicatorBall(dim=1)
    left = IndicatorBall(dim=1, radius=0.5, center=(-0.5,))
    right = IndicatorBall(dim=1, radius=0.5, center=(0.5,))
    g = Gaussian(dim=1)
    for x in ([0.25], [1.5]):
        total = eval_bilinear(cfg, whole, g, x).value
        split = (eval_bilinear(cfg, left, g, x).value
                 + eval_bilinear(cfg, right, g, x).value)
        assert split == pytest.approx(total, rel=2e-3)
        total2 = eval_bilinear(cfg, g, whole, x).value
        split2 = (eval_bilinear(cfg, g, left, x).value
                  + eval_bilinear(cfg, g, right, x).value)
        assert split2 == pytest.approx(total2, rel=2e-3)


def test_kernel_monotone_in_order_for_separated_supports():
    # supports sit at distance > 1 from the singular point, so a larger
    # order strictly shrinks the kernel pointwise
    cfg_lo = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(1, 2))
    cfg_hi = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(3, 2))
    f = IndicatorBall(dim=1, radius=0.5, center=(3.0,))
    lo = eval_bilinear(cfg_lo, f, f, [0.0]).value
    hi = eval_bilinear(cfg_hi, f, f, [0.0]).value
    assert hi < lo


def test_radial_monotone_in_x():
    f = ball()
    v1 = eval_radial(1, 1, Fraction(1), f, [1.0]).value
    v2 = eval_radial(1, 1, Fraction(1), f, [2.0]).value
    assert v2 < v1


def test_continuum_dilation_identity():
    """I(f1(./a), f2(./a))(x) = a^(n1+n2-lam) I(f1, f2)(x/a)."""
    cfg = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(3, 2))
    g = Gaussian(dim=1)
    for a in (0.5, 2.0):
        lhs = eval_bilinear(cfg, dilate(g, a), dilate(g, a), [0.5])
        rhs = eval_bilinear(cfg, g, g, [0.5 / a])
        scale = a ** (1 + 1 - 1.5)
        combined = lhs.abs_error + scale * rhs.abs_error
        assert abs(lhs.value - scale * rhs.value) <= combined


def _polar_reference_1plus1(t, lam):
    """I(g, g)(t) in 1+1 dims for the unit Gaussian g, D1 = D2 = 1, by
    the L1-polar substitution |u1| = r w, |u2| = r (1 - w), r = s^k
    with k = 1 / (2 - lam), one quadrant of signs at a time."""
    from scipy import integrate
    k = 1.0 / (2.0 - lam)
    total = 0.0
    for s1, s2 in itertools.product((1.0, -1.0), repeat=2):
        def f(s, w):
            r = s ** k
            return k * s ** (k * (2.0 - lam) - 1.0) * math.exp(
                -(t + s1 * r * w) ** 2 - (t + s2 * r * (1.0 - w)) ** 2)
        total += integrate.dblquad(f, 0.0, 1.0, 0.0, 6.0,
                                   epsabs=1e-12, epsrel=1e-10)[0]
    return total


def _polar_reference_2plus2(rho1, rho2, lam):
    """I(g, g) in 2+2 dims for the unit Gaussian g, with the blocks
    centred at radii rho1 and rho2: polar coordinates in each block,
    the angles integrated in closed form (Bessel I0), then |u1| = s w,
    |u2| = s (1 - w)."""
    from scipy import integrate, special

    def f(s, w):
        return (w * (1.0 - w) * s ** (3.0 - lam)
                * math.exp(-(s * w - rho1) ** 2 - (s * (1.0 - w) - rho2) ** 2)
                * special.i0e(2.0 * s * w * rho1)
                * special.i0e(2.0 * s * (1.0 - w) * rho2))
    v = integrate.dblquad(f, 0.0, 1.0, 0.0, rho1 + rho2 + 10.0,
                          epsabs=1e-12, epsrel=1e-10)[0]
    return (2.0 * math.pi) ** 2 * v


def test_adaptive_agrees_with_references_2d_and_4d():
    """The error bar covers the distance to an independent scipy
    reference, and that distance is under 2%, in 1+1 and 2+2 dims."""
    g1 = Gaussian(dim=1)
    a2 = eval_bilinear(REF, g1, g1, [0.5])
    ref2 = _polar_reference_1plus1(0.5, 1.5)
    assert ref2 == pytest.approx(5.621035, abs=1e-6)

    cfg4 = make_config(2, 2, 1, [[1], [0]], [[0], [1]], 2, 2, 2,
                       Fraction(5, 2))
    g2 = Gaussian(dim=2)
    a4 = eval_bilinear(cfg4, g2, g2, [0.5])
    ref4 = _polar_reference_2plus2(0.5, 0.5, 2.5)
    assert ref4 == pytest.approx(4.446507, abs=1e-6)

    for a, ref in ((a2, ref2), (a4, ref4)):
        assert abs(a.value - ref) <= a.abs_error
        assert abs(a.value - ref) / ref < 0.02


# -- grid norms -------------------------------------------------------


def test_grid_norm_of_constant_field():
    # a constant integrand over total measure V gives c * V^(1/q)
    grid = GridSpec(half_width=1.0, points_per_axis=5)
    xs = grid.points(1)
    meas = grid.cell_measure(1)
    total = (len(xs) * meas) ** 0.5
    vals = np.full(len(xs), 3.0)
    power = (np.sum(vals ** 2) * meas) ** 0.5
    assert power == pytest.approx(3.0 * total, rel=1e-12)


def test_grid_norm_qinf_is_max():
    cfg = make_config(1, 1, 1, [[1]], [[1]], 2, 2, "inf", Fraction(1))
    g = Gaussian(dim=1)
    grid = GridSpec(half_width=2.0, points_per_axis=9)
    est = lq_norm_on_grid(cfg, g, g, grid)
    center = eval_bilinear(cfg, g, g, [0.0]).value
    assert est.value == pytest.approx(center, rel=1e-9)


def test_grid_refinement_consistency():
    g = Gaussian(dim=1)
    coarse = lq_norm_on_grid(REF, g, g, GridSpec(points_per_axis=33))
    fine = lq_norm_on_grid(REF, g, g, GridSpec(points_per_axis=65))
    assert abs(fine.value - coarse.value) / fine.value < 0.05


def test_grid_norm_deterministic_under_workers():
    g = Gaussian(dim=1)
    grid = GridSpec(points_per_axis=17)
    one = lq_norm_on_grid(REF, g, g, grid, workers=1)
    many = lq_norm_on_grid(REF, g, g, grid, workers=4)
    assert one.value == many.value
    assert one.abs_error == many.abs_error


# -- probes -----------------------------------------------------------


def test_predicted_slope_formula():
    assert predicted_dilation_slope(REF) == 0.0
    shifted = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2,
                          Fraction(3, 2) + Fraction(1, 10))
    assert predicted_dilation_slope(shifted) == pytest.approx(-0.1)


def test_dilation_slope_homogeneous():
    g = Gaussian(dim=1)
    report = dilation_slope(REF, g, g, [0.5, 1.0, 2.0])
    assert abs(report.slope - report.predicted_slope) < 0.05
    assert all(r > 0 for r in report.ratios)
    assert len(report.dilations) == len(report.ratios) == 3


def test_dilation_slope_rejects_short_lists_and_infinite_q():
    g = Gaussian(dim=1)
    with pytest.raises(ValueError):
        dilation_slope(REF, g, g, [1.0])
    qinf = make_config(1, 1, 1, [[1]], [[1]], 2, 2, "inf", Fraction(1))
    with pytest.raises(ValueError):
        dilation_slope(qinf, g, g, [0.5, 1.0, 2.0])


def test_two_factor_dilation_slope_is_the_secant():
    """With two factors the fitted slope is the secant
    log(r2/r1) / log(a2/a1), and it has no standard error."""
    g = Gaussian(dim=1)
    report = dilation_slope(REF, g, g, [0.5, 2.0],
                            grid=GridSpec(points_per_axis=5))
    r1, r2 = report.ratios
    assert report.slope == pytest.approx(math.log(r2 / r1) / math.log(4.0),
                                         rel=1e-12)
    assert report.slope_stderr == 0.0


def test_translation_defect_zero_shift():
    g = Gaussian(dim=1)
    grid = GridSpec(points_per_axis=9)
    assert translation_covariance_defect(REF, g, g, [0.0], grid) == 0.0


def test_translation_defect_small_for_lattice_shift():
    g = Gaussian(dim=1)
    grid = GridSpec(points_per_axis=17)
    d = translation_covariance_defect(REF, g, g, [0.5], grid)
    peak = eval_bilinear(REF, g, g, [0.0]).value
    assert d < 1e-9 * peak
