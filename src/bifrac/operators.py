"""Numerical evaluation of the fractional integral operators.

All three operators are one kernel form, evaluated by `_evaluate`: the
integral over the truncation box of

    prod_b f_b(y_b) * (offset + sum_b |c_b - y_b|)^-lam,

one input f_b and centre c_b per coordinate block y_b in R^(n_b).  The
bilinear operator has two blocks centred at (D1 x, D2 x), the linear
one a single block centred at Dx, and the radial one a single block
centred at 0 with offset |x|.  The kernel is locally integrable exactly
when 0 < lam < sum_b n_b, or 0 < lam when offset > 0; any other order
raises NonIntegrableError.

One adaptive-dyadic scheme integrates this singular integrand over the
box and returns a value with an error estimate.  The integrand takes
one point array per block, each of shape (..., n_b); their leading
shapes broadcast against each other and the integrand returns values
of the broadcast shape.  So a factor that depends on one block, an
input or a block distance, is computed once per distinct block
coordinate, and only the product of the factors and the kernel power
run on every point.

One builder, `_dyadic_cells`, makes every partition: uniform dyadic
splits to a base depth, then only boxes whose own-width neighborhood
holds a target point keep splitting.  Targets are of two kinds.  In
dimension <= 2 the partition is a tensor product of 1-d partitions
whose targets are the singular coordinate and the input descriptors'
breaks on that axis (bump edges, power-law origins), so a bump that
is narrow in one coordinate but extended in the others is still
resolved; the product is never formed, each axis's leaves lie along
their own array axis.  In higher dimension one d-dimensional partition
has the singular point as its only target, and cells near it split
into 2^d children.  Both depths come from `QuadratureSpec.depths(d)`:
a depth the spec leaves unset takes the default for the integration
dimension d, and the base depth is capped at the maximum.  Every leaf
gets a centroid value plus one 2^d-subcell refinement pass, whose
corners are the product of each block's 2^n_b corners; the reported
value is the Richardson combination and the error estimate is the
coarse/fine discrepancy.  A centroid that lands exactly on the
singular point contributes 0 (measure zero).

All evaluations are pure functions of (descriptors, spec); grid-point
results keep the order of the points, so concurrent execution is
bit-reproducible."""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .classifier import OperatorConfig, check_shape
from .exponents import BifracError
from .functions import (NormEstimate, TestFunction, _check_int, _check_real,
                        dilate, lp_norm)
from .matrices import RationalMatrix


class NonIntegrableError(BifracError):
    """Kernel exponent too large for local integrability."""


@dataclass(frozen=True)
class QuadratureSpec:
    max_depth: Optional[int] = None   # None: default by dimension
    truncation_radius: float = 8.0
    base_depth: Optional[int] = None  # uniform pre-split; None: by dim

    def __post_init__(self):
        if self.max_depth is not None:
            _check_int("max_depth", self.max_depth, 1)
        if self.base_depth is not None:
            _check_int("base_depth", self.base_depth, 0)
        _check_real("truncation_radius", self.truncation_radius, True)

    def depths(self, dim: int) -> Tuple[int, int]:
        """(base_depth, max_depth) in dimension dim: each depth left
        unset comes from the dimension's default, and the base depth is
        capped at the maximum."""
        base, top = {1: (8, 20), 2: (6, 14), 3: (4, 11),
                     4: (3, 9)}.get(dim, (2, 8))
        if self.max_depth is not None:
            top = self.max_depth
        if self.base_depth is not None:
            base = self.base_depth
        return min(base, top), top


@dataclass(frozen=True)
class GridSpec:
    half_width: float = 4.0
    points_per_axis: int = 65

    def __post_init__(self):
        _check_real("half_width", self.half_width, True)
        _check_int("points_per_axis", self.points_per_axis, 3)
        if self.points_per_axis % 2 == 0:
            raise BifracError("points_per_axis must be odd")

    def points(self, m: int) -> np.ndarray:
        axis = np.linspace(-self.half_width, self.half_width,
                           self.points_per_axis)
        grids = np.meshgrid(*([axis] * m), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def cell_measure(self, m: int) -> float:
        h = 2.0 * self.half_width / (self.points_per_axis - 1)
        return h ** m


@dataclass(frozen=True)
class ProbeReport:
    dilations: List[float]
    ratios: List[float]
    ratio_errors: List[float]
    slope: float
    slope_stderr: float
    predicted_slope: float

    def to_record(self) -> dict:
        return {"dilations": list(self.dilations),
                "ratios": list(self.ratios),
                "ratio_errors": list(self.ratio_errors),
                "slope": self.slope,
                "slope_stderr": self.slope_stderr,
                "predicted_slope": self.predicted_slope}


# ---------------------------------------------------------------------------
# core integrators


_CHUNK_POINTS = 1 << 20  # integrand points per evaluation call, at most


def _leaf_sum(func: Callable[..., np.ndarray],
              factors: Sequence[Tuple[np.ndarray, np.ndarray]],
              blocks: Sequence[int]) -> Tuple[float, float]:
    """Centroid value plus one 2^d refinement pass over the leaves of a
    factored partition; Richardson-combined value with the coarse/fine
    discrepancy as the error estimate.

    `factors` are (lo, hi) leaf arrays, each (k, d_f) over the next d_f
    coordinates, whose product (factor 0 slowest) is the partition.
    Each block's 2^n_b subcell corners lie along a leading array axis
    and each factor's leaves along a trailing one, so func, which takes
    one (..., n_b) array per block of `blocks`, sees each block
    coordinate once.  The corners keep the lexicographic order of one
    d-dimensional corner set and each leaf's mean adds them as numpy
    sums one contiguous row, so per-leaf values do not depend on the
    factoring.
    Factor 0 is evaluated in chunks of at most _CHUNK_POINTS integrand
    points, which bounds memory and does not change the values."""
    nb = len(blocks)
    ndim = nb + len(factors)
    owner = [(f, c) for f, (lo, _) in enumerate(factors)
             for c in range(lo.shape[1])]
    offsets = [np.array(list(itertools.product((0.25, 0.75), repeat=n)))
               for n in blocks]
    corners = 2 ** len(owner)
    row = corners * math.prod(len(lo) for lo, _ in factors[1:])
    step = max(1, _CHUNK_POINTS // row)

    def along(v, axis):
        shape = [1] * ndim
        shape[axis] = -1
        return v.reshape(shape)

    coarse, fine = [], []
    lo0, hi0 = factors[0]
    for k in range(0, len(lo0), step):
        chunk = [(lo0[k:k + step], hi0[k:k + step])] + list(factors[1:])
        vol = math.prod(along(np.prod(hi - lo, axis=1), nb + f)
                        for f, (lo, hi) in enumerate(chunk)).ravel()
        centre, sub = [], []
        start = 0
        for b, n in enumerate(blocks):
            mids, points = [], []
            for i, (f, c) in enumerate(owner[start:start + n]):
                lo, hi = chunk[f][0][:, c], chunk[f][1][:, c]
                mids.append(along((lo + hi) / 2.0, nb + f))
                points.append(along(lo, nb + f) + along(offsets[b][:, i], b)
                              * along(hi - lo, nb + f))
            centre.append(np.stack(np.broadcast_arrays(*mids), axis=-1))
            sub.append(np.stack(np.broadcast_arrays(*points), axis=-1))
            start += n
        coarse.append(func(*centre).reshape(-1) * vol)
        values = func(*sub).reshape(corners, -1)
        if corners < 8:
            # numpy adds fewer than 8 terms one by one along any axis, so
            # the corner axis gives the row mean without a transpose
            mean = values.mean(axis=0)
        else:
            # from 8 terms on a contiguous row is summed pairwise
            mean = np.ascontiguousarray(values.T).mean(axis=1)
        fine.append(mean * vol)
    coarse, fine = np.concatenate(coarse), np.concatenate(fine)
    value = float(np.sum(fine + (fine - coarse) / 3.0))
    err = float(np.sum(np.abs(fine - coarse)))
    return value, err


def _dyadic_cells(lo, hi, targets, base_depth: int,
                  max_depth: int) -> Tuple[np.ndarray, np.ndarray]:
    """Dyadic partition of the box [lo, hi] in R^d.

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
    leaves_lo: List[np.ndarray] = []
    leaves_hi: List[np.ndarray] = []
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


def _partition(singular: np.ndarray, breaks: List[List[float]],
               quad: QuadratureSpec) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Factors of the adaptive partition of the truncation box, for
    `_leaf_sum`.

    In dimension <= 2 one 1-d partition per axis, each refined toward
    the singular coordinate and that axis's breaks, whose product is
    the partition; in higher dimension one partition refined toward the
    singular point.
    """
    d = singular.size
    half = quad.truncation_radius
    base, top = quad.depths(d)
    if d > 2:
        return [_dyadic_cells(np.full(d, -half), np.full(d, half), singular,
                              base, top)]
    axes = {}   # axes with the same targets share one partition
    for s, b in zip(singular, breaks):
        key = (s, *b)
        if key not in axes:
            axes[key] = _dyadic_cells([-half], [half], key, base, top)
    return [axes[(s, *b)] for s, b in zip(singular, breaks)]


def _evaluate(inputs: Sequence[TestFunction], centres: Sequence[np.ndarray],
              lam, quad: QuadratureSpec, offset: float = 0.0) -> NormEstimate:
    """Integral of prod_b f_b(y_b) (offset + sum_b |c_b - y_b|)^-lam over
    the truncation box, for one input f_b and centre c_b per coordinate
    block.  Refuses an input whose dim is not its block's size, and a
    kernel order outside (0, sum_b n_b), or outside (0, inf) when
    offset > 0; the kernel is 0 at the singular point."""
    blocks = [c.size for c in centres]
    for f, n in zip(inputs, blocks):
        if f.dim != n:
            raise BifracError(f"input of dim {f.dim} on a block of dim {n}")
    top = sum(blocks) if offset == 0 else math.inf
    if not 0 < lam < top:
        raise NonIntegrableError(f"kernel order {lam} is outside (0, {top}),"
                                 f" not locally integrable in R^{sum(blocks)}")
    lam = float(lam)

    def integrand(*ys):
        # the offset plus each block distance in turn, then the power and
        # the inputs' product in place: the one full-size array
        base = sum((np.linalg.norm(c - y, axis=-1)
                    for c, y in zip(centres, ys)), offset)
        zero = base <= 0    # the singular point, of measure zero
        with np.errstate(divide="ignore"):
            base **= -lam
        base[zero] = 0.0
        base *= math.prod(f.values(y) for f, y in zip(inputs, ys))
        return base

    breaks = [axis for f in inputs for axis in f.breaks()]
    value, err = _leaf_sum(integrand,
                           _partition(np.concatenate(centres), breaks, quad),
                           blocks)
    return NormEstimate(value, err, "quadrature")


# ---------------------------------------------------------------------------
# operator evaluations


def eval_bilinear(cfg: OperatorConfig, f1: TestFunction, f2: TestFunction,
                  x, quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """I(f1, f2)(x): integral of f1(y1) f2(y2) against the kernel
    (|D1 x - y1| + |D2 x - y2|)^-lam over the truncation box."""
    x = np.asarray(x, dtype=float).reshape(cfg.m)
    centres = (cfg.D1.to_float() @ x, cfg.D2.to_float() @ x)
    return _evaluate((f1, f2), centres, cfg.lam, quad)


def eval_linear(n: int, m: int, D: RationalMatrix, lam, f: TestFunction,
                x, quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """Generalized Riesz potential: integral of f(y) |Dx - y|^-lam, for
    an n x m matrix D."""
    check_shape("D", D, n, m)
    x = np.asarray(x, dtype=float).reshape(m)
    return _evaluate((f,), (D.to_float() @ x,), lam, quad)


def eval_radial(n: int, m: int, lam, f: TestFunction, x,
                quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """Radial operator: integral of f(y) (|x| + |y|)^-lam."""
    x = np.asarray(x, dtype=float).reshape(m)
    return _evaluate((f,), (np.zeros(n),), lam, quad,
                     offset=float(np.linalg.norm(x)))


# ---------------------------------------------------------------------------
# grid norms and probes


def _pointwise_values(cfg, f1, f2, xs, quad, workers=None):
    """Operator values and error estimates at each grid point, in order."""
    def run(x):
        return eval_bilinear(cfg, f1, f2, x, quad)

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            ests = list(pool.map(run, xs))
    else:
        ests = list(map(run, xs))
    return (np.array([e.value for e in ests]),
            np.array([e.abs_error for e in ests]))


def lq_norm_on_grid(cfg: OperatorConfig, f1: TestFunction, f2: TestFunction,
                    grid: GridSpec = GridSpec(),
                    quad: QuadratureSpec = QuadratureSpec(),
                    workers: Optional[int] = None) -> NormEstimate:
    """Discrete L^q (quasi-)norm of I(f1, f2) over a uniform grid.

    q < 1 uses the same power-sum formula; q = inf takes the grid max.
    """
    xs = grid.points(cfg.m)
    vals, errs = _pointwise_values(cfg, f1, f2, xs, quad, workers=workers)
    if cfg.q.is_infinite:
        k = int(np.argmax(np.abs(vals)))
        return NormEstimate(float(np.abs(vals[k])), float(errs[k]),
                            "quadrature")
    qv = float(cfg.q)
    meas = grid.cell_measure(cfg.m)
    power_sum = float(np.sum(np.abs(vals) ** qv) * meas)
    value = power_sum ** (1.0 / qv)
    upper = float(np.sum((np.abs(vals) + errs) ** qv) * meas) ** (1.0 / qv)
    return NormEstimate(value, upper - value, "quadrature")


def predicted_dilation_slope(cfg: OperatorConfig) -> float:
    """Exact exponent of the norm-ratio power law under dilation:
    (n1 + n2 - lam + m/q) - n1/p1 - n2/p2."""
    return float(cfg.n1 + cfg.n2 - cfg.lam + cfg.m * cfg.q.recip
                 - cfg.n1 * cfg.p1.recip - cfg.n2 * cfg.p2.recip)


def norm_ratio(cfg: OperatorConfig, f1: TestFunction, f2: TestFunction,
               grid: GridSpec = GridSpec(),
               quad: QuadratureSpec = QuadratureSpec(),
               workers: Optional[int] = None) -> Tuple[float, float]:
    """||I(f1, f2)||_q / (||f1||_p1 ||f2||_p2) on the grid, with the
    propagated numerator error."""
    d1 = lp_norm(f1, cfg.p1).value
    d2 = lp_norm(f2, cfg.p2).value
    if not d1 * d2 > 0:
        raise BifracError(f"norm ratio undefined: the input norms are "
                          f"{d1} and {d2}")
    num = lq_norm_on_grid(cfg, f1, f2, grid, quad, workers=workers)
    return num.value / (d1 * d2), num.abs_error / (d1 * d2)


def dilation_slope(cfg: OperatorConfig, f1: TestFunction, f2: TestFunction,
                   a_list: Sequence[float],
                   grid: GridSpec = GridSpec(),
                   quad: QuadratureSpec = QuadratureSpec(),
                   workers: Optional[int] = None) -> ProbeReport:
    """Least-squares slope of log(norm ratio) against log(a) for the
    dilated pair (f1(./a), f2(./a)), with the exact prediction."""
    if len(a_list) < 2 or len(set(a_list)) < len(a_list):
        raise BifracError(f"a_list: need at least two distinct dilation "
                          f"factors, got {list(a_list)!r}")
    if cfg.q.is_infinite:
        raise BifracError("q: slope probe requires q < inf")
    pairs = [norm_ratio(cfg, dilate(f1, a), dilate(f2, a),
                        grid, quad, workers=workers) for a in a_list]
    ratios = [r for r, _ in pairs]
    if any(r <= 0 for r in ratios):
        raise BifracError("nonpositive norm ratio in slope probe")
    xs = np.log(np.asarray(a_list, dtype=float))
    ys = np.log(np.asarray(ratios))
    if len(a_list) > 2:
        (slope, _), cov = np.polyfit(xs, ys, 1, cov=True)
        stderr = float(math.sqrt(max(cov[0, 0], 0.0)))
    else:
        slope, _ = np.polyfit(xs, ys, 1)
        stderr = 0.0
    return ProbeReport(dilations=[float(a) for a in a_list],
                       ratios=[float(r) for r in ratios],
                       ratio_errors=[float(e) for _, e in pairs],
                       slope=float(slope),
                       slope_stderr=stderr,
                       predicted_slope=predicted_dilation_slope(cfg))


def blowup_probe(cfg: OperatorConfig, family,
                 grid: GridSpec = GridSpec(),
                 quad: QuadratureSpec = QuadratureSpec(),
                 workers: Optional[int] = None) -> List[float]:
    """Norm ratios along a family of (f1, f2) pairs (ordered by
    decreasing concentration parameter); monotone growth is the
    finite-probe signature of unboundedness."""
    return [norm_ratio(cfg, f1, f2, grid, quad, workers=workers)[0]
            for f1, f2 in family]
