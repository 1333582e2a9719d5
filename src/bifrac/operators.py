"""Numerical evaluation of the fractional integral operators.

Two quadrature schemes share one contract: integrate a locally
integrable singular integrand over a truncation box and return a value
with an error estimate.

* adaptive-dyadic: one builder, `_dyadic_cells`, makes every
  partition: uniform dyadic splits to a base depth, then only boxes
  whose own-width neighborhood holds a target point keep splitting.
  Targets are of two kinds.  In dimension <= 2 the partition is a
  tensor product of 1-d partitions whose targets are the singular
  coordinate and the input descriptors' breaks on that axis (bump
  edges, power-law origins), so a bump that is narrow in one
  coordinate but extended in the others is still resolved.  In higher
  dimension one d-dimensional partition has the singular point as its
  only target, and cells near it split into 2^d children.  Both
  depths come from `QuadratureSpec.depths(d)`: a depth the spec leaves
  unset takes the default for the integration dimension d, and the
  base depth is capped at the maximum.  Every leaf gets a centroid
  value plus one 2^d-subcell refinement pass; the reported value is
  the Richardson combination and the error estimate is the
  coarse/fine discrepancy.  A centroid that lands exactly on the
  singular point contributes 0 (measure zero).
* quasi-random: scrambled Sobol points pushed through a per-axis
  power map centered at the singular point, which concentrates samples
  near the singularity and whose Jacobian absorbs the kernel blow-up.

All evaluations are pure functions of (descriptors, spec); grid-point
results keep the order of the points, so concurrent execution is
bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.stats import qmc

from .classifier import OperatorConfig
from .functions import (NormEstimate, TestFunction, dilate, lp_norm,
                        translate)
from .matrices import RationalMatrix


class NonIntegrableError(ValueError):
    """Kernel exponent too large for local integrability."""


def _check_int(name: str, value, low: Optional[int] = None) -> None:
    """Raise ValueError unless value is an int (bools refused) >= low."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _check_real(name: str, value, positive: bool = False) -> None:
    """Raise ValueError unless value is a finite int or float (bools
    refused), and > 0 if positive."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (positive and value <= 0)):
        bound = " > 0" if positive else ""
        raise ValueError(f"{name} must be a finite number{bound}, "
                         f"got {value!r}")


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str = "adaptive"          # "adaptive" | "qmc"
    max_depth: Optional[int] = None   # None: default by dimension
    samples: int = 1 << 14
    truncation_radius: float = 8.0
    seed: int = 0
    base_depth: Optional[int] = None  # uniform pre-split; None: by dim

    def __post_init__(self):
        if self.scheme not in ("adaptive", "qmc"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if self.max_depth is not None:
            _check_int("max_depth", self.max_depth, 1)
        _check_int("samples", self.samples, 1)
        _check_int("seed", self.seed, 0)
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
            raise ValueError("points_per_axis must be odd")

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


def _leaf_sum(func: Callable[[np.ndarray], np.ndarray],
              lo: np.ndarray, hi: np.ndarray) -> Tuple[float, float]:
    """Centroid value plus one 2^d refinement pass over leaf cells;
    Richardson-combined value with the coarse/fine discrepancy as the
    error estimate.  Leaves are evaluated in chunks of at most
    _CHUNK_POINTS integrand points, so memory stays bounded in any
    dimension; the per-leaf values, and so their one sum, do not
    depend on the chunking."""
    d = lo.shape[1]
    corners = np.array(list(itertools.product((0.25, 0.75), repeat=d)))
    step = max(1, _CHUNK_POINTS // len(corners))
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
               quad: QuadratureSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Leaves of the adaptive partition of the truncation box.

    In dimension <= 2 it is the tensor product of 1-d partitions, each
    refined toward the singular coordinate and that axis's breaks; in
    higher dimension one partition refined toward the singular point.
    """
    d = singular.size
    half = quad.truncation_radius
    base, top = quad.depths(d)
    if d > 2:
        return _dyadic_cells(np.full(d, -half), np.full(d, half), singular,
                             base, top)
    axes = [_dyadic_cells([-half], [half], [s] + list(b), base, top)
            for s, b in zip(singular, breaks)]

    def product(corners):
        grids = np.meshgrid(*[c[:, 0] for c in corners], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    return product([lo for lo, _ in axes]), product([hi for _, hi in axes])


_WARP_POWER = 3.0  # exponent of the per-axis power map


def _qmc_integral(func: Callable[[np.ndarray], np.ndarray],
                  singular: np.ndarray,
                  half_width: float,
                  samples: int,
                  seed: int) -> Tuple[float, float]:
    """Quasi-random integral over [-R, R]^d with an importance warp.

    Each axis maps t in [0, 1) to the box through a signed power map
    centered at the singular point; the Jacobian weight tames the
    kernel singularity.  Deterministic for a fixed seed.
    """
    d = singular.size
    s = np.clip(singular, -half_width, half_width)
    m_bits = max(4, int(math.ceil(math.log2(samples))))
    sampler = qmc.Sobol(d=d, scramble=True, seed=seed)
    t = sampler.random_base2(m_bits)[:samples]

    u = 2.0 * t - 1.0                      # (-1, 1)
    au = np.abs(u)
    side = np.where(u >= 0,
                    (half_width - s)[None, :],
                    (s + half_width)[None, :])
    y = s[None, :] + np.sign(u) * au ** _WARP_POWER * side
    jac = np.prod(2.0 * _WARP_POWER * au ** (_WARP_POWER - 1.0) * side,
                  axis=1)

    vals = func(y) * jac
    value = float(vals.mean())
    half = float(vals[: samples // 2].mean()) if samples >= 2 else value
    return value, abs(value - half)


def _box_integral(func, singular: np.ndarray, breaks: List[List[float]],
                  quad: QuadratureSpec) -> NormEstimate:
    if quad.scheme == "qmc":
        value, err = _qmc_integral(func, singular, quad.truncation_radius,
                                   quad.samples, quad.seed)
    else:
        value, err = _leaf_sum(func, *_partition(singular, breaks, quad))
    return NormEstimate(value, err, "quadrature")


def _safe_power(base: np.ndarray, lam: float) -> np.ndarray:
    """base^(-lam) with base = 0 mapped to 0 (a measure-zero point)."""
    out = np.zeros_like(base)
    pos = base > 0
    out[pos] = base[pos] ** (-lam)
    return out


# ---------------------------------------------------------------------------
# operator evaluations


def eval_bilinear(cfg: OperatorConfig, f1: TestFunction, f2: TestFunction,
                  x, quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """I(f1, f2)(x): integral of f1(y1) f2(y2) against the kernel
    (|D1 x - y1| + |D2 x - y2|)^-lam over the truncation box."""
    n1, n2 = cfg.n1, cfg.n2
    lam = float(cfg.lam)
    if not 0 < cfg.lam < n1 + n2:
        raise NonIntegrableError(
            f"kernel order {cfg.lam} not locally integrable in R^{n1 + n2}")
    if f1.dim != n1 or f2.dim != n2:
        raise ValueError("witness dimensions do not match the config")
    x = np.asarray(x, dtype=float).reshape(cfg.m)
    s1 = cfg.D1.to_float() @ x
    s2 = cfg.D2.to_float() @ x

    def integrand(y):
        y1, y2 = y[:, :n1], y[:, n1:]
        base = (np.linalg.norm(s1 - y1, axis=1)
                + np.linalg.norm(s2 - y2, axis=1))
        return f1.values(y1) * f2.values(y2) * _safe_power(base, lam)

    return _box_integral(integrand, np.concatenate([s1, s2]),
                         f1.breaks() + f2.breaks(), quad)


def eval_linear(n: int, m: int, D: RationalMatrix, lam, f: TestFunction,
                x, quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """Generalized Riesz potential: integral of f(y) |Dx - y|^-lam."""
    lam_f = float(lam)
    if not 0 < lam_f < n:
        raise NonIntegrableError(f"order {lam} not locally integrable in R^{n}")
    if f.dim != n:
        raise ValueError("input dimension does not match n")
    x = np.asarray(x, dtype=float).reshape(m)
    s = D.to_float() @ x

    def integrand(y):
        return f.values(y) * _safe_power(np.linalg.norm(s - y, axis=1), lam_f)

    return _box_integral(integrand, s, f.breaks(), quad)


def eval_radial(n: int, m: int, lam, f: TestFunction, x,
                quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """Radial operator: integral of f(y) (|x| + |y|)^-lam."""
    lam_f = float(lam)
    if lam_f <= 0:
        raise NonIntegrableError("order must be positive")
    if f.dim != n:
        raise ValueError("input dimension does not match n")
    x = np.asarray(x, dtype=float).reshape(m)
    ax = float(np.linalg.norm(x))

    def integrand(y):
        return f.values(y) * _safe_power(ax + np.linalg.norm(y, axis=1), lam_f)

    return _box_integral(integrand, np.zeros(n), f.breaks(), quad)


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
    num = lq_norm_on_grid(cfg, f1, f2, grid, quad, workers=workers)
    d1 = lp_norm(f1, cfg.p1).value
    d2 = lp_norm(f2, cfg.p2).value
    return num.value / (d1 * d2), num.abs_error / (d1 * d2)


def dilation_slope(cfg: OperatorConfig, f1: TestFunction, f2: TestFunction,
                   a_list: Sequence[float],
                   grid: GridSpec = GridSpec(),
                   quad: QuadratureSpec = QuadratureSpec(),
                   workers: Optional[int] = None) -> ProbeReport:
    """Least-squares slope of log(norm ratio) against log(a) for the
    dilated pair (f1(./a), f2(./a)), with the exact prediction."""
    if len(a_list) < 2:
        raise ValueError("need at least two dilation factors")
    if cfg.q.is_infinite:
        raise ValueError("slope probe requires q < inf")
    pairs = [norm_ratio(cfg, dilate(f1, a), dilate(f2, a),
                        grid, quad, workers=workers) for a in a_list]
    ratios = [r for r, _ in pairs]
    if any(r <= 0 for r in ratios):
        raise ValueError("nonpositive norm ratio in slope probe")
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


def translation_covariance_defect(cfg: OperatorConfig,
                                  f1: TestFunction, f2: TestFunction,
                                  z,
                                  grid: GridSpec = GridSpec(),
                                  quad: QuadratureSpec = QuadratureSpec(),
                                  workers: Optional[int] = None) -> float:
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
    shifted, _ = _pointwise_values(cfg, translate(f1, z1), translate(f2, z2),
                                   xs, quad, workers=workers)
    base, _ = _pointwise_values(cfg, f1, f2, xs - z[None, :], quad,
                                workers=workers)
    return float(np.max(np.abs(shifted - base)))


def combined_grid_error(cfg: OperatorConfig, f1: TestFunction,
                        f2: TestFunction,
                        grid: GridSpec = GridSpec(),
                        quad: QuadratureSpec = QuadratureSpec(),
                        workers: Optional[int] = None) -> float:
    """Sum of per-point quadrature error estimates over the grid; the
    natural yardstick for translation-defect comparisons."""
    _, errs = _pointwise_values(cfg, f1, f2, grid.points(cfg.m), quad,
                                workers=workers)
    return float(np.sum(errs))


def blowup_probe(cfg: OperatorConfig, family,
                 grid: GridSpec = GridSpec(),
                 quad: QuadratureSpec = QuadratureSpec(),
                 workers: Optional[int] = None) -> List[float]:
    """Norm ratios along a family of (f1, f2) pairs (ordered by
    decreasing concentration parameter); monotone growth is the
    finite-probe signature of unboundedness."""
    return [norm_ratio(cfg, f1, f2, grid, quad, workers=workers)[0]
            for f1, f2 in family]
