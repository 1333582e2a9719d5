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
box and returns a value with an error estimate.  A factor that depends
on one block, an input or a block distance, is computed once per
distinct block coordinate, and only the product of the factors and the
kernel power run on every point.

One call evaluates a family of input tuples, each to its lone values: in
d <= 2 each distinct axis is built once per point and each partition and
kernel once per group of equal breaks, in d > 2 each tuple has its pass.

Every axis of every partition is a 1-d partition of the box's side
made by `_axis_levels`: uniform dyadic splits to a base depth, then only
intervals whose own-width neighborhood holds one of the axis's targets
keep splitting.  Two partition layouts are chosen by the integration
dimension d.  In d <= 2 an axis's targets are the singular coordinate
and the input descriptors' breaks on that axis (bump edges, power-law
origins), so a bump that is narrow in one coordinate but extended in
the others is still resolved; the partition is the tensor product of
the axes, never formed: each axis's leaves lie along their own array
axis of the integrand's (..., n_b) block arrays (`_leaf_sum`).  In
higher dimension one d-dimensional partition has the singular point as
its only target: the base lattice is uniform, and a cell splits into
2^d children when it lies within its own width of the singular point
on every axis.  So each level is a product of the axes' interval sets
less the product of their split subsets, and `_descend` walks it in
Morton order, the order in which lexicographic children make it.

The d > 2 layout evaluates all points of one call together
(`_shared_sums`).  Points whose singular points sit alike on the base
lattice, with the same exact (rational) offset from the first lattice
interval that splits and as many split intervals on every axis, form a
class: the refined cores below their split lattice cells are translates
of one another by whole lattice cells.  A class builds its core once,
with the tables of its distinct block coordinates (per level, the
products of the axis centroids and of the axis subcell corners) and the
kernel at them; each point evaluates its inputs on the tables shifted
by its own lattice offset and adds its own lattice cells.  Sharing needs
exact translates, which the lattice has when the truncation radius has
few significant bits (a power of two, say); otherwise each point is a
class of its own, as a single point always is.  Each point sums its
leaves in the order of its lone evaluation, level by level and Morton
order within a level, with each leaf's arithmetic unchanged, so its
value and error estimate are those of the point alone, bit for bit.

Both depths come from `QuadratureSpec.depths(d)`: a depth the spec
leaves unset takes the default for the integration dimension d, and the
base depth is capped at the maximum.  Every leaf gets a centroid value
plus one 2^d-subcell refinement pass, whose corners are the product of
each block's 2^n_b corners; the reported value is the Richardson
combination and the error estimate is the coarse/fine discrepancy.  A
centroid that lands exactly on the singular point contributes 0
(measure zero).

All evaluations are pure functions of (descriptors, spec); grid-point
results keep the order of the points, so concurrent execution is
bit-reproducible."""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
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


def _combine(coarse: np.ndarray, fine: np.ndarray) -> Tuple[float, float]:
    """The Richardson combination of the leaves' centroid (coarse) and
    refined (fine) values, with the coarse/fine discrepancy as the error
    estimate."""
    return (float(np.sum(fine + (fine - coarse) / 3.0)),
            float(np.sum(np.abs(fine - coarse))))


def _leaf_sum(kernel: Callable[..., np.ndarray], family,
              factors: Sequence[Tuple[np.ndarray, np.ndarray]],
              blocks: Sequence[int]) -> List[Tuple[float, float]]:
    """Per tuple of `family`, `_combine` of the centroid values and one
    2^d refinement pass over the leaves of a factored partition, d <= 2.

    `factors` are (lo, hi) leaf arrays, one per coordinate, whose
    product (factor 0 slowest) is the partition.
    Each block's 2^n_b subcell corners lie along a leading array axis
    and each factor's leaves along a trailing one, so `kernel` and the
    inputs, taking one (..., n_b) array per block of `blocks`, see each
    block coordinate once.  The corners keep the lexicographic order of
    one d-dimensional corner set and each leaf's mean adds them one by
    one, as numpy sums a contiguous row of fewer than 8, so per-leaf
    values do not depend on the factoring.
    Factor 0 is evaluated in chunks of at most _CHUNK_POINTS integrand
    points, which bounds memory and does not change the values."""
    nb = len(blocks)
    ndim = nb + len(factors)
    offsets = [np.array(list(itertools.product((0.25, 0.75), repeat=n)))
               for n in blocks]
    corners = 2 ** len(factors)
    row = corners * math.prod(len(lo) for lo, _ in factors[1:])
    step = max(1, _CHUNK_POINTS // row)
    whole = step >= len(factors[0][0])   # one chunk: members share kernels
    if not whole and len(family) > 1:   # in turn, each holding its leaves
        return [_leaf_sum(kernel, [inputs], factors, blocks)[0]
                for inputs in family]

    def along(v, axis):
        shape = [1] * ndim
        shape[axis] = -1
        return v.reshape(shape)

    def integrand(inputs, ys, kern):
        # a lone integrand's K (f1 f2): IEEE products commute
        out = math.prod(f.values(y) for f, y in zip(inputs, ys))
        return np.multiply(out, kern, out=out)

    sums = [[] for _ in family]
    lo0, hi0 = factors[0]
    for k in range(0, len(lo0), step):
        chunk = [(lo0[k:k + step], hi0[k:k + step])] + list(factors[1:])
        vol = math.prod(along(hi - lo, nb + f)
                        for f, (lo, hi) in enumerate(chunk)).ravel()
        centre, sub = [], []
        start = 0
        for b, n in enumerate(blocks):
            mids, points = [], []
            for i, f in enumerate(range(start, start + n)):
                lo, hi = chunk[f]
                mids.append(along((lo + hi) / 2.0, nb + f))
                points.append(along(lo, nb + f) + along(offsets[b][:, i], b)
                              * along(hi - lo, nb + f))
            centre.append(np.stack(np.broadcast_arrays(*mids), axis=-1))
            sub.append(np.stack(np.broadcast_arrays(*points), axis=-1))
            start += n
        kern = kernel(*centre)
        coarse = [integrand(inputs, centre, kern).reshape(-1) * vol
                  for inputs in family]
        kern = kernel(*sub)
        for inputs, c, parts in zip(family, coarse, sums):
            # numpy adds fewer than 8 terms (d <= 2 here) one by one along
            # any axis: the corner axis gives the row mean of one corner set
            fine = (integrand(inputs, sub, kern).reshape(corners, -1)
                    .mean(axis=0) * vol)
            parts.append(_combine(c, fine) if whole else (c, fine))
    return [parts[0] if whole else _combine(*map(np.concatenate, zip(*parts)))
            for parts in sums]


def _kernel(dists, lam: float, offset: float) -> np.ndarray:
    """(offset + sum of the block distances)^-lam, 0 where the base is 0
    (the singular point, of measure zero)."""
    base = sum(dists, offset)
    zero = base <= 0
    with np.errstate(divide="ignore"):
        base **= -lam
    base[zero] = 0.0
    return base


def _bits(n: int) -> np.ndarray:
    """The 2^n corners of the unit n-cube, (2^n, n), lexicographic."""
    return np.array(list(itertools.product((0, 1), repeat=n)))


def _morton(d: int, depth: int) -> np.ndarray:
    """Integer coordinates of the 2^(d depth) cells of a uniform dyadic
    lattice in the order that splitting every cell into its 2^d
    children, in lexicographic order, makes them (Morton order)."""
    cells = np.zeros((1, d), dtype=np.intp)
    for _ in range(depth):
        cells = (2 * cells[:, None, :] + _bits(d)).reshape(-1, d)
    return cells


def _near(c, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether c lies in the own-width neighbourhood of each interval
    [lo, hi], the rule by which `_axis_levels` splits an interval."""
    width = hi - lo
    return (c >= lo - width) & (c <= hi + width)


def _axis_levels(half: float, targets: Sequence[float], base: int,
                 top: int) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One axis of a partition of [-half, half], refined toward the
    points `targets`: for each level 0..top, the intervals there and
    which of them split.  Below `base` every interval splits, from `base`
    on those whose own-width neighbourhood holds a target, and at `top`
    none.  Each level holds the halves of the previous level's split
    intervals, the lower half first."""
    lo, hi = np.array([-half]), np.array([half])
    targets = np.asarray(targets, dtype=float)[:, None]
    out = []
    for level in range(top + 1):
        split = (np.zeros(len(lo), dtype=bool) if level == top
                 else np.ones(len(lo), dtype=bool) if level < base
                 else _near(targets, lo, hi).any(axis=0))
        out.append((lo, hi, split))
        slo, shi = lo[split], hi[split]
        mid = 0.5 * (slo + shi)
        lo, hi = np.repeat(slo, 2), np.repeat(shi, 2)
        lo[1::2] = hi[::2] = mid
    return out


def _descend(axes, cells: np.ndarray):
    """Leaves of the partition below `cells`, (k, d) interval indices at
    the first level of `axes` in Morton order.  A cell splits when its
    interval splits on every axis, into 2^d children in lexicographic
    order, so each level's cells stay in Morton order.  Returns, per
    level, the leaves' interval indices and the row of `cells` each one
    lies in."""
    d = cells.shape[1]
    bits = _bits(d)
    roots = np.arange(len(cells))
    out = []
    for level in range(len(axes[0])):
        flags = [axis[level][2] for axis in axes]
        split = np.logical_and.reduce([f[cells[:, i]]
                                       for i, f in enumerate(flags)])
        out.append((cells[~split], roots[~split]))
        rank = np.stack([np.cumsum(f)[cells[split, i]] - 1
                         for i, f in enumerate(flags)], axis=-1)
        cells = (2 * rank[:, None, :] + bits).reshape(-1, d)
        roots = np.repeat(roots[split], len(bits))
    return out


def _grid(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The product of 1-d arrays, the last axis fastest, coordinate by
    coordinate: (len(axes), k)."""
    out = np.empty([len(axes)] + [len(a) for a in axes])
    for i, a in enumerate(axes):
        out[i] = a.reshape([-1 if j == i else 1 for j in range(len(axes))])
    return out.reshape(len(axes), -1)


def _tables(axes, blocks: Sequence[int], levels: Sequence[int]):
    """Block coordinates of the cells of `levels`: per block one (k, n_b)
    array holding, level by level, the centroids and then the subcell
    corners of the product of that level's axis intervals; and per block
    and level the offsets and shape that index them.  Each array is the
    transpose of a contiguous (n_b, k) one, so sums over a point's
    coordinates run along long rows; numpy adds fewer than 8 terms one
    by one along any axis, so they give the bits of a contiguous
    array."""
    quarter = np.array([0.25, 0.75])
    coords = [[] for _ in blocks]
    index = [[] for _ in blocks]
    for level in levels:
        start = 0
        for b, n in enumerate(blocks):
            ax = [axis[level] for axis in axes[start:start + n]]
            mids = [(lo + hi) / 2.0 for lo, hi, _ in ax]
            corners = [(lo[:, None] + quarter * (hi - lo)[:, None]).ravel()
                       for lo, hi, _ in ax]
            size = sum(c.shape[1] for c in coords[b])
            index[b].append((size, size + math.prod(len(m) for m in mids),
                             tuple(len(m) for m in mids)))
            coords[b] += [_grid(mids), _grid(corners)]
            start += n
    return [np.concatenate(c, axis=1).T for c in coords], index


def _geometry(axes, level: int, cells: np.ndarray, index,
              blocks: Sequence[int]):
    """Per block, the table rows of the centroid (k,) and of the 2^n_b
    subcell corners (k, 2^n_b) of each cell of `cells` at `level`, and
    the cells' volumes."""
    cent, corn = [], []
    start = 0
    for b, n in enumerate(blocks):
        first, second, shape = index[b]
        k = cells[:, start:start + n]
        # row-major strides of the centroid and the corner tables
        strides = np.cumprod((1,) + shape[:0:-1])[::-1]
        twice = strides * 2 ** np.arange(n - 1, -1, -1)
        cent.append(first + k @ strides)
        corn.append((second + (2 * k) @ twice)[:, None] + _bits(n) @ twice)
        start += n
    widths = np.stack([(hi - lo)[cells[:, i]] for i, (lo, hi, _)
                       in enumerate(axis[level] for axis in axes)], axis=1)
    return cent, corn, np.prod(widths, axis=1)


def _spread(parts: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Each (k, c_b) array of `parts` with its c_b along its own axis of
    a (k, c_0, c_1, ...) broadcast."""
    return [p.reshape((len(p),) + tuple(p.shape[1] if a == b else 1
                                        for a in range(len(parts))))
            for b, p in enumerate(parts)]


def _kernels(geometry, dists, lam: float, offset: float):
    """The kernel at the centroids (k,) and at the subcell corners
    (k, 2^d) of the cells of `geometry`, from per-block table distances."""
    cent, corn, vol = geometry
    coarse = _kernel([r[i] for r, i in zip(dists, cent)], lam, offset)
    fine = _kernel(_spread([r[i] for r, i in zip(dists, corn)]), lam, offset)
    return coarse, fine.reshape(len(vol), -1)


def _leaf_values(geometry, kernels, inputs):
    """Centroid and refined (subcell-corner mean) values, times volume,
    of the cells of `geometry`, from per-block table input values."""
    cent, corn, vol = geometry
    kc, kf = kernels
    coarse = kc * math.prod(f[i] for f, i in zip(inputs, cent)) * vol
    corners = math.prod(_spread([f[i] for f, i in zip(inputs, corn)]))
    fine = (kf * corners.reshape(len(vol), -1)).mean(axis=1) * vol
    return coarse, fine


def _exact_lattice(half: float, top: int) -> bool:
    """Whether every partition coordinate down to a quarter of the finest
    width, and one width past the box, is a float exactly; then a
    lattice translate of a partition is exact too."""
    num = Fraction(half).numerator
    odd = num // (num & -num)
    return (odd.bit_length() + top + 4 <= 53
            and math.ldexp(half, -top - 3) >= sys.float_info.min
            and math.isfinite(4.0 * half))


def _shared_sums(inputs, centres: np.ndarray, blocks: Sequence[int],
                 lam: float, offset: float, quad: QuadratureSpec, run):
    """Values and error estimates at each row of `centres` (P, d), d > 2,
    with the points grouped into classes that share one refined core
    (see the module docstring)."""
    points, d = centres.shape
    half = quad.truncation_radius
    base, top = quad.depths(d)
    lo, hi, _ = _axis_levels(half, (), base, base)[base]
    # which lattice intervals split, per point and axis, and the first
    split = (_near(centres[..., None], lo, hi) if top > base
             else np.zeros(centres.shape + lo.shape, dtype=bool))
    first = np.argmax(split, axis=2)
    lattice = _morton(d, base)
    morton = np.empty(len(lattice), dtype=np.intp)
    morton[np.ravel_multi_index(tuple(lattice.T), (len(lo),) * d)] = \
        np.arange(len(lattice))
    lattice_axes = [[(lo, hi, None)]] * d
    lattice_coords, lattice_index = _tables(lattice_axes, blocks, [0])
    lattice_inputs = [f.values(t) for f, t in zip(inputs, lattice_coords)]
    step = max(1, _CHUNK_POINTS // 2 ** d)

    def blockwise(row):
        return np.split(row, np.cumsum(blocks)[:-1])

    def distances(coords, c):
        return [np.linalg.norm(x - t, axis=-1)
                for x, t in zip(blockwise(c), coords)]

    def splits(p):
        return np.logical_and.reduce([split[p, i][lattice[:, i]]
                                      for i in range(d)])

    def leaves(axes, level, cells, index, dists, tabled, each=map):
        """Per point of `tabled`, the centroid and refined values of
        `cells` at `level`, chunk by chunk, with the kernel from `dists`
        shared and the point's own inputs; `index` locates each block's
        level in the tables, and `each` maps over the points."""
        out = {p: [] for p in tabled}
        for k in range(0, len(cells), step):
            geom = _geometry(axes, level, cells[k:k + step], index, blocks)
            kern = _kernels(geom, dists, lam, offset)

            def fill(p):
                out[p].append(_leaf_values(geom, kern, tabled[p]))
            list(each(fill, tabled))
        return out

    exact = _exact_lattice(half, top)
    classes = {}
    for p in range(points):
        key = tuple((Fraction(c) - Fraction(lo[j]), int(n)) if n else None
                    for c, j, n in zip(centres[p], first[p],
                                       split[p].sum(axis=1)))
        classes.setdefault(key if exact else p, []).append(p)

    values, errs = np.empty(points), np.empty(points)
    for members in classes.values():
        rep = members[0]
        # the core: the cells below the split lattice cells (its roots),
        # level by level and root by root in the representative's order
        axes = [_axis_levels(half, [c], base, top)[base:]
                for c in centres[rep]]
        roots = lattice[splits(rep)]
        tree = _descend(axes, roots)[1:]
        coords, index = _tables(axes, blocks, range(1, len(axes[0])))
        dists = distances(coords, centres[rep])
        tabled = {p: [f.values(t + s) for f, t, s in zip(
            inputs, coords, blockwise(lo[first[p]] - lo[first[rep]]))]
            for p in members}
        core = {p: [] for p in members}
        for level, (cells, _) in enumerate(tree, start=1):
            for p, parts in leaves(axes, level, cells,
                                   [ix[level - 1] for ix in index], dists,
                                   tabled, run).items():
                core[p] += parts
        counts = np.array([np.bincount(r, minlength=len(roots))
                           for _, r in tree]).reshape(len(tree), len(roots))
        starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)

        def finish(p):
            parts = leaves(lattice_axes, 0, lattice[~splits(p)],
                           [ix[0] for ix in lattice_index],
                           distances(lattice_coords, centres[p]),
                           {p: lattice_inputs})[p]
            own = [np.concatenate([part[i] for part in core[p]]
                                  + [np.empty(0)]) for i in (0, 1)]
            if p != rep:
                # the point takes the core's roots in its own Morton order
                rank = np.argsort(morton[np.ravel_multi_index(
                    tuple((roots - first[rep] + first[p]).T),
                    (len(lo),) * d)], kind="stable")
                n = counts[:, rank].ravel()
                order = np.repeat(starts[:, rank].ravel() - np.cumsum(n) + n,
                                  n) + np.arange(n.sum())
                own = [a[order] for a in own]
            return _combine(np.concatenate([c for c, _ in parts] + own[:1]),
                            np.concatenate([f for _, f in parts] + own[1:]))
        for p, (v, e) in zip(members, run(finish, members)):
            values[p], errs[p] = v, e
    return values, errs


def _partition(singular: np.ndarray, breaks: Sequence[Sequence[float]],
               quad: QuadratureSpec,
               axes: dict) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Factors of the adaptive partition of the truncation box in
    dimension <= 2: per axis the (lo, hi) leaves of one 1-d partition,
    level by level, refined toward the singular coordinate and that
    axis's breaks and cached in `axes` by them; their product is the
    partition `_leaf_sum` evaluates."""
    base, top = quad.depths(singular.size)
    for s, b in zip(singular, breaks):
        key = (s, *b)
        if key not in axes:
            kept = [(lo[~split], hi[~split]) for lo, hi, split
                    in _axis_levels(quad.truncation_radius, key, base, top)]
            axes[key] = tuple(map(np.concatenate, zip(*kept)))
    return [axes[(s, *b)] for s, b in zip(singular, breaks)]


def _evaluate(family: Sequence[Sequence[TestFunction]],
              centres: Sequence[np.ndarray], lam, quad: QuadratureSpec,
              offset: float = 0.0, workers: Optional[int] = None) -> list:
    """Integral of prod_b f_b(y_b) (offset + sum_b |c_b - y_b|)^-lam over
    the truncation box, for each tuple of `family` (one input f_b per
    coordinate block) and one (P, n_b) array of centres c_b per block, a
    row per point; returns per tuple its values and error estimates, in
    point order.  Refuses an input whose dim is not its block's size, and
    a kernel order outside (0, sum_b n_b), or outside (0, inf) when
    offset > 0; the kernel is 0 at the singular point.  `workers` > 1
    spreads the points over that many threads, with the same results."""
    blocks = [c.shape[1] for c in centres]
    for f, n in ((f, n) for inputs in family for f, n in zip(inputs, blocks)):
        if f.dim != n:
            raise BifracError(f"input of dim {f.dim} on a block of dim {n}")
    top = sum(blocks) if offset == 0 else math.inf
    if not 0 < lam < top:
        raise NonIntegrableError(f"kernel order {lam} is outside (0, {top}),"
                                 f" not locally integrable in R^{sum(blocks)}")
    lam = float(lam)
    with (ThreadPoolExecutor(max_workers=workers) if workers and workers > 1
          else contextlib.nullcontext()) as pool:
        run = pool.map if pool else map
        if sum(blocks) > 2:
            return [_shared_sums(inputs, np.concatenate(centres, axis=1),
                                 blocks, lam, offset, quad, run)
                    for inputs in family]
        groups = {}   # tuples with the same breaks share each partition
        for i, inputs in enumerate(family):
            breaks = tuple(tuple(axis) for f in inputs for axis in f.breaks())
            groups.setdefault(breaks, []).append(i)

        def point(row):
            def kernel(*ys):
                return _kernel([np.linalg.norm(c - y, axis=-1)
                                for c, y in zip(row, ys)], lam, offset)
            sums, axes = {}, {}
            for breaks, members in groups.items():
                sums.update(zip(members, _leaf_sum(
                    kernel, [family[i] for i in members],
                    _partition(np.concatenate(row), breaks, quad, axes),
                    blocks)))
            return [sums[i] for i in range(len(family))]
        sums = np.array(list(run(point, zip(*centres))), dtype=float)
    return list(sums.reshape(len(centres[0]), len(family), 2)
                .transpose(1, 2, 0).copy())


def _estimate(values) -> NormEstimate:
    """The one point's estimate of a one-tuple `_evaluate` result."""
    (value, error), = values
    return NormEstimate(float(value[0]), float(error[0]), "quadrature")


# ---------------------------------------------------------------------------
# operator evaluations


def eval_bilinear(cfg: OperatorConfig, f1: TestFunction, f2: TestFunction,
                  x, quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """I(f1, f2)(x): integral of f1(y1) f2(y2) against the kernel
    (|D1 x - y1| + |D2 x - y2|)^-lam over the truncation box."""
    x = np.asarray(x, dtype=float).reshape(cfg.m)
    centres = (cfg.D1.to_float() @ x, cfg.D2.to_float() @ x)
    return _estimate(_evaluate([(f1, f2)], [c[None] for c in centres],
                               cfg.lam, quad))


def eval_linear(n: int, m: int, D: RationalMatrix, lam, f: TestFunction,
                x, quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """Generalized Riesz potential: integral of f(y) |Dx - y|^-lam, for
    an n x m matrix D."""
    check_shape("D", D, n, m)
    x = np.asarray(x, dtype=float).reshape(m)
    return _estimate(_evaluate([[f]], ((D.to_float() @ x)[None],), lam, quad))


def eval_radial(n: int, m: int, lam, f: TestFunction, x,
                quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """Radial operator: integral of f(y) (|x| + |y|)^-lam."""
    x = np.asarray(x, dtype=float).reshape(m)
    return _estimate(_evaluate([[f]], (np.zeros((1, n)),), lam, quad,
                               offset=float(np.linalg.norm(x))))


# ---------------------------------------------------------------------------
# grid norms and probes


def _pointwise_values(cfg, family, xs, quad, workers=None):
    """Per pair of `family`, the values and error estimates at each point."""
    matrices = (cfg.D1.to_float(), cfg.D2.to_float())
    centres = [np.array([D @ x for x in xs]) for D in matrices]
    return _evaluate(family, centres, cfg.lam, quad, workers=workers)


def lq_norm_on_grid(cfg: OperatorConfig, f1: TestFunction, f2: TestFunction,
                    grid: GridSpec = GridSpec(),
                    quad: QuadratureSpec = QuadratureSpec(),
                    workers: Optional[int] = None) -> NormEstimate:
    """Discrete L^q (quasi-)norm of I(f1, f2) over a uniform grid.

    q < 1 uses the same power-sum formula; q = inf takes the grid max.
    """
    return next(_grid_norms(cfg, [(f1, f2)], grid, quad, workers))


def _grid_norms(cfg, family, grid, quad, workers):
    """`lq_norm_on_grid` of each pair of `family`, from one grid pass."""
    for vals, errs in _pointwise_values(cfg, family, grid.points(cfg.m),
                                        quad, workers=workers):
        if cfg.q.is_infinite:
            k = int(np.argmax(np.abs(vals)))
            yield NormEstimate(float(np.abs(vals[k])), float(errs[k]),
                               "quadrature")
            continue
        qv, meas = float(cfg.q), grid.cell_measure(cfg.m)
        value = float(np.sum(np.abs(vals) ** qv) * meas) ** (1.0 / qv)
        upper = float(np.sum((np.abs(vals) + errs) ** qv) * meas) ** (1.0 / qv)
        yield NormEstimate(value, upper - value, "quadrature")


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
    return _norm_ratios(cfg, [(f1, f2)], grid, quad, workers)[0]


def _norm_ratios(cfg, family, grid, quad, workers):
    """`norm_ratio` of each pair of `family`, from one grid pass."""
    norms = [(lp_norm(f1, cfg.p1).value, lp_norm(f2, cfg.p2).value)
             for f1, f2 in family]
    for d1, d2 in norms:
        if not d1 * d2 > 0:
            raise BifracError(f"norm ratio undefined: the input norms are "
                              f"{d1} and {d2}")
    return [(num.value / (d1 * d2), num.abs_error / (d1 * d2))
            for num, (d1, d2) in zip(_grid_norms(cfg, family, grid, quad,
                                                 workers), norms)]


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
    for a in a_list:   # the dilated inputs take y / a, y in the box
        if a > 0 and math.isinf(quad.truncation_radius / a):
            raise BifracError(f"a_list: dilation factor {a!r} is too small")
    pairs = _norm_ratios(cfg, [(dilate(f1, a), dilate(f2, a))
                               for a in a_list], grid, quad, workers)
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
    return [r for r, _ in _norm_ratios(cfg, list(family), grid, quad,
                                       workers)]
