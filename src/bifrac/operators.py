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
d <= 2 the distinct axes of a chunk of points are refined in one batch
and each partition and kernel is built once per point and group of equal
breaks, in d > 2 each tuple has its pass.

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
on every axis.  So each level's cells are the product of the axes'
interval sets there, less the product of their split subsets.

In d <= 2 the points of a call go in chunks of at most _BATCH_AXES
axes, and one chunk per worker at least.  One `_axis_levels` batch
refines every distinct axis of a chunk (`_refine`), each interval with
the arithmetic of its axis refined alone, so no bit moves.

The d > 2 layout (`_level_sums`) evaluates each level from the base
depth up as that product, broadcast as in d <= 2, in sub-boxes of at
most _CHUNK_POINTS integrand points: inputs and block distances once
per distinct block coordinate, the cells along the trailing d array
axes and their 2^d subcell corners along the leading d, so a cell's
corner mean is a sum of 2^d contiguous slabs, added in numpy's pairwise
order for a contiguous row (`_row_sum`) as the pointwise reference's
mean adds them.  A point then gathers its leaves level by level,
in the order in which splitting cells into their 2^d lexicographic
children makes them (Morton order), each level's order derived from
its parent level's; so its value and error estimate are those of the
pointwise evaluation, bit for bit.  The kernel and the volumes of a
level depend only on, per axis, the singular coordinate minus the
centroids and the quarter points, the widths and the split flags; the
points whose levels above the base agree in all of these, bit for bit,
form a class and share those levels' kernels and volumes (translates
by whole lattice cells, when the truncation radius has few significant
bits), while each evaluates its own inputs and its base level.  A
class's levels, and then its points, go to the workers.  As in
d <= 2, an input that is 0 at every point the levels sample is refused
(`_check_sampled`).

In d <= 2 with 1-d blocks only the product of the axes' live ranges
(`_live`: the leaves from the first to the last where an input is
nonzero at a leaf point) is evaluated.  Any other leaf has a factor on
which every input is 0, so its terms in the sums would be +0.0: it keeps
the zero its full-length buffers are filled with, and no bit moves.

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
bit-reproducible.  In d <= 2 each `_evaluate` call gives each of its
threads one grow-only workspace, which every grid point's leaf-sized
arrays reuse and which is dropped when the call returns; the arithmetic
is that of fresh arrays, bit for bit."""

from __future__ import annotations

import contextlib
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
_BATCH_AXES = 256  # d <= 2 axes refined in one batch, at most


class _Workspace:
    """Grow-only flat buffers, one per name, each handed out as a view of
    the shape asked for; a buffer is replaced only by a larger one."""

    def __init__(self):
        self._buffers = {}

    def __call__(self, name: str, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _product(terms: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """math.prod(terms) written into `out`, to whose shape the terms
    broadcast: the same left-to-right products, bit for bit."""
    np.multiply(terms[0], terms[1] if len(terms) > 1 else 1.0, out=out)
    for t in terms[2:]:
        np.multiply(out, t, out=out)
    return out


def _combine(coarse: np.ndarray, fine: np.ndarray,
             ws: Optional[_Workspace] = None) -> Tuple[float, float]:
    """The Richardson combination of the leaves' centroid (coarse) and
    refined (fine) values, with the coarse/fine discrepancy as the error
    estimate; its temporaries are taken from `ws`."""
    ws = _Workspace() if ws is None else ws
    diff = np.subtract(fine, coarse, out=ws("diff", fine.shape))
    rich = np.divide(diff, 3.0, out=ws("rich", fine.shape))
    return (float(np.sum(np.add(fine, rich, out=rich))),
            float(np.sum(np.abs(diff, out=diff))))


def _check_sampled(f: TestFunction, sampled: bool, half: float) -> None:
    """Refuses `f` when it is 0 at every leaf point (not `sampled`) but
    breaks strictly inside (-half, half) on each of its axes: the
    partition never samples it."""
    if sampled:
        return
    inside = [[b for b in axis if -half < b < half] for axis in f.breaks()]
    if all(inside):
        raise BifracError(f"quad: the partition is too coarse to sample an "
                          f"input that breaks at {inside[0][0]!r}")


def _live(inputs: Sequence[TestFunction], lo: np.ndarray, hi: np.ndarray):
    """The live range of the leaves [lo, hi] of a 1-d block's axis, and
    each of `inputs` at the leaves' centroids and quarter points, (3, n)
    on that range, after `_check_sampled`."""
    points = np.stack([(lo + hi) / 2.0, lo + 0.25 * (hi - lo),
                       lo + 0.75 * (hi - lo)])[..., None]
    values = [f.values(points) for f in inputs]
    seen = (np.array(values) != 0).any(axis=1)
    for f, sampled in zip(inputs, seen.any(axis=1)):
        _check_sampled(f, sampled, hi.max())
    hit = seen.any(axis=0)
    first, stop = int(hit.argmax()), len(hit) - int(hit[::-1].argmax())
    live = slice(first, stop if hit[first] else first)
    return live, [v[:, live] for v in values]


def _leaf_sum(kernel: Callable[..., np.ndarray], family,
              factors: Sequence[Tuple[np.ndarray, np.ndarray]],
              blocks: Sequence[int],
              ws: _Workspace) -> List[Tuple[float, float]]:
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
    On 1-d blocks only the product of the `_live` ranges is evaluated;
    on others each input is checked by `_check_sampled` at the end.
    Factor 0 is evaluated in chunks of at most _CHUNK_POINTS integrand
    points, which bounds memory and does not change the values.  Every
    leaf-sized array is a view into `ws`, which `kernel(ys, ws)` writes
    its values into too."""
    nb = len(blocks)
    ndim = nb + len(factors)
    window, tables = (slice(None),) * len(factors), ()
    if max(blocks) == 1:
        window, tables = zip(*(_live([inputs[b] for inputs in family], *f)
                               for b, f in enumerate(factors)))
        if any(w.start == w.stop for w in window):
            return [(0.0, 0.0)] * len(family)
    live = [(lo[w], hi[w]) for (lo, hi), w in zip(factors, window)]
    full, shape = ([len(lo) for lo, _ in f] for f in (factors, live))
    offsets = [np.array(list(itertools.product((0.25, 0.75), repeat=n)))
               for n in blocks]
    corners = 2 ** len(factors)
    step = max(1, _CHUNK_POINTS // (corners * math.prod(shape[1:])))
    if step < shape[0] and len(family) > 1:   # several chunks: the tuples
        return [_leaf_sum(kernel, [inputs], factors, blocks, ws)[0]
                for inputs in family]   # in turn, else sharing kernels
    coarse, fine = ws("coarse", (len(family), *full)), ws("fine", full)
    if shape != full:   # the leaves outside the live ranges are +0.0
        coarse[...] = fine[...] = 0.0

    def along(v, axis, rows=1, at=0):
        return v.reshape([-1 if a == axis else rows if a == at else 1
                          for a in range(ndim)])

    sampled = np.zeros((len(family), nb), dtype=bool)

    def inputs_at(i, ys, part, corner):
        # tuple i's inputs at `ys`; on 1-d blocks, its `_live` values
        if not tables:
            values = [f.values(y) for f, y in zip(family[i], ys)]
            sampled[i] |= [v.any() for v in values]
            return values
        rows = slice(1, 3) if corner else slice(0, 1)
        return [along(t[i][rows, part if b == 0 else slice(None)], nb + b,
                      1 + corner, b) for b, t in enumerate(tables)]

    sums = []
    lo0, hi0 = live[0]
    for k in range(0, shape[0], step):
        part = slice(k, k + step)
        chunk = [(lo0[part], hi0[part])] + list(live[1:])
        widths = [along(hi - lo, nb + f) for f, (lo, hi) in enumerate(chunk)]
        vol = _product(widths, ws("vol", np.broadcast_shapes(
            *(w.shape for w in widths))))
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
        kern = kernel(centre, ws)
        for i, c in enumerate(coarse):
            # a lone integrand's K (f1 f2): IEEE products commute
            _product(inputs_at(i, centre, part, False) + [kern, vol],
                     c[window][part][(None,) * nb])
        kern, out = kernel(sub, ws), fine[window][part]
        vol = vol.reshape(out.shape)
        for i, c in enumerate(coarse):
            # numpy adds fewer than 8 terms (d <= 2 here) one by one along
            # any axis: the corner axis gives the row mean of one corner
            # set, summed and then divided as np.mean does
            values = _product(inputs_at(i, sub, part, True) + [kern],
                              ws("sub", kern.shape))
            np.add.reduce(values.reshape(corners, *vol.shape), axis=0, out=out)
            np.divide(out, corners, out=out)
            np.multiply(out, vol, out=out)
            if k + step >= shape[0]:   # the last chunk
                sums.append(_combine(c.reshape(-1), fine.reshape(-1), ws))
    if not tables:   # else `_live` has checked them
        for f, seen in zip(itertools.chain(*family), sampled.flat):
            _check_sampled(f, seen, factors[0][1].max())
    return sums


def _row_sum(slabs: np.ndarray) -> np.ndarray:
    """The sum over the leading axis of `slabs`, each element's terms added
    as numpy adds a contiguous row (its identity 0.0 plus `pairwise_sum`
    of its loops_utils), so bit for bit that row's np.sum; it sums in
    place and returns slabs[0]."""
    def pairwise(a):
        n = len(a)
        if n > 128:   # two halves, cut at a multiple of 8
            half = n // 2 - n // 2 % 8
            return np.add(pairwise(a[:half]), pairwise(a[half:]), out=a[0])
        rest = n % 8 if n >= 8 else n - 1
        if n >= 8:   # eight accumulators, added as a tree
            r = a[:8]
            for i in range(8, n - rest, 8):
                r += a[i:i + 8]
            np.add(r[0::2], r[1::2], out=r[0::2])
            np.add(r[0::4], r[2::4], out=r[0::4])
            r[0] += r[4]
        for x in a[n - rest:]:   # the rest one by one
            a[0] += x
        return a[0]
    total = pairwise(slabs)
    total += 0.0
    return total


def _kernel(dists, lam: float, offset: float,
            ws: Optional[_Workspace] = None) -> np.ndarray:
    """(offset + sum of the block distances)^-lam, 0 where the base is 0
    (the singular point, of measure zero), written into `ws`."""
    ws = _Workspace() if ws is None else ws
    shape = np.broadcast_shapes(*(d.shape for d in dists))
    *rest, last = dists
    base = np.add(sum(rest, offset), last, out=ws("kernel", shape))
    zero = np.less_equal(base, 0, out=ws("zero", shape, bool))
    with np.errstate(divide="ignore"):
        base **= -lam
    base[zero] = 0.0
    return base


def _near(c, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether c lies in the own-width neighbourhood of each interval
    [lo, hi], the rule by which `_axis_levels` splits an interval."""
    width = hi - lo
    return (c >= lo - width) & (c <= hi + width)


def _axis_levels(half: float, targets, base: int,
                 top: int) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Axes of partitions of [-half, half], one per row of `targets` (a
    1-d `targets` is one row), each refined toward its row's points: for
    each level 0..top, the intervals there and which of them split.
    Below `base` every interval splits, from `base` on those whose
    own-width neighbourhood holds a target of their row (a NaN pads a
    row and is near nothing), and at `top` none.  Each level holds the
    halves of the previous level's split intervals, the lower half
    first; so row by row, each row's intervals a run in row order and
    just those of the row refined alone, bit for bit."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    lo, hi = np.full(len(targets), -half), np.full(len(targets), half)
    row = np.arange(len(targets))
    out = []
    for level in range(top + 1):
        split = (np.zeros(len(lo), dtype=bool) if level == top
                 else np.ones(len(lo), dtype=bool) if level < base
                 else _near(targets[row].T, lo, hi).any(axis=0))
        out.append((lo, hi, split))
        slo, shi = lo[split], hi[split]
        mid = 0.5 * (slo + shi)
        lo, hi = np.repeat(slo, 2), np.repeat(shi, 2)
        lo[1::2] = hi[::2] = mid
        row = np.repeat(row[split], 2)
    return out


def _level_sums(inputs, centres: np.ndarray, blocks: Sequence[int],
                lam: float, offset: float, quad: QuadratureSpec, run):
    """Values and error estimates at each row of `centres` (P, d), d > 2,
    level by level; the points whose levels above the base have equal
    kernel inputs share those levels' kernels and volumes (see the
    module docstring)."""
    points, d = centres.shape
    half = quad.truncation_radius
    base, top = quad.depths(d)
    bits = np.array(list(itertools.product((0, 1), repeat=d)))
    axes, keys = {}, {}
    for c in map(float, np.unique(centres)):
        # per level: split flags, widths, the centroids and the quarter
        # points, and c minus those two, the kernel's inputs on this axis
        axes[c] = []
        for lo, hi, split in _axis_levels(half, [c], base, top):
            ys = ((lo + hi) / 2.0, lo + [[0.25], [0.75]] * (hi - lo))
            axes[c].append((split, hi - lo, ys, tuple(c - y for y in ys)))
        keys[c] = tuple(a.tobytes() for split, width, _, diffs
                        in axes[c][base + 1:] for a in (split, width, *diffs))
    classes = {}
    for p, row in enumerate(centres):
        classes.setdefault(tuple(keys[c] for c in row), []).append(p)
    # per point and level: threads on different levels write apart
    seen = np.zeros((points, top + 1, len(blocks)), dtype=bool)

    def blockwise(row, at, field, box, corner):
        # per block, the `field` (2: points, 3: kernel inputs) of its axes
        # at level `at` on `box`, at the centroids or at the corners, as
        # one (..., n_b) array: the cells of axis i along array axis
        # lead + i and, at the corners, its two quarter points along
        # leading array axis i, so the 2^d corners lie in the
        # lexicographic order of `bits` ahead of the cells
        lead = d if corner else 0
        parts = [axes[c][at][field][corner][..., b] for c, b in zip(row, box)]
        parts = [a.reshape([-1 if j == lead + i else 2 if j == i else 1
                            for j in range(lead + d)])
                 for i, a in enumerate(parts)]
        out = []
        for s, n in zip(itertools.accumulate(blocks), blocks):
            mine = parts[s - n:s]
            x = np.empty([*map(max, zip(*(a.shape for a in mine))), n])
            for j, a in enumerate(mine):
                x[..., j] = a
            out.append(x)
        return out

    def level(at, kern, members, out):
        """Into out[p][at], the centroid and the refined values, times
        volume, of every cell of level `at` of each member p: the product
        of its axes' intervals there, in sub-boxes of at most
        _CHUNK_POINTS integrand points, with the kernel and volumes of
        the axes of the point `kern`."""
        shape = [len(axes[c][at][1]) for c in kern]
        sizes, budget = [], max(1, _CHUNK_POINTS // len(bits))
        for k in reversed(shape):
            sizes.insert(0, max(1, min(k, budget)))
            budget //= sizes[0]
        for p in members:
            out[p][at] = np.empty(shape), np.empty(shape)
        for start in itertools.product(*map(range, [0] * d, shape, sizes)):
            box = tuple(slice(a, a + s) for a, s in zip(start, sizes))
            vol = math.prod(axes[c][at][1][b].reshape(
                [-1 if j == i else 1 for j in range(d)])
                for i, (c, b) in enumerate(zip(kern, box)))
            kc, kf = (_kernel([np.linalg.norm(x, axis=-1) for x in blockwise(
                kern, at, 3, box, corner)], lam, offset)
                for corner in (False, True))
            for p in members:
                coarse, fine = out[p][at]
                vc, vf = ([f.values(y) for f, y in zip(inputs, blockwise(
                    centres[p], at, 2, box, corner))]
                    for corner in (False, True))
                seen[p, at] |= [a.any() or b.any() for a, b in zip(vc, vf)]
                # a lone integrand's (f1 f2) K, times volume; a leaf's
                # corners summed slab by slab as the reference's contiguous
                # row of them, then divided as np.mean does
                _product(vc + [kc, vol], coarse[box])
                values = _product(vf + [kf], np.empty(kf.shape))
                mean = _row_sum(values.reshape(len(bits), *vol.shape))
                np.divide(mean, len(bits), out=mean)
                np.multiply(mean, vol, out=fine[box])

    tables = {}   # a race computes a table twice, to equal values

    def order(flags):
        # per cell of the product of the axes' intervals (flat, row-major):
        # whether it splits, and the flat index of its first child in the
        # next level's product, to which `steps` add the 2^d children's
        key = tuple(f.tobytes() for f in flags)
        if key not in tables:
            nxt = [2 * int(f.sum()) for f in flags]
            strides = [math.prod(nxt[i + 1:]) for i in range(d)]
            child = sum(np.ix_(*[2 * s * (np.cumsum(f) - 1)
                                 for f, s in zip(flags, strides)]))
            split = math.prod(np.ix_(*[f.astype(int) for f in flags]))
            tables[key] = (split.astype(bool).ravel(),
                           child.ravel(), bits @ strides)
        return tables[key]

    def finish(p, out):
        # the base level with the point's own kernel, then its leaves in
        # the order of its lone evaluation: level by level, and at each
        # level in the order in which splitting cells into their 2^d
        # lexicographic children makes them (Morton order)
        level(base, centres[p], [p], out)
        buffers, own = out.pop(p), [axes[c] for c in centres[p]]
        cells, leaves = np.zeros(1, dtype=np.intp), []
        for at in range(top + 1):
            split, child, steps = order([axis[at][0] for axis in own])
            split = split[cells]
            if at >= base:
                leaves.append([a.ravel()[cells[~split]]
                               for a in buffers.pop(at)])
            cells = (child[cells[split]][:, None] + steps).ravel()
        for f, sampled in zip(inputs, seen[p].any(axis=0)):
            _check_sampled(f, sampled, half)
        return _combine(*map(np.concatenate, zip(*leaves)))

    values, errs = np.empty(points), np.empty(points)
    for members in classes.values():   # one class's leaves at a time
        out = {p: {} for p in members}   # the levels are independent
        list(run(lambda at: level(at, centres[members[0]], members, out),
                 range(base + 1, top + 1)))
        for p, (v, e) in zip(members, run(lambda p: finish(p, out),
                                          members)):
            values[p], errs[p] = v, e
    return values, errs


def _refine(keys, quad: QuadratureSpec, d: int, axes: dict) -> None:
    """Adds to `axes` the (lo, hi) leaves, level by level, of the 1-d
    partition of each key (singular coordinate, *breaks) not in it yet,
    refined toward the key: all of them in one `_axis_levels` batch of
    NaN-padded rows, whose kept leaves a stable sort regroups by row."""
    new = list(dict.fromkeys(k for k in keys if k not in axes))
    if not new:
        return
    targets = np.full((len(new), max(map(len, new))), np.nan)
    for r, key in enumerate(new):
        targets[r, :len(key)] = key
    row, kept = np.arange(len(new)), []
    for lo, hi, split in _axis_levels(quad.truncation_radius, targets,
                                      *quad.depths(d)):
        kept.append((lo[~split], hi[~split], row[~split]))
        row = np.repeat(row[split], 2)
    lo, hi, row = map(np.concatenate, zip(*kept))
    order = np.argsort(row, kind="stable")
    cuts = np.cumsum(np.bincount(row, minlength=len(new)))[:-1]
    axes.update(zip(new, zip(np.split(lo[order], cuts),
                             np.split(hi[order], cuts))))


def _partition(singular: np.ndarray, breaks: Sequence[Sequence[float]],
               quad: QuadratureSpec,
               axes: dict) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Factors of the adaptive partition of the truncation box in
    dimension <= 2: per axis the (lo, hi) leaves of one 1-d partition,
    level by level, refined toward the singular coordinate and that
    axis's breaks and cached in `axes` by them (`_refine`); their
    product is the partition `_leaf_sum` evaluates."""
    keys = [(s, *b) for s, b in zip(singular, breaks)]
    _refine(keys, quad, singular.size, axes)
    return [axes[key] for key in keys]


def _evaluate(family: Sequence[Sequence[TestFunction]],
              centres: Sequence[np.ndarray], lam, quad: QuadratureSpec,
              offset: float = 0.0, workers: Optional[int] = None) -> list:
    """Integral of prod_b f_b(y_b) (offset + sum_b |c_b - y_b|)^-lam over
    the truncation box, for each tuple of `family` (one input f_b per
    coordinate block) and one (P, n_b) array of centres c_b per block, a
    row per point; returns per tuple its values and error estimates, in
    point order.  Refuses an input whose dim is not its block's size, a
    centre or offset that is not finite (naming the evaluation point x),
    and a kernel order outside (0, sum_b n_b), or outside (0, inf) when
    offset > 0; the kernel is 0 at the singular point.  `workers` > 1
    spreads the points over that many threads, with the same results."""
    blocks = [c.shape[1] for c in centres]
    for f, n in ((f, n) for inputs in family for f, n in zip(inputs, blocks)):
        if f.dim != n:
            raise BifracError(f"input of dim {f.dim} on a block of dim {n}")
    if not (math.isfinite(offset) and all(np.isfinite(c).all()
                                          for c in centres)):
        raise BifracError("x: the kernel's centres and offset at x must be "
                          "finite")
    top = sum(blocks) if offset == 0 else math.inf
    if not 0 < lam < top:
        raise NonIntegrableError(f"kernel order {lam} is outside (0, {top}),"
                                 f" not locally integrable in R^{sum(blocks)}")
    lam = float(lam)
    with (ThreadPoolExecutor(max_workers=workers) if workers and workers > 1
          else contextlib.nullcontext()) as pool:
        run = pool.map if pool else map
        if sum(blocks) > 2:
            return [_level_sums(inputs, np.concatenate(centres, axis=1),
                                blocks, lam, offset, quad, run)
                    for inputs in family]
        groups = {}   # tuples with the same breaks share each partition
        for i, inputs in enumerate(family):
            breaks = tuple(tuple(axis) for f in inputs for axis in f.breaks())
            groups.setdefault(breaks, []).append(i)
        import threading   # loaded with concurrent.futures already
        local = threading.local()   # a workspace per thread, for this call

        def point(row, axes):
            def kernel(ys, ws):
                return _kernel([np.linalg.norm(c - y, axis=-1)
                                for c, y in zip(row, ys)], lam, offset, ws)
            sums = {}
            for breaks, members in groups.items():
                sums.update(zip(members, _leaf_sum(
                    kernel, [family[i] for i in members],
                    _partition(np.concatenate(row), breaks, quad, axes),
                    blocks, local.ws)))
            return [sums[i] for i in range(len(family))]

        def chunk(rows):
            # every axis of the chunk's points in one batch
            if not hasattr(local, "ws"):
                local.ws = _Workspace()
            axes = {}
            _refine([(s, *b) for row in rows for breaks in groups
                     for s, b in zip(np.concatenate(row), breaks)],
                    quad, sum(blocks), axes)
            return [point(row, axes) for row in rows]
        rows = list(zip(*centres))
        # at most _BATCH_AXES keys per chunk, and a chunk per worker
        count = max(1, min(workers or 1, len(rows)), math.ceil(
            len(rows) * sum(blocks) * len(groups) / _BATCH_AXES))
        edges = [len(rows) * k // count for k in range(count + 1)]
        sums = np.array([s for part in run(chunk, [
            rows[a:b] for a, b in zip(edges, edges[1:])]) for s in part],
            dtype=float)
    return list(sums.reshape(len(centres[0]), len(family), 2)
                .transpose(1, 2, 0).copy())


def _overflows(f: TestFunction, quad: QuadratureSpec) -> bool:
    """Whether `f.values` may overflow in the truncation box, whose
    corners lie at |y| = radius sqrt(dim)."""
    return not f.reach() >= quad.truncation_radius * math.sqrt(f.dim)


def _point(x, m: int) -> np.ndarray:
    """The evaluation point x as an array of m finite floats."""
    x = np.asarray(x, dtype=float).reshape(m)
    for i, v in enumerate(x.tolist()):
        _check_real(f"x[{i}]", v)
    return x


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
    x = _point(x, cfg.m)
    centres = (cfg.D1.to_float() @ x, cfg.D2.to_float() @ x)
    return _estimate(_evaluate([(f1, f2)], [c[None] for c in centres],
                               cfg.lam, quad))


def eval_linear(n: int, m: int, D: RationalMatrix, lam, f: TestFunction,
                x, quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """Generalized Riesz potential: integral of f(y) |Dx - y|^-lam, for
    an n x m matrix D."""
    check_shape("D", D, n, m)
    x = _point(x, m)
    return _estimate(_evaluate([[f]], ((D.to_float() @ x)[None],), lam, quad))


def eval_radial(n: int, m: int, lam, f: TestFunction, x,
                quad: QuadratureSpec = QuadratureSpec()) -> NormEstimate:
    """Radial operator: integral of f(y) (|x| + |y|)^-lam."""
    x = _point(x, m)
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
    for a in a_list:
        if a > 0 and any(_overflows(dilate(f, a), quad) for f in (f1, f2)):
            raise BifracError(f"a_list: dilation factor {a!r} is too small")
    pairs = _norm_ratios(cfg, [(dilate(f1, a), dilate(f2, a))
                               for a in a_list], grid, quad, workers)
    ratios = [r for r, _ in pairs]
    zero = [a for a, r in zip(a_list, ratios) if r <= 0]
    if len(zero) == len(a_list):
        raise BifracError("witnesses: the grid norm is zero at every "
                          "dilation factor, a nonpositive norm ratio")
    if zero:
        raise BifracError(f"a_list: dilation factor {zero[0]!r} gives a zero "
                          f"grid norm, a nonpositive norm ratio")
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
    family = list(family)
    for i, pair in enumerate(family):
        for f, name in zip(pair, ("f1", "f2")):
            if _overflows(f, quad):
                raise BifracError(f"family[{i}].{name}: its values overflow "
                                  f"inside the truncation box")
    return [r for r, _ in _norm_ratios(cfg, family, grid, quad, workers)]
