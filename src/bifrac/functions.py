"""Evaluable witness-function descriptors with exact or semi-analytic
Lp norms.

Descriptors are immutable and evaluation is lazy, so quadrature can
refine arbitrarily close to singular points without re-ingesting data.
Each descriptor class carries its own pointwise values (on a (..., dim)
array of points), its Lp norm, its quadrature breakpoints (the two
power-logs share one profile's) and its reach, the largest |y| at which
its values stay finite; and the type annotations of its fields
drive the checks of its serialized parameters, so a new witness is one
class plus one `_TAGS` entry.
scipy is imported only by the norms that need a radial quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import (List, Optional, Sequence, Tuple, Union, get_args,
                    get_origin, get_type_hints)

import numpy as np

from .classifier import Clause
from .exponents import BifracError
from .matrices import signature


class DivergentNormError(BifracError):
    """The requested Lp norm is infinite for this descriptor."""


def _check_int(name: str, value, low: Optional[int] = None) -> int:
    """value, or BifracError unless it is an int (bools refused) >= low."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise BifracError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def _check_real(name: str, value, positive: bool = False) -> None:
    """Raise BifracError unless value is a finite int or float (bools
    refused), and > 0 if positive."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (positive and value <= 0)):
        bound = " > 0" if positive else ""
        raise BifracError(f"{name} must be a finite number{bound}, "
                          f"got {value!r}")


@dataclass(frozen=True)
class NormEstimate:
    value: float
    abs_error: float
    method: str  # "analytic" | "quadrature"

    def to_record(self) -> dict:
        return {"value": self.value, "abs_error": self.abs_error,
                "method": self.method}


# below sqrt(float max) ~ 1.34e154: up to this |y|, |y|^2 is finite
_REACH = 1e154


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class TestFunction:
    dim: int

    def values(self, y: np.ndarray) -> np.ndarray:
        """Values at a (..., dim) array of points, as a (...) array: the
        last axis holds the coordinates, every leading axis is kept."""
        raise NotImplementedError

    def norm(self, p: float) -> NormEstimate:
        """L^p (quasi-)norm for p in (0, inf]; raises DivergentNormError
        when it is infinite."""
        raise NotImplementedError

    def breaks(self) -> List[List[float]]:
        """Per-axis coordinates where the descriptor is discontinuous,
        singular or sharply concentrated; quadrature refines toward
        them."""
        return [[] for _ in range(self.dim)]

    def reach(self) -> float:
        """The largest |y| at which `values` stays finite: there the
        squared coordinates it sums do not overflow."""
        return _REACH


@dataclass(frozen=True)
class IndicatorBall(TestFunction):
    """Characteristic function of a ball."""

    radius: float = 1.0
    center: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.radius <= 0:
            raise BifracError("radius must be positive")
        if self.center is None:
            object.__setattr__(self, "center", (0.0,) * self.dim)
        if len(self.center) != self.dim:
            raise BifracError("center dimension mismatch")

    def values(self, y):
        d = y - np.asarray(self.center)
        return (np.linalg.norm(d, axis=-1) <= self.radius).astype(float)

    def norm(self, p):
        vol = unit_ball_volume(self.dim) * self.radius ** self.dim
        return NormEstimate(vol ** (1.0 / p), 0.0, "analytic")

    def breaks(self):
        return [[c - self.radius, c, c + self.radius] for c in self.center]

    def reach(self):
        return _REACH - math.hypot(*self.center)


@dataclass(frozen=True)
class MollifiedDelta(TestFunction):
    """Unit-mass bump of width delta concentrating at the origin."""

    width: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise BifracError("width must be positive")

    @property
    def height(self) -> float:
        return 1.0 / (unit_ball_volume(self.dim) * self.width ** self.dim)

    def values(self, y):
        r = np.linalg.norm(y, axis=-1)
        return np.where(r <= self.width, self.height, 0.0)

    def norm(self, p):
        mass = unit_ball_volume(self.dim) * self.width ** self.dim
        return NormEstimate(self.height * mass ** (1.0 / p), 0.0, "analytic")

    def breaks(self):
        return [[-self.width, 0.0, self.width]] * self.dim


class _PowerLogProfile(TestFunction):
    """The power-log profile, the borderline extremal of L^p:

        |y_t|^(-t/p) (log 1/|y_t|)^(-(1+eps)/p) on {|y| <= cutoff},

    where y_t holds the trailing t = dim - head coordinates.  Its L^p
    norm at its own p is finite exactly when eps > 0.  The value is 0
    where y_t = 0 (measure zero).  Subclasses supply p, eps, head and
    cutoff, as fields or as class constants.
    """

    def __post_init__(self):
        if not self.p > 0:
            raise BifracError(f"need p > 0, got {self.p!r}")

    def values(self, y):
        r = np.linalg.norm(y, axis=-1)
        rt = np.linalg.norm(y[..., self.head:], axis=-1) if self.head else r
        out = np.zeros_like(r)
        inside = (r <= self.cutoff) & (rt > 0)
        ri = rt[inside]
        out[inside] = (ri ** (-(self.dim - self.head) / self.p)
                       * np.log(1.0 / ri) ** (-(1.0 + self.eps) / self.p))
        return out

    def _density(self, p: float):
        """(omega, alpha, beta, density) of ||f||_p^p in u = log(1/|y_t|):
        the norm is the integral from log(1/cutoff) of
        density(u) = omega e^(-alpha u) u^(-beta), omega the area of
        S^(t-1), times, when there is a head block, the volume of its
        section of the support at |y_t| = e^(-u)."""
        t, k = self.dim - self.head, self.head
        omega = t * unit_ball_volume(t)
        alpha = t - t * p / self.p
        beta = p * (1.0 + self.eps) / self.p
        vol_head, c2 = unit_ball_volume(k), self.cutoff * self.cutoff

        def density(u):
            dens = omega * math.exp(-alpha * u) * u ** (-beta)
            if k:
                r = math.exp(-u)
                s2 = c2 - r * r
                dens *= vol_head * s2 ** (k / 2.0) if s2 > 0 else 0.0
            return dens

        return omega, alpha, beta, density

    def norm(self, p):
        # near y_t = 0 the density decays iff alpha > 0, or alpha == 0
        # with beta > 1; p = inf diverges too
        omega, alpha, beta, density = self._density(p)
        if not (alpha > 0 or (alpha == 0 and beta > 1)):
            raise DivergentNormError(
                f"L^{p} norm of power-log descriptor diverges")
        u0 = math.log(1.0 / self.cutoff)
        if self.head == 0 and alpha == 0:
            # closed form: omega * int_u0^inf u^-beta du
            val = omega * u0 ** (1.0 - beta) / (beta - 1.0)
            err = abs(val) * 1e-12
        else:
            from scipy.integrate import quad
            val, err = quad(density, u0, math.inf,
                            epsabs=0.0, epsrel=1e-10, limit=200)
        return NormEstimate(val ** (1.0 / p),
                            err * val ** (1.0 / p - 1.0) / p if val > 0
                            else err, "quadrature")

    def breaks(self):
        return [[-self.cutoff, 0.0, self.cutoff]] * self.dim


@dataclass(frozen=True)
class PowerLog(_PowerLogProfile):
    """The power-log profile in all coordinates, on {|y| <= cutoff}."""

    p: float = 2.0
    eps: float = 0.1
    cutoff: float = 0.5
    head = 0

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.cutoff < 1:
            raise BifracError(f"need cutoff in (0, 1), got {self.cutoff!r}")


@dataclass(frozen=True)
class SplitPowerLog(_PowerLogProfile):
    """The power-log profile in the trailing `tail` coordinates of
    R^(head+tail), on {|y| <= 1/2}."""

    head: int = 1
    tail: int = 1
    p: float = 2.0
    eps: float = 0.1
    cutoff = 0.5

    def __post_init__(self):
        if self.head + self.tail != self.dim:
            raise BifracError("head + tail must equal dim")
        if self.tail < 1:
            raise BifracError("tail block must be nonempty")
        if self.head < 0:
            raise BifracError("head block size must be >= 0")
        super().__post_init__()


@dataclass(frozen=True)
class Constant(TestFunction):
    value: float = 1.0

    def values(self, y):
        return np.full(np.shape(y)[:-1], self.value, dtype=float)

    def norm(self, p):
        if math.isinf(p):
            return NormEstimate(abs(self.value), 0.0, "analytic")
        if self.value == 0:
            return NormEstimate(0.0, 0.0, "analytic")
        raise DivergentNormError("nonzero constant is not in L^p for p < inf")

    def reach(self):
        return math.inf


@dataclass(frozen=True)
class Gaussian(TestFunction):
    """exp(-|y|^2 / scale^2)."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise BifracError("scale must be positive")

    def values(self, y):
        r2 = np.sum(np.square(np.asarray(y)), axis=-1)
        return np.exp(-r2 / self.scale ** 2)

    def norm(self, p):
        # int exp(-p |y|^2 / s^2) dy = (pi s^2 / p)^(n/2)
        val = (math.pi * self.scale ** 2 / p) ** (self.dim / (2.0 * p))
        return NormEstimate(val, 0.0, "analytic")

    def reach(self):
        # |y|^2 / scale^2 must be finite too
        return _REACH * min(self.scale, 1.0)


@dataclass(frozen=True)
class Dilated(TestFunction):
    """f(. / a)."""

    inner: TestFunction = None
    a: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise BifracError("dilation factor must be positive")
        if self.inner is None or self.inner.dim != self.dim:
            raise BifracError("inner descriptor dimension mismatch")

    def values(self, y):
        return self.inner.values(np.asarray(y) / self.a)

    def norm(self, p):
        base = self.inner.norm(p)
        scale = self.a ** (self.dim / p)
        return NormEstimate(base.value * scale, base.abs_error * scale,
                            base.method)

    def breaks(self):
        return [[v * self.a for v in axis] for axis in self.inner.breaks()]

    def reach(self):
        # y / a must be finite too
        return self.a * min(self.inner.reach(), np.finfo(float).max)


@dataclass(frozen=True)
class Translated(TestFunction):
    """f(. - z), optionally restricted to masked coordinates."""

    inner: TestFunction = None
    z: Tuple[float, ...] = ()
    mask: Optional[Tuple[bool, ...]] = None

    def __post_init__(self):
        if self.inner is None or self.inner.dim != self.dim:
            raise BifracError("inner descriptor dimension mismatch")
        if len(self.z) != self.dim:
            raise BifracError("shift dimension mismatch")
        if self.mask is not None and len(self.mask) != self.dim:
            raise BifracError("mask dimension mismatch")

    def _shift(self) -> np.ndarray:
        shift = np.asarray(self.z, dtype=float)
        if self.mask is not None:
            shift = shift * np.asarray(self.mask, dtype=float)
        return shift

    def values(self, y):
        return self.inner.values(np.asarray(y) - self._shift())

    def norm(self, p):
        return self.inner.norm(p)

    def breaks(self):
        return [[v + s for v in axis]
                for axis, s in zip(self.inner.breaks(), self._shift())]

    def reach(self):
        return self.inner.reach() - math.hypot(*self._shift())


def dilate(f: TestFunction, a: float) -> TestFunction:
    if a == 1:
        return f
    return Dilated(dim=f.dim, inner=f, a=float(a))


def translate(f: TestFunction, z: Sequence[float], mask=None) -> TestFunction:
    z = tuple(float(v) for v in z)
    if all(v == 0 for v in z):
        return f
    return Translated(dim=f.dim, inner=f, z=z,
                      mask=None if mask is None else tuple(mask))


# ---------------------------------------------------------------------------
# Lp norms


def lp_norm(f: TestFunction, p) -> NormEstimate:
    """Lp (quasi-)norm of a descriptor; analytic where a closed form
    exists, radial quadrature otherwise.

    p may be an Exponent or a float; p = inf gives the descriptor's
    supremum.  Raises DivergentNormError when the norm is infinite.
    """
    pv = float(p)
    if pv <= 0:
        raise BifracError("p must be positive")
    return f.norm(pv)


def truncated_powerlog_norm(f: _PowerLogProfile, p,
                            inner_radius: float) -> float:
    """||f||_p^p over {|y_t| >= inner_radius} within the support, for
    divergence probes: with eps <= 0 at p = f.p this grows without bound
    as inner_radius -> 0."""
    from scipy.integrate import quad
    density = f._density(float(p))[3]
    val, _ = quad(density, math.log(1.0 / f.cutoff),
                  math.log(1.0 / inner_radius), limit=200)
    return val


# ---------------------------------------------------------------------------
# counterexample families

EPS_SWEEP = (0.4, 0.2, 0.1, 0.05)
DELTA_SWEEP = (0.25, 0.0625, 0.015625)


class NoWitnessError(BifracError):
    """No counterexample family is defined for this clause."""


def side(n, a, p, eps, r):
    """Extremal input on a side of dimension n with exponent p = 1/a: a
    bump of width 1/4 when p = 1, a constant when p = inf, otherwise
    the power-log extremal of p with damping eps, a split weight in
    the last n - r reduced coordinates when 0 < r < n."""
    if a == 1:
        return MollifiedDelta(dim=n, width=0.25)
    if a == 0:
        return Constant(dim=n, value=1.0)
    if 0 < r < n:
        return SplitPowerLog(dim=n, head=r, tail=n - r, p=p, eps=eps)
    return PowerLog(dim=n, p=p, eps=eps)


_CASE_4 = (Clause.CASE_4A, Clause.CASE_4B, Clause.CASE_4C, Clause.CASE_4D)


def witness_for(cfg, clause):
    """Counterexample family for an Unbounded clause of cfg.

    Returns a list of (f1, f2) input pairs along which the norm ratio
    grows: bumps concentrating over DELTA_SWEEP when an exponent is 1,
    power-log extremals damped less and less over EPS_SWEEP, dilated
    balls for a homogeneity failure, and one fixed pair where the
    failure needs no sweep (RankStackDeficient, ExponentRangeFailed,
    QMustBeFinite).  The family is built with the leading side first:
    for Case4* the p = 1 side, else the p = inf side, else side 1; for
    ExponentRangeFailed the constant goes on side 2 when p2 = inf, else
    on side 1 when p1 = inf.  A config leading with side 2 is built
    swapped and its pairs are swapped back.
    """
    a1, a2 = cfg.p1.recip, cfg.p2.recip
    if clause in _CASE_4:
        flip = a1 != 1 and (a2 == 1 or a2 == 0 != a1)
    else:
        flip = clause == Clause.EXPONENT_RANGE_FAILED and a1 == 0 != a2
    if flip:
        return [(f1, f2) for f2, f1 in witness_for(cfg.swapped(), clause)]

    n1, n2 = cfg.n1, cfg.n2
    p1, p2 = float(cfg.p1), float(cfg.p2)
    ball1, ball2 = IndicatorBall(dim=n1), IndicatorBall(dim=n2)
    if clause == Clause.RANK_STACK_DEFICIENT:
        # output depends on fewer than m coordinates; a fixed pair has a
        # divergent L^q norm over growing truncations
        return [(ball1, ball2)]
    if clause == Clause.HOMOGENEITY_FAILED:
        return [(dilate(ball1, a), dilate(ball2, a))
                for a in (0.5, 1.0, 2.0, 4.0)]
    if clause == Clause.EXPONENT_RANGE_FAILED:
        # a constant stays in L^inf only
        return [(ball1, Constant(dim=n2, value=1.0) if a2 == 0 else ball2)]
    if clause == Clause.Q_MUST_BE_FINITE:
        return [(side(n1, a1, p1, 0.1, n1), side(n2, a2, p2, 0.1, n2))]
    if clause in _CASE_4:
        if a1 == 1:
            return [(MollifiedDelta(dim=n1, width=d),
                     side(n2, a2, p2, 0.1, n2)) for d in DELTA_SWEEP]
        # a power-log pair lives in the deficient blocks of the reduced
        # coordinates; a power-log facing a constant fills its side
        r1, r2 = signature(cfg.D1, cfg.D2)[3:5] if a1 != 0 else (n1, n2)
        return [(side(n1, a1, p1, e, r1), side(n2, a2, p2, e, r2))
                for e in EPS_SWEEP]
    raise NoWitnessError(f"no witness family defined for clause {clause}")


# ---------------------------------------------------------------------------
# descriptor serialization (tag + parameters)

_TAGS = {
    "indicator-ball": IndicatorBall,
    "mollified-delta": MollifiedDelta,
    "power-log": PowerLog,
    "split-power-log": SplitPowerLog,
    "constant": Constant,
    "gaussian": Gaussian,
    "dilated": Dilated,
    "translated": Translated,
}


def descriptor_to_dict(f: TestFunction) -> dict:
    """Serialize a descriptor to {tag, parameters}."""
    tag = next((t for t, cls in _TAGS.items() if type(f) is cls), None)
    if tag is None:
        raise TypeError(f"cannot serialize {type(f).__name__}")
    d = {"tag": tag}
    for field in fields(f):
        v = getattr(f, field.name)
        if isinstance(v, TestFunction):
            v = descriptor_to_dict(v)
        elif isinstance(v, tuple):
            v = list(v)
        d[field.name] = v
    return d


def _parameter(name: str, hint, v):
    """v, the JSON value of a descriptor field annotated `hint`, checked
    and converted, or BifracError naming the parameter: Optional allows
    null, Tuple[X, ...] is a list of X, TestFunction a nested descriptor
    object, and otherwise v is a bool, an int or a finite number."""
    if get_origin(hint) is Union:
        if v is None:
            return None
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:
        if not isinstance(v, list):
            raise BifracError(f"{name} must be a list, got {v!r}")
        return tuple(_parameter(f"{name}[{i}]", get_args(hint)[0], u)
                     for i, u in enumerate(v))
    if hint is TestFunction:
        if not isinstance(v, dict):
            raise BifracError(f"{name} must be a descriptor object, "
                              f"got {v!r}")
        return descriptor_from_dict(v, name + ".")
    if hint is bool:
        if not isinstance(v, bool):
            raise BifracError(f"{name} must be true or false, got {v!r}")
    elif hint is int:
        _check_int(name, v)
    else:
        _check_real(name, v)
    return v


def descriptor_from_dict(d: dict, path: str = "") -> TestFunction:
    """Rebuild a descriptor from its {tag, parameters} form.  Every
    parameter, list entries and nested descriptors included, is
    type-checked before the descriptor is built; an error names the
    parameter by its path from the outermost descriptor (`path` is the
    prefix of a nested one, e.g. "inner.")."""
    d = dict(d)
    tag = d.pop("tag", None)
    if tag not in _TAGS:
        raise BifracError(f"unknown descriptor tag {tag!r}")
    hints = get_type_hints(_TAGS[tag])
    for key, v in d.items():
        if key not in hints:
            raise BifracError(f"{path + key} is not a parameter of {tag!r}")
        d[key] = _parameter(path + key, hints[key], v)
    return _TAGS[tag](**d)
