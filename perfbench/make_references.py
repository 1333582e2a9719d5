"""Regenerate perfbench/references.json.

Run from the repository root:

    python3 perfbench/make_references.py

What it stores:

* sweep-ranks: the SHA-256 of the `sweep` CSV of each rank pattern's
  base matrix pair, for every divisor the benchmark uses.  The CSV is
  produced by the bifrac in `src/`, so regenerate only from a commit
  whose sweep output is trusted: a benchmark pass conjugates the pair
  by random invertible matrices and must reproduce the digest exactly
  (GL-invariance of the verdict).
* slope-1d: I(g_a, g_a)(x) for the unit Gaussian g dilated by a, on the
  65-point grid, with lambda = 7/4 in 1+1 dims.  Computed independently
  of bifrac with scipy: around the singular point (x, x) the L1-polar
  substitution |u1| = r w, |u2| = r (1 - w), r = s^4 makes the
  integrand smooth, and I_a(x) = a^(2 - lambda) I_1(x / a).
* grid-2d: I(g, g)(x) for the 2-d Gaussian pair, lambda = 3, which
  depends only on |x|:
  (2 pi)^2 int_0^1 int_0^inf w (1 - w) exp(-(s w - |x|)^2 - (s (1 - w) - |x|)^2)
  i0e(2 s w |x|) i0e(2 s (1 - w) |x|) ds dw.
  Values are keyed by |x|^2 for every x on the integer lattice in
  [-4, 4]^2, which contains every grid the benchmark uses.
* blowup-rough: the exact verdict.  The operator value at x = 0 is
  infinite for this family (the power-log partner makes it diverge
  logarithmically), so the finite-grid ratios have no finite reference;
  the criterion-6 checks in workloads.py stand in for one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from scipy import integrate, special

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402

SLOPE_SPLITS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 6.0)


def slope_value_unit(t: float, lam: float) -> float:
    """I_1(t) in 1+1 dims for the unit Gaussian pair."""
    k = 1.0 / (2.0 - lam)
    total = 0.0
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            def f(s, w):
                r = s ** k
                return k * s ** (k * (2.0 - lam) - 1.0) * math.exp(
                    -(t + s1 * r * w) ** 2 - (t + s2 * r * (1.0 - w)) ** 2)
            for lo, hi in zip(SLOPE_SPLITS, SLOPE_SPLITS[1:]):
                v, _ = integrate.dblquad(f, 0.0, 1.0, lo, hi,
                                         epsabs=1e-13, epsrel=1e-11)
                total += v
    return total


def grid_value(rho: float) -> float:
    """I(g, g)(x) in 2+2 dims at |x| = rho, lambda = 3."""
    def f(s, w):
        return (w * (1.0 - w)
                * math.exp(-(s * w - rho) ** 2 - (s * (1.0 - w) - rho) ** 2)
                * special.i0e(2.0 * s * w * rho)
                * special.i0e(2.0 * s * (1.0 - w) * rho))
    v, _ = integrate.dblquad(f, 0.0, 1.0, 0.0, 2.0 * rho + 10.0,
                             epsabs=1e-13, epsrel=1e-11)
    return (2.0 * math.pi) ** 2 * v


def sweep_digests(src: Path) -> dict:
    sys.path.insert(0, str(src))
    from bifrac import cli
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for divisor in sorted(set(W.SWEEP_DIVISOR.values())):
            table = {}
            for name, (d1, d2, _) in sorted(W.PATTERNS.items()):
                path = os.path.join(tmp, "cfg.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"n1": 2, "n2": 2, "m": 2, "D1": d1, "D2": d2,
                               "sweep": {"divisor": divisor}}, fh)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["--config", path, "--mode", "sweep"])
                if code != 0:
                    raise SystemExit(f"sweep of {name} exited {code}")
                table[name] = W.sha256_text(buf.getvalue())
            out[str(divisor)] = table
    return out


def main() -> int:
    refs = {"sweep-ranks": {"digests": sweep_digests(HERE.parent / "src")}}

    lam = float(W.SLOPE_LAMBDA)
    axis = W.grid_axis(W.SLOPE_POINTS["full"])
    cache = {}
    slope = {}
    for a in W.SLOPE_A_LIST:
        vals = []
        for x in axis:
            t = abs(x) / a   # I_1 is even
            if t not in cache:
                cache[t] = slope_value_unit(t, lam)
            vals.append(a ** (2.0 - lam) * cache[t])
        slope[repr(a)] = vals
    refs["slope-1d"] = {"lambda": str(W.SLOPE_LAMBDA), "x": axis,
                        "values": slope}

    half = int(W.HALF_WIDTH)
    r2s = sorted({i * i + j * j for i in range(half + 1)
                  for j in range(half + 1)})
    refs["grid-2d"] = {"lambda": "3", "values_by_r2": {
        str(r2): grid_value(math.sqrt(r2)) for r2 in r2s}}

    refs["blowup-rough"] = {"verdict": {"bounded": False, "clause": "Case4a",
                                        "lambda": "3/2", "r1": 1, "r2": 1}}

    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
