"""Command-line front end: classification, matrix reduction, numeric
probes, exponent-region sweeps and norm evaluation.

Configs are JSON files with exact rationals written as strings ("3/2",
"inf"); matrices are nested row-major arrays.  Output is byte
deterministic for identical configs: JSON keys are sorted and CSV rows
are emitted in lexicographic order with LF endings.

Exit codes: 0 bounded / success, 1 unbounded, 2 invalid input or
out-of-hypothesis configuration.  Every refusal is a BifracError and
prints one "error: <key>: ..." line; any other exception is a bug and
propagates as a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .classifier import (check_shapes, classify_bilinear, make_config,
                         sweep_verdicts)
from .exponents import (BifracError, ConjugateUndefinedError, Exponent,
                        homogeneous_lambda, parse_rational)
from .functions import (_check_int, _check_real, descriptor_from_dict,
                        lp_norm, witness_for)
from .matrices import (RationalMatrix, joint_normal_form, signature,
                       single_normal_form)
from .operators import (GridSpec, QuadratureSpec, _overflows, blowup_probe,
                        dilation_slope, eval_bilinear, eval_linear,
                        eval_radial, lq_norm_on_grid)

EXIT_BOUNDED = 0
EXIT_UNBOUNDED = 1
EXIT_INVALID = 2


class ConfigError(BifracError):
    pass


# ---------------------------------------------------------------------------
# serialization helpers


def _matrix_to_lists(M: RationalMatrix):
    return [[str(v) for v in M.row(i)] for i in range(M.rows)]


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _dump_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# config parsing


def _require(cfg: dict, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")


def _exact(cfg: dict, key: str, parse=parse_rational):
    """cfg[key] parsed exactly (floats are refused), naming the key on
    failure."""
    value = cfg[key]
    try:
        return parse(value)
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _resolve_lambda(cfg: dict, n1, n2, m, p1, p2, q):
    if cfg.get("lambda", "auto") == "auto":
        try:
            return homogeneous_lambda(n1, n2, m, p1, p2, q), True
        except ConjugateUndefinedError as exc:
            raise ConfigError(f'lambda: "auto" needs p1, p2 >= 1: {exc}') \
                from None
    return _exact(cfg, "lambda"), False


def _bilinear_config(cfg: dict):
    _require(cfg, "n1", "n2", "m", "D1", "D2", "p1", "p2", "q")
    n1, n2, m = (_check_int(k, cfg[k], 1) for k in ("n1", "n2", "m"))
    p1, p2, q = (_exact(cfg, k, Exponent.from_value)
                 for k in ("p1", "p2", "q"))
    lam, auto = _resolve_lambda(cfg, n1, n2, m, p1, p2, q)
    D1, D2 = (_exact(cfg, k, RationalMatrix.from_rows) for k in ("D1", "D2"))
    oc = make_config(n1, n2, m, D1, D2, p1, p2, q, lam)
    return oc, auto


def _fits_float(key: str, value):
    """value, refused naming key when it, or an entry of it, is too
    large for a float or nonzero and too small for one: the numeric modes
    compute in floats."""
    entries = value.entries if isinstance(value, RationalMatrix) else (value,)
    for v in entries:
        try:
            rounded = float(v)
        except OverflowError:
            raise ConfigError(f"{key}: too large for the numeric modes") \
                from None
        if rounded == 0 and v != 0:
            raise ConfigError(f"{key}: too small for the numeric modes")
    return value


def _numeric_config(cfg: dict):
    """`_bilinear_config` for the numeric modes, refusing an exponent,
    order or matrix entry too large for a float."""
    oc, auto = _bilinear_config(cfg)
    for key in ("p1", "p2", "q", "D1", "D2"):
        _fits_float(key, getattr(oc, key))
    _fits_float("lambda", oc.lam)
    return oc, auto


def _settings(cfg: dict, key: str, spec):
    """spec with the config's `key` section applied through
    dataclasses.replace, so an unknown or invalid setting is refused."""
    try:
        return replace(spec, **cfg.get(key, {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _numbers(cfg: dict, key: str, positive: bool = False):
    """cfg[key] as a list of finite floats (> 0 if positive), naming the
    entry on failure."""
    values = cfg[key]
    if not isinstance(values, list):
        raise ConfigError(f"{key}: expected a list of numbers, "
                          f"got {values!r}")
    for i, v in enumerate(values):
        _check_real(f"{key}[{i}]", v, positive)
    return [float(v) for v in values]


def _point(cfg: dict, m: int):
    """The evaluation point `x`, which must have m entries."""
    x = _numbers(cfg, "x")
    if len(x) != m:
        raise ConfigError(f"x: expected a list of m = {m} numbers, "
                          f"got {cfg['x']!r}")
    return x


def _witness(cfg: dict, key: str, dim: int, quad: QuadratureSpec, p=None):
    """The witness descriptor `key`, which must have dimension dim, values
    that stay finite in the truncation box of `quad` and, when p is
    given, a finite L^p norm."""
    witnesses = cfg.get("witnesses", {})
    if not isinstance(witnesses, dict):
        raise ConfigError(f"witnesses: expected an object of descriptors, "
                          f"got {witnesses!r}")
    if key not in witnesses:
        raise ConfigError(f"config is missing witness descriptor {key!r}")
    try:
        f = descriptor_from_dict(witnesses[key])
        if f.dim != dim:
            raise ConfigError(f"expected dim {dim}, got {f.dim}")
        if p is not None:
            lp_norm(f, p)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"witnesses.{key}: {exc}") from None
    if _overflows(f, quad):
        raise ConfigError(f"witnesses.{key}: its values overflow inside the "
                          f"truncation box of radius "
                          f"{quad.truncation_radius!r}")
    return f


# ---------------------------------------------------------------------------
# commands


def cmd_classify(cfg: dict, args) -> int:
    oc, auto = _bilinear_config(cfg)
    verdict = classify_bilinear(oc)
    record = verdict.to_record()
    record["lambda_resolved"] = str(oc.lam) if auto else None
    _emit(_dump_json(record), args.out)
    return EXIT_BOUNDED if verdict.bounded else EXIT_UNBOUNDED


def cmd_reduce(cfg: dict, args) -> int:
    _require(cfg, "D1", "D2")
    D1, D2 = (_exact(cfg, k, RationalMatrix.from_rows) for k in ("D1", "D2"))
    for key, D in (("D1", D1), ("D2", D2)):
        if D.rows == 0 or D.cols == 0:
            raise ConfigError(f"{key}: expected a matrix with at least one "
                              f"row and one column, got {cfg[key]!r}")
    if D1.cols != D2.cols:
        raise ConfigError(f"D1 and D2 must have the same number of columns, "
                          f"got {D1.cols} and {D2.cols}")
    _, _, m, r1, r2, stacked = signature(D1, D2)
    record = {"r1": r1, "r2": r2, "stacked_rank": stacked, "m": m}
    s1 = single_normal_form(D1)
    s2 = single_normal_form(D2)
    record["single"] = {
        "D1": {"P": _matrix_to_lists(s1.P), "Q": _matrix_to_lists(s1.Q),
               "r": s1.r, "reconstructs": s1.reconstructs(D1)},
        "D2": {"P": _matrix_to_lists(s2.P), "Q": _matrix_to_lists(s2.Q),
               "r": s2.r, "reconstructs": s2.reconstructs(D2)},
    }
    if stacked == m:
        jf = joint_normal_form(D1, D2)
        record["joint"] = {
            "P1": _matrix_to_lists(jf.P1), "P2": _matrix_to_lists(jf.P2),
            "Q": _matrix_to_lists(jf.Q),
            "block_widths": list(jf.block_widths),
            "reconstructs": jf.reconstructs(D1, D2),
        }
    else:
        record["joint"] = "unavailable"
    _emit(_dump_json(record), args.out)
    return EXIT_BOUNDED


def cmd_sweep(cfg: dict, args) -> int:
    _require(cfg, "n1", "n2", "m", "D1", "D2")
    sweep = cfg.get("sweep", {})
    if not isinstance(sweep, dict) or set(sweep) - {"divisor"}:
        raise ConfigError(f"sweep: expected an object whose only key is "
                          f"'divisor', got {sweep!r}")
    divisor = sweep.get("divisor", 8)
    if not (isinstance(divisor, int) and 2 <= divisor <= 64):
        raise ConfigError(f"sweep: divisor must be an integer in [2, 64], "
                          f"got {divisor!r}")
    n1, n2, m = (_check_int(k, cfg[k], 1) for k in ("n1", "n2", "m"))
    D1, D2 = (_exact(cfg, k, RationalMatrix.from_rows) for k in ("D1", "D2"))
    check_shapes(n1, n2, m, D1, D2)
    recips = [str(Fraction(v, divisor)) for v in range(divisor + 1)]
    rows = ((recips[i], recips[j], recips[k],
             "true" if bounded else "false", clause.value)
            for i, j, k, (bounded, clause)
            in sweep_verdicts(signature(D1, D2), divisor))
    _emit(_dump_csv(("inv_p1", "inv_p2", "inv_q", "bounded", "clause"),
                    rows), args.out)
    return EXIT_BOUNDED


def cmd_probe(cfg: dict, args) -> int:
    oc, auto = _numeric_config(cfg)
    quad = _settings(cfg, "quad", QuadratureSpec())
    grid = _settings(cfg, "grid", GridSpec())
    verdict = classify_bilinear(oc)
    record = {"verdict": verdict.to_record(),
              "lambda_resolved": str(oc.lam) if auto else None}
    csv_text = None
    if "a_list" in cfg:
        f1 = _witness(cfg, "f1", oc.n1, quad, oc.p1)
        f2 = _witness(cfg, "f2", oc.n2, quad, oc.p2)
        report = dilation_slope(oc, f1, f2, _numbers(cfg, "a_list", True),
                                grid=grid, quad=quad)
        record["dilation"] = report.to_record()
        csv_text = _dump_csv(("a", "ratio", "err"),
                             list(zip(report.dilations, report.ratios,
                                      report.ratio_errors)))
    if not verdict.bounded:
        family = witness_for(oc, verdict.clause)
        ratios = blowup_probe(oc, family, grid=grid, quad=quad)
        monotone = len(ratios) >= 2 and all(
            b > a for a, b in zip(ratios, ratios[1:]))
        record["blowup"] = {"ratios": ratios,
                            "monotone_growth": monotone}
    text = _dump_json(record)
    if args.out and args.out.endswith(".csv") and csv_text is not None:
        sys.stdout.write(text)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    else:
        _emit(text, args.out)
    return EXIT_BOUNDED


def cmd_norm(cfg: dict, args) -> int:
    operator = cfg.get("operator", "bilinear")
    quad = _settings(cfg, "quad", QuadratureSpec())
    if operator == "bilinear":
        oc, _ = _numeric_config(cfg)
        f1 = _witness(cfg, "f1", oc.n1, quad)
        f2 = _witness(cfg, "f2", oc.n2, quad)
        if "x" in cfg:
            est = eval_bilinear(oc, f1, f2, _point(cfg, oc.m), quad)
        else:
            grid = _settings(cfg, "grid", GridSpec())
            est = lq_norm_on_grid(oc, f1, f2, grid, quad)
    elif operator == "linear":
        _require(cfg, "n", "m", "D", "lambda", "x")
        n, m = _check_int("n", cfg["n"], 1), _check_int("m", cfg["m"], 1)
        D = _fits_float("D", _exact(cfg, "D", RationalMatrix.from_rows))
        lam = _fits_float("lambda", _exact(cfg, "lambda"))
        est = eval_linear(n, m, D, lam, _witness(cfg, "f", n, quad),
                          _point(cfg, m), quad)
    elif operator == "radial":
        _require(cfg, "n", "m", "lambda", "x")
        n, m = _check_int("n", cfg["n"], 1), _check_int("m", cfg["m"], 1)
        lam = _fits_float("lambda", _exact(cfg, "lambda"))
        est = eval_radial(n, m, lam, _witness(cfg, "f", n, quad),
                          _point(cfg, m), quad)
    else:
        raise ConfigError(f"unknown operator {operator!r}")
    _emit(_dump_json(est.to_record()), args.out)
    return EXIT_BOUNDED


_COMMANDS = {"classify": cmd_classify, "reduce": cmd_reduce,
             "sweep": cmd_sweep, "probe": cmd_probe, "norm": cmd_norm}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifrac",
        description="Boundedness classification and numerical probes for "
                    "bilinear fractional integral operators.")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--mode", choices=sorted(_COMMANDS),
                        help="command mode (overrides the config's mode)")
    parser.add_argument("--out", help="also write the output to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError(f"the top level must be an object, "
                              f"got {type(cfg).__name__}")
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    mode = args.mode or cfg.get("mode")
    if not isinstance(mode, str) or mode not in _COMMANDS:
        print(f"error: unknown or missing mode {mode!r}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return _COMMANDS[mode](cfg, args)
    except BifracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
