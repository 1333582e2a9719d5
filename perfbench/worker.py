"""One workload process: drives `bifrac.cli.main` in-process, pass after
pass, for a fixed time, and checks every invocation's output.

Started by run.py in a fresh interpreter; prints one JSON line with the
raw measurements.  Usage:

    python3 perfbench/worker.py --src SRC --manifest MANIFEST
        --seconds S --trace 0|1 [--trace-file PATH]

The manifest (written by run.py) names the workload, seed, size, the
config files of one pass and the references to check against.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402
from stats import median, percentile  # noqa: E402


class Runner:
    """Runs passes of one workload and accumulates what they produced."""

    def __init__(self, cli, invocations, paths):
        self.cli = cli
        self.invocations = invocations
        self.paths = paths
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.pass_times = []
        self.invocation_times = {}
        self.rel_errs = []
        self.slope_devs = []
        self.bars = 0
        self.covered = 0

    def run_pass(self) -> float:
        """One pass; returns its wall time, which excludes the checks."""
        elapsed = 0.0
        for inv in self.invocations:
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["--config", self.paths[inv.name],
                                      "--mode", inv.kind])
            dt = time.perf_counter() - start
            elapsed += dt
            self.invocation_times.setdefault(inv.kind, []).append(dt)
            outcome = inv.check(code, buf.getvalue())
            self.attempted += 1
            if not outcome.ok:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{inv.name}: {outcome.reason}")
            if outcome.rel_err is not None:
                self.rel_errs.append(outcome.rel_err)
            if outcome.slope_dev is not None:
                self.slope_devs.append(outcome.slope_dev)
            self.bars += outcome.bars
            self.covered += outcome.covered
        self.pass_times.append(elapsed)
        return elapsed

    def run_for(self, seconds: float) -> list:
        """Passes until `seconds` have gone by (at least one)."""
        times = []
        start = time.perf_counter()
        while True:
            times.append(self.run_pass())
            if time.perf_counter() - start >= seconds:
                return times


W_EVAL = "operators.eval_bilinear"


def layer_metrics(tracer, passes: int, rows: int, dim: int,
                  overhead_s: float) -> dict:
    """Per-pass layer figures from a traced phase of `passes` passes."""
    def calls(name):
        return tracer.calls.get(name, 0) / passes

    def self_s(*names):
        return sum(tracer.self_s.get(n, 0.0) for n in names) / passes

    def pct(name, q, scale):
        durs = tracer.durations.get(name)
        return percentile(durs, q) * scale if durs else 0.0

    cli_names = [n for n in tracer.calls if n.startswith("cli.")]
    rank_calls = tracer.calls.get("matrices.rank", 0)
    evals = tracer.calls.get(W_EVAL, 0)
    eval_time = sum(tracer.durations.get(W_EVAL, []))
    points = tracer.eval_points / 2.0   # f1 and f2 see every point
    per_eval = points / evals if evals else 0.0
    return {
        "cli.self_s": (self_s(*cli_names), "s"),
        "exponents.homogeneous_lambda.calls":
            (calls("exponents.homogeneous_lambda"), "count"),
        "exponents.homogeneous_lambda.self_s":
            (self_s("exponents.homogeneous_lambda"), "s"),
        "matrices.rank.calls": (calls("matrices.rank"), "count"),
        "matrices.rank.self_s": (self_s("matrices.rank"), "s"),
        "matrices.rank.calls_per_row":
            (rank_calls / rows if rows else 0.0, "count"),
        "matrices.normal_form.self_s":
            (self_s("matrices.single_normal_form",
                    "matrices.joint_normal_form"), "s"),
        "classifier.classify_bilinear.calls":
            (calls("classifier.classify_bilinear"), "count"),
        "classifier.classify_bilinear.self_s":
            (self_s("classifier.classify_bilinear"), "s"),
        "classifier.classify_bilinear.us_p50":
            (pct("classifier.classify_bilinear", 50, 1e6), "us"),
        "classifier.classify_bilinear.us_p99":
            (pct("classifier.classify_bilinear", 99, 1e6), "us"),
        "operators.eval_bilinear.calls": (calls(W_EVAL), "count"),
        "operators.eval_bilinear.self_s": (self_s(W_EVAL), "s"),
        "operators.eval_bilinear.ms_p50": (pct(W_EVAL, 50, 1e3), "ms"),
        "operators.eval_bilinear.ms_p99": (pct(W_EVAL, 99, 1e3), "ms"),
        "operators.points_per_eval": (per_eval, "count"),
        "operators.leaves_per_eval": (per_eval / (1 + 2 ** dim), "count"),
        "operators.points_per_s":
            (points / eval_time if eval_time else 0.0, "1/s"),
        "functions.values.points":
            (tracer.values_points / passes, "count"),
        "functions.values.self_s": (self_s("functions.values"), "s"),
        "functions.lp_norm.calls": (calls("functions.lp_norm"), "count"),
        "functions.lp_norm.self_s": (self_s("functions.lp_norm"), "s"),
        "functions.witness_for.self_s":
            (self_s("functions.witness_for"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import bifrac
    import bifrac.cli
    if Path(bifrac.__file__).resolve().parent != src / "bifrac":
        print(f"error: imported bifrac from {bifrac.__file__}",
              file=sys.stderr)
        return 2

    refs = manifest["references"]
    workload, seed = manifest["workload"], manifest["seed"]
    paths = manifest["paths"]

    # warm-up: the tiny pass exercises every code path once, untimed
    warm = Runner(bifrac.cli, W.build_pass(workload, seed, "tiny", refs),
                  paths)
    warm.run_pass()

    runner = Runner(bifrac.cli,
                    W.build_pass(workload, seed, manifest["size"], refs),
                    paths)
    result = {}
    if args.trace:
        from tracing import Tracer
        plain = runner.run_for(args.seconds / 2.0)
        tracer = Tracer(bifrac)
        tracer.install()
        try:
            traced = runner.run_for(args.seconds / 2.0)
        finally:
            tracer.uninstall()
        rows = sum(inv.units for inv in runner.invocations
                   if inv.kind == "sweep") * len(traced)
        cfg = runner.invocations[0].config
        layers = layer_metrics(tracer, len(traced), rows,
                               cfg["n1"] + cfg["n2"],
                               median(traced) - median(plain))
        if args.trace_file:
            tracer.write_jsonl(args.trace_file, {
                "workload": workload, "seed": seed,
                "traced_passes": len(traced)})
        result["layers"] = layers
    else:
        runner.run_for(args.seconds)

    result.update({
        "attempted": runner.attempted + warm.attempted,
        "failed": runner.failed + warm.failed,
        "reasons": warm.reasons + runner.reasons,
        "pass_times": runner.pass_times,
        "invocation_times": runner.invocation_times,
        "units_per_pass": sum(inv.units for inv in runner.invocations),
        "rel_err": max(runner.rel_errs) if runner.rel_errs else None,
        "slope_dev": max(runner.slope_devs) if runner.slope_devs
        else None,
        "bars": runner.bars,
        "covered": runner.covered,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
