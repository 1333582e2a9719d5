"""Benchmark of bifrac: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run writes the workload's configs
(generated from the seed) under .perfbench-out/, measures set-up in
fresh interpreters, then starts one single-threaded worker process that
drives `bifrac.cli.main` in-process, pass after pass, for S seconds
and checks every output against references.json.

It prints every metric by name with its unit, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, from a run in which half the
time is untraced and half is traced (spans are written to
.perfbench-out/traces/).  A run that cannot be made (no sources, a
child that crashes or hangs) exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402
from stats import median, tail  # noqa: E402

SETUP_RUNS = 3        # measured set-ups per run, after one discarded
SETUP_TIMEOUT = 60.0
RUN_LIMIT = 170.0     # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd, timeout: float, env: dict) -> str:
    """Run a child to completion; returns its last stdout line."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{Path(cmd[1]).name} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{Path(cmd[1]).name} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return lines[-1]


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=W.SIZES, default="full",
                    help="tiny runs the workload at smoke-test size")
    ap.add_argument("--corrupt", choices=("digest", "reference"),
                    help="break one stored expectation (smoke test)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "bifrac" / "__init__.py").is_file():
        print(f"error: no bifrac sources under {src}", file=sys.stderr)
        return 2
    with open(HERE / "references.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    if args.corrupt:
        refs = W.corrupt(refs, args.corrupt)

    started = time.perf_counter()
    env = child_env(src)
    out_dir = ROOT / ".perfbench-out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for size in dict.fromkeys(("tiny", args.size)):
            for inv in W.build_pass(args.workload, args.seed, size, refs):
                path = work / f"{inv.name}.json"
                path.write_text(json.dumps(inv.config), encoding="utf-8")
                paths[inv.name] = str(path)
        first = next(p for n, p in paths.items()
                     if n.startswith(args.size + "-"))
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "paths": paths, "references": refs}), encoding="utf-8")

        setup = []
        if not args.trace:
            cmd = [sys.executable, str(HERE / "setup_probe.py"), str(src),
                   first, args.workload]
            for i in range(SETUP_RUNS + 1):
                line = run_child(cmd, SETUP_TIMEOUT, env)
                if i:
                    setup.append(json.loads(line)["setup_s"])

        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src),
               "--manifest", str(manifest), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            traces = out_dir / "traces"
            traces.mkdir(exist_ok=True)
            trace_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
            cmd += ["--trace-file", str(trace_file)]
        budget = RUN_LIMIT - (time.perf_counter() - started)
        res = json.loads(run_child(cmd, budget, env))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for reason in res["reasons"]:
        print(f"  failed: {reason}")

    if args.trace:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in res["layers"].items()}
        print(f"trace file {trace_file.relative_to(ROOT)}")
    else:
        wall = median(res["pass_times"])
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "units_per_s": {"value": res["units_per_pass"] / wall,
                            "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        timings = {"setup": setup, "pass": res["pass_times"]}
        timings.update(res["invocation_times"])
        for name, values in timings.items():
            t = tail(values)
            extra = f"  p{t[0]} {t[1]:.6g} s" if t else "  (no tail: n < 11)"
            print(f"timing {name:<8} median {median(values):.6g} s{extra}  "
                  f"n {len(values)}")
        coverage = res["covered"] / res["bars"] if res["bars"] else None
        print(f"rel_err {fmt(res['rel_err'])}  slope_dev "
              f"{fmt(res['slope_dev'])}  bar_coverage {fmt(coverage)} "
              f"({res['covered']}/{res['bars']})")

    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
