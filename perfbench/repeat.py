"""Repeat benchmark runs over seeds and report how steady they are.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1]
        [--workloads NAME ...] [--trace 0|1] [--out FILE]

Runs `perfbench/run.py` once per (workload, seed), one run at a time,
with the run length of BENCHMARK.json.  For every end-to-end metric it
prints the median of the runs and the spread, i.e. the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound; a spread at or above a third of
its bound is flagged.  --out writes the figures, with the machine's
nproc and Python, numpy and scipy versions, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from stats import median, quartile_spread  # noqa: E402


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {"machine": machine(), "run_seconds": spec["run_seconds"],
               "runs": args.runs, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        attempted = failed = 0
        all_correct = True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable] + spec["command"][1:] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit "
                                 f"{proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            all_correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"{workload}: correct={all_correct} "
              f"failed {failed}/{attempted}")
        rows = {}
        for m in metrics:
            vals = values[m["name"]]
            spread = quartile_spread(vals)
            row = {"median": median(vals), "spread": spread,
                   "values": vals, "unit": m["unit"]}
            flag = ""
            if "bound" in m:
                row["bound"] = m["bound"]
                if m["name"] != "setup_s" and not (
                        spread is not None and spread < m["bound"] / 3):
                    flag = "  <-- spread >= bound/3"
                    steady = False
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {m['name']:<40} median {row['median']:.6g} "
                  f"{m['unit']:<6} spread {shown}"
                  + (f"  bound {m['bound']}" if "bound" in m else "")
                  + flag)
            rows[m["name"]] = row
        summary["workloads"][workload] = {
            "correct": all_correct, "attempted": attempted,
            "failed": failed, "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
