"""Fast self-test of the benchmark (one to two minutes).

    python3 perfbench/smoke.py

Checks, at tiny size, that:

* every workload runs clean: correct, no failed invocation, every
  end-to-end metric present and positive;
* a traced run reports every per-layer metric of BENCHMARK.json;
* a corrupted sweep digest, or corrupted references, make invocations
  fail: they are counted in `failed` (so in fail_ratio) and the run is
  not correct;
* in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--seconds", "1", "--size", "tiny", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layers = {m["name"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        name = w["name"]
        code, res = bench("--workload", name, "--seed", "7", "--trace", "0")
        expect(code == 0 and res is not None and res["correct"]
               and res["failed"] == 0 and res["attempted"] > 0
               and set(res["metrics"]) == e2e
               and all(m["value"] > 0 for m in res["metrics"].values()),
               f"{name}: clean run")
        corruption = "digest" if name == "sweep-ranks" else "reference"
        code, res = bench("--workload", name, "--seed", "7", "--trace", "0",
                          "--corrupt", corruption)
        expect(code == 0 and res is not None and not res["correct"]
               and 0 < res["failed"] <= res["attempted"],
               f"{name}: corrupted {corruption} counted as failures")
        code, res = bench("--workload", name, "--seed", "7", "--trace", "1")
        expect(code == 0 and res is not None and res["correct"]
               and set(res["metrics"]) == layers,
               f"{name}: traced run reports every per-layer metric")

    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, res = bench("--workload", "sweep-ranks", "--seed", "1",
                          "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and res is None,
           "without the sources: non-zero exit and no result")

    print("smoke: " + ("all checks passed" if not problems
                       else f"{len(problems)} check(s) failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
