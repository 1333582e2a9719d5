"""Set-up cost of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC CONFIG WORKLOAD

Times importing bifrac (numpy and scipy included), parsing the
workload's config and building its OperatorConfig and witnesses, and
prints {"setup_s": seconds} as one JSON line.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


def main(src: str, config: str, workload: str) -> int:
    sys.path.insert(0, src)
    import bifrac.cli  # noqa: F401  (the module the workloads drive)
    from bifrac import (Exponent, classify_bilinear, homogeneous_lambda,
                        make_config, witness_for)
    from bifrac.functions import descriptor_from_dict

    with open(config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    n1, n2, m = cfg["n1"], cfg["n2"], cfg["m"]
    # a sweep config carries no exponents: build its (2, 2, 2) member
    p1, p2, q = (Exponent.from_value(cfg.get(k, "2"))
                 for k in ("p1", "p2", "q"))
    lam = (Fraction(cfg["lambda"]) if "lambda" in cfg
           else homogeneous_lambda(n1, n2, m, p1, p2, q))
    oc = make_config(n1, n2, m, cfg["D1"], cfg["D2"], p1, p2, q, lam)
    witnesses = [descriptor_from_dict(d)
                 for d in cfg.get("witnesses", {}).values()]
    if workload == "blowup-rough":
        witnesses.extend(witness_for(oc, classify_bilinear(oc).clause))
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "witnesses": len(witnesses)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
