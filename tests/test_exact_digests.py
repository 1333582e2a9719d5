"""Byte-level pins of the exact modes.

`classify`, `reduce` and `sweep` output must not change when the
engine is refactored.  The digests below are SHA-256 sums of
"<exit code>\\n<stdout>", recorded from the implementation that
computed every rank inside `classify_bilinear`; the sweep now calls the
exponent-only decision with one precomputed rank signature, so these
pins, not a comparison of the decision with itself, guard the
verdicts.
"""

import hashlib
import json

import pytest

from bifrac.cli import main

# One pair per rank pattern of the bilinear characterization (the five
# used by the benchmark, conjugated so that the normal forms are not
# trivial), plus a rectangular pair with n1 < m < n2.
PAIRS = {
    "4a": ([[2, 1], [1, 1]], [[1, "1/2"], [3, -1]]),
    "4b": ([[0, 0], [0, 0]], [[1, 2], [3, 4]]),
    "4c": ([[1, 2], [2, 4]], [["1/3", 1], [1, 0]]),
    "4d": ([[1, 2], [2, 4]], [[3, -1], [0, 0]]),
    "stack-deficient": ([[1, 2], [0, 0]], [[-2, -4], ["1/2", 1]]),
    "rectangular": ([["1/2", 1]], [[1, -1], [2, -2], [0, 0]]),
}

# (p1, p2, q, lambda) for `classify`: accepted and failing clauses,
# infinite exponents, an exponent below one, a homogeneity failure and
# an order outside the theorem's range.
EXPONENTS = [
    ("2", "2", "2", "auto"),
    ("3/2", "3", "2", "auto"),
    ("3", "3", "3/2", "auto"),
    ("1", "2", "2", "auto"),
    ("1", "1", "1", "auto"),
    ("inf", "2", "4", "auto"),
    ("2", "inf", "inf", "auto"),
    ("4/3", "4", "inf", "auto"),
    ("3/2", "3/2", "3", "auto"),
    ("2", "1/2", "2", "1"),
    ("2", "2", "2", "1"),
    ("2", "2", "2", "9"),
]

DIGESTS = {
    "4a": {
        "sweep": "c8fb896d87af24dd6f2f40e5f52ecc20"
            "24d83ae507b84584a45d0e03f44b2cb1",
        "reduce": "7076ff95449a00f371b3eba365285b22"
            "e764058176035164a0ccd3696e8ed6c1",
        "classify": "a5ed94e964afe119f1ec88dde5ebb62a"
            "53a06b673b6b86217bff46fc5a094a8b",
    },
    "4b": {
        "sweep": "8db6ef16fb572e29b2299f9eec237e32"
            "286d4a613cd9a3ea3910f59885a2baba",
        "reduce": "42b1ed0f5351d71ab23115bfc6990a68"
            "76379e32f30b169267accafa7010b4ca",
        "classify": "17cb735a226114b684ce1be81a82b172"
            "396c1daeb3d367e86e0c19c470f75894",
    },
    "4c": {
        "sweep": "5855ac19a6ed02223f28f399e8675b85"
            "655e0c2e796439826527845e00d31476",
        "reduce": "bdb4274c92eee5ce2f3bbfb652273724"
            "fe982dd9c32cdea8c9c5a24bf4b28210",
        "classify": "e4845ee20bc69cc7215779389bf9a73d"
            "cc878ac65f0b38a9b4eed046ba8945e9",
    },
    "4d": {
        "sweep": "026c7f19a983cf373cc97569fb20986c"
            "d58f16d2cca5604e3f8d41be342d46d8",
        "reduce": "845e6d8a47bd867f722e5f520bcc5d4b"
            "7c681752954cad0cf5fa42caf1f38568",
        "classify": "86d9b6d3ef608c774cd90d61b595c444"
            "814d3d0a1cc1e5f72c4badb59a69b096",
    },
    "stack-deficient": {
        "sweep": "b93bd2359511eb3e454f54e7b2aff2b7"
            "ccc0301fb1cd14282b7eaab0946326d9",
        "reduce": "421a77131ae57afd0c588840cf854898"
            "e2c1db7512f987583ff546dbe2a05f5e",
        "classify": "bb96397726cc33cd7f31937d7f811f90"
            "ca8537b48ef92bd40be8901d27628593",
    },
    "rectangular": {
        "sweep": "f656b01ff6f1844ac6c0a264c4c430de"
            "9306513657dfd4f0720ba1bac45f061a",
        "reduce": "79cd3ef43eda7c22b1ec9253f7e953bd"
            "3f0e5ef452dd0093237e8ad15ac85866",
        "classify": "c401e029671e5cc0015cab7c7d9504cd"
            "3b129f8b6e48d096176d14521c67dbd1",
    },
}


def _run(tmp_path, capsys, mode, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["--config", str(path), "--mode", mode])
    return f"{code}\n{capsys.readouterr().out}"


def exact_outputs(name, tmp_path, capsys):
    """The text whose digest is pinned, per mode, for one pair."""
    D1, D2 = PAIRS[name]
    base = {"n1": len(D1), "n2": len(D2), "m": len(D1[0]),
            "D1": D1, "D2": D2}
    classify = "".join(
        _run(tmp_path, capsys, "classify",
             dict(base, p1=p1, p2=p2, q=q, **{"lambda": lam}))
        for p1, p2, q, lam in EXPONENTS)
    return {
        "sweep": _run(tmp_path, capsys, "sweep",
                      dict(base, sweep={"divisor": 8})),
        "reduce": _run(tmp_path, capsys, "reduce", {"D1": D1, "D2": D2}),
        "classify": classify,
    }


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_exact_mode_digests(name, tmp_path, capsys):
    got = {mode: hashlib.sha256(text.encode("utf-8")).hexdigest()
           for mode, text in exact_outputs(name, tmp_path, capsys).items()}
    assert got == DIGESTS[name]
