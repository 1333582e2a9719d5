"""Command-line interface: exit codes, output shapes and determinism."""

import json
import subprocess
import sys

import pytest

from bifrac import (BifracError, ConjugateUndefinedError, DivergentNormError,
                    HypothesisError, NoWitnessError, NonIntegrableError,
                    RankDeficientStackError, cli)
from bifrac.cli import main


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


BASE = {"n1": 1, "n2": 1, "m": 1, "D1": [[1]], "D2": [[1]]}


def test_classify_bounded_exit_zero(tmp_path, capsys):
    cfg = dict(BASE, p1="2", p2="2", q="2", **{"lambda": "3/2"})
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "classify"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["bounded"] is True and record["clause"] == "Accepted"


def test_classify_unbounded_exit_one(tmp_path, capsys):
    cfg = {"n1": 1, "n2": 1, "m": 2, "D1": [[1, 0]], "D2": [[2, 0]],
           "p1": "2", "p2": "2", "q": "2", "lambda": "1"}
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "classify"], capsys)
    assert code == 1
    assert json.loads(out)["clause"] == "RankStackDeficient"


def test_out_of_hypothesis_exit_two(tmp_path, capsys):
    cfg = dict(BASE, p1="2", p2="2", q="2", **{"lambda": "2"})
    code, _ = run_cli(["--config", write_config(tmp_path, cfg),
                       "--mode", "classify"], capsys)
    assert code == 2


def test_malformed_config_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["--config", str(path), "--mode", "classify"]) == 2
    path.write_bytes(b"\xff{}")
    assert main(["--config", str(path), "--mode", "classify"]) == 2
    assert main(["--config", str(tmp_path / "absent.json"),
                 "--mode", "classify"]) == 2


@pytest.mark.parametrize("payload", [[1, 2], {"mode": []}])
def test_malformed_top_level_exits_two(tmp_path, capsys, payload):
    """A config that is not an object, or whose mode is not a string,
    is refused as invalid input when no --mode is given."""
    code = main(["--config", write_config(tmp_path, payload)])
    assert code == 2 and capsys.readouterr().out == ""


def test_auto_lambda_is_echoed(tmp_path, capsys):
    cfg = dict(BASE, p1="2", p2="2", q="2")
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "classify"], capsys)
    assert code == 0
    assert json.loads(out)["lambda_resolved"] == "3/2"


def test_sweep_row_count_and_content(tmp_path, capsys):
    cfg = dict(BASE, sweep={"divisor": 2})
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "sweep"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "inv_p1,inv_p2,inv_q,bounded,clause"
    assert len(lines) == 1 + 27
    assert "1/2,1/2,1/2,true,Accepted" in lines


def test_sweep_rejects_bad_divisor(tmp_path, capsys):
    cfg = dict(BASE, sweep={"divisor": 1})
    assert main(["--config", write_config(tmp_path, cfg),
                 "--mode", "sweep"]) == 2


def test_sweep_rejects_shape_mismatch(tmp_path, capsys):
    cfg = dict(BASE, D1=[[1, 0]], sweep={"divisor": 2})
    code = main(["--config", write_config(tmp_path, cfg), "--mode", "sweep"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "D1 must be 1x1" in captured.err


BILINEAR = dict(BASE, p1="2", p2="2", q="2")
NAN, INF = float("nan"), float("inf")
HUGE = "1" + "0" * 400  # an exponent no float can hold
TINY = "1/" + HUGE      # a nonzero rational that rounds to 0.0
GAUSSIANS = {"f1": {"tag": "gaussian", "dim": 1},
             "f2": {"tag": "gaussian", "dim": 1}}
LINEAR = {"operator": "linear", "n": 1, "m": 1, "D": [[1]],
          "lambda": "1/2", "x": [0.0],
          "witnesses": {"f": {"tag": "indicator-ball", "dim": 1}}}
RADIAL = {"operator": "radial", "n": 1, "m": 1, "lambda": "3/2",
          "x": [0.0], "witnesses": {"f": {"tag": "gaussian", "dim": 1}}}


@pytest.mark.parametrize("mode, cfg, key", [
    ("classify", dict(BILINEAR, **{"lambda": 0.1}), "lambda"),
    ("classify", dict(BILINEAR, **{"lambda": 1.5}), "lambda"),
    ("classify", dict(BILINEAR, p1=2.0), "p1"),
    ("classify", dict(BILINEAR, p2=4.0), "p2"),
    ("classify", dict(BILINEAR, q=4.0), "q"),
    ("classify", dict(BILINEAR, n1="1"), "n1"),
    ("classify", dict(BILINEAR, n2=1.0), "n2"),
    ("sweep", dict(BASE, m=0), "m"),
    ("norm", dict(LINEAR, n=1.5), "n"),
    ("norm", dict(LINEAR, **{"lambda": 0.5}), "lambda"),
    ("norm", dict(RADIAL, n="1"), "n"),
    ("norm", dict(RADIAL, **{"lambda": 1.5}), "lambda"),
    ("norm", dict(LINEAR, x=[0.5, 1.0]), "x"),
    ("norm", dict(RADIAL, x=[]), "x"),
    ("norm", dict(BILINEAR, **{"lambda": "1/2"}, x=[0.5, 1.0],
                  witnesses={"f1": {"tag": "gaussian", "dim": 1},
                             "f2": {"tag": "gaussian", "dim": 1}}), "x"),
    ("norm", dict(RADIAL, quad={"scheme": "simpson"}), "quad"),
    ("norm", dict(RADIAL, quad=[3]), "quad"),
    ("norm", dict(LINEAR, quad={"max_depth": 3.5}), "quad"),
    ("probe", dict(BILINEAR, **{"lambda": "3/2"},
                   grid={"points_per_axis": 5.0}), "grid"),
    ("norm", dict(LINEAR, quad={"base_depth": -3}), "quad"),
    ("norm", dict(LINEAR, quad={"samples": True, "scheme": "qmc"}), "quad"),
    ("norm", dict(LINEAR, quad={"seed": -1, "scheme": "qmc"}), "quad"),
    ("norm", dict(LINEAR, quad={"truncation_radius": True}), "quad"),
    ("norm", dict(LINEAR, quad={"truncation_radius": NAN}), "quad"),
    ("norm", dict(LINEAR, quad={"truncation_radius": INF}), "quad"),
    ("norm", dict(LINEAR, quad={"truncation_radius": "8"}), "quad"),
    ("probe", dict(BILINEAR, **{"lambda": "3/2"},
                   grid={"half_width": NAN}), "grid"),
    ("norm", dict(LINEAR, x=[NAN]), "x[0]"),
    ("norm", dict(LINEAR, x=[True]), "x[0]"),
    ("probe", dict(BILINEAR, **{"lambda": "3/2"}, a_list=[0.5, 0.0],
                   witnesses={"f1": {"tag": "gaussian", "dim": 1},
                              "f2": {"tag": "gaussian", "dim": 1}}),
     "a_list[1]"),
    ("probe", dict(BILINEAR, **{"lambda": "3/2"}, a_list=[INF, 1.0],
                   witnesses={"f1": {"tag": "gaussian", "dim": 1},
                              "f2": {"tag": "gaussian", "dim": 1}}),
     "a_list[0]"),
    ("sweep", dict(BASE, sweep=8), "sweep"),
    ("sweep", dict(BASE, sweep=[]), "sweep"),
    ("sweep", dict(BASE, sweep={"divisor": 8, "divsor": 4}), "sweep"),
    ("norm", dict(BILINEAR, **{"lambda": "1/2"}, x=[0.5],
                  witnesses={"f1": {"tag": "gaussian", "dim": 1,
                                    "scale": NAN},
                             "f2": {"tag": "gaussian", "dim": 1}}),
     "witnesses.f1"),
    ("norm", dict(BILINEAR, **{"lambda": "1/2"}, x=[0.5],
                  witnesses={"f1": {"tag": "gaussian", "dim": 1,
                                    "scale": "a"},
                             "f2": {"tag": "gaussian", "dim": 1}}),
     "witnesses.f1"),
    ("norm", dict(BILINEAR, **{"lambda": "1/2"}, x=[0.5],
                  witnesses={"f1": {"tag": "gaussian", "dim": 1},
                             "f2": {"tag": "indicator-ball", "dim": 1,
                                    "center": [-INF]}}),
     "witnesses.f2"),
    ("norm", dict(BILINEAR, **{"lambda": "1/2"}, x=[0.5],
                  witnesses={"f1": {"tag": "dilated", "dim": 1, "a": 2.0,
                                    "inner": {"tag": "gaussian", "dim": 1,
                                              "scale": "a"}},
                             "f2": {"tag": "gaussian", "dim": 1}}),
     "witnesses.f1"),
    ("norm", dict(BILINEAR, **{"lambda": "1/2"}, x=[0.5],
                  witnesses={"f1": {"tag": "gaussian", "dim": 1},
                             "f2": {"tag": "indicator-ball", "dim": 1,
                                    "radius": True}}),
     "witnesses.f2"),
    ("norm", dict(LINEAR, witnesses={"f": {"tag": "power-log", "dim": 1,
                                           "p": [2.0]}}),
     "witnesses.f"),
    ("norm", dict(BILINEAR, n1=2, D1=[[1], [0]], **{"lambda": "1"}, x=[0.5],
                  witnesses={"f1": {"tag": "indicator-ball", "dim": 2,
                                    "center": [0.5]},
                             "f2": {"tag": "gaussian", "dim": 1}}),
     "witnesses.f1"),
    ("norm", dict(LINEAR, n=2, m=2, D=[[1, 0], [0, 1]], x=[0.5, 0.0],
                  witnesses={"f": {"tag": "indicator-ball", "dim": 2,
                                   "center": [0.5]}}), "witnesses.f"),
    ("classify", dict(BILINEAR, D1=5), "D1"),
    ("classify", dict(BILINEAR, D1=[[1, 0.5]]), "D1"),
    ("classify", dict(BILINEAR, D2={"a": 1}), "D2"),
    ("reduce", dict(BASE, D1=[["a"]]), "D1"),
    ("sweep", dict(BASE, D2=[[0.5]]), "D2"),
    ("norm", dict(LINEAR, D=[[None]]), "D"),
    ("norm", dict(LINEAR, n=2, witnesses={"f": {"tag": "gaussian",
                                                "dim": 2}}), "D"),
    ("norm", dict(LINEAR, D=[[1, 0]]), "D"),
    ("norm", dict(BILINEAR, n1=2, D1=[[1], [0]], **{"lambda": "3/2"},
                  x=[0.5],
                  witnesses={"f1": {"tag": "split-power-log", "dim": 2,
                                    "head": -1, "tail": 3},
                             "f2": {"tag": "gaussian", "dim": 1}}),
     "witnesses.f1"),
    ("classify", dict(BILINEAR, **{"lambda": True}), "lambda"),
    ("classify", dict(BILINEAR, p1=True), "p1"),
    ("classify", dict(BILINEAR, D1=[[True]]), "D1"),
    ("sweep", dict(BASE, D2=[[False]]), "D2"),
    ("reduce", {"D1": [[]], "D2": [[]]}, "D1"),
    ("reduce", {"D1": [], "D2": []}, "D1"),
    ("reduce", {"D1": [[1, 0]], "D2": [[1]]}, "D1"),
    ("probe", dict(BILINEAR, **{"lambda": "3/2"}, a_list=[1, 1],
                   grid={"points_per_axis": 5},
                   witnesses={"f1": {"tag": "gaussian", "dim": 1},
                              "f2": {"tag": "gaussian", "dim": 1}}),
     "a_list"),
    ("classify", dict(BILINEAR, p1="1/2"), "lambda"),
    ("norm", dict(BILINEAR, n1=2, D1=[[1], [0]], **{"lambda": "3/2"},
                  x=[0.25],
                  witnesses={"f1": {"tag": "split-power-log", "dim": 2,
                                    "head": 1, "tail": 1, "p": -2.0},
                             "f2": {"tag": "gaussian", "dim": 1}}),
     "witnesses.f1"),
    ("norm", dict(BILINEAR, n1=2, D1=[[1], [0]], **{"lambda": "3/2"},
                  x=[0.25],
                  witnesses={"f1": {"tag": "split-power-log", "dim": 2,
                                    "head": 1, "tail": 1, "p": 0.0},
                             "f2": {"tag": "gaussian", "dim": 1}}),
     "witnesses.f1"),
    ("classify", dict(BILINEAR, n1=2, D1="12"), "D1"),
    ("classify", dict(BILINEAR, D1=["1"]), "D1"),
    ("reduce", {"D1": "12", "D2": "3"}, "D1"),
    ("sweep", dict(BASE, D2="1"), "D2"),
    ("norm", dict(LINEAR, D="1"), "D"),
    ("norm", dict(BILINEAR, **{"lambda": "1/2"}, x=[0.5],
                  witnesses={"f1": {"tag": "gaussian", "dim": 2},
                             "f2": {"tag": "gaussian", "dim": 1}}),
     "witnesses.f1"),
    ("norm", dict(LINEAR, witnesses={"f": {"tag": "gaussian", "dim": 2}}),
     "witnesses.f"),
    ("norm", dict(RADIAL, witnesses={"f": {"tag": "gaussian", "dim": 2}}),
     "witnesses.f"),
    ("norm", dict(BILINEAR, **{"lambda": "1/2"}, x=[0.5],
                  witnesses=["f1", "f2"]), "witnesses"),
    ("probe", dict(BILINEAR, q="inf", **{"lambda": "1"}, a_list=[0.5, 1.0],
                   grid={"points_per_axis": 5},
                   witnesses={"f1": {"tag": "gaussian", "dim": 1},
                              "f2": {"tag": "gaussian", "dim": 1}}), "q"),
    ("probe", dict(BILINEAR, **{"lambda": "3/2"}, a_list=[0.5, 1.0],
                   grid={"points_per_axis": 5},
                   witnesses={"f1": {"tag": "power-log", "dim": 1, "p": 1.0},
                              "f2": {"tag": "gaussian", "dim": 1}}),
     "witnesses.f1"),
    ("probe", dict(BILINEAR, p1=HUGE, q="4", **{"lambda": "7/4"},
                   witnesses=GAUSSIANS), "p1"),
    ("classify", dict(BILINEAR, p1="1/0"), "p1"),
    # y / a overflows a float on the truncation box
    ("probe", dict(BILINEAR, **{"lambda": "3/2"}, a_list=[1e-320, 1],
                   grid={"points_per_axis": 5}, witnesses=GAUSSIANS),
     "a_list"),
])
def test_inexact_or_malformed_inputs_exit_two(tmp_path, capsys, mode, cfg,
                                              key):
    code = main(["--config", write_config(tmp_path, cfg), "--mode", mode])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.split()[1].rstrip(":") == key


@pytest.mark.parametrize("mode, cfg, message", [
    ("classify", dict(BASE, p1="2", p2="2"),
     "config is missing required keys: ['q']"),
    ("norm", dict(LINEAR, x=0.5), "x: expected a list of numbers, got 0.5"),
    ("norm", dict(BILINEAR, **{"lambda": "3/2"}, x=[0.5]),
     "config is missing witness descriptor 'f1'"),
    ("norm", dict(LINEAR, operator="trilinear"),
     "unknown operator 'trilinear'"),
    ("classify", dict(BILINEAR, D1=[[1], [1, 0]]), "D1: ragged rows"),
    ("classify", dict(BILINEAR, p1="1/0"), "p1: zero denominator in '1/0'"),
    ("probe", dict(BILINEAR, p1=HUGE, q="4", **{"lambda": "7/4"},
                   witnesses=GAUSSIANS),
     "p1: too large for the numeric modes"),
    ("norm", dict(BILINEAR, q=HUGE, **{"lambda": "7/4"}, witnesses=GAUSSIANS,
                  grid={"points_per_axis": 5}),
     "q: too large for the numeric modes"),
    ("norm", dict(BILINEAR, D1=[[HUGE]], **{"lambda": "3/2"}, x=[0.5],
                  witnesses=GAUSSIANS), "D1: too large for the numeric modes"),
    ("norm", dict(LINEAR, D=[[HUGE]]), "D: too large for the numeric modes"),
    ("norm", dict(RADIAL, **{"lambda": HUGE}),
     "lambda: too large for the numeric modes"),
    ("probe", dict(BILINEAR, p1=TINY, q="4", **{"lambda": "7/4"},
                   witnesses=GAUSSIANS),
     "p1: too small for the numeric modes"),
    ("norm", dict(RADIAL, **{"lambda": TINY}),
     "lambda: too small for the numeric modes"),
    ("norm", dict(BILINEAR, D1=[[TINY]], **{"lambda": "3/2"}, x=[0.5],
                  witnesses=GAUSSIANS), "D1: too small for the numeric modes"),
    ("probe", dict(BILINEAR, **{"lambda": "3/2"}, a_list=[1e-320, 1],
                   grid={"points_per_axis": 5}, witnesses=GAUSSIANS),
     "a_list: dilation factor 1e-320 is too small"),
    ("probe", dict(BILINEAR, **{"lambda": "3/2"}, a_list=[1e-300, 1],
                   grid={"points_per_axis": 5}, witnesses=GAUSSIANS),
     "a_list: dilation factor 1e-300 is too small"),
    ("norm", dict(BILINEAR, **{"lambda": "3/2"}, x=[0.5], witnesses=dict(
        GAUSSIANS, f1={"tag": "dilated", "dim": 1, "a": 1e-300,
                       "inner": GAUSSIANS["f1"]})),
     "witnesses.f1: its values overflow inside the truncation box of "
     "radius 8.0"),
    # the dilated Gaussians underflow to 0 at every leaf point
    ("probe", dict(BILINEAR, **{"lambda": "3/2"}, a_list=[1e-150, 1],
                   grid={"points_per_axis": 5}, witnesses=GAUSSIANS),
     "a_list: dilation factor 1e-150 gives a zero grid norm, a nonpositive "
     "norm ratio"),
    # none of the six leaf points at max depth 1 lies in the unit ball
    ("norm", dict(LINEAR, quad={"max_depth": 1}),
     "quad: the partition is too coarse to sample an input that breaks at "
     "-1.0"),
    # the same on a 2-d block, which has no live ranges
    ("norm", dict(LINEAR, n=2, m=2, D=[[1, 0], [0, 1]], **{"lambda": "1"},
                  x=[0.0, 0.0], quad={"max_depth": 1},
                  witnesses={"f": {"tag": "indicator-ball", "dim": 2}}),
     "quad: the partition is too coarse to sample an input that breaks at "
     "-1.0"),
    # the witness misses the truncation box at every dilation factor
    ("probe", dict(BILINEAR, **{"lambda": "3/2"}, a_list=[0.5, 1.0],
                   grid={"points_per_axis": 5},
                   witnesses=dict(GAUSSIANS, f1={"tag": "indicator-ball",
                                                 "dim": 1,
                                                 "center": [100.0]})),
     "witnesses: the grid norm is zero at every dilation factor, a "
     "nonpositive norm ratio"),
])
def test_config_errors_name_their_cause(tmp_path, capsys, mode, cfg,
                                        message):
    code = main(["--config", write_config(tmp_path, cfg), "--mode", mode])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_an_exponent_too_large_for_a_float_is_exact_in_classify(tmp_path,
                                                               capsys):
    """Only the numeric modes refuse an exponent beyond float range:
    `classify` decides it exactly, here as a homogeneity failure."""
    cfg = dict(BILINEAR, p1=HUGE, q="4", **{"lambda": "7/4"})
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "classify"], capsys)
    assert code == 1
    assert json.loads(out)["clause"] == "HomogeneityFailed"


def test_bilinear_norm_without_x_is_the_grid_norm(tmp_path, capsys):
    """A bilinear `norm` config without `x` prints the discrete L^q norm
    over its grid, the record of `lq_norm_on_grid`."""
    from fractions import Fraction
    from bifrac.classifier import make_config
    from bifrac.functions import Gaussian
    from bifrac.operators import GridSpec, QuadratureSpec, lq_norm_on_grid
    cfg = dict(BILINEAR, **{"lambda": "3/2"}, witnesses=GAUSSIANS,
               grid={"points_per_axis": 5})
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "norm"], capsys)
    oc = make_config(1, 1, 1, [[1]], [[1]], 2, 2, 2, Fraction(3, 2))
    est = lq_norm_on_grid(oc, Gaussian(dim=1), Gaussian(dim=1),
                          GridSpec(points_per_axis=5), QuadratureSpec())
    assert code == 0
    assert out == json.dumps(est.to_record(), sort_keys=True,
                             indent=2) + "\n"


def test_exact_modes_do_not_import_scipy(tmp_path):
    """scipy loads only with the quadrature that needs it: importing
    the CLI and classifying leave it unimported."""
    path = write_config(tmp_path, dict(BASE, p1="2", p2="2", q="2"))
    script = ("import sys\n"
              "import bifrac.cli\n"
              f"code = bifrac.cli.main(['--config', {path!r}, "
              "'--mode', 'classify'])\n"
              "print(code, sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_grid_norm_does_not_import_scipy(tmp_path):
    """The d > 2 grid evaluation needs no scipy either: `norm` of 2+2
    Gaussians on a 3x3 grid leaves it unimported."""
    eye = [[1, 0], [0, 1]]
    gauss = {"tag": "gaussian", "dim": 2}
    path = write_config(tmp_path, {
        "n1": 2, "n2": 2, "m": 2, "D1": eye, "D2": eye, "p1": "2",
        "p2": "2", "q": "2", "lambda": "3",
        "witnesses": {"f1": gauss, "f2": gauss},
        "grid": {"points_per_axis": 3}, "quad": {"max_depth": 5}})
    script = ("import sys\n"
              "import bifrac.cli\n"
              f"code = bifrac.cli.main(['--config', {path!r}, "
              "'--mode', 'norm'])\n"
              "print(code, sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_sweep_matches_direct_classification(tmp_path, capsys):
    import random
    from fractions import Fraction
    from bifrac.classifier import HypothesisError, classify_bilinear, \
        make_config
    cfg = dict(BASE, sweep={"divisor": 8})
    _, out = run_cli(["--config", write_config(tmp_path, cfg),
                      "--mode", "sweep"], capsys)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    rng = random.Random(3)
    from bifrac.exponents import Exponent, homogeneous_lambda
    for row in rng.sample(rows, 50):
        a1, a2, b = (Fraction(v) for v in row[:3])
        p1, p2, q = Exponent(a1), Exponent(a2), Exponent(b)
        lam = homogeneous_lambda(1, 1, 1, p1, p2, q)
        try:
            v = classify_bilinear(make_config(1, 1, 1, [[1]], [[1]],
                                              p1, p2, q, lam))
            assert row[3] == ("true" if v.bounded else "false")
        except HypothesisError:
            assert row[3] == "false" and row[4] == "LambdaOutOfRange"


def test_divisor_64_sweep_digest(tmp_path, capsys):
    """SHA-256 of the stdout of the largest sweep, the 4d pair at divisor
    64 (274,625 rows), as the per-row `decide` loop printed it."""
    import hashlib
    cfg = {"n1": 2, "n2": 2, "m": 2, "D1": [[1, 0], [0, 0]],
           "D2": [[0, 0], [0, 1]], "sweep": {"divisor": 64}}
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "sweep"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "37fb5963c1b853f8d951eddaf45f226bf24f4946d873d7d5eadb09564def7689")


def test_reduce_joint_form(tmp_path, capsys):
    cfg = {"D1": [[1, 1]], "D2": [[1, -1]]}
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "reduce"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["joint"]["block_widths"] == [1, 0, 1]
    assert record["joint"]["reconstructs"] is True


def test_reduce_deficient_stack_reports_unavailable(tmp_path, capsys):
    cfg = {"D1": [[1, 0]], "D2": [[2, 0]]}
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "reduce"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["joint"] == "unavailable"
    assert record["single"]["D1"]["reconstructs"] is True


def test_norm_mode_closed_form(tmp_path, capsys):
    cfg = dict(BASE, p1="2", p2="2", q="2", **{"lambda": "1/2"},
               witnesses={"f1": {"tag": "indicator-ball", "dim": 1},
                          "f2": {"tag": "indicator-ball", "dim": 1}},
               x=[0.0])
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "norm"], capsys)
    assert code == 0
    value = json.loads(out)["value"]
    assert value == pytest.approx(4.4183, rel=1e-2)


def test_norm_mode_rejects_non_integrable(tmp_path, capsys):
    bilinear = dict(BASE, p1="1", p2="1", q="1/2", **{"lambda": "2"},
                    witnesses={"f1": {"tag": "indicator-ball", "dim": 1},
                               "f2": {"tag": "indicator-ball", "dim": 1}},
                    x=[0.0])
    radial = dict(RADIAL, **{"lambda": "1"}, x=[0.0])
    for cfg in (bilinear, radial):
        assert main(["--config", write_config(tmp_path, cfg),
                     "--mode", "norm"]) == 2


def test_byte_identical_outputs(tmp_path):
    """Identical configs produce identical bytes, via both
    the --out file and a subprocess run."""
    cfg = dict(BASE, p1="2", p2="2", q="2", **{"lambda": "1/2"},
               witnesses={"f1": {"tag": "gaussian", "dim": 1},
                          "f2": {"tag": "gaussian", "dim": 1}},
               x=[0.5])
    path = write_config(tmp_path, cfg)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        proc = subprocess.run(
            [sys.executable, "-m", "bifrac.cli", "--config", path,
             "--mode", "norm", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_probe_mode_reports_slope_and_blowup(tmp_path, capsys):
    cfg = dict(BASE, p1="2", p2="2", q="2", **{"lambda": "3/2"},
               witnesses={"f1": {"tag": "gaussian", "dim": 1},
                          "f2": {"tag": "gaussian", "dim": 1}},
               a_list=[0.5, 1.0, 2.0],
               grid={"points_per_axis": 17})
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "probe"], capsys)
    assert code == 0
    record = json.loads(out)
    assert abs(record["dilation"]["slope"]) < 0.1
    assert "blowup" not in record  # bounded config has no blowup probe


def test_probe_out_csv_writes_the_dilation_table(tmp_path, capsys):
    """With --out *.csv and an a_list, stdout is the JSON record and the
    file holds the a,ratio,err table."""
    cfg = dict(BILINEAR, **{"lambda": "3/2"}, a_list=[0.5, 1.0, 2.0],
               witnesses={"f1": {"tag": "gaussian", "dim": 1},
                          "f2": {"tag": "gaussian", "dim": 1}},
               grid={"points_per_axis": 5})
    table = tmp_path / "table.csv"
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "probe", "--out", str(table)], capsys)
    assert code == 0
    dilation = json.loads(out)["dilation"]
    lines = table.read_bytes().decode("utf-8").split("\n")
    assert lines[0] == "a,ratio,err" and lines[-1] == ""
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    assert rows == [list(r) for r in zip(dilation["dilations"],
                                         dilation["ratios"],
                                         dilation["ratio_errors"])]


@pytest.mark.parametrize("mode, cfg, section, name", [
    ("norm", dict(LINEAR, quad={"max_dept": 3, "seed": 1}), "quad",
     "max_dept"),
    ("probe", dict(BILINEAR, **{"lambda": "3/2"}, grid={"points": 9}),
     "grid", "points"),
    ("norm", dict(LINEAR, quad={"scheme": "qmc"}), "quad", "scheme"),
    ("norm", dict(LINEAR, quad={"samples": 64}), "quad", "samples"),
])
def test_unknown_setting_is_refused_by_name(tmp_path, capsys, mode, cfg,
                                            section, name):
    code = main(["--config", write_config(tmp_path, cfg), "--mode", mode])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.split()[1] == section + ":"
    assert repr(name) in captured.err


@pytest.mark.parametrize("flag", ["--depth", "--seed", "--samples",
                                  "--grid", "--trunc"])
def test_removed_override_flags_exit_two(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["--config", write_config(tmp_path, LINEAR), "--mode", "norm",
              flag, "3"])
    assert exc.value.code == 2


def test_exponent_range_probe_without_infinite_p2(tmp_path, capsys):
    """An ExponentRangeFailed config whose constant witness belongs on
    side 1 gets a blowup record instead of a divergent-norm crash."""
    cfg = {"n1": 1, "n2": 1, "m": 1, "D1": [[1]], "D2": [[0]],
           "p1": "inf", "p2": "2", "q": "4", "lambda": "7/4",
           "grid": {"points_per_axis": 9}}
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "probe"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["verdict"]["clause"] == "ExponentRangeFailed"
    assert "blowup" in record


def test_single_ratio_blowup_is_not_monotone_growth(tmp_path, capsys):
    """A family of one pair gives one ratio, which shows no growth."""
    cfg = dict(BASE, p1="inf", p2="1", q="2", **{"lambda": "3/2"},
               grid={"points_per_axis": 9})
    code, out = run_cli(["--config", write_config(tmp_path, cfg),
                         "--mode", "probe"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["verdict"]["clause"] == "ExponentRangeFailed"
    assert len(record["blowup"]["ratios"]) == 1
    assert record["blowup"]["monotone_growth"] is False


@pytest.mark.parametrize("f1, q, message", [
    # the witness misses the truncation box, so every ratio is zero
    ({"tag": "indicator-ball", "dim": 1, "center": [100.0]}, "2",
     "nonpositive norm ratio"),
    # a constant has no finite L^2 norm
    ({"tag": "constant", "dim": 1, "value": 1.0}, "2", "not in L^p"),
    # the slope law is stated for q < inf
    ({"tag": "gaussian", "dim": 1}, "inf", "q < inf"),
    # a zero witness leaves the norm ratio undefined
    ({"tag": "constant", "dim": 1, "value": 0.0}, "2",
     "norm ratio undefined"),
], ids=["f10-nonpositive norm ratio", "f11-not in L^p",  # f1 and message
        "f12-q < inf", "f13-norm ratio undefined"])
def test_numeric_probe_failures_exit_two(tmp_path, capsys, f1, q, message):
    cfg = dict(BILINEAR, q=q, **{"lambda": "3/2"}, a_list=[0.5, 1.0],
               witnesses={"f1": f1, "f2": {"tag": "gaussian", "dim": 1}},
               grid={"points_per_axis": 5})
    code = main(["--config", write_config(tmp_path, cfg), "--mode", "probe"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


# -- the refusal contract: refusals exit 2, bugs propagate ------------


@pytest.mark.parametrize("bug", [ZeroDivisionError, TypeError])
def test_a_bug_inside_a_command_propagates(tmp_path, capsys, monkeypatch,
                                           bug):
    """Only a BifracError is a refusal: any other exception raised inside
    a command leaves main as itself, not as exit 2."""
    def broken(oc):
        raise bug("a program bug")

    monkeypatch.setattr(cli, "classify_bilinear", broken)
    path = write_config(tmp_path, dict(BILINEAR, **{"lambda": "3/2"}))
    with pytest.raises(bug, match="^a program bug$"):
        main(["--config", path, "--mode", "classify"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("error", [
    cli.ConfigError, HypothesisError, NonIntegrableError,
    RankDeficientStackError, ConjugateUndefinedError, DivergentNormError,
    NoWitnessError])
def test_every_refusal_is_a_bifrac_error(error):
    assert issubclass(error, BifracError)


PUBLIC_NAMES = {
    "BifracError", "ConjugateUndefinedError", "DivergentNormError",
    "HypothesisError", "NoWitnessError", "NonIntegrableError",
    "RankDeficientStackError",
    "Exponent", "conjugate", "homogeneous_lambda", "parse_rational",
    "JointNormalForm", "RationalMatrix", "SingleNormalForm",
    "joint_normal_form", "rank", "signature", "single_normal_form",
    "Clause", "OperatorConfig", "Verdict", "classify_bilinear", "decide",
    "make_config",
    "Constant", "Dilated", "Gaussian", "IndicatorBall", "MollifiedDelta",
    "NormEstimate", "PowerLog", "SplitPowerLog", "TestFunction",
    "Translated", "dilate", "lp_norm", "translate", "witness_for",
    "GridSpec", "ProbeReport", "QuadratureSpec", "blowup_probe",
    "dilation_slope", "eval_bilinear", "eval_linear", "eval_radial",
    "lq_norm_on_grid", "norm_ratio", "predicted_dilation_slope",
}


def test_public_names_are_pinned():
    """`from bifrac import *` binds exactly the pinned public names, so
    a name enters or leaves the public surface only on purpose."""
    namespace = {}
    exec("from bifrac import *", namespace)
    del namespace["__builtins__"]
    assert len(PUBLIC_NAMES) == 49
    assert set(namespace) == PUBLIC_NAMES


def test_a_refusal_is_one_error_line(tmp_path):
    """Run as a program, a malformed config exits 2 with exactly one
    `error:` line on stderr, no traceback and nothing on stdout."""
    path = write_config(tmp_path, dict(BILINEAR, D1="12"))
    proc = subprocess.run(
        [sys.executable, "-m", "bifrac.cli", "--config", path,
         "--mode", "classify"], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: D1: expected a list of rows, got '12'\n"
