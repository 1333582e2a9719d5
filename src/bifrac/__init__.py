"""Exact boundedness classification and numerical evaluation of
bilinear fractional integral operators."""

from .exponents import (BifracError, ConjugateUndefinedError, Exponent,
                        conjugate, homogeneous_lambda, parse_rational)
from .matrices import (JointNormalForm, RankDeficientStackError,
                       RationalMatrix, SingleNormalForm, joint_normal_form,
                       rank, signature, single_normal_form)
from .classifier import (Clause, HypothesisError, OperatorConfig, Verdict,
                         classify_bilinear, decide, make_config)
from .functions import (Constant, Dilated, DivergentNormError, Gaussian,
                        IndicatorBall, MollifiedDelta, NoWitnessError,
                        NormEstimate, PowerLog, SplitPowerLog, TestFunction,
                        Translated, dilate, lp_norm, translate, witness_for)
from .operators import (GridSpec, NonIntegrableError, ProbeReport,
                        QuadratureSpec, blowup_probe, dilation_slope,
                        eval_bilinear, eval_linear, eval_radial,
                        lq_norm_on_grid, norm_ratio,
                        predicted_dilation_slope)

__all__ = [
    # refusals
    "BifracError", "ConjugateUndefinedError", "DivergentNormError",
    "HypothesisError", "NoWitnessError", "NonIntegrableError",
    "RankDeficientStackError",
    # exact exponents and matrices
    "Exponent", "conjugate", "homogeneous_lambda", "parse_rational",
    "JointNormalForm", "RationalMatrix", "SingleNormalForm",
    "joint_normal_form", "rank", "signature", "single_normal_form",
    # the decision procedure
    "Clause", "OperatorConfig", "Verdict", "classify_bilinear", "decide",
    "make_config",
    # witness descriptors
    "Constant", "Dilated", "Gaussian", "IndicatorBall", "MollifiedDelta",
    "NormEstimate", "PowerLog", "SplitPowerLog", "TestFunction",
    "Translated", "dilate", "lp_norm", "translate", "witness_for",
    # quadrature, grid norms and probes
    "GridSpec", "ProbeReport", "QuadratureSpec", "blowup_probe",
    "dilation_slope", "eval_bilinear", "eval_linear", "eval_radial",
    "lq_norm_on_grid", "norm_ratio", "predicted_dilation_slope",
]
__version__ = "0.1.0"
