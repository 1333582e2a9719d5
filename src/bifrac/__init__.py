"""Exact boundedness classification and numerical evaluation of
bilinear fractional integral operators."""

from .exponents import (ConjugateUndefinedError, Exponent, conjugate,
                        homogeneous_lambda, parse_rational)
from .matrices import (JointNormalForm, RankDeficientStackError,
                       RationalMatrix, SingleNormalForm, SingularMatrixError,
                       invert, joint_normal_form, rank, signature,
                       single_normal_form)
from .classifier import (Clause, HypothesisError, OperatorConfig, Verdict,
                         classify_bilinear, classify_symmetric, classify_linear,
                         classify_pairing, classify_radial, decide,
                         make_config)
from .functions import (Constant, Dilated, DivergentNormError, Gaussian,
                        IndicatorBall, MollifiedDelta, NoWitnessError,
                        NormEstimate, PowerLog, SplitPowerLog, TestFunction,
                        Translated, dilate, evaluate, lp_norm, translate,
                        witness_for)
from .operators import (GridSpec, NonIntegrableError, ProbeReport,
                        QuadratureSpec, blowup_probe, dilation_slope,
                        eval_bilinear, eval_linear, eval_radial,
                        lq_norm_on_grid, norm_ratio,
                        predicted_dilation_slope,
                        translation_covariance_defect)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
