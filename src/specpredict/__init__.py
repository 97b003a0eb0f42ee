"""Causal prediction of anti-causal convolutions for signals whose spectrum
vanishes at a single frequency.

The library discretizes the continuous-time picture on uniform grids
(:mod:`.spectral`), models the anti-causal rational kernels to be predicted
(:mod:`.kernels`), builds the explicit causal predictor transfer family
(:mod:`.predictor`), generates controlled test signals (:mod:`.signals`) and
reproduces the checkable convergence, robustness and impossibility
experiments (:mod:`.experiments`).
"""

from .degeneracy import DegeneracyClass
from .experiments import (
    class_norm,
    counterexample_experiment,
    default_grid,
    gamma_sweep,
    make_class_ensemble,
    nonpredictability_demo,
    predict,
    prediction_error,
    robustness_experiment,
    uniformity_check,
)
from .kernels import (
    AnticausalKernel,
    apply_anticausal,
    residues,
    time_kernel,
    transfer,
)
from .predictor import (
    LineWitness,
    NumericalFailure,
    PredictorTransfer,
    build_predictor,
    causality_defect,
    eval_v_factor,
    find_gamma0,
    lemma_check,
    line_witness,
    orthogonality_residual,
    v_minus_one,
)
from .signals import (
    ALGORITHM_ID,
    GeneratorConfig,
    counterexample_pair,
    sample_bandlimited,
    sample_class_member,
)
from .spectral import (
    FrequencyGrid,
    SpectralSeries,
    TimeSeries,
    forward_transform,
    make_grid,
    norm,
)
from .tolerances import CALIBRATION

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_ID",
    "AnticausalKernel",
    "CALIBRATION",
    "DegeneracyClass",
    "FrequencyGrid",
    "GeneratorConfig",
    "LineWitness",
    "NumericalFailure",
    "PredictorTransfer",
    "SpectralSeries",
    "TimeSeries",
    "apply_anticausal",
    "build_predictor",
    "causality_defect",
    "class_norm",
    "counterexample_experiment",
    "counterexample_pair",
    "default_grid",
    "eval_v_factor",
    "find_gamma0",
    "forward_transform",
    "gamma_sweep",
    "lemma_check",
    "line_witness",
    "make_class_ensemble",
    "make_grid",
    "nonpredictability_demo",
    "norm",
    "orthogonality_residual",
    "predict",
    "prediction_error",
    "residues",
    "robustness_experiment",
    "sample_bandlimited",
    "sample_class_member",
    "time_kernel",
    "transfer",
    "uniformity_check",
    "v_minus_one",
]
