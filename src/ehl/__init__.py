"""Calibration testing for binary probability forecasts.

The package centers on an e-value alternative to the classical binned
chi-square calibration test: likelihood ratios of outcomes against
isotonic-regression alternatives, combined sequentially, by exact
permutation averaging, or by repeated sample splitting. Alongside it sit
the classical test with five binning schemes (whose disagreement the sweep
tool makes visible), isotonic recalibration with optional bagging, and a
Monte Carlo power study on a quadratic-logistic data generating process.
"""

from ._version import __version__
from .data import (
    LabeledSampleSet,
    SampleSet,
    dump_samples,
    load_samples,
    split_indices,
)
from .errors import (
    BoundaryForecastError,
    DegenerateSplitError,
    DegreesOfFreedomError,
    EhlError,
    ExactSizeError,
    FitError,
    InputError,
)
from .evalue import (
    EValueReport,
    eq_single,
    evalue_to_pvalue,
    exact_symmetrized_evalue,
    sequential_evalue,
    split_evalue,
)
from .hl import (
    METHODS,
    SWEEP_G_VALUES,
    Binning,
    HLReport,
    SweepResult,
    hl_statistic,
    hl_sweep,
    hl_test,
    make_binning,
)
from .isotonic import (
    IsotonicFit,
    SmoothedFit,
    interpolate,
    laplace_smooth,
    oos_predict,
    pava_fit,
)
from .numeric import chisq_sf, expit, logit, solve_linear_3x3
from .recalibrate import RecalCurve, bagged_recalibrate, isotonic_recalibrate
from .simulate import (
    PowerCell,
    PowerStudyReport,
    QuadraticModel,
    SimulationConfig,
    fit_logistic_linear,
    generate_data,
    run_power_study,
    solve_quadratic_betas,
)

__all__ = [
    "__version__",
    "SampleSet",
    "LabeledSampleSet",
    "load_samples",
    "dump_samples",
    "split_indices",
    "EhlError",
    "InputError",
    "BoundaryForecastError",
    "ExactSizeError",
    "DegreesOfFreedomError",
    "DegenerateSplitError",
    "FitError",
    "EValueReport",
    "eq_single",
    "sequential_evalue",
    "exact_symmetrized_evalue",
    "split_evalue",
    "evalue_to_pvalue",
    "METHODS",
    "SWEEP_G_VALUES",
    "Binning",
    "HLReport",
    "SweepResult",
    "make_binning",
    "hl_statistic",
    "hl_test",
    "hl_sweep",
    "IsotonicFit",
    "SmoothedFit",
    "pava_fit",
    "laplace_smooth",
    "interpolate",
    "oos_predict",
    "chisq_sf",
    "expit",
    "logit",
    "solve_linear_3x3",
    "RecalCurve",
    "isotonic_recalibrate",
    "bagged_recalibrate",
    "QuadraticModel",
    "SimulationConfig",
    "PowerCell",
    "PowerStudyReport",
    "solve_quadratic_betas",
    "generate_data",
    "fit_logistic_linear",
    "run_power_study",
]
