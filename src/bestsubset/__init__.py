"""Best subset selection via a primal-dual active set solver.

Fits linear, logistic, and Cox proportional-hazards models under an exact
cardinality constraint on the coefficients, searches the subset size
sequentially or by golden-section elbow location, and ships a data
generator, an exhaustive oracle, and a Monte-Carlo benchmark harness.
"""

from .bench import BenchScenario, run_bench
from .data import (
    Binary,
    Continuous,
    Dataset,
    StandardizedDataset,
    Survival,
    destandardize_coefficients,
    load_csv,
    save_csv,
    standardize,
)
from .datagen import GenConfig, gen_beta, gen_dataset, gen_design, gen_response
from .families import (
    CoefficientModel,
    ModelFamily,
    dual_sacrifice,
    fit_active,
    grad_hess,
    log_likelihood,
    loss,
    predict,
)
from .metrics import accuracy, concordance_index, relative_mse, tp_fp
from .oracle import exhaustive_best_subset
from .pdas import PdasOutput, null_fit, pdas, select_top_k, warm_start_set
from .tuning import (
    FitPath,
    GoldenSectionTrace,
    SelectionReport,
    criteria,
    gpdas,
    spdas,
)

__version__ = "0.1.0"

__all__ = [
    "BenchScenario",
    "Binary",
    "CoefficientModel",
    "Continuous",
    "Dataset",
    "FitPath",
    "GenConfig",
    "GoldenSectionTrace",
    "ModelFamily",
    "PdasOutput",
    "SelectionReport",
    "StandardizedDataset",
    "Survival",
    "accuracy",
    "concordance_index",
    "criteria",
    "destandardize_coefficients",
    "dual_sacrifice",
    "exhaustive_best_subset",
    "fit_active",
    "gen_beta",
    "gen_dataset",
    "gen_design",
    "gen_response",
    "gpdas",
    "grad_hess",
    "load_csv",
    "log_likelihood",
    "loss",
    "null_fit",
    "pdas",
    "predict",
    "relative_mse",
    "run_bench",
    "save_csv",
    "select_top_k",
    "spdas",
    "standardize",
    "tp_fp",
    "warm_start_set",
]
