"""Conditional variance regularization toolkit.

Train classifiers whose predictions stay put when latent style factors
shift, by penalizing the within-group variance of predictions or losses
over observations that share a (label, id) pair, and quantify robustness
through worst-case losses over Mahalanobis-bounded style interventions.
"""

from .data import (
    Dataset,
    DataFormatError,
    GroupIndex,
    augment_with_groups,
    build_group_index,
    load_csv,
    save_csv,
)
from .models import (
    ModelSpec,
    forward,
    init_params,
    load_checkpoint,
    param_count,
    predict_labels,
    save_checkpoint,
)
from .penalties import (
    DegenerateVarianceError,
    PenaltyConfig,
    conditional_penalty,
    variance_ratio,
)
from .robustness import (
    ConditionalCovariance,
    DivergenceProbe,
    FirstOrderGap,
    RobustnessReport,
    WorstCaseResult,
    divergence_probe,
    estimate_conditional_covariance,
    first_order_gap,
    invariance_defect,
    loss_under_shift,
    mahalanobis_cost,
    report,
    steepest_style_direction,
    worst_case_loss,
)
from .scm import (
    LinearScmSpec,
    StyleAwareDataset,
    gen_example1,
    gen_example2,
    load_style_dataset,
    rerender,
    sample_linear_scm,
    save_latents,
)
from .training import (
    DivergenceError,
    OptimizerConfig,
    TrainConfig,
    TrainReport,
    evaluate_lambda_grid,
    group_aware_minibatches,
    oracle_train_constrained,
    train,
)

__version__ = "0.1.0"
