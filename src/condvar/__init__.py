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
    logistic_loss,
    param_count,
    predict_labels,
    save_checkpoint,
    softmax_cross_entropy,
)
from .penalties import (
    DegenerateVarianceError,
    PenaltyConfig,
    baseline_group_by_label,
    baseline_unconditional,
    conditional_penalty,
    variance_decomposition,
    variance_ratio,
)
from .robustness import (
    ConditionalCovariance,
    DivergenceProbe,
    FirstOrderGap,
    WorstCaseResult,
    divergence_probe,
    estimate_conditional_covariance,
    first_order_gap,
    invariance_defect,
    loss_under_shift,
    mahalanobis_cost,
    steepest_style_direction,
    worst_case_loss,
)
from .scm import (
    InterventionSpec,
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
    core_objective,
    evaluate_lambda_grid,
    group_aware_minibatches,
    oracle_train_constrained,
    pooled_objective,
    train,
)

__version__ = "0.1.0"
