"""Desk-scale study of bias-corrected training on augmented data.

The package provides: exactly-biased synthetic tasks, a corrected loss with a
closed form, five training schemes (original, augmented, two-stage drop,
mixed loss, and their generic combination), empirical estimators for the
optimization constants, and evaluators for every convergence bound the
schemes come with.
"""

from .core import (
    DegenerateEstimateError,
    LabeledSet,
    Rng,
    softmax,
)
from .models import estimate_G, forward
from .augment import (
    SyntheticTask,
    estimate_delta_P,
    estimate_delta_y,
    gen_synthetic,
)
from .losses import combined_grad
from .trainers import (
    SCHEMES,
    AugDrop,
    Augmented,
    FirstStageStore,
    MixLoss,
    Original,
    Scheme,
    Stage,
    TrainConfig,
    TrainTrace,
    TraceRow,
    WeMix,
    read_trace_csv,
    run_scheme,
    sgd_step,
    train,
    write_trace_csv,
)
from .theory import (
    CeObjective,
    ConstantEstimates,
    ConstraintCheck,
    ResolvedSchedule,
    best_found_floor,
    bias_radius,
    estimate_constants,
    estimate_L_smooth,
    estimate_mu,
    in_constraint_set,
    shift_radius,
    theory_stepsizes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
