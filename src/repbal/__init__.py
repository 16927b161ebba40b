"""Equal-representation partitions of the naturals minus one arithmetic progression.

Library layout: ``intset`` (bounded bit-mask sets), ``builders`` (named set
families), ``repfn`` (two-element-sum counting), ``solver`` (forced extension
and grid classification), ``verify`` (identity checkers and the suite),
``cli`` (command-line front door).
"""

from .builders import (
    FAMILIES,
    AmbiguousParityError,
    build_ef,
    build_evil_odious,
    build_family,
    build_parity_sets,
    build_xy,
    doubling_weights,
    family_cells,
    family_of,
    family_progression,
    family_weights,
)
from .intset import (
    BoundedSet,
    OutOfWindowError,
    ProgressionSpec,
    progression_set,
)
from .repfn import (
    first_r2_difference,
    pairs_at,
    r1_profile,
    r2_prefix,
    r2_profile,
    r2_profile_naive,
    reverse_mask,
    strict_counts,
)
from .solver import (
    STATUS_COMPLETED,
    STATUS_CONTRADICTION,
    ClassificationRecord,
    ExtensionOutcome,
    classify_grid,
    forced_extend,
    match_family,
    predicted_solvable_cells,
)
from .verify import (
    CHECK_IDS,
    FourTermBattery,
    InstanceError,
    SuiteReport,
    evil_odious_battery,
    four_term_residual,
    run_suite,
    step_identity_failure,
    step_identity_residual,
    validate_four_term,
    window_pair_batteries,
)

__version__ = "0.1.0"
