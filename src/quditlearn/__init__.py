"""quditlearn: simulator and experiment harness for QFT-based secret recovery
from noisy linear samples over prime fields (LWE-family problems).

Two engines back every probability in the package: a dense state-vector
simulator for small instances and a closed-form analytic engine whose
outcome law depends only on the error-value histogram.  Tests and the
``verify`` CLI subcommand cross-check the two.
"""

from .dense import MAX_AMPLITUDES, DenseState, StateError, qft_matrix
from .experiments import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
    sweep,
    wilson_interval,
    write_csv,
)
from .field import (
    MAX_Q,
    FieldParams,
    NoInverseError,
    NoRootError,
    ParameterError,
    centered,
    centered_abs,
    is_prime,
    mod_inverse,
    primitive_mth_root,
)
from .learners import (
    BOT,
    BvOutcome,
    field_bv,
    lpn_learn,
    lwe_learn,
    lwr_classical_drawer,
    lwr_decode,
    lwr_learn,
    lwr_noise_bound,
    lwr_round,
    lwr_sample_spec,
    sis_learn,
    sis_sample_state,
    test_candidate,
)
from .ring import RingEmbedding, ring_lwe_global_learn, ring_sample_state, ring_sample_stream
from .samples import (
    NoiseModel,
    OutcomeDistribution,
    SampleSpec,
    classical_drawer,
    dense_outcome_distribution,
    draw_classical_sample,
    draw_sample_spec,
    materialize_dense,
    outcome_distribution,
    spec_drawer,
    spec_from_json,
    spec_to_json,
    theoretical_bound,
)
from .verify import CheckResult, format_results, run_verification

__version__ = "0.1.0"
