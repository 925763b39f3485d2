"""heterotune: energy-optimal configuration selection for heterogeneous
CPU/GPU systems from sparse sample runs plus an offline training matrix."""

from .backends import (
    WORKGROUP_ENV_VAR,
    ExecutableDescriptor,
    SimulatedBackend,
    build_environment,
)
from .dataset import (
    DEFAULT_APPLICATIONS,
    ApplicationMeta,
    PerfLimit,
    SamplePlan,
    SampleSet,
    TrainingMatrix,
    build_training_matrix,
    load_training,
    mask_application,
    save_training,
    select_samples,
)
from .energy import (
    RunMeasurement,
    total_energy_row,
)
from .errors import (
    BackendError,
    DataFormatError,
    EstimatorError,
    InsufficientSamplesError,
)
from .estimator import (
    EstimatorParams,
    EstimatorState,
    PredictionResult,
    complete_row,
    em_fit,
    feature_matrix,
    init_regression,
    predict_best_config,
    predict_energy,
    predict_new_app,
    quadratic_features,
    select_latent_dim,
)
from .evaluation import (
    APPROACHES,
    BRUTE_FORCE,
    CPU_ONLY,
    GPU_ONLY,
    HOLISTIC,
    EvaluationReport,
    brute_force_best,
    evaluate,
    single_platform_baseline,
)
from .platforms import (
    DEFAULT_CPU,
    DEFAULT_GPU,
    DEFAULT_SYSTEM,
    NativeConfig,
    PlatformKind,
    PlatformSpec,
    enumerate_configs,
    equiv_cores,
    equiv_mem,
    load_system,
    per_core_flops,
    save_system,
    unify_system,
)
from .synthetic import (
    CI_SYSTEM,
    PROFILES,
    SyntheticSpec,
    SyntheticSystem,
    generate_system,
)

__version__ = "0.1.0"
