"""Simulation and moment-based learning of mixtures of linear dynamical systems."""

__version__ = "0.1.0"

from .cluster import (
    PosteriorReport,
    cluster_dataset,
    component_log_likelihood,
    kalman_log_likelihood,
    log_likelihoods,
)
from .errors import (
    DataError,
    DimensionError,
    EigenPairingError,
    LdsLabError,
    NumericalError,
    RankDeficiencyWarning,
)
from .hokalman import build_hankel, ho_kalman, realization_residual
from .lds import (
    Dataset,
    LdsParams,
    MixtureSpec,
    NoiseConfig,
    Trajectory,
    WellBehavedReport,
    controllability_matrix,
    draw_lds_noise,
    joint_nondegeneracy_gamma,
    markov_matrix,
    observability_matrix,
    random_lds,
    random_mixture,
    sample_mixture_dataset,
    well_behaved_report,
)
from .learn import (
    AlignmentReport,
    LearnedMixture,
    align_similarity,
    learn_markov_components,
    learn_mixture,
    learn_mixture_from_moments,
    recover_weights,
)
from .moments import (
    CrossCovarianceStack,
    FlatTensor3,
    MomentTensor6,
    assemble_pi,
    min_trajectory_length,
    symmetrize_tensor3,
    unflatten_markov,
)
from .rng import substream
from .tensor import contract_mode3, jennrich_decompose, reconstruct
