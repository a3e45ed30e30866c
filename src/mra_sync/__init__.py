"""Multi-reference alignment over relative rotations for grid-structured signals.

A numpy/scipy library for denoising lattices of matrix-valued blocks that
share a correlated Gaussian prior but were each rotated by an unknown
orthogonal transform: synthetic data generation, pairwise/triplet/iterative
estimators, closed-form MMSE references, cycle-consistency verification, and
a seeded experiment runner.
"""

from .model import (
    ChannelField,
    GridSpec,
    InvalidTripletError,
    KernelSpec,
    NotPositiveDefiniteError,
    ObservationSet,
    PoseSet,
    RowCovariance,
    apply_precoding,
    build_row_covariance,
    log_prior_density,
    observe,
    sample_channel,
    sample_pose_set,
    split_triplet_tiles,
)
from .procrustes import Rotation, procrustes_project, relative_pose
from .graph import (
    InvalidCycleError,
    RelativePoseGraph,
    TriangleSufficiencyReport,
    TripletTiling,
    build_triplet_tiling,
    cycle_defect,
    graph_from_poses,
    lattice_edges,
    reconstruct_poses,
    triangulate_grid,
    verify_triangle_sufficiency,
)
from .sync import (
    CoverageError,
    EstimateReport,
    SolverError,
    TripletEstimate,
    denoise_given_poses,
    estimate_pair,
    estimate_triplet_direct,
    negated_noisy_inverse,
    residual_noise_sigma,
    run_grid,
    triplet_objective,
)
from .oracle import (
    brute_force_rotation_2d,
    ideal_sync_mse_db,
    mmse_error_covariance,
    single_channel_mse_db,
)
from .experiment import (
    ExperimentConfig,
    ResultRow,
    SummaryRow,
    default_config,
    emit_csv,
    emit_summary,
    read_csv,
    run_sweep,
    sigma_from_snr_db,
)

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "KernelSpec",
    "RowCovariance",
    "ChannelField",
    "PoseSet",
    "ObservationSet",
    "NotPositiveDefiniteError",
    "InvalidTripletError",
    "build_row_covariance",
    "split_triplet_tiles",
    "sample_channel",
    "sample_pose_set",
    "apply_precoding",
    "observe",
    "log_prior_density",
    "Rotation",
    "procrustes_project",
    "relative_pose",
    "RelativePoseGraph",
    "TripletTiling",
    "TriangleSufficiencyReport",
    "InvalidCycleError",
    "lattice_edges",
    "triangulate_grid",
    "graph_from_poses",
    "cycle_defect",
    "verify_triangle_sufficiency",
    "build_triplet_tiling",
    "reconstruct_poses",
    "TripletEstimate",
    "EstimateReport",
    "SolverError",
    "CoverageError",
    "negated_noisy_inverse",
    "residual_noise_sigma",
    "denoise_given_poses",
    "estimate_pair",
    "triplet_objective",
    "estimate_triplet_direct",
    "run_grid",
    "mmse_error_covariance",
    "ideal_sync_mse_db",
    "single_channel_mse_db",
    "brute_force_rotation_2d",
    "ExperimentConfig",
    "ResultRow",
    "SummaryRow",
    "default_config",
    "run_sweep",
    "emit_csv",
    "read_csv",
    "emit_summary",
    "sigma_from_snr_db",
]
