"""Estimators: known-pose denoising, pairwise and triplet rotation estimation,
iterative refinement, and grid-level orchestration.

All local estimators work on a handful of blocks at a time. Rotation
estimation reduces to orthogonal Procrustes projections of small coefficient
matrices; channel denoising is one SPD solve of the stacked local system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .graph import TripletTiling, build_triplet_tiling, lattice_edges
from .model import (
    ChannelField,
    CovarianceTiles,
    GridSpec,
    ObservationSet,
    RowCovariance,
    split_triplet_tiles,
)
from .oracle import mmse_error_covariance
from .procrustes import Rotation, _as_matrix, procrustes_project

__all__ = [
    "TripletEstimate",
    "EstimateReport",
    "SolverError",
    "CoverageError",
    "METHODS",
    "negated_noisy_inverse",
    "residual_noise_sigma",
    "denoise_given_poses",
    "estimate_pair",
    "triplet_objective",
    "estimate_triplet_direct",
    "refine_triplet",
    "run_grid",
]

METHODS = ("pairwise", "sync_base", "iterative")

DEFAULT_MAX_SWEEPS = 8
DEFAULT_TOL = 1e-10
DEFAULT_REFINEMENT_ITERS = 4


class SolverError(RuntimeError):
    """The local SPD system could not be factorized."""

    def __init__(self, condition_estimate: float):
        self.condition_estimate = condition_estimate
        super().__init__(
            f"local covariance system is numerically singular "
            f"(condition estimate {condition_estimate:.3e})"
        )


class CoverageError(ValueError):
    """The tiling leaves at least one block of the grid uncovered."""


@dataclass(frozen=True)
class TripletEstimate:
    """Relative rotations of a triplet plus the alternation's diagnostics.

    ``objective_trace`` holds the joint objective after every sweep and is
    non-decreasing; R_23 is not stored since it is determined as
    ``r12.T @ r13``.
    """

    r12: Rotation
    r13: Rotation
    objective_trace: tuple
    converged: bool
    sweeps: int

    def r23(self) -> Rotation:
        return Rotation(self.r12.matrix.T @ self.r13.matrix)


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Denoised per-block estimates with error metrics vs the true effective field.

    Metric fields are None when no ground truth was supplied.
    """

    estimates: ChannelField
    per_block_mse: tuple | None
    nmse_db: float | None
    method: str
    refinement_iters: int


def _noisy_cholesky(cov_sub: np.ndarray, sigma: float):
    """Cholesky factor of U_sub + sigma^2 I; SolverError when it is singular."""
    try:
        return cho_factor(cov_sub + sigma**2 * np.eye(cov_sub.shape[0]), lower=True)
    except LinAlgError as exc:
        raise SolverError(float(np.linalg.cond(cov_sub))) from exc


def negated_noisy_inverse(cov_sub: np.ndarray, sigma: float) -> np.ndarray:
    """-(U_sub + sigma^2 I)^{-1}, the matrix whose tiles drive rotation estimation.

    Direct estimation splits this at the observation noise scale; the
    refinement refresh at the smaller residual scale of the denoised field.
    """
    cov_sub = np.asarray(cov_sub, dtype=float)
    inv = cho_solve(_noisy_cholesky(cov_sub, sigma), np.eye(cov_sub.shape[0]))
    inv = 0.5 * (inv + inv.T)
    return -inv


def denoise_given_poses(blocks, rotations, cov_sub: np.ndarray, sigma: float):
    """MAP channel estimate for J blocks with known relative rotations.

    ``rotations`` holds the J-1 rotations R_{j1} (j = 2..J) that carry each
    later block into the first block's frame. The stacked, frame-aligned
    system is solved as (sigma^2 U^{-1} + I)^{-1} applied to the stacked
    right side, computed in the better-conditioned equivalent form
    (sigma^2 I + U)^{-1} U; the result is rotated back into each block's own
    frame. sigma = 0 short-circuits to the inputs, which the system reduces
    to exactly.
    """
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if len(rotations) != len(blocks) - 1:
        raise ValueError("need exactly J-1 rotations for J blocks")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return [b.copy() for b in blocks]

    rot = [_as_matrix(r) for r in rotations]
    cov_sub = np.asarray(cov_sub, dtype=float)
    stacked = np.vstack([blocks[0]] + [b @ r for b, r in zip(blocks[1:], rot)])
    if stacked.shape[0] != cov_sub.shape[0]:
        raise ValueError("covariance size does not match the stacked blocks")
    aligned = cho_solve(_noisy_cholesky(cov_sub, sigma), cov_sub @ stacked)

    d = blocks[0].shape[0]
    out = [aligned[:d]]
    for j, r in enumerate(rot, start=1):
        out.append(aligned[j * d : (j + 1) * d] @ r.T)
    return out


def estimate_pair(b1: np.ndarray, b2: np.ndarray, ua: np.ndarray) -> Rotation:
    """Relative rotation between two blocks from one Procrustes projection.

    ``ua`` is the D x D cross tile of -(U + sigma^2 I)^{-1} for the pair.
    The projection maximizes <R_21, B_2^T Ua^T B_1>_F; the estimate is
    returned in the R_12 direction.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    r21 = procrustes_project(b2.T @ np.asarray(ua).T @ b1)
    return r21.T


def triplet_objective(b1, b2, b3, tiles: CovarianceTiles, r12, r13) -> float:
    """The three-term Frobenius objective the triplet alternation maximizes."""
    r21 = _as_matrix(r12).T
    r31 = _as_matrix(r13).T
    b1 = np.asarray(b1, float)
    b2 = np.asarray(b2, float)
    b3 = np.asarray(b3, float)
    term1 = float(np.sum(r21 * (b2.T @ tiles.ua.T @ b1)))
    term2 = float(np.sum(r31 * (b3.T @ tiles.ub.T @ b1)))
    term3 = float(np.sum(r31 * (b3.T @ tiles.uc.T @ b2 @ r21)))
    return term1 + term2 + term3


def estimate_triplet_direct(
    b1,
    b2,
    b3,
    tiles: CovarianceTiles,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    tol: float = DEFAULT_TOL,
    init=None,
) -> TripletEstimate:
    """Jointly estimate R_12 and R_13 by alternating Procrustes projections.

    ``tiles`` are the named tiles of -(U_sub + sigma^2 I)^{-1} at whatever
    noise scale the three blocks carry. Each sweep updates R_13 first and
    then R_12, each as the closed-form maximizer of the objective with the
    other held fixed, so the recorded objective trace never decreases.
    Sweeping stops when both rotations move less than ``tol`` in Frobenius
    norm or after ``max_sweeps``.

    ``init`` optionally warm-starts the alternation with an existing
    (r12, r13) pair; otherwise R_12 starts from the pairwise estimate of the
    first two blocks.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    b3 = np.asarray(b3, dtype=float)

    ma = b2.T @ tiles.ua.T @ b1
    mb = b3.T @ tiles.ub.T @ b1
    mc = b3.T @ tiles.uc.T @ b2

    if init is None:
        rot21 = procrustes_project(ma)
        r21 = rot21.matrix
        r31 = None
    else:
        r12_init, r13_init = init
        rot21 = None
        r21 = _as_matrix(r12_init).T
        r31 = _as_matrix(r13_init).T

    rot31 = None
    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        prev21, prev31 = r21, r31
        rot31 = procrustes_project(mb + mc @ r21)
        r31 = rot31.matrix
        rot21 = procrustes_project(ma + mc.T @ r31)
        r21 = rot21.matrix
        trace.append(
            float(np.sum(r21 * ma) + np.sum(r31 * mb) + np.sum(r31 * (mc @ r21)))
        )
        if prev31 is not None:
            moved = max(
                np.linalg.norm(r21 - prev21), np.linalg.norm(r31 - prev31)
            )
            if moved < tol:
                converged = True
                break

    return TripletEstimate(
        r12=Rotation(r21.T.copy(), rot21.degenerate),
        r13=Rotation(r31.T.copy(), rot31.degenerate),
        objective_trace=tuple(trace),
        converged=converged,
        sweeps=sweeps,
    )


def residual_noise_sigma(cov_sub: np.ndarray, sigma: float) -> float:
    """Per-element residual noise scale of a denoised field.

    Square root of the closed-form linear-MMSE error per element,
    trace(sigma^2 U (U + sigma^2 I)^{-1}) / n: the noise level the denoised
    blocks would carry if the rotations were right. Rotation re-estimation
    treats the current denoised field as observations at this level; the
    raw noise scale would under-trust it, while treating it as noiseless
    inverts the bare prior covariance, whose jitter-scale directions blow
    up by many orders of magnitude and wreck the estimate.
    """
    err = mmse_error_covariance(cov_sub, sigma)
    return float(np.sqrt(np.trace(err) / err.shape[0]))


def refine_triplet(
    b1,
    b2,
    b3,
    cov_sub: np.ndarray,
    sigma: float,
    outer_iters: int = DEFAULT_REFINEMENT_ITERS,
    inner_sweeps: int = DEFAULT_MAX_SWEEPS,
    tol: float = DEFAULT_TOL,
):
    """Refine one triplet's rotations against its own direct denoised blocks.

    Starts from the direct solution: rotations estimated from the raw
    blocks, and the blocks denoised under them. Each outer iteration then
    re-runs the rotation alternation, warm-started from the previous
    rotations, against the fixed direct denoised blocks, with tiles of
    -(U_sub + s^2 I)^{-1} at the residual noise scale s of that field; the
    raw blocks are denoised under the rotations of the last iteration.
    Every iteration re-solves the channel estimate, but only the last one
    is returned. Returns the three denoised blocks and the final rotation
    estimate.

    The refresh engages only for 0 < sigma < 1. At sigma = 0 denoising is
    exact and there is nothing to add; at sigma >= 1 (noise power at or
    above the unit signal power) the denoised field is dominated by
    synchronization errors rather than removable noise, and re-estimating
    rotations from it measurably loses against the direct estimate, whose
    errors are adapted to the very noise draw being denoised. In both cases
    the direct solution is returned unchanged.
    """
    if outer_iters < 1:
        raise ValueError("outer_iters must be >= 1")
    blocks = [np.asarray(b, dtype=float) for b in (b1, b2, b3)]
    cov_sub = np.asarray(cov_sub, dtype=float)
    d_cells = blocks[0].shape[0]

    direct_tiles = split_triplet_tiles(
        negated_noisy_inverse(cov_sub, sigma), d_cells
    )
    estimate = estimate_triplet_direct(
        *blocks, direct_tiles, max_sweeps=inner_sweeps, tol=tol
    )
    denoised = denoise_given_poses(
        blocks, [estimate.r12.T, estimate.r13.T], cov_sub, sigma
    )
    if sigma == 0 or sigma >= 1:
        return denoised, estimate

    refresh_tiles = split_triplet_tiles(
        negated_noisy_inverse(cov_sub, residual_noise_sigma(cov_sub, sigma)),
        d_cells,
    )
    reference = denoised
    for _ in range(outer_iters):
        estimate = estimate_triplet_direct(
            *reference,
            refresh_tiles,
            max_sweeps=inner_sweeps,
            tol=tol,
            init=(estimate.r12, estimate.r13),
        )
        denoised = denoise_given_poses(
            blocks, [estimate.r12.T, estimate.r13.T], cov_sub, sigma
        )
    return denoised, estimate


def _metrics(estimates: ChannelField, truth: ChannelField):
    per_block = [float(np.mean((e - t) ** 2)) for e, t in zip(estimates.blocks, truth.blocks)]
    mean_mse = float(np.mean(per_block))
    nmse_db = 10.0 * math.log10(mean_mse) if mean_mse > 0 else -math.inf
    return tuple(per_block), nmse_db


def run_grid(
    method: str,
    obs: ObservationSet,
    cov: RowCovariance,
    grid: GridSpec,
    tiling: TripletTiling | None = None,
    ground_truth: ChannelField | None = None,
    refinement_iters: int = DEFAULT_REFINEMENT_ITERS,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    tol: float = DEFAULT_TOL,
) -> EstimateReport:
    """Run one estimator over the whole grid and average overlapping estimates.

    The local cliques are the 4-neighbor lattice edges for ``pairwise`` and
    the triplets of the tiling for ``sync_base`` and ``iterative``. Each
    clique estimates its relative rotations and denoises its raw blocks
    under them. Blocks covered by several cliques receive the unweighted
    mean of their estimates, which is safe because every local estimate
    targets the same effective channel in the block's own frame.

    ``iterative`` starts from the synchronization-base field. Each triplet
    then re-estimates its rotations ``refinement_iters`` times, warm-started
    from the previous estimate, against that fixed shared field, and
    denoises its raw observations once under the final rotations. Working
    against the shared field lets overlapping triplets exchange information,
    which a per-triplet loop cannot (its own denoised blocks inherit its
    own rotation errors and just confirm them). refinement_iters = 0 falls
    back to the synchronization base, as does noise at or above the unit
    signal power (sigma >= 1), where the refresh measurably loses to the
    direct estimate's noise-adapted rotations.

    Metrics are computed against ``ground_truth`` (the true effective field)
    when given, otherwise left unavailable.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    n = grid.n_blocks
    if obs.n_blocks != n:
        raise ValueError("observation count does not match the grid")
    sigma = obs.noise_sigma
    d_cells = grid.block_cells
    blocks = obs.blocks

    if method == "pairwise":
        cliques = lattice_edges(grid)
    else:
        if tiling is None:
            tiling = build_triplet_tiling(grid)
        if len(tiling.coverage) != n or min(tiling.coverage) < 1:
            raise CoverageError("tiling does not cover every block of this grid")
        cliques = tiling.triplets
    cliques = [list(c) for c in cliques]
    subs = [cov.submatrix(c) for c in cliques]

    def averaged(rotations):
        # denoise every clique's raw blocks under its rotations; average overlaps
        sums = np.zeros_like(blocks)
        counts = np.zeros(n)
        for clique, sub, local_rotations in zip(cliques, subs, rotations):
            sums[clique] += denoise_given_poses(
                blocks[clique], [r.T for r in local_rotations], sub, sigma
            )
            counts[clique] += 1
        if not counts.all():
            raise CoverageError("at least one block received no local estimate")
        return sums / counts[:, None, None]

    def direct(clique, sub):
        neg_inv = negated_noisy_inverse(sub, sigma)
        local = blocks[clique]
        if len(clique) == 2:
            return [estimate_pair(*local, neg_inv[:d_cells, d_cells:])]
        tiles = split_triplet_tiles(neg_inv, d_cells)
        tri = estimate_triplet_direct(*local, tiles, max_sweeps=max_sweeps, tol=tol)
        return [tri.r12, tri.r13]

    rotations = [direct(c, sub) for c, sub in zip(cliques, subs)]
    field = averaged(rotations)

    if method == "iterative" and refinement_iters > 0 and 0 < sigma < 1:
        base = field

        def refreshed(clique, sub, r12, r13):
            scale = residual_noise_sigma(sub, sigma)
            tiles = split_triplet_tiles(negated_noisy_inverse(sub, scale), d_cells)
            for _ in range(refinement_iters):
                tri = estimate_triplet_direct(
                    *base[clique], tiles, max_sweeps=max_sweeps, tol=tol, init=(r12, r13)
                )
                r12, r13 = tri.r12, tri.r13
            return [r12, r13]

        rotations = [refreshed(c, sub, *r) for c, sub, r in zip(cliques, subs, rotations)]
        field = averaged(rotations)

    estimates = ChannelField(field)

    per_block_mse, nmse_db = (None, None)
    if ground_truth is not None:
        per_block_mse, nmse_db = _metrics(estimates, ground_truth)

    return EstimateReport(
        estimates=estimates,
        per_block_mse=per_block_mse,
        nmse_db=nmse_db,
        method=method,
        refinement_iters=refinement_iters if method == "iterative" else 0,
    )
