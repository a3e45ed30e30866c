"""Estimators: known-pose denoising, pairwise and triplet rotation estimation,
iterative refinement, and grid-level orchestration.

All local estimators work on a handful of blocks at a time. Rotation
estimation reduces to orthogonal Procrustes projections of small coefficient
matrices; channel denoising is one linear map of the stacked local system.
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
    _block_index,
    _count,
    split_triplet_tiles,
)
from .oracle import mmse_error_covariance
from .procrustes import (
    Rotation,
    _as_matrix,
    _project,
    _project_2x2,
    _project_stack,
    procrustes_project,
)

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

    Metric fields are None when no ground truth was supplied. ``refinement_iters``
    set the refinement's cap of 8 * ``refinement_iters`` sweeps; 0 when no refresh ran.
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


def _smoother(cov_sub: np.ndarray, sigma: float) -> np.ndarray:
    """(U_sub + sigma^2 I)^{-1} U_sub, the map that denoises a stacked clique; I at sigma = 0."""
    if sigma == 0:
        return np.eye(cov_sub.shape[0])
    return cho_solve(_noisy_cholesky(cov_sub, sigma), cov_sub)


def _denoise_average(blocks, index, rotations, smoothers, which, counts):
    """Denoise the (C, J) cliques ``index`` of the (N, D, d) ``blocks`` and average overlaps.

    Each clique's blocks are carried into its first block's frame by its
    (J-1, d, d) ``rotations``, stacked, multiplied by ``smoothers[which[c]]``
    in one broadcast product per smoother, rotated back and summed in clique order.
    """
    local = blocks[index]
    local[:, 1:] = local[:, 1:] @ rotations
    stacked = local.reshape(len(index), -1, local.shape[-1])
    for k, smoother in enumerate(smoothers):
        stacked[which == k] = smoother @ stacked[which == k]
    local[:, 1:] = local[:, 1:] @ rotations.transpose(0, 1, 3, 2)
    sums = np.zeros_like(blocks)
    np.add.at(sums, index, local)
    return sums / counts[:, None, None]


def denoise_given_poses(blocks, rotations, cov_sub: np.ndarray, sigma: float):
    """MAP channel estimate for J blocks with known relative rotations.

    ``rotations`` holds the J-1 rotations R_{j1} (j = 2..J) that carry each
    later block into the first block's frame. The stacked, frame-aligned
    blocks are multiplied by (sigma^2 U^{-1} + I)^{-1}, computed in the
    better-conditioned form (sigma^2 I + U)^{-1} U, and rotated back into
    each block's own frame: the one-clique case of the stacked pass of
    :func:`run_grid`, with the same bits.
    """
    blocks = np.array(blocks, dtype=float)
    cov_sub = np.asarray(cov_sub, dtype=float)
    j, rows, d = blocks.shape
    if len(rotations) != j - 1:
        raise ValueError("need exactly J-1 rotations for J blocks")
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    if cov_sub.shape != (j * rows, j * rows):
        raise ValueError(f"covariance shape {cov_sub.shape} does not fit {j * rows} stacked rows")
    rot = [_as_matrix(r, "rotations") for r in rotations]
    if any(r.shape != (d, d) for r in rot):
        raise ValueError(f"rotations must be {d} x {d} to act on {rows} x {d} blocks")
    rot = np.array(rot).reshape(1, j - 1, d, d)
    smoother, index = [_smoother(cov_sub, sigma)], np.arange(j)[None]
    return list(_denoise_average(blocks, index, rot, smoother, np.zeros(1, int), np.ones(j)))


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
    r21 = _as_matrix(r12, "r12").T
    r31 = _as_matrix(r13, "r13").T
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
    norm or after ``max_sweeps``. For d = 2 the sweeps run on Python floats,
    with the written-out 2 x 2 arithmetic of the stacked alternation of
    :func:`run_grid`'s refinement, so the two agree bit for bit; for d >= 3
    on bare arrays. Only the returned rotations are built as validated
    :class:`Rotation` objects.

    ``init`` optionally warm-starts the alternation with an existing
    (r12, r13) pair; otherwise R_12 starts from the pairwise estimate of the
    first two blocks.
    """
    _count(max_sweeps, "max_sweeps", 1)
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    b3 = np.asarray(b3, dtype=float)

    ma, mb, mc = _coefficients(b1, b2, b3, tiles.ua, tiles.ub, tiles.uc)

    if init is None:
        r21 = procrustes_project(ma).matrix
        r31 = None
    else:
        r12_init, r13_init = init
        r21 = _as_matrix(r12_init, "init r12").T
        r31 = _as_matrix(r13_init, "init r13").T

    if ma.shape == (2, 2):
        return _alternate_2x2(ma, mb, mc, r21, r31, max_sweeps, tol)

    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        prev21, prev31 = r21, r31
        r31, deg31 = _project(mb + mc @ r21)
        x21 = ma + mc.T @ r31
        r21, deg21 = _project(x21)
        # <R21, Ma> + <R31, Mb> + <R31, Mc R21> with the last term read as <R21, Mc^T R31>
        trace.append(float(np.vdot(r21, x21) + np.vdot(r31, mb)))
        if prev31 is not None and _step(r21 - prev21, r31 - prev31) < tol:
            converged = True
            break

    return TripletEstimate(
        r12=Rotation(r21.T.copy(), deg21),
        r13=Rotation(r31.T.copy(), deg31),
        objective_trace=tuple(trace),
        converged=converged,
        sweeps=sweeps,
    )


def _alternate_2x2(ma, mb, mc, r21, r31, max_sweeps: int, tol: float) -> TripletEstimate:
    """The sweeps of :func:`estimate_triplet_direct` for d = 2, on the four row-major
    entries of each matrix as Python floats; ``r31`` is None on a cold start.

    Products and steps are :func:`_plus_product` and :func:`_squared_step`,
    the arithmetic of :func:`_alternate_stack`'s d = 2 path, and the
    projections the scalar closed form, so the two agree bit for bit.
    """
    ma, mb, mc = (m.ravel().tolist() for m in (ma, mb, mc))
    mct = _transposed(mc)
    r21 = r21.ravel().tolist()
    r31 = None if r31 is None else r31.ravel().tolist()
    trace = []
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        prev21, prev31 = r21, r31
        c, s, deg31 = _project_2x2(*_plus_product(mb, mc, r21))
        r31 = (c, -s, s, c)
        x21 = _plus_product(ma, mct, r31)
        c, s, deg21 = _project_2x2(*x21)
        r21 = (c, -s, s, c)
        trace.append(_inner(r21, x21) + _inner(r31, mb))
        if prev31 is None:
            continue
        if math.sqrt(max(_squared_step(r21, prev21), _squared_step(r31, prev31))) < tol:
            converged = True
            break
    return TripletEstimate(
        r12=Rotation(np.reshape(_transposed(r21), (2, 2)), deg21),
        r13=Rotation(np.reshape(_transposed(r31), (2, 2)), deg31),
        objective_trace=tuple(trace),
        converged=converged,
        sweeps=sweeps,
    )


def _coefficients(b1, b2, b3, ua, ub, uc) -> tuple:
    """Ma = B2^T Ua^T B1, Mb = B3^T Ub^T B1, Mc = B3^T Uc^T B2 of one triplet or a (T, ...) stack.

    Left to right: the bit-for-bit tests of both alternations pin this order.
    """
    b2t, b3t = b2.swapaxes(-1, -2), b3.swapaxes(-1, -2)
    ua, ub, uc = (u.swapaxes(-1, -2) for u in (ua, ub, uc))
    return b2t @ ua @ b1, b3t @ ub @ b1, b3t @ uc @ b2


def _step(d21: np.ndarray, d31: np.ndarray):
    """The larger Frobenius norm of two rotation steps, for one triplet or each of a stack."""
    squared = [np.einsum("...ij,...ij->...", step, step) for step in (d21, d31)]
    return np.sqrt(np.maximum(*squared))


# The d = 2 arithmetic of both alternations. A 2 x 2 matrix is its four row-major
# entries: floats for one triplet, (T,) arrays for a stack. Every entry is
# written out, so one triplet and a stack round alike; numpy's matmul fuses
# some of these multiply-adds.


def _plus_product(m, c, r) -> tuple:
    """M + C R, each entry summed as m_ij + (c_i0 r_0j + c_i1 r_1j)."""
    m00, m01, m10, m11 = m
    c00, c01, c10, c11 = c
    r00, r01, r10, r11 = r
    return (
        m00 + (c00 * r00 + c01 * r10),
        m01 + (c00 * r01 + c01 * r11),
        m10 + (c10 * r00 + c11 * r10),
        m11 + (c10 * r01 + c11 * r11),
    )


def _transposed(m) -> tuple:
    """M^T."""
    return m[0], m[2], m[1], m[3]


def _inner(a, b):
    """<A, B>_F."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _squared_step(new, old):
    """||new - old||_F^2."""
    d0, d1, d2, d3 = new[0] - old[0], new[1] - old[1], new[2] - old[2], new[3] - old[3]
    return d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3


def _alternate_stack(ma, mb, mc, r21, r31, max_sweeps: int, tol: float):
    """The warm-started alternation of :func:`estimate_triplet_direct` over (T, d, d) stacks.

    Takes the coefficient matrices and the starting R_21, R_31 of T triplets
    and returns their final R_21, R_31 as new stacks. Each triplet follows
    its own stopping rule, bit for bit as a per-triplet call: it leaves the
    active set once its larger Frobenius step is below ``tol``, after at most
    ``max_sweeps`` sweeps.
    """
    r21, r31 = r21.copy(), r31.copy()
    active = np.arange(len(ma))
    for _ in range(max_sweeps):
        r21[active], r31[active], step = _sweep_stack(*(x[active] for x in (ma, mb, mc, r21, r31)))
        active = active[~(step < tol)]
        if not active.size:
            break
    return r21, r31


def _sweep_stack(ma, mb, mc, r21, r31) -> tuple:
    """One sweep of every triplet of the stacks: the new R_21 and R_31 and each one's step.

    d = 2 runs the entry-wise arithmetic of :func:`_alternate_2x2` on (T,)
    columns; d >= 3 that of :func:`estimate_triplet_direct` on the stacks.
    """
    if ma.shape[-1] > 2:
        new31 = _project_stack(mb + mc @ r21)
        new21 = _project_stack(ma + mc.transpose(0, 2, 1) @ new31)
        return new21, new31, _step(new21 - r21, new31 - r31)
    # (4, T): the row-major entries of each stack, and back
    entries, stack = (lambda x: x.reshape(-1, 4).T), (lambda e: np.stack(e, -1).reshape(-1, 2, 2))
    ma, mb, mc, r21, r31 = map(entries, (ma, mb, mc, r21, r31))
    new31 = _project_stack(stack(_plus_product(mb, mc, r21)))
    new21 = _project_stack(stack(_plus_product(ma, _transposed(mc), entries(new31))))
    step21, step31 = _squared_step(entries(new21), r21), _squared_step(entries(new31), r31)
    return new21, new31, np.sqrt(np.maximum(step21, step31))


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


def _clique_index(cliques, size: int, n_blocks: int):
    """The (C, size) block indices of ``cliques`` and the number of cliques covering each block.

    Everything is checked before anything is gathered by the indices. A
    clique that is not ``size`` integers, or that repeats a block, raises
    :class:`InvalidTripletError`; one that names a block outside the grid, or
    cliques that leave a block uncovered, raise :class:`CoverageError`.
    """
    index = _block_index(cliques, size)
    outside = ((index < 0) | (index >= n_blocks)).any(axis=1)
    if outside.any():
        raise CoverageError(f"clique {index[outside][0].tolist()} names a block outside this grid")
    counts = np.bincount(index.ravel(), minlength=n_blocks)
    if not counts.all():
        raise CoverageError("the cliques leave a block uncovered")
    return index, counts


def _distinct_covariances(cov: RowCovariance, index: np.ndarray):
    """Group the (C, J) cliques ``index`` by their covariance submatrices.

    Returns each clique's group number, numbered in order of first clique,
    and one ``cov.submatrix`` per group, taken at its first clique. A group
    is a (J, J) pattern of the tile ids of a clique's block pairs, found by
    one ``np.unique``. An id is a block offset, so a stationary lattice has
    two patterns per clique kind, and equal patterns mean equal submatrices.
    """
    ids = cov._tile_ids(index[:, :, None], index[:, None, :])
    _, first, pattern_of = np.unique(
        ids.reshape(len(index), -1), axis=0, return_index=True, return_inverse=True
    )
    # renumber the patterns in order of their first clique
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[pattern_of.ravel()], [cov.submatrix(index[k]) for k in first[order]]


def _metrics(estimates: ChannelField, truth: ChannelField):
    per_block = np.mean((estimates.blocks - truth.blocks) ** 2, axis=(1, 2))
    mean_mse = float(np.mean(per_block))
    nmse_db = 10.0 * math.log10(mean_mse) if mean_mse > 0 else -math.inf
    return tuple(per_block.tolist()), nmse_db


def run_grid(
    method: str,
    obs: ObservationSet,
    cov: RowCovariance,
    grid: GridSpec,
    tiling: TripletTiling | None = None,
    ground_truth: ChannelField | None = None,
    refinement_iters: int = DEFAULT_REFINEMENT_ITERS,
) -> EstimateReport:
    """Run one estimator over the whole grid and average overlapping estimates.

    The local cliques are the 4-neighbor lattice edges for ``pairwise`` and
    the triplets of the tiling for ``sync_base`` and ``iterative``. Each
    clique estimates its relative rotations and denoises its raw blocks
    under them. Blocks covered by several cliques receive the unweighted
    mean of their estimates, which is safe because every local estimate
    targets the same effective channel in the block's own frame. Before any
    solve, observations or ``ground_truth`` shaped for another grid, or a
    covariance built for another lattice (its blocks and cells; the
    antennas are not part of it), raise ``ValueError``, uncovered blocks
    ``CoverageError``.

    ``iterative`` refines the synchronization base's rotations by one
    warm-started stacked alternation of at most 8 * ``refinement_iters``
    sweeps over all triplets, on coefficients formed once from the
    synchronization-base field, then denoises the raw blocks once; each
    triplet keeps the stopping rule and bits of :func:`estimate_triplet_direct`.
    refinement_iters = 0 falls back to the synchronization base, as does
    sigma >= 1 (unit signal power), where the refresh measurably loses to the
    direct estimate's noise-adapted rotations; a negative or non-integer
    count raises ``ValueError``.

    The local operators depend on a clique's covariance submatrix only: the
    tiles of -(U_sub + sigma^2 I)^{-1}, the smoother (U_sub + sigma^2 I)^{-1}
    U_sub, and the refinement's residual scale and tiles are built once per
    distinct submatrix and shared by its cliques; a stationary lattice has
    two distinct edge and two distinct triplet submatrices. They are found
    by grouping the cliques by the block offsets of their block pairs, with
    one ``cov.submatrix`` call per group, read from the covariance's table
    of block-offset tiles, so the dense matrix is never formed. Before the
    grouping, a clique that is not J integers or repeats a block raises
    ``InvalidTripletError``, one naming a block outside the grid
    ``CoverageError``. Denoising and averaging are one stacked pass over
    all cliques, bit for bit :func:`denoise_given_poses` clique by clique.

    Metrics are computed against ``ground_truth`` (the true effective field)
    when given, otherwise left unavailable.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _count(refinement_iters, "refinement_iters", 0)
    n = grid.n_blocks
    d_cells = grid.block_cells
    shapes = [
        ("observation count", obs.n_blocks, n),
        ("observation block shape", obs.block_shape, (d_cells, grid.antennas)),
        ("covariance lattice", cov.lattice, grid.lattice),
    ]
    if ground_truth is not None:
        shapes += [
            ("ground-truth block count", ground_truth.n_blocks, n),
            ("ground-truth block shape", ground_truth.block_shape, (d_cells, grid.antennas)),
        ]
    for what, got, expected in shapes:
        if got != expected:
            raise ValueError(f"{what} {got} does not match the grid's {expected}")
    sigma = obs.noise_sigma
    blocks = obs.blocks

    if method == "pairwise":
        cliques = lattice_edges(grid)
    else:
        cliques = (build_triplet_tiling(grid) if tiling is None else tiling).triplets
    # (cliques, J): the blocks of each clique
    index, counts = _clique_index(cliques, 2 if method == "pairwise" else 3, n)
    # one covariance submatrix per pattern of block offsets; each clique holds the index of its own
    which, subs = _distinct_covariances(cov, index)

    def local_operator(sub, scale):
        # the pair's cross tile or the triplet's named tiles of -(U_sub + scale^2 I)^{-1}
        neg_inv = negated_noisy_inverse(sub, scale)
        if sub.shape[0] == 2 * d_cells:
            return neg_inv[:d_cells, d_cells:]
        return split_triplet_tiles(neg_inv, d_cells)

    direct_ops = [local_operator(sub, sigma) for sub in subs]
    smoothers = [_smoother(sub, sigma) for sub in subs]

    def direct(clique, k):
        local = blocks[clique]
        if len(clique) == 2:
            return [estimate_pair(*local, direct_ops[k]).matrix.T]
        tri = estimate_triplet_direct(*local, direct_ops[k])
        return [tri.r12.matrix.T, tri.r13.matrix.T]

    # (cliques, J - 1, d, d): the rotations R_j1 of each clique's later blocks
    rotations = np.array([direct(c, k) for c, k in zip(index, which)])
    field = _denoise_average(blocks, index, rotations, smoothers, which, counts)

    rounds = refinement_iters if method == "iterative" and 0 < sigma < 1 else 0
    if rounds:
        refresh_ops = [local_operator(sub, residual_noise_sigma(sub, sigma)) for sub in subs]
        # (T, D, D) each: every triplet's refresh cross tiles Ua, Ub, Uc
        cross = [np.stack(tile)[which] for tile in zip(*((t.ua, t.ub, t.uc) for t in refresh_ops))]
        ma, mb, mc = _coefficients(*(field[idx] for idx in index.T), *cross)
        sweeps = rounds * DEFAULT_MAX_SWEEPS
        refined = _alternate_stack(ma, mb, mc, rotations[:, 0], rotations[:, 1], sweeps, DEFAULT_TOL)
        field = _denoise_average(blocks, index, np.stack(refined, axis=1), smoothers, which, counts)

    estimates = ChannelField(field)

    per_block_mse, nmse_db = (None, None)
    if ground_truth is not None:
        per_block_mse, nmse_db = _metrics(estimates, ground_truth)

    return EstimateReport(
        estimates=estimates,
        per_block_mse=per_block_mse,
        nmse_db=nmse_db,
        method=method,
        refinement_iters=rounds,
    )
