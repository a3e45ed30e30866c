import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import mra_sync.sync as sync_module
from mra_sync.sync import _alternate_stack, _distinct_covariances
from mra_sync import (
    ChannelField,
    CovarianceTiles,
    CoverageError,
    GridSpec,
    InvalidTripletError,
    KernelSpec,
    RowCovariance,
    SolverError,
    apply_precoding,
    build_row_covariance,
    build_triplet_tiling,
    denoise_given_poses,
    estimate_pair,
    estimate_triplet_direct,
    lattice_edges,
    negated_noisy_inverse,
    observe,
    run_grid,
    sample_channel,
    sample_pose_set,
    sigma_from_snr_db,
    split_triplet_tiles,
    triplet_objective,
)
from mra_sync.graph import TripletTiling


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def make_instance(grid, cov, snr_db, seed):
    sigma = sigma_from_snr_db(snr_db)
    rng = np.random.default_rng(seed)
    channels = sample_channel(cov, grid.antennas, rng)
    poses = sample_pose_set(grid.n_blocks, grid.antennas, rng)
    effective = apply_precoding(channels, poses)
    return observe(effective, sigma, rng), effective, poses, sigma


def equicorrelated_tiles(d_cells, seed=3, sigma=0.0):
    """A strongly correlated 3-block covariance whose cross tiles are
    exactly symmetric, so planted rotations are the exact maximizer."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d_cells, d_cells))
    k = a @ a.T / d_cells + np.eye(d_cells)
    u = np.block([[k for _ in range(3)] for _ in range(3)])
    u[np.diag_indices_from(u)] += 1e-6
    return k, u, split_triplet_tiles(negated_noisy_inverse(u, sigma), d_cells)


# ---------------------------------------------------------------- denoising


def test_denoise_zero_noise_is_identity(rng):
    blocks = [rng.standard_normal((4, 2)) for _ in range(3)]
    out = denoise_given_poses(blocks, [np.eye(2), np.eye(2)], np.eye(12), 0.0)
    for a, b in zip(out, blocks):
        assert np.array_equal(a, b)


def test_denoise_large_noise_shrinks_to_zero(rng):
    blocks = [rng.standard_normal((3, 2)) for _ in range(2)]
    out = denoise_given_poses(blocks, [np.eye(2)], np.eye(6), 1e6)
    for a, b in zip(out, blocks):
        assert np.linalg.norm(a) < 1e-3 * np.linalg.norm(b)


def test_denoise_two_block_hand_case():
    # (sigma^2 U^{-1} + I)^{-1} B with U = [[1, .9], [.9, 1]], sigma = 1,
    # B = [1; 1]: both entries (U(U+I)^{-1} B) = 2.09 / 3.19, by 2x2 hand
    # inversion: (U+I)^{-1} = [[2, -.9], [-.9, 2]] / 3.19
    u = np.array([[1.0, 0.9], [0.9, 1.0]])
    out = denoise_given_poses([np.array([[1.0]]), np.array([[1.0]])], [np.eye(1)], u, 1.0)
    expected = 2.09 / 3.19
    assert out[0][0, 0] == pytest.approx(expected, abs=1e-9)
    assert out[1][0, 0] == pytest.approx(expected, abs=1e-9)


def test_denoise_matches_naive_inverse_form(rng):
    # same result as literally forming (sigma^2 U^{-1} + I)^{-1}
    a = rng.standard_normal((8, 8))
    u = a @ a.T + 0.5 * np.eye(8)
    sigma = 0.6
    blocks = [rng.standard_normal((4, 2)) for _ in range(2)]
    r = sample_pose_set(1, 2, rng).poses[0]
    out = denoise_given_poses(blocks, [r], u, sigma)
    stacked = np.vstack([blocks[0], blocks[1] @ r])
    naive = np.linalg.solve(sigma**2 * np.linalg.inv(u) + np.eye(8), stacked)
    assert np.allclose(out[0], naive[:4], atol=1e-10)
    assert np.allclose(out[1], naive[4:] @ r.T, atol=1e-10)


def test_denoise_rotation_count_mismatch(rng):
    with pytest.raises(ValueError):
        denoise_given_poses([np.ones((2, 2))] * 3, [np.eye(2)], np.eye(6), 0.5)


def test_denoise_rejects_non_rotations_and_wrong_sizes():
    blocks = [np.ones((2, 2))] * 2
    with pytest.raises(ValueError, match="rotations: matrix is not orthogonal"):
        denoise_given_poses(blocks, [2 * np.eye(2)], np.eye(4), 0.5)
    with pytest.raises(ValueError, match="rotations must be 2 x 2"):
        denoise_given_poses(blocks, [np.eye(3)], np.eye(4), 0.5)
    with pytest.raises(ValueError, match="rotations must be 2 x 2"):
        denoise_given_poses([np.ones((2, 2))] * 3, [np.eye(2), np.eye(3)], np.eye(6), 0.5)


def test_denoise_checks_covariance_size_before_zero_noise_shortcut():
    for sigma in (0.0, 0.5):
        with pytest.raises(ValueError, match="covariance"):
            denoise_given_poses([np.ones((2, 2))] * 2, [np.eye(2)], np.eye(7), sigma)


def test_indefinite_local_covariance_raises_solver_error(rng):
    # -I + sigma^2 I stays negative definite, so its Cholesky factorization fails
    with pytest.raises(SolverError) as info:
        negated_noisy_inverse(-np.eye(4), 0.5)
    assert info.value.condition_estimate == 1.0
    indefinite = np.diag([1.0, 1.0, 1.0, -1.0])
    blocks = [rng.standard_normal((2, 2)) for _ in range(2)]
    with pytest.raises(SolverError):
        denoise_given_poses(blocks, [np.eye(2)], indefinite, 0.5)


# ---------------------------------------------------------- pair estimation


def test_estimate_pair_recovers_planted_rotation(rng):
    d_cells = 8
    a = rng.standard_normal((d_cells, d_cells))
    ua = a @ a.T + d_cells * np.eye(d_cells)  # symmetric PD cross tile
    b1 = rng.standard_normal((d_cells, 3))
    planted = sample_pose_set(1, 3, rng).poses[0]
    r12 = estimate_pair(b1, b1 @ planted, ua)
    assert np.linalg.norm(r12.matrix - planted) < 1e-6


def test_estimate_pair_identity_for_equal_blocks(rng):
    b = rng.standard_normal((5, 2))
    r12 = estimate_pair(b, b, 0.7 * np.eye(5))
    assert np.linalg.norm(r12.matrix - np.eye(2)) < 1e-10


def test_estimate_pair_matches_angle_search(default_grid, default_cov):
    sigma = sigma_from_snr_db(20.0)
    sub = default_cov.submatrix((0, 1))
    d_cells = default_grid.block_cells
    ua = negated_noisy_inverse(sub, sigma)[:d_cells, d_cells:]
    obs, _, _, _ = make_instance(default_grid, default_cov, 20.0, 17)
    r12 = estimate_pair(obs.blocks[0], obs.blocks[1], ua)
    # oracle: dense 1-D search over the R21 angle at 0.1 degree resolution
    m = obs.blocks[1].T @ ua.T @ obs.blocks[0]
    thetas = np.deg2rad(np.arange(0.0, 360.0, 0.1))
    values = np.cos(thetas) * (m[0, 0] + m[1, 1]) + np.sin(thetas) * (m[1, 0] - m[0, 1])
    best21 = thetas[np.argmax(values)]
    got21 = math.atan2(r12.matrix.T[1, 0], r12.matrix.T[0, 0])
    diff = abs((got21 - best21 + math.pi) % (2 * math.pi) - math.pi)
    assert math.degrees(diff) < 0.5


# ------------------------------------------------------- triplet estimation


def test_triplet_planted_recovery_strong_correlation(rng):
    # strongly correlated prior with exactly symmetric cross tiles: the
    # planted rotations are the exact maximizer and must be recovered
    d_cells, d = 8, 2
    k, u, tiles = equicorrelated_tiles(d_cells)
    chol = np.linalg.cholesky(k + 1e-6 * np.eye(d_cells))
    for _ in range(10):
        x = chol @ rng.standard_normal((d_cells, d))
        r12 = sample_pose_set(1, d, rng).poses[0]
        r13 = sample_pose_set(1, d, rng).poses[0]
        est = estimate_triplet_direct(x, x @ r12, x @ r13, tiles)
        assert np.linalg.norm(est.r12.matrix - r12) < 1e-5
        assert np.linalg.norm(est.r13.matrix - r13) < 1e-5


def test_triplet_generative_zero_noise_recovery(default_grid, default_cov):
    # full generative model at sigma = 0: recovery is statistical, limited
    # by the finite innovation between blocks; bound measured empirically
    d_cells = default_grid.block_cells
    sub = default_cov.submatrix((0, 1, 6))
    tiles = split_triplet_tiles(negated_noisy_inverse(sub, 0.0), d_cells)
    worst = 0.0
    for seed in range(10):
        obs, effective, poses, _ = make_instance(default_grid, default_cov, math.inf, seed)
        est = estimate_triplet_direct(obs.blocks[0], obs.blocks[1], obs.blocks[6], tiles)
        worst = max(
            worst,
            np.linalg.norm(est.r12.matrix - poses.poses[0].T @ poses.poses[1]),
            np.linalg.norm(est.r13.matrix - poses.poses[0].T @ poses.poses[6]),
        )
    assert worst < 5e-3


def test_triplet_objective_trace_non_decreasing(default_grid, default_cov):
    d_cells = default_grid.block_cells
    sub = default_cov.submatrix((0, 1, 6))
    sigma = sigma_from_snr_db(10.0)
    tiles = split_triplet_tiles(negated_noisy_inverse(sub, sigma), d_cells)
    for seed in range(20):
        obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, seed)
        est = estimate_triplet_direct(
            obs.blocks[0], obs.blocks[1], obs.blocks[6], tiles, max_sweeps=16
        )
        trace = est.objective_trace
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        # the recorded trace matches an independent evaluation of the objective
        value = triplet_objective(
            obs.blocks[0], obs.blocks[1], obs.blocks[6], tiles, est.r12, est.r13
        )
        assert value == pytest.approx(trace[-1], rel=1e-12)


def test_triplet_r23_composition(default_grid, default_cov, rng):
    d_cells = default_grid.block_cells
    sub = default_cov.submatrix((0, 1, 6))
    tiles = split_triplet_tiles(negated_noisy_inverse(sub, 0.5), d_cells)
    obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, 3)
    est = estimate_triplet_direct(obs.blocks[0], obs.blocks[1], obs.blocks[6], tiles)
    assert np.allclose(est.r23().matrix, est.r12.matrix.T @ est.r13.matrix, atol=1e-12)


def test_triplet_rejects_bad_sweep_counts_and_non_rotations(default_grid, default_cov):
    obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, 0)
    blocks = obs.blocks[[0, 1, 7]]
    tiles = split_triplet_tiles(negated_noisy_inverse(default_cov.submatrix((0, 1, 7)), 0.3), 12)
    for max_sweeps in (True, 2.5, 0):
        with pytest.raises(ValueError, match="max_sweeps must be an integer >= 1"):
            estimate_triplet_direct(*blocks, tiles, max_sweeps=max_sweeps)
    not_rotation = 2 * np.eye(2)
    with pytest.raises(ValueError, match="init r12: matrix is not orthogonal"):
        estimate_triplet_direct(*blocks, tiles, init=(not_rotation, np.eye(2)))
    with pytest.raises(ValueError, match="r13: matrix is not orthogonal"):
        triplet_objective(*blocks, tiles, np.eye(2), not_rotation)


def test_triplet_warm_start_converges_immediately(default_grid, default_cov):
    d_cells = default_grid.block_cells
    sub = default_cov.submatrix((0, 1, 6))
    tiles = split_triplet_tiles(negated_noisy_inverse(sub, 0.3), d_cells)
    obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, 5)
    first = estimate_triplet_direct(
        obs.blocks[0], obs.blocks[1], obs.blocks[6], tiles, max_sweeps=64
    )
    again = estimate_triplet_direct(
        obs.blocks[0],
        obs.blocks[1],
        obs.blocks[6],
        tiles,
        init=(first.r12, first.r13),
    )
    assert again.converged
    assert again.sweeps == 1


# ---------------------------------------------------------------- run_grid


def test_run_grid_single_triplet_matches_local_estimators():
    grid = GridSpec(1, 3, 2, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(3.0))
    obs, effective, _, sigma = make_instance(grid, cov, 10.0, 4)
    sub = cov.submatrix((0, 1, 2))
    tiles = split_triplet_tiles(negated_noisy_inverse(sub, sigma), grid.block_cells)

    tri = estimate_triplet_direct(obs.blocks[0], obs.blocks[1], obs.blocks[2], tiles)
    manual = denoise_given_poses(list(obs.blocks), [tri.r12.T, tri.r13.T], sub, sigma)
    report = run_grid("sync_base", obs, cov, grid, ground_truth=effective)
    for a, b in zip(report.estimates.blocks, manual):
        assert np.array_equal(a, b)

    report_it = run_grid("iterative", obs, cov, grid, ground_truth=effective, refinement_iters=4)
    expected = per_clique_reference("iterative", obs, cov, grid, 4)
    assert report_it.estimates.blocks.tobytes() == expected.tobytes()


def test_run_grid_zero_noise_exact_all_methods():
    for shape in [(2, 2), (3, 3), (1, 4), (2, 3)]:
        grid = GridSpec(*shape, 2, 3, 2)
        cov = build_row_covariance(grid, KernelSpec(5.0))
        obs, effective, _, _ = make_instance(grid, cov, math.inf, 1)
        for method in ("pairwise", "sync_base", "iterative"):
            report = run_grid(method, obs, cov, grid, ground_truth=effective)
            assert max(report.per_block_mse) < 1e-20


def relative_gap(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_run_grid_gauge_invariance():
    # every estimator is equivariant to a separate pose change Q_i of each block
    for d in (2, 3, 4):
        grid = GridSpec(4, 4, 2, 3, d)
        cov = build_row_covariance(grid, KernelSpec(4.0))
        q = sample_pose_set(grid.n_blocks, d, np.random.default_rng(5)).poses
        for snr_db in (-5.0, 10.0, 30.0):
            obs, _, _, sigma = make_instance(grid, cov, snr_db, 9)
            obs_q = type(obs)(obs.blocks @ q, sigma)
            for method in ("pairwise", "sync_base", "iterative"):
                base = run_grid(method, obs, cov, grid).estimates.blocks
                gauged = run_grid(method, obs_q, cov, grid).estimates.blocks
                assert relative_gap(gauged, base @ q) < 1e-12


def test_run_grid_ignores_the_order_of_the_triplets():
    grid = GridSpec(4, 4, 2, 3, 2)
    cov = build_row_covariance(grid, KernelSpec(4.0))
    triplets = build_triplet_tiling(grid).triplets
    order = np.random.default_rng(2).permutation(len(triplets))
    shuffled = TripletTiling(tuple(triplets[k] for k in order))
    for snr_db in (-5.0, 10.0, 30.0):
        obs, _, _, _ = make_instance(grid, cov, snr_db, 9)
        for method in ("sync_base", "iterative"):
            listed = run_grid(method, obs, cov, grid).estimates.blocks
            reordered = run_grid(method, obs, cov, grid, tiling=shuffled).estimates.blocks
            assert relative_gap(reordered, listed) < 1e-12


def test_run_grid_shrinkage(default_grid, default_cov):
    obs, _, _, _ = make_instance(default_grid, default_cov, 5.0, 6)
    for method in ("pairwise", "sync_base", "iterative"):
        report = run_grid(method, obs, default_cov, default_grid)
        est_norm = np.linalg.norm(np.vstack([b for b in report.estimates.blocks]))
        obs_norm = np.linalg.norm(np.vstack(obs.blocks))
        assert est_norm <= obs_norm * (1.0 + 1e-12)
        assert report.per_block_mse is None and report.nmse_db is None


def test_run_grid_iterative_zero_iters_equals_sync_base(default_grid, default_cov):
    obs, effective, _, _ = make_instance(default_grid, default_cov, 10.0, 7)
    base = run_grid("sync_base", obs, default_cov, default_grid, ground_truth=effective)
    it0 = run_grid(
        "iterative", obs, default_cov, default_grid, ground_truth=effective, refinement_iters=0
    )
    for a, b in zip(base.estimates.blocks, it0.estimates.blocks):
        assert np.array_equal(a, b)
    assert it0.method == "iterative" and it0.refinement_iters == 0
    assert base.refinement_iters == 0


def test_run_grid_reports_the_refinement_rounds_that_ran(default_grid, default_cov):
    # the refinement runs only for 0 < sigma < 1; otherwise no round runs
    for snr_db, rounds in ((10.0, 3), (0.0, 0), (math.inf, 0)):
        obs, _, _, _ = make_instance(default_grid, default_cov, snr_db, 4)
        report = run_grid("iterative", obs, default_cov, default_grid, refinement_iters=3)
        assert report.refinement_iters == rounds, snr_db


def test_run_grid_refinement_noop_at_unit_noise(default_grid, default_cov):
    # at noise power >= signal power the refresh is disabled by design
    obs, effective, _, _ = make_instance(default_grid, default_cov, 0.0, 3)
    base = run_grid("sync_base", obs, default_cov, default_grid, ground_truth=effective)
    it = run_grid("iterative", obs, default_cov, default_grid, ground_truth=effective)
    assert it.nmse_db == base.nmse_db


def test_run_grid_coverage_error(default_grid, default_cov):
    small = GridSpec(2, 2, 3, 4, 2)
    tiling = build_triplet_tiling(small)
    obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, 0)
    with pytest.raises(CoverageError):
        run_grid("sync_base", obs, default_cov, default_grid, tiling=tiling)


def test_run_grid_rejects_malformed_cliques_before_gathering(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("covariance gathered before the cliques were checked")

    grid = GridSpec(2, 2, 2, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(3.0))
    obs, _, _, _ = make_instance(grid, cov, 10.0, 0)
    monkeypatch.setattr(RowCovariance, "_tile_ids", no_work)
    monkeypatch.setattr(RowCovariance, "submatrix", no_work)
    cases = (
        # a negative index would wrap silently in a fancy index
        (((0, 1, 2), (1, 2, 3), (-1, 0, 1)), CoverageError, r"\[-1, 0, 1\] names a block outside"),
        (((0, 1, 2), (1, 2, 4)), CoverageError, r"\[1, 2, 4\] names a block outside"),
        # a float index would be truncated to (1, 2, 3)
        (((0, 1, 2), (1, 2, 3.5)), InvalidTripletError, r"\(1, 2, 3\.5\) is not 3 integer"),
        (((0, 1, 2), (1, 3)), InvalidTripletError, r"\(1, 3\) is not 3 integer"),
        (((0, 0, 3), (1, 2, 3)), InvalidTripletError, r"duplicate block indices in \[0, 0, 3\]$"),
    )
    for triplets, error, message in cases:
        with pytest.raises(error, match=message):
            run_grid("sync_base", obs, cov, grid, tiling=TripletTiling(triplets))


def test_run_grid_rejects_bool_block_indices():
    # np.array reads (True, 2, 3) as the ints (1, 2, 3)
    grid = GridSpec(2, 2, 2, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(3.0))
    obs, _, _, _ = make_instance(grid, cov, 10.0, 0)
    tiling = TripletTiling(((0, 1, 2), (True, 2, 3)))
    with pytest.raises(InvalidTripletError, match=r"\(True, 2, 3\) is not 3 integer"):
        run_grid("sync_base", obs, cov, grid, tiling=tiling)
    numpy_tiling = TripletTiling(tuple(np.array([(0, 1, 2), (1, 2, 3)])))
    expected = run_grid("sync_base", obs, cov, grid, tiling=TripletTiling(((0, 1, 2), (1, 2, 3))))
    got = run_grid("sync_base", obs, cov, grid, tiling=numpy_tiling)
    assert np.array_equal(got.estimates.blocks, expected.estimates.blocks)


def test_run_grid_keeps_clique_covariance_memory_small():
    # 242 triplets of 36 x 36 submatrices: gathering them all would take 2.4 MiB
    grid = GridSpec(12, 12, 3, 4, 2)
    cov = build_row_covariance(grid, KernelSpec(5.0))
    obs, _, _, _ = make_instance(grid, cov, 10.0, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_grid("sync_base", obs, cov, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # cliques are grouped by their block offsets, and one submatrix is read per group
    assert peak - before < 2**20 + 2**18


def test_distinct_covariances_group_cliques_by_block_offsets(default_grid, default_cov):
    # cliques are grouped by block offsets: every clique's group holds its own
    # submatrix's bytes, and groups are numbered in order of their first clique
    strip, column = GridSpec(1, 7, 3, 4, 3), GridSpec(5, 1, 2, 3, 2)
    cases = [(default_grid, default_cov)]
    cases += [(grid, build_row_covariance(grid, KernelSpec(5.0))) for grid in (strip, column)]
    for grid, cov in cases:
        for cliques in (lattice_edges(grid), build_triplet_tiling(grid).triplets):
            index = np.array(cliques)
            which, subs = _distinct_covariances(cov, index)
            firsts = np.unique(which, return_index=True)[1]
            assert len(firsts) == len(subs) and np.all(np.diff(firsts) > 0)
            for k, clique in zip(which, index):
                assert subs[k].tobytes() == cov.submatrix(clique).tobytes()


def test_run_grid_scales_past_a_dense_covariance_that_would_not_fit():
    # N*D = 19 200: the dense covariance would take 2.9 GB, its tile table takes 7 MB
    grid = GridSpec(40, 40, 3, 4, 2)
    tracemalloc.start()
    try:
        cov = build_row_covariance(grid, KernelSpec(5.0))
        obs, effective, _, _ = make_instance(grid, cov, 10.0, 0)
        reports = [
            run_grid(method, obs, cov, grid, ground_truth=effective)
            for method in ("pairwise", "sync_base")
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cov._matrix is None
    assert peak < 64 * 2**20
    assert all(report.nmse_db < -15.0 for report in reports)


def test_run_grid_rejects_unknown_method(default_grid, default_cov):
    obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, 0)
    with pytest.raises(ValueError):
        run_grid("magic", obs, default_cov, default_grid)


def test_run_grid_metrics_definition(default_grid, default_cov):
    obs, effective, _, _ = make_instance(default_grid, default_cov, 10.0, 11)
    report = run_grid("sync_base", obs, default_cov, default_grid, ground_truth=effective)
    manual = [
        float(np.mean((a - b) ** 2))
        for a, b in zip(report.estimates.blocks, effective.blocks)
    ]
    assert report.per_block_mse == pytest.approx(manual, rel=1e-12)
    assert report.nmse_db == pytest.approx(10.0 * math.log10(np.mean(manual)), rel=1e-12)


def test_run_grid_rejects_negative_refinement_iters(default_grid, default_cov, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("operators built before the arguments were checked")

    monkeypatch.setattr(sync_module, "negated_noisy_inverse", no_work)
    obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, 0)
    for method in ("pairwise", "sync_base", "iterative"):
        with pytest.raises(ValueError, match="refinement_iters"):
            run_grid(method, obs, default_cov, default_grid, refinement_iters=-2)


def test_run_grid_rejects_mismatched_shapes(default_grid, default_cov, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("operators built before the shapes were checked")

    for name in ("negated_noisy_inverse", "_smoother", "_noisy_cholesky"):
        monkeypatch.setattr(sync_module, name, no_work)
    monkeypatch.setattr(RowCovariance, "submatrix", no_work)
    monkeypatch.setattr(RowCovariance, "_tile_ids", no_work)
    obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, 0)
    wide_obs, _, _, _ = make_instance(GridSpec(6, 6, 3, 4, 3), default_cov, 10.0, 0)
    small_cells = build_row_covariance(GridSpec(6, 6, 2, 3, 2), KernelSpec(5.0))
    few_blocks = build_row_covariance(GridSpec(5, 5, 3, 4, 2), KernelSpec(5.0))
    cases = (
        (wide_obs, default_cov, "observation block shape"),
        (obs, small_cells, "covariance lattice"),
        (obs, few_blocks, "covariance lattice"),
    )
    for method in ("pairwise", "sync_base", "iterative"):
        for observations, cov, message in cases:
            with pytest.raises(ValueError, match=message):
                run_grid(method, observations, cov, default_grid)


def test_run_grid_rejects_a_covariance_built_for_another_lattice():
    # each has the grid's N = 16 blocks of D = 12 cells, and each ran silently
    # (sync_base at sigma = 0.3: -18.84 dB with the right one, -17.39, -11.38
    # and -11.47 dB with these)
    grid = GridSpec(4, 4, 3, 4, 2)
    cov = build_row_covariance(grid, KernelSpec(5.0))
    rng = np.random.default_rng(0)
    channels = sample_channel(cov, grid.antennas, rng)
    truth = apply_precoding(channels, sample_pose_set(grid.n_blocks, grid.antennas, rng))
    obs = observe(truth, 0.3, rng)
    for lattice in ((2, 8, 3, 4), (4, 4, 4, 3), (4, 4, 2, 6)):
        other = build_row_covariance(GridSpec(*lattice, 2), KernelSpec(5.0))
        assert (other.n_blocks, other.block_size) == (cov.n_blocks, cov.block_size)
        for method in ("pairwise", "sync_base", "iterative"):
            with pytest.raises(ValueError, match=r"covariance lattice \(.*\) does not match"):
                run_grid(method, obs, other, grid, ground_truth=truth)


def test_run_grid_rejects_non_integer_refinement_iters(default_grid, default_cov):
    obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, 0)
    noiseless, _, _, _ = make_instance(default_grid, default_cov, math.inf, 0)
    for observations in (obs, noiseless):
        for value in (1.5, True):
            with pytest.raises(ValueError, match="refinement_iters must be an integer"):
                run_grid(
                    "iterative", observations, default_cov, default_grid, refinement_iters=value
                )


def test_run_grid_rejects_mismatched_ground_truth(monkeypatch):
    # a 1-block field would broadcast against all six blocks of a 2x3 grid
    grid = GridSpec(2, 3, 2, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(3.0))
    obs, truth, _, _ = make_instance(grid, cov, 10.0, 0)

    def no_work(*args, **kwargs):
        raise AssertionError("operators built before the shapes were checked")

    monkeypatch.setattr(sync_module, "negated_noisy_inverse", no_work)
    cases = (
        (ChannelField(truth.blocks[:1]), "ground-truth block count"),
        (ChannelField(truth.blocks[:, :, :1]), "ground-truth block shape"),
    )
    for method in ("pairwise", "sync_base", "iterative"):
        for bad_truth, message in cases:
            with pytest.raises(ValueError, match=message):
                run_grid(method, obs, cov, grid, ground_truth=bad_truth)


def test_run_grid_iterative_denoises_each_triplet_twice(default_grid, default_cov, monkeypatch):
    calls = {"_denoise_average": 0, "denoise_given_poses": 0, "_alternate_stack": 0}

    def counting(name):
        original = getattr(sync_module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(sync_module, name, counting(name))
    obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, 7)
    # one stacked denoise-and-average pass over all cliques per field, and
    # the refinement is one stacked alternation over all triplets
    expected = (("pairwise", 1, 0), ("sync_base", 1, 0), ("iterative", 2, 1))
    for method, passes, alternations in expected:
        for name in calls:
            calls[name] = 0
        run_grid(method, obs, default_cov, default_grid, refinement_iters=4)
        assert calls["_denoise_average"] == passes, method
        assert calls["denoise_given_poses"] == 0, method
        assert calls["_alternate_stack"] == alternations, method


def test_run_grid_builds_operators_once_per_clique_covariance(
    default_grid, default_cov, monkeypatch
):
    calls = {"negated_noisy_inverse": 0, "residual_noise_sigma": 0, "submatrix": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for owner, name in (
        (sync_module, "negated_noisy_inverse"),
        (sync_module, "residual_noise_sigma"),
        (RowCovariance, "submatrix"),
    ):
        monkeypatch.setattr(owner, name, counting(owner, name))
    obs, _, _, _ = make_instance(default_grid, default_cov, 10.0, 7)
    # 60 edges and 50 triplets, but two distinct edge and two distinct
    # triplet covariances on a stationary lattice
    expected = {
        "pairwise": {"negated_noisy_inverse": 2, "residual_noise_sigma": 0, "submatrix": 2},
        "sync_base": {"negated_noisy_inverse": 2, "residual_noise_sigma": 0, "submatrix": 2},
        "iterative": {"negated_noisy_inverse": 4, "residual_noise_sigma": 2, "submatrix": 2},
    }
    for method, counts in expected.items():
        for name in calls:
            calls[name] = 0
        run_grid(method, obs, default_cov, default_grid, refinement_iters=4)
        assert calls == counts, method


def per_clique_reference(method, obs, cov, grid, refinement_iters):
    """run_grid as a plain loop over cliques, each with operators from its own
    submatrix; iterative refines each triplet by one warm-started call."""
    sigma = obs.noise_sigma
    d_cells = grid.block_cells
    if method == "pairwise":
        cliques = [list(c) for c in lattice_edges(grid)]
    else:
        cliques = [list(c) for c in build_triplet_tiling(grid).triplets]
    subs = [cov.submatrix(c) for c in cliques]

    def averaged(rotations):
        sums = np.zeros_like(obs.blocks)
        counts = np.zeros(grid.n_blocks)
        for clique, sub, rots in zip(cliques, subs, rotations):
            sums[clique] += denoise_given_poses(obs.blocks[clique], rots, sub, sigma)
            counts[clique] += 1
        return sums / counts[:, None, None]

    rotations = []
    for clique, sub in zip(cliques, subs):
        neg_inv = negated_noisy_inverse(sub, sigma)
        local = obs.blocks[clique]
        if len(clique) == 2:
            rotations.append([estimate_pair(*local, neg_inv[:d_cells, d_cells:]).T])
        else:
            tri = estimate_triplet_direct(*local, split_triplet_tiles(neg_inv, d_cells))
            rotations.append([tri.r12.T, tri.r13.T])
    field = averaged(rotations)
    if method != "iterative" or not 0 < sigma < 1 or refinement_iters == 0:
        return field
    for t, (clique, sub) in enumerate(zip(cliques, subs)):
        n = sub.shape[0]
        err = sigma**2 * cho_solve(cho_factor(sub + sigma**2 * np.eye(n), lower=True), sub)
        refresh = negated_noisy_inverse(sub, math.sqrt(np.trace(err) / n))
        tri = estimate_triplet_direct(
            *field[clique],
            split_triplet_tiles(refresh, d_cells),
            max_sweeps=8 * refinement_iters,
            init=[r.T for r in rotations[t]],
        )
        rotations[t] = [tri.r12.T, tri.r13.T]
    return averaged(rotations)


def test_run_grid_shared_operators_match_per_clique_loop(default_grid, default_cov):
    strip = GridSpec(1, 7, 3, 4, 3)
    cases = [
        (default_grid, default_cov, 0.0, 2),
        (default_grid, default_cov, 10.0, 7),
        (default_grid, default_cov, 20.0, 8),
        # d = 4 at high SNR, where U + sigma^2 I is ill-conditioned
        (GridSpec(6, 6, 3, 4, 4), default_cov, 70.0, 5),
        (strip, build_row_covariance(strip, KernelSpec(5.0)), 10.0, 6),
    ]
    for grid, cov, snr_db, seed in cases:
        obs, _, _, _ = make_instance(grid, cov, snr_db, seed)
        for method in ("pairwise", "sync_base", "iterative"):
            report = run_grid(method, obs, cov, grid, refinement_iters=4)
            expected = per_clique_reference(method, obs, cov, grid, 4)
            assert report.estimates.blocks.tobytes() == expected.tobytes(), (method, snr_db)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from([(1, 3), (2, 3), (3, 3)]),
    d=st.sampled_from([2, 3, 4]),
    length_scale=st.sampled_from([1.5, 3.0, 6.0]),
    snr_db=st.sampled_from([5.0, 10.0, 20.0, 40.0]),
    seed=st.integers(0, 2**16),
)
def test_run_grid_matches_per_clique_reference_bit_for_bit(shape, d, length_scale, snr_db, seed):
    grid = GridSpec(*shape, 2, 2, d)
    cov = build_row_covariance(grid, KernelSpec(length_scale))
    obs, _, _, _ = make_instance(grid, cov, snr_db, seed)
    for method in ("pairwise", "sync_base", "iterative"):
        report = run_grid(method, obs, cov, grid, refinement_iters=4)
        expected = per_clique_reference(method, obs, cov, grid, 4)
        assert report.estimates.blocks.tobytes() == expected.tobytes(), method


def test_observe_and_precoding_match_per_block_loop():
    for grid in (GridSpec(2, 3, 2, 2, 2), GridSpec(2, 2, 1, 3, 3)):
        cov = build_row_covariance(grid, KernelSpec(3.0))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            loop_rng = np.random.default_rng(seed)
            channels = sample_channel(cov, grid.antennas, rng)
            poses = sample_pose_set(grid.n_blocks, grid.antennas, rng)
            effective = apply_precoding(channels, poses)
            obs = observe(effective, 0.3, rng)
            sample_channel(cov, grid.antennas, loop_rng)
            sample_pose_set(grid.n_blocks, grid.antennas, loop_rng)
            for h, p, e, o in zip(channels.blocks, poses.poses, effective.blocks, obs.blocks):
                assert np.array_equal(e, h @ p)
                assert np.array_equal(o, e + 0.3 * loop_rng.standard_normal(e.shape))
            assert rng.standard_normal() == loop_rng.standard_normal()


# ------------------------------------------------------ stacked alternation


def warm_triplets(d, seed=1):
    """Every triplet of a 3x3 grid at 10 dB: its blocks, its tiles, and a
    two-sweep direct estimate to warm-start the alternation from."""
    grid = GridSpec(3, 3, 2, 2, d)
    cov = build_row_covariance(grid, KernelSpec(3.0))
    obs, _, _, sigma = make_instance(grid, cov, 10.0, seed)
    triplets = []
    for t in build_triplet_tiling(grid).triplets:
        sub = cov.submatrix(t)
        tiles = split_triplet_tiles(negated_noisy_inverse(sub, sigma), grid.block_cells)
        blocks = obs.blocks[list(t)]
        triplets.append((blocks, tiles, estimate_triplet_direct(*blocks, tiles, max_sweeps=2)))
    return triplets


def stacks(triplets):
    """(T, d, d) stacks of Ma, Mb, Mc, R21 and R31, each item formed as
    estimate_triplet_direct forms it."""
    items = []
    for (b1, b2, b3), tiles, start in triplets:
        items.append((
            b2.T @ tiles.ua.T @ b1,
            b3.T @ tiles.ub.T @ b1,
            b3.T @ tiles.uc.T @ b2,
            start.r12.matrix.T,
            start.r13.matrix.T,
        ))
    return [np.array(stack) for stack in zip(*items)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_alternate_stack_matches_chained_warm_started_calls(d):
    triplets = warm_triplets(d)
    ma, mb, mc, r21, r31 = stacks(triplets)
    chained = [start for _, _, start in triplets]
    converged = set()
    for _ in range(3):
        r21, r31 = _alternate_stack(ma, mb, mc, r21, r31, 20, sync_module.DEFAULT_TOL)
        chained = [
            estimate_triplet_direct(*blocks, tiles, max_sweeps=20, init=(est.r12, est.r13))
            for (blocks, tiles, _), est in zip(triplets, chained)
        ]
        for t, est in enumerate(chained):
            assert r21[t].tobytes() == est.r12.matrix.T.tobytes()
            assert r31[t].tobytes() == est.r13.matrix.T.tobytes()
        converged |= {est.converged for est in chained}
    # some triplets stopped on the step rule, others ran to the sweep cap
    assert converged == {True, False}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_alternate_stack_independent_of_batch_size_and_order(d):
    ma, mb, mc, r21, r31 = stacks(warm_triplets(d, seed=2))
    tol = sync_module.DEFAULT_TOL
    whole = np.array(_alternate_stack(ma, mb, mc, r21, r31, 20, tol))
    back = slice(None, None, -1)
    backwards = np.array(_alternate_stack(ma[back], mb[back], mc[back], r21[back], r31[back], 20, tol))
    assert whole.tobytes() == backwards[:, back].tobytes()
    for t in range(len(ma)):
        one = slice(t, t + 1)
        single = np.array(_alternate_stack(ma[one], mb[one], mc[one], r21[one], r31[one], 20, tol))
        assert single.tobytes() == whole[:, one].tobytes()


def coefficient_triplet(ma, mb, mc):
    """Blocks and tiles of a D = d = 2 triplet whose coefficients are ma, mb and mc,
    and those coefficients as estimate_triplet_direct forms them."""
    blocks = [np.eye(2)] * 3
    zero = np.zeros((2, 2))
    tiles = CovarianceTiles(zero, zero, zero, ma.T, mb.T, mc.T)
    return blocks, tiles, sync_module._coefficients(*blocks, tiles.ua, tiles.ub, tiles.uc)


def test_scalar_and_stacked_d2_alternations_agree_bit_for_bit():
    rng = np.random.default_rng(5)
    reflection = np.diag([1.0, -1.0])
    # passes as a rotation (within 1e-10 of orthogonal), but is not [[c, -s], [s, c]]
    skewed = rot2(0.7) + np.array([[3e-12, -1e-12], [4e-12, -2e-12]])
    assert skewed[0, 0] != skewed[1, 1] and skewed[0, 1] != -skewed[1, 0]
    # p = 0.48e308 and q = 1.4e308 are finite, p + q is not
    huge = 0.6e308 * np.array([[1.0, 1.0], [1.0, -0.2]])
    cases = [
        # (ma, mb, mc, r12, r13): the last two warm-start both paths
        (*rng.standard_normal((3, 2, 2)), skewed, skewed.T),
        # X31 and X21 with p = 0: the projections fall back to the identity
        (reflection, reflection, np.zeros((2, 2)), rot2(0.3), rot2(-1.1)),
        (np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), skewed, rot2(2.0)),
        (*1e300 * rng.standard_normal((3, 2, 2)), rot2(1.0), skewed),
        # X31 = X21 = huge: the closed form rescales
        (huge, huge, np.zeros((2, 2)), skewed, rot2(0.2)),
    ]
    tol = sync_module.DEFAULT_TOL
    for ma, mb, mc, r12, r13 in cases:
        blocks, tiles, coefficients = coefficient_triplet(ma, mb, mc)
        for max_sweeps in (1, 2, 8, 32):
            est = estimate_triplet_direct(*blocks, tiles, max_sweeps=max_sweeps, init=(r12, r13))
            stacked = _alternate_stack(
                *(m[None] for m in coefficients), r12.T[None], r13.T[None], max_sweeps, tol
            )
            assert stacked[0][0].tobytes() == est.r12.matrix.T.tobytes()
            assert stacked[1][0].tobytes() == est.r13.matrix.T.tobytes()
    # NaN coefficients raise the projection's error on both paths
    for k in range(3):
        ms = list(rng.standard_normal((3, 2, 2)))
        ms[k][1, 0] = np.nan
        blocks, tiles, coefficients = coefficient_triplet(*ms)
        with pytest.raises(ValueError, match="input contains non-finite entries"):
            estimate_triplet_direct(*blocks, tiles, init=(np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match="input contains non-finite entries"):
            identity = np.eye(2)[None]
            _alternate_stack(*(m[None] for m in coefficients), identity, identity, 8, tol)
