import math

import numpy as np
import pytest

from mra_sync import (
    GridSpec,
    KernelSpec,
    RowCovariance,
    apply_precoding,
    brute_force_rotation_2d,
    build_row_covariance,
    denoise_given_poses,
    estimate_triplet_direct,
    ideal_sync_mse_db,
    mmse_error_covariance,
    negated_noisy_inverse,
    observe,
    sample_channel,
    sample_pose_set,
    sigma_from_snr_db,
    single_channel_mse_db,
    split_triplet_tiles,
    triplet_objective,
)


def spd(n, seed=0, boost=0.5):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + boost * np.eye(n)


def test_mmse_zero_noise_is_zero():
    assert np.array_equal(mmse_error_covariance(spd(4), 0.0), np.zeros((4, 4)))


def test_mmse_identity_shrinkage():
    sigma = 0.7
    err = mmse_error_covariance(np.eye(5), sigma)
    assert np.allclose(err, (sigma**2 / (1 + sigma**2)) * np.eye(5), atol=1e-12)


def test_mmse_infinite_noise_returns_prior():
    s = spd(4, seed=1)
    err = mmse_error_covariance(s, 1e9)
    assert np.abs(err - s).max() < 1e-12 * np.abs(s).max() * 1e3


def test_mmse_matches_textbook_form():
    s = spd(6, seed=2)
    sigma = 0.9
    direct = s - s @ np.linalg.solve(s + sigma**2 * np.eye(6), s)
    assert np.allclose(mmse_error_covariance(s, sigma), direct, atol=1e-10)


def test_mmse_symmetric_psd():
    for seed in range(5):
        err = mmse_error_covariance(spd(8, seed=seed), 0.5 + 0.2 * seed)
        assert np.abs(err - err.T).max() < 1e-12
        assert np.linalg.eigvalsh(err).min() > -1e-10


def test_ideal_sync_identity_case():
    cov = RowCovariance(np.eye(6), 2)
    assert ideal_sync_mse_db(cov, 1.0) == pytest.approx(10 * math.log10(0.5), rel=1e-12)


def test_ideal_sync_zero_noise_sentinel():
    cov = RowCovariance(np.eye(4), 2)
    assert ideal_sync_mse_db(cov, 0.0) == -math.inf
    assert single_channel_mse_db(np.eye(4), 0.0) == -math.inf


SPECTRAL_GRIDS = [
    GridSpec(6, 6, 3, 4, 2),
    GridSpec(1, 7, 2, 2, 3),
    GridSpec(1, 1, 3, 4, 2),
    GridSpec(3, 5, 2, 2, 2),
]


@pytest.mark.parametrize("grid", SPECTRAL_GRIDS)
def test_ideal_sync_spectral_matches_dense_trace(grid):
    cov = build_row_covariance(grid, KernelSpec(5.0))
    for snr_db in (-5.0, 0.0, 10.0, 20.0, 30.0, 50.0, 70.0, 90.0):
        sigma = sigma_from_snr_db(snr_db)
        err = mmse_error_covariance(cov.matrix, sigma)
        dense_db = 10.0 * math.log10(float(np.trace(err)) / cov.size)
        # above 20 dB the dense Cholesky of the ill-conditioned U + sigma^2 I
        # is the less accurate of the two
        tol = 1e-10 if snr_db <= 20.0 else 1e-6
        assert abs(ideal_sync_mse_db(cov, sigma) - dense_db) < tol


@pytest.mark.parametrize("grid", SPECTRAL_GRIDS)
def test_kronecker_eigenvalues_match_dense(grid):
    for length_scale in (5.0, 1.3):
        cov = build_row_covariance(grid, KernelSpec(length_scale))
        dense = np.linalg.eigvalsh(cov.matrix)
        bound = 1e-12 * np.linalg.norm(cov.matrix, 2)
        assert cov.eigenvalues().shape == dense.shape
        assert np.abs(np.sort(cov.eigenvalues()) - dense).max() < bound


def test_ideal_sync_rejects_negative_sigma():
    with pytest.raises(ValueError):
        ideal_sync_mse_db(RowCovariance(np.eye(4), 2), -0.1)


def test_sigma_checks_reject_nan():
    with pytest.raises(ValueError, match="sigma"):
        ideal_sync_mse_db(RowCovariance(np.eye(4), 2), math.nan)
    with pytest.raises(ValueError, match="sigma"):
        mmse_error_covariance(np.eye(2), math.nan)
    with pytest.raises(ValueError, match="sigma"):
        denoise_given_poses(np.zeros((2, 2, 2)), [np.eye(2)], np.eye(4), math.nan)


def test_ideal_sync_monotone_in_sigma(default_cov):
    sigmas = [0.05, 0.1, 0.3, 0.5, 1.0, 2.0]
    values = [ideal_sync_mse_db(default_cov, s) for s in sigmas]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_single_channel_dominates_ideal(default_grid, default_cov):
    d_cells = default_grid.block_cells
    block = default_cov.matrix[:d_cells, :d_cells]
    for snr in (-5.0, 0.0, 5.0, 10.0, 20.0):
        sigma = sigma_from_snr_db(snr)
        assert single_channel_mse_db(block, sigma) >= ideal_sync_mse_db(default_cov, sigma)


def test_single_channel_equals_ideal_for_one_block():
    grid = GridSpec(1, 1, 2, 3, 2)
    cov = build_row_covariance(grid, KernelSpec(2.0))
    for sigma in (0.2, 1.0):
        assert single_channel_mse_db(cov.matrix, sigma) == pytest.approx(
            ideal_sync_mse_db(cov, sigma), rel=1e-12
        )


def test_block_diagonal_equality():
    block = spd(3, seed=4, boost=1.0)
    full = np.zeros((9, 9))
    for i in range(3):
        full[i * 3 : (i + 1) * 3, i * 3 : (i + 1) * 3] = block
    cov = RowCovariance(full, 3)
    for sigma in (0.3, 1.0):
        assert ideal_sync_mse_db(cov, sigma) == pytest.approx(
            single_channel_mse_db(block, sigma), rel=1e-12
        )


def test_mc_denoising_matches_closed_form():
    # the load-bearing cross-module check: known-pose denoising achieves the
    # closed-form linear-MMSE error within Monte Carlo tolerance
    grid = GridSpec(2, 2, 2, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(2.0))
    sigma = 1.0
    per_seed = []
    for seed in range(500):
        rng = np.random.default_rng(seed)
        channels = sample_channel(cov, 2, rng)
        poses = sample_pose_set(4, 2, rng)
        effective = apply_precoding(channels, poses)
        obs = observe(effective, sigma, rng)
        rotations = [poses.poses[j].T @ poses.poses[0] for j in range(1, 4)]
        den = denoise_given_poses(list(obs.blocks), rotations, cov.matrix, sigma)
        per_seed.append(
            np.mean([np.mean((d - h) ** 2) for d, h in zip(den, effective.blocks)])
        )
    mc = float(np.mean(per_seed))
    se = float(np.std(per_seed, ddof=1) / math.sqrt(len(per_seed)))
    closed = float(np.trace(mmse_error_covariance(cov.matrix, sigma))) / cov.size
    assert abs(mc - closed) < 3 * se
    assert abs(mc - closed) < 0.02 * closed


def brute_force_reference_instance(default_grid, default_cov, seed, snr_db=20.0):
    sigma = sigma_from_snr_db(snr_db)
    rng = np.random.default_rng(seed)
    channels = sample_channel(default_cov, 2, rng)
    poses = sample_pose_set(default_grid.n_blocks, 2, rng)
    obs = observe(apply_precoding(channels, poses), sigma, rng)
    sub = default_cov.submatrix((0, 1, 6))
    tiles = split_triplet_tiles(
        negated_noisy_inverse(sub, sigma), default_grid.block_cells
    )
    return obs.blocks[0], obs.blocks[1], obs.blocks[6], tiles


def test_brute_force_recovers_planted_angles():
    # consistent construction with symmetric PD tiles: planted rotations are
    # the exact maximizer, so the grid search must land within one step
    rng = np.random.default_rng(1)
    d_cells = 6
    a = rng.standard_normal((d_cells, d_cells))
    k = a @ a.T / d_cells + np.eye(d_cells)
    u = np.block([[k for _ in range(3)] for _ in range(3)])
    u[np.diag_indices_from(u)] += 1e-6
    tiles = split_triplet_tiles(negated_noisy_inverse(u, 0.0), d_cells)
    x = np.linalg.cholesky(k + 1e-6 * np.eye(d_cells)) @ rng.standard_normal((d_cells, 2))

    def rot(theta_deg):
        t = math.radians(theta_deg)
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    planted12, planted13 = 73.0, 211.0
    a12, a13, _ = brute_force_rotation_2d(
        x, x @ rot(planted12), x @ rot(planted13), tiles, resolution=0.25
    )
    assert min(abs(a12 - planted12), 360 - abs(a12 - planted12)) <= 0.25
    assert min(abs(a13 - planted13), 360 - abs(a13 - planted13)) <= 0.25


def test_brute_force_cross_checks_estimator(default_grid, default_cov):
    b1, b2, b3, tiles = brute_force_reference_instance(default_grid, default_cov, 23)
    est = estimate_triplet_direct(b1, b2, b3, tiles, max_sweeps=32)
    a12, a13, grid_obj = brute_force_rotation_2d(b1, b2, b3, tiles, resolution=0.1)
    est_obj = triplet_objective(b1, b2, b3, tiles, est.r12, est.r13)
    # the converged estimator attains at least the discretized maximum
    assert est.converged
    assert est_obj >= grid_obj - 1e-6
    # and the grid dominates the estimator up to the discretization bound:
    # |f''| is bounded by the total coefficient mass, the grid is within
    # half a step of the continuous maximizer on each axis
    ma = b2.T @ tiles.ua.T @ b1
    mb = b3.T @ tiles.ub.T @ b1
    mc = b3.T @ tiles.uc.T @ b2
    mass = sum(abs(m[0, 0] + m[1, 1]) + abs(m[1, 0] - m[0, 1]) for m in (ma, mb, mc))
    delta = math.radians(0.05)
    assert grid_obj >= est_obj - 2.0 * mass * delta**2
    # angle agreement within two steps
    e12 = math.degrees(math.atan2(est.r12.matrix[1, 0], est.r12.matrix[0, 0])) % 360
    e13 = math.degrees(math.atan2(est.r13.matrix[1, 0], est.r13.matrix[0, 0])) % 360
    assert min(abs(e12 - a12), 360 - abs(e12 - a12)) < 2.0
    assert min(abs(e13 - a13), 360 - abs(e13 - a13)) < 2.0


def test_brute_force_objective_matches_sync_module(default_grid, default_cov):
    # the trigonometric expansion and the trace form must agree exactly
    b1, b2, b3, tiles = brute_force_reference_instance(default_grid, default_cov, 5)
    a12, a13, grid_obj = brute_force_rotation_2d(b1, b2, b3, tiles, resolution=1.0)

    def rot(theta_deg):
        t = math.radians(theta_deg)
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    direct = triplet_objective(b1, b2, b3, tiles, rot(a12), rot(a13))
    assert grid_obj == pytest.approx(direct, rel=1e-10)


def test_brute_force_rejects_bad_inputs(default_grid, default_cov):
    b1, b2, b3, tiles = brute_force_reference_instance(default_grid, default_cov, 0)
    with pytest.raises(ValueError):
        brute_force_rotation_2d(b1, b2, b3, tiles, resolution=0.0)
    with pytest.raises(ValueError):
        brute_force_rotation_2d(b1[:, :1], b2[:, :1], b3[:, :1], tiles)
