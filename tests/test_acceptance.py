"""Acceptance suite: one test per top-level criterion, each printing a
pass/fail line with the measured quantities (run with -s to see them all).
"""

import math
import time

import numpy as np
import pytest

from mra_sync import (
    GridSpec,
    KernelSpec,
    apply_precoding,
    brute_force_rotation_2d,
    build_row_covariance,
    build_triplet_tiling,
    cycle_defect,
    denoise_given_poses,
    emit_summary,
    estimate_triplet_direct,
    graph_from_poses,
    log_prior_density,
    mmse_error_covariance,
    negated_noisy_inverse,
    observe,
    procrustes_project,
    reconstruct_poses,
    run_grid,
    run_sweep,
    sample_channel,
    sample_pose_set,
    sigma_from_snr_db,
    split_triplet_tiles,
    triangulate_grid,
    triplet_objective,
    verify_triangle_sufficiency,
)
from mra_sync.experiment import ExperimentConfig


def report(criterion, passed, detail):
    print(f"\n[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def default_instance(cov, grid, sigma, seed):
    rng = np.random.default_rng(seed)
    channels = sample_channel(cov, grid.antennas, rng)
    poses = sample_pose_set(grid.n_blocks, grid.antennas, rng)
    effective = apply_precoding(channels, poses)
    return observe(effective, sigma, rng), effective, poses


def test_criterion_1_procrustes_correctness(rng):
    start = time.perf_counter()
    worst_orth = worst_det = 0.0
    dominated = True
    for i in range(1000):
        d = (2, 3, 5)[i % 3]
        x = rng.standard_normal((d, d))
        r = procrustes_project(x).matrix
        worst_orth = max(worst_orth, float(np.linalg.norm(r.T @ r - np.eye(d))))
        worst_det = max(worst_det, abs(float(np.linalg.det(r)) - 1.0))
        base = float(np.sum(r * x))
        for q in sample_pose_set(100, d, rng).poses:
            if base < float(np.sum(q * x)) - 1e-9:
                dominated = False
    elapsed = time.perf_counter() - start
    passed = worst_orth < 1e-10 and worst_det < 1e-10 and dominated and elapsed < 5.0
    report(
        1,
        passed,
        f"orthogonality {worst_orth:.2e}, det dev {worst_det:.2e}, "
        f"dominates 100 rotations each: {dominated}, {elapsed:.1f}s (< 5s)",
    )


def test_criterion_2_oracle_equivalence(default_grid, default_cov):
    start = time.perf_counter()
    sigma = sigma_from_snr_db(20.0)
    sub = default_cov.submatrix((0, 1, 6))
    tiles = split_triplet_tiles(negated_noisy_inverse(sub, sigma), default_grid.block_cells)
    agree = 0
    objective_ok = True
    n_converged = 0
    for seed in range(100):
        obs, _, _ = default_instance(default_cov, default_grid, sigma, seed)
        b = (obs.blocks[0], obs.blocks[1], obs.blocks[6])
        est = estimate_triplet_direct(*b, tiles)
        a12, a13, grid_obj = brute_force_rotation_2d(*b, tiles, resolution=0.1)
        e12 = math.degrees(math.atan2(est.r12.matrix[1, 0], est.r12.matrix[0, 0])) % 360
        e13 = math.degrees(math.atan2(est.r13.matrix[1, 0], est.r13.matrix[0, 0])) % 360
        d12 = min(abs(e12 - a12), 360 - abs(e12 - a12))
        d13 = min(abs(e13 - a13), 360 - abs(e13 - a13))
        if max(d12, d13) <= 2.0:
            agree += 1
        if est.converged:
            n_converged += 1
            est_obj = triplet_objective(*b, tiles, est.r12, est.r13)
            if est_obj < grid_obj - 1e-6:
                objective_ok = False
    elapsed = time.perf_counter() - start
    passed = agree >= 90 and objective_ok and elapsed < 120.0
    report(
        2,
        passed,
        f"angles within 2 deg on {agree}/100, converged estimator attains the "
        f"grid maximum - 1e-6 on all {n_converged} converged instances: "
        f"{objective_ok}, {elapsed:.0f}s (< 120s)",
    )


def test_criterion_3_convergence_claims(default_grid, default_cov):
    sigma = sigma_from_snr_db(10.0)
    sub = default_cov.submatrix((0, 1, 6))
    tiles = split_triplet_tiles(negated_noisy_inverse(sub, sigma), default_grid.block_cells)
    stabilized = 0
    monotone = 0
    for seed in range(100):
        obs, _, _ = default_instance(default_cov, default_grid, sigma, seed)
        est = estimate_triplet_direct(
            obs.blocks[0], obs.blocks[1], obs.blocks[6], tiles, max_sweeps=16, tol=0.0
        )
        trace = est.objective_trace
        if all(b >= a - 1e-9 for a, b in zip(trace, trace[1:])):
            monotone += 1
        settled = [k for k in range(1, len(trace)) if trace[k] - trace[k - 1] < 1e-10]
        if settled and settled[0] + 1 <= 8:
            stabilized += 1
    passed = stabilized >= 95 and monotone == 100
    report(
        3,
        passed,
        f"objective settled below 1e-10 per sweep within 8 sweeps on "
        f"{stabilized}/100 trials (>= 95), non-decreasing on {monotone}/100",
    )


def test_criterion_4_mmse_cross_check():
    grid = GridSpec(2, 2, 2, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(2.0))
    sigma = 1.0
    per_seed = []
    for seed in range(500):
        obs, effective, poses = default_instance(cov, grid, sigma, seed)
        rotations = [poses.poses[j].T @ poses.poses[0] for j in range(1, 4)]
        den = denoise_given_poses(list(obs.blocks), rotations, cov.matrix, sigma)
        per_seed.append(np.mean([np.mean((d - h) ** 2) for d, h in zip(den, effective.blocks)]))
    mc = float(np.mean(per_seed))
    se = float(np.std(per_seed, ddof=1) / math.sqrt(len(per_seed)))
    closed = float(np.trace(mmse_error_covariance(cov.matrix, sigma))) / cov.size
    passed = abs(mc - closed) < 3 * se and abs(mc - closed) < 0.02 * closed
    report(
        4,
        passed,
        f"MC {mc:.5f} vs closed form {closed:.5f}: {abs(mc - closed) / se:.2f} SE "
        f"(< 3), {100 * abs(mc - closed) / closed:.2f}% rel (< 2%), 500 seeds",
    )


def test_criterion_5_zero_noise_exactness():
    worst = 0.0
    for shape in [(2, 2), (3, 3), (1, 4), (2, 3), (6, 6)]:
        grid = GridSpec(shape[0], shape[1], 3, 4, 2)
        cov = build_row_covariance(grid, KernelSpec(5.0))
        obs, effective, _ = default_instance(cov, grid, 0.0, 1)
        for method in ("pairwise", "sync_base", "iterative"):
            rep = run_grid(method, obs, cov, grid, ground_truth=effective)
            worst = max(worst, max(rep.per_block_mse))
    passed = worst < 1e-20
    report(5, passed, f"worst per-element squared error at sigma=0: {worst:.2e} (< 1e-20)")


def test_criterion_6_cycle_consistency():
    grid = GridSpec(6, 6, 2, 2, 2)
    edges, triangles = triangulate_grid(grid)
    all_pass = True
    for seed in range(20):
        poses = sample_pose_set(grid.n_blocks, 2, np.random.default_rng(seed))
        g = graph_from_poses(poses, edges, triangles)
        rep = verify_triangle_sufficiency(g, 1e-8)
        all_pass &= rep.passed and rep.worst_edge_defect < 1e-8

    poses = sample_pose_set(grid.n_blocks, 2, np.random.default_rng(99))
    g = graph_from_poses(poses, edges, triangles)
    bad = sample_pose_set(1, 2, np.random.default_rng(7)).poses[0]
    broken = g.replaced(7, 8, bad)
    rep_broken = verify_triangle_sufficiency(broken, 1e-8)
    detection = (
        not rep_broken.passed
        and len(rep_broken.failing_triangles) > 0
        and all(7 in t and 8 in t for t in rep_broken.failing_triangles)
    )

    worst_rebuild = 0.0
    for seed in range(5):
        poses = sample_pose_set(grid.n_blocks, 3, np.random.default_rng(seed))
        g3 = graph_from_poses(poses, edges, triangles)
        rebuilt = reconstruct_poses(g3)
        t = poses.poses[0] @ rebuilt[0].T
        worst_rebuild = max(
            worst_rebuild,
            max(float(np.linalg.norm(t @ got - orig)) for orig, got in zip(poses.poses, rebuilt)),
        )

    passed = all_pass and detection and worst_rebuild < 1e-8
    report(
        6,
        passed,
        f"20-seed triangle+cycle verification: {all_pass}; perturbed-edge triangles "
        f"named: {detection}; spanning-tree rebuild error {worst_rebuild:.2e} (< 1e-8)",
    )


def test_criterion_7_benchmark_ordering(default_grid):
    start = time.perf_counter()
    config = ExperimentConfig(
        grid=default_grid,
        kernel=KernelSpec(5.0),
        snr_db_list=(-5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
        seeds=25,
        methods=("pairwise", "sync_base", "iterative", "ideal_line", "single_channel_line"),
        refinement_iters=4,
    )
    rows = run_sweep(config)
    summary = {(s.snr_db, s.method): s for s in emit_summary(rows)}
    elapsed = time.perf_counter() - start

    ordering_ok = True
    between_lines_ok = True
    beat_ok = True
    details = []
    for snr in config.snr_db_list:
        pair = summary[(snr, "pairwise")]
        sync = summary[(snr, "sync_base")]
        iterative = summary[(snr, "iterative")]
        single = summary[(snr, "single_channel_line")].mean_nmse_db
        ideal = summary[(snr, "ideal_line")].mean_nmse_db
        if snr >= 0.0:
            ordering_ok &= iterative.mean_nmse_db <= sync.mean_nmse_db <= pair.mean_nmse_db
        if snr >= 5.0:
            worst = max(pair.mean_nmse_db, sync.mean_nmse_db, iterative.mean_nmse_db)
            best = min(pair.mean_nmse_db, sync.mean_nmse_db, iterative.mean_nmse_db)
            pooled_all = math.hypot(pair.se_nmse_db, iterative.se_nmse_db)
            between_lines_ok &= worst < single and best >= ideal - pooled_all
        if snr >= 10.0:
            pooled = math.hypot(pair.se_nmse_db, iterative.se_nmse_db)
            beat_ok &= pair.mean_nmse_db - iterative.mean_nmse_db >= pooled
        details.append(
            f"{snr:+.0f}dB it {iterative.mean_nmse_db:.2f} sy {sync.mean_nmse_db:.2f} "
            f"pa {pair.mean_nmse_db:.2f} single {single:.2f}"
        )
    passed = ordering_ok and between_lines_ok and beat_ok and elapsed < 300.0
    report(
        7,
        passed,
        f"ordering(SNR>=0): {ordering_ok}, between ideal and single lines(SNR>=5): "
        f"{between_lines_ok}, iterative beats pairwise by >= 1 pooled SE (10dB+): "
        f"{beat_ok}, {elapsed:.0f}s (< 300s) | " + " | ".join(details),
    )


def test_criterion_8_refinement_benefit(default_grid, default_cov):
    sigma = sigma_from_snr_db(10.0)
    iters = (0, 1, 2, 3, 4, 8)
    sums = {k: 0.0 for k in iters}
    for seed in range(25):
        obs, effective, _ = default_instance(default_cov, default_grid, sigma, seed)
        for k in iters:
            rep = run_grid(
                "iterative",
                obs,
                default_cov,
                default_grid,
                ground_truth=effective,
                refinement_iters=k,
            )
            sums[k] += rep.nmse_db
    means = {k: v / 25.0 for k, v in sums.items()}
    strictly_decreasing = all(means[b] < means[a] for a, b in zip((0, 1, 2, 3), (1, 2, 3, 4)))
    stable = abs(means[8] - means[4]) < 0.1
    passed = strictly_decreasing and stable
    report(
        8,
        passed,
        "mean nmse_db by refinement iters "
        + " ".join(f"{k}:{means[k]:.4f}" for k in iters)
        + f" | strictly decreasing 0->4: {strictly_decreasing}, |4->8| = "
        f"{abs(means[8] - means[4]):.4f} dB (< 0.1)",
    )


def test_criterion_9_prior_invariance(default_cov):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        h = sample_channel(default_cov, 2, rng).stacked()
        q = sample_pose_set(1, 2, rng).poses[0]
        base = log_prior_density(h, default_cov)
        rotated = log_prior_density(h @ q, default_cov)
        worst = max(worst, abs(rotated - base) / (1.0 + abs(base)))
    passed = worst < 1e-8
    report(9, passed, f"worst relative log-density change under rotation: {worst:.2e} (< 1e-8)")
