"""Estimate relative rotations on one triplet of blocks and cross-check the
alternation against a global angle search (a theta12 grid, theta13 in closed form).

Run from the repository root:  PYTHONPATH=src python3 demos/03_triplet_estimation.py
"""

import math

import numpy as np

from mra_sync import (
    GridSpec,
    KernelSpec,
    apply_precoding,
    brute_force_rotation_2d,
    build_row_covariance,
    estimate_triplet_direct,
    negated_noisy_inverse,
    observe,
    sample_channel,
    sample_pose_set,
    sigma_from_snr_db,
    split_triplet_tiles,
    triplet_objective,
)

grid = GridSpec(6, 6, 3, 4, 2)
cov = build_row_covariance(grid, KernelSpec(5.0))
sigma = sigma_from_snr_db(20.0)

rng = np.random.default_rng(7)
channels = sample_channel(cov, 2, rng)
poses = sample_pose_set(grid.n_blocks, 2, rng)
obs = observe(apply_precoding(channels, poses), sigma, rng)

# blocks 0 and 1 are row neighbors, 6 sits directly below 0
triplet = (0, 1, 6)
sub = cov.submatrix(triplet)
tiles = split_triplet_tiles(negated_noisy_inverse(sub, sigma), grid.block_cells)

b = [obs.blocks[i] for i in triplet]
est = estimate_triplet_direct(*b, tiles, max_sweeps=16)
print(f"alternation: {est.sweeps} sweeps, converged={est.converged}")
print("objective trace:", " ".join(f"{v:.6f}" for v in est.objective_trace[:6]), "...")


def angle(r):
    return math.degrees(math.atan2(r[1, 0], r[0, 0])) % 360


true12 = angle(poses.poses[0].T @ poses.poses[1])
true13 = angle(poses.poses[0].T @ poses.poses[6])
print(f"true angles:      R12 {true12:7.2f} deg  R13 {true13:7.2f} deg")
print(f"estimated angles: R12 {angle(est.r12.matrix):7.2f} deg  R13 {angle(est.r13.matrix):7.2f} deg")

a12, a13, grid_obj = brute_force_rotation_2d(*b, tiles, resolution=0.1)
est_obj = triplet_objective(*b, tiles, est.r12, est.r13)
print(f"brute force (0.1 deg R12 grid): R12 {a12:7.2f} deg  R13 {a13:7.2f} deg")
print(f"objectives: alternation {est_obj:.8f} vs grid search {grid_obj:.8f}")
