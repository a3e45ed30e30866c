"""Closed-form rotation alignment: project arbitrary matrices onto the
rotation group and verify the projection maximizes the Frobenius pairing.

Run from the repository root:  PYTHONPATH=src python3 demos/02_procrustes_alignment.py
"""

import numpy as np

from mra_sync import procrustes_project, sample_pose_set

rng = np.random.default_rng(1)

# a scaled rotation projects back to itself
q = sample_pose_set(1, 3, rng).poses[0]
recovered = procrustes_project(4.2 * q)
print(f"scaled rotation recovered to {np.linalg.norm(recovered.matrix - q):.1e}")

# a noisy rotation projects to something close
noisy = q + 0.05 * rng.standard_normal((3, 3))
snapped = procrustes_project(noisy)
print(f"after 5% noise, projection is {np.linalg.norm(snapped.matrix - q):.3f} from the original")

# the projection dominates every rotation we can throw at it
x = rng.standard_normal((3, 3))
best = procrustes_project(x)
best_score = np.sum(best.matrix * x)
competitors = sample_pose_set(2000, 3, rng).poses
scores = [np.sum(r * x) for r in competitors]
print(f"projection score {best_score:.4f} vs best of 2000 random rotations {max(scores):.4f}")

# relative poses R_ij = P_i^T P_j compose like differences of absolute poses
p = sample_pose_set(3, 2, rng).poses
r01, r12, r02 = p[0].T @ p[1], p[1].T @ p[2], p[0].T @ p[2]
print(f"composition defect |R01 R12 - R02| = {np.linalg.norm(r01 @ r12 - r02):.1e}")
