"""Pose graphs on the triangulated lattice: cycle defects, the exact
triangle and spanning-tree check of every cycle, and absolute-pose
reconstruction.

Run from the repository root:  PYTHONPATH=src python3 demos/04_cycle_consistency.py
"""

import numpy as np

from mra_sync import (
    GridSpec,
    cycle_defect,
    graph_from_poses,
    reconstruct_poses,
    sample_pose_set,
    triangulate_grid,
    verify_triangle_sufficiency,
)

grid = GridSpec(6, 6, 3, 4, 2)
edges, triangles = triangulate_grid(grid)
print(f"6x6 lattice: {len(edges)} edges, {len(triangles)} triangles")

poses = sample_pose_set(grid.n_blocks, 2, np.random.default_rng(2))
graph = graph_from_poses(poses, edges, triangles)

loop = [0, 1, 2, 8, 14, 13, 12, 6, 0]
print(f"8-step loop defect on a consistent graph: {cycle_defect(graph, loop):.2e}")

report = verify_triangle_sufficiency(graph)
print(f"triangle + spanning-tree verification: passed={report.passed}, "
      f"worst triangle {report.worst_triangle_defect:.2e}, "
      f"worst edge {report.worst_edge} {report.worst_edge_defect:.2e}")

# break one edge and watch the triangles expose it
bad = sample_pose_set(1, 2, np.random.default_rng(5)).poses[0]
broken = graph.replaced(14, 15, bad)
report_broken = verify_triangle_sufficiency(broken)
print(f"after corrupting edge (14, 15): passed={report_broken.passed}, "
      f"failing triangles {report_broken.failing_triangles}")

# chain the relative rotations back into absolute poses (one global rotation free)
rebuilt = reconstruct_poses(graph)
t = poses.poses[0] @ rebuilt[0].T
worst = max(np.linalg.norm(t @ got - orig) for orig, got in zip(poses.poses, rebuilt))
print(f"spanning-tree reconstruction, worst block error after global alignment: {worst:.2e}")
