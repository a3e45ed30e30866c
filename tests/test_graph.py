import math

import numpy as np
import pytest

from mra_sync import (
    GridSpec,
    InvalidCycleError,
    build_triplet_tiling,
    cycle_defect,
    graph_from_poses,
    lattice_edges,
    reconstruct_poses,
    relative_pose,
    sample_pose_set,
    triangulate_grid,
    verify_triangle_sufficiency,
)
from mra_sync.graph import RelativePoseGraph


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def pose_graph(height, width, d=2, seed=0):
    grid = GridSpec(height, width, 2, 2, d)
    edges, triangles = triangulate_grid(grid)
    poses = sample_pose_set(grid.n_blocks, d, np.random.default_rng(seed))
    return graph_from_poses(poses, edges, triangles), poses


def test_triangulation_counts_2x2():
    grid = GridSpec(2, 2, 2, 2, 2)
    edges, triangles = triangulate_grid(grid)
    assert len(edges) == 5
    assert len(triangles) == 2


def test_triangulation_counts_6x6():
    grid = GridSpec(6, 6, 2, 2, 2)
    edges, triangles = triangulate_grid(grid)
    # 2*6*5 lattice edges plus 25 diagonals; two triangles per unit square
    assert len(edges) == 60 + 25
    assert len(triangles) == 50


def test_triangles_are_well_formed():
    grid = GridSpec(3, 4, 2, 2, 2)
    edges, triangles = triangulate_grid(grid)
    edge_set = set(edges)
    for i, j, k in triangles:
        assert (i, j) in edge_set and (j, k) in edge_set and (i, k) in edge_set


def test_triangulation_strip_has_no_triangles():
    grid = GridSpec(1, 5, 2, 2, 2)
    edges, triangles = triangulate_grid(grid)
    assert triangles == []
    assert edges == [(i, i + 1) for i in range(4)]


def test_lattice_edges_excludes_diagonals():
    grid = GridSpec(2, 2, 2, 2, 2)
    assert lattice_edges(grid) == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_graph_from_equal_poses_carries_identity():
    grid = GridSpec(2, 2, 2, 2, 2)
    edges, triangles = triangulate_grid(grid)
    p = sample_pose_set(1, 3, np.random.default_rng(0)).poses[0]
    poses = sample_pose_set(4, 3, np.random.default_rng(0))
    poses = type(poses)(tuple(p for _ in range(4)))
    g = graph_from_poses(poses, edges, triangles)
    for i, j in g.edges:
        assert np.linalg.norm(g.rotation(i, j) - np.eye(3)) < 1e-12


def test_pose_graph_triangles_consistent():
    g, _ = pose_graph(3, 3, d=3)
    for i, j, k in g.triangles:
        prod = g.rotation(i, j) @ g.rotation(j, k) @ g.rotation(k, i)
        assert np.linalg.norm(prod - np.eye(3)) < 1e-10


def test_edge_angle_bookkeeping():
    grid = GridSpec(1, 3, 2, 2, 2)
    edges, _ = triangulate_grid(grid)
    thetas = [0.3, -1.2, 2.5]
    poses = sample_pose_set(3, 2, np.random.default_rng(0))
    poses = type(poses)(tuple(rot2(t) for t in thetas))
    g = graph_from_poses(poses, edges)
    for i, j in g.edges:
        got = math.atan2(g.rotation(i, j)[1, 0], g.rotation(i, j)[0, 0])
        want = (thetas[j] - thetas[i] + math.pi) % (2 * math.pi) - math.pi
        assert abs(got - want) < 1e-12


def test_cycle_defect_zero_on_consistent_graph():
    g, _ = pose_graph(3, 3)
    assert cycle_defect(g, [0, 1, 4, 0]) < 1e-9
    assert cycle_defect(g, [0, 1, 2, 5, 4, 3, 0]) < 1e-9


def test_cycle_defect_backtrack_is_exactly_zero():
    g, _ = pose_graph(2, 2)
    assert cycle_defect(g, [0, 1, 0]) == 0.0


def test_cycle_defect_perturbed_edge_closed_form():
    g, _ = pose_graph(3, 3, d=2)
    alpha = 0.41
    perturbed = g.replaced(0, 1, g.rotation(0, 1) @ rot2(alpha))
    # SO(2) commutes, so conjugation leaves the defect at |Rot(alpha) - I|
    expected = 2.0 * math.sqrt(2.0) * abs(math.sin(alpha / 2.0))
    assert np.linalg.norm(rot2(alpha) - np.eye(2)) == pytest.approx(expected, rel=1e-12)
    got = cycle_defect(perturbed, [0, 1, 4, 0])
    assert got == pytest.approx(expected, rel=1e-9)


def test_cycle_defect_rejects_bad_cycles():
    g, _ = pose_graph(2, 2)
    with pytest.raises(InvalidCycleError):
        cycle_defect(g, [0, 1, 2])  # not closed
    with pytest.raises(InvalidCycleError):
        cycle_defect(g, [1, 2, 1])  # 1-2 not adjacent in the 2x2 mesh


def test_verify_triangle_sufficiency_passes_on_pose_graph():
    g, _ = pose_graph(6, 6, seed=3)
    report = verify_triangle_sufficiency(g, np.random.default_rng(0), 100, 1e-8)
    assert report.passed
    assert report.n_cycles_checked == 100
    assert report.worst_triangle_defect < 1e-8


def test_verify_names_broken_triangle():
    g, _ = pose_graph(4, 4, seed=1)
    bad = sample_pose_set(1, 2, np.random.default_rng(9)).poses[0]
    broken = g.replaced(1, 2, bad)
    report = verify_triangle_sufficiency(broken, np.random.default_rng(0), 50, 1e-8)
    assert not report.passed
    assert report.failing_triangles
    assert all(1 in t and 2 in t for t in report.failing_triangles)


def test_verify_triangle_only_mode():
    g, _ = pose_graph(3, 3)
    report = verify_triangle_sufficiency(g, np.random.default_rng(0), 0, 1e-8)
    assert report.passed
    assert report.n_cycles_checked == 0


def test_tiling_2x2():
    tiling = build_triplet_tiling(GridSpec(2, 2, 2, 2, 2))
    assert len(tiling.triplets) == 2
    assert min(np.bincount(np.ravel(tiling.triplets), minlength=4)) >= 1


def test_tiling_6x6_interior_coverage():
    grid = GridSpec(6, 6, 2, 2, 2)
    tiling = build_triplet_tiling(grid)
    assert len(tiling.triplets) == 50
    coverage = np.bincount(np.ravel(tiling.triplets), minlength=grid.n_blocks)
    interior = grid.block_index(3, 3)
    assert coverage[interior] == 6
    assert max(coverage) == 6


def test_tiling_strip_fallback():
    tiling = build_triplet_tiling(GridSpec(1, 4, 2, 2, 2))
    assert tiling.triplets == ((0, 1, 2), (1, 2, 3))


def test_path_independence(rng):
    g, _ = pose_graph(4, 4, d=3, seed=5)

    def path_product(path):
        prod = np.eye(3)
        for a, b in zip(path[:-1], path[1:]):
            prod = prod @ g.rotation(a, b)
        return prod

    def random_path(start, goal, r):
        # random walk until goal, capped; fall back to retry
        for _ in range(200):
            path = [start]
            for _ in range(40):
                if path[-1] == goal:
                    return path
                nbrs = g.neighbors(path[-1])
                path.append(int(nbrs[r.integers(len(nbrs))]))
            if path[-1] == goal:
                return path
        raise AssertionError("no path found")

    for _ in range(50):
        i, j = rng.choice(16, size=2, replace=False)
        p1 = path_product(random_path(int(i), int(j), rng))
        p2 = path_product(random_path(int(i), int(j), rng))
        assert np.linalg.norm(p1 - p2) < 1e-8


def test_reconstruct_poses_up_to_global_rotation():
    g, poses = pose_graph(4, 5, d=3, seed=8)
    rebuilt = reconstruct_poses(g)
    t = poses.poses[0] @ rebuilt[0].T
    for original, got in zip(poses.poses, rebuilt):
        assert np.linalg.norm(t @ got - original) < 1e-8


def test_graph_requires_connectivity():
    edges = {(0, 1): np.eye(2), (2, 3): np.eye(2)}
    with pytest.raises(ValueError):
        RelativePoseGraph(4, edges)


def test_reversed_edge_lookup_is_transpose(rng):
    g, _ = pose_graph(2, 3, d=3)
    for i, j in list(g.edges)[:4]:
        assert np.array_equal(g.rotation(j, i), g.rotation(i, j).T)
