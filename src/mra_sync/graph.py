"""Pose-graph machinery on the block lattice.

Triangulates the lattice (4-neighbor edges plus one fixed diagonal per unit
square), builds relative-pose graphs from absolute poses, measures cycle
defects, and verifies that triangle consistency propagates to arbitrary
cycles on the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GridSpec, PoseSet
from .procrustes import Rotation, relative_pose

__all__ = [
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
]


class InvalidCycleError(ValueError):
    """Cycle sequence that is not closed or walks a missing edge."""


def lattice_edges(grid: GridSpec) -> list:
    """The 4-neighbor edge set of the block lattice, as sorted (i, j) pairs."""
    edges = []
    h, w = grid.height_blocks, grid.width_blocks
    for r in range(h):
        for c in range(w):
            i = grid.block_index(r, c)
            if c + 1 < w:
                edges.append((i, grid.block_index(r, c + 1)))
            if r + 1 < h:
                edges.append((i, grid.block_index(r + 1, c)))
    return sorted(edges)


def triangulate_grid(grid: GridSpec):
    """Triangulate the lattice with one fixed diagonal per unit square.

    Returns ``(edges, triangles)``: the 4-neighbor edges plus the diagonal
    from each square's top-left block to its bottom-right block, and the two
    triangles per square this induces. Every edge then belongs to at least
    one triangle, which is what the triangle-to-cycle consistency argument
    needs. Grids with a single row or column have no squares; their edge
    chain is returned with an empty triangle list.
    """
    if grid.n_blocks < 3:
        raise ValueError("triangulation needs at least three blocks")
    edges = set(lattice_edges(grid))
    triangles = []
    h, w = grid.height_blocks, grid.width_blocks
    for r in range(h - 1):
        for c in range(w - 1):
            tl = grid.block_index(r, c)
            tr = grid.block_index(r, c + 1)
            bl = grid.block_index(r + 1, c)
            br = grid.block_index(r + 1, c + 1)
            edges.add((tl, br))
            triangles.append(tuple(sorted((tl, tr, br))))
            triangles.append(tuple(sorted((tl, bl, br))))
    return sorted(edges), sorted(triangles)


@dataclass(frozen=True)
class TripletTiling:
    """The index triples of the grid's triplet problems; ``run_grid`` checks they cover it."""

    triplets: tuple


def build_triplet_tiling(grid: GridSpec) -> TripletTiling:
    """Tile the grid with the triangles of its triangulation.

    Grids with no triangles (single-row or single-column strips) fall back to
    overlapping consecutive index triples, which keeps every local problem at
    size three. Either way every block lies in at least one triple.
    """
    if grid.n_blocks < 3:
        raise ValueError("a triplet tiling needs at least three blocks")
    _, triangles = triangulate_grid(grid)
    if not triangles:
        n = grid.n_blocks
        triangles = [(i, i + 1, i + 2) for i in range(n - 2)]
    return TripletTiling(tuple(triangles))


class RelativePoseGraph:
    """Undirected graph whose edges carry relative rotations.

    Edges are stored once per unordered pair; querying the reversed direction
    returns the transpose.
    """

    def __init__(self, n_nodes: int, edges: dict, triangles=()):
        self.n_nodes = n_nodes
        self._edges = {}
        self._adjacency = {i: set() for i in range(n_nodes)}
        for (i, j), rot in edges.items():
            if i == j:
                raise ValueError("self-loops are not allowed")
            a, b = min(i, j), max(i, j)
            m = rot.matrix if isinstance(rot, Rotation) else np.asarray(rot, float)
            self._edges[(a, b)] = m if (a, b) == (i, j) else m.T
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        self.triangles = tuple(tuple(sorted(t)) for t in triangles)
        if not self._connected():
            raise ValueError("relative-pose graph must be connected")

    def _connected(self) -> bool:
        if self.n_nodes == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n_nodes

    @property
    def edges(self):
        return dict(self._edges)

    def neighbors(self, node: int) -> list:
        return sorted(self._adjacency[node])

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._edges

    def rotation(self, i: int, j: int) -> np.ndarray:
        """The rotation carried from i to j (transposed for reversed lookups)."""
        key = (min(i, j), max(i, j))
        if key not in self._edges:
            raise KeyError(f"no edge between {i} and {j}")
        m = self._edges[key]
        return m if i < j else m.T

    def replaced(self, i: int, j: int, rotation) -> "RelativePoseGraph":
        """A copy of the graph with one edge's rotation replaced."""
        edges = self.edges
        key = (min(i, j), max(i, j))
        if key not in edges:
            raise KeyError(f"no edge between {i} and {j}")
        m = rotation.matrix if isinstance(rotation, Rotation) else np.asarray(rotation)
        edges[key] = m if i < j else m.T
        return RelativePoseGraph(self.n_nodes, edges, self.triangles)


def graph_from_poses(poses: PoseSet, edges, triangles=()) -> RelativePoseGraph:
    """Attach the relative rotation P_i^T P_j to every edge (i, j)."""
    carried = {
        (i, j): relative_pose(poses.poses[i], poses.poses[j]) for i, j in edges
    }
    return RelativePoseGraph(poses.n_poses, carried, triangles)


def cycle_defect(graph: RelativePoseGraph, cycle) -> float:
    """Frobenius distance of the cycle's rotation product from the identity.

    ``cycle`` is a closed node sequence (first element repeated last).
    Immediate back-and-forth steps cancel exactly, so a trivial i-j-i walk
    reports a defect of zero.
    """
    cycle = list(cycle)
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        raise InvalidCycleError("cycle must be a closed sequence")
    steps = []
    for a, b in zip(cycle[:-1], cycle[1:]):
        if not graph.has_edge(a, b):
            raise InvalidCycleError(f"nodes {a} and {b} are not adjacent")
        if steps and steps[-1] == (b, a):
            steps.pop()
        else:
            steps.append((a, b))
    d = next(iter(graph.edges.values())).shape[0] if graph.edges else 0
    prod = np.eye(d)
    for a, b in steps:
        prod = prod @ graph.rotation(a, b)
    return float(np.linalg.norm(prod - np.eye(d)))


def _sample_simple_cycle(graph: RelativePoseGraph, rng, max_len: int = 20):
    """One simple cycle from a random walk truncated at max_len steps.

    Walks the graph avoiding immediate backtracking and closes the cycle at
    the first node revisit; returns None when the walk dies out first.
    """
    start = int(rng.integers(graph.n_nodes))
    path = [start]
    index = {start: 0}
    prev = None
    for _ in range(max_len):
        current = path[-1]
        options = [v for v in graph.neighbors(current) if v != prev]
        if not options:
            return None
        nxt = options[int(rng.integers(len(options)))]
        if nxt in index:
            return path[index[nxt] :] + [nxt]
        index[nxt] = len(path)
        path.append(nxt)
        prev = current
    return None


@dataclass
class TriangleSufficiencyReport:
    """Outcome of checking triangle consistency and sampled longer cycles."""

    passed: bool
    worst_triangle: tuple
    worst_triangle_defect: float
    failing_triangles: tuple
    worst_cycle: tuple
    worst_cycle_defect: float
    n_cycles_checked: int


def verify_triangle_sufficiency(
    graph: RelativePoseGraph, rng, n_random_cycles: int = 100, tol: float = 1e-8
) -> TriangleSufficiencyReport:
    """Check every triangle's defect, then spot-check random simple cycles.

    Triangle defects must stay below ``tol``; sampled cycles get a budget of
    ``tol`` per edge. On a consistent graph both checks pass; a single broken
    edge shows up in the triangle list, which the report names.
    """
    rng = np.random.default_rng(rng)
    worst_tri, worst_tri_defect = (), -1.0
    failing = []
    for tri in graph.triangles:
        i, j, k = tri
        defect = cycle_defect(graph, [i, j, k, i])
        if defect > worst_tri_defect:
            worst_tri, worst_tri_defect = tri, defect
        if defect >= tol:
            failing.append(tri)

    worst_cycle, worst_cycle_defect = (), -1.0
    checked = 0
    cycles_ok = True
    attempts = 0
    while checked < n_random_cycles and attempts < 50 * max(1, n_random_cycles):
        attempts += 1
        cycle = _sample_simple_cycle(graph, rng)
        if cycle is None:
            continue
        checked += 1
        defect = cycle_defect(graph, cycle)
        if defect > worst_cycle_defect:
            worst_cycle, worst_cycle_defect = tuple(cycle), defect
        if defect >= tol * (len(cycle) - 1):
            cycles_ok = False

    passed = not failing and cycles_ok
    return TriangleSufficiencyReport(
        passed=passed,
        worst_triangle=worst_tri,
        worst_triangle_defect=max(worst_tri_defect, 0.0),
        failing_triangles=tuple(failing),
        worst_cycle=worst_cycle,
        worst_cycle_defect=max(worst_cycle_defect, 0.0),
        n_cycles_checked=checked,
    )


def reconstruct_poses(graph: RelativePoseGraph, anchor: int = 0) -> list:
    """Chain edge rotations along a spanning tree, anchoring the first pose at I.

    On a cycle-consistent graph the result equals the generating absolute
    poses up to one global rotation applied on the left.
    """
    poses = [None] * graph.n_nodes
    poses[anchor] = np.eye(next(iter(graph.edges.values())).shape[0])
    stack = [anchor]
    while stack:
        u = stack.pop()
        for v in graph.neighbors(u):
            if poses[v] is None:
                poses[v] = poses[u] @ graph.rotation(u, v)
                stack.append(v)
    return poses
