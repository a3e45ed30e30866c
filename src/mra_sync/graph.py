"""Pose-graph machinery on the block lattice.

Triangulates the lattice (4-neighbor edges plus one fixed diagonal per unit
square), builds relative-pose graphs from absolute poses, measures cycle
defects, and checks every cycle's consistency exactly through the triangles
and a spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GridSpec, PoseSet, _block_index, _count, _is_index
from .procrustes import _as_matrix

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


def _edge_key(i, j, n_nodes: int) -> tuple:
    """The stored key (min, max) of edge (i, j); ValueError unless both ends are nodes."""
    if not (_is_index(i, n_nodes) and _is_index(j, n_nodes)):
        raise ValueError(f"edge {(i, j)}: an endpoint is not an integer in [0, {n_nodes})")
    return min(i, j), max(i, j)


def lattice_edges(grid: GridSpec) -> list:
    """The 4-neighbor edge set of the block lattice, as sorted (i, j) pairs."""
    edges = []
    h, w = grid.height_blocks, grid.width_blocks
    for r in range(h):
        for c in range(w):
            i = r * w + c
            if c + 1 < w:
                edges.append((i, i + 1))
            if r + 1 < h:
                edges.append((i, i + w))
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
    returns the transpose. Every edge must pass as a rotation of the first
    edge's size ``dim``, and every side of every triangle must be an edge.
    One symmetric CSR adjacency gives the connectivity check and the
    spanning tree of :func:`reconstruct_poses`.
    """

    def __init__(self, n_nodes: int, edges: dict, triangles=()):
        # imported here: at module level scipy.sparse would add 3-5 MB to every `import mra_sync`
        from scipy.sparse import csgraph, csr_array

        _count(n_nodes, "n_nodes", 1)
        self.n_nodes = n_nodes
        self._edges = {}
        for (i, j), rot in edges.items():
            a, b = _edge_key(i, j, n_nodes)
            if i == j:
                raise ValueError("self-loops are not allowed")
            if (a, b) in self._edges:
                raise ValueError(f"edge {(i, j)} is given in both directions")
            m = _as_matrix(rot, f"edge {(i, j)}")
            self._edges[(a, b)] = m if (a, b) == (i, j) else m.T
        if not self._edges:
            raise ValueError("relative-pose graph needs at least one edge")
        self.dim = next(iter(self._edges.values())).shape[0]
        for edge, m in self._edges.items():
            if len(m) != self.dim:
                raise ValueError(f"edge {edge} is not {self.dim} x {self.dim} like the first edge")
        self.triangles = tuple(tuple(sorted(t)) for t in _block_index(triangles, 3).tolist())
        for i, j, k in self.triangles:
            if not {(i, j), (j, k), (i, k)} <= self._edges.keys():
                raise ValueError(f"triangle {(i, j, k)}: a side is not an edge of the graph")
        pairs = np.array(list(self._edges))
        both = np.r_[pairs, pairs[:, ::-1]]  # every edge in both directions
        self._csr = csr_array((np.ones(len(both)), tuple(both.T)), shape=(n_nodes, n_nodes))
        self._csr.sort_indices()
        if csgraph.connected_components(self._csr, return_labels=False) != 1:
            raise ValueError("relative-pose graph must be connected")

    @property
    def edges(self):
        return dict(self._edges)

    def has_edge(self, i: int, j: int) -> bool:
        return _edge_key(i, j, self.n_nodes) in self._edges

    def rotation(self, i: int, j: int) -> np.ndarray:
        """The rotation carried from i to j (transposed for reversed lookups)."""
        if not self.has_edge(i, j):
            raise KeyError(f"no edge between {i} and {j}")
        return self._edges[i, j] if i < j else self._edges[j, i].T

    def replaced(self, i: int, j: int, rotation) -> "RelativePoseGraph":
        """A copy of the graph with one edge's rotation replaced."""
        self.rotation(i, j)  # raises for a node outside the graph or a missing edge
        m = _as_matrix(rotation, "rotation")
        edges = {**self._edges, (min(i, j), max(i, j)): m if i < j else m.T}
        return RelativePoseGraph(self.n_nodes, edges, self.triangles)


def graph_from_poses(poses: PoseSet, edges, triangles=()) -> RelativePoseGraph:
    """Attach the relative rotation P_i^T P_j to every edge (i, j)."""
    edges = list(edges)
    for i, j in edges:
        _edge_key(i, j, poses.n_poses)  # before a bad node indexes, or wraps in, the pose stack
    first, second = np.array(edges, dtype=int).reshape(-1, 2).T
    carried = np.swapaxes(poses.poses[first], 1, 2) @ poses.poses[second]
    return RelativePoseGraph(poses.n_poses, dict(zip(edges, carried)), triangles)


def cycle_defect(graph: RelativePoseGraph, cycle) -> float:
    """Frobenius distance of the cycle's rotation product from the identity.

    ``cycle`` is a closed node sequence (first element repeated last).
    Immediate back-and-forth steps cancel exactly, so a trivial i-j-i walk
    reports a defect of zero.
    """
    cycle = list(cycle)
    if not all(_is_index(v, graph.n_nodes) for v in cycle):
        raise InvalidCycleError(f"cycle {cycle}: a node is not an integer in [0, {graph.n_nodes})")
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
    prod = np.eye(graph.dim)
    for a, b in steps:
        prod = prod @ graph.rotation(a, b)
    return float(np.linalg.norm(prod - np.eye(graph.dim)))


@dataclass
class TriangleSufficiencyReport:
    """Outcome of checking every triangle and every edge against the spanning tree."""

    passed: bool
    worst_triangle: tuple
    worst_triangle_defect: float
    failing_triangles: tuple
    worst_edge: tuple
    worst_edge_defect: float


def verify_triangle_sufficiency(
    graph: RelativePoseGraph, tol: float = 1e-8
) -> TriangleSufficiencyReport:
    """Check every triangle's defect, then every edge against the spanning tree's poses.

    Edge (i, j) is compared with the poses P that :func:`reconstruct_poses`
    chains: ||P_i R_ij - P_j||_F is the defect of the cycle the edge closes
    with the tree. Those cycles generate all others, and a cycle's defect is
    at most the sum of its edges', so edges below ``tol`` keep every cycle
    of L edges below L * ``tol``. Triangles and edges must all stay below
    ``tol``; the report names the failing triangles and the worst edge.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    tri_defects = [cycle_defect(graph, [i, j, k, i]) for i, j, k in graph.triangles]
    worst_tri_defect, worst_tri = max(
        zip(tri_defects, graph.triangles), key=lambda pair: pair[0], default=(0.0, ())
    )
    poses = np.stack(reconstruct_poses(graph))
    pairs = np.array(list(graph._edges))
    closing = poses[pairs[:, 0]] @ np.stack(list(graph._edges.values())) - poses[pairs[:, 1]]
    edge_defects = np.linalg.norm(closing, axis=(1, 2))
    worst = int(np.argmax(edge_defects))
    failing = tuple(t for t, defect in zip(graph.triangles, tri_defects) if defect >= tol)
    return TriangleSufficiencyReport(
        passed=not failing and bool(edge_defects[worst] < tol),
        worst_triangle=worst_tri,
        worst_triangle_defect=worst_tri_defect,
        failing_triangles=failing,
        worst_edge=tuple(pairs[worst].tolist()),
        worst_edge_defect=float(edge_defects[worst]),
    )


def reconstruct_poses(graph: RelativePoseGraph, anchor: int = 0) -> list:
    """Chain edge rotations along a breadth-first spanning tree, anchoring pose ``anchor`` at I.

    On a cycle-consistent graph the result equals the generating absolute
    poses up to one global rotation applied on the left.
    """
    # imported here for the reason given in RelativePoseGraph
    from scipy.sparse.csgraph import breadth_first_order

    if not _is_index(anchor, graph.n_nodes):
        raise ValueError(f"anchor {anchor!r} is not a node of the graph")
    order, parent = breadth_first_order(graph._csr, anchor)
    poses = [None] * graph.n_nodes
    poses[anchor] = np.eye(graph.dim)
    for v in order[1:].tolist():
        u = int(parent[v])
        poses[v] = poses[u] @ graph.rotation(u, v)
    return poses
