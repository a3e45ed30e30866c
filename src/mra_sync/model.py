"""Generative model for grid-structured matrix signals with per-block rotations.

The signal lives on a lattice of blocks; each block carries a D x d real
matrix. All blocks are drawn jointly from a matrix-normal prior whose row
covariance couples every cell of every block through a squared-exponential
kernel on the cell grid. Each block is then rotated on the right by an
unknown d x d rotation and observed under i.i.d. Gaussian noise.

Conventions
-----------
* Block index ``i`` maps row-major to lattice position
  ``(i // width_blocks, i % width_blocks)``.
* Cell ``a`` of a block maps row-major to in-block position
  ``(a // block_cols, a % block_cols)``; cell ``(r, c)`` of the block at
  lattice position ``(R, C)`` sits at absolute grid coordinates
  ``(R * block_rows + r, C * block_cols + c)``.
* A field of N blocks is one float (N, D, d) array and a pose set one
  (N, d, d) array, both in block index order.
* The stacked signal is the (N*D) x d matrix of all blocks in index order;
  its columns are i.i.d. N(0, U).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .procrustes import ROTATION_TOL, _check_rotation

__all__ = [
    "GridSpec",
    "KernelSpec",
    "RowCovariance",
    "ChannelField",
    "PoseSet",
    "ObservationSet",
    "CovarianceTiles",
    "NotPositiveDefiniteError",
    "InvalidTripletError",
    "build_row_covariance",
    "split_triplet_tiles",
    "sample_channel",
    "sample_pose_set",
    "apply_precoding",
    "observe",
    "log_prior_density",
]


class NotPositiveDefiniteError(ValueError):
    """A covariance is not positive definite.

    ``minor_index`` is the number of eigenvalues of the Kronecker spectrum
    from :func:`build_row_covariance` that are not positive.
    """

    def __init__(self, minor_index: int):
        self.minor_index = minor_index
        super().__init__(f"{minor_index} kernel eigenvalues are not positive")


class InvalidTripletError(ValueError):
    """Block triple with duplicate, non-integer or out-of-range indices."""


def _is_index_type(kind: type) -> bool:
    """Whether values of type ``kind`` can name a block or node: integers, but not bools."""
    return issubclass(kind, numbers.Integral) and not issubclass(kind, bool)


def _is_index(value, stop: int) -> bool:
    """Whether ``value`` indexes ``stop`` items: an integer, not a bool, in [0, stop)."""
    return _is_index_type(type(value)) and 0 <= value < stop


def _count(value, name: str, minimum: int, error: type = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a non-bool integer >= ``minimum``."""
    if not (_is_index_type(type(value)) and value >= minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def _block_index(cliques, size: int) -> np.ndarray:
    """``cliques`` as a (C, size) int array; the caller checks that the indices lie in range.

    A clique of another length, with a float or bool index, or with a
    repeated block raises :class:`InvalidTripletError` naming it.
    """
    try:
        index = np.array(cliques)
    except ValueError:  # cliques of different lengths
        index = np.array(())
    # np.array reads (True, 2) as ints and (1, 2.0) as floats: check the entries' own types
    if index.shape[1:] != (size,) or not all(
        map(_is_index_type, set(map(type, chain.from_iterable(cliques))))
    ):
        for clique in cliques:
            if np.shape(clique) != (size,) or not all(_is_index_type(type(b)) for b in clique):
                raise InvalidTripletError(f"clique {clique!r} is not {size} integer block indices")
    index = index.astype(int, copy=False).reshape(-1, size)
    ordered = np.sort(index, axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeated.any():
        raise InvalidTripletError(f"duplicate block indices in {index[repeated][0].tolist()}")
    return index


@dataclass(frozen=True)
class GridSpec:
    """Dimensions of the block lattice and of the per-block signal.

    Attributes
    ----------
    height_blocks, width_blocks : int
        Lattice extent in blocks.
    block_rows, block_cols : int
        Cell extent of one block; D = block_rows * block_cols.
    antennas : int
        Column dimension d of every block matrix (rotations act here).
    """

    height_blocks: int
    width_blocks: int
    block_rows: int
    block_cols: int
    antennas: int

    def __post_init__(self):
        for name in ("height_blocks", "width_blocks", "block_rows", "block_cols"):
            _count(getattr(self, name), name, 1)
        # rotations are trivial below d = 2
        _count(self.antennas, "antennas", 2)

    @property
    def n_blocks(self) -> int:
        return self.height_blocks * self.width_blocks

    @property
    def block_cells(self) -> int:
        return self.block_rows * self.block_cols

    @property
    def lattice(self) -> tuple[int, int, int, int]:
        """(height_blocks, width_blocks, block_rows, block_cols): the grid less its antennas."""
        return self.height_blocks, self.width_blocks, self.block_rows, self.block_cols

    def block_position(self, index: int) -> tuple[int, int]:
        """Lattice (row, col) of a block index."""
        if not _is_index(index, self.n_blocks):
            raise IndexError(f"block index {index} out of range [0, {self.n_blocks})")
        return divmod(index, self.width_blocks)

    def block_index(self, row: int, col: int) -> int:
        """Inverse of :meth:`block_position`."""
        if not (_is_index(row, self.height_blocks) and _is_index(col, self.width_blocks)):
            raise IndexError(f"lattice position ({row}, {col}) out of range")
        return row * self.width_blocks + col

    def cell_positions(self) -> np.ndarray:
        """Absolute 2-D coordinates of every cell, ordered by (block, cell).

        Returns an (N*D, 2) float array; row ``i*D + a`` holds the position
        of cell ``a`` of block ``i``.
        """
        block, cell = np.divmod(np.arange(self.n_blocks * self.block_cells), self.block_cells)
        br, bc = np.divmod(block, self.width_blocks)
        r, c = np.divmod(cell, self.block_cols)
        return np.stack(
            (br * self.block_rows + r, bc * self.block_cols + c), axis=1
        ).astype(float)


@dataclass(frozen=True)
class KernelSpec:
    """Squared-exponential kernel on cell coordinates: unit variance at zero lag.

    ``length_scale`` is in cell units; ``jitter`` is added to the diagonal of
    the assembled covariance to keep it factorizable when the kernel is
    near-singular.
    """

    length_scale: float
    jitter: float = 1e-9

    def __post_init__(self):
        try:  # float ** raises OverflowError where float * gives inf
            valid = self.length_scale > 0 and 0.0 < 2.0 * float(self.length_scale) ** 2 < math.inf
        except OverflowError:
            valid = False
        if not valid:
            raise ValueError(
                f"length_scale must be > 0 with 2 l^2 finite and > 0, got {self.length_scale!r}"
            )
        if not self.jitter >= 0:
            raise ValueError("jitter must be non-negative")


class _KroneckerRoot(NamedTuple):
    """Square root R = P (Q_r (x) Q_c) S of a separable covariance U = R R^T.

    ``rows``, ``cols`` are the 1-D kernels' eigenvectors, ``spectrum`` is
    U's eigenvalues mu = S^2 as a read-only (n_r, n_c) grid, and ``order``
    the gather P: the row-major grid index of every (block, cell) row of U.
    """

    rows: np.ndarray
    cols: np.ndarray
    spectrum: np.ndarray
    order: np.ndarray

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        """R @ z for an (n_r * n_c, k) array z, as Q_r (S o Z) Q_c^T per column."""
        n_r, n_c = self.spectrum.shape
        w = (np.sqrt(self.spectrum)[:, :, None] * z.reshape(n_r, n_c, -1)).reshape(n_r, -1)
        x = self.cols @ (self.rows @ w).reshape(n_r, n_c, -1)
        return x.reshape(n_r * n_c, -1)[self.order]

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """(Q_r (x) Q_c)^T P^T x for an (n_r * n_c, k) array x, as an (n_r, n_c, k) array:
        x in the eigenbasis of U, as Q_r^T X Q_c per column."""
        n_r, n_c = self.spectrum.shape
        y = np.empty_like(x)
        y[self.order] = x
        return self.cols.T @ (self.rows.T @ y.reshape(n_r, -1)).reshape(n_r, n_c, -1)


class RowCovariance:
    """SPD row covariance of the stacked signal of one lattice, with block-aware slicing.

    Only :func:`build_row_covariance` makes one, and checks it there.
    ``lattice`` is the (height_blocks, width_blocks, block_rows, block_cols)
    of the grid it was built for, ``block_size`` is D and ``size`` N*D. It
    holds the table of distinct block tiles and the square root ``_root``
    that :func:`sample_channel`, :func:`log_prior_density` and
    :meth:`eigenvalues` read. ``matrix`` is formed from the table on first
    request and then kept; :meth:`submatrix` and :func:`~mra_sync.sync.run_grid`'s
    clique operators read the table, so they never form it. Instances are
    immutable.
    """

    def __init__(self, lattice: tuple, table: np.ndarray, root: _KroneckerRoot):
        h, w, rows, cols = lattice
        for name, value in (
            ("lattice", lattice), ("block_size", rows * cols), ("size", h * w * rows * cols),
            ("_table", table), ("_root", root), ("_matrix", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: RowCovariance is immutable")

    @property
    def matrix(self) -> np.ndarray:
        """The dense (N*D) x (N*D) covariance, formed on first request and then kept."""
        if self._matrix is None:
            h, w = self.lattice[:2]
            # windows[h-1-R_i, a, w-1-C_i, b, R_j, C_j]: the entry of blocks (R_i, C_i), (R_j, C_j)
            windows = sliding_window_view(self._table, (h, w), axis=(0, 2))
            u = np.ascontiguousarray(windows[::-1, :, ::-1].transpose(0, 2, 1, 4, 5, 3))
            object.__setattr__(self, "_matrix", u.reshape(self.size, -1))
        return self._matrix

    @property
    def n_blocks(self) -> int:
        return self.size // self.block_size

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``matrix`` (the Kronecker root's spectrum), unsorted and read-only."""
        return self._root.spectrum.ravel()

    def _tile_ids(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The tile id of every block pair of the broadcast index arrays ``rows``, ``cols``:
        with Q = ``_table.shape[2]``, ``_table[id // Q, :, id % Q, :]`` is that pair's D x D
        tile of ``matrix``.

        The id is the pair's block offset, so pairs at one offset share it.
        """
        h, w = self.lattice[:2]
        (r_i, c_i), (r_j, c_j) = np.divmod(rows, w), np.divmod(cols, w)
        return (r_j - r_i + h - 1) * (2 * w - 1) + c_j - c_i + w - 1

    def submatrix(self, blocks: Sequence[int]) -> np.ndarray:
        """Principal submatrix at the given block indices, in the given order."""
        blocks = _block_index([blocks], len(blocks))[0]
        outside = (blocks < 0) | (blocks >= self.n_blocks)
        if outside.any():
            raise InvalidTripletError(f"block index {blocks[outside][0]} out of range")
        ids = self._tile_ids(blocks[:, None], blocks)
        q = self._table.shape[2]
        # (J, J, D, D) tiles, laid out as rows (J, D) by columns (J, D)
        tiles = self._table[ids // q, :, ids % q, :]
        return tiles.transpose(0, 2, 1, 3).reshape(len(blocks) * self.block_size, -1)


class CovarianceTiles(NamedTuple):
    """The six named D x D tiles of a symmetric 3D x 3D block matrix.

    Laid out as ``[[u1, ua, ub], [ua.T, u2, uc], [ub.T, uc.T, u3]]``.
    """

    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    ua: np.ndarray
    ub: np.ndarray
    uc: np.ndarray


def split_triplet_tiles(matrix: np.ndarray, block_size: int) -> CovarianceTiles:
    """Split a 3D x 3D matrix into the six named D x D tiles.

    The caller chooses what to split: the raw covariance, or a (negated)
    inverse of it, depending on which estimator consumes the tiles.
    """
    m = np.asarray(matrix)
    d = block_size
    if m.shape != (3 * d, 3 * d):
        raise ValueError(f"expected a {3 * d} x {3 * d} matrix, got {m.shape}")
    return CovarianceTiles(
        u1=m[0:d, 0:d],
        u2=m[d : 2 * d, d : 2 * d],
        u3=m[2 * d :, 2 * d :],
        ua=m[0:d, d : 2 * d],
        ub=m[0:d, 2 * d :],
        uc=m[d : 2 * d, 2 * d :],
    )


def _kernel(sq: np.ndarray, length_scale: float) -> np.ndarray:
    """exp(-sq / (2 l^2)) of squared lags, in place; a quotient overflowing to -inf gives 0."""
    np.negative(sq, out=sq)
    with np.errstate(over="ignore"):
        sq /= 2.0 * length_scale**2
    return np.exp(sq, out=sq)


def _kernel_eigh(n: int, length_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the 1-D squared-exponential kernel on 0..n-1."""
    x = np.arange(n, dtype=float)
    return np.linalg.eigh(_kernel(np.subtract.outer(x, x) ** 2, length_scale))


def build_row_covariance(grid: GridSpec, kernel: KernelSpec) -> RowCovariance:
    """Assemble the squared-exponential row covariance over all cells.

    Entry ((i,a),(j,b)) is ``exp(-||pos(i,a) - pos(j,b)||^2 / (2 l^2))`` on
    the absolute cell grid, plus ``jitter`` on the diagonal.

    The kernel is stationary over the block lattice, so the covariance is
    held as a table t[dR, a, dC, b] of its (2H-1)(2W-1) distinct D x D
    tiles, one per block offset, on which finiteness and exact symmetry are
    checked. Submatrices, and so :func:`~mra_sync.sync.run_grid`'s clique
    operators, are read from the table; the dense matrix is one copy of it,
    formed only when :attr:`RowCovariance.matrix` is first requested.

    The cells fill an n_r x n_c rectangle (n_r = H * block_rows, n_c =
    W * block_cols) and the kernel factors over its two axes, so U is a
    permutation P of K_r (x) K_c plus jitter * I. With K = Q Lambda Q^T for
    the 1-D kernels, and the jitter shifting all eigenvalues alike, U = R R^T
    for the root R = P (Q_r (x) Q_c) mu^(1/2). Its spectrum mu =
    max(Lambda_r (x) Lambda_c, 0) + jitter, rounding negatives clipped, is
    kept once and read by :func:`sample_channel`, :func:`log_prior_density`
    and :meth:`RowCovariance.eigenvalues`. U must be positive definite on it.
    """
    h, w, d = grid.height_blocks, grid.width_blocks, grid.block_cells
    n_r, n_c = h * grid.block_rows, w * grid.block_cols
    lam_r, q_r = _kernel_eigh(n_r, kernel.length_scale)
    lam_c, q_c = _kernel_eigh(n_c, kernel.length_scale)
    spectrum = np.maximum(np.outer(lam_r, lam_c), 0.0) + kernel.jitter
    failed = np.count_nonzero(spectrum <= 0.0)
    if failed:
        raise NotPositiveDefiniteError(failed)
    # lags from cell a of a block to cell b of the block dR rows and dC columns on: their
    # squares sum to exact integers and _kernel runs exp(-sq / (2 l^2)) as written, so every
    # entry is bit-identical to that formula (run_grid's clique tiles are read from it)
    r, c = np.divmod(np.arange(d, dtype=float), grid.block_cols)
    row_lag = np.arange(1 - h, h)[:, None, None, None] * grid.block_rows + r - r[:, None, None]
    col_lag = np.arange(1 - w, w)[:, None] * grid.block_cols + c - c[:, None, None]
    t = _kernel(row_lag**2 + col_lag**2, kernel.length_scale)
    t[h - 1, :, w - 1, :][np.diag_indices(d)] += kernel.jitter
    # matrix, formed on request, is a copy of t, so t's checks are exactly its checks
    if not (np.isfinite(t).all() and np.array_equal(t, t[::-1, :, ::-1].transpose(0, 3, 2, 1))):
        raise ValueError("covariance tiles are not finite and exactly symmetric")
    rows, cols = grid.cell_positions().T
    order = (rows * n_c + cols).astype(np.intp)
    spectrum.setflags(write=False)
    return RowCovariance(grid.lattice, t, _KroneckerRoot(q_r, q_c, spectrum, order))


def _matrix_stack(matrices, empty: str, mixed: str) -> np.ndarray:
    """Validate N equally-shaped matrices into one float (N, rows, cols) array.

    Accepts an (N, rows, cols) array or a sequence of 2-D matrices. Raises
    ValueError with ``empty`` when there are none and with ``mixed`` when
    they are not 2-D matrices of one common shape.
    """
    try:
        stack = np.asarray(matrices, dtype=float)
    except ValueError as exc:  # ragged shapes cannot form one array
        raise ValueError(mixed) from exc
    if stack.ndim >= 1 and len(stack) == 0:
        raise ValueError(empty)
    if stack.ndim != 3:
        raise ValueError(mixed)
    return stack


@dataclass(frozen=True, eq=False)
class ChannelField:
    """N equally-shaped D x d block matrices as one (N, D, d) array."""

    blocks: np.ndarray

    def __post_init__(self):
        blocks = _matrix_stack(
            self.blocks,
            "a channel field needs at least one block",
            "blocks must be 2-D matrices of one common shape",
        )
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.blocks.shape[1:]

    def stacked(self) -> np.ndarray:
        """All blocks stacked vertically into one (N*D) x d matrix."""
        return self.blocks.reshape(-1, self.blocks.shape[2])


@dataclass(frozen=True, eq=False)
class PoseSet:
    """Per-block d x d rotations (orthogonal, determinant +1) as one (N, d, d) array."""

    poses: np.ndarray

    def __post_init__(self):
        mixed = "all poses must be square with one common size"
        poses = _matrix_stack(self.poses, "a pose set needs at least one pose", mixed)
        if poses.shape[1] != poses.shape[2]:
            raise ValueError(mixed)
        # the rule on the worst pose; max propagates NaN, which then fails it
        defect = np.swapaxes(poses, 1, 2) @ poses - np.eye(poses.shape[1])
        gap = np.linalg.norm(defect, axis=(1, 2)).max()
        # the det of a NaN pose warns, so it is taken only once the poses are orthogonal
        det_error = np.abs(np.linalg.det(poses) - 1.0).max() if gap < ROTATION_TOL else np.nan
        _check_rotation(gap, det_error, "pose")
        object.__setattr__(self, "poses", poses)

    @property
    def n_poses(self) -> int:
        return len(self.poses)

    @property
    def dim(self) -> int:
        return self.poses.shape[1]


@dataclass(frozen=True, eq=False)
class ObservationSet(ChannelField):
    """Noisy per-block observations: a :class:`ChannelField` with the noise level used."""

    noise_sigma: float

    def __post_init__(self):
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be non-negative")
        super().__post_init__()


def sample_channel(cov: RowCovariance, antennas: int, rng) -> ChannelField:
    """Draw one channel field from MN(0, U, I).

    The stacked (N*D) x d sample is R @ G for one (N*D, d) standard-normal
    draw G and the Kronecker root R R^T = U, so every column is N(0, U).
    Deterministic for a given rng state, whatever the BLAS thread count.
    """
    _count(antennas, "antennas", 1)
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((cov.size, antennas))
    return ChannelField((cov._root @ g).reshape(cov.n_blocks, cov.block_size, antennas))


def sample_pose_set(n_blocks: int, antennas: int, rng) -> PoseSet:
    """Draw n_blocks rotations Haar-uniformly on SO(d).

    QR of a standard-normal matrix with the sign convention that makes the
    factorization unique (non-negative R diagonal) gives Haar measure on
    O(d); flipping the last column when the determinant is -1 folds the
    reflection component onto SO(d) without disturbing uniformity.

    All n_blocks * d * d normals are drawn as one C-order (n_blocks, d, d)
    block and factorized as a stack. That is the same stream as one d x d
    draw per pose in turn, so the poses and the generator state afterwards
    match a per-pose loop exactly; seeded results depend on this.
    """
    _count(n_blocks, "n_blocks", 1)
    _count(antennas, "antennas", 2)
    rng = np.random.default_rng(rng)
    q, r = np.linalg.qr(rng.standard_normal((n_blocks, antennas, antennas)))
    sign = np.sign(np.diagonal(r, axis1=1, axis2=2))
    sign[sign == 0] = 1.0
    q = q * sign[:, None, :]
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return PoseSet(q)


def apply_precoding(channels: ChannelField, poses: PoseSet) -> ChannelField:
    """Right-multiply every block by its pose: block i becomes H_i @ P_i."""
    if channels.n_blocks != poses.n_poses:
        raise ValueError("channel and pose counts differ")
    if channels.block_shape[1] != poses.dim:
        raise ValueError("pose size does not match the block column count")
    return ChannelField(channels.blocks @ poses.poses)


def observe(effective: ChannelField, sigma: float, rng) -> ObservationSet:
    """Add i.i.d. Gaussian noise of scale sigma to every block.

    sigma == 0 returns the input blocks bit-exactly.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return ObservationSet(effective.blocks.copy(), 0.0)
    rng = np.random.default_rng(rng)
    noise = rng.standard_normal(effective.blocks.shape)
    return ObservationSet(effective.blocks + sigma * noise, float(sigma))


def log_prior_density(stacked: np.ndarray, cov: RowCovariance) -> float:
    """Log-density of MN(0, U, I) at a stacked (N*D) x d matrix.

    Equals -1/2 tr(H^T U^{-1} H) - (d/2) logdet(2 pi U); invariant under
    right multiplication of H by any orthogonal matrix. Both terms are read
    in the eigenbasis of the Kronecker root, so no dense matrix is formed.
    """
    h = np.asarray(stacked, dtype=float)
    if h.ndim != 2 or h.shape[0] != cov.size:
        raise ValueError(f"expected a matrix with {cov.size} rows, got {h.shape}")
    # U = R R^T with R = P (Q_r (x) Q_c) S: in the eigenbasis W = (Q_r (x) Q_c)^T P^T H,
    # U is the diagonal mu = S^2, so the dense matrix and its factor are never formed
    w = cov._root.coefficients(h)
    mu = cov._root.spectrum[:, :, None]
    quad = float(np.sum(w * w / mu))
    logdet = float(np.sum(np.log(mu)))
    d = h.shape[1]
    return -0.5 * quad - 0.5 * d * (cov.size * np.log(2.0 * np.pi) + logdet)
