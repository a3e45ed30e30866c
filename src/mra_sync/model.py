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
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import cho_solve, lapack

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

SYMMETRY_RTOL = 1e-12

# A freed array of a few MiB raises glibc's dynamic mmap threshold for the rest
# of the process and so changes the speed of later allocations; the covariance
# is filled and checked in row chunks and tiles of at most this many bytes.
SETUP_CHUNK_BYTES = 2**21


class NotPositiveDefiniteError(ValueError):
    """A covariance is not positive definite.

    ``minor_index`` is the 1-based order of the offending leading minor as
    reported by the Cholesky routine or, from :func:`build_row_covariance`'s
    Kronecker spectrum, the number of eigenvalues that are not positive.
    """

    def __init__(self, minor_index: int, message: str | None = None):
        self.minor_index = minor_index
        super().__init__(
            message
            or f"matrix is not positive definite "
            f"(leading minor of order {minor_index})"
        )


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


def _max_asymmetry(matrix: np.ndarray) -> float:
    """max |matrix - matrix.T|, NaN if any compared entry is NaN.

    Compares each square tile above the diagonal, and each diagonal tile,
    with its mirror image; a tile holds at most ``SETUP_CHUNK_BYTES``.
    """
    n = len(matrix)
    side = math.isqrt(SETUP_CHUNK_BYTES // matrix.itemsize)
    worst = []
    for i in range(0, n, side):
        for j in range(i, n, side):
            diff = matrix[i : i + side, j : j + side] - matrix[j : j + side, i : i + side].T
            np.abs(diff, out=diff)
            worst.append(diff.max())
    # np.max, unlike the builtin max, propagates NaN
    return float(np.max(worst))


def _cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, raising NotPositiveDefiniteError on failure.

    ``dpotrf`` gets the Fortran-ordered view ``matrix.T``, which it copies
    as it is; for exactly symmetric input that is the factor of ``matrix``.
    """
    c, info = lapack.dpotrf(matrix.T, lower=1, overwrite_a=0, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of Cholesky")
    return c


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
        if not self.length_scale > 0:
            raise ValueError("length_scale must be positive")
        if not self.jitter >= 0:
            raise ValueError("jitter must be non-negative")


class _KroneckerRoot(NamedTuple):
    """Square root R = P (Q_r (x) Q_c) S of a separable covariance U = R R^T.

    ``rows``, ``cols`` are the 1-D kernels' eigenvectors, ``scale`` is S as
    an (n_r, n_c) grid, and ``order`` the gather P: the row-major grid index
    of every (block, cell) row of U.
    """

    rows: np.ndarray
    cols: np.ndarray
    scale: np.ndarray
    order: np.ndarray

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        """R @ z for an (n_r * n_c, k) array z, as Q_r (S o Z) Q_c^T per column."""
        n_r, n_c = self.scale.shape
        w = (self.scale[:, :, None] * z.reshape(n_r, n_c, -1)).reshape(n_r, -1)
        x = self.cols @ (self.rows @ w).reshape(n_r, n_c, -1)
        return x.reshape(n_r * n_c, -1)[self.order]


@dataclass(frozen=True, eq=False)
class RowCovariance:
    """SPD row covariance of the stacked signal, with block-aware slicing.

    ``matrix`` is (N*D) x (N*D), stored C-contiguous so that
    :meth:`block_tiles` is a view; ``block_size`` is D. Construction validates
    symmetry and positive definiteness, through :meth:`cholesky` unless
    :func:`build_row_covariance` passes its checked Kronecker square root as
    ``_root``, which :func:`sample_channel` then draws through. The Cholesky
    factor is taken of ``matrix.T``, which LAPACK reads without a transposing
    copy; it is the factor of ``matrix`` wherever that is exactly symmetric,
    as :func:`build_row_covariance`'s is, and otherwise that of the symmetric
    matrix given by the upper triangle.
    """

    matrix: np.ndarray
    block_size: int
    _root: _KroneckerRoot | None = field(default=None, repr=False, kw_only=True)
    _chol: np.ndarray | None = field(init=False, repr=False, default=None)
    _eigenvalues: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance must be a square matrix")
        _count(self.block_size, "block_size", 1)
        if m.shape[0] % self.block_size != 0:
            raise ValueError("matrix size must be a multiple of block_size")
        scale = max(1.0, float(m.max()), float(-m.min()))
        # An inf entry makes scale inf and a NaN entry the asymmetry NaN: both fail.
        if not (np.isfinite(scale) and _max_asymmetry(m) <= SYMMETRY_RTOL * scale):
            raise ValueError("covariance is not finite and symmetric to relative 1e-12")
        object.__setattr__(self, "matrix", m)
        if self._root is None:
            self.cholesky()

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.size // self.block_size

    def cholesky(self) -> np.ndarray:
        """Lower factor L with L @ L.T == matrix, factored on first use and then kept."""
        if self._chol is None:
            object.__setattr__(self, "_chol", _cholesky_lower(self.matrix))
        return self._chol

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``matrix`` in ascending order, as a read-only array.

        :func:`build_row_covariance` supplies them from the Kronecker
        structure of the kernel; any other covariance gets one ``eigvalsh``
        on first use, which is then kept.
        """
        if self._eigenvalues is None:
            self._set_eigenvalues(np.linalg.eigvalsh(self.matrix))
        return self._eigenvalues

    def _set_eigenvalues(self, values: np.ndarray) -> None:
        values = np.sort(values)
        values.setflags(write=False)
        object.__setattr__(self, "_eigenvalues", values)

    def block_tiles(self) -> np.ndarray:
        """``matrix`` as an (N, D, N, D) view: ``[i, :, j, :]`` is the D x D tile of blocks i, j."""
        n, d = self.n_blocks, self.block_size
        return self.matrix.reshape(n, d, n, d)

    def submatrix(self, blocks: Sequence[int]) -> np.ndarray:
        """Principal submatrix at the given block indices, in the given order."""
        blocks = _block_index([blocks], len(blocks))[0]
        outside = (blocks < 0) | (blocks >= self.n_blocks)
        if outside.any():
            raise InvalidTripletError(f"block index {blocks[outside][0]} out of range")
        d = self.block_size
        idx = np.concatenate([np.arange(b * d, (b + 1) * d) for b in blocks])
        return self.matrix[np.ix_(idx, idx)]


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


def _squared_lags(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix of (x_i - y_j)^2, built in place in ``out`` or in one new array."""
    lags = np.subtract.outer(x, y, out=out)
    lags *= lags
    return lags


def _kernel_eigh(n: int, length_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the 1-D squared-exponential kernel on 0..n-1."""
    x = np.arange(n, dtype=float)
    lags = _squared_lags(x, x)
    return np.linalg.eigh(np.exp(-lags / (2.0 * length_scale**2)))


def build_row_covariance(grid: GridSpec, kernel: KernelSpec) -> RowCovariance:
    """Assemble the squared-exponential row covariance over all cells.

    Entry ((i,a),(j,b)) is ``exp(-||pos(i,a) - pos(j,b)||^2 / (2 l^2))`` on
    the absolute cell grid, plus ``jitter`` on the diagonal.

    The cells fill an n_r x n_c rectangle (n_r = H * block_rows, n_c =
    W * block_cols) and the kernel factors over its two axes, so U is a
    permutation P of K_r (x) K_c plus jitter * I. With K = Q Lambda Q^T for
    the 1-D kernels, its eigenvalues are lambda_r,i * lambda_c,j + jitter
    (kept for :meth:`RowCovariance.eigenvalues`), and as the jitter shifts
    them all alike, U = R R^T for the root R = P (Q_r (x) Q_c)
    (max(Lambda_r (x) Lambda_c, 0) + jitter)^(1/2) that :func:`sample_channel`
    draws through. U must be positive definite on that clipped spectrum.
    """
    rows, cols = grid.cell_positions().T
    n_r, n_c = grid.height_blocks * grid.block_rows, grid.width_blocks * grid.block_cols
    lam_r, q_r = _kernel_eigh(n_r, kernel.length_scale)
    lam_c, q_c = _kernel_eigh(n_c, kernel.length_scale)
    spectrum = np.maximum(np.outer(lam_r, lam_c), 0.0) + kernel.jitter
    failed = np.count_nonzero(spectrum <= 0.0)
    if failed:
        raise NotPositiveDefiniteError(failed, f"{failed} kernel eigenvalues are not positive")
    u = np.empty((len(rows), len(rows)))
    chunk = max(1, SETUP_CHUNK_BYTES // u[0].nbytes)
    for start in range(0, len(u), chunk):
        # squared distances are exact integers however they are summed, and the
        # negate, divide and exp below run in the order of exp(-sq / (2 l^2)),
        # so every entry is bit-identical to that formula (run_grid's clique
        # tiles are read from it)
        part = slice(start, start + chunk)
        block = _squared_lags(rows[part], rows, out=u[part])
        block += _squared_lags(cols[part], cols)
        np.negative(block, out=block)
        block /= 2.0 * kernel.length_scale**2
        np.exp(block, out=block)
    u[np.diag_indices_from(u)] += kernel.jitter
    order = (rows * n_c + cols).astype(np.intp)
    root = _KroneckerRoot(q_r, q_c, np.sqrt(spectrum), order)
    cov = RowCovariance(u, grid.block_cells, _root=root)
    cov._set_eigenvalues(np.outer(lam_r, lam_c).ravel() + kernel.jitter)
    return cov


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
    draw G and a root R R^T = U, so every column is N(0, U): the Kronecker
    root of a covariance from :func:`build_row_covariance`, else the Cholesky
    factor. Deterministic for a given rng state; through the Kronecker root
    also whatever the BLAS thread count.
    """
    _count(antennas, "antennas", 1)
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((cov.size, antennas))
    root = cov.cholesky() if cov._root is None else cov._root
    return ChannelField((root @ g).reshape(cov.n_blocks, cov.block_size, antennas))


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
    right multiplication of H by any orthogonal matrix.
    """
    h = np.asarray(stacked, dtype=float)
    if h.ndim != 2 or h.shape[0] != cov.size:
        raise ValueError(f"expected a matrix with {cov.size} rows, got {h.shape}")
    l = cov.cholesky()
    quad = float(np.sum(h * cho_solve((l, True), h)))
    logdet = 2.0 * float(np.sum(np.log(np.diag(l))))
    d = h.shape[1]
    return -0.5 * quad - 0.5 * d * (cov.size * np.log(2.0 * np.pi) + logdet)
