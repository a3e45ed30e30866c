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

import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import cho_solve, lapack

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
ORTHOGONALITY_TOL = 1e-10


class NotPositiveDefiniteError(ValueError):
    """A covariance factorization failed.

    ``minor_index`` is the 1-based order of the offending leading minor as
    reported by the Cholesky routine.
    """

    def __init__(self, minor_index: int, message: str | None = None):
        self.minor_index = minor_index
        super().__init__(
            message
            or f"matrix is not positive definite "
            f"(leading minor of order {minor_index})"
        )


class InvalidTripletError(ValueError):
    """Block triple with duplicate or out-of-range indices."""


def _max_asymmetry(matrix: np.ndarray) -> float:
    """max |matrix - matrix.T|, with one n^2 temporary freed on return."""
    diff = matrix - matrix.T
    np.abs(diff, out=diff)
    return float(diff.max())


def _cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, raising NotPositiveDefiniteError on failure."""
    c, info = lapack.dpotrf(matrix, lower=1, overwrite_a=0, clean=1)
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
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.antennas, numbers.Integral) or self.antennas < 2:
            raise ValueError("antennas must be an integer >= 2 (rotations are trivial below)")

    @property
    def n_blocks(self) -> int:
        return self.height_blocks * self.width_blocks

    @property
    def block_cells(self) -> int:
        return self.block_rows * self.block_cols

    def block_position(self, index: int) -> tuple[int, int]:
        """Lattice (row, col) of a block index."""
        if not 0 <= index < self.n_blocks:
            raise IndexError(f"block index {index} out of range [0, {self.n_blocks})")
        return divmod(index, self.width_blocks)

    def block_index(self, row: int, col: int) -> int:
        """Inverse of :meth:`block_position`."""
        if not (0 <= row < self.height_blocks and 0 <= col < self.width_blocks):
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


@dataclass(frozen=True, eq=False)
class RowCovariance:
    """SPD row covariance of the stacked signal, with block-aware slicing.

    ``matrix`` is (N*D) x (N*D), stored C-contiguous so that
    :meth:`block_tiles` is a view; ``block_size`` is D. Construction validates
    symmetry and positive definiteness (via Cholesky; the factor is kept for
    sampling and density evaluation).
    """

    matrix: np.ndarray
    block_size: int
    _chol: np.ndarray = field(init=False, repr=False)
    _eigenvalues: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if self.block_size < 1 or m.shape[0] % self.block_size != 0:
            raise ValueError("matrix size must be a multiple of block_size")
        scale = max(1.0, float(m.max()), float(-m.min()))
        # An inf entry makes scale inf and a NaN entry the asymmetry NaN: both fail.
        if not (np.isfinite(scale) and _max_asymmetry(m) <= SYMMETRY_RTOL * scale):
            raise ValueError("covariance is not finite and symmetric to relative 1e-12")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_chol", _cholesky_lower(m))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.size // self.block_size

    def cholesky(self) -> np.ndarray:
        """Lower factor L with L @ L.T == matrix."""
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
        blocks = list(blocks)
        if len(set(blocks)) != len(blocks):
            raise InvalidTripletError(f"duplicate block indices in {blocks}")
        for b in blocks:
            if not 0 <= b < self.n_blocks:
                raise InvalidTripletError(f"block index {b} out of range")
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


def _squared_lags(x: np.ndarray) -> np.ndarray:
    """Matrix of (x_i - x_j)^2, built in place in one n^2 array."""
    lags = np.subtract.outer(x, x)
    lags *= lags
    return lags


def _kernel_eigenvalues(n: int, length_scale: float) -> np.ndarray:
    """Eigenvalues of the 1-D squared-exponential kernel on coordinates 0..n-1."""
    lags = _squared_lags(np.arange(n, dtype=float))
    return np.linalg.eigvalsh(np.exp(-lags / (2.0 * length_scale**2)))


def build_row_covariance(grid: GridSpec, kernel: KernelSpec) -> RowCovariance:
    """Assemble the squared-exponential row covariance over all cells.

    Entry ((i,a),(j,b)) is ``exp(-||pos(i,a) - pos(j,b)||^2 / (2 l^2))`` on
    the absolute cell grid, plus ``jitter`` on the diagonal.

    The cells fill an n_r x n_c rectangle (n_r = H * block_rows, n_c =
    W * block_cols) and the kernel factors over its two axes, so U is a
    permutation of K_r (x) K_c plus jitter * I. Its eigenvalues are therefore
    lambda_r,i * lambda_c,j + jitter from the two 1-D kernels; they are
    stored on the covariance for :meth:`RowCovariance.eigenvalues`.
    """
    rows, cols = grid.cell_positions().T
    # squared distances are exact integers however they are summed, and the
    # negate, divide and exp below run in the order of exp(-sq / (2 l^2)),
    # so every entry is bit-identical to that formula (the sample stream of
    # sample_channel depends on it)
    u = _squared_lags(rows)
    u += _squared_lags(cols)
    np.negative(u, out=u)
    u /= 2.0 * kernel.length_scale**2
    np.exp(u, out=u)
    u[np.diag_indices_from(u)] += kernel.jitter
    cov = RowCovariance(u, grid.block_cells)
    lam_r = _kernel_eigenvalues(grid.height_blocks * grid.block_rows, kernel.length_scale)
    lam_c = _kernel_eigenvalues(grid.width_blocks * grid.block_cols, kernel.length_scale)
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

    @classmethod
    def from_stacked(cls, stacked: np.ndarray, block_size: int) -> "ChannelField":
        stacked = np.asarray(stacked, dtype=float)
        if stacked.shape[0] % block_size != 0:
            raise ValueError("stacked row count must be a multiple of block_size")
        return cls(stacked.reshape(-1, block_size, *stacked.shape[1:]))


@dataclass(frozen=True, eq=False)
class PoseSet:
    """Per-block d x d rotations (orthogonal, determinant +1) as one (N, d, d) array."""

    poses: np.ndarray

    def __post_init__(self):
        mixed = "all poses must be square with one common size"
        poses = _matrix_stack(self.poses, "a pose set needs at least one pose", mixed)
        if poses.shape[1] != poses.shape[2]:
            raise ValueError(mixed)
        # one stacked check covers every pose; NaN fails both comparisons
        defect = np.swapaxes(poses, 1, 2) @ poses - np.eye(poses.shape[1])
        if not np.all(np.linalg.norm(defect, axis=(1, 2)) < ORTHOGONALITY_TOL):
            raise ValueError("pose is not orthogonal to 1e-10")
        if not np.all(np.abs(np.linalg.det(poses) - 1.0) < ORTHOGONALITY_TOL):
            raise ValueError("pose determinant is not +1")
        object.__setattr__(self, "poses", poses)

    @property
    def n_poses(self) -> int:
        return len(self.poses)

    @property
    def dim(self) -> int:
        return self.poses.shape[1]


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Noisy per-block observations as one (N, D, d) array, with the noise level used."""

    blocks: np.ndarray
    noise_sigma: float

    def __post_init__(self):
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be non-negative")
        blocks = _matrix_stack(
            self.blocks,
            "an observation set needs at least one block",
            "all observation blocks must be 2-D matrices of one common shape",
        )
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.blocks.shape[1:]


def sample_channel(cov: RowCovariance, antennas: int, rng) -> ChannelField:
    """Draw one channel field from MN(0, U, I).

    The stacked (N*D) x d sample is L @ G for the stored Cholesky factor L
    and i.i.d. standard-normal G, so every column is N(0, U). Deterministic
    for a given rng state.
    """
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((cov.size, antennas))
    return ChannelField.from_stacked(cov.cholesky() @ g, cov.block_size)


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
    if antennas < 2:
        raise ValueError("antennas must be >= 2")
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
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
