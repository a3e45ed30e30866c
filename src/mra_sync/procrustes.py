"""Closed-form projection onto the rotation group.

``procrustes_project`` solves argmax_R <R, X>_F over SO(d) by stripping the
singular values from an SVD of X and correcting the determinant on the
smallest singular direction; for d = 2 it reads the angle off X directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Rotation", "procrustes_project"]

ROTATION_TOL = 1e-10
_DEGENERACY_RTOL = 1e-12
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class Rotation:
    """A validated d x d rotation matrix.

    ``degenerate`` marks outputs of :func:`procrustes_project` whose input
    admitted more than one maximizer; the stored matrix is still a valid
    maximizer and safe to use downstream.
    """

    matrix: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("rotation must be a square matrix")
        if m.shape == (2, 2):
            # the same two checks on Python scalars, which the d = 2 hot path can afford
            a, b, c, e = m.ravel().tolist()
            col0, col1, off = a * a + c * c - 1.0, b * b + e * e - 1.0, a * b + c * e
            gap = math.sqrt(col0 * col0 + 2.0 * off * off + col1 * col1)
            det = a * e - b * c
        else:
            gap = np.linalg.norm(m.T @ m - np.eye(m.shape[0]))
            det = np.linalg.det(m)
        _check_rotation(gap, abs(det - 1.0), "matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def T(self) -> "Rotation":
        """The inverse rotation."""
        return Rotation(self.matrix.T.copy(), self.degenerate)


def _check_rotation(gap: float, det_error: float, what: str) -> None:
    """The one rotation rule: ||R^T R - I||_F and |det R - 1| both below ``ROTATION_TOL``.

    Written as not (x < tol) so that NaN and inf fail too; ``what`` opens the message.
    """
    if not gap < ROTATION_TOL:
        raise ValueError(f"{what} is not orthogonal to 1e-10")
    if not det_error < ROTATION_TOL:
        raise ValueError(f"{what} determinant is not +1")


def _as_matrix(rotation_like, name: str) -> np.ndarray:
    """The matrix of a :class:`Rotation`, or of any other input once it passes as one.

    An input that fails raises :class:`Rotation`'s ValueError prefixed with ``name``.
    """
    if isinstance(rotation_like, Rotation):
        return rotation_like.matrix
    try:
        return Rotation(rotation_like).matrix
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def procrustes_project(x: np.ndarray) -> Rotation:
    """Project a square matrix onto SO(d), maximizing <R, X>_F.

    From the SVD X = A diag(s) V^T (singular values descending), the
    maximizer over SO(d) is A L V^T with L = I when det(A V^T) > 0 and
    L = diag(1, ..., 1, -1) otherwise, so the sign flip lands on the
    smallest singular direction.

    When the flip is active and the smallest singular value vanishes (or
    ties with the next one), the maximizer is not unique; one maximizer is
    returned with its ``degenerate`` flag set.

    For d = 2 no SVD is taken. With p = hypot(x00 + x11, x10 - x01) and
    q = hypot(x00 - x11, x01 + x10), the singular values are (p + q) / 2 and
    |p - q| / 2, det X = (p^2 - q^2) / 4, and <R, X>_F = p cos(theta - phi)
    for the rotation by theta, where phi = atan2(x10 - x01, x00 + x11). The
    maximizer is the rotation by phi (the identity when p = 0, where every
    rotation ties). The flip is active exactly when q > p, and the
    degeneracy rule above applies to these singular values unchanged.
    """
    return Rotation(*_project(x))


def _project(x) -> tuple:
    """:func:`procrustes_project` as a bare (matrix, degenerate) pair, unvalidated."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("input must be a square matrix")
    if x.shape[0] < 2:
        raise ValueError("rotation projection needs d >= 2")
    if x.shape[0] == 2:
        c, s, degenerate = _project_2x2(*x.ravel().tolist())
        return np.array([[c, -s], [s, c]]), degenerate
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite entries")

    a, s, vt = np.linalg.svd(x)
    degenerate = False
    if np.linalg.det(a @ vt) < 0:
        scale = max(s[0], _TINY)
        if s[-1] <= _DEGENERACY_RTOL * scale or (s[-2] - s[-1]) <= _DEGENERACY_RTOL * scale:
            degenerate = True
        a = a.copy()
        a[:, -1] = -a[:, -1]
    return a @ vt, degenerate


def _project_stack(x: np.ndarray) -> np.ndarray:
    """``procrustes_project(x[t]).matrix`` for every t of a (T, d, d) stack, bit for bit.

    d = 2 maps the scalar closed form's ``math.hypot`` over the items (numpy's
    hypot rounds differently) and sends the items with p = 0 or an overflowing
    p + q through the scalar :func:`_project_2x2` one at a time; d >= 3 takes one
    stacked SVD and flips the last column of A where det(A V^T) < 0.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite entries")
    if x.shape[-1] > 2:
        a, _, vt = np.linalg.svd(x)
        flip = np.linalg.det(a @ vt) < 0
        a[flip, :, -1] = -a[flip, :, -1]
        return a @ vt
    x00, x01, x10, x11 = (x[:, i, j] for i in (0, 1) for j in (0, 1))
    with np.errstate(over="ignore"):
        cos_part, sin_part = x00 + x11, x10 - x01
        p = np.array(list(map(math.hypot, cos_part.tolist(), sin_part.tolist())))
        q = np.array(list(map(math.hypot, (x00 - x11).tolist(), (x01 + x10).tolist())))
        special = np.flatnonzero(~(p > 0) | ~np.isfinite(p + q))
    p[special] = 1.0
    c, s = cos_part / p, sin_part / p
    for t in special:
        c[t], s[t], _ = _project_2x2(*x[t].ravel().tolist())
    return np.stack([c, -s, s, c], axis=-1).reshape(x.shape)


def _project_2x2(x00: float, x01: float, x10: float, x11: float) -> tuple:
    """The d = 2 closed form of :func:`_project` on scalar entries, as floats (c, s, degenerate).

    The maximizer is [[c, -s], [s, c]]; the one place that holds the d = 2
    hypot, overflow and degeneracy rules.
    """
    finite = math.isfinite
    if not (finite(x00) and finite(x01) and finite(x10) and finite(x11)):
        raise ValueError("input contains non-finite entries")
    cos_part, sin_part = x00 + x11, x10 - x01
    p = math.hypot(cos_part, sin_part)
    q = math.hypot(x00 - x11, x01 + x10)
    if not math.isfinite(p + q):
        # the sums overflowed; the maximizer and the flag do not depend on scale
        m = max(map(abs, (x00, x01, x10, x11)))
        return _project_2x2(x00 / m, x01 / m, x10 / m, x11 / m)
    degenerate = False
    if q > p:
        # s_max = (p + q) / 2, s_min = (q - p) / 2, s_max - s_min = p
        scale = max((p + q) / 2, _TINY)
        degenerate = (q - p) / 2 <= _DEGENERACY_RTOL * scale or p <= _DEGENERACY_RTOL * scale
    c, s = (cos_part / p, sin_part / p) if p > 0 else (1.0, 0.0)
    return c, s, degenerate

