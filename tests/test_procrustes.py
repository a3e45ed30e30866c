import math

import numpy as np
import pytest

from mra_sync import Rotation, procrustes_project, relative_pose, sample_pose_set
from mra_sync.procrustes import _project_stack


def rot2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_identity_fixed_point():
    assert np.allclose(procrustes_project(np.eye(3)).matrix, np.eye(3))


def test_scaled_rotation_recovered(rng):
    for d in (2, 3, 5):
        q = sample_pose_set(1, d, rng).poses[0]
        r = procrustes_project(3.7 * q)
        assert np.linalg.norm(r.matrix - q) < 1e-10


def test_ninety_degree_case_matches_grid_search():
    x = np.array([[0.0, -3.0], [3.0, 0.0]])
    r = procrustes_project(x)
    assert np.allclose(r.matrix, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-12)
    # independent oracle: dense search over the rotation angle
    thetas = np.linspace(0.0, 2.0 * math.pi, 720001)
    values = np.cos(thetas) * (x[0, 0] + x[1, 1]) + np.sin(thetas) * (x[1, 0] - x[0, 1])
    best = thetas[np.argmax(values)]
    assert np.abs(r.matrix - rot2(best)).max() < 1e-4


def test_optimality_dominates_random_rotations(rng):
    for _ in range(100):
        d = int(rng.integers(2, 5))
        x = rng.standard_normal((d, d))
        r = procrustes_project(x)
        base = float(np.sum(r.matrix * x))
        for q in sample_pose_set(100, d, rng).poses:
            assert base >= float(np.sum(q * x)) - 1e-9


def test_idempotent_on_rotations(rng):
    for d in (2, 3, 4):
        q = sample_pose_set(1, d, rng).poses[0]
        assert np.linalg.norm(procrustes_project(q).matrix - q) < 1e-10


def test_equivariance(rng):
    for _ in range(20):
        d = 3
        x = rng.standard_normal((d, d))
        q1 = sample_pose_set(1, d, rng).poses[0]
        q2 = sample_pose_set(1, d, rng).poses[0]
        lhs = procrustes_project(q1 @ x @ q2).matrix
        rhs = q1 @ procrustes_project(x).matrix @ q2
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_degenerate_flag_on_rank_deficient_reflection():
    # det(A V^T) < 0 with a zero smallest singular value: maximizer not unique
    x = np.diag([-1.0, 1.0, 0.0])
    r = procrustes_project(x)
    assert r.degenerate
    assert np.linalg.norm(r.matrix.T @ r.matrix - np.eye(3)) < 1e-10
    assert abs(np.linalg.det(r.matrix) - 1.0) < 1e-10
    # still a maximizer: ties any rotation on the degenerate directions
    assert float(np.sum(r.matrix * x)) >= float(np.sum(np.eye(3) * x)) - 1e-12


def test_non_degenerate_not_flagged(rng):
    for _ in range(20):
        x = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert not procrustes_project(x).degenerate


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        procrustes_project(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        procrustes_project(np.ones((2, 3)))
    with pytest.raises(ValueError):
        procrustes_project(np.ones((1, 1)))


def test_rotation_type_validates():
    with pytest.raises(ValueError):
        Rotation(np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Rotation(np.diag([1.0, -1.0]))


def test_relative_pose_properties(rng):
    p = sample_pose_set(3, 3, rng).poses
    assert np.allclose(relative_pose(p[0], p[0]).matrix, np.eye(3), atol=1e-12)
    r01 = relative_pose(p[0], p[1])
    r10 = relative_pose(p[1], p[0])
    assert np.linalg.norm(r01.matrix - r10.matrix.T) < 1e-12
    r12 = relative_pose(p[1], p[2])
    r02 = relative_pose(p[0], p[2])
    assert np.linalg.norm(r01.matrix @ r12.matrix - r02.matrix) < 1e-10


def test_relative_pose_angle_arithmetic():
    t1, t2 = 0.7, -1.9
    r = relative_pose(rot2(t1), rot2(t2))
    assert np.abs(r.matrix - rot2(t2 - t1)).max() < 1e-12


def test_relative_pose_dimension_mismatch():
    with pytest.raises(ValueError):
        relative_pose(np.eye(2), np.eye(3))


def svd_project_2x2(x):
    """The SVD route for d = 2, as the general path takes it: flip the smallest
    singular direction when det(A V^T) < 0, flagging ties and vanishing values."""
    a, s, vt = np.linalg.svd(x)
    degenerate = False
    if np.linalg.det(a @ vt) < 0:
        scale = max(s[0], np.finfo(float).tiny)
        degenerate = bool(s[1] <= 1e-12 * scale or s[0] - s[1] <= 1e-12 * scale)
        a = a.copy()
        a[:, -1] = -a[:, -1]
    return a @ vt, degenerate


def test_closed_form_2x2_matches_svd_reference(rng):
    for scale in np.exp(rng.uniform(-5.0, 5.0, size=1200)):
        x = scale * rng.standard_normal((2, 2))
        r = procrustes_project(x)
        expected, degenerate = svd_project_2x2(x)
        assert np.abs(r.matrix - expected).max() < 1e-12
        assert r.degenerate == degenerate


def test_closed_form_2x2_constructed_cases():
    zero = procrustes_project(np.zeros((2, 2)))
    assert np.array_equal(zero.matrix, np.eye(2)) and not zero.degenerate

    for scale in (0.25, 1e308):  # 1e308: the entry sums overflow and are rescaled
        scaled = procrustes_project(scale * rot2(2.9))
        assert np.abs(scaled.matrix - rot2(2.9)).max() < 1e-15 and not scaled.degenerate

    # a pure reflection: <R, X> = 0 for every rotation, so the flip is active
    # on a tie and any rotation returned is a maximizer
    reflection = np.diag([-1.0, 1.0])
    r = procrustes_project(reflection)
    assert r.degenerate
    for theta in np.linspace(0.0, 2.0 * math.pi, 37):
        value = float(np.sum(rot2(theta) * reflection))
        assert float(np.sum(r.matrix * reflection)) >= value - 1e-15

    # det X = 0 with p > 0: one singular value vanishes but the maximizer is
    # unique (the rotation by atan2(x10 - x01, x00 + x11)) and not flagged
    singular = np.outer([1.0, 2.0], [3.0, -1.0])
    assert abs(np.linalg.det(singular)) < 1e-15
    r = procrustes_project(singular)
    theta = math.atan2(singular[1, 0] - singular[0, 1], singular[0, 0] + singular[1, 1])
    assert not r.degenerate
    assert np.abs(r.matrix - rot2(theta)).max() < 1e-15


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_rotation_rejects_non_finite():
    for d in (2, 3):
        for bad in (np.nan, np.inf, -np.inf):
            m = np.eye(d)
            m[0, 0] = bad
            with pytest.raises(ValueError):
                Rotation(m)
            with pytest.raises(ValueError):
                Rotation(np.full((d, d), bad))
        with pytest.raises(ValueError):
            procrustes_project(np.full((d, d), np.nan))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_project_stack_matches_per_item_projection(rng, d):
    scales = np.exp(rng.uniform(-5.0, 5.0, 300))
    special = [
        np.zeros((d, d)),
        np.diag([-1.0] + [1.0] * (d - 1)),
        np.full((d, d), 1e308),
        1e308 * np.eye(d),
        np.diag([1e308] + [1e-300] * (d - 1)),
    ]
    # entries near the largest float, where p and q are finite but p + q overflows
    huge = 0.7e308 * rng.uniform(-1.0, 1.0, (20, d, d))
    x = np.concatenate([scales[:, None, None] * rng.standard_normal((300, d, d)), special, huge])
    projected = _project_stack(x)
    assert projected.shape == x.shape
    for item, got in zip(x, projected):
        assert got.tobytes() == procrustes_project(item).matrix.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_project_stack_refuses_non_finite_input(d):
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((3, d, d))
        x[1, 0, 1] = bad
        with pytest.raises(ValueError):
            _project_stack(x)
