import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import lapack

import mra_sync
from mra_sync import (
    ChannelField,
    GridSpec,
    InvalidTripletError,
    KernelSpec,
    NotPositiveDefiniteError,
    ObservationSet,
    PoseSet,
    RowCovariance,
    apply_precoding,
    build_row_covariance,
    log_prior_density,
    observe,
    sample_channel,
    sample_pose_set,
    split_triplet_tiles,
)
from mra_sync.model import _max_asymmetry


def test_grid_block_position_bijection():
    grid = GridSpec(3, 5, 2, 2, 2)
    seen = set()
    for i in range(grid.n_blocks):
        pos = grid.block_position(i)
        assert grid.block_index(*pos) == i
        seen.add(pos)
    assert len(seen) == grid.n_blocks


def test_grid_block_lookups_take_integers_only():
    # block_position(1.5) gave (0.0, 1.5), block_position(True) gave (0, 1)
    # and block_index(0, 1.0) gave 1.0
    grid = GridSpec(3, 5, 2, 2, 2)
    for index in (1.5, 1.0, True, -1, 15):
        with pytest.raises(IndexError, match=r"block index .* out of range \[0, 15\)"):
            grid.block_position(index)
    for row, col in ((0, 1.0), (True, 0), (0.5, 1), (3, 0), (0, -1)):
        with pytest.raises(IndexError, match=r"lattice position .* out of range"):
            grid.block_index(row, col)
    assert grid.block_position(np.int64(7)) == (1, 2)
    assert grid.block_index(np.int32(1), 2) == 7


def test_grid_cell_positions_tile_contiguously():
    grid = GridSpec(2, 2, 3, 4, 2)
    pos = grid.cell_positions()
    # cell (r, c) of block at lattice (R, C) sits at (3R + r, 4C + c)
    assert pos.shape == (grid.n_blocks * grid.block_cells, 2)
    # block 3 is lattice (1, 1); its cell (2, 3) is the last row
    assert tuple(pos[3 * 12 + 2 * 4 + 3]) == (3 + 2, 4 + 3)
    # all 4*12 cells cover the 6x8 cell rectangle exactly once
    assert len({tuple(p) for p in pos}) == len(pos)
    assert pos[:, 0].max() == 5 and pos[:, 1].max() == 7


def test_grid_cell_positions_match_per_cell_loop():
    for grid in (GridSpec(2, 2, 3, 4, 2), GridSpec(1, 7, 2, 2, 3), GridSpec(3, 5, 1, 2, 2)):
        rows = []
        for i in range(grid.n_blocks):
            br, bc = grid.block_position(i)
            for r in range(grid.block_rows):
                for c in range(grid.block_cols):
                    rows.append((br * grid.block_rows + r, bc * grid.block_cols + c))
        expected = np.asarray(rows, dtype=float)
        pos = grid.cell_positions()
        assert pos.dtype == expected.dtype
        assert np.array_equal(pos, expected)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 2, 2, 2, 2)
    with pytest.raises(ValueError):
        GridSpec(2, 2, 2, 2, 1)


def test_kernel_validation():
    with pytest.raises(ValueError):
        KernelSpec(0.0)
    with pytest.raises(ValueError):
        KernelSpec(1.0, jitter=-1e-9)


def test_grid_requires_integer_sizes():
    for sizes in ((2.5, 2, 2, 2, 2), (2, 2, math.nan, 2, 2), (2, 2, 2, 2, 2.0), (True, 2, 2, 2, 2)):
        with pytest.raises(ValueError, match="integer"):
            GridSpec(*sizes)
    assert GridSpec(np.int64(2), 2, 2, 2, 2).n_blocks == 4


def test_kernel_rejects_nan_jitter():
    with pytest.raises(ValueError, match="jitter"):
        KernelSpec(1.0, jitter=math.nan)


def test_covariance_constant_kernel_limit():
    grid = GridSpec(2, 2, 2, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(1e8, jitter=1e-6))
    off = cov.matrix - np.diag(np.diag(cov.matrix))
    assert np.abs(off[off != 0] - 1.0).max() < 1e-10
    assert np.allclose(np.diag(cov.matrix), 1.0 + 1e-6)


def test_covariance_delta_kernel_limit():
    grid = GridSpec(2, 2, 2, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(1e-4, jitter=1e-9))
    assert np.allclose(cov.matrix, np.eye(cov.size) * (1.0 + 1e-9), atol=1e-300)


def test_covariance_default_geometry(default_grid, default_cov):
    assert default_cov.size == 432
    assert np.allclose(np.diag(default_cov.matrix), 1.0 + 1e-9)
    # independent kernel evaluation at a hand-picked pair: block 1 cell 0 is
    # at (0, 4); block 0 cell 0 at (0, 0); distance 4 cells
    expected = math.exp(-(4.0**2) / (2.0 * 25.0))
    assert default_cov.matrix[0, 12] == pytest.approx(expected, rel=1e-12)
    # SPD: construction already factorized it
    assert default_cov.cholesky().shape == (432, 432)


COVARIANCE_GRIDS = [
    GridSpec(6, 6, 3, 4, 2),
    GridSpec(1, 7, 2, 2, 3),
    GridSpec(1, 1, 3, 4, 2),
    GridSpec(4, 3, 2, 3, 2),
    GridSpec(12, 12, 3, 4, 2),  # N*D = 1728: several row chunks and symmetry tiles
]


@pytest.mark.parametrize("grid", COVARIANCE_GRIDS)
@pytest.mark.parametrize("length_scale", [5.0, 1.3])
def test_covariance_bit_equal_to_einsum_formula(grid, length_scale):
    # run_grid's clique tiles, and so the golden CSV, depend on every entry of
    # the matrix; log_prior_density depends on every entry of its factor
    kernel = KernelSpec(length_scale)
    pos = grid.cell_positions()
    diff = pos[:, None, :] - pos[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    expected = np.exp(-sq / (2.0 * kernel.length_scale**2))
    expected[np.diag_indices_from(expected)] += kernel.jitter
    cov = build_row_covariance(grid, kernel)
    assert np.array_equal(cov.matrix.view(np.int64), expected.view(np.int64))
    factor, info = lapack.dpotrf(expected, lower=1, clean=1)
    assert info == 0 and cov.cholesky().tobytes() == factor.tobytes()


@pytest.mark.parametrize("grid", COVARIANCE_GRIDS)
@pytest.mark.parametrize("length_scale", [5.0, 1.3])
def test_kronecker_root_squares_to_the_covariance(grid, length_scale):
    cov = build_row_covariance(grid, KernelSpec(length_scale))
    root = cov._root @ np.eye(cov.size)
    assert np.abs(root @ root.T - cov.matrix).max() <= 1e-13
    # the dense factor is taken on request only, and then kept
    assert cov._chol is None and cov.cholesky() is cov.cholesky()


def test_covariance_build_keeps_its_failure_semantics():
    # a constant kernel, and desk's kernel, without jitter: numerically singular
    for grid, length_scale in ((GridSpec(2, 2, 2, 2, 2), 1e8), (GridSpec(6, 6, 3, 4, 2), 5.0)):
        with pytest.raises(NotPositiveDefiniteError) as err:
            build_row_covariance(grid, KernelSpec(length_scale, jitter=0.0))
        assert 1 <= err.value.minor_index <= grid.n_blocks * grid.block_cells
    # a well-conditioned kernel needs no jitter, and its dense factor exists too
    build_row_covariance(GridSpec(6, 6, 3, 4, 2), KernelSpec(1.3, jitter=0.0)).cholesky()
    with pytest.raises(ValueError, match="not finite"):
        build_row_covariance(GridSpec(2, 2, 2, 2, 2), KernelSpec(3.0, jitter=math.inf))


@pytest.mark.parametrize("n", [1, 5, 511, 513, 1100])
def test_max_asymmetry_equals_dense_formula(n):
    m = np.random.default_rng(n).standard_normal((n, n))
    assert _max_asymmetry(m) == np.abs(m - m.T).max()
    symmetric = m + m.T
    assert _max_asymmetry(symmetric) == 0.0
    last = n - 1
    # asymmetry only in a tile of the far corner: the diagonal one and the corner pair
    for i, j in [(last, last - 1), (last, 0)] if n > 1 else []:
        bent = symmetric.copy()
        bent[i, j] += 0.5
        assert _max_asymmetry(bent) == np.abs(bent - bent.T).max() > 0.0
    nan_diagonal = symmetric.copy()
    nan_diagonal[last, last] = np.nan
    assert math.isnan(_max_asymmetry(nan_diagonal))


def test_covariance_rejects_asymmetry():
    m = np.eye(4)
    m[0, 1] = 1e-6
    with pytest.raises(ValueError):
        RowCovariance(m, 2)


def test_covariance_rejects_non_finite():
    # NaN compares false both ways, so only a check written to pass on good
    # values alone rejects it; an inf entry makes the symmetry scale inf
    asymmetric_inf = np.array([[1.0, np.inf], [0.0, 1.0]])
    for bad in (np.full((2, 2), np.nan), np.diag([1.0, np.inf]), asymmetric_inf):
        with pytest.raises(ValueError, match="not finite"):
            RowCovariance(bad, 1)


def test_covariance_rejects_non_integer_block_size():
    for block_size in (2.0, True, 0):
        with pytest.raises(ValueError, match="block_size must be an integer >= 1"):
            RowCovariance(np.eye(4), block_size)
    assert RowCovariance(np.eye(4), np.int64(2)).n_blocks == 2


def test_covariance_rejects_indefinite():
    m = np.eye(4)
    m[0, 0] = -1.0
    with pytest.raises(NotPositiveDefiniteError) as err:
        RowCovariance(m, 2)
    assert err.value.minor_index == 1


def test_subslice_block_diagonal_has_zero_cross_tiles():
    d = 3
    blocks = [np.eye(d) * (i + 1) for i in range(4)]
    m = np.zeros((4 * d, 4 * d))
    for i, b in enumerate(blocks):
        m[i * d : (i + 1) * d, i * d : (i + 1) * d] = b
    cov = RowCovariance(m, d)
    tiles = split_triplet_tiles(cov.submatrix((0, 1, 2)), d)
    assert np.all(tiles.ua == 0)
    assert np.all(tiles.ub == 0)
    assert np.all(tiles.uc == 0)
    assert np.allclose(tiles.u2, 2 * np.eye(d))


def test_subslice_identity():
    cov = RowCovariance(np.eye(12), 2)
    assert np.array_equal(cov.submatrix((0, 3, 5)), np.eye(6))


def test_subslice_positive_tiles_match_direct_kernel(default_grid, default_cov):
    sub = default_cov.submatrix((0, 1, 6))
    d = default_grid.block_cells
    assert sub.shape == (3 * d, 3 * d)
    tiles = split_triplet_tiles(sub, d)
    assert np.all(tiles.ua > 0) and np.all(tiles.ub > 0) and np.all(tiles.uc > 0)
    # independent reconstruction from cell coordinates
    pos = default_grid.cell_positions()
    idx = np.concatenate([np.arange(b * d, (b + 1) * d) for b in (0, 1, 6)])
    diff = pos[idx][:, None, :] - pos[idx][None, :, :]
    expected = np.exp(-np.sum(diff**2, axis=-1) / 50.0)
    expected[np.diag_indices_from(expected)] += 1e-9
    assert np.allclose(sub, expected, atol=1e-15)
    np.linalg.cholesky(sub)


def test_subslice_rejects_duplicates(default_cov):
    with pytest.raises(InvalidTripletError):
        default_cov.submatrix((0, 0, 1))


def test_subslice_rejects_float_bool_and_outside_indices(default_cov):
    # numpy's own indexing raises a bare IndexError for floats and reads True as block 1
    for blocks in ((0, 1.5), (0, 1.0), (0, np.float64(1)), (True, 0), (0, np.bool_(True))):
        with pytest.raises(InvalidTripletError, match="is not 2 integer block indices"):
            default_cov.submatrix(blocks)
    for blocks in ((0, default_cov.n_blocks), (-1, 0)):
        with pytest.raises(InvalidTripletError, match="out of range"):
            default_cov.submatrix(blocks)


def test_subslice_accepts_numpy_integer_indices(default_cov, rng):
    expected = default_cov.submatrix((4, 1, 6))
    for blocks in (np.array([4, 1, 6]), (np.int32(4), np.uint8(1), np.int64(6))):
        assert np.array_equal(default_cov.submatrix(blocks), expected)
    triple = rng.choice(default_cov.n_blocks, size=3, replace=False)
    assert np.array_equal(default_cov.submatrix(triple), default_cov.submatrix(triple.tolist()))


def test_block_tiles_is_a_view_of_the_matrix(default_cov):
    n, d = default_cov.n_blocks, default_cov.block_size
    for cov in (default_cov, RowCovariance(np.asfortranarray(default_cov.matrix), d)):
        tiles = cov.block_tiles()
        assert tiles.shape == (n, d, n, d)
        assert np.shares_memory(tiles, cov.matrix)
        assert np.array_equal(tiles[1, :, 6, :], cov.submatrix((1, 6))[:d, d:])


def test_subslice_random_triples_are_spd(default_cov, rng):
    for _ in range(10):
        triple = rng.choice(default_cov.n_blocks, size=3, replace=False)
        np.linalg.cholesky(default_cov.submatrix(triple))


def test_sample_channel_identity_covariance_is_standard_normal():
    cov = RowCovariance(np.eye(2), 1)
    rng = np.random.default_rng(7)
    draws = np.array(
        [sample_channel(cov, 1, np.random.default_rng(s)).stacked().ravel() for s in range(100000)]
    )
    pair_cov = np.cov(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(pair_cov) < 3.0 / math.sqrt(len(draws))
    assert abs(draws.var() - 1.0) < 0.02


def test_sample_channel_deterministic(default_cov):
    a = sample_channel(default_cov, 2, 42).stacked()
    b = sample_channel(default_cov, 2, 42).stacked()
    assert np.array_equal(a, b)


def test_sample_channel_draws_one_normal_per_entry(default_cov):
    # poses and noise are drawn after the channel, so their draws depend on this
    for cov in (default_cov, RowCovariance(np.eye(6), 2)):
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        sample_channel(cov, 2, rng)
        reference.standard_normal((cov.size, 2))
        assert rng.bit_generator.state == reference.bit_generator.state


def test_seeded_draws_do_not_depend_on_the_blas_thread_count():
    # a dense Cholesky factor changes in its last bits with the thread count
    script = (
        "import hashlib\n"
        "from mra_sync import GridSpec, KernelSpec, build_row_covariance, sample_channel\n"
        "for grid in (GridSpec(6, 6, 3, 4, 2), GridSpec(6, 6, 3, 4, 4)):\n"
        "    cov = build_row_covariance(grid, KernelSpec(5.0))\n"
        "    draw = sample_channel(cov, grid.antennas, 7).blocks\n"
        "    print(hashlib.sha256(draw.tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(mra_sync.__file__))
    digests = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        for threads in ("1", "2")
    ]
    assert len(digests[0]) == 2 and digests[0] == digests[1]


def test_sample_channel_rejects_bad_antennas():
    cov = RowCovariance(np.eye(4), 2)
    for antennas in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="antennas must be an integer >= 1"):
            sample_channel(cov, antennas, 0)


def test_sample_channel_empirical_covariance():
    grid = GridSpec(1, 2, 1, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(2.0))
    rng = np.random.default_rng(0)
    cols = np.hstack([sample_channel(cov, 2, rng).stacked() for _ in range(5000)])
    emp = cols @ cols.T / cols.shape[1]
    assert np.abs(emp - cov.matrix).max() < 0.1


def test_sample_pose_set_orthogonal_det_one(rng):
    for d in (2, 3, 5):
        poses = sample_pose_set(50, d, rng)
        for p in poses.poses:
            assert np.linalg.norm(p.T @ p - np.eye(d)) < 1e-10
            assert abs(np.linalg.det(p) - 1.0) < 1e-10


def test_sample_pose_set_angles_uniform():
    poses = sample_pose_set(100000, 2, np.random.default_rng(0))
    angles = np.array([math.atan2(p[1, 0], p[0, 0]) for p in poses.poses])
    p_value = stats.kstest(angles, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf).pvalue
    assert p_value > 0.01


def test_sample_pose_set_matches_per_pose_reference():
    # the batched sampler must reproduce one d x d draw per pose, QR with
    # the sign fix and the determinant fold, and leave the generator at the
    # same state
    for d in (3, 5):
        for seed in range(20):
            batched_rng = np.random.default_rng(seed)
            loop_rng = np.random.default_rng(seed)
            poses = sample_pose_set(7, d, batched_rng).poses
            assert len(poses) == 7
            for p in poses:
                q, r = np.linalg.qr(loop_rng.standard_normal((d, d)))
                sign = np.sign(np.diag(r))
                sign[sign == 0] = 1.0
                q = q * sign
                if np.linalg.det(q) < 0:
                    q[:, -1] = -q[:, -1]
                assert np.array_equal(p, q)
            assert batched_rng.standard_normal() == loop_rng.standard_normal()


def test_sample_pose_set_rejects_bad_sizes():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    cases = (
        (0, 2, "n_blocks"),
        (-3, 2, "n_blocks"),
        (4, 1, "antennas"),
        (2.5, 2, "n_blocks"),
        (True, 2, "n_blocks"),
        (3, 2.0, "antennas"),
    )
    for n_blocks, antennas, message in cases:
        with pytest.raises(ValueError, match=message):
            sample_pose_set(n_blocks, antennas, rng)
    assert rng.bit_generator.state == state


def test_pose_set_rejects_non_orthogonal():
    good = sample_pose_set(3, 3, np.random.default_rng(1)).poses
    scaled = good[1] * (1.0 + 1e-6)
    with pytest.raises(ValueError, match="not orthogonal"):
        PoseSet((good[0], scaled, good[2]))
    with pytest.raises(ValueError, match="not orthogonal"):
        PoseSet((good[0], np.full((3, 3), np.nan)))


def test_pose_set_rejects_reflection():
    good = sample_pose_set(3, 2, np.random.default_rng(2)).poses
    with pytest.raises(ValueError, match="determinant"):
        PoseSet((good[0], good[1], np.diag([1.0, -1.0])))


def test_pose_set_rejects_mixed_sizes_and_empty():
    with pytest.raises(ValueError, match="square with one common size"):
        PoseSet((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="square with one common size"):
        PoseSet((np.eye(2)[:, :1],))
    with pytest.raises(ValueError, match="at least one pose"):
        PoseSet(())


def test_channel_field_and_observations_reject_empty_and_ragged():
    for make in (ChannelField, lambda blocks: ObservationSet(blocks, 0.1)):
        with pytest.raises(ValueError, match="at least one block"):
            make(())
        with pytest.raises(ValueError, match="one common shape"):
            make((np.zeros((2, 2)), np.zeros((3, 2))))
        with pytest.raises(ValueError, match="one common shape"):
            make((np.zeros(2), np.zeros(2)))


def test_observations_reject_nan_sigma(rng):
    with pytest.raises(ValueError, match="noise_sigma"):
        ObservationSet(np.zeros((1, 2, 2)), math.nan)
    with pytest.raises(ValueError, match="sigma"):
        observe(ChannelField(np.zeros((1, 2, 2))), math.nan, rng)


def test_apply_precoding_identity_and_inverse(rng):
    grid = GridSpec(2, 2, 2, 3, 2)
    cov = build_row_covariance(grid, KernelSpec(2.0))
    channels = sample_channel(cov, 2, rng)
    eye_poses = sample_pose_set(4, 2, rng)
    eye_poses = type(eye_poses)(tuple(np.eye(2) for _ in range(4)))
    assert all(
        np.array_equal(a, b)
        for a, b in zip(apply_precoding(channels, eye_poses).blocks, channels.blocks)
    )
    poses = sample_pose_set(4, 2, rng)
    forward = apply_precoding(channels, poses)
    back = ChannelField(tuple(b @ p.T for b, p in zip(forward.blocks, poses.poses)))
    for a, b in zip(back.blocks, channels.blocks):
        assert np.abs(a - b).max() < 1e-12
    for a, b in zip(forward.blocks, channels.blocks):
        assert abs(np.linalg.norm(a) - np.linalg.norm(b)) < 1e-10


def test_observations_are_a_channel_field(rng):
    obs = observe(ChannelField(np.ones((3, 4, 2))), 0.5, rng)
    assert isinstance(obs, ChannelField)
    assert (obs.n_blocks, obs.block_shape, obs.noise_sigma) == (3, (4, 2), 0.5)
    assert obs.stacked().shape == (12, 2)


def test_observe_zero_noise_exact(rng):
    grid = GridSpec(2, 2, 2, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(2.0))
    channels = sample_channel(cov, 2, rng)
    obs = observe(channels, 0.0, rng)
    assert all(np.array_equal(a, b) for a, b in zip(obs.blocks, channels.blocks))


def test_observe_moments():
    grid = GridSpec(1, 2, 1, 2, 2)
    cov = build_row_covariance(grid, KernelSpec(2.0))
    channels = sample_channel(cov, 2, np.random.default_rng(5))
    sigma = 0.7
    rng = np.random.default_rng(11)
    deltas = []
    for _ in range(200):
        obs = observe(channels, sigma, rng)
        deltas.append(np.concatenate([(o - c).ravel() for o, c in zip(obs.blocks, channels.blocks)]))
    deltas = np.concatenate(deltas)
    n = deltas.size
    assert abs(deltas.mean()) < 3.0 * sigma / math.sqrt(n)
    assert abs(deltas.var() - sigma**2) < 0.02 * sigma**2


def test_log_prior_zero_matrix_identity_covariance():
    cov = RowCovariance(np.eye(6), 2)
    h = np.zeros((6, 3))
    expected = -0.5 * 3 * 6 * math.log(2 * math.pi)
    assert log_prior_density(h, cov) == pytest.approx(expected, rel=1e-12)


def test_log_prior_zero_matrix(default_cov):
    h = np.zeros((default_cov.size, 2))
    sign, logdet = np.linalg.slogdet(2 * np.pi * default_cov.matrix)
    assert sign > 0
    # LU-based slogdet and the Cholesky log-determinant only agree to solver
    # precision at this conditioning (~1e11), not to machine epsilon
    assert log_prior_density(h, default_cov) == pytest.approx(-0.5 * 2 * logdet, rel=1e-8)


def test_log_prior_scalar_case():
    cov = RowCovariance(np.array([[1.0]]), 1)
    value = log_prior_density(np.array([[2.0]]), cov)
    assert value == pytest.approx(-2.0 - 0.5 * math.log(2 * math.pi), rel=1e-12)


def test_log_prior_rotation_invariance(default_cov, rng):
    h = sample_channel(default_cov, 2, rng).stacked()
    base = log_prior_density(h, default_cov)
    for _ in range(10):
        q = sample_pose_set(1, 2, rng).poses[0]
        rotated = log_prior_density(h @ q, default_cov)
        assert abs(rotated - base) < 1e-8 * (1.0 + abs(base))
