"""Closed-form references and a global rotation-search oracle.

The linear-MMSE error covariance gives two reference curves: the error under
ideal synchronization (all rotations known, the full covariance usable) and
the error of denoising each block in isolation.

The ideal line is computed from the spectrum of U, not from a dense solve:
the error covariance sigma^2 U (U + sigma^2 I)^{-1} shares U's eigenvectors,
so its trace is the sum of sigma^2 mu / (mu + sigma^2) over U's eigenvalues
mu. The squared-exponential kernel is separable and the cells of any grid
fill a full rectangle, so U is a permutation of K_rows (x) K_cols plus
jitter on the diagonal, and mu = max(lambda_r * lambda_c, 0) + jitter, the
Kronecker root's spectrum (the jitter shifts every eigenvalue alike; the
clip drops rounding negatives). The two 1-D eigenproblems cost
O(n_r^3 + n_c^3) instead of O((N*D)^3) per SNR. The
single-block line and the error covariance itself stay dense; their
matrices are D x D or clique-sized. The brute-force search is an
independent check of the triplet alternation for d = 2: a global grid over
one angle, with the other maximized in closed form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .model import CovarianceTiles, RowCovariance

__all__ = [
    "mmse_error_covariance",
    "ideal_sync_mse_db",
    "single_channel_mse_db",
    "brute_force_rotation_2d",
]


def mmse_error_covariance(sigma_x: np.ndarray, sigma: float) -> np.ndarray:
    """Error covariance of the linear MMSE estimate of X from X + sigma * noise.

    Computed in the stable form sigma^2 Sigma_X (Sigma_X + sigma^2 I)^{-1},
    which never inverts Sigma_X itself; equal to
    Sigma_X - Sigma_X (Sigma_X + sigma^2 I)^{-1} Sigma_X. Returns the zero
    matrix at sigma = 0.
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    n = sigma_x.shape[0]
    if sigma == 0:
        return np.zeros_like(sigma_x)
    try:
        factor = cho_factor(sigma_x + sigma**2 * np.eye(n), lower=True)
    except LinAlgError as exc:
        raise ValueError("Sigma_X + sigma^2 I is not positive definite") from exc
    err = sigma**2 * cho_solve(factor, sigma_x)
    return 0.5 * (err + err.T)


def ideal_sync_mse_db(cov: RowCovariance, sigma: float) -> float:
    """Per-element MSE (dB) of denoising with all rotations known.

    Returns 10 log10(mean(sigma^2 mu / (mu + sigma^2))) over the eigenvalues
    mu of U (``cov.eigenvalues()``, from the separable kernel's two 1-D
    spectra; see the module docstring). That is
    tr(mmse_error_covariance(U, sigma)) / (N*D) exactly. The antenna columns
    are i.i.d., so the column count cancels; sigma = 0 reports the
    perfect-observation sentinel -inf, and a negative or NaN sigma raises
    ValueError.
    """
    if not sigma >= 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return -math.inf
    mu = cov.eigenvalues()
    noise = sigma**2
    return 10.0 * math.log10(float(np.mean(noise * mu / (mu + noise))))


def single_channel_mse_db(cov_block: np.ndarray, sigma: float) -> float:
    """Per-element MSE (dB) of denoising one block in isolation."""
    cov_block = np.asarray(cov_block, dtype=float)
    if sigma == 0:
        return -math.inf
    err = mmse_error_covariance(cov_block, sigma)
    return 10.0 * math.log10(float(np.trace(err)) / cov_block.shape[0])


def _trace_and_twist(m: np.ndarray) -> tuple:
    # <R(phi), M>_F = cos(phi) * (m00 + m11) + sin(phi) * (m10 - m01)
    return m[0, 0] + m[1, 1], m[1, 0] - m[0, 1]


def brute_force_rotation_2d(
    b1, b2, b3, tiles: CovarianceTiles, resolution: float = 0.1
):
    """Global search over the triplet's two rotation angles, exact in theta13.

    For d = 2 and fixed theta12 the triplet objective is term1(theta12) +
    A cos(theta13) + B sin(theta13), maximal at theta13 = atan2(B, A). The
    profile term1 + hypot(A, B) is evaluated at every theta12 in [0, 360) at
    ``resolution`` degrees, with no local optimizer, and its grid maximizer
    is returned as (theta12_deg, theta13_deg, objective). An independent
    oracle for the triplet alternation; the cost is 360 / resolution evaluations.
    """
    if not resolution > 0:
        raise ValueError(f"resolution must be positive, got {resolution!r}")
    blocks = [np.asarray(b, dtype=float) for b in (b1, b2, b3)]
    shape = (tiles.ua.shape[0], 2)
    if any(b.shape != shape for b in blocks):
        shapes = [b.shape for b in blocks]
        raise ValueError(f"d = 2 only: expected three {shape} blocks, got {shapes}")
    b1, b2, b3 = blocks

    ta, wa = _trace_and_twist(b2.T @ tiles.ua.T @ b1)
    tb, wb = _trace_and_twist(b3.T @ tiles.ub.T @ b1)
    tc, wc = _trace_and_twist(b3.T @ tiles.uc.T @ b2)

    angles_deg = np.arange(0.0, 360.0, resolution)
    theta = np.deg2rad(angles_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    # with R21 = R(-theta12), R31 = R(-theta13):
    # term1 = cos(theta12) ta - sin(theta12) wa
    # term2 = cos(theta13) tb - sin(theta13) wb
    # term3 = cos(theta13 - theta12) tc - sin(theta13 - theta12) wc
    # and term2 + term3 = A cos(theta13) + B sin(theta13)
    a = tb + tc * cos_t + wc * sin_t
    b = tc * sin_t - wc * cos_t - wb
    profile = ta * cos_t - wa * sin_t + np.hypot(a, b)
    best = int(np.argmax(profile))
    theta13_deg = math.degrees(math.atan2(b[best], a[best])) % 360.0
    return float(angles_deg[best]), theta13_deg, float(profile[best])
