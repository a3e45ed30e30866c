"""Seeded SNR-by-method sweeps with CSV emission and aggregation.

A sweep samples the generative model once per (snr, seed) cell, runs every
requested estimator on the same observation, and records per-element
reconstruction error in dB against the true effective field. Closed-form
reference curves (ideal synchronization and per-block denoising) are emitted
as extra rows with seed -1.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from .graph import build_triplet_tiling
from .model import (
    GridSpec,
    KernelSpec,
    build_row_covariance,
    apply_precoding,
    observe,
    sample_channel,
    sample_pose_set,
)
from .oracle import ideal_sync_mse_db, single_channel_mse_db
from .sync import DEFAULT_REFINEMENT_ITERS, METHODS, SolverError, run_grid

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "SummaryRow",
    "ConfigError",
    "CSV_HEADER",
    "LINE_METHODS",
    "ALL_METHODS",
    "sigma_from_snr_db",
    "default_config",
    "parse_config_text",
    "load_config",
    "run_sweep",
    "emit_csv",
    "read_csv",
    "emit_summary",
]

LINE_METHODS = ("ideal_line", "single_channel_line")
ALL_METHODS = METHODS + LINE_METHODS

DEFAULT_SNR_DB = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)

# The config keys; the CLI's setting flags are some of these same keys.
_KEYS = frozenset(
    "grid block antennas lengthscale jitter snr_db seeds methods refinement_iters out".split()
)


class ConfigError(ValueError):
    """Invalid experiment configuration or config file."""


def sigma_from_snr_db(snr_db: float) -> float:
    """Noise scale for a per-element SNR in dB under unit signal power."""
    return 10.0 ** (-snr_db / 20.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs: problem geometry, noise grid, and methods."""

    grid: GridSpec
    kernel: KernelSpec
    snr_db_list: tuple = DEFAULT_SNR_DB
    seeds: int = 25
    methods: tuple = ALL_METHODS
    refinement_iters: int = DEFAULT_REFINEMENT_ITERS
    output_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.seeds, numbers.Integral) or self.seeds < 1:
            raise ConfigError(f"seeds must be an integer >= 1, got {self.seeds!r}")
        if not self.snr_db_list:
            raise ConfigError("snr_db_list must be non-empty")
        snr_db_list = tuple(float(s) for s in self.snr_db_list)
        # +inf is the noiseless limit (sigma = 0); NaN and -inf give no usable sigma.
        if not all(s > -math.inf for s in snr_db_list):
            raise ConfigError(f"snr_db values must be numbers or +inf, got {snr_db_list}")
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; expected {ALL_METHODS}")
        repeated = [m for m, count in Counter(self.methods).items() if count > 1]
        if repeated:
            raise ConfigError(f"methods {repeated} are listed more than once")
        if not isinstance(self.refinement_iters, numbers.Integral) or self.refinement_iters < 0:
            raise ConfigError(
                f"refinement_iters must be an integer >= 0, got {self.refinement_iters!r}"
            )
        object.__setattr__(self, "snr_db_list", snr_db_list)
        object.__setattr__(self, "methods", tuple(self.methods))


def default_config(**overrides) -> ExperimentConfig:
    """The desk-scale default: 6x6 blocks of 3x4 cells, d = 2, length scale 5."""
    config = ExperimentConfig(
        grid=GridSpec(6, 6, 3, 4, 2),
        kernel=KernelSpec(length_scale=5.0),
    )
    return replace(config, **overrides) if overrides else config


@dataclass(frozen=True)
class ResultRow:
    """One (snr, method, seed) measurement; closed-form lines use seed -1."""

    snr_db: float
    method: str
    seed: int
    nmse_db: float
    rel_improvement_db: float
    wall_ms: float


# The CSV columns are ResultRow's fields, in order; read_csv parses each by its type.
_CSV_COLUMNS = fields(ResultRow)
_CSV_TYPES = tuple(get_type_hints(ResultRow)[f.name] for f in _CSV_COLUMNS)
CSV_HEADER = ",".join(f.name for f in _CSV_COLUMNS)


@dataclass(frozen=True)
class SummaryRow:
    """Per-(snr, method) aggregate of nmse_db over seeds."""

    snr_db: float
    method: str
    mean_nmse_db: float
    se_nmse_db: float
    n: int
    single_seed: bool


def _parse_pair(text: str, key: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"{key} must look like '<a>x<b>', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"{key} components must be integers: {text!r}") from exc


def _read_settings(text: str) -> dict:
    """The 'key = value' lines of a config text as a dict; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().lower()
        if key in values:
            raise ConfigError(f"line {lineno}: key {key!r} is already set")
        values[key] = val.strip()
    unknown = sorted(set(values) - _KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return values


def _apply_settings(config: ExperimentConfig, values: dict) -> ExperimentConfig:
    """``config`` with each given setting (config key -> value text) parsed onto it.

    This is the one parser of settings: config files and CLI flags both go
    through it. A value that does not parse, or that the config classes
    reject, raises ConfigError.
    """
    grid, kernel, fields = {}, {}, {}
    try:
        if "grid" in values:
            grid["height_blocks"], grid["width_blocks"] = _parse_pair(values["grid"], "grid")
        if "block" in values:
            grid["block_rows"], grid["block_cols"] = _parse_pair(values["block"], "block")
        if "antennas" in values:
            grid["antennas"] = int(values["antennas"])
        if "lengthscale" in values:
            kernel["length_scale"] = float(values["lengthscale"])
        if "jitter" in values:
            kernel["jitter"] = float(values["jitter"])
        if "snr_db" in values:
            fields["snr_db_list"] = tuple(float(s) for s in values["snr_db"].split(","))
        if "seeds" in values:
            fields["seeds"] = int(values["seeds"])
        if "methods" in values:
            fields["methods"] = tuple(m.strip() for m in values["methods"].split(",") if m.strip())
        if "refinement_iters" in values:
            fields["refinement_iters"] = int(values["refinement_iters"])
        if "out" in values:
            fields["output_path"] = values["out"]
        return replace(
            config,
            grid=replace(config.grid, **grid),
            kernel=replace(config.kernel, **kernel),
            **fields,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse a plain-text 'key = value' config into an ExperimentConfig.

    Recognized keys: grid (HxW), block (RxC), antennas, lengthscale, jitter,
    snr_db (comma list), seeds, methods (comma list), refinement_iters, out.
    Unknown or repeated keys are rejected; omitted keys keep their defaults.
    The CLI's setting flags, ``demo --snr`` included, are these same keys and
    go through the same parser and checks.
    """
    return _apply_settings(default_config(), _read_settings(text))


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def run_sweep(config: ExperimentConfig) -> list:
    """Run the full (snr, seed, method) sweep over seeds 0 .. config.seeds - 1.

    Seed s always uses its own fresh RNG stream, so a cell's data depends
    only on (grid, kernel, snr, seed); the CLI's ``demo`` is this sweep over
    one given seed. Estimator failures of the typed kinds (SolverError, and
    ValueError, which covers CoverageError, NotPositiveDefiniteError and
    InvalidTripletError) are recorded as NaN rows rather than aborting the
    sweep; any other exception propagates. Each SNR ends with the requested
    closed-form lines.
    """
    return _run_seeds(config, range(config.seeds))


def _run_seeds(config: ExperimentConfig, seeds) -> list:
    """The rows of ``run_sweep`` for the given seed ids instead of ``range(config.seeds)``."""
    cov = build_row_covariance(config.grid, config.kernel)
    tiling = build_triplet_tiling(config.grid)
    d_cells = config.grid.block_cells
    cov_block = cov.matrix[:d_cells, :d_cells]
    estimators = [m for m in config.methods if m in METHODS]

    rows = []
    for snr_db in config.snr_db_list:
        sigma = sigma_from_snr_db(snr_db)
        single_db = single_channel_mse_db(cov_block, sigma)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            channels = sample_channel(cov, config.grid.antennas, rng)
            poses = sample_pose_set(config.grid.n_blocks, config.grid.antennas, rng)
            effective = apply_precoding(channels, poses)
            obs = observe(effective, sigma, rng)
            for method in estimators:
                start = time.perf_counter()
                try:
                    report = run_grid(
                        method,
                        obs,
                        cov,
                        config.grid,
                        tiling,
                        ground_truth=effective,
                        refinement_iters=config.refinement_iters,
                    )
                    nmse_db = report.nmse_db
                except (SolverError, ValueError):
                    nmse_db = math.nan
                wall_ms = (time.perf_counter() - start) * 1e3
                rows.append(
                    ResultRow(
                        snr_db=snr_db,
                        method=method,
                        seed=seed,
                        nmse_db=nmse_db,
                        rel_improvement_db=nmse_db - single_db,
                        wall_ms=wall_ms,
                    )
                )
        if "ideal_line" in config.methods:
            ideal_db = ideal_sync_mse_db(cov, sigma)
            rows.append(
                ResultRow(snr_db, "ideal_line", -1, ideal_db, ideal_db - single_db, 0.0)
            )
        if "single_channel_line" in config.methods:
            rows.append(
                ResultRow(snr_db, "single_channel_line", -1, single_db, 0.0, 0.0)
            )
    return rows


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_csv(rows, path: str) -> None:
    """Write rows sorted by (snr_db, method, seed) with 6-significant-digit floats."""
    ordered = sorted(rows, key=lambda r: (r.snr_db, r.method, r.seed))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in ordered:
                values = (_format_value(getattr(r, f.name)) for f in _CSV_COLUMNS)
                fh.write(",".join(values) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path: str) -> list:
    """Parse a CSV produced by emit_csv back into ResultRow values.

    A row that does not hold one parsable value per column raises
    ``ValueError`` naming the file and line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        values = line.split(",")
        if len(values) != len(_CSV_TYPES):
            raise ValueError(
                f"{path} line {lineno}: expected {len(_CSV_TYPES)} fields, got {len(values)}"
            )
        try:
            rows.append(ResultRow(*(kind(v) for kind, v in zip(_CSV_TYPES, values))))
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from exc
    return rows


def emit_summary(rows) -> list:
    """Aggregate nmse_db per (snr, method): mean, standard error, and count.

    Standard error is the sample standard deviation over seeds divided by
    sqrt(n); single-row groups report SE 0 and are flagged.
    """
    groups = {}
    for r in rows:
        groups.setdefault((r.snr_db, r.method), []).append(r.nmse_db)
    out = []
    for (snr_db, method), values in sorted(groups.items()):
        arr = np.asarray(values, dtype=float)
        n = len(arr)
        se = float(np.std(arr, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        out.append(
            SummaryRow(
                snr_db=snr_db,
                method=method,
                mean_nmse_db=float(arr.mean()),
                se_nmse_db=se,
                n=n,
                single_seed=n == 1,
            )
        )
    return out
