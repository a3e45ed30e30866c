"""Command-line front end: seeded sweeps and single-instance demos.

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiment import (
    ConfigError,
    _apply_settings,
    default_config,
    emit_csv,
    emit_summary,
    load_config,
    run_sweep,
    sigma_from_snr_db,
)
from .model import (
    apply_precoding,
    build_row_covariance,
    observe,
    sample_channel,
    sample_pose_set,
)
from .oracle import ideal_sync_mse_db, single_channel_mse_db
from .sync import METHODS, run_grid


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; route those through
    # ConfigError so bad invocations land on exit code 1.
    def error(self, message):
        raise ConfigError(message)


# Setting flags: each is the config key of the same name and takes the same
# text, so both reach ExperimentConfig through one parser.
_SETTING_FLAGS = {
    "grid": "lattice size as HxW blocks",
    "block": "block size as RxC cells",
    "antennas": "antenna count d",
    "lengthscale": "kernel length scale (cells)",
    "seeds": "number of random seeds",
    "out": "CSV output path",
}
_DEMO_FLAGS = ("grid", "block", "antennas", "lengthscale")


def _settings(args) -> dict:
    """The setting flags given on the command line, as config key -> value text."""
    return {k: v for k, v in vars(args).items() if k in _SETTING_FLAGS and v is not None}


def _run_sweep(args) -> int:
    config = load_config(args.config) if args.config else default_config()
    config = _apply_settings(config, _settings(args))
    rows = run_sweep(config)
    if config.output_path:
        emit_csv(rows, config.output_path)
        print(f"wrote {len(rows)} rows to {config.output_path}")
    for s in emit_summary(rows):
        se = "" if s.single_seed else f" +- {s.se_nmse_db:.3f}"
        print(
            f"snr {s.snr_db:6.1f} dB  {s.method:20s} "
            f"nmse {s.mean_nmse_db:8.3f} dB{se}  (n={s.n})"
        )
    return 0


def _run_demo(args) -> int:
    config = _apply_settings(default_config(), _settings(args))
    grid, kernel = config.grid, config.kernel
    sigma = sigma_from_snr_db(args.snr)
    cov = build_row_covariance(grid, kernel)

    rng = np.random.default_rng(args.seed)
    channels = sample_channel(cov, grid.antennas, rng)
    poses = sample_pose_set(grid.n_blocks, grid.antennas, rng)
    effective = apply_precoding(channels, poses)
    obs = observe(effective, sigma, rng)

    print(
        f"grid {grid.height_blocks}x{grid.width_blocks} blocks of "
        f"{grid.block_rows}x{grid.block_cols} cells, d={grid.antennas}, "
        f"lengthscale {kernel.length_scale}, snr {args.snr:.1f} dB, seed {args.seed}"
    )
    for method in METHODS:
        report = run_grid(
            method,
            obs,
            cov,
            grid,
            ground_truth=effective,
            refinement_iters=config.refinement_iters,
        )
        print(f"  {method:12s} nmse {report.nmse_db:8.3f} dB")
    d_cells = grid.block_cells
    print(f"  {'ideal':12s} nmse {ideal_sync_mse_db(cov, sigma):8.3f} dB (closed form)")
    print(
        f"  {'single':12s} nmse "
        f"{single_channel_mse_db(cov.matrix[:d_cells, :d_cells], sigma):8.3f} dB "
        f"(closed form)"
    )
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="mra-sync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a seeded SNR-by-method sweep")
    sweep.add_argument("--config", help="path to a key = value config file")
    for key, text in _SETTING_FLAGS.items():
        sweep.add_argument(f"--{key}", help=text)

    demo = sub.add_parser("demo", help="run one seeded instance and print metrics")
    demo.add_argument("--snr", type=float, required=True, help="per-element SNR in dB")
    demo.add_argument("--seed", type=int, default=0, help="RNG seed")
    for key in _DEMO_FLAGS:
        demo.add_argument(f"--{key}", help=_SETTING_FLAGS[key])

    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_demo(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
