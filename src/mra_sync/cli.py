"""Command-line front end: seeded sweeps, and demos that are one-seed sweeps.

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys

from .experiment import (
    ConfigError,
    _KEYS,
    _apply_settings,
    _run_seeds,
    default_config,
    emit_csv,
    emit_summary,
    load_config,
    run_sweep,
)


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
    """The settings given on the command line, as config key -> value text."""
    return {k: v for k, v in vars(args).items() if k in _KEYS and v is not None}


def _print_summary(rows) -> None:
    for s in emit_summary(rows):
        se = "" if s.single_seed else f" +- {s.se_nmse_db:.3f}"
        print(
            f"snr {s.snr_db:6.1f} dB  {s.method:20s} "
            f"nmse {s.mean_nmse_db:8.3f} dB{se}  (n={s.n})"
        )


def _run_sweep(args) -> int:
    config = load_config(args.config) if args.config else default_config()
    config = _apply_settings(config, _settings(args))
    rows = run_sweep(config)
    if config.output_path:
        emit_csv(rows, config.output_path)
        print(f"wrote {len(rows)} rows to {config.output_path}")
    _print_summary(rows)
    return 0


def _run_demo(args) -> int:
    config = _apply_settings(default_config(), _settings(args))
    _print_summary(_run_seeds(config, (args.seed,)))
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="mra-sync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a seeded SNR-by-method sweep")
    sweep.add_argument("--config", help="path to a key = value config file")
    for key, text in _SETTING_FLAGS.items():
        sweep.add_argument(f"--{key}", help=text)

    demo = sub.add_parser("demo", help="run the sweep on one seed and print its rows")
    demo.add_argument(
        "--snr", dest="snr_db", required=True, help="per-element SNR in dB (the snr_db setting)"
    )
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
