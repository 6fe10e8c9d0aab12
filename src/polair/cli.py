"""Command-line front end.

Subcommands:

* ``capacity``  -- print the perfect-CSI capacity for given n and SNR.
* ``error-cov`` -- the error-statistics sweep, written as CSV: each estimator's
                   Corollary-4 bound and per-DOF error E2 = tr(R_E) / (n * dof);
                   one grid point and one ``--estimator`` give one setting.
* ``sweep``     -- a named figure experiment (fig2, fig3a, fig3b, fig4),
                   written as CSV.

Each sweep flag sets one config field and is parsed as that field's
config-file entry is (:func:`~polair.experiments.parse_config_value`), so
``--L 4,8`` and ``L_grid = 4,8`` give the same configuration; flags
override ``--config`` file entries. A value that starts with a minus sign
is joined to its flag with ``=``, as in ``--eta-db=-2,4``: argparse takes
a separate ``-2,4`` for a flag.

Exit codes: 0 success, 2 bad flags, 3 configuration violations (including
unparsable values, empty list items, non-finite grid values, SNRs outside
[-10, 40] dB, E2 values outside [0, 1], repeated grid values or estimator
kinds, an E2 grid outside fig2, a discrete input for fig2 or error_cov or
with n != 2 or fewer than 1000 trials, and n < 2), 4 numerical failure
(including any value the numeric core rejects that the configuration
checks let through, and an array too large to allocate).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .air import capacity_perfect
from .estimators import ESTIMATOR_KINDS
from .experiments import (
    CSV_SCHEMA_VERSION,
    EXPERIMENTS,
    INPUT_KINDS,
    ConfigError,
    check_eta_db,
    config_from_text,
    default_config,
    parse_config_value,
    run_experiment,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polair",
        description="Capacity and achievable information rates of unitary MIMO-AWGN channels.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"polair {__version__} (csv-schema {CSV_SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_cap = sub.add_parser("capacity", help="perfect-CSI capacity in bits/symbol")
    p_cap.add_argument("--n", type=int, default=2, help="channel dimension (default 2)")
    p_cap.add_argument("--eta-db", type=float, required=True, help="per-channel SNR in dB")

    for name, help_text in (
        ("error-cov", "error-covariance sweep (CSV)"),
        ("sweep", "run a named experiment sweep (CSV)"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "sweep":
            p.add_argument("--experiment", choices=[e for e in EXPERIMENTS if e != "error_cov"])
        p.add_argument("--config", help="key=value config file; flags override its entries")
        p.add_argument("--eta-db", help="comma-separated SNR grid in dB; write --eta-db=-2,4 when it starts below 0")
        p.add_argument("--L", help="comma-separated pilot-length grid")
        p.add_argument("--E2", help="comma-separated per-DOF error grid (fig2)")
        p.add_argument("--input", choices=INPUT_KINDS)
        p.add_argument("--estimator", help=f"comma-separated subset of {','.join(ESTIMATOR_KINDS)}")
        p.add_argument("--trials")
        p.add_argument("--seed")
        p.add_argument("--out", help="output path, - for stdout (default ./out/<experiment>-<seed>.csv)")
    return parser


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_text(out: str | None, default_path: Path, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    path = Path(out) if out else default_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


# Each sweep flag and the config field it sets.
_FLAG_FIELDS = {
    "eta_db": "eta_db_grid",
    "L": "L_grid",
    "E2": "E2_grid",
    "input": "input",
    "estimator": "estimators",
    "trials": "trials",
    "seed": "master_seed",
}


def _build_sweep_config(args: argparse.Namespace, experiment: str):
    if args.config:
        config = config_from_text(Path(args.config).read_text())
        if experiment and config.experiment != experiment:
            raise ConfigError(
                f"config file experiment {config.experiment!r} does not match {experiment!r}"
            )
    else:
        config = default_config(experiment)
    overrides = {
        name: parse_config_value(name, getattr(args, flag))
        for flag, name in _FLAG_FIELDS.items()
        if getattr(args, flag) is not None
    }
    return replace(config, **overrides)


def _cmd_capacity(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise ConfigError(f"--n must be >= 2, got {args.n}")
    check_eta_db(args.eta_db)
    est = capacity_perfect(args.n, 10.0 ** (args.eta_db / 10.0))
    print(f"{est.value:.4f} bits/symbol")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, experiment: str) -> int:
    if not experiment and not args.config:
        raise ConfigError("sweep requires --experiment or --config")
    config = _build_sweep_config(args, experiment)
    result = run_experiment(config)
    default_path = Path("out") / f"{config.experiment}-{config.master_seed}.csv"
    _write_text(args.out, default_path, result.to_csv_string())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "capacity":
            return _cmd_capacity(args)
        if args.subcommand == "error-cov":
            return _cmd_sweep(args, "error_cov")
        if args.subcommand == "sweep":
            return _cmd_sweep(args, args.experiment or "")
        raise ConfigError(f"unknown subcommand {args.subcommand!r}")
    except ConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except (np.linalg.LinAlgError, ArithmeticError, ValueError, MemoryError) as exc:
        return _fail(f"numerical failure: {exc}", EXIT_NUMERICAL)
    except OSError as exc:
        return _fail(str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
