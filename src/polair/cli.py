"""Command-line front end.

Subcommands:

* ``capacity``  -- print the perfect-CSI capacity for given n and SNR.
* ``sweep``     -- a named experiment (fig2, fig3a, fig3b, fig4, error_cov),
                   written as CSV.
* ``error-cov`` -- ``sweep --experiment error_cov``: each estimator's Corollary-4
                   bound and per-DOF error E2 = tr(R_E) / (n * dof) as CSV; one
                   grid point and one ``--estimator`` give one setting.

Each sweep flag's ``dest`` is the config field it sets, and its value is
parsed as that field's config-file entry is
(:func:`~polair.experiments.parse_config_value`), so ``--L 4,8`` and
``L_grid = 4,8`` give the same configuration; flags override ``--config``
file entries. A value that starts with a minus sign is joined to its flag
with ``=``, as in ``--eta-db=-2,4``: argparse takes a separate ``-2,4``
for a flag.

Exit codes: 0 success, 2 bad flags, 3 configuration violations (including
a ``--config`` file that is missing or not UTF-8 text, unparsable values,
empty list items, SNRs outside [-10, 40] dB or E2 values outside [0, 1],
NaN and inf among them, repeated grid values or estimator kinds, an E2
grid outside fig2, an L grid or estimator list for fig2, an empty L grid or
estimator list elsewhere, a discrete input for fig2 or error_cov or with
n != 2 or fewer than 1000 trials, and n < 2), 4 numerical failure
(including any value the numeric core rejects that the configuration
checks let through, and an array too large to allocate).
The rules on n, the pilot lengths, a discrete input, the trials and the
estimator kinds are the numeric core's own checks: the configuration check
(:meth:`~polair.experiments.ExperimentConfig.validate`) and ``capacity`` run
them and report their messages with exit 3.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .air import capacity_perfect
from .channel import check_dimension
from .estimators import ESTIMATOR_KINDS
from .experiments import (
    CSV_SCHEMA_VERSION,
    EXPERIMENTS,
    INPUT_KINDS,
    ConfigError,
    ExperimentConfig,
    config_from_text,
    default_config,
    eta_from_db,
    parse_config_value,
    run_experiment,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
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
    p_cap.set_defaults(handler=_cmd_capacity)

    for name, help_text, experiment in (
        ("error-cov", "error-covariance sweep (CSV)", "error_cov"),
        ("sweep", "run a named experiment sweep (CSV)", None),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=_cmd_sweep, experiment=experiment)
        if name == "sweep":
            p.add_argument("--experiment", choices=EXPERIMENTS)
        p.add_argument("--config", help="key=value config file; flags override its entries")
        p.add_argument("--eta-db", dest="eta_db_grid", help="comma-separated SNR grid in dB; write --eta-db=-2,4 when it starts below 0")
        p.add_argument("--L", dest="L_grid", help="comma-separated pilot-length grid")
        p.add_argument("--E2", dest="E2_grid", help="comma-separated per-DOF error grid (fig2)")
        p.add_argument("--input", choices=INPUT_KINDS)
        p.add_argument("--estimator", dest="estimators", help=f"comma-separated subset of {','.join(ESTIMATOR_KINDS)}")
        p.add_argument("--trials")
        p.add_argument("--seed", dest="master_seed")
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


def _cmd_capacity(args: argparse.Namespace) -> int:
    try:
        check_dimension(args.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    est = capacity_perfect(args.n, eta_from_db(args.eta_db))
    print(f"{est.value:.4f} bits/symbol")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8 text: {exc}") from exc
        config = config_from_text(text)
        if args.experiment and config.experiment != args.experiment:
            raise ConfigError(f"config file experiment {config.experiment!r} does not match {args.experiment!r}")
    elif args.experiment:
        config = default_config(args.experiment)
    else:
        raise ConfigError("sweep requires --experiment or --config")
    overrides = {
        f.name: parse_config_value(f.name, getattr(args, f.name))
        for f in fields(ExperimentConfig)
        if getattr(args, f.name, None) is not None
    }
    config = replace(config, **overrides)
    result = run_experiment(config)
    default_path = Path("out") / f"{config.experiment}-{config.master_seed}.csv"
    _write_text(args.out, default_path, result.to_csv_string())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except (np.linalg.LinAlgError, ArithmeticError, ValueError, MemoryError) as exc:
        return _fail(f"numerical failure: {exc}", EXIT_NUMERICAL)
    except OSError as exc:
        return _fail(str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
