"""Named, reproducible sweeps over SNR, pilot length and error level.

Every experiment walks one grid, SNR crossed with a second axis: the error
level E2 for fig2 and the pilot length L for the others. The table
``_EXPERIMENTS`` gives each experiment's list fields (grid axis first; a
list it does not read must be empty), row function, inputs and defaults.
:func:`run_experiment` runs the row function at every grid point and
collects one row per (grid point, estimator or error model).
Randomness comes per grid point from ``numpy.random.SeedSequence`` spawn
keys of the master seed, then per trial block (:func:`~polair.linalg.mc_blocks`):
a configuration gives byte-identical results in any evaluation order.

Experiments:

* ``fig2``     -- Gaussian-input average AIR vs SNR for fixed per-DOF
                  error levels: the general (nonunitary) synthetic error
                  model by Monte Carlo, the unitary one in closed form.
* ``fig3a``    -- Gaussian-input AIR vs SNR for the LS and Kabsch pilot
                  estimators (shared draws), against the perfect-CSI capacity.
* ``fig3b``    -- same comparison with uniformly distributed DP-16-QAM
                  inputs, against the perfect-CSI mutual information.
* ``fig4``     -- information gap vs pilot length: the fig3 rates on an
                  (SNR, pilot length) grid.
* ``error_cov``-- each pilot estimator's Corollary-4 bound and per-DOF error.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .air import (
    LN2,
    MIN_DISCRETE_TRIALS,
    MIN_TRIALS,
    AirEstimate,
    air_corollary4,
    air_corollary4_paired_mc,
    air_discrete_paired_mc,
    air_gaussian_paired_mc,
    air_synthetic_mc,
    capacity_perfect,
)
from .channel import CONSTELLATION_KINDS, check_constellation_args, check_dimension, check_pilot_args, make_constellation
from .estimators import ESTIMATOR_KINDS, UNITARY_KINDS, get_estimator
from .linalg import check_trials

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SweepRow",
    "SweepResult",
    "EXPERIMENTS",
    "INPUT_KINDS",
    "CSV_SCHEMA_VERSION",
    "CSV_COLUMNS",
    "eta_from_db",
    "default_config",
    "run_experiment",
    "config_to_text",
    "config_from_text",
    "parse_config_value",
]

INPUT_KINDS = ("gaussian", *CONSTELLATION_KINDS)

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = (
    "experiment",
    "estimator",
    "input",
    "eta_db",
    "L",
    "E2",
    "air_bits",
    "air_stderr",
    "capacity_bits",
    "gap_bits",
    "trials",
    "seed",
)


class ConfigError(ValueError):
    """An experiment configuration violates its constraints."""


def eta_from_db(eta_db: float) -> float:
    """The per-channel SNR 10^(eta_db/10) of an SNR in dB; one outside [-10, 40], or NaN, is a :class:`ConfigError`."""
    if not -10.0 <= eta_db <= 40.0:
        raise ConfigError(f"eta_db values must lie in [-10, 40], got {eta_db!r}")
    return 10.0 ** (eta_db / 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    eta_db_grid: tuple[float, ...]
    L_grid: tuple[int, ...] = ()
    # Per-DOF error levels in [0, 1], read by fig2 only (see _EXPERIMENTS). At
    # E2 = 1 the synthetic error already has 2 n^2 times the power of a channel
    # entry; the paper's largest level is 1e-1.
    E2_grid: tuple[float, ...] = ()
    input: str = "gaussian"
    estimators: tuple[str, ...] = ()
    trials: int = 10_000
    master_seed: int = 0
    n: int = 2

    def validate(self) -> None:
        """Raise :class:`ConfigError` unless the sweep can run.

        The rules on n, the pilot lengths, a discrete input, the trials and
        the estimator kinds are the numeric core's own checks, run here with
        their messages. The rest are the configuration's policies.
        """
        spec = _experiment(self.experiment)
        if len(self.eta_db_grid) == 0:
            raise ConfigError("eta_db_grid must be non-empty")
        for name in ("L_grid", "E2_grid", "estimators"):
            if name in spec.reads and not getattr(self, name):
                raise ConfigError(f"{self.experiment} requires a non-empty {name}")
            if name not in spec.reads and getattr(self, name):
                raise ConfigError(f"{self.experiment} does not read {name}; leave it empty")
        for eta_db in self.eta_db_grid:
            eta_from_db(eta_db)
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if self.input not in spec.inputs:
            raise ConfigError(f"{self.experiment} takes input {', '.join(spec.inputs)}; got {self.input!r}")
        try:
            check_trials(self.trials, MIN_TRIALS if self.input == "gaussian" else MIN_DISCRETE_TRIALS)
            check_dimension(self.n)  # fig2 has no L grid
            if self.input != "gaussian":
                check_constellation_args(self.input, self.n)
            for L in self.L_grid:
                check_pilot_args(self.n, L)
            for kind in self.estimators:
                get_estimator(kind)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name in ("eta_db_grid", "L_grid", "E2_grid", "estimators"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat a value, got {','.join(map(str, values))}")
        if any(not (0.0 <= e <= 1.0) for e in self.E2_grid):
            raise ConfigError("E2 values must lie in [0, 1]")


@dataclass(frozen=True)
class SweepRow:
    """One CSV row; the experiment and input columns come from the config."""

    estimator: str  # estimator kind or synthetic error model name
    eta_db: float
    L: int
    E2: float
    air: AirEstimate
    reference_capacity: float

    @property
    def gap(self) -> float:
        return self.reference_capacity - self.air.value


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    rows: tuple[SweepRow, ...] = field(repr=False)

    def to_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in self.rows:
            writer.writerow(
                [
                    self.config.experiment,
                    row.estimator,
                    self.config.input,
                    repr(float(row.eta_db)),
                    row.L,
                    repr(float(row.E2)),
                    repr(float(row.air.value)),
                    repr(float(row.air.std_error)),
                    repr(float(row.reference_capacity)),
                    repr(float(row.gap)),
                    row.air.trials,
                    self.config.master_seed,
                ]
            )

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def _substream(config: ExperimentConfig, *key: int) -> np.random.Generator:
    """Deterministic per-grid-point stream from (seed, experiment, indices)."""
    spawn_key = (EXPERIMENTS.index(config.experiment),) + tuple(key)
    return np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=spawn_key))


def _fig2_rows(config: ExperimentConfig, eta_db: float, eta: float, e2: float, rng: np.random.Generator) -> list[SweepRow]:
    """Gaussian-input AIR at one SNR under one synthetic per-DOF error level.

    The general error model is averaged by Monte Carlo over random error
    draws (:func:`~polair.air.air_synthetic_mc`); the unitary model is the
    closed form with tr(R_E) = n^3 * E2.
    """
    n = config.n
    cap = capacity_perfect(n, eta).value
    general = air_synthetic_mc(n, e2, eta, config.trials, rng)
    unitary = air_corollary4(n, eta, n**3 * e2)
    return [SweepRow(name, eta_db, 0, e2, est, cap) for name, est in (("general", general), ("unitary", unitary))]


def _rate_rows(config: ExperimentConfig, eta_db: float, eta: float, L: int, rng: np.random.Generator) -> list[SweepRow]:
    """AIR and information gap of the pilot-based estimators at one (SNR, pilot length).

    Serves fig3a and fig3b (AIR vs SNR at a fixed pilot length) and fig4
    (gap vs pilot length at a few SNRs); all estimators share the draws.
    """
    n = config.n
    if config.input == "gaussian":
        estimates = air_gaussian_paired_mc(n, eta, L, config.trials, rng, kinds=config.estimators)
        reference = capacity_perfect(n, eta).value
    else:
        constellation = make_constellation(config.input, n)
        estimates = air_discrete_paired_mc(constellation, eta, L, config.trials, rng, kinds=config.estimators)
        reference = estimates["perfect"].value
    return [SweepRow(kind, eta_db, L, 0.0, estimates[kind], reference) for kind in config.estimators]


def _error_cov_rows(config: ExperimentConfig, eta_db: float, eta: float, L: int, rng: np.random.Generator) -> list[SweepRow]:
    """Estimation-error statistics per estimator at one (SNR, pilot length).

    Both estimators see the same noise draws. The air column is the mean of
    the per-trial unitary-estimate bounds n log2(1+eta) - eta ||E_t||_F^2/ln 2
    over ``config.trials`` trials (:func:`~polair.air.air_corollary4_paired_mc`),
    with their standard error; its mean is n log2(1+eta) - eta tr(R_E)/ln 2.
    The E2 column is the per-DOF error tr(R_E)/(n * dof) that follows from it.
    """
    n = config.n
    cap = capacity_perfect(n, eta).value
    estimates = air_corollary4_paired_mc(n, eta, L, config.trials, rng, kinds=config.estimators)
    rows = []
    for kind in config.estimators:
        air = estimates[kind]
        dof = n * n if kind in UNITARY_KINDS else 2 * n * n
        rows.append(SweepRow(kind, eta_db, L, (cap - air.value) * LN2 / (eta * n * dof), air, cap))
    return rows


@dataclass(frozen=True)
class _Experiment:
    reads: tuple[str, ...]  # the list fields the rows read, grid axis first
    rows: Callable[[ExperimentConfig, float, float, float, np.random.Generator], list[SweepRow]]  # (config, eta_db, eta, value, rng)
    inputs: tuple[str, ...]
    defaults: dict  # the ExperimentConfig fields the experiment sets, every list it reads among them


# The order is part of every substream's spawn key: append, never reorder.
_EXPERIMENTS = {
    "fig2": _Experiment(
        ("E2_grid",), _fig2_rows, ("gaussian",),
        dict(eta_db_grid=tuple(float(e) for e in range(0, 21)), E2_grid=(1e-3, 1e-2, 1e-1)),
    ),
    "fig3a": _Experiment(
        ("L_grid", "estimators"), _rate_rows, INPUT_KINDS,
        dict(eta_db_grid=tuple(float(e) for e in range(-2, 21)), L_grid=(8,), estimators=ESTIMATOR_KINDS),
    ),
    "fig3b": _Experiment(
        ("L_grid", "estimators"), _rate_rows, CONSTELLATION_KINDS,
        dict(
            eta_db_grid=tuple(float(e) for e in range(-2, 21, 2)), L_grid=(8,), estimators=ESTIMATOR_KINDS,
            input="dp_16qam", trials=200_000,
        ),
    ),
    "fig4": _Experiment(
        ("L_grid", "estimators"), _rate_rows, INPUT_KINDS,
        dict(eta_db_grid=(4.0, 14.0), L_grid=(2, 4, 8, 16, 32, 64), estimators=ESTIMATOR_KINDS),
    ),
    "error_cov": _Experiment(
        ("L_grid", "estimators"), _error_cov_rows, ("gaussian",),
        dict(eta_db_grid=(0.0, 10.0, 20.0), L_grid=(8, 16), estimators=ESTIMATOR_KINDS),
    ),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _experiment(name: str) -> _Experiment:
    """The table entry of experiment ``name``; an unknown name is a :class:`ConfigError`."""
    if name not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    return _EXPERIMENTS[name]


def default_config(experiment: str, master_seed: int = 0) -> ExperimentConfig:
    """Engineering-default grids giving desk-scale runtimes."""
    return ExperimentConfig(experiment=experiment, master_seed=master_seed, **_experiment(experiment).defaults)


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Validate ``config`` and run its sweep over the (SNR, second axis) grid.

    The second axis is the first list the experiment reads: ``E2_grid`` for
    fig2 and ``L_grid`` otherwise. Grid point (i, j) draws from its own
    substream, so rows do not depend on which other points the grid holds.
    """
    config.validate()
    spec = _experiment(config.experiment)
    rows = []
    for i_eta, eta_db in enumerate(config.eta_db_grid):
        eta = eta_from_db(eta_db)
        for j, value in enumerate(getattr(config, spec.reads[0])):
            rows.extend(spec.rows(config, eta_db, eta, value, _substream(config, i_eta, j)))
    return SweepResult(config=config, rows=tuple(rows))


# --- plain-text key=value config files ------------------------------------

_ITEM_TYPES = {"eta_db_grid": float, "L_grid": int, "E2_grid": float, "estimators": str}  # comma-separated lists
_INT_FIELDS = {"trials", "master_seed", "n"}


def parse_config_value(key: str, rendered: str):
    """Parse the text of config field ``key`` as :func:`config_to_text` writes it.

    A list field is comma-separated: the empty string is the empty tuple,
    and an empty item between commas is a :class:`ConfigError`, as is a
    value of the wrong type. The CLI parses its flags with this too.
    """
    rendered = rendered.strip()
    try:
        if key in _ITEM_TYPES:
            items = [v.strip() for v in rendered.split(",")] if rendered else []
            if "" in items:
                raise ValueError(f"empty item in {rendered!r}")
            return tuple(_ITEM_TYPES[key](v) for v in items)
        return int(rendered) if key in _INT_FIELDS else rendered
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize to the key=value file format (round-trips exactly)."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ExperimentConfig:
    """Parse a key=value config file; unknown keys are rejected."""
    known = {f.name for f in fields(ExperimentConfig)}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, rendered = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_config_value(key, rendered)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    if "experiment" not in values:
        raise ConfigError("config must set 'experiment'")
    base = default_config(values["experiment"])
    return replace(base, **values)
