"""Named, reproducible sweeps over SNR, pilot length and error level.

Each experiment walks a grid, runs the matching rate computation at every
grid point and collects one row per (grid point, estimator or error model).
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
* ``fig4``     -- information gap vs pilot length (the fig3 runner on an
                  (SNR, pilot length) grid).
* ``error_cov``-- empirical estimation-error covariance statistics.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .air import (
    LN2,
    AirEstimate,
    air_corollary4,
    air_discrete_paired_mc,
    air_gaussian_paired_mc,
    air_synthetic_mc,
    capacity_perfect,
)
from .channel import CONSTELLATION_KINDS, ChannelParams, make_constellation
from .estimators import ESTIMATOR_KINDS, empirical_error_covariance

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SweepRow",
    "SweepResult",
    "EXPERIMENTS",
    "CSV_SCHEMA_VERSION",
    "CSV_COLUMNS",
    "ETA_DB_RANGE",
    "check_eta_db",
    "default_config",
    "run_experiment",
    "run_fig2",
    "run_fig3",
    "run_error_cov",
    "config_to_text",
    "config_from_text",
]

EXPERIMENTS = ("fig2", "fig3a", "fig3b", "fig4", "error_cov")
_EXPERIMENT_ID = {name: i for i, name in enumerate(EXPERIMENTS)}

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


ETA_DB_RANGE = (-10.0, 40.0)  # the SNRs, in dB, that sweeps and `capacity` accept


def check_eta_db(eta_db: float) -> None:
    """Apply the one SNR range rule; a non-finite value fails it too."""
    lo, hi = ETA_DB_RANGE
    if not lo <= eta_db <= hi:
        raise ConfigError(f"eta_db values must lie in [{lo:g}, {hi:g}], got {eta_db!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    eta_db_grid: tuple[float, ...]
    L_grid: tuple[int, ...] = (8,)
    # fig2 only: per-DOF error levels in [0, 1]. At E2 = 1 the synthetic error
    # already has 2 n^2 times the power of a channel entry; the paper's largest
    # level is 1e-1.
    E2_grid: tuple[float, ...] = ()
    input: str = "gaussian"
    estimators: tuple[str, ...] = ESTIMATOR_KINDS
    trials: int = 10_000
    master_seed: int = 0
    n: int = 2

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if len(self.eta_db_grid) == 0:
            raise ConfigError("eta_db_grid must be non-empty")
        for name in ("eta_db_grid", "E2_grid"):
            if not all(math.isfinite(v) for v in getattr(self, name)):
                raise ConfigError(f"{name} values must be finite")
        for eta_db in self.eta_db_grid:
            check_eta_db(eta_db)
        if self.trials < 100:
            raise ConfigError(f"trials must be >= 100, got {self.trials}")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must be a 64-bit unsigned integer")
        if self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.input not in CONSTELLATION_KINDS:
            raise ConfigError(f"unknown input kind {self.input!r}")
        if self.input != "gaussian" and self.n != 2:
            raise ConfigError(f"{self.input} is a dual-polarization input and requires n = 2, got n = {self.n}")
        if len(self.L_grid) == 0:
            raise ConfigError("L_grid must be non-empty")
        if any(L < self.n or L % self.n != 0 for L in self.L_grid):
            raise ConfigError("every L must be >= n and a multiple of n")
        if len(self.estimators) == 0:
            raise ConfigError("estimators must be non-empty")
        if any(k not in ESTIMATOR_KINDS for k in self.estimators):
            raise ConfigError(f"estimators must be a subset of {ESTIMATOR_KINDS}")
        for name in ("eta_db_grid", "L_grid", "E2_grid", "estimators"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat a value, got {','.join(map(str, values))}")
        if self.experiment == "fig2":
            if len(self.E2_grid) == 0:
                raise ConfigError("fig2 requires a non-empty E2_grid")
            if any(not (0.0 <= e <= 1.0) for e in self.E2_grid):
                raise ConfigError("E2 values must lie in [0, 1]")
        elif self.E2_grid:
            raise ConfigError(f"E2_grid is a fig2 setting; {self.experiment} requires it empty")
        if self.experiment in ("fig2", "error_cov") and self.input != "gaussian":
            raise ConfigError(f"{self.experiment} requires input gaussian, got {self.input!r}")
        if self.experiment == "fig3b" and self.input == "gaussian":
            raise ConfigError("fig3b requires a discrete input kind")


def default_config(experiment: str, master_seed: int = 0) -> ExperimentConfig:
    """Engineering-default grids giving desk-scale runtimes."""
    if experiment == "fig2":
        return ExperimentConfig(
            experiment="fig2",
            eta_db_grid=tuple(float(e) for e in range(0, 21)),
            L_grid=(8,),
            E2_grid=(1e-3, 1e-2, 1e-1),
            trials=10_000,
            master_seed=master_seed,
        )
    if experiment == "fig3a":
        return ExperimentConfig(
            experiment="fig3a",
            eta_db_grid=tuple(float(e) for e in range(-2, 21)),
            L_grid=(8,),
            trials=10_000,
            master_seed=master_seed,
        )
    if experiment == "fig3b":
        return ExperimentConfig(
            experiment="fig3b",
            eta_db_grid=tuple(float(e) for e in range(-2, 21, 2)),
            L_grid=(8,),
            input="dp_16qam",
            trials=200_000,
            master_seed=master_seed,
        )
    if experiment == "fig4":
        return ExperimentConfig(
            experiment="fig4",
            eta_db_grid=(4.0, 14.0),
            L_grid=(2, 4, 8, 16, 32, 64),
            trials=10_000,
            master_seed=master_seed,
        )
    if experiment == "error_cov":
        return ExperimentConfig(
            experiment="error_cov",
            eta_db_grid=(0.0, 10.0, 20.0),
            L_grid=(8, 16),
            trials=10_000,
            master_seed=master_seed,
        )
    raise ConfigError(f"unknown experiment {experiment!r}")


@dataclass(frozen=True)
class SweepRow:
    experiment: str
    estimator: str  # estimator kind or synthetic error model name
    input: str
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
                    row.experiment,
                    row.estimator,
                    row.input,
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
    spawn_key = (_EXPERIMENT_ID[config.experiment],) + tuple(key)
    return np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=spawn_key))


def _check_experiment(config: ExperimentConfig, *experiments: str) -> None:
    config.validate()
    if config.experiment not in experiments:
        raise ConfigError(f"expected experiment {' or '.join(experiments)}, got {config.experiment!r}")


def run_fig2(config: ExperimentConfig) -> SweepResult:
    """Gaussian-input AIR vs SNR under fixed synthetic per-DOF error levels.

    The general error model is averaged by Monte Carlo over random error
    draws (the channel is irrelevant by rotation invariance, so the
    identity is used); the unitary model is the closed form with
    tr(R_E) = n^3 * E2.
    """
    _check_experiment(config, "fig2")
    n = config.n
    eye = np.eye(n)
    rows = []
    for i_eta, eta_db in enumerate(config.eta_db_grid):
        eta = 10.0 ** (eta_db / 10.0)
        cap = capacity_perfect(n, eta).value
        for i_e2, e2 in enumerate(config.E2_grid):
            rng = _substream(config, i_eta, i_e2)
            general = air_synthetic_mc(eye, e2, eta, config.trials, rng)
            unitary = air_corollary4(n, eta, (n * n * e2) * eye)
            for name, est in (("general", general), ("unitary", unitary)):
                rows.append(
                    SweepRow(
                        experiment="fig2",
                        estimator=name,
                        input="gaussian",
                        eta_db=eta_db,
                        L=0,
                        E2=e2,
                        air=est,
                        reference_capacity=cap,
                    )
                )
    return SweepResult(config=config, rows=tuple(rows))


def _rate_rows_at(
    config: ExperimentConfig, eta_db: float, L: int, rng: np.random.Generator
) -> list[SweepRow]:
    """AIR rows for one (eta, L) point, all estimators on shared draws."""
    n = config.n
    params = ChannelParams.from_eta_db(n, eta_db)
    if config.input == "gaussian":
        estimates = air_gaussian_paired_mc(params, L, config.trials, rng, kinds=config.estimators)
        reference = capacity_perfect(n, params.eta).value
    else:
        constellation = make_constellation(config.input, n, params.power)
        kinds = tuple(config.estimators) + ("perfect",)
        estimates = air_discrete_paired_mc(constellation, params, L, config.trials, rng, kinds=kinds)
        reference = estimates["perfect"].value
    return [
        SweepRow(
            experiment=config.experiment,
            estimator=kind,
            input=config.input,
            eta_db=eta_db,
            L=L,
            E2=0.0,
            air=estimates[kind],
            reference_capacity=reference,
        )
        for kind in config.estimators
    ]


def run_fig3(config: ExperimentConfig) -> SweepResult:
    """AIR and information gap of pilot-based estimators over (SNR, pilot length).

    Serves fig3a and fig3b (AIR vs SNR at a fixed pilot length) and fig4
    (gap vs pilot length at a few SNRs); all estimators share the draws of
    each grid point.
    """
    _check_experiment(config, "fig3a", "fig3b", "fig4")
    rows = []
    for i_eta, eta_db in enumerate(config.eta_db_grid):
        for i_L, L in enumerate(config.L_grid):
            rng = _substream(config, i_eta, i_L)
            rows.extend(_rate_rows_at(config, eta_db, L, rng))
    return SweepResult(config=config, rows=tuple(rows))


def run_error_cov(config: ExperimentConfig) -> SweepResult:
    """Empirical error-covariance statistics per (estimator, eta, L).

    Both estimators see the same channel and noise draws at each grid
    point. The E2 column carries the measured per-DOF error
    tr(R_E)/(n * dof); the air column reports the unitary-estimate bound
    implied by the measured covariance, n log2(1+eta) - eta tr(R_E)/ln 2,
    with the standard error of the per-trial values
    n log2(1+eta) - eta ||E_t||_F^2/ln 2 over ``config.trials`` trials.
    """
    _check_experiment(config, "error_cov")
    n = config.n
    rows = []
    for i_eta, eta_db in enumerate(config.eta_db_grid):
        params = ChannelParams.from_eta_db(n, eta_db)
        cap = capacity_perfect(n, params.eta).value
        for i_L, L in enumerate(config.L_grid):
            rng = _substream(config, i_eta, i_L)
            stats = empirical_error_covariance(config.estimators, params, L, config.trials, rng)
            for kind in config.estimators:
                s = stats[kind]
                bound = air_corollary4(n, params.eta, s.R_E)
                rows.append(
                    SweepRow(
                        experiment="error_cov",
                        estimator=kind,
                        input=config.input,
                        eta_db=eta_db,
                        L=L,
                        E2=s.error_per_dof,
                        air=replace(bound, std_error=params.eta * s.trace_stderr / LN2, trials=s.trials),
                        reference_capacity=cap,
                    )
                )
    return SweepResult(config=config, rows=tuple(rows))


_RUNNERS = {
    "fig2": run_fig2,
    "fig3a": run_fig3,
    "fig3b": run_fig3,
    "fig4": run_fig3,
    "error_cov": run_error_cov,
}


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Dispatch a validated configuration to its runner."""
    config.validate()
    return _RUNNERS[config.experiment](config)


# --- plain-text key=value config files ------------------------------------

_LIST_FIELDS = {"eta_db_grid", "L_grid", "E2_grid", "estimators"}
_INT_FIELDS = {"trials", "master_seed", "n"}


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
        rendered = rendered.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _LIST_FIELDS:
                items = [v.strip() for v in rendered.split(",") if v.strip()]
                if key == "L_grid":
                    values[key] = tuple(int(v) for v in items)
                elif key == "estimators":
                    values[key] = tuple(items)
                else:
                    values[key] = tuple(float(v) for v in items)
            elif key in _INT_FIELDS:
                values[key] = int(rendered)
            else:
                values[key] = rendered
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if "experiment" not in values:
        raise ConfigError("config must set 'experiment'")
    base = default_config(values["experiment"])
    return replace(base, **values)
