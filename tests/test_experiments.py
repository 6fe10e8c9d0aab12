import csv
import io
from dataclasses import replace

import numpy as np
import pytest

import polair.air
from polair.air import LN2, air_corollary4, air_corollary4_paired_mc, air_gaussian_paired_mc, capacity_perfect
from polair.estimators import ESTIMATOR_KINDS, estimate_kabsch, estimate_ls
from polair.experiments import (
    CSV_COLUMNS,
    CSV_SCHEMA_VERSION,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    config_from_text,
    config_to_text,
    default_config,
    eta_from_db,
    run_experiment,
    _substream,
)
from polair.linalg import MC_BLOCK, sample_cgauss

from oracles import error_covariance


def small_config(experiment, **overrides):
    base = default_config(experiment)
    defaults = dict(trials=500)
    if experiment == "fig2":
        defaults.update(eta_db_grid=(0.0, 10.0, 20.0), E2_grid=(1e-2, 1e-1))
    elif experiment in ("fig3a", "fig4"):
        defaults.update(eta_db_grid=(4.0, 14.0), L_grid=(4, 8))
    elif experiment == "fig3b":
        defaults.update(eta_db_grid=(0.0, 10.0), L_grid=(8,), trials=2000)
    elif experiment == "error_cov":
        defaults.update(eta_db_grid=(10.0,), L_grid=(8, 16))
    defaults.update(overrides)
    return replace(base, **defaults)


def csv_rows(result):
    return list(csv.DictReader(io.StringIO(result.to_csv_string())))


class TestConfigValidation:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_defaults_are_valid(self, experiment):
        default_config(experiment).validate()

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            default_config("fig9")
        with pytest.raises(ConfigError):
            replace(default_config("fig3a"), experiment="fig9").validate()

    def test_too_few_trials(self):
        with pytest.raises(ConfigError):
            small_config("fig3a", trials=50).validate()

    def test_eta_out_of_range(self):
        with pytest.raises(ConfigError):
            small_config("fig3a", eta_db_grid=(50.0,)).validate()
        with pytest.raises(ConfigError):
            small_config("fig3a", eta_db_grid=(-11.0,)).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_grid_values(self, value):
        # The SNR range and the E2 range own NaN and inf: no separate finiteness rule.
        with pytest.raises(ConfigError, match=r"^E2 values must lie in \[0, 1\]$"):
            small_config("fig2", E2_grid=(1e-2, value)).validate()
        with pytest.raises(ConfigError, match=rf"^eta_db values must lie in \[-10, 40\], got {value}$"):
            small_config("fig3a", eta_db_grid=(value,)).validate()

    def test_nonfinite_value_in_config_file(self):
        text = config_to_text(small_config("fig2")).replace("E2_grid = 0.01,", "E2_grid = nan,")
        with pytest.raises(ConfigError, match=r"^E2 values must lie in \[0, 1\]$"):
            config_from_text(text).validate()

    def test_e2_upper_bound(self):
        for value in (1.0 + 1e-9, 1e3, 1e300):
            with pytest.raises(ConfigError, match=r"\[0, 1\]"):
                small_config("fig2", E2_grid=(1e-2, value)).validate()
        small_config("fig2", E2_grid=(0.0, 1.0)).validate()

    def test_bad_pilot_lengths(self):
        with pytest.raises(ConfigError):
            small_config("fig4", L_grid=(3,)).validate()
        with pytest.raises(ConfigError):
            small_config("fig4", L_grid=()).validate()

    def test_fig2_needs_error_grid(self):
        with pytest.raises(ConfigError):
            small_config("fig2", E2_grid=()).validate()

    @pytest.mark.parametrize(
        "experiment, name, value",
        [
            ("fig2", "L_grid", (8,)),
            ("fig2", "estimators", ("ls",)),
            *[(experiment, "E2_grid", (0.01,)) for experiment in ("fig3a", "fig3b", "fig4", "error_cov")],
        ],
    )
    def test_unread_list_rejected(self, experiment, name, value):
        # A list field the experiment's rows do not read must be empty, even when its values are valid.
        with pytest.raises(ConfigError, match=f"{experiment} does not read {name}"):
            small_config(experiment, **{name: value}).validate()

    @pytest.mark.parametrize("name", ["L_grid", "estimators"])
    @pytest.mark.parametrize("experiment", ["fig3a", "error_cov"])
    def test_read_list_required(self, experiment, name):
        with pytest.raises(ConfigError, match=f"{experiment} requires a non-empty {name}"):
            small_config(experiment, **{name: ()}).validate()

    def test_class_defaults_read_no_list(self):
        # Every list field defaults to empty, so a directly built config names the lists its experiment reads.
        ExperimentConfig(experiment="fig2", eta_db_grid=(10.0,), E2_grid=(0.01,)).validate()
        with pytest.raises(ConfigError, match="fig3a requires a non-empty L_grid"):
            ExperimentConfig(experiment="fig3a", eta_db_grid=(10.0,)).validate()

    @pytest.mark.parametrize("n", [3, 5])
    def test_fig2_runs_at_any_n(self, n):
        # fig2 draws no pilots, so its default config holds no L grid for n to divide.
        config = replace(default_config("fig2"), n=n, eta_db_grid=(10.0,), E2_grid=(1e-2,))
        rows = run_experiment(config).rows
        assert [(r.estimator, r.L) for r in rows] == [("general", 0), ("unitary", 0)]
        assert rows[0].air.trials == config.trials

    def test_fig3b_needs_discrete_input(self):
        with pytest.raises(ConfigError):
            small_config("fig3b", input="gaussian").validate()

    def test_unknown_estimator(self):
        with pytest.raises(ConfigError):
            small_config("fig3a", estimators=("mmse",)).validate()


class TestDeterminism:
    @pytest.mark.parametrize("experiment", ["fig2", "fig3a", "fig4", "error_cov"])
    def test_repeated_runs_are_byte_identical(self, experiment):
        config = small_config(experiment, trials=200)
        a = run_experiment(config).to_csv_string()
        b = run_experiment(config).to_csv_string()
        assert a == b

    @pytest.mark.parametrize("experiment", ["fig2", "fig3a", "fig3b", "error_cov"])
    def test_block_order_does_not_change_output(self, experiment, monkeypatch):
        # Three blocks per grid point, evaluated last to first: each block
        # draws only from its own spawned generator, so the CSV is unchanged.
        config = small_config(experiment, trials=2 * MC_BLOCK + 500)
        forward = run_experiment(config).to_csv_string()
        assert run_experiment(config).to_csv_string() == forward
        calls = []

        def reversed_blocks(step, trials, rng):
            starts = range(0, trials, MC_BLOCK)
            gens = rng.spawn(len(starts))
            out = {k: step(min(MC_BLOCK, trials - starts[k]), gens[k]) for k in reversed(range(len(starts)))}
            calls.append(len(out))
            return [out[k] for k in range(len(starts))]

        monkeypatch.setattr(polair.air, "mc_blocks", reversed_blocks)
        assert run_experiment(config).to_csv_string() == forward
        assert calls and set(calls) == {3}

    def test_seed_changes_output(self):
        a = run_experiment(small_config("fig3a", trials=200, master_seed=0)).to_csv_string()
        b = run_experiment(small_config("fig3a", trials=200, master_seed=1)).to_csv_string()
        assert a != b

    def test_grid_point_streams_independent_of_order(self):
        # a sub-grid run reproduces the matching rows of the full run
        full = run_experiment(small_config("fig4", trials=200, eta_db_grid=(4.0, 14.0)))
        # same eta index 0 in both runs -> identical substream
        sub = run_experiment(small_config("fig4", trials=200, eta_db_grid=(4.0,)))
        full_rows = [r for r in full.rows if r.eta_db == 4.0]
        assert [(r.estimator, r.L, r.air.value) for r in full_rows] == [
            (r.estimator, r.L, r.air.value) for r in sub.rows
        ]


class TestRowContents:
    def test_fig2_grid_coverage(self):
        config = small_config("fig2", trials=200)
        result = run_experiment(config)
        # one row per (eta, E2, model)
        assert len(result.rows) == len(config.eta_db_grid) * len(config.E2_grid) * 2
        assert {r.estimator for r in result.rows} == {"general", "unitary"}
        assert all(r.L == 0 for r in result.rows)
        assert {row["input"] for row in csv_rows(result)} == {"gaussian"}

    def test_fig2_zero_error_gives_capacity(self):
        # Zero synthetic error: every estimate is the channel itself, over two Monte Carlo blocks.
        config = small_config("fig2", eta_db_grid=(-10.0, 10.0, 40.0), E2_grid=(0.0,), trials=MC_BLOCK + 952)
        rows = csv_rows(run_experiment(config))
        assert sorted({row["estimator"] for row in rows}) == ["general", "unitary"] and len(rows) == 6
        for row in rows:
            assert abs(float(row["air_bits"]) - float(row["capacity_bits"])) <= 1e-12, row
            assert float(row["air_stderr"]) == 0.0, row

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fig2_unitary_rows_are_corollary4_of_the_trace(self, n):
        config = small_config("fig2", n=n, trials=200)
        rows = [row for row in csv_rows(run_experiment(config)) if row["estimator"] == "unitary"]
        assert len(rows) == len(config.eta_db_grid) * len(config.E2_grid)
        for row in rows:
            eta, e2, air = 10.0 ** (float(row["eta_db"]) / 10.0), float(row["E2"]), float(row["air_bits"])
            assert air == air_corollary4(n, eta, n**3 * e2).value, row
            assert abs(air - (n * np.log2(1.0 + eta) - eta * n**3 * e2 / LN2)) <= 1e-12, row
            assert float(row["air_stderr"]) == 0.0 and int(row["trials"]) == 1, row

    def test_fig3_grid_coverage_and_bound(self):
        config = small_config("fig3a", trials=500)
        result = run_experiment(config)
        assert len(result.rows) == 2 * 2 * len(config.estimators)
        for r in result.rows:
            assert r.gap == pytest.approx(r.reference_capacity - r.air.value, abs=1e-12)
            assert r.air.value <= r.reference_capacity + 3 * r.air.std_error

    def test_fig3b_reference_is_perfect_csi_mi(self):
        config = small_config("fig3b", trials=2000, eta_db_grid=(10.0,))
        result = run_experiment(config)
        assert {row["input"] for row in csv_rows(result)} == {"dp_16qam"}
        for r in result.rows:
            assert 0 < r.reference_capacity <= 8.0
            assert r.air.value <= r.reference_capacity + 3 * r.air.std_error

    def test_fig4_gap_shrinks_with_pilot_length(self):
        config = small_config("fig4", trials=2000, eta_db_grid=(14.0,), L_grid=(4, 16))
        result = run_experiment(config)
        by_kind = {}
        for r in result.rows:
            by_kind.setdefault(r.estimator, {})[r.L] = r.gap
        for kind in ("ls", "kabsch"):
            assert by_kind[kind][16] < by_kind[kind][4]

    def test_error_cov_trace_law(self):
        config = small_config("error_cov", trials=5000, eta_db_grid=(10.0,), L_grid=(8,))
        result = run_experiment(config)
        by_kind = {r.estimator: r for r in result.rows}
        # measured per-DOF errors: trace n^2/(eta L) over n * dof
        assert by_kind["ls"].E2 == pytest.approx(4 / (10.0 * 8) / 16, rel=0.10)
        assert by_kind["kabsch"].E2 == pytest.approx(2 / (10.0 * 8) / 8, rel=0.10)
        for r in result.rows:
            assert r.air.value <= r.reference_capacity


class TestOneSnr:
    """Every experiment forms eta = 10^(eta_db/10) once, as ``capacity_perfect``'s callers do."""

    @pytest.mark.parametrize("eta_db", [-10.0, 0.0, 14.0, 40.0])
    def test_eta_from_db_bit_for_bit(self, eta_db):
        assert eta_from_db(eta_db) == 10.0 ** (eta_db / 10.0)

    @pytest.mark.parametrize("eta_db", [float("nan"), float("inf"), -float("inf"), -10.5, 40.5])
    def test_eta_from_db_range(self, eta_db):
        with pytest.raises(ConfigError, match=r"\[-10, 40\]"):
            eta_from_db(eta_db)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_capacity_bits_bit_for_bit(self, n):
        # At n = 3, n eta / n differs from eta by an ulp at some of these SNRs.
        grid = (-4.0, -3.6, -1.5, 10.0)
        configs = [
            ExperimentConfig(experiment="fig2", eta_db_grid=grid, E2_grid=(1e-2,), trials=100, n=n),
            *[
                ExperimentConfig(
                    experiment=experiment, eta_db_grid=grid, L_grid=(2 * n,), estimators=ESTIMATOR_KINDS, trials=100, n=n
                )
                for experiment in ("fig3a", "error_cov")
            ],
        ]
        for config in configs:
            rows = csv_rows(run_experiment(config))
            assert len(rows) == 2 * len(grid)
            for row in rows:
                want = capacity_perfect(n, 10.0 ** (float(row["eta_db"]) / 10.0)).value
                assert float(row["capacity_bits"]) == want, (config.experiment, row["eta_db"])


class TestErrorCovRows:
    def test_rows_equal_error_covariance_on_substream(self):
        # The air column is the Corollary-4 driver's estimate on the grid point's
        # substream, and E2 is tr(R_E)/(n dof) of the R_E of the same draws.
        config = small_config("error_cov", trials=5000, eta_db_grid=(0.0, 10.0))
        rows = iter(run_experiment(config).rows)
        for i_eta, eta_db in enumerate(config.eta_db_grid):
            eta = 10.0 ** (eta_db / 10.0)
            for i_L, L in enumerate(config.L_grid):
                estimates = air_corollary4_paired_mc(config.n, eta, L, config.trials, _substream(config, i_eta, i_L))
                for kind in config.estimators:
                    row = next(rows)
                    assert (row.estimator, row.eta_db, row.L) == (kind, eta_db, L)
                    assert row.air == estimates[kind]
                    assert row.air.trials == config.trials
                    R_E = error_covariance(kind, config.n, eta, L, config.trials, _substream(config, i_eta, i_L))
                    dof = {"ls": 8, "kabsch": 4}[kind]
                    assert row.E2 == pytest.approx(np.trace(R_E).real / (config.n * dof), rel=1e-12)
        assert next(rows, None) is None

    @pytest.mark.parametrize("n", [2, 4])
    def test_E2_is_the_bound_gap_per_dof(self, n):
        # E2 = (capacity - air) ln 2 / (eta n dof), dof = 2 n^2 for ls and n^2 for kabsch.
        config = small_config("error_cov", n=n, L_grid=(2 * n,), eta_db_grid=(0.0, 20.0))
        for row in run_experiment(config).rows:
            eta = 10.0 ** (row.eta_db / 10.0)
            dof = {"ls": 2 * n * n, "kabsch": n * n}[row.estimator]
            assert row.E2 * eta * n * dof / np.log(2.0) == pytest.approx(row.gap, rel=1e-12)
            assert row.E2 > 0

    def test_kabsch_per_dof_not_above_ls(self):
        config = small_config("error_cov", trials=2000, eta_db_grid=(0.0, 10.0, 20.0), L_grid=(8, 16))
        by_point = {}
        for row in run_experiment(config).rows:
            by_point.setdefault((row.eta_db, row.L), {})[row.estimator] = row.E2
        assert len(by_point) == 6
        for point in by_point.values():
            assert point["kabsch"] <= point["ls"] * 1.1

    def test_kabsch_row_equals_gaussian_driver(self):
        # Both compute Corollary 4 of the Kabsch error on the same draws.
        config = small_config("error_cov", trials=3000, eta_db_grid=(0.0,), L_grid=(8,), master_seed=4)
        gaussian = air_gaussian_paired_mc(config.n, 1.0, 8, config.trials, _substream(config, 0, 0), kinds=config.estimators)
        row = next(r for r in run_experiment(config).rows if r.estimator == "kabsch")
        assert row.air.value == gaussian["kabsch"].value
        assert row.air.std_error == gaussian["kabsch"].std_error

    def test_air_stderr_of_per_trial_bounds(self):
        # Redo the draws of one grid point by hand, on the identity channel and
        # the pilot statistic A = c I + sqrt(c) Z of L = 8 pilots, c = eta L,
        # block k from the k-th generator of rng.spawn(n_blocks); the per-trial
        # Corollary-4 values n log2(1+eta) - eta ||E_t||_F^2 / ln 2 average to
        # air_bits and give air_stderr. The trials span two blocks.
        config = small_config("error_cov", trials=MC_BLOCK + 904, eta_db_grid=(10.0,), L_grid=(8,))
        n, L = config.n, 8
        eta = 10.0
        c = eta * L
        sq = {"ls": [], "kabsch": []}
        for b, rng in zip((MC_BLOCK, config.trials - MC_BLOCK), _substream(config, 0, 0).spawn(2)):
            A = c * np.eye(n) + sample_cgauss((b, n, n), c, rng)
            sq["ls"].append(np.sum(np.abs(np.eye(n) - estimate_ls(A, c)) ** 2, axis=(1, 2)))
            sq["kabsch"].append(np.sum(np.abs(np.eye(n) - estimate_kabsch(A)) ** 2, axis=(1, 2)))
        for row in run_experiment(config).rows:
            values = n * np.log2(1.0 + eta) - eta * np.concatenate(sq[row.estimator]) / np.log(2.0)
            stderr = np.sqrt(np.sum((values - values.mean()) ** 2) / (values.size - 1) / values.size)
            assert row.air.value == pytest.approx(values.mean(), abs=1e-12)
            assert row.air.std_error == pytest.approx(stderr, rel=1e-9)
            assert row.air.std_error > 0
            assert row.air.trials == config.trials


class TestSerialization:
    def test_csv_schema(self):
        result = run_experiment(small_config("fig3a", trials=200))
        reader = csv.reader(io.StringIO(result.to_csv_string()))
        rows = list(reader)
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 1 + len(result.rows)
        for raw, row in zip(rows[1:], result.rows):
            assert raw[0] == "fig3a"
            assert float(raw[3]) == row.eta_db
            assert int(raw[4]) == row.L
            assert float(raw[6]) == row.air.value
            assert float(raw[9]) == row.gap
            assert int(raw[10]) == row.air.trials
            assert int(raw[11]) == result.config.master_seed

    def test_csv_floats_roundtrip_exactly(self):
        result = run_experiment(small_config("fig3a", trials=200))
        reader = csv.DictReader(io.StringIO(result.to_csv_string()))
        for raw, row in zip(reader, result.rows):
            assert float(raw["air_bits"]) == row.air.value


class TestConfigText:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_roundtrip(self, experiment):
        config = default_config(experiment, master_seed=7)
        assert config_from_text(config_to_text(config)) == config

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\n\nexperiment = fig3a\ntrials = 500\n"
        config = config_from_text(text)
        assert config.experiment == "fig3a"
        assert config.trials == 500
        # unset keys fall back to the experiment defaults
        assert config.eta_db_grid == default_config("fig3a").eta_db_grid

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_text("experiment = fig3a\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_text("experiment = fig3a\ntrials = 1\ntrials = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_text("experiment = fig3a\ntrials = lots\n")

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError):
            config_from_text("trials = 500\n")

    def test_not_key_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_text("experiment fig3a\n")
