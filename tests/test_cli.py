import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polair import __version__
import polair.cli
from polair.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from polair.air import air_discrete_paired_mc, air_gaussian_paired_mc
from polair.channel import make_constellation, make_pilots
from polair.estimators import get_estimator
from polair.experiments import CSV_COLUMNS, ConfigError, config_from_text, config_to_text, default_config, run_experiment
from dataclasses import replace


class TestCapacity:
    def test_prints_bits_per_symbol(self, capsys):
        assert main(["capacity", "--n", "2", "--eta-db", "0"]) == EXIT_OK
        assert capsys.readouterr().out == "2.0000 bits/symbol\n"

    def test_ten_db(self, capsys):
        assert main(["capacity", "--eta-db", "10"]) == EXIT_OK
        assert capsys.readouterr().out == "6.9189 bits/symbol\n"

    def test_bad_dimension(self, capsys):
        assert main(["capacity", "--n", "0", "--eta-db", "10"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    def test_single_dimension_rejected(self, capsys):
        # same rule as sweeps and make_pilots: n >= 2
        assert main(["capacity", "--n", "1", "--eta-db", "10"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_snr(self, capsys, value):
        assert main(["capacity", "--eta-db", value]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["4000", "-4000", "40.5", "-10.5"])
    def test_snr_out_of_range(self, capsys, value):
        assert main(["capacity", f"--eta-db={value}"]) == EXIT_CONFIG
        assert "[-10, 40]" in capsys.readouterr().err

    def test_snr_range_edges(self, capsys):
        assert main(["capacity", "--eta-db=-10"]) == EXIT_OK
        assert main(["capacity", "--eta-db", "40"]) == EXIT_OK

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["capacity"])
        assert exc.value.code == 2


class TestProcess:
    """``python -m polair.cli`` as a process: the other tests only call ``main``."""

    @staticmethod
    def run(*args, **env):
        src = str(Path(polair.cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "polair.cli", *args]
        return subprocess.run(command, capture_output=True, env={**os.environ, "PYTHONPATH": path, **env}, timeout=60)

    def test_process_exit_status(self, tmp_path):
        # The module hands main's return value to sys.exit.
        ok = self.run("capacity", "--n", "2", "--eta-db", "10")
        assert (ok.returncode, ok.stdout) == (EXIT_OK, b"6.9189 bits/symbol\n")
        assert self.run("capacity", "--n", "1", "--eta-db", "10").returncode == EXIT_CONFIG
        assert self.run("capacity").returncode == 2
        # An accepted config whose arrays cannot be allocated: np.eye(n) alone asks for 512 TiB, beyond the
        # 47-bit address space, so the request fails before any memory is taken.
        huge = tmp_path / "huge.cfg"
        huge.write_text("experiment = fig3a\nn = 8388608\nL_grid = 8388608\ntrials = 100\n")
        out_of_memory = self.run("sweep", "--config", str(huge), "--out", "-")
        assert out_of_memory.returncode == EXIT_NUMERICAL, out_of_memory.stderr
        assert out_of_memory.stderr.startswith(b"error: numerical failure")

    def test_same_bytes_at_one_and_two_blas_threads(self):
        # A Gaussian and a discrete-input sweep, whose LS density is a BLAS product.
        for experiment in ("fig3a", "fig3b"):
            args = ["sweep", "--experiment", experiment, "--eta-db", "4,14", "--trials", "3000", "--seed", "7", "--out", "-"]
            one, two = (self.run(*args, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
            assert one.returncode == two.returncode == EXIT_OK, (one.stderr, two.stderr)
            assert one.stdout.startswith(",".join(CSV_COLUMNS).encode())
            assert one.stdout == two.stdout


class TestEstimate:
    # Estimator error statistics come from `error-cov`: one grid point gives
    # what the removed `polair estimate` printed.
    def test_too_few_trials_is_config_error(self, capsys):
        code = main(["error-cov", "--estimator", "ls", "--eta-db", "10", "--trials", "10"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("value", ["4000", "-4000"])
    def test_snr_out_of_range(self, capsys, value):
        code = main(
            ["error-cov", "--estimator", "ls", f"--eta-db={value}", "--trials", "500", "--out", "-"]
        )
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[-10, 40]" in captured.err


class TestSweep:
    def test_deterministic_csv_files(self, tmp_path, capsys):
        args = [
            "sweep", "--experiment", "fig3a", "--eta-db", "4,14",
            "--trials", "200", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()
        header = a.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_stdout_streaming(self, capsys):
        code = main(
            ["sweep", "--experiment", "fig3a", "--eta-db", "10", "--trials", "200", "--out", "-"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2  # ls and kabsch rows at one grid point

    def test_default_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["sweep", "--experiment", "fig3a", "--eta-db", "10", "--trials", "200", "--seed", "3"]
        )
        assert code == EXIT_OK
        assert (tmp_path / "out" / "fig3a-3.csv").exists()

    def test_requires_experiment_or_config(self, capsys):
        assert main(["sweep", "--trials", "200"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_too_few_trials(self, capsys):
        code = main(["sweep", "--experiment", "fig3a", "--eta-db", "10", "--trials", "10"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("experiment", ["fig3b", "fig4"])
    def test_discrete_input_needs_1000_trials(self, capsys, experiment):
        # The discrete rate's own minimum is a configuration rule: exit 3, not a numerical failure.
        args = ["--experiment", experiment, "--input", "dp_qpsk", "--eta-db", "4", "--trials", "500", "--out", "-"]
        assert main(["sweep", *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1000" in captured.err

    def test_eta_out_of_range(self, capsys):
        code = main(["sweep", "--experiment", "fig3a", "--eta-db", "99", "--trials", "200"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--experiment", "fig2", "--E2"],
            ["sweep", "--experiment", "fig3a", "--eta-db"],
            ["error-cov", "--eta-db"],
        ],
    )
    def test_nonfinite_grid_value(self, capsys, args, value):
        # The range rule that owns the grid rejects NaN and inf with its own message.
        code = main([*args, f"0.01,{value}", "--trials", "200", "--out", "-"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        if "--E2" in args:
            assert captured.err == "error: E2 values must lie in [0, 1]\n"
        else:
            assert captured.err == f"error: eta_db values must lie in [-10, 40], got {value}\n"

    def test_e2_above_one_rejected(self, capsys):
        code = main(["sweep", "--experiment", "fig2", "--E2", "1e300", "--eta-db", "10", "--out", "-"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "E2 values must lie in [0, 1]" in captured.err

    def test_e2_of_one_accepted(self, capsys):
        code = main(["sweep", "--experiment", "fig2", "--E2", "1", "--eta-db", "10", "--trials", "200", "--out", "-"])
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2  # general and unitary rows

    def test_unparsable_grid_value(self, capsys):
        code = main(["sweep", "--experiment", "fig2", "--E2", "abc", "--trials", "200"])
        assert code == EXIT_CONFIG
        assert "'abc'" in capsys.readouterr().err

    def test_stray_value_error_is_numerical_failure(self, capsys, monkeypatch):
        def reject(config):
            raise ValueError("value must be finite")

        monkeypatch.setattr(polair.cli, "run_experiment", reject)
        code = main(["sweep", "--experiment", "fig3a", "--eta-db", "10", "--trials", "200"])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: numerical failure: value must be finite\n"

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        config = replace(
            default_config("fig3a", master_seed=2), eta_db_grid=(4.0,), trials=200
        )
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(config_to_text(config))
        out = tmp_path / "rows.csv"
        code = main(
            ["sweep", "--config", str(cfg_path), "--estimator", "ls", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 1  # header + single ls row
        assert lines[1].startswith("fig3a,ls,gaussian,4.0,")

    def test_config_experiment_mismatch(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(config_to_text(default_config("fig3a")))
        code = main(["sweep", "--experiment", "fig4", "--config", str(cfg_path)])
        assert code == EXIT_CONFIG

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent/sweep.cfg"]) == EXIT_CONFIG

    def test_non_utf8_config_file(self, tmp_path, capsys):
        # A decode error is a ValueError; it is the configuration's fault, not a numerical failure.
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_bytes(b"experiment = fig3a\n\xff\xfe = 1\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", "-"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config file {cfg_path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--experiment", "fig3a", "--estimator", "ls,ls", "--eta-db", "10"],
            ["error-cov", "--estimator", "kabsch,kabsch", "--eta-db", "10"],
            ["sweep", "--experiment", "fig3a", "--eta-db", "10,10", "--estimator", "ls"],
            ["error-cov", "--L", "8,8", "--eta-db", "10"],
            ["sweep", "--experiment", "fig2", "--E2", "0.01,0.01", "--eta-db", "10"],
        ],
    )
    def test_repeated_estimator_rejected(self, capsys, args):
        # Any repeated grid value or kind: its rows would share a key.
        code = main(args + ["--trials", "200", "--out", "-"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeat" in captured.err

    def test_repeated_estimator_in_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("experiment = fig3a\neta_db_grid = 10\nestimators = ls,ls\ntrials = 200\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", "-"]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "text",
        [
            "experiment = fig3b\nn = 4\ninput = dp_16qam\neta_db_grid = 4\nL_grid = 8\n",
            "experiment = fig4\nn = 3\ninput = dp_qpsk\neta_db_grid = 4\nL_grid = 3,6\n",
        ],
        ids=["fig3b-n4-dp_16qam", "fig4-n3-dp_qpsk"],
    )
    def test_discrete_input_requires_two_polarizations(self, tmp_path, capsys, text):
        # DP-QPSK and DP-16-QAM are defined on n = 2 only: a configuration error, not a numerical one.
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(text + "trials = 1000\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", "-"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "requires n = 2" in captured.err

    @pytest.mark.parametrize(
        "args",
        [
            [
                "sweep", "--experiment", "fig2", "--E2", "0.01",
                "--estimator", "mmse", "--input", "dp_16qam", "--L", "3",
            ],
            ["sweep", "--experiment", "fig2", "--E2", "0.01", "--estimator", "mmse"],
            ["sweep", "--experiment", "fig2", "--E2", "0.01", "--input", "dp_16qam"],
            ["sweep", "--experiment", "fig2", "--E2", "0.01", "--L", "3"],
            ["sweep", "--experiment", "fig2", "--E2", "0.01", "--L", "8"],
            ["sweep", "--experiment", "fig2", "--E2", "0.01", "--estimator", "ls"],
            ["error-cov", "--input", "dp_16qam"],
            ["sweep", "--experiment", "fig3a", "--E2", "0.5"],
        ],
    )
    def test_unused_or_invalid_setting_rejected(self, capsys, args):
        # An experiment takes only the lists its rows read, even when the values are
        # valid: fig2 reads no pilot lengths or estimators, and only fig2 reads an E2
        # grid. fig2 and error_cov rate Gaussian inputs only.
        code = main(args + ["--eta-db", "10", "--trials", "200", "--out", "-"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("removed_flag", ["threads"])
    def test_removed_flag_is_usage_error(self, capsys, removed_flag):
        # A worker-count flag returns only with a worker pool.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--experiment", "fig3a", "--eta-db", "10", f"--{removed_flag}", "2", "--out", "-"])
        assert exc.value.code == 2


class TestFlagsMatchConfigFile:
    """A sweep flag is parsed as the config-file entry of its field."""

    @staticmethod
    def base(experiment, key):
        # A small sweep; the field under test is left to the flag or the entry.
        entries = {"experiment": experiment, "eta_db_grid": "10", "trials": "1000" if experiment == "fig3b" else "200"}
        return "".join(f"{k} = {v}\n" for k, v in entries.items() if k != key)

    @pytest.mark.parametrize(
        "experiment, flag, key, value",
        [
            ("fig3a", "--eta-db", "eta_db_grid", "4, 14"),
            ("fig4", "--L", "L_grid", "4,16"),
            ("fig2", "--E2", "E2_grid", "0.01,0.1"),
            ("fig3b", "--input", "input", "dp_qpsk"),
            ("fig3a", "--estimator", "estimators", "kabsch"),
            ("fig3a", "--trials", "trials", "300"),
            ("fig3a", "--seed", "master_seed", "9"),
            ("error_cov", "--L", "L_grid", "4,16"),
        ],
        ids=["eta-db", "L", "E2", "input", "estimator", "trials", "seed", "error-cov-L"],
    )
    def test_same_config_and_csv(self, tmp_path, capsys, monkeypatch, experiment, flag, key, value):
        configs = []

        def recording(config):
            configs.append(config)
            return run_experiment(config)

        monkeypatch.setattr(polair.cli, "run_experiment", recording)
        base = self.base(experiment, key)
        subcommand = "error-cov" if experiment == "error_cov" else "sweep"
        csvs = []
        for i, (entries, flags) in enumerate([(base, [flag, value]), (base + f"{key} = {value}\n", [])]):
            cfg_path, out = tmp_path / f"{i}.cfg", tmp_path / f"{i}.csv"
            cfg_path.write_text(entries)
            assert main([subcommand, "--config", str(cfg_path), *flags, "--out", str(out)]) == EXIT_OK
            csvs.append(out.read_text())
        assert configs[0] == configs[1] != config_from_text(base)
        assert csvs[0] == csvs[1]

    def test_negative_first_snr_joins_its_flag(self, tmp_path, capsys):
        # argparse takes a separate "-2,4" for a flag; joined by "=" it is the grid.
        base = self.base("fig3a", "eta_db_grid")
        for name, entries, flags in [("flag", base, ["--eta-db=-2,4"]), ("entry", base + "eta_db_grid = -2,4\n", [])]:
            (tmp_path / f"{name}.cfg").write_text(entries)
            out = tmp_path / f"{name}.csv"
            assert main(["sweep", "--config", str(tmp_path / f"{name}.cfg"), *flags, "--out", str(out)]) == EXIT_OK
        assert (tmp_path / "flag.csv").read_text() == (tmp_path / "entry.csv").read_text()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(tmp_path / "flag.cfg"), "--eta-db", "-2,4", "--out", "-"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "experiment, flag, key, value, message",
        [
            ("fig3a", "--eta-db", "eta_db_grid", "10,", "empty item"),
            ("fig3a", "--estimator", "estimators", "ls,", "empty item"),
            ("fig4", "--L", "L_grid", "8,,16", "empty item"),
            ("fig2", "--E2", "E2_grid", ",0.01", "empty item"),
            ("fig3a", "--trials", "trials", "lots", "'lots'"),
        ],
        ids=["eta-db", "estimator", "L", "E2", "trials"],
    )
    def test_bad_value_rejected_on_both_paths(self, tmp_path, capsys, experiment, flag, key, value, message):
        base = self.base(experiment, key)
        for i, (entries, flags) in enumerate([(base, [flag, value]), (base + f"{key} = {value}\n", [])]):
            cfg_path = tmp_path / f"{i}.cfg"
            cfg_path.write_text(entries)
            assert main(["sweep", "--config", str(cfg_path), *flags, "--out", "-"]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err


class TestErrorCov:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        code = main(
            ["error-cov", "--eta-db", "10", "--L", "8", "--trials", "500", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2
        for row in csv.DictReader(lines):
            assert row["trials"] == "500"
            assert float(row["air_stderr"]) > 0

    def test_same_csv_as_sweep(self, tmp_path, capsys):
        # `error-cov` is `sweep --experiment error_cov`; both stay, and give the same bytes.
        flags = ["--eta-db", "10", "--L", "8", "--trials", "1000"]
        csvs = []
        for i, command in enumerate([["error-cov"], ["sweep", "--experiment", "error_cov"]]):
            out = tmp_path / f"{i}.csv"
            assert main([*command, *flags, "--out", str(out)]) == EXIT_OK
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        assert csvs[0].startswith(",".join(CSV_COLUMNS).encode())


def _discrete_rate(trials):
    return air_discrete_paired_mc(make_constellation("dp_16qam", 2, 10.0), 10.0, 8, trials, np.random.default_rng(0))


class TestOneMessagePerRule:
    """Each argument rule has one owner in the numeric core, and the configuration check runs it.

    The same bad value gives the owner's ``ValueError`` from the library and, with the same text, a
    ``ConfigError`` from ``validate`` and exit 3 from the CLI.
    """

    @pytest.mark.parametrize(
        "experiment, overrides, library_call",
        [
            ("fig3a", dict(n=1, L_grid=(2,)), lambda: make_pilots(1, 2, 1.0)),
            ("fig2", dict(n=1), lambda: make_pilots(1, 2, 1.0)),
            ("fig3a", dict(L_grid=(3,)), lambda: make_pilots(2, 3, 1.0)),
            ("fig4", dict(L_grid=(8, 1)), lambda: make_pilots(2, 1, 1.0)),
            ("fig3b", dict(input="dp_qpsk", n=3, L_grid=(3,), trials=1000), lambda: make_constellation("dp_qpsk", 3, 10.0)),
            ("fig3a", dict(trials=50), lambda: air_gaussian_paired_mc(2, 10.0, 8, 50, np.random.default_rng(0))),
            ("fig3b", dict(trials=500), lambda: _discrete_rate(500)),
            ("fig4", dict(input="dp_qpsk", trials=50), lambda: _discrete_rate(50)),
            ("error_cov", dict(estimators=("ls", "mmse")), lambda: get_estimator("mmse")),
        ],
        ids=["n", "fig2-n", "L-multiple", "L-below-n", "discrete-n", "trials", "discrete-trials",
             "discrete-trials-below-100", "estimator-kind"],
    )
    def test_config_reports_the_library_message(self, tmp_path, capsys, experiment, overrides, library_call):
        with pytest.raises(ValueError) as library:
            library_call()
        assert type(library.value) is ValueError
        config = replace(default_config(experiment), eta_db_grid=(10.0,), **overrides)
        with pytest.raises(ConfigError) as checked:
            config.validate()
        assert str(checked.value) == str(library.value)
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(config_to_text(config))
        assert main(["sweep", "--config", str(cfg_path), "--out", "-"]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {library.value}\n")

    def test_capacity_dimension(self, capsys):
        with pytest.raises(ValueError) as library:
            make_pilots(1, 2, 1.0)
        assert main(["capacity", "--n", "1", "--eta-db", "10"]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {library.value}\n")

    def test_experiment_name(self, tmp_path, capsys):
        with pytest.raises(ConfigError) as library:
            default_config("fig9")
        with pytest.raises(ConfigError) as checked:
            replace(default_config("fig3a"), experiment="fig9").validate()
        assert str(checked.value) == str(library.value) == "unknown experiment 'fig9'"
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("experiment = fig9\n")
        assert main(["sweep", "--config", str(cfg_path), "--out", "-"]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {library.value}\n")


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"polair {__version__} (csv-schema 1)"

    def test_unknown_subcommand(self):
        # `estimate` is gone: `error-cov --eta-db X --L Y --estimator k` gives its statistics.
        for argv in (["frobnicate"], ["estimate", "--estimator", "ls", "--eta-db", "10"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
