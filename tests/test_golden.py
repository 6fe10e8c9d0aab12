"""Golden regression check: small sweeps against CSVs pinned in ``tests/golden/``.

Each configuration below is run through ``run_experiment`` and compared
with its pinned CSV: the key columns exactly, the rate columns to 1e-12
absolute. A refactor or a faster kernel must pass unchanged. Re-pin only
for a declared change of the random stream, with::

    PYTHONPATH=src python tests/test_golden.py

which prints every cell that moves by more than 1e-12 before it overwrites
the pinned CSVs. A moved ``air_bits`` gets its z-score
delta / sqrt(se_old^2 + se_new^2) from the ``air_stderr`` columns, unless the
pinned stderr is below 1e-4 bits: such a row is saturated (its rate is at
the ceiling and its stderr near round-off), and is listed with no z.
"""

import csv
import io
import math
from dataclasses import replace
from pathlib import Path

import pytest

from polair.experiments import default_config, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TOL = 1e-12
SATURATED_STDERR = 1e-4  # perfbench's row check skips its stderr test below this too
FLOAT_COLUMNS = ("E2", "air_bits", "air_stderr", "capacity_bits", "gap_bits")
KEY_COLUMNS = ("experiment", "estimator", "input", "eta_db", "L", "trials", "seed")

# Sweeps of 3000 trials span two Monte Carlo blocks per grid point.
GOLDEN_CONFIGS = {
    "fig2": replace(
        default_config("fig2", master_seed=11),
        eta_db_grid=(0.0, 10.0, 20.0), E2_grid=(1e-3, 1e-1), trials=2000,
    ),
    "fig3a": replace(
        default_config("fig3a", master_seed=12), eta_db_grid=(-2.0, 10.0, 40.0), trials=3000
    ),
    "fig3b_16qam": replace(
        default_config("fig3b", master_seed=13), eta_db_grid=(4.0, 14.0, 40.0), trials=3000
    ),
    "fig3b_qpsk": replace(
        default_config("fig3b", master_seed=14),
        eta_db_grid=(4.0, 14.0, 40.0), input="dp_qpsk", trials=3000,
    ),
    "fig4": replace(
        default_config("fig4", master_seed=15), eta_db_grid=(4.0,), L_grid=(2, 8, 32), trials=2000
    ),
    "fig4_n4": replace(
        default_config("fig4", master_seed=17), n=4, eta_db_grid=(-10.0, 4.0, 40.0), L_grid=(4, 16), trials=2000
    ),
    "error_cov": replace(
        default_config("error_cov", master_seed=16), eta_db_grid=(0.0, 20.0), trials=2000
    ),
}


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_matches_pinned_csv(name):
    expected = _rows((GOLDEN_DIR / f"{name}.csv").read_text())
    got = _rows(run_experiment(GOLDEN_CONFIGS[name]).to_csv_string())
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert [have[c] for c in KEY_COLUMNS] == [want[c] for c in KEY_COLUMNS]
        for c in FLOAT_COLUMNS:
            assert math.isclose(float(have[c]), float(want[c]), rel_tol=0.0, abs_tol=TOL), (
                f"{name} {want['estimator']} {want['eta_db']} dB L={want['L']}: {c} "
                f"{have[c]} != pinned {want[c]}"
            )


def _print_moves(name: str, pinned: list[dict], rows: list[dict]) -> None:
    """Print each cell of ``rows`` that differs from ``pinned``, with the z-score of each moved ``air_bits``."""
    if len(rows) != len(pinned):
        print(f"{name}: {len(pinned)} pinned rows, {len(rows)} new")
    for old, new in zip(pinned, rows):
        where = f"{name} {old['estimator']} {old['eta_db']} dB L={old['L']} E2={old['E2']}"
        for c in KEY_COLUMNS:
            if new[c] != old[c]:
                print(f"{where}: {c} {old[c]} -> {new[c]}")
        for c in FLOAT_COLUMNS:
            delta = float(new[c]) - float(old[c])
            if abs(delta) <= TOL:
                continue
            line = f"{where}: {c} {old[c]} -> {new[c]} ({delta:+.3g})"
            if c == "air_bits":
                se_old, se_new = float(old["air_stderr"]), float(new["air_stderr"])
                line += ", saturated" if se_old < SATURATED_STDERR else f", z = {delta / math.hypot(se_old, se_new):+.2f}"
            print(line)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, config in GOLDEN_CONFIGS.items():
        path = GOLDEN_DIR / f"{name}.csv"
        text = run_experiment(config).to_csv_string()
        if path.exists():
            _print_moves(name, _rows(path.read_text()), _rows(text))
        path.write_text(text)
        print(f"pinned {name}")
