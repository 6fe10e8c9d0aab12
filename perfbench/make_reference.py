"""Write ``reference.json``: per-row reference values for every benchmark sweep.

Usage, from the root of a checkout: ``python3 perfbench/make_reference.py``.

Each sweep of each workload is run once through ``polair.cli.main`` with
TRIAL_FACTOR times its benchmark trial count and a seed of its own. For a
discrete-input sweep the ``capacity_bits`` column is itself a Monte Carlo
estimate (the perfect-CSI rate) that the CSV gives no stderr for, so its
reference value and stderr come from a separate perfect-CSI run with the
same trial count. Run it once per deliberate change of the expected values,
never to make a failing check pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import polair  # noqa: E402
from polair.air import air_discrete_paired_mc  # noqa: E402
from polair.channel import ChannelParams, make_constellation  # noqa: E402
from polair.cli import main as polair_main  # noqa: E402
from rowcheck import parse_csv, reference_row, row_key  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRIAL_FACTOR = 10
REFERENCE_SEED = 20211223  # distinct from every harness-derived 63-bit sweep seed


def _perfect_capacity(row: dict, n: int, trials: int, seed: int) -> tuple[float, float]:
    params = ChannelParams.from_eta_db(n, float(row["eta_db"]))
    constellation = make_constellation(row["input"], n, params.power)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(row["L"]),)))
    est = air_discrete_paired_mc(constellation, params, int(row["L"]), trials, rng, kinds=("perfect",))["perfect"]
    return est.value, est.std_error


def build_reference() -> dict:
    out = {
        "polair_version": polair.__version__,
        "trial_factor": TRIAL_FACTOR,
        "reference_seed": REFERENCE_SEED,
        "workloads": {},
    }
    for w_index, workload in enumerate(WORKLOADS.values()):
        sweeps = out["workloads"][workload.name] = {}
        for s_index, sweep in enumerate(workload.sweeps):
            seed = REFERENCE_SEED + 100 * w_index + s_index
            trials = sweep.trials * TRIAL_FACTOR
            t0 = time.perf_counter()
            with tempfile.TemporaryDirectory() as tmp:
                argv = sweep.argv(seed, trials, Path(tmp), tmp)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = polair_main(argv)
                if rc != 0:
                    raise SystemExit(f"{workload.name}/{sweep.name}: polair exited {rc}")
                rows = parse_csv((Path(tmp) / f"{sweep.name}.csv").read_text())
            n = int(sweep.config.get("n", 2))
            capacities = {}  # one perfect-CSI run per (eta, L) grid point
            entries = {}
            for row in rows:
                cap_se = 0.0
                if row["input"] != "gaussian":
                    point = (row["eta_db"], row["L"])
                    if point not in capacities:
                        capacities[point] = _perfect_capacity(row, n, trials, seed)
                    row = {**row, "capacity_bits": repr(capacities[point][0])}
                    cap_se = capacities[point][1]
                entries[row_key(row)] = reference_row(row, cap_se)
            sweeps[sweep.name] = {"seed": seed, "trials": trials, "rows": entries}
            print(f"{workload.name}/{sweep.name}: {len(entries)} rows, {trials} trials, "
                  f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return out


if __name__ == "__main__":
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(build_reference(), indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
