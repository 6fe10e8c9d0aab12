"""The benchmark's workloads: which ``polair`` sweeps each one runs.

A workload is a fixed list of CLI sweeps that one client runs back to back
(closed loop). The grids are fixed so that every output row has a committed
reference value; the harness ``--seed`` only picks each sweep's master seed,
and with it every Monte Carlo draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Sweep:
    """One ``polair`` CLI invocation.

    ``args`` are the CLI arguments without ``--trials``/``--seed``/``--out``.
    When ``config`` is set, the sweep is described by a ``key = value``
    config file instead, written by :meth:`argv`.
    """

    name: str
    trials: int
    args: tuple[str, ...] = ()
    config: dict[str, str] = field(default_factory=dict)
    min_trials: int = 100  # smallest trial count the sweep's rate function accepts

    def scaled_trials(self, scale: float) -> int:
        return max(self.min_trials, int(round(self.trials * scale)))

    def argv(self, seed: int, trials: int, workdir: Path, out_dir: str) -> list[str]:
        """CLI arguments for this sweep, writing its CSV to ``<out_dir>/<name>.csv``.

        A config file, when the sweep has one, is written to ``workdir``.
        """
        out = ["--out", f"{out_dir}/{self.name}.csv"]
        if not self.config:
            return [*self.args, "--trials", str(trials), "--seed", str(seed), *out]
        path = workdir / f"{self.name}.cfg"
        entries = {**self.config, "trials": str(trials), "master_seed": str(seed)}
        path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        return ["sweep", "--config", str(path), *out]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sweeps: tuple[Sweep, ...]


def sweep_seeds(seed: int, workload: Workload) -> list[int]:
    """Master seed of each sweep of ``workload``, derived from the harness seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [rng.getrandbits(63) for _ in workload.sweeps]


# Trial counts keep one pass of each workload near 3 s on a 2-vCPU Xeon, so
# that a 38 s run holds about ten passes to take a median of.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig3a_gauss",
            why=(
                "default fig3a, Gaussian input: the closed-form path with no discrete work; "
                "Kabsch SVD is its largest layer and its 23 independent grid points expose "
                "grid parallelism"
            ),
            sweeps=(Sweep("fig3a", 10_000, ("sweep", "--experiment", "fig3a")),),
        ),
        Workload(
            name="fig3b_16qam",
            why=(
                "fig3b at 4 and 14 dB, DP-16-QAM: the discrete information density takes most "
                "of the time and memory, Kabsch is minor and 2 grid points cap parallelism"
            ),
            sweeps=(
                Sweep(
                    "fig3b_16qam",
                    8192,
                    ("sweep", "--experiment", "fig3b", "--eta-db", "4,14"),
                    min_trials=1000,
                ),
            ),
        ),
        Workload(
            name="mixed_paths",
            why=(
                "fig2, fig4 at n = 4, error_cov and DP-QPSK fig3b: synthetic errors, "
                "estimate-only, general-n SVD/QR, large-L noise and small-M discrete paths "
                "the others miss"
            ),
            sweeps=(
                Sweep("fig2", 5000, ("sweep", "--experiment", "fig2")),
                Sweep(
                    "fig4_n4",
                    5000,
                    config={
                        "experiment": "fig4",
                        "n": "4",
                        "L_grid": "4,8,16,32,64",
                        "eta_db_grid": "4.0,14.0",
                        "estimators": "ls,kabsch",
                    },
                ),
                Sweep("error_cov", 5000, ("error-cov",)),
                Sweep(
                    "fig3b_qpsk",
                    10_000,
                    ("sweep", "--experiment", "fig3b", "--input", "dp_qpsk", "--eta-db", "4,14"),
                    min_trials=1000,
                ),
            ),
        ),
    )
}
