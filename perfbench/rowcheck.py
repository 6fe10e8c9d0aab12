"""Check sweep CSV output against the committed per-row reference values.

The checks are statistical or exact, never tied to the random stream, so a
change in how draws are consumed (chunking, per-block substreams, worker
count) does not trip them:

* a Monte Carlo row fails when ``|air - ref|`` exceeds both
  ``K_SIGMA * sqrt(se^2 + se_ref^2)`` and MC_ATOL, or when its stderr is
  off from the reference stderr scaled to its trial count by more than a
  factor STDERR_RATIO (checked only where that expected stderr is at least
  STDERR_CHECK_MIN);
* a closed-form row (stderr 0, one trial) fails when ``|air - ref| > CLOSED_FORM_ATOL``;
* an error_cov row fails when its E2 column is off by more than
  ``E2_REL_K / sqrt(trials)`` relative (5 % at 10 000 trials), or when its
  air column does not follow from its E2 column;
* every row fails on a wrong capacity, a gap other than capacity - air, a
  wrong seed or trial count, and a row that is missing or extra fails too.
"""

from __future__ import annotations

import csv
import io
import math

K_SIGMA = 6.0  # two-sided Gaussian tail 2e-9 per row
STDERR_RATIO = 2.0
# Rows whose rate is saturated near log2(M), such as DP-QPSK at 14 dB, owe
# their variance to a few rare error events per run, so their stderr swings
# by orders of magnitude between seeds and a single event can move their mean
# by more than K_SIGMA reference stderrs. The stderr ratio check skips them,
# and no Monte Carlo tolerance is tighter than MC_ATOL bits, ten times below
# the 0.01-bit precision the figures are read at.
STDERR_CHECK_MIN = 1e-4
MC_ATOL = 1e-3
CLOSED_FORM_ATOL = 1e-9
# The per-trial relative spread of |E|^2 is about 1/n for LS (n^2 complex
# Gaussian entries); 5/sqrt(trials) leaves about 10 standard errors at n = 2.
E2_REL_K = 5.0


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def row_key(row: dict) -> str:
    e2 = "*" if row["experiment"] == "error_cov" else row["E2"]
    return "|".join((row["experiment"], row["estimator"], row["input"], row["eta_db"], row["L"], e2))


def reference_row(row: dict, capacity_stderr: float = 0.0) -> dict:
    """Reference entry for one CSV row computed with many trials."""
    air, cap, e2 = float(row["air_bits"]), float(row["capacity_bits"]), float(row["E2"])
    ref = {
        "air": air,
        "air_stderr": float(row["air_stderr"]),
        "capacity": cap,
        "capacity_stderr": capacity_stderr,
        "trials": int(row["trials"]),
    }
    if row["experiment"] == "error_cov":
        ref["E2"] = e2
        ref["gap_per_E2"] = (cap - air) / e2
    return ref


def _row_failures(row: dict, ref: dict, trials: int, seed: int) -> list[str]:
    air, se = float(row["air_bits"]), float(row["air_stderr"])
    cap, gap = float(row["capacity_bits"]), float(row["gap_bits"])
    out = []
    if int(row["seed"]) != seed:
        out.append(f"seed {row['seed']} != {seed}")
    if abs(gap - (cap - air)) > CLOSED_FORM_ATOL:
        out.append("gap != capacity - air")
    if ref["capacity_stderr"] > 0:
        tol = max(MC_ATOL, K_SIGMA * ref["capacity_stderr"] * math.sqrt(1.0 + ref["trials"] / trials))
    else:
        tol = CLOSED_FORM_ATOL
    if abs(cap - ref["capacity"]) > tol:
        out.append(f"capacity {cap} vs {ref['capacity']} (tol {tol:.3g})")

    if "E2" in ref:  # error_cov: the air column derives from the measured E2
        e2 = float(row["E2"])
        rel = abs(e2 - ref["E2"]) / ref["E2"]
        if rel > E2_REL_K / math.sqrt(trials):
            out.append(f"E2 {e2} vs {ref['E2']} (rel {rel:.3g})")
        if abs((cap - air) - ref["gap_per_E2"] * e2) > CLOSED_FORM_ATOL * max(1.0, cap):
            out.append("air does not follow from E2")
    elif ref["trials"] == 1 and ref["air_stderr"] == 0.0:
        if abs(air - ref["air"]) > CLOSED_FORM_ATOL or se != 0.0:
            out.append(f"closed form {air} vs {ref['air']}")
    else:
        if int(row["trials"]) != trials:
            out.append(f"trials {row['trials']} != {trials}")
        tol = max(MC_ATOL, K_SIGMA * math.hypot(se, ref["air_stderr"]))
        if not abs(air - ref["air"]) <= tol:
            out.append(f"air {air} vs {ref['air']} (tol {tol:.3g})")
        expected_se = ref["air_stderr"] * math.sqrt(ref["trials"] / trials)
        in_range = expected_se / STDERR_RATIO <= se <= expected_se * STDERR_RATIO
        if expected_se >= STDERR_CHECK_MIN and not in_range:
            out.append(f"stderr {se} vs expected {expected_se:.3g}")
    return out


def check_rows(text: str, reference: dict, trials: int, seed: int) -> dict[str, list[str]]:
    """Failures per row key of one sweep's CSV; an empty dict means all rows passed."""
    failures: dict[str, list[str]] = {}
    seen = set()
    for i, row in enumerate(parse_csv(text)):
        try:
            key = row_key(row)
        except TypeError:
            failures[f"line {i + 2}"] = ["malformed row"]
            continue
        if key in seen or key not in reference:
            failures[key] = ["duplicate row" if key in seen else "unexpected row"]
            continue
        seen.add(key)
        try:
            problems = _row_failures(row, reference[key], trials, seed)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed row: {exc!r}"]
        if problems:
            failures[key] = problems
    for key in reference.keys() - seen:
        failures[key] = ["missing row"]
    return failures


def stderr_factor(texts: list[str]) -> float:
    """mean((air_stderr / 0.01)^2) over the LS/Kabsch rows of all CSVs that carry a stderr.

    Multiplied by the time of the sweeps that wrote the CSVs, this projects
    the time to reach a 0.01-bit standard error on those rows.
    """
    ses = [
        float(r["air_stderr"])
        for text in texts
        for r in parse_csv(text)
        if r["estimator"] in ("ls", "kabsch") and float(r["air_stderr"]) > 0
    ]
    return sum((s / 0.01) ** 2 for s in ses) / len(ses) if ses else 0.0
