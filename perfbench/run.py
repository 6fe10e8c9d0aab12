"""Sweep benchmark for polair: end-to-end metrics and an outside-in per-layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3a_gauss --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38   # table of every workload
    python3 perfbench/run.py --self-check                           # tiny-size harness check

A pass of a workload calls ``polair.cli.main`` once per sweep of the
workload (see ``workloads.py``), each writing a CSV. Passes run back to back,
one at a time (closed loop, one client), in fresh child processes
(``child.py``) that import ``polair`` from ``src/``; a run of ``--seconds``
spreads its passes over at least seven children, so that set-up time and
peak memory are sampled across the run. Every pass of a run uses the same
seed, so its CSVs must be byte-identical, and each CSV row is checked
against ``reference.json`` (see ``rowcheck.py``).

``--trace 0`` reports the end-to-end metrics: ``sweep_s`` (time inside
``polair.cli.main`` per pass), ``time_to_0.01bit_s``, ``setup_s`` (spawn
until ``polair`` is imported), medians over the passes or children, and
``peak_rss_mb`` (the largest peak RSS of the run's children). The three
times are in calibrated seconds: each wall time is scaled by ``CAL_REF_S /
calibration time``, with the calibration kernel (``calibrate.py``) timed in
the same child just before and after, which cancels the slowdowns that
co-tenants cause on a shared host. Wall-clock medians are printed alongside
and kept in the run record.

``--trace 1`` alternates plain and traced children and reports the
per-layer metrics (``tracer.py``, ``layer_map.json``), medians over the
traced passes, with times in calibrated seconds as well. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count CSV rows. A run record with the raw samples and the
machine description goes to ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from rowcheck import check_rows, stderr_factor
from tracer import layer_stats
from workloads import WORKLOADS, Workload, sweep_seeds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

MIN_CHILDREN = 7  # child processes per run, each one set-up and peak-memory sample
PASS_TIMEOUT_S = 150
COVERAGE_TOL = 0.02  # per-layer self times must sum to traced sweep time within 2 %
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"sweep_s": "s", "time_to_0.01bit_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# (layer, per-item metric, seconds per item unit) for the layers every workload calls.
_PER_ITEM = (
    ("linalg.haar_unitary", "us_per_matrix", 1e-6),
    ("linalg.sample_cgauss", "ns_per_entry", 1e-9),
    ("estimators.estimate_ls", "us_per_matrix", 1e-6),
    ("estimators.estimate_kabsch", "us_per_matrix", 1e-6),
)
_UNIT = {"self_s": "s", "calls": "count", "us_per_matrix": "us", "ns_per_entry": "ns"}
PER_LAYER_UNITS = {
    f"{layer}.{key}": _UNIT[key]
    for layer, per_item, _ in _PER_ITEM
    for key in ("self_s", "calls", per_item)
}
PER_LAYER_UNITS.update(
    {
        "estimators.estimate_kabsch.peak_alloc_mb": "MB",
        "air.air_gaussian_paired_mc.self_frac": "frac",
        "air.air_gaussian_paired_mc.trials_per_s": "1/s",
        "air.air_discrete_paired_mc.self_frac": "frac",
        "air.air_discrete_paired_mc.trial_kinds_per_s": "1/s",
        "air.air_discrete_paired_mc.peak_alloc_mb": "MB",
        "air.air_synthetic_mc.self_frac": "frac",
        "air.synthetic_estimates.self_frac": "frac",
        "experiments.run_experiment.self_s": "s",
        "experiments.to_csv.self_s": "s",
        "cli.main.self_s": "s",
        "process.cpu_util": "ratio",
        "trace.overhead_frac": "frac",
    }
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program's output)."""


# -- child processes --------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            env[var] = str(nproc)
    return env


def _spawn(spec: dict, workdir: Path, tag: str) -> tuple[float, dict | None]:
    """Run one child; return its set-up time and its result (None if it failed)."""
    spec_path = workdir / f"{tag}.spec.json"
    spec = {**spec, "src": str(SRC), "result": str(workdir / f"{tag}.result.json")}
    spec_path.write_text(json.dumps(spec))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=_child_env(),
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != b"READY":
            proc.wait(timeout=PASS_TIMEOUT_S)
            raise HarnessError(f"child did not import polair (exit {proc.returncode})")
        proc.stdout.read()
        rc = proc.wait(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    result_path = Path(spec["result"])
    if rc != 0 or not result_path.exists():
        return setup_s, None
    return setup_s, json.loads(result_path.read_text())


def _describe_machine() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit = None
    if shutil.which("git"):
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
            )
            commit = out.stdout.strip() if out.returncode == 0 else None
        except subprocess.TimeoutExpired:
            commit = None
    child_env = _child_env()
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "thread_env": {v: child_env[v] for v in THREAD_VARS},
    }


# -- one run ----------------------------------------------------------------


def _layer_metrics(stats: dict, sweep_s: float, scale: float) -> dict:
    """Per-layer metrics of one traced pass; ``scale`` turns its seconds into calibrated seconds."""
    empty = {"calls": 0, "self_s": 0.0, "work": 0, "peak_alloc_bytes": 0}

    def get(name):
        return stats.get(name, empty)

    out = {}
    for layer, per_item, unit_s in _PER_ITEM:
        s = get(layer)
        out[f"{layer}.self_s"] = s["self_s"] * scale
        out[f"{layer}.calls"] = s["calls"]
        out[f"{layer}.{per_item}"] = s["self_s"] * scale / s["work"] / unit_s if s["work"] else 0.0
    out["estimators.estimate_kabsch.peak_alloc_mb"] = get("estimators.estimate_kabsch")["peak_alloc_bytes"] / 2**20
    gauss, disc = get("air.air_gaussian_paired_mc"), get("air.air_discrete_paired_mc")
    out["air.air_gaussian_paired_mc.self_frac"] = gauss["self_s"] / sweep_s
    out["air.air_gaussian_paired_mc.trials_per_s"] = gauss["work"] / (gauss["self_s"] * scale) if gauss["self_s"] else 0.0
    out["air.air_discrete_paired_mc.self_frac"] = disc["self_s"] / sweep_s
    out["air.air_discrete_paired_mc.trial_kinds_per_s"] = disc["work"] / (disc["self_s"] * scale) if disc["self_s"] else 0.0
    out["air.air_discrete_paired_mc.peak_alloc_mb"] = disc["peak_alloc_bytes"] / 2**20
    out["air.air_synthetic_mc.self_frac"] = get("air.air_synthetic_mc")["self_s"] / sweep_s
    out["air.synthetic_estimates.self_frac"] = get("air.synthetic_estimates")["self_s"] / sweep_s
    # The sweep orchestration: run_experiment and the run_* runners it dispatches to.
    out["experiments.run_experiment.self_s"] = scale * sum(
        s["self_s"] for name, s in stats.items() if name.startswith("experiments.run_")
    )
    out["experiments.to_csv.self_s"] = get("experiments.to_csv")["self_s"] * scale
    out["cli.main.self_s"] = get("cli.main")["self_s"] * scale
    return out


def _check_pass(
    texts: list[str | None], refs: list[dict], trials: list[int], seeds: list[int], first_csv: list
) -> tuple[int, int, list[str]]:
    """Check one pass's CSVs (None for a sweep that failed); return attempted, failed, messages."""
    attempted = failed = 0
    messages = []
    for j, text in enumerate(texts):
        attempted += len(refs[j])
        if text is None:
            bad = {"*": ["sweep failed or wrote no CSV"]}
        else:
            bad = check_rows(text, refs[j], trials[j], seeds[j])
            if first_csv[j] is None:
                first_csv[j] = text
            elif text != first_csv[j]:
                bad.setdefault("*", []).append("CSV differs from the first pass with the same seed")
        failed += len(refs[j]) if "*" in bad else len(bad)
        messages += [f"sweep {j} {key}: {'; '.join(v)}" for key, v in bad.items()]
    return attempted, failed, messages


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    reference: dict,
    trial_scale: float = 1.0,
    min_children: int | None = None,
) -> dict:
    """Run one workload for ``seconds``; return the result line and the run record.

    The time is shared among at least ``min_children`` child processes run one
    after another, so that set-up time and peak memory are sampled across the
    run; a traced run alternates plain and traced children, two passes each.
    """
    if min_children is None:
        min_children = 2 if trace else MIN_CHILDREN
    seeds = sweep_seeds(seed, workload)
    trials = [s.scaled_trials(trial_scale) for s in workload.sweeps]
    refs = [reference["workloads"][workload.name][s.name]["rows"] for s in workload.sweeps]
    n_sweeps = len(workload.sweeps)
    STATE_DIR.mkdir(exist_ok=True)
    passes, setup_samples, peak_rss_mb, failures = [], [], [], []
    attempted = failed = 0
    first_csv: list[str | None] = [None] * n_sweeps
    spans = child_info = None
    with tempfile.TemporaryDirectory(dir=STATE_DIR, prefix="work-") as tmp:
        workdir = Path(tmp)
        _spawn({"sweeps": []}, workdir, "warmup")  # fills file caches and byte-code
        deadline = time.perf_counter() + seconds
        k = 0
        child_s = 0.0  # wall time of the last child, set-up included
        while k < min_children or time.perf_counter() + child_s <= deadline:
            traced = trace and k % 2 == 1
            tag = f"child{k}"
            pass_dir = str(workdir / f"{tag}-pass{{pass}}")
            spec = {
                "sweeps": [s.argv(sd, t, workdir, pass_dir) for s, sd, t in zip(workload.sweeps, seeds, trials)],
                "seconds": (deadline - time.perf_counter()) / max(1, min_children - k),
                "min_passes": 2 if trace else 1,
                "trace": traced,
                "pass_dir": pass_dir,
            }
            t0 = time.perf_counter()
            setup_s, res = _spawn(spec, workdir, tag)
            child_s = time.perf_counter() - t0
            k += 1
            if res is None:
                raise HarnessError(f"{tag} exited without a result")
            cal_ref_s = res["cal_ref_s"]
            if not traced:
                setup_samples.append((setup_s, res["cal_first_s"]))
                peak_rss_mb.append(res["maxrss_kb"] / 1024)
                child_info = child_info or {key: res[key] for key in ("versions", "blas")}
            for i, p in enumerate(res["passes"]):
                texts = []
                for j, sweep in enumerate(workload.sweeps):
                    csv_path = Path(pass_dir.replace("{pass}", str(i))) / f"{sweep.name}.csv"
                    ok = p["sweeps"][j]["rc"] == 0 and csv_path.exists()
                    texts.append(csv_path.read_text() if ok else None)
                n_att, n_bad, messages = _check_pass(texts, refs, trials, seeds, first_csv)
                attempted, failed = attempted + n_att, failed + n_bad
                failures += [f"{tag} pass {i} {m}" for m in messages]
                sweep_s = sum(sw["seconds"] for sw in p["sweeps"])
                sample = {
                    "child": k - 1,
                    "traced": traced,
                    "sweep_s": sweep_s,
                    "per_sweep_s": [sw["seconds"] for sw in p["sweeps"]],
                    "cal_s": p["cal_s"],
                    "sweep_cal_s": sweep_s * cal_ref_s / p["cal_s"],
                    "cpu_s": p["cpu_s"],
                    "stderr_factor": stderr_factor([t for t in texts if t is not None]),
                }
                if traced:
                    run_ids = set(range(i * n_sweeps, (i + 1) * n_sweeps))
                    stats = layer_stats(res["spans"], run_ids)
                    sample.update(
                        layers=stats,
                        layer_metrics=_layer_metrics(stats, sweep_s, cal_ref_s / p["cal_s"]),
                        self_sum_s=sum(st["self_s"] for st in stats.values()),
                        missing=res["missing"],
                    )
                    if spans is None:
                        spans = [sp for sp in res["spans"] if sp[4] in run_ids]
                passes.append(sample)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    median = statistics.median
    if trace:
        metrics = {
            name: median(p["layer_metrics"][name] for p in traced_passes)
            for name in traced_passes[0]["layer_metrics"]
        }
        metrics["process.cpu_util"] = median(p["cpu_s"] / p["sweep_s"] for p in plain)
        metrics["trace.overhead_frac"] = (
            median(p["sweep_cal_s"] for p in traced_passes) / median(p["sweep_cal_s"] for p in plain) - 1.0
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "sweep_s": median(p["sweep_cal_s"] for p in plain),
            "time_to_0.01bit_s": median(p["sweep_cal_s"] * p["stderr_factor"] for p in plain),
            "setup_s": median(s * cal_ref_s / cal_s for s, cal_s in setup_samples),
            "peak_rss_mb": max(peak_rss_mb),
        }
        units = END_TO_END_UNITS
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "trial_scale": trial_scale,
        "sweep_seeds": seeds,
        "sweep_trials": trials,
        "machine": _describe_machine(),
        "child": child_info,
        "result": line,
        "fail_frac": failed / attempted,
        "wall_medians_s": {
            "sweep_s": median(p["sweep_s"] for p in plain),
            "setup_s": median(s for s, _ in setup_samples) if setup_samples else None,
        },
        "setup_samples_s_and_cal_s": setup_samples,
        "peak_rss_samples_mb": peak_rss_mb,
        "passes": passes,
        "failures": failures[:200],
        "spans_first_traced_pass": spans,
    }
    return {"line": line, "record": record}


def write_record(record: dict) -> Path:
    records = STATE_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = records / f"{record['workload']}-s{record['seed']}-t{int(record['trace'])}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def _summary(name: str, line: dict) -> list[str]:
    rows = [f"{name:12s} {k:45s} {v['value']:14.6g} {v['unit']}" for k, v in line["metrics"].items()]
    frac = line["failed"] / line["attempted"]
    rows.append(f"{name:12s} {'fail_frac':45s} {frac:14.6g} frac ({line['failed']}/{line['attempted']} rows)")
    return rows


# -- self-check -------------------------------------------------------------


def self_check(reference: dict) -> int:
    """Run every workload at a tenth of its trials and check the harness itself."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    problems = []
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != END_TO_END_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {declared} != harness {END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != PER_LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer differs from the harness's per-layer metrics")
    mapped = {m for layer in layer_map["layers"].values() for m in layer["metrics"]}
    if mapped != set(PER_LAYER_UNITS):
        problems.append(f"layer_map.json metrics differ: {sorted(mapped ^ set(PER_LAYER_UNITS))}")
    if {w["name"]: w["why"] for w in bench["workloads"]} != {w.name: w.why for w in WORKLOADS.values()}:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in WORKLOADS.values():
        for trace in (False, True):
            out = run_workload(workload, 1, 0.0, trace, reference, 0.1, 2)
            line, record = out["line"], out["record"]
            for row in _summary(workload.name, line):
                print(row)
            tag = f"{workload.name} trace={int(trace)}"
            if line["failed"]:
                problems.append(f"{tag}: {line['failed']} rows failed: {record['failures'][:3]}")
            units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
            for name, unit in units.items():
                m = line["metrics"].get(name)
                if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
                    problems.append(f"{tag}: metric {name} missing, not finite or not in {unit}")
            for p in record["passes"]:
                if not p["traced"]:
                    continue
                coverage = p["self_sum_s"] / p["sweep_s"]
                if abs(coverage - 1.0) > COVERAGE_TOL:
                    problems.append(f"{tag}: self times sum to {coverage:.4f} of traced sweep time")
                if p["missing"]:
                    problems.append(f"{tag}: traced names missing: {p['missing']}")
                if workload.name == "mixed_paths" and not p["layers"]["estimators.estimate_kabsch"]["calls_by_n"].get("4"):
                    problems.append(f"{tag}: no n = 4 Kabsch calls")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print(f"self-check {'FAILED' if problems else 'ok'}: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run the tiny-size harness self-check")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that _spawn's cleanup kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "polair" / "__init__.py").is_file():
        print(f"error: no polair sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    try:
        if args.self_check:
            return self_check(reference)
        if args.workload is None:
            parser.error("--workload is required")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        lines = {}
        for name in names:
            out = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), reference)
            path = write_record(out["record"])
            lines[name] = out["line"]
            stream = sys.stdout if args.workload == "all" else sys.stderr
            for row in _summary(name, out["line"]):
                print(row, file=stream)
            wall = out["record"]["wall_medians_s"]
            print(f"{name:12s} wall-clock medians: sweep {wall['sweep_s']:.4g} s, setup {wall['setup_s']:.4g} s", file=stream)
            print(f"record: {path.relative_to(ROOT)}", file=stream)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
