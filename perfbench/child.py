"""Benchmark passes in a fresh process: import polair, run sweeps, report.

Usage: ``python3 perfbench/child.py SPEC.json``. The spec gives the source
directory to import from, the CLI argument lists of one pass (``{pass}`` in
an argument stands for the pass number), how long to keep running passes,
whether to trace, and where to write the result. The child prints ``READY``
once ``polair`` is imported, which is where the parent stops its set-up
clock. With no sweeps it exits right after. It times the calibration kernel
(``calibrate.py``) before the first pass and after each pass.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas_info() -> dict:
    """BLAS vendor, version and live thread count, as far as they can be read."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    info = {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
        "threads": None,
    }
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import polair.cli

    print("READY", flush=True)
    if not spec["sweeps"]:
        return 0

    from calibrate import CAL_REF_S, Calibration

    calibration = Calibration()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    def calibration_s() -> float:
        if tracer is None:
            return calibration.measure()
        # tracemalloc would slow the kernel down; no span is open between passes.
        tracemalloc.stop()
        try:
            return calibration.measure()
        finally:
            tracemalloc.start()

    n_sweeps = len(spec["sweeps"])
    passes = []
    cal_first = cal_before = calibration_s()
    start = time.perf_counter()
    elapsed = pass_s = 0.0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        # A new pass starts only if it should end within the time given.
        while len(passes) < spec["min_passes"] or elapsed + pass_s <= spec["seconds"]:
            i = len(passes)
            Path(spec["pass_dir"].replace("{pass}", str(i))).mkdir()
            sweeps = []
            cpu0 = _cpu_s()
            for j, template in enumerate(spec["sweeps"]):
                argv = [arg.replace("{pass}", str(i)) for arg in template]
                if tracer is not None:
                    tracer.run_id = i * n_sweeps + j
                t0 = time.perf_counter()
                try:
                    rc = polair.cli.main(argv)
                except Exception:  # a crashing sweep fails its rows; the pass goes on
                    traceback.print_exc()
                    rc = -1
                sweeps.append({"rc": rc, "seconds": time.perf_counter() - t0})
            cpu_s = _cpu_s() - cpu0
            cal_after = calibration_s()
            passes.append({"sweeps": sweeps, "cpu_s": cpu_s, "cal_s": (cal_before + cal_after) / 2})
            cal_before = cal_after
            pass_s = time.perf_counter() - start - elapsed
            elapsed += pass_s

    import numpy
    import scipy

    maxrss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    result = {
        "passes": passes,
        "cal_ref_s": CAL_REF_S,
        "cal_first_s": cal_first,
        "maxrss_kb": maxrss_kb,
        "spans": tracer.spans if tracer else [],
        "missing": tracer.missing if tracer else [],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "polair": polair.__version__,
        },
        "blas": _blas_info(),
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
