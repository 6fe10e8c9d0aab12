"""The benchmark's tracer names must keep resolving in ``polair``.

``perfbench/tracer.py`` wraps the functions in ``NAMED_TARGETS`` by name and
reports any that no longer resolves as missing; a per-layer metric built on
a missing name reads 0. Its ``WORK`` functions read the ``trials`` and
``kinds`` arguments of the paired Monte Carlo drivers. The tracer's source
is only read here.

The tracer rebinds ``estimators.estimate_ls`` and ``estimate_kabsch``, so the
Monte Carlo steps must reach them through those module attributes; a step
that estimated any other way would leave the estimator layers at 0.
"""

import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import polair.estimators
from polair.air import air_corollary4_paired_mc, air_discrete_paired_mc, air_gaussian_paired_mc
from polair.channel import make_constellation
from polair.linalg import MC_BLOCK

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
tracer = types.ModuleType("perfbench_tracer")  # executed from source: no bytecode is written
exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), tracer.__dict__)


def _resolve(target: str):
    module, *path = target.split(".")
    owner = importlib.import_module(f"polair.{module}")
    for part in path:
        owner = getattr(owner, part, None)
    return owner


@pytest.mark.parametrize("target", tracer.NAMED_TARGETS)
def test_named_target_is_a_function(target):
    assert inspect.isfunction(_resolve(target))


@pytest.mark.parametrize("target", ["air.air_gaussian_paired_mc", "air.air_discrete_paired_mc"])
def test_work_arguments_exist(target):
    assert target in tracer.WORK
    assert {"trials", "kinds"} <= set(inspect.signature(_resolve(target)).parameters)


@pytest.mark.parametrize("entry, n", [("gaussian", 2), ("gaussian", 4), ("discrete", 2), ("error_cov", 2)])
def test_steps_estimate_through_the_traced_names(entry, n, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(A, *args):
            calls.append((name, A.shape))
            return fn(A, *args)

        return wrapper

    for name in ("estimate_ls", "estimate_kabsch"):
        monkeypatch.setattr(polair.estimators, name, counting(name, getattr(polair.estimators, name)))
    eta, trials = 10.0, MC_BLOCK + 952
    rng = np.random.default_rng(0)
    if entry == "gaussian":
        air_gaussian_paired_mc(n, eta, 2 * n, trials, rng)
    elif entry == "discrete":
        air_discrete_paired_mc(make_constellation("dp_qpsk", n), eta, 2 * n, trials, rng)
    else:
        air_corollary4_paired_mc(n, eta, 2 * n, trials, rng)
    blocks = [(MC_BLOCK, n, n), (952, n, n)]  # one call per kind and Monte Carlo block
    assert calls == [(name, shape) for shape in blocks for name in ("estimate_ls", "estimate_kabsch")]
