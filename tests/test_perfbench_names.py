"""The benchmark's tracer names must keep resolving in ``polair``.

``perfbench/tracer.py`` wraps the functions in ``NAMED_TARGETS`` by name and
reports any that no longer resolves as missing; a per-layer metric built on
a missing name reads 0. Its ``WORK`` functions read the ``trials`` and
``kinds`` arguments of the paired Monte Carlo drivers. The tracer's source
is only read here.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

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
