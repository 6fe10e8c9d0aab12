"""Package-level checks: every name a module exports exists, and the README runs.

A stale ``__all__`` entry is skipped silently both by ``import polair`` (the
package imports names explicitly) and by tools that walk ``__all__`` with
``getattr(module, name, None)``, so a deletion can leave one behind unseen.
A deleted name can linger in the README's examples the same way, so every
``python`` block there is executed.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import polair

MODULES = sorted(m.name for m in pkgutil.iter_modules(polair.__path__))
README = Path(__file__).resolve().parent.parent / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"polair.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(README_BLOCKS[index], f"README.md python block {index}", "exec"), {})
