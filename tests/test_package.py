"""Package-level checks: every name a module exports exists.

A stale ``__all__`` entry is skipped silently both by ``import polair`` (the
package imports names explicitly) and by tools that walk ``__all__`` with
``getattr(module, name, None)``, so a deletion can leave one behind unseen.
"""

import importlib
import pkgutil

import pytest

import polair

MODULES = sorted(m.name for m in pkgutil.iter_modules(polair.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"polair.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
