"""Every name a ``repro`` module lists in ``__all__`` resolves on it.

``tests/test_unused_imports.py`` counts a name listed in ``__all__`` as a
use of its import, so an export whose definition was deleted would pass
that scan; this one imports each module and looks every listed name up.
``repro.__main__`` is skipped: importing it runs the command line.
"""

import importlib
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def stale_exports(module):
    """The names in ``module.__all__`` that ``module`` does not define."""
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def repro_modules():
    """Dotted names of every module under ``src/repro`` but ``__main__``."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_the_check_flags_a_name_the_module_lacks():
    module = types.ModuleType("example")
    module.__all__ = ["present", "deleted"]
    module.present = 1
    assert stale_exports(module) == ["deleted"]


def test_every_export_of_every_module_resolves():
    names = repro_modules()
    assert "repro.core" in names and "repro.sim.engine" in names
    stale = {name: stale_exports(importlib.import_module(name))
             for name in names}
    assert {name: missing for name, missing in stale.items() if missing} == {}
