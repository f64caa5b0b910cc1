"""The library names the traced benchmark wraps.

perfbench/layertrace.py pins the public entry points of every module in
`ENTRY_POINTS`; the traced run fails on a name that no longer resolves.
This test reads that table (without changing it) so a deletion that would
break the benchmark fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _entry_points() -> dict:
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("layer", sorted(ENTRY_POINTS))
def test_pinned_entry_points_resolve(layer):
    module = importlib.import_module(f"schwarzian_lab.{layer}")
    functions, classes = ENTRY_POINTS[layer]
    missing = [name for name in functions if not callable(getattr(module, name, None))]
    for cls_name, methods in classes.items():
        cls = getattr(module, cls_name, None)
        if cls is None:
            missing.append(cls_name)
            continue
        missing += [f"{cls_name}.{m}" for m in methods if not callable(getattr(cls, m, None))]
    assert not missing, f"{layer}: {missing}"
