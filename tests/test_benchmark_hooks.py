"""The benchmark's tracing hooks name functions that still exist."""

import importlib
import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_hooked_path_resolves_to_a_callable():
    child = _load_child()
    paths = [p for group in child.LAYERS.values() for p in group]
    paths += list(child.COMPUTE_ENTRIES) + ["engine.Trajectory.index_at"]
    for path in paths:
        module_name, *attrs = path.split(".")
        owner = importlib.import_module(f"qtransistor.{module_name}")
        for attr in attrs:
            assert hasattr(owner, attr), f"{path}: no attribute {attr!r}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{path} is not callable"
