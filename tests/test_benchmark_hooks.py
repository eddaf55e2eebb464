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


def test_engine_spans_follow_the_window_loop_of_evolve(monkeypatch):
    # evolve builds one Propagator and steps it once per window, so the
    # engine.Propagator and engine.collision spans time exactly that
    from qtransistor import engine
    from qtransistor.model import ModelConfig

    child = _load_child()
    tracer = child.Tracer()
    for name in ("engine.evolve", "engine.Propagator", "engine.collision"):
        for path in child.LAYERS[name]:
            _, *attrs = path.split(".")
            owner = engine
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            monkeypatch.setattr(owner, attrs[-1],
                                tracer.span(name)(getattr(owner, attrs[-1])))
    cfg = ModelConfig.default(sample_dt=0.1)
    engine.evolve(cfg, 1.0)
    names = [span[0] for span in tracer.spans]
    windows = round(1.0 / cfg.dt_collision)
    assert names == ["engine.evolve", "engine.Propagator"] + \
        ["engine.collision"] * windows
    assert all(span[3] == 0 for span in tracer.spans[1:])  # inside evolve


def test_a_temperature_sweep_steps_one_propagator_per_window(monkeypatch):
    # every point of a T_M sweep shares H_tot, so the sweep builds one
    # Propagator for all of them and steps it once per window up to the
    # window it reads: t = 1 is the end of the second window
    from qtransistor import engine, metrics
    from qtransistor.model import ModelConfig

    child = _load_child()
    tracer = child.Tracer()
    owners = {"metrics.sweep": metrics, "engine.Propagator": engine,
              "engine.collision": engine}
    for name, module in owners.items():
        for path in child.LAYERS[name]:
            _, *attrs = path.split(".")
            owner = module
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            monkeypatch.setattr(owner, attrs[-1],
                                tracer.span(name)(getattr(owner, attrs[-1])))
    cfg = ModelConfig.default()
    metrics.sweep(cfg, "T_M", [4.0, 6.0, 8.0, 10.0], t=1.0)
    names = [span[0] for span in tracer.spans]
    windows = round(1.0 / cfg.dt_collision)
    assert names == ["metrics.sweep", "engine.Propagator"] + \
        ["engine.collision"] * windows
    assert all(span[3] == 0 for span in tracer.spans[1:])  # inside sweep
