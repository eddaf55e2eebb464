"""Fresh-process launcher: one ``qtransistor`` command-line run, observed.

    python3 perfbench/child.py REPORT TRACE run --config FILE ...

Everything after TRACE is passed to ``qtransistor.cli.main`` unchanged, so
the process pays the imports and per-H core builds a command-line user
pays.  The launcher notes the monotonic clock when the first compute call
(``metrics.sweep`` or ``scenarios.build_tables``) starts.  With TRACE = 1
it also records a span (name, start, end, parent) around every call into
the public functions in ``LAYERS``, plus the sample counters behind the
per-layer ratios.  Spans stay in memory; REPORT is written as JSON when
the run ends.  The program's own code is not modified.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# span name -> public functions of ``qtransistor.<module>`` it covers
LAYERS = {
    "model.build_total_hamiltonian": ("model.build_total_hamiltonian",),
    "linalg.hermitian_eig": ("linalg.hermitian_eig",),
    "engine.Propagator": ("engine.Propagator.__init__",),
    "engine.collision": ("engine.Propagator.collision",),
    "engine.evolve": ("engine.evolve",),
    "metrics.sweep": ("metrics.sweep",),
    "nonmarkov.blp": ("nonmarkov.blp_series", "nonmarkov.blp_measure"),
    "scenarios.build_tables": ("scenarios.build_tables",),
    "output.write": ("output.write_table", "output.write_manifest"),
    "config.parse": ("config.parse_config", "config.parse_set_overrides"),
}

COMPUTE_ENTRIES = ("metrics.sweep", "scenarios.build_tables")


def _replace(path: str, make_wrapper) -> None:
    """Wrap ``qtransistor.<path>`` wherever the program refers to it.

    Functions imported by name into other modules are rebound there too,
    so calls through ``from .engine import evolve`` are seen as well.
    """
    module_name, *attrs = path.split(".")
    owner = sys.modules[f"qtransistor.{module_name}"]
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    original = getattr(owner, attrs[-1])
    wrapper = make_wrapper(original)
    setattr(owner, attrs[-1], wrapper)
    if isinstance(owner, type):
        return  # a method: the class attribute is the only reference
    for name, module in list(sys.modules.items()):
        if name == "qtransistor" or name.startswith("qtransistor."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class Tracer:
    """In-memory span recorder plus the counters behind the layer ratios."""

    def __init__(self):
        self.spans: list = []           # [name, start, end, parent index]
        self._stack: list = []
        self.samples_computed = 0
        self.samples_read = 0
        self.core_eighs = 0             # eigh calls on a freshly built H_tot
        self._last_h = None

    def span(self, name: str, after=None):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append([name, 0.0, 0.0, parent])
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.spans[index][1:3] = start, time.perf_counter()
                    self._stack.pop()
                if after is not None:
                    after(args, result)
                return result
            return traced
        return make

    def _built_h(self, args, h):
        self._last_h = h

    def _eigh(self, args, result):
        if args and args[0] is self._last_h:
            self.core_eighs += 1
            self._last_h = None

    def _evolved(self, args, traj):
        self.samples_computed += len(traj.times)
        if traj.qubit_states is not None:
            # state histories are consumed whole by the backflow search
            self.samples_read += len(traj.times)

    def _count_read(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.samples_read += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        hooks = {"model.build_total_hamiltonian": self._built_h,
                 "linalg.hermitian_eig": self._eigh,
                 "engine.evolve": self._evolved}
        for name, paths in LAYERS.items():
            for path in paths:
                _replace(path, self.span(name, hooks.get(name)))
        _replace("engine.Trajectory.index_at", self._count_read)

    def summary(self) -> dict:
        return {"spans": self.spans,
                "samples_computed": self.samples_computed,
                "samples_read": self.samples_read,
                "core_eighs": self.core_eighs}


def main(argv) -> int:
    report_path, trace, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    import qtransistor.cli as cli  # imports every program module

    report: dict = {"first_compute": None}
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    def mark_first_compute(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if report["first_compute"] is None:
                report["first_compute"] = time.monotonic()
            return fn(*args, **kwargs)
        return marked

    for path in COMPUTE_ENTRIES:
        _replace(path, mark_first_compute)
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            report.update(tracer.summary())
        report_path.write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
