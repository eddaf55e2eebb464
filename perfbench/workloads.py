"""Workload definitions and the seed -> program-input generator.

Each workload turns a seed into the exact inputs a command-line user would
give ``qtransistor run``: one INI document plus ``--set`` pairs.  The seed
shifts grid origins and nudges the bath temperatures T_L / T_R; it never
changes the number of grid points, the horizon or the search grid, so the
amount of work is the same for every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple


@dataclass(frozen=True)
class Inputs:
    """Generated program inputs plus what the benchmark needs to check them."""

    ini: str
    sets: Tuple[str, ...]
    expected_rows: int
    preset: str
    model: Dict[str, float]             # model overrides the program receives
    axis: str = ""                      # sweep axis; "" for the backflow run
    grid: Tuple[float, ...] = ()
    t: float = 0.0                      # evaluation time of T_M / g sweeps
    t_max: float = 0.0                  # backflow horizon

    def argv(self, ini_path: str, out_dir: str) -> List[str]:
        cmd = ["run", "--config", ini_path, "--out", out_dir]
        for pair in self.sets:
            cmd += ["--set", pair]
        return cmd


def _nudged_baths(rng: random.Random) -> Dict[str, float]:
    return {"T_L": round(4.0 + rng.uniform(-0.1, 0.1), 6),
            "T_R": round(10.0 + rng.uniform(-0.1, 0.1), 6)}


def _set_pairs(model: Dict[str, float]) -> Tuple[str, ...]:
    return tuple(f"{k}={v!r}" for k, v in model.items())


def _sweep_grid(start: float, stop: float, step: float) -> Tuple[float, ...]:
    """The grid ``qtransistor`` builds from a [sweep] section."""
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(round(start + step * i, 12) for i in range(n))


def sweep_inputs(axis: str, start: float, step: float, n: int, t: float,
                 model: Dict[str, float]) -> Inputs:
    """A [sweep] config of ``n`` points from ``start``; ``t`` for T_M / g."""
    stop = round(start + step * (n - 1), 6)
    grid = _sweep_grid(start, stop, step)
    if len(grid) != n:
        raise ValueError(f"{axis} grid has {len(grid)} points, not {n}")
    run = f"[run]\nworkers = 1\nt = {t!r}\n" if axis != "t" else \
        "[run]\nworkers = 1\n"
    ini = (run + "\n[model]\npreset = baseline\n\n[sweep]\n"
           f"axis = {axis}\nstart = {start!r}\nstop = {stop!r}\n"
           f"step = {step!r}\n")
    return Inputs(ini=ini, sets=_set_pairs(model), expected_rows=n,
                  preset="baseline", model=model, axis=axis, grid=grid, t=t)


def _coupling(rng: random.Random) -> Inputs:
    # 11 distinct couplings: each point builds and diagonalises a new H_tot
    start = round(3.9 + rng.uniform(0.0, 0.02), 6)
    return sweep_inputs("g", start, 0.02, 11, 1.0, _nudged_baths(rng))


def _temperature(rng: random.Random) -> Inputs:
    start = round(4.0 + rng.uniform(0.0, 0.25), 6)
    return sweep_inputs("T_M", start, 0.25, 24, 1.0, _nudged_baths(rng))


def _time(rng: random.Random) -> Inputs:
    # the time grid stays 0.01 .. 10: shifting it would change the horizon
    return sweep_inputs("t", 0.01, 0.01, 1000, 0.0, _nudged_baths(rng))


BACKFLOW_PRESETS = ("baseline", "symmetric", "asymmetric")


def backflow_inputs(model: Dict[str, float], t_max: float,
                    blp: Tuple[str, ...] = ()) -> Inputs:
    """fig12 up to ``t_max``; ``blp`` holds extra ``--set`` search keys."""
    ini = f"[run]\nscenario = fig12\nworkers = 1\nt_max = {t_max!r}\n"
    cutoffs = int(round(t_max / 0.1))
    return Inputs(ini=ini, sets=_set_pairs(model) + blp, preset="baseline",
                  model=model, expected_rows=cutoffs * len(BACKFLOW_PRESETS),
                  t_max=t_max)


def _backflow(rng: random.Random) -> Inputs:
    # the default Bloch search grid, with the horizon cut to 1.5
    return backflow_inputs(_nudged_baths(rng), 1.5)


# Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS: Dict[str, Callable[[random.Random], Inputs]] = {
    "coupling_sweep": _coupling,
    "temperature_sweep": _temperature,
    "time_sweep": _time,
    "backflow": _backflow,
}


def generate(name: str, seed: int) -> Inputs:
    """Program inputs for workload ``name``; equal seeds give equal inputs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))

