"""Correctness gate that does not rely on the paper's magnitude targets.

Sweep tables: seeded rows are recomputed from scratch with a brute-force
reference (``linalg.unitary_exp`` -> ``linalg.partial_trace`` ->
``engine.local_heat_current`` on the joint state, then
``metrics.five_point_derivative`` over the modulating temperature) and
must match the table.  Backflow tables: N(cutoff) may not decrease, and it
must be at least the backflow of a seeded antipodal pair, again evolved
by brute force.  Byte-identical output across repeated runs of one seed
is checked by the caller.

Tolerances sit far above double-precision round-off of these small dense
problems (about 1e-13) and far below any physical change.
"""

from __future__ import annotations

import math
import random
from pathlib import Path
from typing import Dict, List, Set, Tuple

import numpy as np

from qtransistor.engine import local_heat_current
from qtransistor.linalg import (kron, partial_trace, trace_distance,
                                unitary_exp)
from qtransistor.metrics import five_point_derivative
from qtransistor.model import (ModelConfig, ancilla_thermal_state,
                               build_total_hamiltonian)

from workloads import BACKFLOW_PRESETS, Inputs

CURRENT_TOL = 1e-9      # absolute, on J_X and dJ_X/dT_M
ALPHA_RTOL = 1e-6       # relative, on alpha_X away from divergence
BACKFLOW_TOL = 1e-9     # absolute, on N(cutoff)
ROWS_CHECKED = 2        # seeded sweep rows recomputed per run

Table = Tuple[List[str], List[List[str]]]    # column names, raw rows
Miss = Tuple[str, int]                       # (table stem, row index)


def read_tables(out_dir: Path) -> Dict[str, Table]:
    """Every CSV table of one run: header names and raw string cells."""
    tables = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        names = [c.split("(", 1)[0] for c in header.lstrip("# ").split(",")]
        tables[path.stem] = (names, [line.split(",") for line in lines])
    return tables


def _joint(rho_sys: np.ndarray, env: np.ndarray, u: np.ndarray):
    return u @ np.kron(rho_sys, env) @ u.conj().T


def _setup(cfg: ModelConfig):
    env = kron(*[ancilla_thermal_state(cfg.env, x)
                 for x in cfg.attached_terminals])
    return build_total_hamiltonian(cfg), env, cfg.joint_dims()


def _ground(n_qubits: int) -> np.ndarray:
    rho = np.zeros((2 ** n_qubits,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    return rho


def reference_currents(cfg: ModelConfig, t: float) -> Dict[str, float]:
    """J_X(t) for every system qubit, left limit at window edges."""
    h, env, dims = _setup(cfg)
    dt = cfg.dt_collision
    done = max(0, math.ceil(t / dt - 1e-9) - 1)
    u_dt, u_t = unitary_exp(h, dt), unitary_exp(h, t - done * dt)
    rho = _ground(cfg.n_qubits)
    for _ in range(done):
        rho = partial_trace(_joint(rho, env, u_dt), dims,
                            range(cfg.n_qubits))
    joint = _joint(rho, env, u_t)
    return {x: local_heat_current(joint, h, x, cfg)
            for x in cfg.system_terminals}


def reference_row(cfg: ModelConfig, t: float) -> Dict[str, float]:
    """Currents, T_M-derivatives and alphas named like the sweep columns."""
    mod = cfg.modulating_terminal
    t0 = cfg.env.temperature(mod)
    cache: Dict[float, Dict[str, float]] = {}

    def at(temp: float) -> Dict[str, float]:
        if temp not in cache:
            cache[temp] = reference_currents(
                cfg.with_temperature(mod, temp), t)
        return cache[temp]

    row = {f"J_{x}": j for x, j in at(t0).items()}
    for x in cfg.system_terminals:
        row[f"dJ{x}_dTM"] = five_point_derivative(
            lambda temp: at(temp)[x], t0, cfg.stencil_h)
    if abs(row[f"dJ{mod}_dTM"]) > 1e-6:  # alpha diverges at T_c
        for x in cfg.system_terminals:
            if x != mod:
                row[f"alpha_{x}"] = row[f"dJ{x}_dTM"] / row[f"dJ{mod}_dTM"]
    return row


def _row_matches(names: List[str], cells: List[str],
                 ref: Dict[str, float]) -> bool:
    for name, cell in zip(names, cells):
        if name not in ref:
            continue
        got, want = float(cell), ref[name]
        tol = ALPHA_RTOL * max(1.0, abs(want)) if name.startswith("alpha_") \
            else CURRENT_TOL
        if not abs(got - want) <= tol:  # NaN cells fail too
            return False
    return True


def _point(inputs: Inputs, value: float) -> Tuple[ModelConfig, float]:
    cfg = ModelConfig.default(inputs.preset, **inputs.model)
    if inputs.axis == "g":
        return cfg.replace(g=value), inputs.t
    if inputs.axis == "T_M":
        return cfg.with_temperature(cfg.modulating_terminal, value), inputs.t
    return cfg, value


def check_sweep(inputs: Inputs, tables: Dict[str, Table],
                rng: random.Random) -> Tuple[Set[Miss], List[str]]:
    stem = f"sweep_{inputs.axis}"
    names, rows = tables[stem]
    misses: Set[Miss] = set()
    for i, (cells, want) in enumerate(zip(rows, inputs.grid)):
        if not abs(float(cells[0]) - want) <= 1e-11 * max(1.0, abs(want)):
            misses.add((stem, i))
    notes = []
    for i in sorted(rng.sample(range(len(rows)), min(ROWS_CHECKED,
                                                      len(rows)))):
        cfg, t = _point(inputs, inputs.grid[i])
        if not _row_matches(names, rows[i], reference_row(cfg, t)):
            misses.add((stem, i))
        notes.append(f"{stem} row {i} ({inputs.axis} = {inputs.grid[i]}) "
                     f"recomputed: {'MISS' if (stem, i) in misses else 'ok'}")
    return misses, notes


def reference_backflow(cfg: ModelConfig, bloch: np.ndarray,
                       t_max: float) -> Dict[str, np.ndarray]:
    """Accumulated trace-distance growth at every sample time up to t_max,
    per probe qubit, for the antipodal pair +-``bloch`` on that qubit and
    |0> on the others."""
    h, env, dims = _setup(cfg)
    n, steps = cfg.n_qubits, cfg.samples_per_collision
    us = [unitary_exp(h, cfg.sample_dt * (s + 1)) for s in range(steps)]
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]]))
    ground = np.diag([1.0, 0.0]).astype(complex)
    out = {}
    for site, terminal in enumerate(cfg.system_terminals):
        states = []
        for sign in (1.0, -1.0):
            probe = 0.5 * (np.eye(2) + sign * sum(
                r * p for r, p in zip(bloch, paulis)))
            states.append(kron(*[probe if i == site else ground
                                 for i in range(n)]))
        series = [trace_distance(*(partial_trace(s, [2] * n, [site])
                                   for s in states))]
        for _ in range(int(round(t_max / cfg.dt_collision))):
            for u in us:
                joints = [_joint(s, env, u) for s in states]
                series.append(trace_distance(
                    *(partial_trace(j, dims, [site]) for j in joints)))
            states = [partial_trace(j, dims, range(n)) for j in joints]
        growth = np.clip(np.diff(series), 0.0, None)
        out[terminal] = np.concatenate([[0.0], np.cumsum(growth)])
    return out


def check_backflow(inputs: Inputs, tables: Dict[str, Table],
                   rng: random.Random) -> Tuple[Set[Miss], List[str]]:
    misses: Set[Miss] = set()
    for preset in BACKFLOW_PRESETS:
        stem = f"fig12_{preset}"
        names, rows = tables[stem]
        values = np.array([[float(c) for c in r[1:len(names) - 1]]
                           for r in rows])
        for i in range(1, len(rows)):
            if not np.all(values[i] >= values[i - 1]):
                misses.add((stem, i))
    notes = [f"N(cutoff) non-decreasing: checked in "
             f"{len(BACKFLOW_PRESETS)} tables"]
    preset = rng.choice(BACKFLOW_PRESETS)
    theta, phi = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0, 2 * math.pi)
    bloch = np.array([math.sin(theta) * math.cos(phi),
                      math.sin(theta) * math.sin(phi), math.cos(theta)])
    cfg = ModelConfig.default(preset, **inputs.model)
    stem = f"fig12_{preset}"
    names, rows = tables[stem]
    for terminal, cum in reference_backflow(cfg, bloch, inputs.t_max).items():
        col = names.index(f"N_{terminal}")
        for i, cells in enumerate(rows):
            pair = cum[int(round(float(cells[0]) / cfg.sample_dt))]
            if not float(cells[col]) >= pair - BACKFLOW_TOL:
                misses.add((stem, i))
        notes.append(f"{stem} N_{terminal}(t = {float(rows[-1][0]):g}) = "
                     f"{float(rows[-1][col]):.6e}; seeded pair (theta = "
                     f"{theta:.4f}, phi = {phi:.4f}): {pair:.6e}")
    return misses, notes


def check(inputs: Inputs, tables: Dict[str, Table],
          rng: random.Random) -> Tuple[Set[Miss], List[str]]:
    """Rows that fail the gate, as (table, row index), plus report lines."""
    if inputs.axis:
        return check_sweep(inputs, tables, rng)
    return check_backflow(inputs, tables, rng)
