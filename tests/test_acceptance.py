"""Acceptance checks: headline quantitative targets and always-on invariants.

Each test prints one ``criterion NN: PASS|FAIL`` line with the measured
values next to their targets, then asserts that every clause held.  The
checks run the full stack (engine -> metrics -> nonmarkov) at the stated
tolerances; nothing here is mocked or shortcut.
"""

import dataclasses

import numpy as np

from qtransistor import linalg as la
from qtransistor.engine import evolve, initial_state, local_heat_current
from qtransistor.metrics import (amplification, find_critical_TM,
                                 five_point_derivative, sweep)
from qtransistor.model import (ModelConfig, ancilla_thermal_state,
                               build_total_hamiltonian)
from qtransistor.nonmarkov import SearchConfig, blp_measure


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    return np.round(np.arange(start, stop + 1e-9, step), 10)


def _alphas(result, terminal: str) -> np.ndarray:
    return result.alphas[terminal]


def _report(num: int, checks) -> None:
    """One verdict line per criterion; any missed clause fails the test."""
    ok = all(good for _, good, _ in checks)
    detail = "; ".join(f"{name}: {'ok' if good else 'MISS'} [{info}]"
                       for name, good, info in checks)
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_critical_temperature_and_coupling_monotonicity():
    roots = {}
    for g in (3.5, 4.0, 4.5):
        try:
            roots[g] = find_critical_TM(ModelConfig.default(g=g), 1.0,
                                        (4.0, 10.0))
        except ValueError as exc:
            roots[g] = str(exc)
    found = {g: r for g, r in roots.items() if isinstance(r, float)}
    ok_value = 4.0 in found and abs(found[4.0] - 6.65) <= 0.05
    ok_mono = len(found) == 3 and roots[3.5] < roots[4.0] < roots[4.5]
    _report(1, [
        ("T_M^critical(g=4) = 6.65 +- 0.05", ok_value,
         f"got {roots[4.0]}"),
        ("critical temperature increases over g = 3.5, 4, 4.5", ok_mono,
         " | ".join(f"g={g}: {roots[g]}" for g in sorted(roots))),
    ])


def test_criterion_02_nonlinear_ancilla_amplification_triple():
    cases = {
        "linear": ModelConfig.default(),
        "transmon": ModelConfig.default(kind="qutrit-nonlinear",
                                        epsilon=-0.01),
        "kerr": ModelConfig.default(kind="qutrit-nonlinear", epsilon=0.01),
    }
    targets = {"linear": 36.27, "transmon": 38.98, "kerr": 34.00}
    left = {n: amplification(c, 1.0, "L").alpha for n, c in cases.items()}
    # contingency convention: evaluated only when the left limit misses
    right = {n: amplification(c, 1.0, "L", boundary="right").alpha
             for n, c in cases.items()}
    checks = []
    for name in ("linear", "transmon", "kerr"):
        hit_left = abs(left[name] - targets[name]) <= 0.5
        hit_right = abs(right[name] - targets[name]) <= 0.5
        checks.append((
            f"alpha_L({name}) = {targets[name]} +- 0.5", hit_left or hit_right,
            f"left {left[name]:.4f}, right {right[name]:.4f}"))
    order = left["kerr"] < left["linear"] < left["transmon"]
    checks.append(("ordering kerr < linear < transmon", order,
                   f"{left['kerr']:.4f} / {left['linear']:.4f} / "
                   f"{left['transmon']:.4f}"))
    _report(2, checks)


def test_criterion_03_detached_environment_maxima():
    times = _grid(0.1, 3.0, 0.1)
    cfg = ModelConfig.default(T_M=8.0)  # T_L=4, T_R=10 kept from baseline
    right_det = sweep(cfg.replace(attach_R=False), "t", times,
                      terminals=("L", "R"))
    left_det = sweep(cfg.replace(attach_L=False), "t", times,
                     terminals=("R",))
    a_l = _alphas(right_det, "L")
    a_r_pinned = _alphas(right_det, "R")
    a_r = _alphas(left_det, "R")
    i_l, i_r = int(np.nanargmax(a_l)), int(np.nanargmax(a_r))
    _report(3, [
        ("right detached: max_t alpha_L = 13.85 +- 0.5",
         abs(a_l[i_l] - 13.85) <= 0.5, f"max {a_l[i_l]:.4f}"),
        ("right detached: maximum at t = 0.7 +- 0.05",
         abs(times[i_l] - 0.7) <= 0.05, f"at t = {times[i_l]}"),
        ("right detached: |alpha_R| < 0.1 over the scan",
         bool(np.nanmax(np.abs(a_r_pinned)) < 0.1),
         f"max |alpha_R| = {np.nanmax(np.abs(a_r_pinned)):.2e}"),
        ("left detached: max_t alpha_R = 2.97 +- 0.2",
         abs(a_r[i_r] - 2.97) <= 0.2, f"max {a_r[i_r]:.4f}"),
        ("left detached: maximum at t = 0.7 +- 0.05",
         abs(times[i_r] - 0.7) <= 0.05, f"at t = {times[i_r]}"),
    ])


def test_criterion_04_amplification_jump_periodicity():
    times = _grid(1.0, 5.0, 0.01)
    series = _alphas(sweep(ModelConfig.default(), "t", times,
                           terminals=("L",)), "L")
    finite = bool(np.all(np.isfinite(series)))
    x = series - series.mean()
    corr = np.correlate(x, x, "full")[x.size - 1:]
    lags = 0.01 * np.arange(x.size)
    window = (lags > 0.0) & (lags <= 1.0)
    lag = float(lags[window][np.argmax(corr[window])])
    _report(4, [
        ("alpha_L(t) finite over [1, 5]", finite,
         f"{np.count_nonzero(~np.isfinite(series))} non-finite points"),
        ("autocorrelation peak at lag 0.5 +- 0.01", abs(lag - 0.5) <= 0.01,
         f"peak lag {lag:.2f}"),
    ])


def test_criterion_05_coupling_sweep_structure():
    grid = _grid(3.5, 4.5, 0.01)
    base = sweep(ModelConfig.default(), "g", grid, terminals=("L",), t=1.0)
    a_base = _alphas(base, "L")
    below = float(a_base[np.searchsorted(grid, 3.99)])
    above = float(a_base[np.searchsorted(grid, 4.01)])
    g_peak = float(grid[np.nanargmax(np.abs(a_base))])

    detached = ModelConfig.default(T_M=8.0)
    right_det = sweep(detached.replace(attach_R=False), "g", grid,
                      terminals=("L",), t=0.7)
    left_det = sweep(detached.replace(attach_L=False), "g", grid,
                     terminals=("R",), t=0.7)
    g_right = float(grid[np.nanargmax(np.abs(_alphas(right_det, "L")))])
    g_left = float(grid[np.nanargmax(np.abs(_alphas(left_det, "R")))])
    _report(5, [
        ("alpha_L > 0 just below g = 4", below > 0.0,
         f"alpha_L(3.99) = {below:.4f}"),
        ("alpha_L < 0 just above g = 4", above < 0.0,
         f"alpha_L(4.01) = {above:.4f}"),
        ("|alpha_L| maximal at g = 4 +- 0.05", abs(g_peak - 4.0) <= 0.05,
         f"peak at g = {g_peak}"),
        ("right detached peak at g = 4.05 +- 0.05",
         abs(g_right - 4.05) <= 0.05, f"peak at g = {g_right}"),
        ("left detached peak at g = 4.2 +- 0.05",
         abs(g_left - 4.2) <= 0.05, f"peak at g = {g_left}"),
    ])


def test_criterion_06_symmetric_and_asymmetric_criticals():
    targets = {"symmetric": (1.75, (0.2, 5.0)),
               "asymmetric": (10.45, (5.0, 12.0))}
    checks = []
    for preset, (target, bracket) in targets.items():
        try:
            root = find_critical_TM(ModelConfig.default(preset), 0.4, bracket)
            ok, info = abs(root - target) <= 0.05, f"got {root:.4f}"
        except ValueError as exc:
            ok, info = False, str(exc)
        checks.append((f"{preset}: T_M^critical = {target} +- 0.05", ok, info))
    _report(6, checks)


def test_criterion_07_qubit_ancilla_maxima():
    cfg = ModelConfig.default(kind="qubit")
    times = _grid(0.1, 10.0, 0.1)
    scan = sweep(cfg, "t", times, terminals=("L", "R"))
    a_l, a_r = _alphas(scan, "L"), _alphas(scan, "R")
    i_l, i_r = int(np.nanargmax(a_l)), int(np.nanargmax(a_r))

    temps = _grid(4.0, 12.0, 0.5)
    ramp = sweep(cfg, "T_M", temps, terminals=("L", "R"), t=9.7)
    mono_l = bool(np.all(np.diff(_alphas(ramp, "L")) > 0.0))
    mono_r = bool(np.all(np.diff(_alphas(ramp, "R")) > 0.0))
    _report(7, [
        ("max_t alpha_L = 37.46 +- 1", abs(a_l[i_l] - 37.46) <= 1.0,
         f"max {a_l[i_l]:.4f} at t = {times[i_l]}"),
        ("max_t alpha_R = 73.67 +- 1.5", abs(a_r[i_r] - 73.67) <= 1.5,
         f"max {a_r[i_r]:.4f} at t = {times[i_r]}"),
        ("alpha_L maximum at t = 9.7 +- 0.1", abs(times[i_l] - 9.7) <= 0.1,
         f"at t = {times[i_l]}"),
        ("alpha_R maximum at t = 9.7 +- 0.1", abs(times[i_r] - 9.7) <= 0.1,
         f"at t = {times[i_r]}"),
        ("alpha_L increases with T_M at t = 9.7", mono_l,
         f"alpha_L: {_alphas(ramp, 'L')[0]:.4f} -> "
         f"{_alphas(ramp, 'L')[-1]:.4f}"),
        ("alpha_R increases with T_M at t = 9.7", mono_r,
         f"alpha_R: {_alphas(ramp, 'R')[0]:.4f} -> "
         f"{_alphas(ramp, 'R')[-1]:.4f}"),
    ])


def test_criterion_08_backflow_confined_to_early_times():
    checks = []
    for preset in ("baseline", "symmetric", "asymmetric"):
        cfg = ModelConfig.default(preset)
        late = {}
        for terminal in ("L", "M", "R"):
            res = blp_measure(cfg, terminal, 3.0)
            d = np.diff(res.distance_series)
            ends = res.times[1:]
            bad = (d > 1e-3) & (ends > 1.5)
            late[terminal] = (int(np.count_nonzero(bad)),
                              float(ends[bad][-1]) if bad.any() else None,
                              res.value)
        quiet = all(n == 0 for n, _, _ in late.values())
        info = ", ".join(
            f"{t}: N = {v:.4f}, {n} late growths"
            + (f" (last at t = {last})" if last is not None else "")
            for t, (n, last, v) in late.items())
        checks.append((f"{preset}: no backflow beyond t = 1.5", quiet, info))

        series = _alphas(sweep(cfg, "t", _grid(1.5, 4.0, 0.01),
                               terminals=("L",)), "L")
        sign = np.sign(np.diff(series))
        sign = sign[sign != 0.0]
        flips = int(np.count_nonzero(sign[1:] != sign[:-1]))
        checks.append((
            f"{preset}: alpha_L keeps jumping beyond t = 1.5", flips >= 3,
            f"{flips} derivative sign changes in [1.5, 4]"))
    _report(8, checks)


def test_criterion_09_two_qubit_amplification_window():
    grid = _grid(0.2, 4.0, 0.05)  # appendixA's default grid
    cfg = ModelConfig.default("appendixA", T_R=4.0)
    mags = np.abs(_alphas(sweep(cfg, "T_M", grid, terminals=("R",),
                                t=1.0), "R"))
    above = mags > 1.0
    inside = bool(np.all(above[grid <= 2.488 - 0.05]))
    outside = bool(~np.any(above[grid >= 2.488 + 0.05]))
    boundary = float(grid[np.where(above)[0][-1]]) if above.any() else None

    equal = cfg.replace(coupling=dataclasses.replace(cfg.coupling,
                                                     omega_R=1.0))
    flat = np.abs(_alphas(sweep(equal, "T_M", grid, terminals=("R",),
                                t=1.0), "R"))
    _report(9, [
        ("|alpha| > 1 up to T_L = 2.488 - 0.05", inside,
         f"min |alpha| below = {mags[grid <= 2.488 - 0.05].min():.4f}"),
        ("|alpha| <= 1 beyond T_L = 2.488 + 0.05", outside,
         f"last |alpha| > 1 at T_L = {boundary}"),
        ("gap-matched qubits never amplify",
         bool(np.nanmax(flat) <= 1.0), f"max |alpha| = {np.nanmax(flat):.4f}"),
    ])


def _env_product(cfg: ModelConfig) -> np.ndarray:
    parts = [ancilla_thermal_state(cfg.env, t) for t in cfg.attached_terminals]
    return la.kron(*parts)


def test_criterion_10_property_suite():
    checks = []

    traj = evolve(ModelConfig.default(sample_dt=0.1), 20.0, store_states=True)
    states = np.asarray(traj.system_states)
    traces = np.einsum("tii->t", states)
    eigs = np.linalg.eigvalsh(states)
    purity = np.einsum("tij,tji->t", states, states).real
    checks.append(("trace preserved over 40 collisions",
                   bool(np.max(np.abs(traces - 1.0)) < 1e-9),
                   f"max |tr - 1| = {np.max(np.abs(traces - 1.0)):.2e}"))
    checks.append(("states stay positive",
                   bool(eigs.min() > -1e-8), f"min eig = {eigs.min():.2e}"))
    checks.append(("purity bounded by 1",
                   bool(purity.max() <= 1.0 + 1e-9),
                   f"max purity = {purity.max():.12f}"))

    cfg = ModelConfig.default(sample_dt=0.25)
    h = build_total_hamiltonian(cfg)
    joint0 = la.kron(initial_state(3), _env_product(cfg))
    delta, tau = 1e-4, 0.25
    u0 = la.unitary_exp(h, tau)
    joint = u0 @ joint0 @ u0.conj().T
    worst = 0.0
    for i, x in enumerate(("L", "M", "R")):
        h_x = -(cfg.splitting(x) / 2.0) * np.diag([1.0, -1.0])
        vals = []
        for s in (+1, -1):
            u = la.unitary_exp(h, tau + s * delta)
            jt = u @ joint0 @ u.conj().T
            red = la.partial_trace(jt, cfg.joint_dims(), [i])
            vals.append(np.trace(red @ h_x).real)
        fd = -(vals[0] - vals[1]) / (2 * delta)
        worst = max(worst, abs(fd - local_heat_current(joint, h, x, cfg)))
    checks.append(("commutator current matches finite difference",
                   worst < 1e-5, f"worst gap = {worst:.2e}"))

    stencil = five_point_derivative(lambda x: x ** 3 - 4.0 * x, 2.0, 0.05)
    checks.append(("five-point stencil exact on cubics",
                   abs(stencil - 8.0) < 1e-10, f"error = {stencil - 8.0:.2e}"))

    base = evolve(ModelConfig.default(), 1.0)
    mirrored = evolve(ModelConfig.default(T_L=10.0, T_R=4.0), 1.0)
    swap_gap = max(
        np.max(np.abs(base.currents["L"] - mirrored.currents["R"])),
        np.max(np.abs(base.currents["R"] - mirrored.currents["L"])))
    checks.append(("L <-> R swap symmetry", bool(swap_gap < 1e-9),
                   f"max current gap = {swap_gap:.2e}"))

    silent = evolve(ModelConfig.default(g=0.0), 1.0)
    peak = max(np.max(np.abs(silent.currents[x])) for x in ("L", "M", "R"))
    backflow = blp_measure(ModelConfig.default(sample_dt=0.1, g=0.0), "M",
                           1.5, SearchConfig(6, 8, 5e-3)).value
    checks.append(("g = 0 leaves all currents zero", bool(peak < 1e-12),
                   f"max |J| = {peak:.2e}"))
    checks.append(("g = 0 gives zero backflow", bool(backflow < 1e-12),
                   f"N = {backflow:.2e}"))

    grid = [5.0, 7.5, 10.0]
    first = sweep(ModelConfig.default(), "T_M", grid, t=1.0)
    again = sweep(ModelConfig.default(), "T_M", grid, t=1.0)
    identical = first.errors == again.errors and all(
        np.array_equal(a[x], b[x], equal_nan=True)
        for a, b in ((first.currents, again.currents),
                     (first.derivatives, again.derivatives),
                     (first.alphas, again.alphas))
        for x in a)
    checks.append(("a repeated sweep gives the same bits", identical,
                   f"{len(grid)} points compared bit-for-bit"))

    _report(10, checks)
