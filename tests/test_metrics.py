"""Exact derivatives against the stencil, amplification factors,
criticality, sweeps."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtransistor import engine, metrics
from qtransistor.engine import evolve
from qtransistor.metrics import (AmplificationResult, SweepResult,
                                 amplification, current_at,
                                 find_critical_TM, five_point_derivative,
                                 sweep)
from qtransistor.model import COUPLING_PRESETS, ENV_KINDS, ModelConfig
from qtransistor.output import render_table, sweep_table


def coarse(**over):
    return ModelConfig.default(sample_dt=0.1, **over)


# ---------------------------------------------------------------- stencil

def test_stencil_kills_constants():
    assert five_point_derivative(lambda x: 3.7, 1.0, 0.05) == 0.0


def test_stencil_exact_on_cubic():
    # exact through degree 4, up to rounding
    d = five_point_derivative(lambda x: x ** 3, 2.0, 0.05)
    assert d == pytest.approx(12.0, abs=1e-10)


def test_stencil_sin_error_bound():
    d = five_point_derivative(math.sin, 1.0, 0.05)
    assert abs(d - math.cos(1.0)) < 6.25e-6


def test_stencil_fourth_order_scaling():
    # halving h shrinks the error ~16x for smooth f
    err = [abs(five_point_derivative(math.sin, 1.0, h) - math.cos(1.0))
           for h in (0.05, 0.025)]
    assert 8.0 < err[0] / err[1] < 32.0


def test_stencil_rejects_bad_step():
    with pytest.raises(ValueError):
        five_point_derivative(math.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        five_point_derivative(math.sin, 1.0, -0.05)


# ------------------------------------------------------------- current_at

def test_current_vanishes_without_coupling():
    cfg = coarse(g=0.0)
    for x in ("L", "M", "R"):
        assert abs(current_at(cfg, 0.5, x)) < 1e-12


def test_currents_start_negative():
    cfg = coarse()
    for x in ("L", "M", "R"):
        assert current_at(cfg, 0.2, x) < 0.0


def test_current_matches_trajectory_entry():
    cfg = coarse()
    traj = evolve(cfg, 1.0)
    j = current_at(cfg, 0.4, "M")
    assert j == traj.currents["M"][traj.index_at(0.4)]


def test_current_rejects_unknown_terminal():
    with pytest.raises(ValueError, match="unknown terminal"):
        current_at(coarse(), 0.5, "Q")


# ---------------------------------------------------------- amplification

@pytest.fixture(scope="module")
def baseline_alpha_L():
    return amplification(ModelConfig.default(), 1.0, "L")


def test_alpha_is_ratio_of_stored_derivatives(baseline_alpha_L):
    r = baseline_alpha_L
    assert r.alpha == r.dJX_dTM / r.dJM_dTM
    assert not r.diverged and math.isfinite(r.alpha)


def test_result_rejects_inconsistent_fields():
    with pytest.raises(ValueError, match="inconsistent"):
        AmplificationResult(terminal="L", time=1.0, alpha=2.0,
                            dJX_dTM=1.0, dJM_dTM=1.0)
    ok = AmplificationResult(terminal="L", time=1.0, alpha=0.5,
                             dJX_dTM=1.0, dJM_dTM=2.0)
    assert ok.alpha == 0.5
    # marked-divergent results skip the ratio check
    nan = AmplificationResult(terminal="L", time=1.0, alpha=math.nan,
                              dJX_dTM=0.0, dJM_dTM=0.0, diverged=True)
    assert math.isnan(nan.alpha)


def test_amplification_rejects_modulating_and_unknown_terminal():
    cfg = coarse()
    with pytest.raises(ValueError, match="modulating"):
        amplification(cfg, 0.5, "M")
    with pytest.raises(ValueError, match="unknown terminal"):
        amplification(cfg, 0.5, "X")


def test_divergence_marker_is_a_value(monkeypatch):
    # an absurdly large tolerance forces the marker path
    monkeypatch.setattr(metrics, "DIVERGENCE_TOL", 1e9)
    r = amplification(coarse(), 0.5, "L")
    assert r.diverged and math.isnan(r.alpha)
    assert math.isfinite(r.dJX_dTM) and math.isfinite(r.dJM_dTM)


def test_both_terminals_share_the_modulating_derivative():
    cfg = coarse()
    a = amplification(cfg, 0.5, "L")
    b = amplification(cfg, 0.5, "R")
    assert a.dJM_dTM == b.dJM_dTM
    assert a.dJX_dTM != b.dJX_dTM


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(COUPLING_PRESETS), st.sampled_from(ENV_KINDS),
       st.sampled_from((None, "L", "M", "R")), st.floats(0.5, 12.0),
       st.sampled_from((0.5, 1.0)))
@pytest.mark.parametrize("boundary", ("left", "right"))
def test_amplification_matches_the_stencil_over_evolve_currents(
        boundary, preset, kind, detached, T, t):
    # the five-point stencil over evolve's currents converges to the
    # exact derivatives at fourth order: its gap to them shrinks about
    # 16x when h halves, wherever that gap is above the stencil's
    # round-off.  t is a window edge and, for evolve, the horizon.
    over = {"kind": kind, "sample_dt": 0.1}
    if detached is not None:
        over[f"attach_{detached}"] = False
    base = ModelConfig.default(preset, **over)
    mod = base.modulating_terminal
    cfg = base.with_temperature(mod, T)
    exact = {}
    for x in cfg.system_terminals:
        if x != mod:
            got = amplification(cfg, t, x, boundary=boundary)
            exact[x], exact[mod] = got.dJX_dTM, got.dJM_dTM

    runs = {}

    def current(x):
        def at(temp):
            if temp not in runs:
                runs[temp] = evolve(cfg.with_temperature(mod, temp), t,
                                    boundary=boundary)
            return runs[temp].current(x, t)
        return at

    h = 0.02 * T  # h E / T^2 stays small down to T = 0.5
    for x, d in exact.items():
        gap, half = (abs(five_point_derivative(current(x), T, step) - d)
                     for step in (h, h / 2))
        assert half <= 1e-11 or 8.0 < gap / half < 32.0, (x, gap, half)


def test_halving_h_shows_fourth_order_on_dynamics(baseline_alpha_L):
    cfg = ModelConfig.default()
    exact = baseline_alpha_L

    def stencil(x, h):
        return five_point_derivative(
            lambda T: current_at(cfg.with_temperature("M", T), 1.0, x),
            10.0, h)

    # the stencil's gap to the exact derivative carries a clean h^4
    # signature ...
    d1, d2 = (abs(stencil("M", h) - exact.dJM_dTM) for h in (0.1, 0.05))
    assert 8.0 < d1 / d2 < 32.0
    # ... while its alpha already agrees with the exact one
    alpha = stencil("L", 0.05) / stencil("M", 0.05)
    assert abs(alpha - exact.alpha) < 1e-8 * max(1.0, abs(exact.alpha))


def test_two_qubit_derivative_keeps_its_sign_at_low_temperature():
    # appendixA at T_L = 0.25: the exact dJ_L/dT_L is negative, and a
    # stencil with a small enough step agrees; at h = 0.05 a stencil
    # reads +1.2e-7
    cfg = ModelConfig.default("appendixA", T_R=4.0).with_temperature(
        "L", 0.25)
    got = amplification(cfg, 1.0, "R").dJM_dTM
    ref = five_point_derivative(
        lambda T: current_at(cfg.with_temperature("L", T), 1.0, "L"),
        0.25, 0.005)
    assert got < 0.0
    assert abs(got - ref) < 1e-10


# -------------------------------------------------------------- critical T

def test_bad_bracket_rejected():
    with pytest.raises(ValueError, match="bad bracket"):
        find_critical_TM(coarse(), 0.5, (10.0, 4.0))


def count_reader_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return engine.sample_tangents(*args, **kwargs)

    monkeypatch.setattr(metrics, "sample_tangents", counted)
    return calls


def test_no_sign_change_reports_both_endpoints(monkeypatch):
    calls = count_reader_calls(monkeypatch)
    # the modulating derivative keeps one sign on [4, 10] at t = 1
    with pytest.raises(ValueError) as exc:
        find_critical_TM(ModelConfig.default(), 1.0, (4.0, 10.0))
    msg = str(exc.value)
    assert "no sign change" in msg
    assert "dJ(4.0) = " in msg and "dJ(10.0) = " in msg
    # both endpoints from one call: the scan's ends
    assert len(calls) == 1
    assert len(calls[0][0]) == metrics.CRITICAL_SCAN_POINTS
    temps = [c.env.temperature("M") for c in calls[0][0]]
    assert temps[0] == 4.0 and temps[-1] == 10.0


def with_derivative(monkeypatch, djm):
    """Make the modulating derivative read djm(T_M) in ``metrics``; the
    calls are counted, one list of temperatures per call."""
    calls = []

    def fake(configs, times, boundary="left"):
        temps = [c.env.temperature("M") for c in configs]
        calls.append(temps)
        deriv = np.zeros((len(configs), len(times), 3))
        deriv[:, :, 1] = np.array([djm(T) for T in temps])[:, None]
        return np.zeros_like(deriv), deriv

    monkeypatch.setattr(metrics, "sample_tangents", fake)
    return calls


def roots_named(message):
    return [float(x) for x in
            re.search(r"at T = (.*)$", message).group(1).split(", ")]


def test_every_root_of_a_two_root_derivative_is_named(monkeypatch):
    # both ends share a sign, so the ends alone show no sign change
    calls = with_derivative(monkeypatch, lambda T: (T - 5.3) * (T - 8.1))
    with pytest.raises(ValueError, match="2 roots") as exc:
        find_critical_TM(ModelConfig.default(), 1.0, (4.0, 10.0))
    found = roots_named(str(exc.value))
    assert len(found) == 2
    assert abs(found[0] - 5.3) < 1e-3 and abs(found[1] - 8.1) < 1e-3
    # one scan, then both brackets halved together, one call per step
    assert len(calls[0]) == metrics.CRITICAL_SCAN_POINTS
    assert all(len(temps) == 2 for temps in calls[1:])


def test_one_root_is_returned_and_a_scan_zero_is_a_root(monkeypatch):
    with_derivative(monkeypatch, lambda T: 6.65 - T)
    root = find_critical_TM(ModelConfig.default(), 1.0, (4.0, 10.0))
    assert abs(root - 6.65) < 1e-3
    # 7.0 is a scan point; the derivative is exactly zero there only
    with_derivative(monkeypatch, lambda T: 0.0 if T == 7.0 else T - 7.0)
    assert find_critical_TM(ModelConfig.default(), 1.0, (4.0, 10.0)) == 7.0


def test_bisection_brackets_a_real_root():
    # on a 0.004 sample grid the derivative flips sign inside [4, 10]
    # at t = 0.804 (it crosses zero near T = 5.7)
    cfg = ModelConfig.default(sample_dt=0.004)
    root = find_critical_TM(cfg, 0.804, (4.0, 10.0))
    assert 4.0 < root < 10.0
    lo = amplification(cfg.with_temperature("M", root - 0.02), 0.804, "L")
    hi = amplification(cfg.with_temperature("M", root + 0.02), 0.804, "L")
    assert lo.dJM_dTM > 0.0 > hi.dJM_dTM


# ------------------------------------------------------------------ sweeps

@pytest.fixture(scope="module")
def temperature_sweep():
    cfg = ModelConfig.default()
    return sweep(cfg, "T_M", [5.0, 7.5, 10.0], t=1.0)


def test_sweep_validates_arguments():
    cfg = coarse()
    with pytest.raises(ValueError, match="unknown sweep axis"):
        sweep(cfg, "delta", [1.0, 2.0], t=0.5)
    with pytest.raises(ValueError, match="unknown terminals"):
        sweep(cfg, "T_M", [5.0, 6.0], terminals=("L", "Q"), t=0.5)
    with pytest.raises(ValueError, match="needs an evaluation time"):
        sweep(cfg, "T_M", [5.0, 6.0])
    with pytest.raises(ValueError, match="sample_dt multiples"):
        sweep(cfg, "t", [0.25])
    with pytest.raises(ValueError, match="nonempty"):
        sweep(cfg, "T_M", [], t=0.5)
    with pytest.raises(ValueError, match="ascending"):
        sweep(cfg, "T_M", [5.0, 5.0], t=0.5)


def test_sweep_defaults_to_non_modulating_terminals(temperature_sweep):
    assert list(temperature_sweep.alphas) == ["L", "R"]
    assert list(temperature_sweep.currents) == ["L", "M", "R"]
    assert list(temperature_sweep.derivatives) == ["L", "M", "R"]
    assert temperature_sweep.errors == ["", "", ""]


def test_sweep_rejects_the_modulating_terminal(monkeypatch):
    calls = count_reader_calls(monkeypatch)
    with pytest.raises(ValueError, match="terminal 'M' is the modulating"):
        sweep(ModelConfig.default(), "T_M", [5.0, 6.0], terminals=("M", "L"),
              t=1.0)
    assert not calls  # raised before any point ran


def test_time_sweep_matches_pointwise_amplification():
    cfg = ModelConfig.default()
    sw = sweep(cfg, "t", [0.5, 1.0], terminals=("L",))
    for i, tv in enumerate((0.5, 1.0)):
        direct = amplification(cfg, tv, "L")
        assert sw.alphas["L"][i] == direct.alpha
        assert sw.derivatives["M"][i] == direct.dJM_dTM
        assert sw.derivatives["L"][i] == direct.dJX_dTM


def test_temperature_sweep_is_one_reader_call(monkeypatch):
    calls = count_reader_calls(monkeypatch)
    # T_M = 0.05 computes: no point needs room for shifted temperatures
    sw = sweep(coarse(), "T_M", [0.05, 5.0, 6.0, 7.5], t=0.5)
    assert len(calls) == 1
    assert len(calls[0][0]) == 4  # one config per point
    assert sw.errors == ["", "", "", ""]


def test_temperature_sweep_matches_pointwise_amplification():
    cfg = ModelConfig.default()
    grid = [4.0, 5.5, 7.0, 8.5, 10.0]
    sw = sweep(cfg, "T_M", grid, t=1.0)
    for i, value in enumerate(grid):
        for x in ("L", "R"):
            direct = amplification(cfg.with_temperature("M", value), 1.0, x)
            assert sw.alphas[x][i] == direct.alpha
            assert sw.derivatives["M"][i] == direct.dJM_dTM
            assert sw.derivatives[x][i] == direct.dJX_dTM


def test_an_error_inside_the_stencil_call_marks_every_point(monkeypatch):
    def broken(*args):
        raise FloatingPointError("current has imaginary residue 1.000e-03")

    monkeypatch.setattr(engine, "_functionals", broken)
    sw = sweep(coarse(), "T_M", [5.0, 6.0, 7.5], t=0.5)
    assert sw.errors == \
        ["FloatingPointError: current has imaginary residue 1.000e-03"] * 3
    for column in (*sw.currents.values(), *sw.derivatives.values(),
                   *sw.alphas.values()):
        assert np.isnan(column).all()


def test_sweeps_never_fall_back_to_per_window_evolution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-window evolution was called")

    functionals, taus = engine._functionals, []

    def counted(core, generators, tau, p):
        taus.append(tau)
        return functionals(core, generators, tau, p)

    monkeypatch.setattr(engine, "evolve", refuse)
    monkeypatch.setattr(engine, "_functionals", counted)
    cfg = coarse()  # 5 phase rows per window
    # each sweep with the number of distinct phase rows its chains read:
    # t = 1 is row 5 of window 1; a g sweep runs one chain per point
    cases = [(lambda: sweep(cfg, "T_M", [5.0, 7.5], t=1.0), 1),
             (lambda: sweep(cfg, "g", [3.5, 4.0], t=0.3), 2),
             (lambda: sweep(cfg, "t", [0.1 * k for k in range(1, 16)]), 5),
             (lambda: sweep(cfg, "t", [0.1 * k for k in range(6)]), 6)]
    for run, rows in cases:
        taus.clear()
        result = run()
        assert not any(result.errors)
        assert all(np.isfinite(d).all() for d in result.derivatives.values())
        assert len(taus) == rows


def test_sweep_records_per_point_failures():
    cfg = coarse()
    sw = sweep(cfg, "T_M", [0.0, 5.0], t=0.5)
    bad, good = sw.errors
    assert "T_M must be positive" in bad and bad.startswith("ValueError")
    assert good == ""
    for column in (*sw.currents.values(), *sw.derivatives.values(),
                   *sw.alphas.values()):
        assert np.isnan(column[0]) and np.isfinite(column[1])


def test_epsilon_sweep_requires_nonlinear_ancillas():
    sw = sweep(coarse(), "epsilon", [0.0, 0.01], t=0.5)
    assert all("qutrit-nonlinear" in e for e in sw.errors)
    assert np.isnan(sw.alphas["L"]).all()
    ok = sweep(coarse(kind="qutrit-nonlinear"), "epsilon", [0.0, 0.01], t=0.5)
    assert ok.errors == ["", ""] and np.isfinite(ok.alphas["L"]).all()


def test_diverged_points_inside_a_sweep_read_nan_without_an_error(
        monkeypatch):
    # an absurdly large tolerance marks every alpha as diverged
    monkeypatch.setattr(metrics, "DIVERGENCE_TOL", 1e9)
    sw = sweep(coarse(), "T_M", [5.0, 6.0], t=0.5)
    assert all(np.isnan(a).all() for a in sw.alphas.values())
    for column in (*sw.currents.values(), *sw.derivatives.values()):
        assert np.isfinite(column).all()
    assert sw.errors == ["", ""]
    table = sweep_table(sw, "diverged")
    alpha_cells = [i for i, (name, _) in enumerate(table.columns)
                   if name.startswith("alpha_")]
    lines = render_table(table).splitlines()[1:]
    for line in lines:
        cells = line.split(",")
        assert [cells[i] for i in alpha_cells] == ["nan", "nan"]
        assert cells[-1] == ""


def test_sweep_result_shape_demands_one_record_per_point():
    with pytest.raises(ValueError, match="one record per grid point"):
        SweepResult(axis="T_M", grid=np.array([1.0, 2.0]), currents={},
                    derivatives={}, alphas={}, errors=[])
    with pytest.raises(ValueError, match="one record per grid point"):
        SweepResult(axis="T_M", grid=np.array([1.0, 2.0]),
                    currents={"L": np.zeros(3)}, derivatives={}, alphas={},
                    errors=["", ""])


# --------------------------------------------- amplification sign structure

def test_alpha_L_changes_sign_across_the_critical_interval():
    # stated behavior: negative at T_M = 6.0, positive at T_M = 7.5
    cfg = ModelConfig.default()
    below = amplification(cfg.with_temperature("M", 6.0), 1.0, "L")
    above = amplification(cfg.with_temperature("M", 7.5), 1.0, "L")
    assert below.alpha < 0.0
    assert above.alpha > 0.0


def test_left_and_right_amplification_degenerate(temperature_sweep):
    # stated behavior: alpha_L == alpha_R pointwise for the baseline coupling
    gap = np.abs(temperature_sweep.alphas["L"] - temperature_sweep.alphas["R"])
    assert np.all(gap <= 1e-6)
