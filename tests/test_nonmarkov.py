"""Trace-distance backflow detection on the reduced qubit dynamics."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtransistor import cli, engine
from qtransistor import linalg as la
from qtransistor.model import ModelConfig
from qtransistor.nonmarkov import (BlochState, SearchConfig, blp_measure,
                                   blp_series, distance_series,
                                   growth_windows, qubit_reduced_dynamics)
from qtransistor import nonmarkov


def coarse(**over):
    return ModelConfig.default(sample_dt=0.1, **over)


SMALL = SearchConfig(grid_theta=6, grid_phi=8, refine_tol=5e-3)

Z_PLUS = BlochState(0.0, 0.0)
Z_MINUS = BlochState(math.pi, 0.0)
X_PLUS = BlochState(math.pi / 2, 0.0)


# ------------------------------------------------------------- Bloch states

def test_bloch_states_are_pure():
    for th, ph in ((0.0, 0.0), (math.pi / 3, 1.2), (math.pi, 5.9), (2.2, 0.1)):
        rho = BlochState(th, ph).density_matrix()
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.allclose(rho, rho.conj().T)
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-12


def test_bloch_poles():
    assert np.allclose(Z_PLUS.density_matrix(), [[1, 0], [0, 0]])
    assert np.allclose(Z_MINUS.density_matrix(), [[0, 0], [0, 1]], atol=1e-15)
    assert np.allclose(X_PLUS.density_matrix(), [[0.5, 0.5], [0.5, 0.5]])


def test_bloch_angle_validation_and_wrapping():
    with pytest.raises(ValueError):
        BlochState(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochState(math.pi + 0.1, 0.0)
    assert BlochState(0.3, 2.0 * math.pi + 0.7).phi == pytest.approx(0.7)
    assert BlochState(0.3, -0.5).phi == pytest.approx(2.0 * math.pi - 0.5)


def test_antipode_negates_the_bloch_vector():
    for s in (Z_PLUS, X_PLUS, BlochState(1.1, 0.7)):
        assert np.allclose(s.antipode().bloch_vector, -s.bloch_vector,
                           atol=1e-15)
        back = s.antipode().antipode()
        assert np.allclose(back.bloch_vector, s.bloch_vector, atol=1e-15)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(grid_theta=1)
    with pytest.raises(ValueError):
        SearchConfig(refine_tol=0.0)


# ------------------------------------------------------------ distance data

def test_probe_marginals_are_density_matrices():
    states = qubit_reduced_dynamics(coarse(), "M", X_PLUS, 1.0)
    assert states.shape == (11, 2, 2)
    for rho in states:
        assert la.is_density_matrix(rho)


def test_unknown_probe_terminal_rejected():
    with pytest.raises(ValueError, match="unknown terminal"):
        qubit_reduced_dynamics(coarse(), "Q", X_PLUS, 1.0)
    with pytest.raises(ValueError, match="unknown terminal"):
        blp_measure(coarse(), "Q", 1.0, SMALL)


def test_identical_pair_stays_at_zero_distance():
    d = distance_series(coarse(), "L", (X_PLUS, X_PLUS), 0.5)
    assert np.max(d) == 0.0


def test_antipodal_pair_starts_fully_distinguishable():
    d = distance_series(coarse(), "L", (Z_PLUS, Z_MINUS), 0.5)
    assert d[0] == pytest.approx(1.0, abs=1e-12)


def test_distance_series_symmetric_in_the_pair():
    cfg = coarse()
    ab = distance_series(cfg, "M", (Z_PLUS, X_PLUS), 1.0)
    ba = distance_series(cfg, "M", (X_PLUS, Z_PLUS), 1.0)
    assert np.max(np.abs(ab - ba)) < 1e-12


def test_linear_map_reproduces_direct_simulation():
    # four basis evolutions determine the marginal of any initial probe
    cfg = coarse()
    rmap = nonmarkov._ReducedMap(cfg, "M", 1.0)
    for pair in ((Z_PLUS, Z_MINUS), (Z_PLUS, X_PLUS),
                 (BlochState(1.1, 0.7), BlochState(2.0, 4.0))):
        direct = distance_series(cfg, "M", pair, 1.0)
        fast = rmap.pair_distance(pair[0].bloch_vector - pair[1].bloch_vector)
        assert np.max(np.abs(direct - fast)) < 1e-10


PROBE_MODELS = {
    "baseline": coarse(),
    "symmetric": ModelConfig.default("symmetric", sample_dt=0.1),
    "asymmetric": ModelConfig.default("asymmetric", sample_dt=0.1),
    "appendixA": ModelConfig.default("appendixA", sample_dt=0.1),
    "qubit": coarse(kind="qubit"),
    "nonlinear": coarse(kind="qutrit-nonlinear", epsilon=-0.4),
    "no_R": coarse(attach_R=False),
}

angles = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


@pytest.mark.parametrize("name", sorted(PROBE_MODELS))
def test_probe_marginals_are_those_of_the_sampled_states(name):
    cfg = PROBE_MODELS[name]
    probes = [(x, s) for x in cfg.system_terminals
              for s in nonmarkov._BASIS + (BlochState(1.1, 0.7),)]
    initials = [nonmarkov._full_initial(cfg, x, s.density_matrix())
                for x, s in probes]
    sites = [cfg.system_terminals.index(x) for x, _ in probes]
    for t_max in (0.0, 1.0):
        got = engine.sample_marginals(cfg, initials, sites, t_max)
        states = engine.sample_states(cfg, initials, t_max)
        want = np.stack([engine._batched_qubit_marginal(s, cfg.n_qubits, i)
                         for s, i in zip(states, sites)])
        n_times = round(1 + 10 * t_max)
        assert got.shape == want.shape == (len(probes), n_times, 2, 2)
        assert np.array_equal(got, want)
        assert np.array_equal(got, got.conj().swapaxes(-1, -2))
        trace = np.trace(got, axis1=-2, axis2=-1)
        assert np.max(np.abs(trace - 1.0)) <= 1e-14
    # a probe on a pole alone carries no coherence block: it reads 0
    pole = engine.sample_marginals(cfg, initials[:1], sites[:1], 1.0)[0]
    assert np.all(pole[:, 0, 1] == 0.0) and np.all(pole[:, 1, 0] == 0.0)
    with pytest.raises(ValueError, match="one site"):
        engine.sample_marginals(cfg, initials[:2], [cfg.n_qubits, 0], 1.0)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(PROBE_MODELS)), st.data())
def test_quadratic_form_of_the_probe_map(name, data):
    cfg = PROBE_MODELS[name]
    terminal = data.draw(st.sampled_from(cfg.system_terminals))
    rmap = nonmarkov._ReducedMap(cfg, terminal, 1.0)
    q = rmap.q.transpose(2, 0, 1)  # (n_times, 3, 3)
    assert np.array_equal(q, q.swapaxes(1, 2))
    assert np.linalg.eigvalsh(q).min() >= -1e-14
    # the map never mixes the xy components of the probe with z
    assert np.abs(q[:, :2, 2]).max() <= 1e-14

    pair = tuple(BlochState(*data.draw(angles)) for _ in range(2))
    direct = distance_series(cfg, terminal, pair, 1.0)
    fast = rmap.pair_distance(pair[0].bloch_vector - pair[1].bloch_vector)
    assert np.max(np.abs(direct - fast)) <= 1e-12

    s = BlochState(*data.draw(angles))
    turned = BlochState(s.theta, s.phi + math.pi)
    d, d_turned = (rmap.pair_distance(2.0 * b.bloch_vector)
                   for b in (s, turned))
    assert np.max(np.abs(d - d_turned)) <= 1e-14


def test_decoupled_probe_never_gains_distinguishability():
    cfg = coarse(g=0.0)
    d = distance_series(cfg, "M", (Z_PLUS, X_PLUS), 1.0)
    assert np.max(np.abs(d - d[0])) < 1e-12
    res = blp_measure(cfg, "M", 1.0, SMALL)
    assert res.value < 1e-12  # rounding noise only
    assert np.max(np.diff(res.distance_series)) < 1e-12


# ------------------------------------------------------------ growth windows

def test_growth_windows_mechanics():
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    series = np.array([0.0, 0.5, 0.3, 0.6, 0.6])
    assert growth_windows(times, series) == [(0.0, 1.0), (2.0, 3.0)]
    # growth running to the end closes at the last time
    assert growth_windows(times[:3], np.array([0.0, 0.1, 0.2])) == [(0.0, 2.0)]
    # increments at or below the threshold are ignored
    assert growth_windows(times, series, min_increment=0.4) == [(0.0, 1.0)]


# -------------------------------------------------------------- BLP measure

@pytest.fixture(scope="module")
def measured_M():
    return blp_measure(coarse(), "M", 1.5, SMALL)


def test_backflow_is_positive_for_every_probe(measured_M):
    assert measured_M.value > 0.01
    for term in ("L", "R"):
        assert blp_measure(coarse(), term, 1.5, SMALL).value > 0.01


def test_reported_value_comes_from_the_reported_series(measured_M):
    d = np.diff(measured_M.distance_series)
    assert measured_M.value == pytest.approx(d[d > 0].sum(), abs=1e-12)
    assert measured_M.growth_windows == growth_windows(
        measured_M.times, measured_M.distance_series)


def test_optimal_pair_is_antipodal(measured_M):
    s1, s2 = measured_M.optimal_pair
    assert np.allclose(s2.bloch_vector, -s1.bloch_vector, atol=1e-12)


@pytest.mark.parametrize("preset", ("symmetric", "asymmetric"))
def test_late_backflow_needs_the_direct_left_right_coupling(preset):
    # criterion 08's late growths come from the closed L-M-R loop: with
    # omega_LR = 0 the couplings form an open chain and none is left
    cfg = ModelConfig.default(preset)
    cfg = dataclasses.replace(
        cfg, coupling=dataclasses.replace(cfg.coupling, omega_LR=0.0))
    for terminal in ("L", "M", "R"):
        res = blp_measure(cfg, terminal, 3.0)
        late = (np.diff(res.distance_series) > 1e-3) & (res.times[1:] > 1.5)
        assert not late.any(), (terminal, res.times[1:][late])


def bloch_grid(n_theta, n_phi):
    """Bloch vectors of an n_theta x n_phi grid on the whole sphere, row
    by row in theta, shape (n_theta * n_phi, 3)."""
    theta, phi = np.meshgrid(
        np.linspace(0.0, math.pi, n_theta),
        np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
        indexing="ij")
    return np.stack([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("preset,terminal",
                         (("baseline", "M"), ("asymmetric", "R")))
def test_no_general_pair_beats_the_best_antipodal_pair(preset, terminal):
    # the search scores antipodal pairs only; for a qubit the optimal
    # pairs are orthogonal, i.e. antipodal on the Bloch sphere
    rmap = nonmarkov._ReducedMap(
        ModelConfig.default(preset, sample_dt=0.1), terminal, 1.0)

    def backflow(deltas):
        return nonmarkov._cumulative_positive(
            rmap.pair_distance(deltas))[:, -1]

    r = bloch_grid(12, 16)
    general = backflow((r[:, None] - r[None]).reshape(-1, 3)).max()
    antipodal = backflow(2.0 * bloch_grid(91, 180)).max()
    assert general <= antipodal + 1e-12


@pytest.fixture(scope="module")
def preset_maps():
    """Reduced maps to t = 1.5 at the default sample grid, each with the
    sample index of every cutoff 0.1 ... 1.5."""
    cut = 10 * np.arange(1, 16)
    return [(nonmarkov._ReducedMap(ModelConfig.default(preset), x, 1.5), cut)
            for preset in ("baseline", "symmetric", "asymmetric")
            for x in ("L", "M", "R")]


def antipodal_scan(q, n_theta=91, n_phi=180):
    """Backflow accumulated up to each sample, maximised over the
    antipodal pairs of an n_theta x n_phi grid on the whole sphere."""
    best = None
    for row in bloch_grid(n_theta, n_phi).reshape(n_theta, n_phi, 3):
        flow = nonmarkov._cumulative_positive(
            nonmarkov._quadratic_distance(q, 2.0 * row)).max(axis=0)
        best = flow if best is None else np.maximum(best, flow)
    return best


@pytest.mark.parametrize("search", (SMALL, SearchConfig()),
                         ids=("small", "default"))
def test_search_beats_a_fine_scan_and_never_falls_along_the_cutoffs(
        preset_maps, search):
    for rmap, cut in preset_maps:
        found = np.array([v for v, _ in nonmarkov._antipodal_search(
            rmap, cut, search)])
        assert np.all(found >= antipodal_scan(rmap.q)[cut] - 1e-12)
        assert np.all(np.diff(found) >= 0.0)


def test_a_coarse_search_finds_the_global_phi_basin():
    # coordinate descent from a 6 x 8 grid once climbed a wrong phi basin
    # here and reported 0.1475
    cfg = coarse()
    tol = SMALL.refine_tol
    small = blp_measure(cfg, "M", 1.0, SMALL).value
    assert small == pytest.approx(blp_measure(cfg, "M", 1.0).value, abs=tol)
    scan = antipodal_scan(nonmarkov._ReducedMap(cfg, "M", 1.0).q)[-1]
    assert small == pytest.approx(scan, abs=tol)
    assert small >= scan - 1e-12


# a search whose scan holds every direction of the 91 x 180 whole-sphere
# scan: 2 degree rows from the pole to the equator, 2 degrees apart on each
COVERING = SearchConfig(grid_theta=46, grid_phi=180, refine_tol=1e-3)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(
    st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
    min_size=n, max_size=n)))
def test_search_needs_no_block_structure(factors):
    # a stand-in map: a random positive semidefinite Q(t) = A A^T per
    # sample, coupling the probe's xy components with z
    a = np.array(factors).reshape(-1, 3, 3)
    q = np.einsum("tij,tkj->ikt", a, a)
    assume(np.abs(q[:2, 2]).max() > 1e-3)
    cut = np.arange(1, q.shape[-1])
    found = np.array([v for v, _ in nonmarkov._antipodal_search(
        SimpleNamespace(q=q), cut, COVERING)])
    # both scans reach a shared direction through different angle
    # arithmetic; where some Q(t) nearly vanishes along it, sqrt can turn
    # the 1e-16 rounding of the form into 1e-8
    assert np.all(found >= antipodal_scan(q)[cut] - 1e-7)
    assert np.all(np.diff(found) >= 0.0)


def test_a_cutoff_searched_alone_or_with_the_others_gives_equal_bits(
        preset_maps):
    for rmap, cut in preset_maps:
        together = [v for v, _ in nonmarkov._antipodal_search(
            rmap, cut, SearchConfig())]
        alone = [nonmarkov._antipodal_search(rmap, [c], SearchConfig())[0][0]
                 for c in cut]
        assert np.array_equal(alone, together)


def test_series_memory_does_not_grow_with_directions_times_samples():
    # 60 cutoffs over 601 samples: a (481 directions x 601 samples) scan
    # table alone is 2.3 MB, and the whole search held 21.6 MB at once
    cfg = ModelConfig.default()
    cutoffs = np.round(np.arange(1, 61) / 10.0, 10)
    tracemalloc.start()
    try:
        blp_series(cfg, ("L", "M", "R"), cutoffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_backflow_never_runs_per_window_evolution(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-window evolution called")

    monkeypatch.setattr(engine, "evolve", forbidden)
    monkeypatch.setattr(engine.Propagator, "collision", forbidden)
    cfg = coarse()
    assert blp_series(cfg, "M", [0.5, 1.0], SMALL).shape == (2,)
    assert blp_measure(cfg, "L", 1.0, SMALL).value > 0.0
    assert distance_series(cfg, "R", (Z_PLUS, X_PLUS), 0.5).shape == (6,)


# --------------------------------------------------------------- BLP series

def test_series_cutoffs_validated():
    with pytest.raises(ValueError, match="ascending"):
        blp_series(coarse(), "M", [], SMALL)
    with pytest.raises(ValueError, match="ascending"):
        blp_series(coarse(), "M", [1.0, 0.5], SMALL)


def test_series_cutoffs_sit_exactly_on_the_sample_grid(tmp_path):
    cfg = coarse()
    tenths = np.round(np.arange(1, 11) / 10.0, 10)
    full = blp_series(cfg, "M", tenths, SMALL)
    # 0.7 ends inside a collision window; the run must still reach it
    part = blp_series(cfg, "M", tenths[:7], SMALL)
    assert part.shape == (7,)
    assert np.array_equal(part, full[:7])
    with pytest.raises(ValueError, match="sample grid"):
        blp_series(cfg, "M", [0.13], SMALL)

    out = tmp_path / "fig12"
    code = cli.main(["run", "--scenario", "fig12", "--set", "t_max=0.7",
                     "--set", "sample_dt=0.1", "--set", "grid_theta=3",
                     "--set", "grid_phi=4", "--out", str(out)])
    assert code == cli.EXIT_OK
    for preset in ("baseline", "symmetric", "asymmetric"):
        csv = out / f"fig12_{preset}.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 7  # header + one row per cutoff

    # a coarser sample grid spaces the cutoffs by whole samples
    out = tmp_path / "fig12_coarse"
    code = cli.main(["run", "--scenario", "fig12", "--set", "t_max=1.0",
                     "--set", "sample_dt=0.25", "--set", "grid_theta=3",
                     "--set", "grid_phi=4", "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = (out / "fig12_baseline.csv").read_text(
        encoding="utf-8").splitlines()
    assert [float(r.split(",")[0]) for r in lines[1:]] == \
        [0.25, 0.5, 0.75, 1.0]


def test_terminals_share_one_run_and_match_their_own_series(monkeypatch):
    cfg = coarse()
    cutoffs = [0.5, 1.0, 1.5]
    calls = []
    real = nonmarkov.sample_marginals

    def counted(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(nonmarkov, "sample_marginals", counted)
    rows = blp_series(cfg, cfg.system_terminals, cutoffs, SMALL)
    assert calls == [12]
    assert rows.shape == (3, 3)
    for x, row in zip(cfg.system_terminals, rows):
        assert np.array_equal(row, blp_series(cfg, x, cutoffs, SMALL))
    with pytest.raises(ValueError, match="unknown terminal"):
        blp_series(cfg, ("L", "Q"), cutoffs, SMALL)


def test_series_is_monotone_and_meets_the_full_measure(measured_M):
    ser = blp_series(coarse(), "M", [0.5, 1.0, 1.5], SMALL)
    assert ser.shape == (3,)
    assert np.all(np.diff(ser) >= -1e-12)
    assert ser[-1] == pytest.approx(measured_M.value, abs=1e-6)
