"""Config documents, CSV/manifest output, and the command-line runner."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qtransistor import __version__, cli, metrics, output
from qtransistor.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL
from qtransistor.config import (ConfigError, RunConfig, SweepSpec,
                                manifest_parameters, parse_config,
                                parse_set_overrides)
from qtransistor.model import ModelConfig
from qtransistor.nonmarkov import SearchConfig
from qtransistor.output import (MANIFEST_NAME, Table, file_sha256,
                                render_table, sweep_table, write_manifest,
                                write_table)
from qtransistor.scenarios import SCENARIOS, build_tables, scenario_names


def doc(s: str) -> str:
    return textwrap.dedent(s).lstrip()


SWEEP_DOC = doc("""
    [run]
    t = 0.5
    [model]
    sample_dt = 0.1
    [sweep]
    axis = T_M
    start = 5.0
    stop = 6.0
    step = 0.5
    """)


# ------------------------------------------------------------ INI parsing

def test_minimal_scenario_document():
    rc = parse_config("[run]\nscenario = fig2\n")
    assert rc.scenario == "fig2" and rc.sweep is None
    assert rc.overrides == {}
    assert rc.workers == 1 and rc.boundary == "left"
    assert rc.search == SearchConfig()
    assert rc.out_dir is None


def test_full_document_round_trip():
    rc = parse_config(doc("""
        [run]
        scenario = fig12
        out = /tmp/somewhere
        workers = 3
        boundary = right
        t_max = 2.0
        [model]
        g = 3.5
        T_M = 9.0
        kind = qutrit-nonlinear
        epsilon = -0.01
        attach_M = no
        [blp]
        grid_theta = 10
        grid_phi = 12
        refine_tol = 0.01
        """))
    assert rc.scenario == "fig12"
    assert rc.out_dir == "/tmp/somewhere"
    assert rc.workers == 3 and rc.boundary == "right"
    assert rc.overrides["t_max"] == 2.0
    assert rc.overrides["attach_M"] is False
    assert rc.search == SearchConfig(10, 12, 0.01)
    model = rc.resolved_model()
    assert model.g == 3.5 and model.env.kind == "qutrit-nonlinear"
    assert model.env.T_M == 9.0 and not model.env.attach_M


def test_sweep_document():
    rc = parse_config(doc("""
        [run]
        t = 1.0
        [sweep]
        axis = g
        start = 3.5
        stop = 4.5
        step = 0.5
        terminals = L, R
        """))
    assert rc.scenario is None
    assert rc.sweep.axis == "g" and rc.sweep.terminals == ("L", "R")
    assert rc.sweep.t == 1.0  # picked up from [run]
    assert np.allclose(rc.sweep.grid(), [3.5, 4.0, 4.5])


def test_grid_includes_both_endpoints_despite_rounding():
    spec = SweepSpec(axis="T_M", start=0.2, stop=4.0, step=0.05)
    g = spec.grid()
    assert g[0] == 0.2 and g[-1] == 4.0 and len(g) == 77
    assert np.all(np.diff(g) > 0)


def test_unknown_section_and_key_report_their_lines():
    text = "[run]\nscenario = fig2\nwhat = 1\n[extra]\nx = 2\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msgs = exc.value.problems
    assert any(m.startswith("line 3:") and "unknown key 'what'" in m
               for m in msgs)
    assert any(m.startswith("line 4:") and "unknown section [extra]" in m
               for m in msgs)


def test_value_conversion_and_domain_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config(doc("""
            [run]
            scenario = fig2
            workers = 0
            boundary = middle
            [model]
            g = fast
            n_qubits = 4
            """))
    msgs = "\n".join(exc.value.problems)
    assert "workers = '0' out of domain" in msgs
    assert "boundary = 'middle' out of domain" in msgs
    assert "g = 'fast' is not a valid number" in msgs
    assert "n_qubits = '4' out of domain" in msgs


def test_problems_sorted_by_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config("[model]\ng = fast\nT_L = -1\n")
    msgs = exc.value.problems
    assert msgs[0].startswith("line 2:")
    assert msgs[1].startswith("line 3:")
    assert "exactly one of" in msgs[-1]  # document-level issue comes last


def test_inline_comments_are_not_part_of_values():
    rc = parse_config(doc("""
        [run]
        scenario = fig2
        out = results/demo   ; scratch
        [model]
        g = 4.0 ; strong
        T_M = 9.0  # hot
        """))
    assert rc.out_dir == "results/demo"
    assert rc.overrides["g"] == 4.0 and rc.overrides["T_M"] == 9.0
    # a ';' or '#' inside a value, with no space before it, is kept
    assert parse_config("[run]\nscenario = fig2\nout = a;b#c\n").out_dir \
        == "a;b#c"
    # so a number with a comment glued to it is not a number
    with pytest.raises(ConfigError) as exc:
        parse_config("[run]\nscenario = fig2\n[model]\ng = 3.5;weaker\n")
    assert exc.value.problems == [
        "line 4: g = '3.5;weaker' is not a valid number"]


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("[model]\ng = 4\ng = 5\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside any"):
        parse_config("g = 4\n")


def test_scenario_and_sweep_are_mutually_exclusive():
    with pytest.raises(ConfigError, match="both given"):
        parse_config(doc("""
            [run]
            scenario = fig2
            [sweep]
            axis = t
            start = 0.5
            stop = 1.0
            step = 0.5
            """))
    with pytest.raises(ConfigError, match="neither given"):
        parse_config("[model]\ng = 4\n")


def test_misspelled_scenario_reported_once():
    with pytest.raises(ConfigError) as exc:
        parse_config("[run]\nscenario = figgy\n")
    assert len(exc.value.problems) == 1
    assert "out of domain" in exc.value.problems[0]


def test_sweep_missing_keys_each_reported():
    with pytest.raises(ConfigError) as exc:
        parse_config("[sweep]\naxis = t\n")
    msgs = "\n".join(exc.value.problems)
    for key in ("start", "stop", "step"):
        assert f"missing required key {key!r}" in msgs


def test_sweep_cross_field_rules():
    with pytest.raises(ConfigError, match="below"):
        parse_config("[sweep]\naxis = t\nstart = 2.0\nstop = 1.0\nstep = 0.5\n")
    with pytest.raises(ConfigError, match="needs an evaluation time"):
        parse_config("[sweep]\naxis = g\nstart = 3\nstop = 4\nstep = 0.5\n")
    with pytest.raises(ConfigError, match="qutrit-nonlinear"):
        parse_config(doc("""
            [run]
            t = 1.0
            [sweep]
            axis = epsilon
            start = 0.0
            stop = 0.05
            step = 0.01
            """))


def test_sweep_terminals_may_not_name_the_modulating_terminal(tmp_path,
                                                              capsys):
    text = SWEEP_DOC.replace("[sweep]\n", "[sweep]\nterminals = M, L\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    line = text.splitlines().index("terminals = M, L") + 1
    assert exc.value.problems == [
        f"line {line}: terminals names the modulating terminal 'M', "
        "which has no alpha"]
    # the two-qubit device modulates through L
    two = text.replace("terminals = M, L", "terminals = R, L").replace(
        "sample_dt = 0.1\n", "sample_dt = 0.1\npreset = appendixA\n")
    with pytest.raises(ConfigError, match="modulating terminal 'L'"):
        parse_config(two)
    cfg = tmp_path / "mod.ini"
    cfg.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
    assert "modulating terminal 'M'" in capsys.readouterr().err


def test_sweep_terminals_the_model_lacks_are_rejected_before_running(
        tmp_path, capsys):
    # the two-qubit device has no M: validate and run give one verdict
    text = SWEEP_DOC.replace(
        "sample_dt = 0.1\n", "sample_dt = 0.1\npreset = appendixA\n"
    ).replace("[sweep]\n", "[sweep]\nterminals = M\n")
    line = text.splitlines().index("terminals = M") + 1
    cfg = tmp_path / "two.ini"
    cfg.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
    validated = capsys.readouterr().err
    assert validated == (
        f"invalid configuration:\n  line {line}: terminals names 'M', which "
        "the model does not have (its terminals: L, R)\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == validated and not out.exists()


def test_nonzero_epsilon_on_a_kind_that_ignores_it_is_rejected(
        tmp_path, capsys):
    # only the qutrit-nonlinear ancilla reads epsilon; any other kind
    # would run without it and record it in the manifest
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "fig2", "--set", "epsilon=0.05",
                     "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "invalid configuration:\n  epsilon = 0.05 is read only with "
        "kind = qutrit-nonlinear, not qutrit-linear\n")
    assert not out.exists()
    with pytest.raises(ConfigError) as exc:
        parse_config("[run]\nscenario = fig2\n[model]\nkind = qubit\n"
                     "epsilon = -0.01\n")
    assert exc.value.problems == [
        "line 5: epsilon = -0.01 is read only with kind = qutrit-nonlinear, "
        "not qubit"]
    for model in ("epsilon = 0.0", "kind = qubit\nepsilon = 0.0",
                  "kind = qutrit-nonlinear\nepsilon = 0.05"):
        parse_config(f"[run]\nscenario = fig2\n[model]\n{model}\n")


def test_sweep_rejects_run_keys_it_would_not_read():
    with pytest.raises(ConfigError) as exc:
        parse_config(SWEEP_DOC.replace("t = 0.5\n", "t = 0.5\nt_max = 7.0\n"))
    assert exc.value.problems == [
        "line 3: t_max in [run] is not read by a [sweep] run with axis = T_M"]
    on_t = doc("""
        [run]
        t = 1.0
        [sweep]
        axis = t
        start = 0.5
        stop = 1.0
        step = 0.5
        t = 1.0
        """)
    with pytest.raises(ConfigError) as exc:
        parse_config(on_t)
    assert exc.value.problems == [
        "line 2: t in [run] is not read by a [sweep] run with axis = t",
        "line 8: t in [sweep] is not read by a [sweep] run with axis = t"]
    # a scenario reads both keys
    assert parse_config("[run]\nscenario = fig12\nt = 1.0\nt_max = 2.0\n")


def test_an_invalid_sweep_value_is_reported_once():
    for text, problem in (
            ("[sweep]\naxis = bogus\nstart = 0.5\nstop = 1.0\nstep = 0.5\n",
             "line 2: axis = 'bogus' out of domain"),
            ("[sweep]\naxis = t\nstart = x\nstop = 1.0\nstep = 0.5\n",
             "line 3: start = 'x' is not a valid number")):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        [only] = exc.value.problems
        assert only.startswith(problem)


def test_combined_model_validation_runs_last():
    # each value is fine alone; together the grids don't divide
    with pytest.raises(ConfigError, match="model rejected"):
        parse_config("[run]\nscenario = fig2\n[model]\nsample_dt = 0.3\n")


# ------------------------------------------------------------ --set pairs

def test_set_overrides_split_and_map():
    overrides, blp = parse_set_overrides(
        ["g=3.5", "t=1.5", "grid_theta=8"])
    assert overrides == {"g": 3.5, "t": 1.5}
    assert blp == {"grid_theta": 8}


def test_set_overrides_diagnostics():
    with pytest.raises(ConfigError) as exc:
        parse_set_overrides(["nope", "zeta=1", "g=fast", "T_L=-2"])
    msgs = exc.value.problems
    assert len(msgs) == 4
    assert "expected key=value" in msgs[0]
    assert "unknown key 'zeta'" in msgs[1]
    assert "not a valid number" in msgs[2]
    assert "out of domain" in msgs[3]


@pytest.mark.parametrize("key", ("h", "env_delta", "appendix_delta"))
def test_removed_model_keys_are_unknown(key):
    # derivatives are exact, so there is no stencil step to set; the two
    # delta variants were never read by any model
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in"):
        parse_config(f"[run]\nscenario = fig2\n[model]\n{key} = 4\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_set_overrides([f"{key}=4"])


# ---------------------------------------------------------------- output

def test_render_table_format():
    tb = Table(stem="demo",
               columns=[("x", "t̃"), ("y", "dimensionless")],
               rows=[[0.5, 1.0], [1.0, float("nan")]],
               errors=["", "ValueError: bad, very\nbad"])
    text = render_table(tb)
    lines = text.splitlines()
    assert lines[0] == "# x(t̃),y(dimensionless),error"
    assert lines[1] == "5.00000000000e-01,1.00000000000e+00,"
    # separators inside error text are sanitized
    assert lines[2].endswith(",ValueError: bad; very bad")
    assert text.endswith("\n")
    assert tb.failed and tb.failed_rows == 1


def test_render_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row width"):
        render_table(Table("bad", [("x", "u")], [[1.0, 2.0]], [""]))
    with pytest.raises(ValueError, match="one error entry per row"):
        render_table(Table("bad", [("x", "u")], [[1.0]], []))


def test_render_table_writes_signed_zero_nan_and_inf():
    tb = Table("demo", [("a", "u"), ("b", "u"), ("c", "u"), ("d", "u")],
               [[-0.0, float("nan"), float("inf"), -float("inf")],
                [0.0, 1, -2.5, 1e-300]], ["", "x"])
    assert render_table(tb).splitlines()[1:] == [
        "0.00000000000e+00,nan,inf,-inf,",
        "0.00000000000e+00,1.00000000000e+00,-2.50000000000e+00,"
        "1.00000000000e-300,x"]


def test_sweep_table_records_failures_as_nan_rows():
    cfg = ModelConfig.default(sample_dt=0.1)
    res = metrics.sweep(cfg, "T_M", [0.0, 5.0], t=0.5)
    tb = sweep_table(res, "sweep_T_M")
    names = [n for n, _ in tb.columns]
    assert names == ["T_M", "J_L", "J_M", "J_R",
                     "dJL_dTM", "dJM_dTM", "dJR_dTM",
                     "alpha_L", "alpha_R"]
    assert tb.errors[0] == ("ValueError: T_M must be positive for an "
                            "attached terminal, got 0.0")
    assert all(math.isnan(v) for v in tb.rows[0][1:])
    assert tb.errors[1] == "" and math.isfinite(tb.rows[1][1])
    renamed = sweep_table(res, "sweep_T_M", "L")
    assert [n for n, _ in renamed.columns][:7] == [
        "T_L", "J_L", "J_M", "J_R", "dJL_dTL", "dJM_dTL", "dJR_dTL"]


def test_write_table_and_manifest(tmp_path):
    tb = Table("demo", [("x", "t̃")], [[1.0]], [""])
    path = write_table(tb, tmp_path)
    assert path == tmp_path / "demo.csv" and path.exists()
    manifest_path = write_manifest(
        tmp_path, parameters={"k": 1}, files=[path],
        duration_seconds=0.1234567, failed_points=0)
    data = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest_path.name == MANIFEST_NAME
    assert data["artifact_version"] == __version__
    assert data["parameters"] == {"k": 1}
    assert data["status"] == "complete" and data["failed_points"] == 0
    entry = data["files"]["demo.csv"]
    assert entry["sha256"] == file_sha256(path)
    assert entry["bytes"] == path.stat().st_size


# one payload per 64 KiB read-chunk edge of ``file_sha256``
DIGEST_SIZES = (0, 1, 65535, 65536, 65537, 300000)


@pytest.mark.parametrize("size", DIGEST_SIZES)
def test_file_sha256_equals_hashlib(tmp_path, size):
    data = bytes(i * 7 % 251 for i in range(size))
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    assert file_sha256(path) == hashlib.sha256(data).hexdigest()


def test_file_sha256_of_a_written_table_equals_hashlib(tmp_path):
    tb = Table("demo", [("x", "t̃"), ("y", "u")],
               [[float(i), -0.5 * i] for i in range(50)], [""] * 50)
    path = write_table(tb, tmp_path)
    assert file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_file_sha256_falls_back_to_hashlib(tmp_path, monkeypatch):
    # a build without CPython's own SHA-256 modules reads hashlib's;
    # a fresh copy of the module is run so the imported one stays as is
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.find_spec("qtransistor.output")
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback._sha256 is hashlib.sha256
    data = bytes(range(256)) * 300
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    assert fallback.file_sha256(path) == hashlib.sha256(data).hexdigest()


def test_a_run_loads_no_openssl(tmp_path):
    # pytest imports hashlib itself, so the run needs its own interpreter
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_DOC.replace("step = 0.5", "step = 1.0"),
                   encoding="utf-8")
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    script = textwrap.dedent(f"""
        import json, sys
        from qtransistor import cli
        assert cli.main({argv!r}) == 0
        crypto = []
        if sys.platform.startswith("linux"):
            with open("/proc/self/maps") as fh:
                crypto = [line for line in fh if "libcrypto" in line]
        print(json.dumps([[m for m in ("_hashlib", "hashlib", "_blake2")
                           if m in sys.modules], crypto]))
        """)
    modules, maps = json.loads(fresh_python(["-c", script]).splitlines()[-1])
    assert modules == [] and maps == []
    assert len((tmp_path / "out" / "sweep_T_M.csv").read_text(
        encoding="utf-8").splitlines()) == 3


def test_write_table_streams_the_rendered_bytes(tmp_path):
    tb = Table("edge", [("a", "t̃"), ("b", "u"), ("c", "u"), ("d", "u")],
               [[-0.0, float("nan"), float("inf"), -float("inf")],
                [1.0, -0.0, 2.5e-300, 3.0]],
               ["", "RuntimeError: bad, very\nbad"])
    path = write_table(tb, tmp_path)
    assert path.read_bytes() == render_table(tb).encode("utf-8")
    assert path.read_bytes().count(b"\n") == 3


BAD_TABLES = {
    "ragged": Table("bad", [("x", "u")], [[1.0], [1.0, 2.0]], ["", ""]),
    "error count": Table("bad", [("x", "u")], [[1.0]], []),
}


@pytest.mark.parametrize("name", sorted(BAD_TABLES))
def test_write_table_rejects_a_bad_table_before_writing(tmp_path, name):
    with pytest.raises(ValueError):
        write_table(BAD_TABLES[name], tmp_path / "new")
    assert not (tmp_path / "new" / "bad.csv").exists()
    existing = tmp_path / "bad.csv"
    existing.write_bytes(b"earlier run\n")
    with pytest.raises(ValueError):
        write_table(BAD_TABLES[name], tmp_path)
    assert existing.read_bytes() == b"earlier run\n"


# -------------------------------------------------------------- registry

def test_registry_names():
    assert scenario_names() == [
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
        "fig10", "fig11", "fig12", "fig13", "appendixA",
    ]
    assert all(SCENARIOS[n].description for n in scenario_names())


# every table of every scenario at its default grid, in build order:
# (stem, header line, row count)
SCENARIO_TABLES = {
    "fig2": [("fig2", "# T_M(T̃),J_L(ħ/t̃²),J_M(ħ/t̃²),J_R(ħ/t̃²),"
              "dJL_dTM(ħ/(t̃²·T̃)),dJM_dTM(ħ/(t̃²·T̃)),dJR_dTM(ħ/(t̃²·T̃)),"
              "error", 25)],
    "fig3": [("fig3", "# T_M(T̃),alpha_L[g=3.5](dimensionless),"
              "alpha_L[g=4.0](dimensionless),alpha_L[g=4.5](dimensionless),"
              "error", 25)],
    "fig4": [("fig4", "# t(t̃),alpha_L(dimensionless),"
              "alpha_R(dimensionless),error", 500)],
    "fig5": [("fig5", "# g(1/t̃),alpha_L(dimensionless),"
              "alpha_R(dimensionless),error", 101)],
    "fig6": [("fig6", "# t(t̃),alpha_L[right-detached](dimensionless),"
              "alpha_R[right-detached](dimensionless),"
              "alpha_L[left-detached](dimensionless),"
              "alpha_R[left-detached](dimensionless),error", 300)],
    "fig7": [("fig7", "# g(1/t̃),alpha_L[right-detached](dimensionless),"
              "alpha_R[right-detached](dimensionless),"
              "alpha_L[left-detached](dimensionless),"
              "alpha_R[left-detached](dimensionless),error", 101)],
    "fig8": [("fig8_temperature",
              "# T_M(T̃),alpha_L[symmetric](dimensionless),"
              "alpha_R[symmetric](dimensionless),"
              "alpha_L[asymmetric](dimensionless),"
              "alpha_R[asymmetric](dimensionless),error", 47),
             ("fig8_time", "# t(t̃),alpha_L[symmetric](dimensionless),"
              "alpha_R[symmetric](dimensionless),"
              "alpha_L[asymmetric](dimensionless),"
              "alpha_R[asymmetric](dimensionless),error", 300)],
    "fig9": [("fig9", "# T_M(T̃),alpha_L[linear](dimensionless),"
              "alpha_L[eps=0.01](dimensionless),"
              "alpha_L[eps=0.03](dimensionless),"
              "alpha_L[eps=0.05](dimensionless),"
              "alpha_L[eps=-0.01](dimensionless),"
              "alpha_L[eps=-0.03](dimensionless),"
              "alpha_L[eps=-0.05](dimensionless),error", 25)],
    "fig10": [("fig10", "# t(t̃),alpha_L[linear](dimensionless),"
               "alpha_L[eps=-0.01](dimensionless),"
               "alpha_L[eps=0.01](dimensionless),error", 300)],
    "fig11": [(f"fig11_{preset}", "# T_M(T̃),alpha_L[linear](dimensionless),"
               "alpha_L[eps=-0.01](dimensionless),"
               "alpha_L[eps=0.01](dimensionless),error", 47)
              for preset in ("symmetric", "asymmetric")],
    "fig12": [(f"fig12_{preset}", "# t(t̃),N_L(dimensionless),"
               "N_M(dimensionless),N_R(dimensionless),error", 30)
              for preset in ("baseline", "symmetric", "asymmetric")],
    "fig13": [("fig13_time", "# t(t̃),alpha_L(dimensionless),"
               "alpha_R(dimensionless),error", 1000),
              ("fig13_temperature", "# T_M(T̃),alpha_L(dimensionless),"
               "alpha_R(dimensionless),error", 33)],
    "appendixA": [("appendixA", "# T_L(T̃),J_L(ħ/t̃²),J_R(ħ/t̃²),"
                   "dJL_dTL(ħ/(t̃²·T̃)),dJR_dTL(ħ/(t̃²·T̃)),"
                   "alpha(dimensionless),error", 77)],
}


def test_every_scenario_table_keeps_its_stem_header_and_rows():
    assert list(SCENARIO_TABLES) == scenario_names()
    assert sum(map(len, SCENARIO_TABLES.values())) == 18
    for name, expected in SCENARIO_TABLES.items():
        tables = build_tables(name)
        got = [(tb.stem, render_table(tb).split("\n", 1)[0], len(tb.rows))
               for tb in tables]
        assert got == expected, name
        assert not any(tb.failed for tb in tables), name


def test_a_forced_key_set_otherwise_is_refused_before_any_sweep(
        tmp_path, capsys, monkeypatch):
    # the scenario runs its own value of a key it forces, so a different
    # user value would be dropped: the run is refused and writes nothing
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "fig9",
                     "--set", "kind=qutrit-nonlinear", "--set", "epsilon=0.05",
                     "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "invalid run: kind = qutrit-nonlinear conflicts with the scenario's "
        "kind = qutrit-linear; epsilon = 0.05 conflicts with the scenario's "
        "epsilon = 0.0\n")
    assert not out.exists()
    assert cli.main(["run", "--scenario", "fig3", "--set", "g=3.7",
                     "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "invalid run: g = 3.7 conflicts with the scenario's g = 3.5\n")
    assert not out.exists()

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(metrics, "sweep", no_sweep)
    refused = (("fig6", {"attach_R": True}), ("fig7", {"attach_L": True}),
               ("fig10", {"kind": "qutrit-linear"}),
               ("fig11", {"kind": "qutrit-nonlinear", "epsilon": 0.01}))
    for name, over in refused:
        with pytest.raises(ValueError, match="conflicts with the scenario's"):
            build_tables(name, over)
    # a value equal to the forced one on every curve that forces it is no
    # conflict: the left-detached curve of fig6 forces attach_L = False
    with pytest.raises(AssertionError, match="a sweep ran"):
        build_tables("fig6", {"attach_L": False})


# ------------------------------------------------------------------- CLI

def test_scenarios_subcommand(capsys):
    assert cli.main(["scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert f"qtransistor {__version__}" in capsys.readouterr().out


def test_validate_subcommand(tmp_path, capsys):
    good = tmp_path / "good.ini"
    good.write_text("[run]\nscenario = fig2\n", encoding="utf-8")
    assert cli.main(["validate", "--config", str(good)]) == EXIT_OK
    assert "OK: scenario fig2" in capsys.readouterr().out

    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nscenario = nope\n", encoding="utf-8")
    assert cli.main(["validate", "--config", str(bad)]) == EXIT_CONFIG
    assert "out of domain" in capsys.readouterr().err


def test_run_requires_exactly_one_source(tmp_path, capsys):
    assert cli.main(["run", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "exactly one of" in capsys.readouterr().err
    cfg = tmp_path / "c.ini"
    cfg.write_text(SWEEP_DOC, encoding="utf-8")
    code = cli.main(["run", "--scenario", "fig2", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_run_rejects_unknown_scenario_and_missing_config(tmp_path, capsys):
    assert cli.main(["run", "--scenario", "nope",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown scenario" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "cannot read config file" in capsys.readouterr().err


def test_run_requires_an_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    cfg = tmp_path / "c.ini"
    cfg.write_text(SWEEP_DOC, encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "no output directory" in capsys.readouterr().err


def test_bad_set_pair_rejected(tmp_path, capsys):
    code = cli.main(["run", "--scenario", "fig2", "--set", "zeta=1",
                     "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "unknown key 'zeta'" in capsys.readouterr().err


def run_sweep(tmp_path, name, extra=()):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_DOC, encoding="utf-8")
    out = tmp_path / name
    code = cli.main(["run", "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def test_run_sweep_end_to_end(tmp_path, capsys):
    code, out = run_sweep(tmp_path, "run1")
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    csv = out / "sweep_T_M.csv"
    manifest = out / MANIFEST_NAME
    assert csv.exists() and manifest.exists()
    assert str(csv) in printed and str(manifest) in printed

    data = json.loads(manifest.read_text(encoding="utf-8"))
    assert set(data["files"]) == {"sweep_T_M.csv"}
    assert data["files"]["sweep_T_M.csv"]["sha256"] == file_sha256(csv)
    assert data["status"] == "complete"
    params = data["parameters"]
    assert params["sweep"]["axis"] == "T_M"
    assert params["base_model"]["sample_dt"] == 0.1
    assert params["boundary"] == "left" and params["workers"] == 1

    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# T_M(T̃),J_L(ħ/t̃²)")
    assert len(lines) == 4  # header + three grid points


def fresh_python(args, **exported):
    """stdout of a new interpreter run with ``args``, OPENBLAS_NUM_THREADS
    unset and then ``exported`` added."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, *args], env={**env, **exported},
                          capture_output=True, text=True, check=True,
                          timeout=300)
    return done.stdout


def test_temperature_sweep_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 15 ms to import in a fresh process
    def fresh(code):
        code += "; print('numpy.ma' in sys.modules)"
        return fresh_python(["-c", code]).split()[-1]

    if fresh("import sys, numpy") == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_DOC, encoding="utf-8")
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert fresh(f"import sys; from qtransistor import cli; "
                 f"assert cli.main({argv!r}) == 0") == "False"


def test_repeated_runs_are_byte_identical(tmp_path):
    _, out1 = run_sweep(tmp_path, "a")
    _, out2 = run_sweep(tmp_path, "b")
    _, out3 = run_sweep(tmp_path, "c", extra=("--workers", "3"))
    ref = (out1 / "sweep_T_M.csv").read_bytes()
    assert (out2 / "sweep_T_M.csv").read_bytes() == ref
    assert (out3 / "sweep_T_M.csv").read_bytes() == ref
    sha = json.loads((out1 / MANIFEST_NAME).read_text())["files"]
    sha3 = json.loads((out3 / MANIFEST_NAME).read_text())["files"]
    assert sha == sha3


def test_import_runs_blas_on_one_thread_unless_exported():
    code = ("import json, os, qtransistor; print(json.dumps("
            "[os.environ.get('OPENBLAS_NUM_THREADS'), "
            "qtransistor.BLAS_THREADS]))")
    value, record = json.loads(fresh_python(["-c", code]))
    assert value == "1"
    assert record == {"found": {"OPENBLAS_NUM_THREADS": None},
                      "numpy_loaded_first": False}
    value, record = json.loads(
        fresh_python(["-c", code], OPENBLAS_NUM_THREADS="2"))
    assert value == "2"
    assert record["found"] == {"OPENBLAS_NUM_THREADS": "2"}
    # numpy first: BLAS has read its thread count, so nothing is set
    value, record = json.loads(fresh_python(
        ["-c", code.replace("import json,", "import numpy, json,")]))
    assert value is None
    assert record == {"found": {"OPENBLAS_NUM_THREADS": None},
                      "numpy_loaded_first": True}


def test_blas_thread_count_does_not_change_the_tables(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_DOC, encoding="utf-8")
    runs = {"sweep": ["--config", str(cfg)],
            "fig12": ["--scenario", "fig12", "--set", "t_max=0.5"]}
    tables = {}
    for threads in ("1", "2"):
        for name, source in runs.items():
            out = tmp_path / f"{name}_{threads}"
            fresh_python(["-m", "qtransistor.cli", "run", *source,
                          "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
            tables[name, threads] = {p.name: p.read_bytes()
                                     for p in sorted(out.glob("*.csv"))}
            blas = json.loads((out / MANIFEST_NAME).read_text())[
                "blas_threads"]
            assert blas["found"]["OPENBLAS_NUM_THREADS"] == threads
            assert blas["numpy_loaded_first"] is False
    assert len(tables["sweep", "1"]) == 1 and len(tables["fig12", "1"]) == 3
    for name in runs:
        assert tables[name, "1"] == tables[name, "2"]


def test_set_t_beats_the_sweep_and_run_times(tmp_path):
    def run(text, name, extra=()):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / name
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         *extra]) == EXIT_OK
        return (out / "sweep_T_M.csv").read_bytes()

    in_sweep = SWEEP_DOC.replace("step = 0.5\n", "step = 0.5\nt = 0.5\n")
    ref = run(in_sweep.replace("t = 0.5", "t = 1.0"), "file")
    assert run(in_sweep, "set", ("--set", "t=1.0")) == ref
    assert run(SWEEP_DOC, "run_t", ("--set", "t=1.0")) == ref
    assert run(in_sweep, "unset") != ref


def test_set_t_supplies_a_sweep_time_the_file_lacks(tmp_path):
    no_t = tmp_path / "no_t.ini"
    no_t.write_text(SWEEP_DOC.replace("[run]\nt = 0.5\n", ""),
                    encoding="utf-8")
    assert cli.main(["validate", "--config", str(no_t)]) == EXIT_CONFIG
    assert cli.main(["run", "--config", str(no_t), "--out",
                     str(tmp_path / "unset")]) == EXIT_CONFIG
    assert cli.main(["run", "--config", str(no_t), "--out",
                     str(tmp_path / "set"), "--set", "t=0.5"]) == EXIT_OK
    with_t = tmp_path / "with_t.ini"
    with_t.write_text(SWEEP_DOC, encoding="utf-8")
    assert cli.main(["run", "--config", str(with_t), "--out",
                     str(tmp_path / "file")]) == EXIT_OK
    table = "sweep_T_M.csv"
    assert (tmp_path / "set" / table).read_bytes() == \
        (tmp_path / "file" / table).read_bytes()


def test_set_rejects_run_keys_a_sweep_would_not_read(tmp_path, capsys):
    def run(text, name, *sets):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / name
        args = [a for pair in sets for a in ("--set", pair)]
        code = cli.main(["run", "--config", str(cfg), "--out", str(out),
                         *args])
        return code, out, capsys.readouterr().err

    code, out, err = run(SWEEP_DOC, "t_max", "t_max=7.0")
    assert code == EXIT_CONFIG and not out.exists()
    assert "--set t_max=7.0: t_max is not read by a [sweep] run" in err
    on_t = SWEEP_DOC.replace("[run]\nt = 0.5\n", "").replace(
        "axis = T_M\nstart = 5.0\nstop = 6.0",
        "axis = t\nstart = 0.5\nstop = 1.0")
    code, out, err = run(on_t, "t", "t=1.0")
    assert code == EXIT_CONFIG and not out.exists()
    assert "--set t=1.0: t is not read by a [sweep] run with axis = t" in err
    assert run(on_t, "plain")[0] == EXIT_OK


def run_with_sets(tmp_path, text, name, *sets):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / name
    args = [a for pair in sets for a in ("--set", pair)]
    code = cli.main(["run", "--config", str(cfg), "--out", str(out), *args])
    return code, out


EPSILON_DOC = SWEEP_DOC.replace(
    "axis = T_M\nstart = 5.0\nstop = 6.0\nstep = 0.5",
    "axis = epsilon\nstart = 0.0\nstop = 0.01\nstep = 0.01")


def test_set_supplies_the_kind_an_epsilon_sweep_needs(tmp_path):
    code, out = run_with_sets(tmp_path, EPSILON_DOC, "set",
                              "kind=qutrit-nonlinear")
    assert code == EXIT_OK
    in_file = EPSILON_DOC.replace("[model]\n",
                                  "[model]\nkind = qutrit-nonlinear\n")
    assert run_with_sets(tmp_path, in_file, "file")[0] == EXIT_OK
    table = "sweep_epsilon.csv"
    assert (out / table).read_bytes() == \
        (tmp_path / "file" / table).read_bytes()


def test_set_kind_that_breaks_an_epsilon_sweep_is_rejected(tmp_path, capsys):
    in_file = EPSILON_DOC.replace("[model]\n",
                                  "[model]\nkind = qutrit-nonlinear\n")
    code, out = run_with_sets(tmp_path, in_file, "qubit", "kind=qubit")
    assert code == EXIT_CONFIG and not out.exists()
    assert "epsilon sweep requires kind = qutrit-nonlinear" in \
        capsys.readouterr().err


def test_set_model_values_are_checked_with_the_file_values(tmp_path, capsys):
    # sample_dt = 0.3 divides the window only once --set widens it
    coarse = SWEEP_DOC.replace("t = 0.5", "t = 0.6").replace(
        "sample_dt = 0.1", "sample_dt = 0.3")
    assert run_with_sets(tmp_path, coarse, "wide",
                         "dt_collision=0.6")[0] == EXIT_OK
    code, out = run_with_sets(tmp_path, SWEEP_DOC, "broken", "sample_dt=0.3")
    assert code == EXIT_CONFIG and not out.exists()
    assert "model rejected" in capsys.readouterr().err


def test_two_qubit_sweep_names_columns_after_the_modulating_bath(tmp_path):
    cfg = tmp_path / "two.ini"
    cfg.write_text(SWEEP_DOC.replace(
        "sample_dt = 0.1\n", "sample_dt = 0.1\npreset = appendixA\n"),
        encoding="utf-8")
    out = tmp_path / "two"
    assert cli.main(["run", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
    header = (out / "sweep_T_M.csv").read_text(
        encoding="utf-8").splitlines()[0]
    names = [c.split("(")[0] for c in header[2:].split(",")]
    assert names == ["T_L", "J_L", "J_R", "dJL_dTL", "dJR_dTL", "alpha_R",
                     "error"]


def test_env_var_supplies_the_output_directory(tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_DOC, encoding="utf-8")
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.ENV_OUT, str(target))
    assert cli.main(["run", "--config", str(cfg)]) == EXIT_OK
    assert (target / "sweep_T_M.csv").exists()


def test_out_flag_beats_config_and_env(tmp_path, monkeypatch):
    cfg = tmp_path / "sweep.ini"
    with_out = SWEEP_DOC.replace(
        "[run]\n", f"[run]\nout = {tmp_path / 'cfg_dir'}\n")
    cfg.write_text(with_out, encoding="utf-8")
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "env_dir"))
    chosen = tmp_path / "flag_dir"
    assert cli.main(["run", "--config", str(cfg),
                     "--out", str(chosen)]) == EXIT_OK
    assert (chosen / "sweep_T_M.csv").exists()
    assert not (tmp_path / "cfg_dir").exists()
    assert not (tmp_path / "env_dir").exists()


def load_run(*argv):
    """The RunConfig that ``qtransistor run *argv`` resolves."""
    return cli._load_run_config(cli._build_parser().parse_args(["run", *argv]))


@pytest.mark.parametrize("key, value, other, bad", (
    ("scenario", "fig12", "fig4", "figgy"),
    ("out", "results/a", "results/b", ""),
    ("workers", "3", "2", "0"),
    ("boundary", "right", "left", "middle"),
))
def test_a_run_flag_is_read_as_its_run_key(key, value, other, bad, capsys):
    def run_doc(v):
        keys = {"scenario": "fig2", key: v}
        return "[run]\n" + "".join(f"{k} = {x}\n" for k, x in keys.items())

    from_key = parse_config(run_doc(value))
    base = "[run]\n" if key == "scenario" else "[run]\nscenario = fig2\n"
    assert parse_config(base, flags={key: value}) == from_key
    assert parse_config(run_doc(other), flags={key: value}) == from_key
    argv = [] if key == "scenario" else ["--scenario", "fig2"]
    assert load_run(*argv, f"--{key}", value) == from_key

    with pytest.raises(ConfigError) as exc:
        parse_config(run_doc(bad))
    [in_file] = exc.value.problems
    line = run_doc(bad).splitlines().index(f"{key} = {bad}") + 1
    assert in_file.startswith(f"line {line}: ")
    as_flag = f"--{key}: " + in_file.split(": ", 1)[1]
    with pytest.raises(ConfigError) as exc:
        parse_config(base, flags={key: bad})
    assert exc.value.problems == [as_flag]
    assert cli.main(["run", *argv, f"--{key}", bad]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"invalid configuration:\n  {as_flag}\n"


def test_partial_failure_keeps_tables_and_returns_one(tmp_path, capsys):
    cfg = tmp_path / "partial.ini"
    cfg.write_text(doc("""
        [run]
        t = 0.5
        [model]
        sample_dt = 0.1
        [sweep]
        axis = T_M
        start = 0.0
        stop = 5.0
        step = 5.0
        """), encoding="utf-8")
    out = tmp_path / "partial"
    assert cli.main(["run", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_PARTIAL
    assert "failed" in capsys.readouterr().err
    lines = (out / "sweep_T_M.csv").read_text(encoding="utf-8").splitlines()
    assert "T_M must be positive" in lines[1]
    assert lines[2].endswith(",")  # second point clean
    data = json.loads((out / MANIFEST_NAME).read_text())
    assert data["status"] == "partial" and data["failed_points"] == 1


def test_a_sweep_whose_every_point_failed_keeps_its_columns(tmp_path):
    # the columns are the terminals asked for, not those of a clean point
    headers = []
    for stop, step in ((0.0, 0.03), (4.97, 5.0)):  # all failed, one clean
        cfg = tmp_path / f"stop{stop}.ini"
        cfg.write_text(SWEEP_DOC.replace("start = 5.0", "start = -0.03")
                       .replace("stop = 6.0", f"stop = {stop}")
                       .replace("step = 0.5", f"step = {step}"),
                       encoding="utf-8")
        out = tmp_path / f"stop{stop}"
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(out)]) == EXIT_PARTIAL
        lines = (out / "sweep_T_M.csv").read_text(
            encoding="utf-8").splitlines()
        assert "T_M must be positive" in lines[1]
        headers.append(lines[0])
    assert headers[0] == headers[1]
    assert len(headers[0].split(",")) == 1 + 3 + 3 + 2 + 1  # + error


def test_run_scenario_from_flags(tmp_path):
    out = tmp_path / "appA"
    code = cli.main(["run", "--scenario", "appendixA",
                     "--set", "sample_dt=0.1", "--out", str(out)])
    assert code == EXIT_OK
    csv = out / "appendixA.csv"
    assert csv.exists()
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("# T_L(T̃),J_L(ħ/t̃²),J_R(ħ/t̃²),"
                        "dJL_dTL(ħ/(t̃²·T̃)),dJR_dTL(ħ/(t̃²·T̃)),"
                        "alpha(dimensionless),error")
    assert len(lines) == 78  # header + 77 grid points
    data = json.loads((out / MANIFEST_NAME).read_text())
    assert data["parameters"]["scenario"] == "appendixA"
    assert data["parameters"]["overrides"] == {"sample_dt": 0.1}


@pytest.mark.parametrize("name, overrides", (("fig6", {"t_max": 1.0}),
                                             ("fig7", {})))
def test_detached_terminals_print_exact_zeros(name, overrides):
    # no ancilla on X: K_X = i [H_X, H_tot] = 0, so J_X, dJ_X and alpha_X
    # are exact zeros, written unsigned
    [table] = build_tables(name, overrides)
    names = [n for n, _ in table.columns]
    lines = render_table(table).splitlines()[1:]
    for col in ("alpha_R[right-detached]", "alpha_L[left-detached]"):
        j = names.index(col)
        assert all(row[j] == 0.0 for row in table.rows)
        assert {line.split(",")[j] for line in lines} == {"0.00000000000e+00"}


def test_sweep_of_a_detached_terminal_prints_exact_zeros():
    cfg = ModelConfig.default(sample_dt=0.1, attach_R=False)
    res = metrics.sweep(cfg, "T_M", [5.0, 7.5], t=1.0)
    table = sweep_table(res, "demo")
    names = [n for n, _ in table.columns]
    lines = render_table(table).splitlines()[1:]
    for col in ("J_R", "dJR_dTM", "alpha_R"):
        j = names.index(col)
        assert {line.split(",")[j] for line in lines} == {"0.00000000000e+00"}


def test_manifest_parameters_resolve_the_model():
    rc = RunConfig(scenario="fig2", sweep=None,
                   overrides={"g": 3.5, "t": 1.0})
    params = manifest_parameters(rc)
    assert params["base_model"]["g"] == 3.5
    assert params["scenario"] == "fig2"
    assert params["overrides"] == {"g": 3.5, "t": 1.0}
    assert params["blp_search"]["grid_theta"] == 7
    # exactly the [blp] keys: nothing the input cannot set
    assert set(params["blp_search"]) == {"grid_theta", "grid_phi",
                                         "refine_tol"}
    # and every field of the resolved model, nested ones as dicts
    assert set(params["base_model"]) == {"coupling", "env", "g",
                                         "dt_collision", "sample_dt",
                                         "n_qubits"}
    assert params["base_model"]["env"]["T_M"] == 10.0
