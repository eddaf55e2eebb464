"""Declarative run configuration.

A run is configured by an INI document with up to four sections:

    [run]    scenario / output directory / workers / boundary / times
             (workers is recorded in the manifest; points run in series)
    [model]  physical parameters (couplings, temperatures, ancilla kind)
    [sweep]  an explicit one-axis sweep (alternative to a scenario)
    [blp]    search settings for the memory-measure scenarios

Exactly one of ``run.scenario`` and a ``[sweep]`` section must be given.
Unknown sections or keys, unparseable values, and out-of-domain values are
all reported with the line they occur on; nothing is computed until the
whole document validates.  Omitted keys fall back to the reference setup
(delta = 3, g = 4, collision window 0.5, T_L = 4, T_M = T_R = 10,
sample spacing 0.01).

``parse_config`` is the one place where a run's settings are decided.
Every value, whether from a document line, a ``--set key=value`` pair (any
[model] or [blp] key, plus ``t`` and ``t_max``) or a ``run`` flag (read as
the [run] key of its name), is converted and domain-checked by one rule,
``_read_value``.  Pairs and flags beat the document's values, and every
cross-field check (keys a [sweep] run would not read, the evaluation time,
the epsilon-sweep kind, the combined model, a nonzero epsilon on an ancilla
kind that does not read it, sweep terminals the model lacks or that name
the modulating one) then runs once, on the merged values.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from . import metrics
from .engine import BOUNDARY_SIDES
from .model import COUPLING_PRESETS, ENV_KINDS, ModelConfig, TERMINALS
from .nonmarkov import SearchConfig
from .output import Table, sweep_table
from .scenarios import (RUN_OVERRIDE_KEYS, _make_config, build_tables,
                        scenario_names)

__all__ = ["ConfigError", "SweepSpec", "RunConfig", "parse_config",
           "parse_set_overrides", "manifest_parameters", "run_tables"]


class ConfigError(ValueError):
    """Validation failure; ``problems`` lists one diagnostic per issue."""

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__(
            "invalid configuration:\n"
            + "\n".join(f"  {p}" for p in self.problems))


_BOOLEANS = {"1": True, "yes": True, "true": True, "on": True,
             "0": False, "no": False, "false": False, "off": False}


def _to_bool(raw: str) -> bool:
    try:
        return _BOOLEANS[raw.strip().lower()]
    except KeyError:
        raise ValueError(raw) from None


def _to_terminals(raw: str) -> Tuple[str, ...]:
    items = tuple(p.strip() for p in raw.split(",") if p.strip())
    if not items or any(x not in TERMINALS for x in items):
        raise ValueError(raw)
    return items


@dataclass(frozen=True)
class _Key:
    convert: Callable[[str], Any]
    type_name: str
    check: Optional[Callable[[Any], bool]] = None
    domain: str = ""


def _read_value(into: Dict[str, Any], key: str, raw: str, spec: _Key,
                where: str, problems: List[str]) -> None:
    """Convert and domain-check one raw value and store it in ``into``.

    The one rule for document lines, ``--set`` pairs and run flags alike;
    a bad value becomes a problem prefixed with ``where`` (its line or
    flag) and is left out of ``into``.
    """
    try:
        val = spec.convert(raw)
    except (ValueError, TypeError):
        problems.append(
            f"{where}{key} = {raw!r} is not a valid {spec.type_name}")
        return
    if spec.check is not None and not spec.check(val):
        problems.append(
            f"{where}{key} = {raw!r} out of domain ({spec.domain})")
        return
    into[key] = val


def _fkey(check=None, domain="") -> _Key:
    return _Key(float, "number", check, domain)


def _ikey(check=None, domain="") -> _Key:
    return _Key(int, "integer", check, domain)


def _bkey() -> _Key:
    return _Key(_to_bool, "boolean")


def _ckey(choices, lead="one of ") -> _Key:
    choices = tuple(choices)
    return _Key(str.strip, "string", lambda v: v in choices,
                lead + ", ".join(choices))


_POS = (lambda v: v > 0, "must be positive")

_MODEL_KEYS: Dict[str, _Key] = {
    "preset": _ckey(COUPLING_PRESETS),
    "delta": _fkey(),
    "g": _fkey(),
    "dt_collision": _fkey(*_POS),
    "sample_dt": _fkey(*_POS),
    "n_qubits": _ikey(lambda v: v in (2, 3), "must be 2 or 3"),
    "kind": _ckey(ENV_KINDS),
    "epsilon": _fkey(),
    "T_L": _fkey(*_POS),
    "T_M": _fkey(*_POS),
    "T_R": _fkey(*_POS),
    "attach_L": _bkey(),
    "attach_M": _bkey(),
    "attach_R": _bkey(),
}

_RUN_KEYS: Dict[str, _Key] = {
    "scenario": _ckey(scenario_names(), "unknown scenario; known: "),
    "out": _Key(str.strip, "string", bool, "must not be empty"),
    "workers": _ikey(lambda v: v >= 1, "must be >= 1"),
    "boundary": _ckey(BOUNDARY_SIDES),
    "t": _fkey(*_POS),
    "t_max": _fkey(*_POS),
}

_SWEEP_KEYS: Dict[str, _Key] = {
    "axis": _ckey(metrics.SWEEP_AXES),
    "start": _fkey(),
    "stop": _fkey(),
    "step": _fkey(*_POS),
    "t": _fkey(*_POS),
    "terminals": _Key(_to_terminals, "terminal list",
                      domain="comma-separated subset of L, M, R"),
}

_BLP_KEYS: Dict[str, _Key] = {
    "grid_theta": _ikey(lambda v: v >= 2, "must be >= 2"),
    "grid_phi": _ikey(lambda v: v >= 2, "must be >= 2"),
    "refine_tol": _fkey(*_POS),
}

_SECTIONS = {"run": _RUN_KEYS, "model": _MODEL_KEYS, "sweep": _SWEEP_KEYS,
             "blp": _BLP_KEYS}


@dataclass(frozen=True)
class SweepSpec:
    """An explicit one-axis sweep: grid plus evaluation settings."""

    axis: str
    start: float
    stop: float
    step: float
    t: Optional[float] = None
    terminals: Optional[Tuple[str, ...]] = None

    def grid(self) -> np.ndarray:
        n = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return np.round(self.start + self.step * np.arange(n), 12)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description (scenario or explicit sweep)."""

    scenario: Optional[str]
    sweep: Optional[SweepSpec]
    overrides: Dict[str, Any]          # model keys plus t / t_max
    out_dir: Optional[str] = None
    workers: int = 1                   # recorded only; points run in series
    boundary: str = "left"
    search: SearchConfig = SearchConfig()

    def resolved_model(self) -> ModelConfig:
        return _make_config(self.overrides)


def _problem_order(problem: str) -> Tuple[int, str]:
    # "line N: ..." first, by N; document-level diagnostics after
    if problem.startswith("line "):
        head = problem[5:].split(":", 1)[0]
        if head.isdigit():
            return (int(head), problem)
    return (10 ** 9, problem)


def _line_map(text: str) -> Dict[Tuple[str, Optional[str]], int]:
    """1-based line numbers of section headers and key assignments."""
    out: Dict[Tuple[str, Optional[str]], int] = {}
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            out.setdefault((section, None), lineno)
            continue
        if raw[:1] in (" ", "\t"):
            continue  # continuation of the previous value
        for delim in "=:":
            if delim in line:
                key = line.split(delim, 1)[0].strip()
                if section is not None and key:
                    out.setdefault((section, key), lineno)
                break
    return out


def _read_ini(text: str) -> configparser.ConfigParser:
    # an inline comment needs whitespace before its ';' or '#'
    parser = configparser.ConfigParser(
        interpolation=None, strict=True,
        inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # temperatures are case-sensitive (T_L vs T_l)
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        # subclasses ParsingError, so it must be caught first
        raise ConfigError(
            [f"line {exc.lineno}: key outside any [section]"]) from None
    except configparser.ParsingError as exc:
        raise ConfigError(
            [f"line {lineno}: cannot parse {line.strip()!r}"
             for lineno, line in exc.errors]) from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(
            [f"line {exc.lineno}: duplicate key {exc.option!r} in "
             f"[{exc.section}]"]) from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(
            [f"line {exc.lineno}: duplicate section [{exc.section}]"]
        ) from None
    except configparser.Error as exc:
        raise ConfigError([str(exc)]) from None
    return parser


def parse_config(text: str, sets: Sequence[str] = (), *,
                 flags: Optional[Mapping[str, str]] = None) -> RunConfig:
    """Validate an INI document plus ``--set key=value`` pairs and ``run``
    flags, and resolve them into a RunConfig.

    ``flags`` maps [run] keys to the raw strings given on the command line
    (``{"workers": "3"}`` for ``--workers 3``).  Pairs and flags are read
    by the same rule as the document's lines and merged over its values
    (``--set t`` also beats ``t`` in [sweep]) before any cross-field check,
    so every check runs once, on the values the run uses.
    """
    parser = _read_ini(text)
    lines = _line_map(text)
    problems: List[str] = []
    try:
        set_values, set_blp = parse_set_overrides(sets)
    except ConfigError as exc:
        problems += exc.problems
        set_values, set_blp = {}, {}
    flags = flags or {}

    def at(section: str, key: Optional[str] = None) -> str:
        n = lines.get((section, key))
        return f"line {n}: " if n else ""

    for section in parser.sections():
        if section not in _SECTIONS:
            problems.append(
                f"{at(section)}unknown section [{section}]; expected one of "
                + ", ".join(f"[{s}]" for s in _SECTIONS))

    values: Dict[str, Dict[str, Any]] = {s: {} for s in _SECTIONS}
    for section, table in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            spec = table.get(key)
            if spec is None:
                problems.append(
                    f"{at(section, key)}unknown key {key!r} in [{section}]; "
                    "expected one of " + ", ".join(sorted(table)))
                continue
            _read_value(values[section], key, raw, spec, at(section, key),
                        problems)
    flag_values: Dict[str, Any] = {}
    for key, raw in flags.items():
        _read_value(flag_values, key, raw, _RUN_KEYS[key], f"--{key}: ",
                    problems)

    run = {**values["run"], **flag_values}
    overrides = dict(values["model"])
    overrides.update((k, run[k]) for k in RUN_OVERRIDE_KEYS if k in run)
    overrides.update(set_values)

    # presence from the raw input, so an invalid value is reported once
    has_scenario = parser.has_option("run", "scenario") or "scenario" in flags
    has_sweep = parser.has_section("sweep")
    if has_scenario == has_sweep:
        which = "both given" if has_scenario else "neither given"
        problems.append(
            "exactly one of run.scenario and a [sweep] section is required "
            f"({which})")

    sweep_spec: Optional[SweepSpec] = None
    if has_sweep and not has_scenario:
        sw = values["sweep"]
        axis = sw.get("axis")
        # run keys a [sweep] run never reads: it has no horizon, and an
        # axis = t sweep takes its times from the grid
        ignored = () if axis is None else \
            ("t_max", "t") if axis == "t" else ("t_max",)
        problems += [
            f"{at(section, k)}{k} in [{section}] is not read by a [sweep] "
            f"run with axis = {axis}"
            for section in ("run", "sweep") for k in ignored
            if k in values[section]]
        problems += [
            f"--set {k}={set_values[k]!r}: {k} is not read by a [sweep] run "
            f"with axis = {axis}" for k in ignored if k in set_values]
        missing = [k for k in ("axis", "start", "stop", "step")
                   if not parser.has_option("sweep", k)]
        for k in missing:
            problems.append(
                f"{at('sweep')}missing required key {k!r} in [sweep]")
        if not missing and not problems:
            if sw["stop"] < sw["start"]:
                problems.append(
                    f"{at('sweep', 'stop')}sweep stop {sw['stop']} is below "
                    f"start {sw['start']}")
            t_eval = set_values.get("t", sw.get("t", run.get("t")))
            if axis != "t" and t_eval is None:
                problems.append(
                    f"{at('sweep')}axis {axis!r} needs an evaluation "
                    "time: set t in [sweep] or [run]")
            if axis == "epsilon" and \
                    overrides.get("kind") != "qutrit-nonlinear":
                problems.append(
                    f"{at('sweep', 'axis')}epsilon sweep requires "
                    "kind = qutrit-nonlinear in [model]")
            if not problems:
                sweep_spec = SweepSpec(
                    axis=axis, start=sw["start"], stop=sw["stop"],
                    step=sw["step"], t=t_eval, terminals=sw.get("terminals"))

    if problems:
        raise ConfigError(sorted(problems, key=_problem_order))

    rc = RunConfig(
        scenario=run.get("scenario"),
        sweep=sweep_spec,
        overrides=overrides,
        out_dir=run.get("out"),
        workers=run.get("workers", 1),
        boundary=run.get("boundary", "left"),
        search=SearchConfig(**{**values["blp"], **set_blp}),
    )
    try:
        model = rc.resolved_model()  # combined-value checks (divisibility)
    except (ValueError, TypeError) as exc:
        raise ConfigError([f"{at('model')}model rejected: {exc}"]) from None
    if model.env.epsilon != 0.0 and model.env.kind != "qutrit-nonlinear":
        raise ConfigError([
            f"{at('model', 'epsilon')}epsilon = {model.env.epsilon} is read "
            f"only with kind = qutrit-nonlinear, not {model.env.kind}"])
    terminals = (sweep_spec and sweep_spec.terminals) or ()
    lacking = ", ".join(repr(x) for x in terminals
                        if x not in model.system_terminals)
    if lacking:
        problems.append(
            f"terminals names {lacking}, which the model does not have "
            f"(its terminals: {', '.join(model.system_terminals)})")
    mod = model.modulating_terminal
    if mod in terminals:
        problems.append(f"terminals names the modulating terminal {mod!r}, "
                        "which has no alpha")
    if problems:
        raise ConfigError(
            [at("sweep", "terminals") + p for p in problems])
    return rc


_SET_KEYS: Dict[str, Tuple[str, _Key]] = {}
for _table_name, _table in (("model", _MODEL_KEYS), ("blp", _BLP_KEYS)):
    for _k, _spec in _table.items():
        _SET_KEYS[_k] = (_table_name, _spec)
for _k in RUN_OVERRIDE_KEYS:
    _SET_KEYS[_k] = ("run", _RUN_KEYS[_k])


def parse_set_overrides(pairs: Sequence[str]) -> Tuple[Dict[str, Any],
                                                       Dict[str, Any]]:
    """Validate ``--set key=value`` pairs.

    Returns (model-and-time overrides, blp overrides); diagnostics carry
    ``--set`` or the offending pair instead of a line number.
    """
    problems: List[str] = []
    overrides: Dict[str, Any] = {}
    blp: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            problems.append(f"--set {pair!r}: expected key=value")
            continue
        key, raw = (s.strip() for s in pair.split("=", 1))
        entry = _SET_KEYS.get(key)
        if entry is None:
            problems.append(
                f"--set {pair!r}: unknown key {key!r}; expected one of "
                + ", ".join(sorted(_SET_KEYS)))
            continue
        table_name, spec = entry
        _read_value(blp if table_name == "blp" else overrides, key, raw,
                    spec, "--set: ", problems)
    if problems:
        raise ConfigError(problems)
    return overrides, blp


def run_tables(rc: RunConfig) -> List[Table]:
    """The tables of a validated run: its scenario's, or its sweep's."""
    if rc.scenario is not None:
        return build_tables(rc.scenario, rc.overrides, boundary=rc.boundary,
                            search=rc.search)
    spec, model = rc.sweep, rc.resolved_model()
    result = metrics.sweep(model, spec.axis, spec.grid(), spec.terminals,
                           t=spec.t, boundary=rc.boundary)
    return [sweep_table(result, f"sweep_{spec.axis}",
                        model.modulating_terminal)]


def manifest_parameters(rc: RunConfig) -> Dict[str, Any]:
    """Parameter block for the manifest; enough to re-run bit-exactly."""
    model = rc.resolved_model()
    params: Dict[str, Any] = {
        "boundary": rc.boundary,
        "workers": rc.workers,
        "overrides": dict(rc.overrides),
        "blp_search": dataclasses.asdict(rc.search),
        "base_model": dataclasses.asdict(model),
    }
    if rc.scenario is not None:
        params["scenario"] = rc.scenario
    if rc.sweep is not None:
        params["sweep"] = dataclasses.asdict(rc.sweep)
    return params
