"""Every command line in the README parses with the real parser, every
config example validates, and every Python example imports and calls the
real API."""

import ast
import inspect
import re
import shlex
from pathlib import Path

from qtransistor import cli
from qtransistor.config import ConfigError, parse_config, parse_set_overrides

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("qtransistor ")]


def test_readme_command_lines_parse():
    lines = readme_commands()
    assert len(lines) >= 4
    problems = []
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            args = cli._build_parser().parse_args(argv)
            parse_set_overrides(getattr(args, "sets", []))
        except SystemExit:
            problems.append(f"{line!r}: rejected by the argument parser")
        except ConfigError as exc:
            problems.append(f"{line!r}: {exc}")
    assert not problems, "\n".join(problems)


def test_readme_ini_blocks_validate():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        parse_config(block)  # a ConfigError lists every problem


def _resolve(node, names):
    """The object a call target refers to, if it is rooted in an import."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, names)
        return getattr(owner, node.attr, None) if owner is not None else None
    return None


def test_readme_python_imports_and_keywords_exist():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    problems = []
    for block in blocks:
        tree = ast.parse(block)
        names = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module.split(".")[0] == "qtransistor":
                line = ast.unparse(node)
                try:
                    exec(line, names)
                except ImportError as exc:
                    problems.append(f"{line!r}: {exc}")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve(node.func, names)
            if target is None:
                continue
            signature = inspect.signature(target)
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                try:
                    signature.bind_partial(**{kw.arg: None})
                except TypeError:
                    problems.append(f"{ast.unparse(node)!r}: "
                                    f"no keyword {kw.arg!r}")
    assert not problems, "\n".join(problems)
