"""Every command line in the README parses with the real parser."""

import re
import shlex
from pathlib import Path

from qtransistor import cli
from qtransistor.config import ConfigError, parse_set_overrides

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
