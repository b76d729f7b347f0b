"""Every ```python block and every ``accelpair`` command of README.md runs
against the package as it stands."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

import accelpair
from accelpair.cli import _build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
SH_LINES = [
    line.strip()
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
]
COMMANDS = [shlex.split(line)[1:] for line in SH_LINES if line.startswith("accelpair ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_cli_commands():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:4]))
def test_readme_cli_command_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--csv", "--svg"):
            assert (tmp_path / value).is_file(), value


def test_readme_export_paragraph_names_exactly_the_top_level_all():
    para = re.search(r"The top level `accelpair` exports the (\d+) names(.*?)\n\n", TEXT, re.S)
    assert para, "README has no export paragraph"
    assert int(para.group(1)) == len(accelpair.__all__)
    assert sorted(re.findall(r"`(\w+)`", para.group(2))) == sorted(accelpair.__all__)


def test_readme_cli_prose_names_exactly_the_parser_flags():
    section = re.search(r"^## CLI\n(.*?)^## ", TEXT, re.M | re.S).group(1)
    prose = re.sub(r"^```.*?^```$", "", section, flags=re.M | re.S)
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", prose))
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for p in sub.choices.values() for a in p._actions for s in a.option_strings}
    assert named == flags - {"-h", "--help"}
