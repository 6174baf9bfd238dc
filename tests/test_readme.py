"""The README's examples run as written: every `$ dresidues ...` line in its
`sh` blocks prints exactly the lines that follow it, and its `python` block
runs without error."""

import re
import shlex
from pathlib import Path

import pytest

from dresidues import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _sessions() -> list[tuple[list[str], list[str]]]:
    """(argv, expected stdout lines) for each `$ dresidues` line."""
    sessions = []
    for block in _blocks("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("$ dresidues "):
                expected = []
                for out in lines[i + 1 :]:
                    if out.startswith("$ "):
                        break
                    expected.append(out)
                sessions.append((shlex.split(line)[2:], expected))
    return sessions


SESSIONS = _sessions()


def test_readme_has_cli_examples():
    assert len(SESSIONS) >= 4


@pytest.mark.parametrize("argv, expected", SESSIONS, ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(SESSIONS)])
def test_cli_example(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_python_example():
    (code,) = _blocks("python")
    exec(compile(code, str(README), "exec"), {})
