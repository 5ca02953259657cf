"""The README's fenced ``python`` blocks and ``hermgabor`` command lines run
as written."""

import re
import shlex
from pathlib import Path

import pytest

from hermgabor.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
CLI_LINES = [line for block in re.findall(r"^```sh\n(.*?)^```",
                                          README.read_text(), re.S | re.M)
             for line in block.splitlines() if line.startswith("hermgabor ")]


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_lists_every_command():
    assert len(CLI_LINES) >= 7


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OUTPUT_DIR", raising=False)
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv + ["--validate-only"]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(argv) == 0
