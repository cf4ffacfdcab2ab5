"""Every `hatlab ...` example in README's code blocks runs and exits 0.

`hatlab suite` is left out: tests/test_acceptance.py runs the same battery.
The examples read `candidate.json` and `parts.json` from the working
directory, so the test writes both into a temporary one first.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from hatlab.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = [line.split(" #")[0].strip() for block in blocks for line in block.splitlines()]
    return [line for line in lines if line.startswith("hatlab ") and line.split()[1] != "suite"]


def test_readme_has_the_command_examples():
    assert len(readme_commands()) == 14


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status, records = run(["blockers", "build", "--bits", "4", "--seed", "3"], capture=True)
    assert status == 0
    Path("candidate.json").write_text(json.dumps(records[0]["values"]["family"]))
    Path("parts.json").write_text(json.dumps([[0, 1, 2, 3], [4, 5, 6, 7]]))
    status, _ = run(shlex.split(line)[1:], capture=True)
    assert status == 0, line
