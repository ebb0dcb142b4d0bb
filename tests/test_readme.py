"""Every command of the README's CLI block runs, and says what the README says.

Each ``reidemeister ...`` line of the first fenced block under ``## CLI``
(with its backslash continuations joined) goes through ``cli.run``; the
``phi.json`` it names is the README's own "Automorphism JSON" example.
Every ``#  -> `` line after a command is a verbatim piece of its output,
so the README cannot name a deleted flag or a changed answer.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
import re
import shlex

import pytest

from reidemeister.cli import EXIT_OK, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
ARROW = "#  -> "


def _fenced_blocks(text: str) -> list[str]:
    return re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.S | re.M)


def _cli_examples() -> list[tuple[str, list[str]]]:
    """(command line, expected output pieces) for each README command."""
    block = _fenced_blocks(README.split("\n## CLI\n", 1)[1])[0]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("reidemeister "):
            examples.append((line, []))
        elif line.startswith(ARROW):
            examples[-1][1].append(line[len(ARROW):])
    return examples


EXAMPLES = _cli_examples()


def test_the_cli_block_has_commands_and_answers():
    assert len(EXAMPLES) >= 10
    assert sum(len(pieces) for _, pieces in EXAMPLES) >= 10


@pytest.mark.parametrize("line, pieces", EXAMPLES, ids=[line[len("reidemeister "):] for line, _ in EXAMPLES])
def test_readme_command_runs_and_prints_its_answer(line, pieces, tmp_path):
    spec = json.loads(_fenced_blocks(README.split("\n## Automorphism JSON\n", 1)[1])[0])
    (tmp_path / "phi.json").write_text(json.dumps(spec))
    argv = [str(tmp_path / a) if a == "phi.json" else a for a in shlex.split(line)[1:]]
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == EXIT_OK, err.getvalue()
    for piece in pieces:
        assert piece in out.getvalue()
