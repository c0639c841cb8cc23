"""The README's CLI examples run as written and print their reports."""

import json
import re
import shlex
from pathlib import Path

import pytest

from prefixcode.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list[list[str]]:
    """The arguments of every ``prefixcode`` line in the README's ``sh``
    blocks, with ``\\`` continuations joined and ``#`` comments dropped."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                            re.MULTILINE | re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["prefixcode"]:
                examples.append(words[1:])
    return examples


EXAMPLES = readme_examples()


def test_the_readme_has_its_examples():
    assert len(EXAMPLES) == 10


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_readme_example_runs(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dist.txt").write_text("2/5\n1/5\n1/5\n1/5\n", encoding="utf-8")
    assert run(argv) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]
