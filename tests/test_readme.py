"""The README's examples run: its Python blocks, in order, in one
namespace, and its two command-line transcripts against main()."""

import re
from pathlib import Path

import pytest

from graphtoric.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def test_python_blocks_run():
    sources = [body for lang, body in BLOCKS if lang == "python"]
    assert len(sources) >= 2
    namespace = {}
    for source in sources:
        exec(compile(source, "README.md", "exec"), namespace)


def _elapsed_free(text):
    return re.sub(r"^elapsed: \d+ ms$", "elapsed: N ms", text, flags=re.M)


@pytest.mark.parametrize("command", ["analyze --theta 2", "batch 2 4"])
def test_transcript_matches_main(command, capsys):
    prompt = f"$ graphtoric {command}\n"
    block = next(body for lang, body in BLOCKS if lang == "sh" and body.startswith(prompt))
    assert main(command.split()) == 0
    assert _elapsed_free(capsys.readouterr().out) == _elapsed_free(block[len(prompt):])
