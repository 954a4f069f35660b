"""The command lines in README's "Command line" block run as documented.

Each `quditlearn ...` line (with `\\` continuations joined and bracketed
optional arguments dropped) goes through `cli.main` in a scratch directory
that holds the files the lines name: a one-entry `sweep.json`, and the
`--config` file of `learn`/`experiment`, whose content is README's first
`json` block.  A removed flag or a stale example then fails here.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from quditlearn.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def command_lines() -> list[list[str]]:
    block = re.search(r"^## Command line\n\n```\n(.*?)^```", README, re.M | re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("quditlearn ")]
    return [shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:] for line in lines]


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(json.dumps([{"problem": "lwe", "q": 5, "n": 2, "trials": 20}]))
    if argv[0] in ("learn", "experiment") and "--config" in argv:
        config = re.search(r"```json\n(.*?)\n\s*```", README, re.S).group(1)
        (tmp_path / argv[argv.index("--config") + 1]).write_text(config)
    code = main(argv)
    err = capsys.readouterr().err
    assert code in ((0, 1) if argv[0] == "learn" else (0,)), err  # learn exits 1 when it abstains
