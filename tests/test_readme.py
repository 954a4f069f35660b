"""The command lines in README's "Command line" block run as documented.

Each `quditlearn ...` line (with `\\` continuations joined) goes through
`cli.main` twice, once with its bracketed optional arguments dropped and once
with them kept, in a scratch directory that holds the files the lines name:
a one-entry `sweep.json`, and the `--config` file of `learn`/`experiment`,
whose content is README's first `json` block.  Every backticked `--flag` in
the section must be an option of some subcommand.  A removed flag or a stale
example then fails here.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from quditlearn.cli import build_parser, main

README = (Path(__file__).parent.parent / "README.md").read_text()
SECTION = re.search(r"^## Command line\n(.*?)(?=^## )", README, re.M | re.S).group(1)


def command_lines() -> list[list[str]]:
    block = re.search(r"\A\n```\n(.*?)^```", SECTION, re.M | re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("quditlearn ")]
    dropped = [shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:] for line in lines]
    kept = [shlex.split(re.sub(r"[\[\]]", "", line))[1:] for line in lines]
    return dropped + [argv for argv in kept if argv not in dropped]


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


def test_readme_flags_exist():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for p in subparsers.choices.values() for flag in p._option_string_actions}
    named = {flag for span in re.findall(r"`([^`\n]+)`", SECTION)
             for flag in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", span)}
    assert named - {"--key"} <= options
    assert {"--config", "--csv", "--seed"} <= named  # the scan sees the prose
