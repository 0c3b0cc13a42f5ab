"""The README's examples run against the current package."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from udestats.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_runs():
    # A renamed or deleted public name must not stay documented.
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                      text, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    res = subprocess.run([sys.executable, "-c", block], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("\n") == 5, res.stdout


def test_cli_examples_parse():
    # A documented subcommand or option that no longer exists must not stay
    # documented; the commands are parsed, not run.
    text = (ROOT / "README.md").read_text()
    commands = [shlex.split(line, comments=True)
                for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                for line in block.splitlines()
                if line.startswith("udestats ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
