"""The README's examples run against the current package."""

import argparse
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import udestats
from udestats.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
# Backquoted words in the README prose that name output or other
# packages, not udestats code.
OUTPUT_TOKENS = {"MISMATCH_WITH_PAPER", "fractions.Fraction", "inf",
                 "neg_inf", "mean_se", "var_se", "udestats"}


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


def _resolves(name, bases):
    """Whether the dotted name is an attribute path from one of bases."""
    for obj in bases:
        try:
            for part in name.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            continue
        return True
    return False


def test_prose_names_exist():
    # Every backquoted identifier in the prose names something that
    # exists: a name in the package or one of its modules, a subcommand,
    # or one of the output tokens above.
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(),
                   flags=re.S)
    names = set(re.findall(r"`([A-Za-z_][\w.]*)`", prose))
    assert names
    bases = [udestats] + [importlib.import_module(f"udestats.{m.name}")
                          for m in pkgutil.iter_modules(udestats.__path__)
                          if not m.name.startswith("_")]
    commands = next(a.choices for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    unknown = sorted(name for name in names - OUTPUT_TOKENS
                     if name not in commands and not _resolves(name, bases))
    assert not unknown, f"README names what does not exist: {unknown}"
