"""The library surface stays what the CLI, the README and the benchmark
use: a name that only the tests reach does not belong in the library."""

import ast
import re
from pathlib import Path

import udestats

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "udestats"
# Exported types that callers meet without naming them: each is returned
# or raised by a documented call.
RETURNED_OR_RAISED = {
    "EnsembleMoments": "returned by enumerate_ensemble",
    "WeightDistribution": "returned by weight_distribution",
    "MatrixFormatError": "raised by BitMatrix.parse_text on a bad file",
}


def _words(text: str) -> set[str]:
    return set(re.findall(r"\w+", text))


def test_every_export_has_a_user():
    text = ((ROOT / "README.md").read_text()
            + (SRC / "cli.py").read_text()
            + "".join(p.read_text()
                      for p in sorted((ROOT / "udebench").glob("*.py"))))
    words = _words(text)
    assert [n for n in udestats.__all__
            if n not in words and n not in RETURNED_OR_RAISED] == []
    assert set(RETURNED_OR_RAISED) <= set(udestats.__all__)


def test_every_top_level_def_is_used_or_exported():
    defs, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs += [node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [d for d in defs
            if d not in used and d not in udestats.__all__] == []
