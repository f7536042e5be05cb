"""The package holds only what the program or the benchmark reaches.

A module-level function or class of `src/hochheat` that no file of the
package or of `bench/` names is reached by the tests alone; it belongs in
`tests/oracles.py`, where the tests keep their independent oracles.
"""

import ast
import os
from typing import Dict, Iterable, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hochheat")
BENCH = os.path.join(ROOT, "bench")


def _sources(directory: str) -> List[Tuple[str, str]]:
    """(file name, text) of every Python file directly in `directory`."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out.append((name, fh.read()))
    return out


def _names(tree: ast.AST) -> Set[str]:
    """Every name the tree reads as a variable, an attribute or an import."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def _unreached(package: Iterable[Tuple[str, str]], others: Iterable[Tuple[str, str]]) -> List[str]:
    """'file:name' of each module-level def or class of `package` that no source names."""
    defined: Dict[str, str] = {}
    named: Set[str] = set()
    for name, text in package:
        tree = ast.parse(text, name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{name}:{node.name}"] = node.name
        named |= _names(tree)
    for name, text in others:
        named |= _names(ast.parse(text, name))
    return sorted(where for where, name in defined.items() if name not in named)


def test_every_package_definition_is_reached_from_the_package_or_the_benchmark():
    package = _sources(PACKAGE)
    assert {name for name, _ in package} >= {"spectral.py", "weyl.py", "chern.py", "circle.py"}
    assert _unreached(package, _sources(BENCH)) == []


def test_a_definition_only_the_tests_call_is_flagged():
    package = _sources(PACKAGE) + [("extra.py", "def only_tests():\n    return 1\n")]
    assert "extra.py:only_tests" in _unreached(package, _sources(BENCH))
