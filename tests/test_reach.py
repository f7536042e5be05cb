"""The package holds only what the program or the benchmark reaches.

A module-level function or class of `src/hochheat` that no file of the
package or of `bench/` names is reached by the tests alone; it belongs in
`tests/oracles.py`, where the tests keep their independent oracles.  The
same holds for the members of its classes: a method or dataclass field
that no file of the package or of `bench/` reads as an attribute.  The
scan goes by name, so a member that shares its name with an attribute read
elsewhere escapes it.

The package also imports nothing but the standard library, numpy and
itself.  Its checks are declared one way: only `report.py` and the one
method `_Recorder.check` build a `CheckResult`, and no recorder call passes
a verdict, so each verdict is read from the values the report prints.  A
spectral model is frozen, so a query keeps nothing on it.
"""

import ast
import dataclasses
import os
import pickle
import sys
from typing import Dict, Iterable, List, Set, Tuple

import pytest

from hochheat.spectral import (SpectralModel, build_model, harmonic_supertrace,
                               limit_supertrace)
from hochheat.weyl import d_var, mul, z_var

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


def _unread_members(package: List[Tuple[str, str]], others: List[Tuple[str, str]]) -> List[str]:
    """'file:Class.member' of each method or field of a `package` class read as no attribute.

    Dunder methods are left out: the language calls them.
    """
    read = {node.attr for name, text in package + others for node in ast.walk(ast.parse(text, name))
            if isinstance(node, ast.Attribute)}
    unread = []
    for name, text in package:
        for cls in ast.parse(text, name).body:
            for node in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    member = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    member = node.target.id
                else:
                    continue
                if member not in read and not (member.startswith("__") and member.endswith("__")):
                    unread.append(f"{name}:{cls.name}.{member}")
    return sorted(unread)


def _foreign_imports(package: Iterable[Tuple[str, str]]) -> List[str]:
    """'file:module' of each import or absolute from-import beyond stdlib, numpy and the package."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "hochheat"}
    out = []
    for name, text in package:
        for node in ast.walk(ast.parse(text, name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            out += [f"{name}:{m}" for m in modules if m.split(".")[0] not in allowed]
    return sorted(out)


def test_the_package_depends_on_numpy_alone():
    assert _foreign_imports(_sources(PACKAGE)) == []


def test_an_import_of_another_library_is_flagged():
    package = _sources(PACKAGE) + [("extra.py", "import sympy\nfrom mpmath import mp\n")]
    assert _foreign_imports(package) == ["extra.py:mpmath", "extra.py:sympy"]


def test_every_package_definition_is_reached_from_the_package_or_the_benchmark():
    package = _sources(PACKAGE)
    assert {name for name, _ in package} >= {"spectral.py", "weyl.py", "chern.py", "circle.py"}
    assert _unreached(package, _sources(BENCH)) == []


def test_a_definition_only_the_tests_call_is_flagged():
    package = _sources(PACKAGE) + [("extra.py", "def only_tests():\n    return 1\n")]
    assert "extra.py:only_tests" in _unreached(package, _sources(BENCH))


def test_every_class_member_is_read_from_the_package_or_the_benchmark():
    assert _unread_members(_sources(PACKAGE), _sources(BENCH)) == []


def test_a_field_no_program_reads_is_flagged():
    extra = ("extra.py", "class Row:\n    value: float\n    only_tests: float\n\n"
                         "def total(row):\n    return row.value\n")
    unread = _unread_members(_sources(PACKAGE) + [extra], _sources(BENCH))
    assert "extra.py:Row.only_tests" in unread and "extra.py:Row.value" not in unread


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _result_builders(package: Iterable[Tuple[str, str]]) -> List[str]:
    """'file:qualified.name' of each function, or '<module>', that calls `CheckResult(...)`."""
    found: Set[str] = set()

    def visit(node: ast.AST, file: str, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, file, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Call) and _callee(child) == "CheckResult":
                found.add(f"{file}:{where or '<module>'}")
            visit(child, file, where)

    for name, text in package:
        visit(ast.parse(text, name), name, "")
    return sorted(found)


def _is_verdict(node: ast.AST) -> bool:
    """A comparison, `and`/`or`, `not`, True or False, or a conditional that chooses by one."""
    if isinstance(node, ast.IfExp):
        return _is_verdict(node.test)
    return (isinstance(node, (ast.Compare, ast.BoolOp))
            or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
            or isinstance(node, ast.Constant) and isinstance(node.value, bool))


def _passed_verdicts(package: Iterable[Tuple[str, str]]) -> List[str]:
    """'file:line' of each `.check` or `.failures` call that passes a verdict: a sixth
    positional argument, an `ok` or `verdict` keyword, or an argument that `_is_verdict`;
    a bool constant may name a relation by keyword."""
    out = []
    for name, text in package:
        for node in ast.walk(ast.parse(text, name)):
            if not (isinstance(node, ast.Call) and _callee(node) in ("check", "failures")):
                continue
            keywords = [kw for kw in node.keywords if not isinstance(kw.value, ast.Constant)]
            # a sixth positional argument is where a free verdict went
            if (len(node.args) > 5 or any(kw.arg in ("ok", "verdict") for kw in node.keywords)
                    or any(_is_verdict(a) for a in node.args + [kw.value for kw in keywords])):
                out.append(f"{name}:{node.lineno}")
    return out


def test_only_the_report_and_the_recorder_build_a_check_result():
    builders = _result_builders(_sources(PACKAGE))
    assert "suite.py:_Recorder.check" in builders
    assert [b for b in builders if b != "suite.py:_Recorder.check"
            and not b.startswith("report.py:")] == []


def test_no_check_is_declared_with_its_verdict():
    assert _passed_verdicts(_sources(PACKAGE)) == []


def test_a_passed_verdict_and_a_second_builder_are_flagged():
    extra = ("extra.py", "def family(rec, a, b):\n"
                         "    rec.check('x.a', 'claim', 'a', 'b', 'exact', a == b)\n"
                         "    rec.check('x.b', 'claim', 'equal' if a == b else 'no', 'equal')\n"
                         "    rec.check('x.c', 'claim', a, b, ok=True)\n"
                         "    rec.check('x.d', 'claim', 'a', 'b', 'exact', ok)\n"
                         "    rec.check('x.e', 'claim', a, b, 1e-6, at_most=True)\n"
                         "    return [CheckResult('x.e', 'c', '1', '1', 'exact', 'pass', 0.0)]\n")
    package = _sources(PACKAGE) + [extra]
    assert _passed_verdicts(package) == ["extra.py:2", "extra.py:3", "extra.py:4", "extra.py:5"]
    assert "extra.py:family" in _result_builders(package)


def test_a_spectral_model_is_frozen():
    # neither a field nor a new attribute, such as a memo of operator blocks, can be set
    model = build_model(0, 2)
    assert SpectralModel.__dataclass_params__.frozen
    for name in [f.name for f in dataclasses.fields(model)] + ["_op_cache"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, None)


def test_a_query_leaves_the_model_unchanged():
    # the supertraces and basis_meta read the model's tables and keep nothing on it, neither a
    # new entry of its __dict__ nor a changed array; z d/dz reads both degrees
    model = build_model(1, 6)
    before = pickle.dumps(vars(model))
    zd = mul(z_var(1, 1), d_var(1, 1))
    harmonic_supertrace(model, zd)
    limit_supertrace(model, zd, [0.5, 11.0])
    assert model.basis_meta["max_gram_condition"] > 1
    assert pickle.dumps(vars(model)) == before
