"""Every name a kummerlab module imports is referenced in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kummerlab"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def _annotation_names(tree):
    """Names inside quoted annotations, which ast leaves as strings."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            notes += [x.annotation for x in (*a.posonlyargs, *a.args,
                                             *a.kwonlyargs, a.vararg, a.kwarg)
                      if x is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    out = set()
    for note in filter(None, notes):
        for c in ast.walk(note):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                out |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                        if isinstance(n, ast.Name)}
    return out


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    for node in tree.body:      # names listed in __all__ are exports
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_detected():
    src = ("from __future__ import annotations\nimport math\nimport os.path\n"
           "from x import a, b as c\n__all__ = ['a']\n"
           "def f(y: 'Thing') -> int:\n    return math.pi\n")
    assert unused_imports(src) == ["c (line 4)", "os (line 3)"]
    assert unused_imports("from t import Thing\ndef f(y: 'Thing'): pass\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
