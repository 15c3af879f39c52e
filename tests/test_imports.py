"""Every name a kummerlab module imports is referenced in that module,
every module-level private function is referenced somewhere in the package,
every public function is named, and every public method read as an
attribute, in the package or the benchmark, no module runs text as code,
multiplicative orders mod m come from one table, a character makes a
Fraction only when its value is read, sympy is loaded only by the
algebraic factoring fallback, only
`splitting.Field` asks whether a field description is a tower, every
defaulted parameter of a module-level function is passed by some call,
only `build_L` decides a plan's field class and height, and only
`TowerPlan.lift` base-changes in `determination`."""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

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


def _names(node):
    """Every name and attribute under `node`."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level `_private` functions no other code in `sources` names.

    A reference is a name or attribute anywhere in the sources outside the
    function's own body, so recursion alone does not count.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = Counter(name for tree in trees.values() for name in _names(tree))
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and refs[node.name] == sum(1 for n in _names(node)
                                                if n == node.name)):
                out.append(f"{mod}:{node.name} (line {node.lineno})")
    return sorted(out)


def test_unreferenced_private_functions_detected():
    sources = {"a.py": "def _used():\n    pass\ndef _loop(n):\n    return _loop(n)\n"
                       "def _dead():\n    pass\ndef _shared():\n    pass\n"
                       "def _by_attr():\n    pass\ndef public():\n    return _used()\n",
               "b.py": "from a import _shared\nx = _shared()\ny = a._by_attr\n"}
    assert unreferenced_private_functions(sources) == [
        "a.py:_dead (line 5)", "a.py:_loop (line 3)"]


def test_no_unreferenced_private_functions():
    sources = {m: (SRC / m).read_text() for m in MODULES}
    assert unreferenced_private_functions(sources) == []


def unreferenced_public_functions(defs: dict[str, str],
                                  refs: dict[str, str]) -> list[str]:
    """Public module-level functions and methods in `defs` that no code in
    `refs` names outside their own body.

    A module-level function is referenced by a name or an attribute, as
    in `unreferenced_private_functions`; a method only by an attribute
    read (`.name`), so a module-level function of the same name does not
    hide it.  A method is still hidden when another class has a method or
    attribute of the same name.  Dunder methods are called implicitly and
    are never flagged.
    """
    def funcs(body):
        return [n for n in body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]

    def attrs(node):
        return (n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))

    trees = [ast.parse(text) for text in refs.values()]
    names = Counter(name for tree in trees for name in _names(tree))
    reads = Counter(name for tree in trees for name in attrs(tree))
    out = []
    for mod, text in defs.items():
        tree = ast.parse(text)
        found = [(f, f.name, _names, names) for f in funcs(tree.body)]
        found += [(f, f"{c.name}.{f.name}", attrs, reads) for c in tree.body
                  if isinstance(c, ast.ClassDef) for f in funcs(c.body)]
        for node, label, refs_in, counts in found:
            if (not node.name.startswith("_")
                    and counts[node.name] == sum(1 for n in refs_in(node)
                                                  if n == node.name)):
                out.append(f"{mod}:{label} (line {node.lineno})")
    return sorted(out)


def test_unreferenced_public_functions_detected():
    defs = {"a.py": "def used():\n    pass\ndef dead():\n    return dead()\n"
                    "class C:\n    def method(self):\n        pass\n"
                    "    def spare(self):\n        pass\n"
                    "    def __eq__(self, other):\n        pass\n"
                    "    def used(self):\n        pass\n"
                    "def _private():\n    pass\n"}
    refs = dict(defs, **{"b.py": "used()\nC().method()\n"})
    assert unreferenced_public_functions(defs, refs) == [
        "a.py:C.spare (line 8)", "a.py:C.used (line 12)",
        "a.py:dead (line 3)"]


def test_no_unreferenced_public_functions():
    defs = {m: (SRC / m).read_text() for m in MODULES}
    refs = {str(p): p.read_text() for d in ("src", "perfbench")
            for p in sorted((SRC.parent.parent / d).rglob("*.py"))}
    assert unreferenced_public_functions(defs, refs) == []


def code_from_text_calls(source: str) -> list[str]:
    """Calls that run text as Python: eval, exec and sympy's sympify."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id in ("eval", "exec", "sympify")
                or isinstance(f, ast.Attribute) and f.attr == "sympify"):
            out.append(f"{ast.unparse(f)} (line {node.lineno})")
    return out


def test_code_from_text_calls_detected():
    src = ("import sympy\nfrom sympy import sympify\nx = eval('1')\n"
           "exec('y = 2')\nz = sympy.sympify('z')\nw = sympify('w')\n"
           "v = sympy.Poly(z).eval(1)\nu = ast.literal_eval('1')\n")
    assert code_from_text_calls(src) == ["eval (line 3)", "exec (line 4)",
                                         "sympy.sympify (line 5)",
                                         "sympify (line 6)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_code_from_text(module):
    assert code_from_text_calls((SRC / module).read_text()) == []


def unbounded_inconclusive_raises(source: str) -> list[str]:
    """`raise InconclusiveError` outside a function with a `bound` parameter.

    The error means a search exhausted its bound, so it belongs to a
    function that takes one.
    """
    out = []

    def visit(node, has_bound):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            has_bound = any(x.arg == "bound" for x in
                            (*a.posonlyargs, *a.args, *a.kwonlyargs))
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else \
                getattr(exc, "id", None)
            if name == "InconclusiveError" and not has_bound:
                out.append(f"line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, has_bound)

    visit(ast.parse(source), False)
    return out


def test_unbounded_inconclusive_raises_detected():
    src = ("def search(x, bound=10):\n    raise InconclusiveError('b')\n"
           "def seed(x):\n    raise InconclusiveError('no seed')\n"
           "class F:\n    def scan(self, bound):\n"
           "        def inner(y):\n            raise cyclotomic.InconclusiveError\n"
           "        raise InconclusiveError\n"
           "raise InconclusiveError()\n")
    assert unbounded_inconclusive_raises(src) == ["line 4", "line 8", "line 10"]


@pytest.mark.parametrize("module", MODULES)
def test_inconclusive_only_under_a_bound(module):
    assert unbounded_inconclusive_raises((SRC / module).read_text()) == []


ORDER_NAMES = ("n_order", "mult_order", "totient")


def order_names_outside(source: str, allowed: str | None) -> list[str]:
    """An order routine named outside the function called `allowed`.

    Residue degrees in Q(zeta_m) are read from `cyclotomic.unit_orders`, the
    one place that computes multiplicative orders.
    """
    out = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == allowed
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name in ORDER_NAMES and not inside:
            out.append(f"{name} (line {node.lineno})")
        if isinstance(node, ast.alias) and node.name in ORDER_NAMES:
            out.append(f"{node.name} (import)")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return out


def test_order_names_outside_detected():
    src = ("import sympy\nfrom sympy import totient\n"
           "def unit_orders(m):\n    return sympy.n_order(2, m)\n"
           "def degree(q, m):\n    return sympy.n_order(q, m)\n"
           "phi = totient(12)\nf = ntheory.mult_order(3, 7)\n")
    assert order_names_outside(src, "unit_orders") == [
        "totient (import)", "n_order (line 6)", "totient (line 7)",
        "mult_order (line 8)"]
    assert order_names_outside(src, None)[1] == "n_order (line 4)"


@pytest.mark.parametrize("module", MODULES)
def test_orders_only_in_unit_orders(module):
    allowed = "unit_orders" if module == "cyclotomic.py" else None
    assert order_names_outside((SRC / module).read_text(), allowed) == []


def fraction_calls_outside(source: str, cls: str, allowed: str) -> list[str]:
    """Calls to `Fraction` in class `cls` outside its method `allowed`.

    `NormCharacter` computes on int exponents over its order; `angle` is the
    one method that turns an exponent into a Fraction of a full turn.
    """
    classes = [n for n in ast.walk(ast.parse(source))
               if isinstance(n, ast.ClassDef) and n.name == cls]
    if not classes:
        return [f"no class {cls}"]
    out = []
    for item in classes[0].body:
        if getattr(item, "name", None) == allowed:
            continue
        for n in ast.walk(item):
            if isinstance(n, ast.Call) and (
                    isinstance(n.func, ast.Name) and n.func.id == "Fraction"
                    or isinstance(n.func, ast.Attribute)
                    and n.func.attr == "Fraction"):
                out.append(f"{ast.unparse(n.func)} (line {n.lineno})")
    return out


def test_fraction_calls_outside_detected():
    src = ("class C:\n    def angle(self):\n        return Fraction(1, 2)\n"
           "    def mul(self):\n        return fractions.Fraction(0)\n"
           "    zero = Fraction(0)\n"
           "def free():\n    return Fraction(3)\n")
    assert fraction_calls_outside(src, "C", "angle") == [
        "fractions.Fraction (line 5)", "Fraction (line 6)"]
    assert fraction_calls_outside(src, "D", "angle") == ["no class D"]


def test_character_fractions_only_in_angle():
    source = (SRC / "automorphic.py").read_text()
    assert fraction_calls_outside(source, "NormCharacter", "angle") == []


def sympy_imports_outside(source: str, allowed: str) -> list[str]:
    """`import sympy` (or from it) outside the function called `allowed`."""
    out = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == allowed
        names = [a.name for a in node.names] if isinstance(node, ast.Import) \
            else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        if not inside and any(n.split(".")[0] == "sympy" for n in names):
            out.append(f"line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return out


def test_sympy_imports_outside_detected():
    src = ("import sympy\nfrom sympy.ntheory import isprime\n"
           "def exact_root_in_extension(d, p):\n    import sympy\n"
           "def other():\n    import sympy.polys as sp\n"
           "import sympyish\n")
    assert sympy_imports_outside(src, "exact_root_in_extension") == [
        "line 1", "line 2", "line 6"]


@pytest.mark.parametrize("module", MODULES)
def test_sympy_only_in_algebraic_factoring(module):
    assert sympy_imports_outside((SRC / module).read_text(),
                                 "exact_root_in_extension") == []


def tower_type_tests(source: str, exempt: str | None) -> list[str]:
    """`isinstance(_, KummerTower)` calls outside the class named `exempt`.

    `splitting.Field` is the one reader of a field description's type;
    everything else asks the `Field`.
    """
    tree = ast.parse(source)
    inside = {id(n) for c in tree.body
              if isinstance(c, ast.ClassDef) and c.name == exempt
              for n in ast.walk(c)}
    return [f"line {line}" for line in sorted(
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "isinstance" and len(n.args) == 2
        and any(isinstance(x, ast.Name) and x.id == "KummerTower"
                for x in ast.walk(n.args[1]))
        and id(n) not in inside)]


def test_tower_type_tests_detected():
    src = ("class Field:\n    def f(self, d):\n"
           "        return isinstance(d, KummerTower)\n"
           "def g(d):\n    return isinstance(d, (int, KummerTower))\n"
           "def h(d):\n    return isinstance(d, int)\n")
    assert tower_type_tests(src, "Field") == ["line 5"]
    assert tower_type_tests(src, None) == ["line 3", "line 5"]


@pytest.mark.parametrize("module", MODULES)
def test_tower_type_only_in_field(module):
    exempt = "Field" if module == "splitting.py" else None
    assert tower_type_tests((SRC / module).read_text(), exempt) == []


def unpassed_defaults(defs: dict[str, str], calls: dict[str, str]) -> list[str]:
    """Defaulted parameters of module-level functions and staticmethods in
    `defs` that no call in `calls` passes, by position or by keyword.

    A call counts for every function of its name (a bare name or an
    attribute), so a shared name can only hide a parameter, never flag one
    falsely; a call with *args or **kwargs passes every parameter.
    """
    pos, kws = {}, {}
    for text in calls.values():
        for n in ast.walk(ast.parse(text)):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            starred = any(isinstance(a, ast.Starred) for a in n.args)
            pos[name] = max(pos.get(name, 0),
                            float("inf") if starred else len(n.args))
            kws.setdefault(name, set()).update(k.arg for k in n.keywords)
    out = []
    for mod, text in defs.items():
        tree = ast.parse(text)
        funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        funcs += [f for c in tree.body if isinstance(c, ast.ClassDef)
                  for f in c.body if isinstance(f, ast.FunctionDef)
                  and any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in f.decorator_list)]
        for fn in funcs:
            a = fn.args
            params = [*a.posonlyargs, *a.args]
            first = len(params) - len(a.defaults)
            defaulted = [(i, x.arg) for i, x in enumerate(params) if i >= first]
            defaulted += [(None, x.arg) for x, d in zip(a.kwonlyargs,
                                                        a.kw_defaults)
                          if d is not None]
            seen = kws.get(fn.name, set())
            for i, arg in defaulted:
                if not ({None, arg} & seen
                        or i is not None and pos.get(fn.name, 0) > i):
                    out.append(f"{mod}:{fn.name}({arg}) (line {fn.lineno})")
    return sorted(out)


def test_unpassed_defaults_detected():
    defs = {"a.py": "def f(x, y=1, z=2, *, w=3):\n    pass\n"
                    "def g(x=0):\n    pass\n"
                    "def h(x=0):\n    pass\n"
                    "class C:\n    @staticmethod\n    def of(v, m=1):\n        pass\n"
                    "    def method(self, k=1):\n        pass\n"}
    calls = {"b.py": "f(0, 1)\nm.f(0, z=5)\ng(*args)\nC.of(2)\n",
             "c.py": "h(**opts)\n"}
    assert unpassed_defaults(defs, calls) == [
        "a.py:f(w) (line 1)", "a.py:of(m) (line 9)"]


def test_every_default_is_passed():
    defs = {m: (SRC / m).read_text() for m in MODULES}
    calls = {str(p): p.read_text() for d in ("src", "tests", "perfbench")
             for p in sorted((SRC.parent.parent / d).rglob("*.py"))}
    assert unpassed_defaults(defs, calls) == []


def calls_outside(source: str, names, owner: str | None) -> list[str]:
    """Calls to a function in `names` anywhere but inside the function at
    the dotted path `owner` (such as "TowerPlan.lift"); None allows none.

    A call counts by its bare name or attribute, as in `unpassed_defaults`.
    """
    allowed = tuple(owner.split(".")) if owner else None
    out = []

    def visit(node, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            path = path + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            if name in names and path[:len(allowed or ())] != allowed:
                out.append(f"{name} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(ast.parse(source), ())
    return out


def test_calls_outside_detected():
    src = ("def build_L(K):\n    return _field_profile(K), ht(2)\n"
           "def run(K):\n    p = _field_profile(K)\n"
           "    return mod.choose_tower_height(2, p)\n"
           "class TowerPlan:\n    def lift(self, rep):\n"
           "        return base_change(rep, 1)\n"
           "    def other(self, rep):\n        return base_change(rep, 2)\n"
           "def descend(pi):\n    return base_change(pi, 3)\n")
    plan = {"_field_profile", "choose_tower_height"}
    assert calls_outside(src, plan, "build_L") == [
        "_field_profile (line 4)", "choose_tower_height (line 5)"]
    assert calls_outside(src, {"base_change"}, "TowerPlan.lift") == [
        "base_change (line 10)", "base_change (line 12)"]
    assert calls_outside(src, {"base_change"}, None) == [
        "base_change (line 8)", "base_change (line 10)",
        "base_change (line 12)"]


@pytest.mark.parametrize("module", MODULES)
def test_plan_class_and_height_only_in_build_L(module):
    owner = "build_L" if module == "determination.py" else None
    assert calls_outside((SRC / module).read_text(),
                         {"_field_profile", "choose_tower_height"}, owner) == []


def test_determination_base_changes_only_in_lift():
    assert calls_outside((SRC / "determination.py").read_text(),
                         {"base_change"}, "TowerPlan.lift") == []


def test_splitting_profiles_never_trace():
    # one count lists every field's places; the trace is a report of its own
    assert calls_outside((SRC / "splitting.py").read_text(),
                         {"trace_prime"}, None) == []


@pytest.mark.parametrize("module", MODULES)
def test_classify_prime_only_in_classify_rational(module):
    owner = "classify_rational" if module == "splitting.py" else None
    assert calls_outside((SRC / module).read_text(),
                         {"classify_prime"}, owner) == []


NO_SYMPY_RUN = """
import json, sys
from fractions import Fraction
import kummerlab.cli
print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
from kummerlab.automorphic import NormCharacter, character_of_order, make_isobaric
rep = make_isobaric([(NormCharacter.trivial(4), 1),
                     (character_of_order(5, 4).retag(4), 1)], Fraction(0), 4)
with open(sys.argv[1], "w") as fh:
    json.dump({"pi": rep.to_json(), "pi2": rep.to_json()}, fh)
code = kummerlab.cli.main(["theorem-a", "--K", "Q(i)", "--pair", sys.argv[1],
                           "--X", "2000", "--out", sys.argv[2]])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
"""


def test_cli_runs_without_sympy(tmp_path):
    # the golden single-chain equal pair over Q(i), decided in-process
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_RUN, str(tmp_path / "pair.json"),
         str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "0 []"]
