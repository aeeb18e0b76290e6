"""The package's public names cover every use by the demos and the benchmark.

The demos and perfbench import from `qnpe` itself, and perfbench's tracer
wraps module attributes by name.  These checks read their sources, so a
deletion or an `__all__` trim that would break them fails here.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import qnpe

ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _package_names(path: Path) -> set[str]:
    """Names imported `from qnpe`, plus every `qnpe.<attr>` that is not a
    submodule or a dunder."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "qnpe" and node.level == 0:
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "qnpe"
            and not node.attr.startswith("__")
            and importlib.util.find_spec(f"qnpe.{node.attr}") is None
        ):
            names.add(node.attr)
    return names


def _patches() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of perfbench/tracing.py's PATCHES."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign | ast.Assign):
            targets = [node.target] if isinstance(node, ast.AnnAssign) else node.targets
            if any(isinstance(t, ast.Name) and t.id == "PATCHES" for t in targets):
                return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("PATCHES not found in perfbench/tracing.py")


def test_callers_are_found():
    assert any(p.parent.name == "demos" for p in CALLERS)
    assert any(p.name == "harness.py" for p in CALLERS)


@pytest.mark.parametrize("path", CALLERS, ids=[f"{p.parent.name}/{p.name}" for p in CALLERS])
def test_caller_uses_only_public_names(path):
    missing = _package_names(path) - set(qnpe.__all__)
    assert not missing, f"{path.name} uses names outside qnpe.__all__: {sorted(missing)}"


def test_readme_names_exactly_the_exports():
    """README's "The package exports" paragraph names each public name as a
    backticked identifier, and no other."""
    readme = (ROOT / "README.md").read_text()
    start = readme.index("The package exports")
    paragraph = readme[start:readme.index("\n\n", start)]
    assert set(re.findall(r"`([A-Za-z_]\w*)`", paragraph)) == set(qnpe.__all__)


def test_every_public_name_resolves():
    assert len(set(qnpe.__all__)) == len(qnpe.__all__)
    for name in qnpe.__all__:
        assert hasattr(qnpe, name), name


def test_traced_attributes_exist_and_are_called_through_the_module_global():
    patches = _patches()
    assert patches
    for module_name, attr in patches:
        module = importlib.import_module(f"qnpe.{module_name}")
        assert callable(getattr(module, attr, None)), f"qnpe.{module_name}.{attr}"
        calls = {
            node.func.id
            for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert attr in calls, f"qnpe.{module_name} never calls {attr} by its global name"


def test_every_module_uses_the_names_it_imports():
    """A name that a module of src/qnpe imports and never reads as a name is
    dead.  __init__.py is exempt: it imports to re-export."""
    unused = []
    for path in sorted((ROOT / "src" / "qnpe").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
            if isinstance(node, ast.Import | ast.ImportFrom) and not future:
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert not unused, f"imported but never used: {unused}"


def test_no_module_imports_under_type_checking():
    """Each module of src/qnpe imports what it reads at run time and nothing
    more: an import kept for annotations only hides a dependency between
    layers, such as the oracle reading the learner's storage."""
    guarded = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "qnpe").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)
    ]
    assert not guarded, f"imports under TYPE_CHECKING: {guarded}"


def test_every_definition_is_read_outside_tests():
    """A top-level def or class of src/qnpe that no module of the package, no
    demo and no perfbench script reads by name (perfbench's PATCHES strings
    count), and that qnpe.__all__ does not export, is dead."""
    read = {attr for _, attr in _patches()}
    for path in sorted((ROOT / "src" / "qnpe").glob("*.py")) + CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [
        f"{path.name}: {node.name}"
        for path in sorted((ROOT / "src" / "qnpe").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef | ast.ClassDef)
        and node.name not in read and node.name not in qnpe.__all__
    ]
    assert not dead, f"defined but never read outside tests: {dead}"


def test_every_field_is_read_outside_tests():
    """An annotated field of a class of src/qnpe that no module of the package,
    no demo and no perfbench script reads as an attribute (`x.field`, or
    getattr with a constant name) is written and never used: it is dead."""
    read = set()
    for path in sorted((ROOT / "src" / "qnpe").glob("*.py")) + CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    unread = [
        f"{path.name}: {cls.name}.{node.target.id}"
        for path in sorted((ROOT / "src" / "qnpe").glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id not in read
    ]
    assert not unread, f"fields never read outside tests: {unread}"


def test_every_raise_names_one_of_the_package_error_types():
    """A failed solve raises SolverError; a bad argument or config raises
    ValueError, TypeError or ConfigError; a generator that cannot build its
    instance raises GenerationError.  A bare `raise` re-raises."""
    allowed = {"SolverError", "GenerationError", "ConfigError", "ValueError", "TypeError"}
    other = []
    for path in sorted((ROOT / "src" / "qnpe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                if name not in allowed:
                    other.append(f"{path.name}:{node.lineno}: {name}")
    assert not other, f"raises outside the package's error types: {other}"
