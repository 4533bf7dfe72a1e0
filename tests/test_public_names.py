"""Every public name resolves: each module's `__all__` and every name the
package imports, so a deleted function cannot leave a dangling export.  Every
field and property of the package's records is read by the package or the
bench harness.  The README's library sketch runs as written, and no module
uses `assert`, which `python -O` removes."""

import ast
import importlib
import io
import tokenize
from pathlib import Path

import pytest

import oscount

PACKAGE = Path(oscount.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
RECORDS = (
    "Flat", "ReflectionClass", "ParabolicClass", "CountReport", "CatalogEntry",
    "WeylTypeData", "NamikawaWeylData",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"oscount.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    # the package imports lazily, from one name -> submodule table
    assert oscount._EXPORTS
    assert sorted(oscount.__all__) == sorted(oscount._EXPORTS)
    for name, module in oscount._EXPORTS.items():
        submodule = importlib.import_module(f"oscount.{module}")
        assert hasattr(submodule, name), (module, name)
        assert getattr(oscount, name) is getattr(submodule, name), (module, name)
        assert name in dir(oscount), name


def test_every_record_field_is_read_outside_the_tests():
    # A field or property that only the tests read is a second copy of a
    # fact, or dead.
    sources = [*PACKAGE.glob("*.py"), *(PACKAGE.parents[1] / "perfbench").glob("*.py")]
    read = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for name in RECORDS:
        record = getattr(oscount, name)
        fields = getattr(record, "_fields", None) or record.__slots__
        properties = [k for k, v in vars(record).items() if isinstance(v, property)]
        unread += [f"{name}.{field}" for field in [*fields, *properties] if field not in read]
    assert unread == []


def test_readme_library_sketch_runs_and_shows_its_values():
    # Each expression line of the sketch ends in a comment that starts with
    # the value it shows; a changed signature or value fails here.
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment, text = comments[stmt.end_lineno], str(value)
            assert comment.startswith(text) and not comment[len(text) :][:1].isalnum(), (
                ast.unparse(stmt),
                text,
                comment,
            )
            shown.append(value)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert {2592, 81, 14} <= {v for v in shown if isinstance(v, int)}


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_assert_statement_in_the_package(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []
