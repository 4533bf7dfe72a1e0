"""Every public name resolves and has a caller.

Each module's `__all__` and every name the package imports resolve, so a
deleted function cannot leave a dangling export.  Every field and property
of the package's records is read by the package or the bench harness.
Every public function, method and property is entered by some CLI command
or by the README's library sketch, which runs as written; the few that only
the bench harness calls are listed with the reason.  No module uses
`assert`, which `python -O` removes."""

import ast
import importlib
import io
import sys
import tokenize
from pathlib import Path

import pytest

from golden import pin

import oscount

PACKAGE = Path(oscount.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
RECORDS = (
    "Arrangement", "IntersectionLattice", "ReflectionClass", "ParabolicClass",
    "CountReport", "CatalogEntry", "WeylTypeData", "NamikawaWeylData",
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


def readme_sketch() -> str:
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0]


def test_readme_library_sketch_runs_and_shows_its_values():
    # Each expression line of the sketch ends in a comment that starts with
    # the value it shows; a changed signature or value fails here.
    block = readme_sketch()
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


# Public names that no command enters, each called by the bench harness,
# whose files change only with the benchmark.
BENCH_ONLY = {
    "IntersectionLattice.num_flats": "perfbench/traced.py FACTS reads the flat count",
    "linalg.reduce_row": "perfbench/traced.py --micro times it",
    "arrangement.essential_rank": "perfbench/traced.py LAYER_FUNCTIONS lists it",
}


def public_code() -> dict:
    """{code object: qualified name} of every public module-level function
    and every public method and property of a module-level class."""
    code = {}
    for name in MODULES:
        module = importlib.import_module(f"oscount.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                for member, value in vars(obj).items():
                    if member.startswith("_"):
                        continue
                    value = value.fget if isinstance(value, property) else value
                    value = getattr(value, "__func__", value)  # classmethod, staticmethod
                    if hasattr(value, "__code__"):
                        code[value.__code__] = f"{attr}.{member}"
            elif hasattr(obj, "__code__"):
                code[obj.__code__] = f"{name}.{attr}"
    return code


def test_every_public_function_is_entered_by_a_command(tmp_path):
    # A public name that no command enters is dead code, or a second route
    # that only its tests keep alive.
    public = public_code()
    entered = set()

    def profile(frame, event, _):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [pin.run(argv, tmp_path)["exit"] for argv in pin.PUBLIC_NAMES_GUARD]
        exec(compile(readme_sketch(), "README.md", "exec"), {})
    finally:
        sys.setprofile(previous)
    assert codes == [pin.load(pin.name(argv))["exit"] for argv in pin.PUBLIC_NAMES_GUARD]
    assert {public[c] for c in public.keys() - entered} == set(BENCH_ONLY)
