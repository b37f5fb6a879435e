"""The reference stays apart from the code it checks.

``bench/oracle.py`` computes the values the tests and the benchmark compare
against; if it imported sqkd, a fault in sqkd could also move the reference.
The package itself needs nothing beyond the standard library and numpy.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def imported_modules(path):
    """Every module an import statement in the file names, relative ones with their dots."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_oracle_imports_nothing_from_sqkd():
    names = list(imported_modules(ROOT / "bench" / "oracle.py"))
    assert "numpy" in names
    assert [name for name in names if name.split(".")[0] == "sqkd" or name.startswith(".")] == []


def test_src_imports_neither_the_oracle_nor_the_tests():
    sources = sorted((ROOT / "src" / "sqkd").glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for name in imported_modules(path):
            top = name.split(".")[0]
            assert top not in ("oracle", "bench", "tests", "conftest") and not top.startswith("test_"), (path.name, name)


def test_src_imports_only_the_standard_library_numpy_and_itself():
    # a speed-up must not bring in a compiled dependency
    for path in sorted((ROOT / "src" / "sqkd").glob("*.py")):
        for name in imported_modules(path):
            top = name.split(".")[0]
            assert name.startswith(".") or top in ("numpy", "sqkd") or top in sys.stdlib_module_names, (path.name, name)
