"""The package resolves its public names on first access, from one table,
and its modules import and define nothing that they do not use."""

import ast
import importlib
from pathlib import Path

import pytest

import omnilie


def test_every_public_name_is_the_object_of_its_home_module():
    assert len(omnilie.__all__) == len(set(omnilie.__all__)) == 75
    for name in omnilie.__all__:
        home = importlib.import_module(f"omnilie.{omnilie._HOME[name]}")
        value = getattr(omnilie, name)
        assert value is getattr(home, name), name
        # defined there, not imported from another layer
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from omnilie import *", namespace)
    assert set(omnilie.__all__) <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        omnilie.no_such_name
    assert not hasattr(omnilie, "no_such_name")
    with pytest.raises(ImportError):
        from omnilie import no_such_name  # noqa: F401


def test_the_registry_keeps_its_names():
    from omnilie import sampling
    from omnilie.suites import SUITES, Family, Row, SuiteContext, derive_seed

    assert Family is sampling.Family and derive_seed is sampling.derive_seed
    assert Row("label", lambda: None).rows(0, 1) == [("label", True, None)]
    assert SuiteContext(n=2, samples=1, seed=0).forms == {}
    assert len(SUITES) == 14


# The package's own modules, parsed; no linter runs on them, so these
# checks stand in for its unused-import and dead-code rules.
SOURCES = {
    path.name: path.read_text(encoding="utf-8")
    for path in sorted(Path(omnilie.__file__).resolve().parent.glob("*.py"))
}


def test_every_import_is_used():
    # A re-export for other modules carries `# noqa: F401` on its line.
    unused = []
    for name, text in SOURCES.items():
        tree, lines = ast.parse(text), text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                continue
            unused += [
                f"{name}:{node.lineno} {bound}"
                for bound in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                if bound not in used
            ]
    assert unused == []


def test_every_private_function_and_class_is_referenced():
    defined, referenced = [], set()
    for name, text in SOURCES.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and (
                node.name.startswith("_") and not node.name.endswith("__")
            ):
                defined.append((name, node.lineno, node.name))
    assert [entry for entry in defined if entry[2] not in referenced] == []


# Modules whose import the package keeps out of every process: each loads
# more than its one use would need (hashlib maps OpenSSL's libcrypto,
# inspect pulls in ast, dis and tokenize).  The runtime checks of
# tests/test_cli.py see only the paths that a test runs.
BANNED = {
    "hashlib", "dataclasses", "inspect", "tempfile", "importlib", "concurrent",
    "multiprocessing",
}


def test_no_module_imports_a_banned_module():
    # An import in an `except ImportError` handler is a fallback: it runs
    # only where the import of its `try` fails, as sampling's hashlib does
    # on an interpreter without a built-in SHA-256 module.
    found = []
    for name, text in SOURCES.items():
        tree = ast.parse(text)
        fallbacks = {
            id(node)
            for handler in ast.walk(tree)
            if isinstance(handler, ast.ExceptHandler)
            and isinstance(handler.type, ast.Name)
            and handler.type.id in ("ImportError", "ModuleNotFoundError")
            for node in ast.walk(handler)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [
                f"{name}:{node.lineno} {module}"
                for module in modules
                if module.split(".")[0] in BANNED and id(node) not in fallbacks
            ]
    assert found == []
