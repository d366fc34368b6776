"""Source hygiene: every imported name is used, and every name the
benchmark's span tracer wraps is a function of its module."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src/disklab", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(tree: ast.Module):
    """The names ``tree`` imports and never reads.  A name read only in a
    quoted annotation counts as read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for sub in ast.walk(annotation) if annotation else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_every_traced_name_is_a_function_of_its_module():
    # perfbench/spans.py wraps these names when a traced pass runs; a name
    # that a refactor drops or moves fails here, not only in that pass
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.LAYERS.items():
        mod = importlib.import_module(f"disklab.{module}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            fn = vars(getattr(mod, owner) if owner else mod).get(attr)
            fn = getattr(fn, "__func__", fn)    # a classmethod's function
            assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"{module}.{name}"
