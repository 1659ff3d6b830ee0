"""Every module-level function and class in the package is used: named
somewhere in the package outside its own body, exported in ``__all__``,
or wrapped by the benchmark tracer through its ``TARGETS`` table."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slicegb"
TRACING = ROOT / "perfbench" / "tracing.py"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def literal(tree: ast.Module, name: str):
    """The value of a top-level ``name = <literal>`` assignment, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def named(node: ast.AST):
    """Every name the subtree reads, as a bare name, an attribute or an
    imported alias."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def definitions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


MODULES = {path.name: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def kept_names():
    """Names that count as used without a reference in the package."""
    kept = set(literal(MODULES["__init__.py"], "__all__"))
    for _, attr in literal(parse(TRACING), "TARGETS").values():
        kept.add(attr.split(".")[0])
    return kept


def references():
    """For each name, the places that read it: the module, and the
    module-level definition it sits in (None for module-level code)."""
    found = {}
    for module, tree in MODULES.items():
        owned = {id(d): d.name for d in definitions(tree)}
        for node in tree.body:
            for name in named(node):
                found.setdefault(name, set()).add((module, owned.get(id(node))))
    return found


KEPT, REFERENCES = kept_names(), references()


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_module_level_definition_is_used(module):
    unused = [
        f"{d.name} (line {d.lineno})"
        for d in definitions(MODULES[module])
        if d.name not in KEPT and not REFERENCES.get(d.name, set()) - {(module, d.name)}
    ]
    assert not unused
