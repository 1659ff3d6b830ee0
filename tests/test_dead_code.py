"""Every module-level function and class in the package is used: named
somewhere in the package outside its own body, exported in ``__all__``,
or wrapped by the benchmark tracer through its ``TARGETS`` table.  Every
method of a package class, dunders aside, is read as an attribute
somewhere in the package outside its own body.  And every optional parameter of a
package function is passed by some call in the package."""

import ast
import math
from collections import Counter
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


def attributes(node: ast.AST):
    """Every name the subtree reads as an attribute, such as ``key`` in
    ``order.key``: a method is only reached that way, while a bare name
    may be a local variable of the same spelling."""
    return (sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


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


# Optional parameters that no package call passes, by design: tests and
# the benchmark drive the CLI through ``main(argv)``.
CALLED_FROM_OUTSIDE = {("cli.py", "main", "argv")}


def functions(tree: ast.Module):
    """``(name, class name or None, def)`` for each module-level function
    and each method of a module-level class."""
    for node in definitions(tree):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub.name, node.name, sub
        else:
            yield node.name, None, node


def test_every_method_is_used():
    reads = Counter(name for tree in MODULES.values() for name in attributes(tree))
    unused = [
        f"{module}: {owner}.{name} (line {node.lineno})"
        for module, tree in MODULES.items()
        for name, owner, node in functions(tree)
        if owner is not None and not (name.startswith("__") and name.endswith("__"))
        and reads[name] == Counter(attributes(node))[name]
    ]
    assert not unused


def optional_parameters(owner, node):
    """The parameters with a default, as ``(name, position)``: the index
    among a caller's positional arguments, or None for keyword-only."""
    args = node.args.posonlyargs + node.args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    skip = 1 if owner is not None and not static else 0  # self or cls
    first = len(args) - len(node.args.defaults)
    found = [(a.arg, k - skip) for k, a in enumerate(args) if k >= first]
    found += [(a.arg, None) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
    return found


def passed_options():
    """``(class, name, parameter)`` that some call in the package passes,
    matched by the called name; a call by class name is a call of that
    class's ``__init__``, and ``*args`` or ``**kwargs`` pass every
    parameter they could reach."""
    by_name = {}
    for tree in MODULES.values():
        for name, owner, node in functions(tree):
            by_name.setdefault(name, []).append((name, owner, node))
            if name == "__init__":
                by_name.setdefault(owner, []).append((name, owner, node))
    passed = set()
    for tree in MODULES.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func, args = call.func, call.args
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            reach = math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args)
            given = {kw.arg for kw in call.keywords}
            for name, owner, node in by_name.get(called, []):
                for param, position in optional_parameters(owner, node):
                    if param in given or None in given or position is not None and position < reach:
                        passed.add((owner, name, param))
    return passed


def test_every_optional_parameter_is_passed():
    passed = passed_options()
    unset = [
        f"{module}: {owner + '.' if owner else ''}{name}({param}=) (line {node.lineno})"
        for module, tree in MODULES.items()
        for name, owner, node in functions(tree)
        for param, _ in optional_parameters(owner, node)
        if (owner, name, param) not in passed and (module, name, param) not in CALLED_FROM_OUTSIDE
    ]
    assert not unset
