import ast
import dataclasses
import inspect
import re
from functools import cached_property
from pathlib import Path

import hodgecover

PACKAGE = Path(hodgecover.__file__).resolve().parent
ROOT = PACKAGE.parent.parent


def test_no_assert_statements_in_package():
    """Exact yes/no decisions must survive `python -O`, which strips every
    `assert`; the package raises its own errors instead."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def references(path, attributes=False):
    """The names a file reads, imports or looks up as attributes (only the
    attribute lookups, with `attributes`), leaving out a function's mentions
    of itself inside its own body."""
    refs = set()

    def visit(node, own):
        for child in ast.iter_child_nodes(node):
            name = (child.attr if isinstance(child, ast.Attribute)
                    else None if attributes
                    else child.id if isinstance(child, ast.Name)
                    else child.name if isinstance(child, ast.alias)
                    else None)
            if name is not None and name not in own:
                refs.add(name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, own | {child.name})
            else:
                visit(child, own)

    visit(ast.parse(path.read_text(), str(path)), frozenset())
    return refs


def callers():
    """The package modules but __init__, then the benchmark's files."""
    return [p for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"] + sorted((ROOT / "bench").glob("*.py"))


def entry_points():
    """README's "Library entry points": name -> the reason it stays."""
    readme = (ROOT / "README.md").read_text()
    section = readme.partition("### Library entry points")[2].split("\n#")[0]
    return dict(re.findall(r"^- `([\w.]+)`: (\S.*)", section, re.M))


def test_every_exported_function_has_a_caller_or_a_reason():
    """Each function exported by the package is used by another package
    module (the CLI among them) or by the benchmark, or README names it under
    "Library entry points" with the reason it stays."""
    reached = set().union(*map(references, callers()))
    functions = {name for name, obj in vars(hodgecover).items()
                 if inspect.isfunction(obj)}
    listed = {k for k in entry_points() if "." not in k}
    assert functions - reached - listed == set()
    assert listed <= functions - reached


def public_methods():
    """Class.name -> name for every public method, property, classmethod
    and staticmethod an exported class defines; dunders and dataclass or
    NamedTuple fields are not methods."""
    out = {}
    for cname, cls in vars(hodgecover).items():
        if not inspect.isclass(cls):
            continue
        fields = set(getattr(cls, "_fields", ()))
        if dataclasses.is_dataclass(cls):
            fields = {f.name for f in dataclasses.fields(cls)}
        for name, member in vars(cls).items():
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if not name.startswith("_") and name not in fields and (
                    inspect.isfunction(member)
                    or isinstance(member, (property, cached_property))):
                out[f"{cname}.{name}"] = name
    return out


def test_every_public_method_has_a_caller_or_a_reason():
    """The same rule for the public methods and properties of the exported
    classes: another package module or the benchmark looks the name up as an
    attribute, or README lists `Class.name` with the reason it stays."""
    reached = set().union(*(references(p, attributes=True)
                            for p in callers()))
    methods = public_methods()
    unreached = {k for k, name in methods.items() if name not in reached}
    listed = {k for k in entry_points() if "." in k}
    assert unreached - listed == set()
    assert listed <= unreached
