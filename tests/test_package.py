import ast
import inspect
import re
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


def references(path):
    """The names a file reads, imports or looks up as attributes, leaving out
    a function's mentions of itself inside its own body."""
    refs = set()

    def visit(node, own):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
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


def test_every_exported_function_has_a_caller_or_a_reason():
    """Each function exported by the package is used by another package
    module (the CLI among them) or by the benchmark, or README names it under
    "Library entry points" with the reason it stays.  Classes are exempt:
    the reached functions return or raise them."""
    files = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    reached = set().union(*map(references, files))
    functions = {name for name, obj in vars(hodgecover).items()
                 if inspect.isfunction(obj)}
    readme = (ROOT / "README.md").read_text()
    section = readme.partition("### Library entry points")[2].split("\n#")[0]
    listed = dict(re.findall(r"^- `(\w+)`: (\S.*)", section, re.M))
    assert functions - reached - set(listed) == set()
    assert set(listed) <= functions - reached
