import argparse
import ast
import dataclasses
import inspect
import math
import os
import random
import re
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import hodgecover
from hodgecover import EdgeCycle, build_cover, rationally_null
from hodgecover.surfaces import genus2_surface

from helpers import rat_nullspace, random_cyclic_cover, to_pylists

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


def test_no_module_imports_scipy_linalg():
    """Dense eigenvalues and solves are numpy's, so no package module
    imports scipy.linalg, at module level or inside a function."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}"
                                         for a in node.names]
            else:
                continue
            if any(n == "scipy.linalg" or n.startswith("scipy.linalg.")
                   for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_sparse_arrays_are_built_in_one_reader():
    """A scipy sparse array built from COO triplets sums their duplicates in
    an order scipy leaves open, so every block-assembled matrix is summed
    by whitney._summed and handed to scipy by its one CSR reader,
    whitney._sparse; the linear program's constraints in
    fillings._l1_coefficients, one triplet per position, are the only
    other construction."""
    allowed = {("whitney.py", "_sparse"),
               ("fillings.py", "_l1_coefficients")}
    found = set()

    def visit(node, path, fn):
        """Record each sparse constructor call under its innermost
        enclosing function (None at module level)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and re.fullmatch(
                    r"(csr|csc|coo|bsr|dia|dok|lil)_(array|matrix)",
                    getattr(child.func, "id", None)
                    or getattr(child.func, "attr", "")):
                found.add((path.name, fn))
            visit(child, path, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, None)
    assert found == allowed


def _fraction_calls(node):
    """The calls of Fraction, or of one of its attributes, under node."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call) and "Fraction"
            in (getattr(n.func, "id", None),
                getattr(getattr(n.func, "value", None), "id", None))]


def test_exact_vectors_become_fractions_only_in_results():
    """The exact layer keeps a vector as integers over one denominator, so
    fillings and ratlinalg call Fraction only where a public result holds
    one: ratlinalg._fractions builds every such vector, and
    fillings._certify the certificate's one-norm; spectra._reciprocal_sum
    calls it once, for the value it returns."""
    found = {(name, fn.name)
             for name in ("fillings.py", "ratlinalg.py")
             for fn in ast.walk(ast.parse((PACKAGE / name).read_text()))
             if isinstance(fn, ast.FunctionDef) and any(
                 _fraction_calls(stmt) for stmt in fn.body)}
    assert found == {("ratlinalg.py", "_fractions"),
                     ("fillings.py", "_certify")}
    for name in ("fillings.py", "ratlinalg.py"):      # none at module level
        tree = ast.parse((PACKAGE / name).read_text())
        assert not [c for stmt in tree.body
                    if not isinstance(stmt, ast.FunctionDef)
                    for c in _fraction_calls(stmt)]
    tree = ast.parse((PACKAGE / "spectra.py").read_text())
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
              and n.name == "_reciprocal_sum")
    assert _fraction_calls(fn) == [n.value for n in ast.walk(fn)
                                   if isinstance(n, ast.Return)]


_TOWER_LEVEL = """
import sys
from hodgecover import (
    ComplexGeometry, EdgeCycle, PermutationCoverSpec, build_cover,
    charpoly_gap_bound, coexact_gap, graph_diameter, homology_table,
    l1_filling, lambda1_split, least_norm_filling, norm_equivalence_constants,
    rationally_null, shortest_path_tree, tree_fundamental_domain, up_pencil,
    whitney_mass_matrix)
from hodgecover.surfaces import genus2_surface

cover = build_cover(PermutationCoverSpec(genus2_surface(), 3, {perms!r}))
K = cover.complex
assert max(K.n_cells(q) for q in range(3)) < 400
geo = ComplexGeometry.uniform(K, 1.0)
for q in (1, 2):
    K.boundary_matrix(q)
homology_table(K)
ips = {{q: whitney_mass_matrix(K, geo, q) for q in range(3)}}
norm_equivalence_constants(K, geo, 1)
up_pencil(K, 1, ips[1], ips[2])
lambda1_split(K, 1, ips)
coexact_gap(K, 1, ips)
charpoly_gap_bound(K, 0)
chain = [int(t % 3 == 0) for t in range(K.n_cells(2))]
f = EdgeCycle(K, tuple(K.boundary_matrix(2).apply(chain)))
assert rationally_null(f)[0]
least_norm_filling(f, "comb")
least_norm_filling(f, "whitney", ips[2])
l1_filling(f)
assert not rationally_null(EdgeCycle(K, {non_null!r}))[0]
g = cover.schreier_graph()
tree = shortest_path_tree(g, 0)
graph_diameter(g)
tree.diameter()
tree_fundamental_domain(cover, tree)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_a_tower_level_loads_no_scipy():
    """Every library call of one level of the paper's tower, below 400
    cells in each degree, is numpy only: a fresh interpreter that makes
    them all on a degree-3 cover of genus2 has loaded no scipy module."""
    spec = random_cyclic_cover(genus2_surface(), 3, random.Random(3))
    K = build_cover(spec).complex
    for v in rat_nullspace(to_pylists(K.boundary_matrix(1))):
        den = math.lcm(*(x.denominator for x in v))
        cycle = tuple(int(x * den) for x in v)
        if not rationally_null(EdgeCycle(K, cycle))[0]:
            break
    code = _TOWER_LEVEL.format(perms=dict(spec.perms), non_null=cycle)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


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
    """README's "Library entry points": name, Class.name or name(param) ->
    the reason it stays."""
    readme = (ROOT / "README.md").read_text()
    section = readme.partition("### Library entry points")[2].split("\n#")[0]
    return dict(re.findall(r"^- `([\w.()]+)`: (\S.*)", section, re.M))


def test_every_exported_function_has_a_caller_or_a_reason():
    """Each function exported by the package is used by another package
    module (the CLI among them) or by the benchmark, or README names it under
    "Library entry points" with the reason it stays."""
    reached = set().union(*map(references, callers()))
    functions = {name for name, obj in vars(hodgecover).items()
                 if inspect.isfunction(obj)}
    listed = {k for k in entry_points() if not set(".(") & set(k)}
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
    listed = {k for k in entry_points() if "." in k and "(" not in k}
    assert unreached - listed == set()
    assert listed <= unreached


def labelled(func, aliases):
    """Whether func, called as func(label, fn, *args), is the benchmark's
    rec.call: an attribute named call, or a name bound to one."""
    return (isinstance(func, ast.Attribute) and func.attr == "call"
            or isinstance(func, ast.Name) and func.id in aliases)


def calls():
    """(name called, positional arguments, keyword names) of every call in
    the package modules and the benchmark, by the bare name or the last
    attribute called, leaving out a function's calls of itself.  Positional
    arguments are counted up to the first starred one.  The benchmark's
    rec.call(label, fn, *args), or c(label, fn, *args) after c = rec.call,
    also counts as a call fn(*args)."""
    found = []

    def record(func, args, keywords):
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        starred = [isinstance(a, ast.Starred) for a in args] + [True]
        found.append((name, starred.index(True), keywords))

    def visit(node, own, aliases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                args = child.args
                keywords = {k.arg for k in child.keywords}
                if not (isinstance(child.func, ast.Name)
                        and child.func.id in own):
                    record(child.func, args, keywords)
                if len(args) >= 2 and labelled(child.func, aliases):
                    record(args[1], args[2:], keywords)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, own | {child.name}, aliases)
            else:
                visit(child, own, aliases)

    for path in callers():
        tree = ast.parse(path.read_text(), str(path))
        aliases = {target.id for node in ast.walk(tree)
                   if isinstance(node, ast.Assign)
                   and labelled(node.value, set())
                   for target in node.targets
                   if isinstance(target, ast.Name)}
        visit(tree, frozenset(), aliases)
    return found


def settable_parameters():
    """name(param) -> (name called, param, position) for every parameter
    with a default of an exported function, of a public method
    (Class.name(param)) or of an exported class's constructor
    (Class(param)); position counts the parameters a caller can pass before
    it, None for a keyword-only one."""
    signatures = []
    for cname, obj in vars(hodgecover).items():
        if inspect.isfunction(obj):
            signatures.append((cname, cname, obj, 0))
        if not inspect.isclass(obj):
            continue
        if not issubclass(obj, Exception):  # those have no signature
            signatures.append((cname, cname, obj, 0))
        for name, member in vars(obj).items():
            skip = 0 if isinstance(member, staticmethod) else 1  # self, cls
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if not name.startswith("_") and inspect.isfunction(member):
                signatures.append((f"{cname}.{name}", name, member, skip))
    out = {}
    for label, name, fn, skip in signatures:
        params = list(inspect.signature(fn).parameters.values())[skip:]
        for i, p in enumerate(params):
            if p.default is not p.empty:
                position = None if p.kind is p.KEYWORD_ONLY else i
                out[f"{label}({p.name})"] = (name, p.name, position)
    return out


def test_every_keyword_default_has_a_caller_or_a_reason():
    """Each parameter with a default is passed by some call in another
    package module or the benchmark, by keyword or by position, and left
    unset by some other such call, or README lists `name(param)` under
    "Library entry points" with the reason it stays: a value no caller sets
    is a constant, and a default no caller leaves unset is never used.
    Calls are matched by the name called, as the method guard matches
    attributes."""
    passed = calls()
    one_value = set()
    for label, (name, param, position) in settable_parameters().items():
        sets = [param in keywords or position is not None and count > position
                for called, count, keywords in passed if called == name]
        if not any(sets) or all(sets):
            one_value.add(label)
    listed = {k for k in entry_points() if "(" in k}
    assert one_value - listed == set()
    assert listed <= one_value


def option_strings():
    """The options of every CLI subcommand, each as "command --option",
    but -h and --help."""
    from hodgecover.cli import build_parser
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {f"{command} {option}"
            for command, sub in commands.choices.items()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings}


def test_every_cli_option_is_run_or_documented():
    """Each CLI option is passed by the benchmark's command mix or shown in
    README's CLI section: a flag nobody passes is a constant."""
    workloads = ROOT / "bench" / "workloads.py"
    strings = {node.value for node in ast.walk(ast.parse(
        workloads.read_text(), str(workloads)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    readme = (ROOT / "README.md").read_text()
    section = readme.partition("\n## CLI\n")[2].split("\n## ")[0]
    shown = set(re.findall(r"(?<![\w-])(--?[\w-]+)", section))
    missing = {label for label in option_strings()
               if label.split()[1] not in strings | shown}
    assert missing == set()
