import contextlib
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import decimal
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodgecover
from hodgecover.bounds import catalogue_ids, get_entry
from hodgecover.cli import _DIGITS, _round, main
from hodgecover.surfaces import FIXTURES, circle, genus2_surface, torus7

from helpers import (edge_labels, edge_set, pair_labelled_graph,
                     random_cyclic_cover, rat_nullspace,
                     reference_build_cover, reference_graph_diameter,
                     reference_shortest_path_tree, thin_cyclic_cover,
                     to_pylists)


def cli(*argv):
    """A cold `hodgecover` subprocess on this checkout's package."""
    src = Path(hodgecover.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-m", "hodgecover.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplexCommands:
    def test_validate_fixture(self, capsys):
        code, out, _ = run(capsys, "complex", "validate", "torus")
        assert code == 0
        data = json.loads(out)
        assert data["cells"] == [7, 21, 14]
        assert data["euler_characteristic"] == 0
        assert data["valid"]

    def test_validate_file_with_completion(self, capsys, tmp_path):
        path = tmp_path / "disc.json"
        path.write_text(json.dumps([[0, 1, 2]]))
        code, out, _ = run(capsys, "complex", "validate", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["cells"] == [3, 3, 1]
        assert len(data["added_faces"]) == 6  # 3 edges + 3 vertices

    @pytest.mark.parametrize("cells, expect", [
        ([[-3, -1, 0], [-1, 0, 2], [-3, 0, 5]], {
            "added_faces": [[-3], [-1], [0], [2], [5], [-3, -1], [-3, 0],
                            [-3, 5], [-1, 0], [-1, 2], [0, 2], [0, 5]],
            "cells": [5, 7, 3], "dim": 2, "euler_characteristic": 1,
            "valid": True}),
        ([[0, 1, 2 ** 70], [1, 2, 2 ** 70]], {
            "added_faces": [[0], [1], [2], [2 ** 70], [0, 1], [0, 2 ** 70],
                            [1, 2], [1, 2 ** 70], [2, 2 ** 70]],
            "cells": [4, 5, 2], "dim": 2, "euler_characteristic": 1,
            "valid": True}),
    ], ids=["negative_labels", "label_2_to_the_70"])
    def test_validate_any_integer_labels(self, capsys, tmp_path, cells,
                                         expect):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(cells))
        code, out, _ = run(capsys, "complex", "validate", str(path))
        assert code == 0
        assert out == json.dumps(expect, indent=1, sort_keys=True) + "\n"

    def test_homology_projective_plane_torsion(self, capsys):
        code, out, _ = run(capsys, "complex", "homology", "projective_plane")
        assert code == 0
        table = json.loads(out)["homology"]
        assert [row["betti"] for row in table] == [1, 0, 0]
        assert table[1]["torsion"] == [2]
        assert table[1]["torsion_order"] == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "complex", "validate", "/no/such/file.json")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("where", ["missing/x.json", "."],
                             ids=["missing_directory", "directory"])
    def test_unwritable_out_exit_2(self, capsys, tmp_path, where):
        out = tmp_path / where
        code, stdout, err = run(capsys, "complex", "validate", "torus",
                                "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("action, data", [
        ("validate", [[0, "x", 2]]), ("homology", {"cells": 5}),
        ("validate", [[0, 1.5, 2]]), ("validate", [[0, True, 2]]),
        ("validate", {"cells": [[0, 1, 2]]}), ("validate", 5)],
        ids=["string_vertex", "cells_not_a_list", "fractional_vertex",
             "bool_vertex", "flat_cells", "not_a_list"])
    def test_malformed_complex_exit_2(self, capsys, tmp_path, action, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "complex", action, str(path))
        assert code == 2 and out == ""
        assert err.startswith("validation error: ") and err.count("\n") == 1

    def test_keys_besides_cells_are_not_read(self, capsys, tmp_path):
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps({"cells": [[[0, 1, 2]]], "labels": 5}))
        code, out, _ = run(capsys, "complex", "validate", str(path))
        assert code == 0 and json.loads(out)["cells"] == [3, 3, 1]

    def test_invalid_complex_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[0, 0, 1]]))
        code, _, err = run(capsys, "complex", "validate", str(path))
        assert code == 2


class TestSpectrumCommand:
    def test_circle_comb_lambda1(self, capsys, tmp_path):
        path = tmp_path / "c3.json"
        path.write_text(json.dumps([list(c) for c in circle(3).cells[1]]))
        code, out, _ = run(capsys, "spectrum", str(path), "--degree", "0",
                           "--inner", "comb")
        assert code == 0
        data = json.loads(out)
        assert data["lambda1"] == pytest.approx(3.0)
        assert data["kernel_dim"] == 1

    def test_charpoly_bound_attached(self, capsys):
        code, out, _ = run(capsys, "spectrum", "sphere", "--degree", "1",
                           "--inner", "comb", "--charpoly")
        assert code == 0
        assert "reciprocal_sum_bound" in json.loads(out)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_charpoly_at_the_top_degree_exit_2(self, capsys, tmp_path, name):
        """The bound needs an up-Laplacian, so --charpoly at degree dim is
        bad input (it used to exit 0 without the bound), named before the
        products: an edge of length 1e200 would break a Whitney Gram."""
        K = FIXTURES[name]()
        geometry = tmp_path / "huge.json"
        geometry.write_text(json.dumps({"edges": {
            f"{u},{v}": 1e200 if i == 0 else 1.0
            for i, (u, v) in enumerate(K.cells[1])}}))
        for extra in ([], ["--inner", "whitney", "--geometry", str(geometry)]):
            code, out, err = run(capsys, "spectrum", name, "--degree",
                                 str(K.dim), "--charpoly", *extra)
            assert (code, out) == (2, "")
            assert err == f"validation error: degree {K.dim} is out of " \
                f"range 0..{K.dim - 1} for an up-Laplacian\n"
        code, _, err = run(capsys, "spectrum", name, "--degree", str(K.dim),
                           "--inner", "whitney", "--geometry", str(geometry))
        assert code == 3 and err.startswith("numerical failure")

    def test_whitney_inner(self, capsys):
        code, out, _ = run(capsys, "spectrum", "torus", "--degree", "1",
                           "--inner", "whitney")
        assert code == 0
        assert json.loads(out)["kernel_dim"] == 2

    @pytest.mark.parametrize("key, length, prefix", [
        ("{}-{}", 1.0, "error: "),
        ("{},{}", float("nan"), "validation error: "),
        ("{},{}", float("inf"), "validation error: "),
        ("{},{}", True, "validation error: ")],
        ids=["dash_key", "nan", "inf", "bool"])
    def test_malformed_geometry_exit_2(self, capsys, tmp_path, key, length,
                                       prefix):
        (u, v), *rest = torus7().cells[1]
        edges = {f"{a},{b}": 1.0 for a, b in rest}
        edges[key.format(u, v)] = length
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps({"edges": edges}))
        code, _, err = run(capsys, "spectrum", "torus", "--degree", "1",
                           "--inner", "whitney", "--geometry", str(path))
        assert code == 2
        assert err.startswith(prefix) and err.count("\n") == 1

    @pytest.mark.parametrize("extra, length", [
        ({"1,99": 5.0}, None), ({"99,1": 5.0}, None), ({"1,1": 1.0}, None),
        ({}, 0.0), ({}, -1.0), ({}, 0)],
        ids=["unknown_key", "unknown_reversed_key", "loop_key",
             "zero_length", "negative_length", "zero_int_length"])
    def test_bad_geometry_values_exit_2(self, capsys, tmp_path, extra, length):
        (u, v), *rest = torus7().cells[1]
        edges = {f"{a},{b}": 1.0 for a, b in rest}
        edges[f"{v},{u}"] = 1.0 if length is None else length
        edges.update(extra)
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps({"edges": edges}))
        code, out, err = run(capsys, "spectrum", "torus", "--degree", "1",
                             "--inner", "whitney", "--geometry", str(path))
        assert code == 2 and out == ""
        assert err.startswith("validation error: ") and err.count("\n") == 1

    def test_missing_edge_length_exit_2(self, capsys, tmp_path):
        _, *rest = torus7().cells[1]
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps({"edges": {f"{a},{b}": 1.0
                                              for a, b in rest}}))
        code, out, err = run(capsys, "spectrum", "torus", "--degree", "1",
                             "--inner", "whitney", "--geometry", str(path))
        assert code == 2 and out == ""
        assert err == \
            "validation error: geometry gives no length for edge (1, 2)\n"

    @pytest.mark.parametrize("before, after, code", [
        (["spectrum"], [], 0), (["spectrum"], ["--inner", "whitney"], 2),
        (["norms", "mass"], [], 2), (["norms", "constants"], [], 2)])
    def test_zero_dimensional_complex(self, capsys, tmp_path, before, after,
                                      code):
        # two points: comb products exist, Whitney forms need edge lengths
        path = tmp_path / "points.json"
        path.write_text(json.dumps([[0], [1]]))
        got, out, err = run(capsys, *before, str(path), *after,
                            "--degree", "0")
        assert got == code and "Traceback" not in err
        if code == 0:
            assert json.loads(out)["kernel_dim"] == 2
        else:
            assert err == "validation error: Whitney forms and volumes " \
                "need a complex of dimension >= 1\n"

    def test_geometry_of_a_zero_dimensional_complex(self, capsys, tmp_path):
        path, geometry = tmp_path / "points.json", tmp_path / "geometry.json"
        path.write_text(json.dumps([[0], [1]]))
        geometry.write_text(json.dumps({"edges": {"0,1": 1.0}}))
        code, out, err = run(capsys, "spectrum", str(path), "--geometry",
                             str(geometry))
        assert (code, out) == (2, "")
        assert err == "validation error: geometry key (0, 1) names no edge " \
            "of the complex\n"

    def test_bad_degree_exit_2(self, capsys):
        for degree in ("7", "9", "-1"):
            code, out, err = run(capsys, "spectrum", "torus", "--degree",
                                 degree)
            assert code == 2 and out == ""
            assert err == f"validation error: degree {degree} is out of " \
                "range 0..2\n"

    @pytest.mark.parametrize("cells, degree, message", [
        (None, "7", "degree 7 is out of range 0..2"),
        ([[0, 1, 2], [2, 3, 4], [0, 3]], "1",
         "1-cell (0, 3) lies in no top cell")], ids=["degree", "stray_edge"])
    def test_input_fault_named_before_a_broken_gram(self, capsys, tmp_path,
                                                    cells, degree, message):
        """The edge (1, 2) of length 1e200 overflows a Whitney Gram, yet a
        bad degree or a cell in no top cell is reported first, as bad
        input."""
        path = "torus"
        if cells is not None:
            path = str(tmp_path / "complex.json")
            Path(path).write_text(json.dumps(cells))
        K = hodgecover.load_complex(cells) if cells else torus7()
        geometry = tmp_path / "huge.json"
        geometry.write_text(json.dumps({"edges": {
            f"{u},{v}": 1e200 if (u, v) == (1, 2) else 1.0
            for u, v in K.cells[1]}}))
        code, out, err = run(capsys, "spectrum", path, "--inner", "whitney",
                             "--degree", degree, "--geometry", str(geometry))
        assert (code, out) == (2, "")
        assert err == f"validation error: {message}\n"


class TestCoverCommands:
    @pytest.fixture
    def spec_file(self, tmp_path):
        # degree-3 cyclic cover of the 3-edge circle
        K = circle(3)
        edges = sorted(e for e in K.facet_adjacencies() if e[0] < e[1])
        perms = {}
        for k, e in enumerate(edges):
            perms[f"{e[0]},{e[1]}"] = [1, 2, 0] if k == 0 else [0, 1, 2]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"degree": 3, "perms": perms}))
        base = tmp_path / "base.json"
        base.write_text(json.dumps([list(c) for c in K.cells[1]]))
        return str(base), str(path)

    def test_build(self, capsys, spec_file):
        base, spec = spec_file
        code, out, _ = run(capsys, "cover", "build", "--base", base,
                           "--spec", spec)
        assert code == 0
        data = json.loads(out)
        assert data["connected"] and data["cells"] == [9, 9]
        assert data["euler_characteristic"] == 0

    def test_tree(self, capsys, spec_file):
        base, spec = spec_file
        code, out, _ = run(capsys, "cover", "tree", "--base", base,
                           "--spec", spec)
        assert code == 0
        data = json.loads(out)
        assert data["tiles"] == 9
        assert data["tree_diameter"] <= 2 * data["graph_diameter"]

    def test_pairings(self, capsys, spec_file):
        base, spec = spec_file
        code, out, _ = run(capsys, "cover", "pairings", "--base", base,
                           "--spec", spec)
        assert code == 0
        assert json.loads(out)["n_pairings"] == 1

    @pytest.mark.parametrize("spec, prefix", [
        ({"degree": 3, "perms": {"0-1": [1, 2, 0]}}, "error: "),
        ({"degree": 3, "perms": {"0,1": [1, "a", 0]}}, "validation error: "),
        ({"degree": 3, "perms": {"0,1": 5}}, "validation error: "),
        ({"degree": 3, "perms": [[1, 2, 0]]}, "error: "),
        ({"degree": 1.5, "perms": {}}, "validation error: "),
    ], ids=["dash_key", "string_entry", "perm_not_list", "perms_not_object",
            "fractional_degree"])
    def test_malformed_spec_exit_2(self, capsys, spec_file, tmp_path, spec,
                                   prefix):
        base, _ = spec_file
        bad = tmp_path / "badspec.json"
        bad.write_text(json.dumps(spec))
        code, _, err = run(capsys, "cover", "build", "--base", base,
                           "--spec", str(bad))
        assert code == 2
        assert err.startswith(prefix) and err.count("\n") == 1

    def test_bad_spec_exit_2(self, capsys, spec_file, tmp_path):
        base, _ = spec_file
        bad = tmp_path / "badspec.json"
        bad.write_text(json.dumps({"degree": 2, "perms": {"0,1": [0, 0]}}))
        code, _, err = run(capsys, "cover", "build", "--base", base,
                           "--spec", str(bad))
        assert code == 2

    @pytest.mark.parametrize("degree", [10 ** 10, 2 ** 70])
    def test_degree_beyond_the_permutations_exit_2(self, capsys, spec_file,
                                                   tmp_path, degree):
        # the length check comes first: no list of `degree` sheets is built
        base, good = spec_file
        spec = json.loads(Path(good).read_text()) | {"degree": degree}
        bad = tmp_path / "badspec.json"
        bad.write_text(json.dumps(spec))
        code, _, err = run(capsys, "cover", "build", "--base", base,
                           "--spec", str(bad))
        assert code == 2
        assert err.startswith("validation error: invalid permutation")

    @pytest.mark.parametrize("points", [[[0], [1], [2]], [[0], [1]]],
                             ids=["three_points", "two_points"])
    def test_zero_dimensional_base(self, capsys, tmp_path, points):
        # isolated points share no facet: the cover is disjoint copies
        base = tmp_path / "points.json"
        base.write_text(json.dumps(points))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"degree": 2, "perms": {}}))
        code, out, _ = run(capsys, "cover", "build", "--base", str(base),
                           "--spec", str(spec))
        assert code == 0
        data = json.loads(out)
        assert data["cells"] == [2 * len(points)]
        assert not data["connected"]
        assert data["euler_characteristic"] == 2 * len(points)
        code, _, err = run(capsys, "cover", "tree", "--base", str(base),
                           "--spec", str(spec))
        assert code == 2
        assert "graph is disconnected" in err


def reference_cover_output(spec):
    """The `cover tree` and `cover pairings` objects of a connected cover,
    spelled from the reference cover, its tile graph and the reference BFS
    tree from tile 0: a pairing per non-tree edge t < h, in that order,
    out along t's word, across, and back along h's word reversed with each
    label (a, b) read as (b, a)."""
    ref = reference_build_cover(spec)
    tile = {ts: v for v, ts in enumerate(ref.top_of)}
    edges, labels = [], []
    for (a, b), p in sorted(spec.perms.items()):
        if a < b:
            edges += [(tile[a, s], tile[b, p[s]]) for s in range(spec.degree)]
            labels += [(a, b)] * spec.degree
    g = pair_labelled_graph(len(tile), edges, labels)
    parent, _, words = reference_shortest_path_tree(g, 0)
    tree = sorted((min(v, p), max(v, p)) for v, p in parent.items()
                  if p is not None)
    # double sweep: a vertex farthest from the root ends a longest path
    t = pair_labelled_graph(g.n, tree, [None] * len(tree))
    depth = reference_shortest_path_tree(t, 0)[1]
    far = max(depth, key=depth.get)
    n, cells, label = spec.base.dim, ref.complex.cells, edge_labels(g)
    pairings = []
    for u, w in sorted(edge_set(g) - set(tree)):
        f = ref.complex.cell_index[n - 1][
            tuple(sorted(set(cells[n][u]) & set(cells[n][w])))]
        pairings.append({"face": [u, f], "paired_face": [w, f], "word": [
            *map(list, words[u]), list(label[u, w]),
            *([b, a] for a, b in reversed(words[w]))]})
    return ({"tiles": g.n, "graph_diameter": reference_graph_diameter(g),
             "tree_diameter": max(reference_shortest_path_tree(t, far)[1]
                                  .values()),
             "tree_edges": [list(e) for e in tree],
             "words": {str(v): list(map(list, w)) for v, w in words.items()}},
            {"n_pairings": len(pairings), "pairings": pairings})


@pytest.mark.parametrize("make", [
    lambda: thin_cyclic_cover(genus2_surface(), 101, 3),
    lambda: random_cyclic_cover(genus2_surface(), 5, random.Random(5))],
    ids=["thin_101", "seeded_5"])
def test_cover_tree_and_pairings_bytes(capsys, tmp_path, make):
    # the tree of the thin degree-101 cover is 223 deep
    spec = make()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"degree": spec.degree, "perms": {
        f"{a},{b}": p for (a, b), p in spec.perms.items() if a < b}}))
    expect = reference_cover_output(spec)
    for action, obj in zip(("tree", "pairings"), expect):
        code, out, err = run(capsys, "cover", action, "--base", "genus2",
                             "--spec", str(path))
        assert (code, err) == (0, "")
        # a flag, not `out == ...` in the assert: pytest's diff of two
        # strings of megabytes would take minutes
        same = out == json.dumps(obj, indent=1, sort_keys=True) + "\n"
        assert same, f"cover {action}: stdout differs from the reference"


def main_captured(argv, files=()):
    """(exit code, stdout, stderr) of cli.main on argv, with each (name,
    object) of files written as JSON to a temporary file whose path
    replaces the name in argv."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in files:
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(data, fh)
        argv = [paths.get(a, a) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    """Exit 0 with JSON, or 2 or 3 with one message line; no traceback."""
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err.count("\n") == 1


BAD_KEYS = ["1", "1,2,3", "a,b", "", "0,0", "99,100", "-1,2", "0;1"]
ODD_VALUES = [1.5, "1", None, True, [0], {}, 2 ** 70, -1]


@st.composite
def cover_specs(draw):
    """A base fixture and a cover-spec object over it: consistent (a cyclic
    cover with random sheet labels over each tile), arbitrary permutations
    (consistent only over the circle), or a consistent one spoiled in one
    place."""
    name = draw(st.sampled_from(["circle", "sphere", "torus"]))
    d = draw(st.integers(1, 6))
    K = FIXTURES[name]()
    rng = random.Random(draw(st.integers(0, 9)))
    edges = sorted(e for e in K.facet_adjacencies() if e[0] < e[1])
    shift = random_cyclic_cover(K, d, rng).perms if K.dim == 2 else \
        {e: [(s + rng.randrange(d)) % d for s in range(d)] for e in edges}
    h = [draw(st.permutations(range(d))) for _ in K.cells[K.dim]]
    kind = draw(st.sampled_from(["valid", "valid", "arbitrary",
                                 "non_permutation", "missing", "bad_key",
                                 "non_integer"]))
    perms = {}
    for a, b in edges:
        perm = draw(st.permutations(range(d))) if kind == "arbitrary" else \
            [h[b][shift[a, b][h[a].index(s)]] for s in range(d)]
        perms[f"{a},{b}"] = list(perm)
    spec = {"degree": d, "perms": perms}
    key = draw(st.sampled_from(sorted(perms)))
    if kind == "non_permutation":
        perms[key] = draw(st.lists(st.integers(-1, d), max_size=d + 1))
    elif kind == "missing":
        del perms[key]
    elif kind == "bad_key":
        perms[draw(st.sampled_from(BAD_KEYS))] = perms.pop(key)
    elif kind == "non_integer":
        odd = draw(st.sampled_from(ODD_VALUES))
        if draw(st.booleans()):
            spec["degree"] = odd
        else:
            perms[key][draw(st.integers(0, d - 1))] = odd
    return name, spec


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cover_specs(), st.sampled_from(["build", "tree", "pairings"]))
def test_cover_commands_fuzz(case, action):
    """Every cover spec, valid or not, ends in exit 0, 2 or 3 with a
    message, never in a traceback."""
    name, spec = case
    assert_clean_exit(*main_captured(
        ["cover", action, "--base", name, "--spec", "spec"], [("spec", spec)]))


@functools.lru_cache
def cycle_basis(name):
    """An integer basis of the 1-cycles of a fixture."""
    out = []
    for v in rat_nullspace(to_pylists(FIXTURES[name]().boundary_matrix(1))):
        den = math.lcm(*(x.denominator for x in v))
        out.append([int(x * den) for x in v])
    return out


@st.composite
def scl_cases(draw):
    """A base fixture, a cycle-file object over it and scl arguments.  The
    cycle is an integer combination of a cycle basis (null or not), valid or
    spoiled: wrong length, a non-integer entry, a nonzero boundary, or every
    entry scaled by a huge factor."""
    name = draw(st.sampled_from(["circle", "sphere", "torus",
                                 "projective_plane", "klein_bottle"]))
    basis = cycle_basis(name)
    x = draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                      max_size=len(basis)))
    coeffs = [sum(a * z[e] for a, z in zip(x, basis))
              for e in range(len(basis[0]))]
    kind = draw(st.sampled_from(["valid", "valid", "wrong_length",
                                 "non_integer", "nonzero_boundary", "huge"]))
    e = draw(st.integers(0, len(coeffs) - 1))
    if kind == "wrong_length":
        coeffs = coeffs[1:] if draw(st.booleans()) else coeffs + [0]
    elif kind == "non_integer":
        coeffs[e] = draw(st.sampled_from([1.5, "1", None, True, [0], {}]))
    elif kind == "nonzero_boundary":
        coeffs[e] += 1
    elif kind == "huge":
        scale = draw(st.sampled_from([2 ** 70, 10 ** 200, 10 ** 400]))
        coeffs = [scale * c for c in coeffs]
    cycle = {"coefficients": coeffs} if draw(st.booleans()) else coeffs
    flags = draw(st.sampled_from([[], ["--l1"], ["--inner", "whitney"]]))
    action = draw(st.sampled_from(["fill", "report"]))
    return kind, cycle, [action, "--base", name, *flags]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(scl_cases())
def test_scl_commands_fuzz(case):
    """Every cycle file, valid or not, ends in exit 0, 2 or 3 with a
    message, never in a traceback; a malformed one is a validation error."""
    kind, cycle, argv = case
    code, out, err = main_captured(["scl", *argv, "--cycle", "cycle"],
                                   [("cycle", cycle)])
    assert_clean_exit(code, out, err)
    if kind in ("wrong_length", "non_integer", "nonzero_boundary"):
        assert code == 2


@st.composite
def complex_files(draw):
    """A complex-file object of a few cells on at most 7 vertices, valid or
    spoiled: a repeated vertex, a non-integer vertex, no cells, or cells
    nested one level too shallow or too deep."""
    cells = draw(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4,
                                   unique=True), min_size=1, max_size=6,
                          unique_by=frozenset))
    kind = draw(st.sampled_from(["valid", "valid", "repeated_vertex",
                                 "non_integer", "empty", "wrongly_nested"]))
    i = draw(st.integers(0, len(cells) - 1))
    if kind == "repeated_vertex":
        cells[i].append(cells[i][0])
    elif kind == "non_integer":
        cells[i][0] = draw(st.sampled_from([1.5, "1", None, True, [0], {}]))
    elif kind == "empty":
        cells = draw(st.sampled_from([[], [[]], {"cells": []},
                                      {"cells": [[]]}, {}]))
    elif kind == "wrongly_nested":
        cells = draw(st.sampled_from([cells[i], [cells], {"cells": cells},
                                      {"cells": [[cells]]}]))
    return kind, cells


@settings(max_examples=80, deadline=None, derandomize=True)
@given(complex_files(), st.sampled_from([
    (["complex", "validate"], []), (["complex", "homology"], []),
    (["spectrum"], ["--degree"]),
    (["spectrum"], ["--inner", "whitney", "--degree"]),
    (["norms", "constants"], ["--degree"]), (["norms", "mass"], ["--degree"])
]), st.integers(-1, 3))
def test_complex_commands_fuzz(case, command, degree):
    """Every complex file, valid or not, ends in exit 0, 2 or 3 with a
    message, never in a traceback; a malformed one is a validation error."""
    kind, cells = case
    before, after = command
    argv = [*before, "cells", *after] + ([str(degree)] if after else [])
    code, out, err = main_captured(argv, [("cells", cells)])
    assert_clean_exit(code, out, err)
    if kind in ("repeated_vertex", "non_integer"):
        assert code == 2


class TestNormsCommand:
    def test_constants(self, capsys):
        code, out, _ = run(capsys, "norms", "constants", "torus",
                           "--degree", "1")
        assert code == 0
        data = json.loads(out)
        assert 0 < data["c_min"] < data["c_max"]

    def test_mass_matrix_shape(self, capsys):
        code, out, _ = run(capsys, "norms", "mass", "sphere", "--degree", "0")
        assert code == 0
        m = json.loads(out)["mass_matrix"]
        assert len(m) == 4 and len(m[0]) == 4

    @pytest.mark.parametrize("action", ["constants", "mass"])
    def test_bad_degree_exit_2(self, capsys, action):
        code, out, err = run(capsys, "norms", action, "torus", "--degree", "7")
        assert code == 2 and out == ""
        assert err == "validation error: degree 7 is out of range 0..2\n"


class TestCellInNoTop:
    """The edge (3, 4) and its vertices lie in no triangle: no Whitney form of
    degree 0 or 1 lives on them, but comb products and degree 2 are fine."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "stray_edge.json"
        path.write_text(json.dumps([[0, 1, 2], [3, 4]]))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("norms", "mass", "{}", "--degree", "0"),
        ("norms", "constants", "{}", "--degree", "1"),
        ("spectrum", "{}", "--degree", "0", "--inner", "whitney"),
        ("spectrum", "{}", "--degree", "2", "--inner", "whitney"),
        ("bounds", "all", "--attach", "{}"),
    ], ids=["mass", "constants", "spectrum", "spectrum_top", "bounds"])
    def test_whitney_products_exit_2(self, capsys, path, argv):
        code, out, err = run(capsys, *(a.format(path) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("validation error: ") and err.count("\n") == 1
        assert "lies in no top cell" in err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "{}", "--degree", "0"),
        ("spectrum", "{}", "--degree", "1"),
        ("norms", "mass", "{}", "--degree", "2"),
        ("norms", "constants", "{}", "--degree", "2"),
    ], ids=["comb0", "comb1", "mass_top", "constants_top"])
    def test_other_products_exit_0(self, capsys, path, argv):
        code, out, _ = run(capsys, *(a.format(path) for a in argv))
        assert code == 0 and json.loads(out)["degree"] >= 0


TORUS_COLUMN = [row[0] for row in to_pylists(torus7().boundary_matrix(2))]


class TestSclCommands:
    @pytest.fixture
    def cycle_file(self, tmp_path):
        K = torus7()
        bd = to_pylists(K.boundary_matrix(2))
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(
            {"coefficients": [row[0] for row in bd]}))
        return str(path)

    def test_fill_comb(self, capsys, cycle_file):
        code, out, _ = run(capsys, "scl", "fill", "--base", "torus",
                           "--cycle", cycle_file)
        assert code == 0
        data = json.loads(out)
        assert data["inner"] == "comb"
        assert data["m"] == 14 and data["chi_bound"] == "104"

    def test_report(self, capsys, cycle_file):
        code, out, _ = run(capsys, "scl", "report", "--base", "torus",
                           "--cycle", cycle_file)
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["lhs"] > 0 and rep["rhs_core"] > 0

    def test_l1_fill(self, capsys, cycle_file):
        code, out, _ = run(capsys, "scl", "fill", "--base", "torus",
                           "--cycle", cycle_file, "--l1")
        assert code == 0
        assert json.loads(out)["inner"] == "l1"

    def test_l1_fill_of_a_huge_cycle(self, capsys, tmp_path):
        # the LP is solved for the cycle's particular solution over 2^70,
        # whose raw entries are out of the solver's range
        cycle = [c * 2 ** 70 for c in TORUS_COLUMN]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"coefficients": cycle}))
        code, out, err = run(capsys, "scl", "fill", "--base", "torus",
                             "--cycle", str(path), "--l1")
        assert (code, err) == (0, "")
        data = json.loads(out)
        g = [Fraction(c) for c in data["g"]]
        B = to_pylists(torus7().boundary_matrix(2))
        assert [sum(b * x for b, x in zip(row, g)) for row in B] == cycle
        assert all((x * data["m"]).denominator == 1 for x in g)

    def test_non_null_cycle_exit_2(self, capsys, tmp_path):
        K = circle(3)
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"coefficients": [1, -1, 1]}))
        base = tmp_path / "c3.json"
        base.write_text(json.dumps([list(c) for c in K.cells[1]]))
        code, _, err = run(capsys, "scl", "fill", "--base", str(base),
                           "--cycle", str(path))
        assert code == 2

    @pytest.mark.parametrize("coefficients", [
        [1.5 * c for c in TORUS_COLUMN],
        [True if c == 1 else c for c in TORUS_COLUMN],
        5,
        [c + (i == 0) for i, c in enumerate(TORUS_COLUMN)],
    ], ids=["fraction", "bool", "not_a_list", "nonzero_boundary"])
    def test_malformed_cycle_exit_2(self, capsys, tmp_path, coefficients):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"coefficients": coefficients}))
        code, out, err = run(capsys, "scl", "fill", "--base", "torus",
                             "--cycle", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [[], ["--inner", "whitney"], ["--l1"]],
                             ids=["comb", "whitney", "l1"])
    def test_base_without_2_cells_exit_2(self, capsys, tmp_path, monkeypatch,
                                         flags):
        import hodgecover.cli as cli

        def unreachable(*args):
            raise AssertionError("mass matrix assembled")

        monkeypatch.setattr(cli, "whitney_mass_matrix", unreachable)
        base = tmp_path / "c3.json"
        base.write_text(json.dumps([[0, 1], [1, 2], [0, 2]]))
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"coefficients": [0, 0, 0]}))
        code, out, err = run(capsys, "scl", "fill", "--base", str(base),
                             "--cycle", str(path), *flags)
        assert (code, out) == (2, "")
        assert err == "error: a filling needs 2-cells; the base has " \
            "dimension 1\n"

    def test_whitney_fill_rejects_a_2_cell_in_no_top(self, capsys, tmp_path):
        base = tmp_path / "t3.json"
        base.write_text(json.dumps([[0, 1, 2, 3], [3, 4, 5]]))
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"coefficients": [0] * 9}))
        code, out, err = run(capsys, "scl", "fill", "--base", str(base),
                             "--cycle", str(path), "--inner", "whitney")
        assert (code, out) == (2, "")
        assert err == "validation error: 2-cell (3, 4, 5) lies in no top " \
            "cell\n"

    @pytest.mark.parametrize("action", ["fill", "report"])
    def test_whitney_products_are_built_once(self, capsys, cycle_file,
                                             monkeypatch, action):
        # a report's filling reads the degree-2 product its gap also reads
        import hodgecover.whitney as whitney
        assemble, degrees = whitney._assemble, []

        def counting(K, q, *args):
            degrees.append(q)
            return assemble(K, q, *args)

        monkeypatch.setattr(whitney, "_assemble", counting)
        code, out, err = run(capsys, "scl", action, "--base", "torus",
                             "--cycle", cycle_file, "--inner", "whitney")
        assert (code, err) == (0, "") and json.loads(out)["inner"] == "whitney"
        assert sorted(degrees) == ([2] if action == "fill" else [0, 1, 2])

    @pytest.mark.parametrize("action, code, message", [
        ("fill", 3, "numerical failure: edge-vector Gram of top cell "
         "(0, 1, 2) is not finite: its entries or determinant overflow"),
        ("report", 2, "validation error: 1-cell (0, 3) lies in no top cell")],
        ids=["fill", "report"])
    def test_report_names_a_cell_in_no_top_before_a_broken_gram(
            self, capsys, tmp_path, action, code, message):
        """The edge (1, 2) of length 1e200 overflows a Whitney Gram.  A fill
        builds the degree-2 product alone, whose cells all lie in a top; a
        report builds every degree first, as `spectrum` does, and so names
        the stray edge (0, 3) as bad input."""
        cells = [[0, 1, 2], [2, 3, 4], [0, 3]]
        base, cycle = tmp_path / "complex.json", tmp_path / "zero.json"
        base.write_text(json.dumps(cells))
        K = hodgecover.load_complex(cells)
        cycle.write_text(json.dumps([0] * K.n_cells(1)))
        geometry = tmp_path / "huge.json"
        geometry.write_text(json.dumps({"edges": {
            f"{u},{v}": 1e200 if (u, v) == (1, 2) else 1.0
            for u, v in K.cells[1]}}))
        got = run(capsys, "scl", action, "--base", str(base), "--cycle",
                  str(cycle), "--inner", "whitney", "--geometry",
                  str(geometry))
        assert got == (code, "", f"{message}\n")

    def test_wrong_length_exit_2(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"coefficients": [0, 0]}))
        code, _, err = run(capsys, "scl", "fill", "--base", "torus",
                           "--cycle", str(path))
        assert code == 2


class TestBoundsCommands:
    def test_eval(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"lhs": 3.9, "diam": 2.0}))
        code, out, _ = run(capsys, "bounds", "eval", "--id", "dirichlet_diam",
                           "--params", str(params))
        assert code == 0
        data = json.loads(out)
        assert data["rhs"] == 4.0 and data["verdict"] == "holds"

    def test_eval_unknown_id_exit_2(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        params.write_text("{}")
        code, _, err = run(capsys, "bounds", "eval", "--id", "nope",
                           "--params", str(params))
        assert code == 2

    @pytest.mark.parametrize("bid,params", [
        ("dirichlet_diam", [3.9, 2.0]),           # not an object
        ("dichotomy", {"lambda1_whitney": 1.0, "lambda1_comb": 1.0,
                       "G": 0, "C": 1.0, "vol": 1.0}),   # division by zero
        ("upper_b0", {"lam": -1, "C": 1.0, "V": 1.0, "D": 1.0,
                      "sup_sarea_over_length": 1.0, "vol": 1.0}),  # sqrt(-1)
        ("lambda0_lower", {"lhs": 1.0, "n": 3, "inj": 0, "lam_probe": 0.1,
                           "diam": 2.0, "vol": 10.0}),    # L = inj / 2 = 0
        ("surface_triangulation_count", {"lhs": 1.0, "vol_surface": 1.0,
                                         "mu": -1.0, "curvature": 1.0}),
        ("surface_triangulation_count", {"lhs": 1.0, "vol_surface": 1.0,
                                         "mu": 1.0, "curvature": 0.0}),
    ])
    def test_eval_malformed_params_exit_2(self, capsys, tmp_path, bid,
                                          params):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        code, out, err = run(capsys, "bounds", "eval", "--id", bid,
                             "--params", str(path))
        assert code == 2 and out == ""
        assert err.startswith("validation error:") and err.count("\n") == 1

    def test_all_params_not_an_object_exit_2(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([1.0]))
        code, out, err = run(capsys, "bounds", "all", "--attach", "sphere",
                             "--params", str(path))
        assert code == 2 and out == ""
        assert err.startswith("validation error:") and err.count("\n") == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"no_such_bound": {"lhs": 1}}, "unknown bound id 'no_such_bound'"),
        ({"dirichlet_diam": {"lhs": 3.0, "typo": 5}},
         "bound dirichlet_diam has no parameter 'typo'")],
        ids=["unknown_id", "unknown_parameter"])
    def test_all_params_unknown_name_exit_2(self, capsys, tmp_path,
                                           overrides, message):
        # both used to be dropped without a word, with exit 0
        path = tmp_path / "p.json"
        path.write_text(json.dumps(overrides))
        code, out, err = run(capsys, "bounds", "all", "--attach", "torus",
                             "--params", str(path))
        assert code == 2 and out == ""
        assert err == f"validation error: {message}\n"

    def test_all_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "bounds", "all", "--attach", "torus")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        data = json.loads(outputs[0])
        assert len(data["reports"]) == 22
        assert data["csv"].startswith("id,lhs,rhs,verdict")

    def test_all_on_one_top_cell(self, tmp_path):
        # one edge: the dual graph is one vertex, so diam = 0; lambda0_lower,
        # whose right side divides by diam^2 vol, is not applicable because
        # nothing computes inj, and with inj given `bounds eval` exits 2
        path = tmp_path / "edge.json"
        path.write_text("[[0],[0,1]]")
        out = cli("bounds", "all", "--attach", str(path))
        assert out.returncode == 0, out.stderr
        data = json.loads(out.stdout)
        (rep,) = [r for r in data["reports"] if r["id"] == "lambda0_lower"]
        assert rep["verdict"] == "not-applicable"
        assert rep["lhs"] is None and rep["rhs"] is None
        assert rep["notes"] == ["parameter 'lhs' not supplied",
                                "parameter 'inj' not supplied"]
        assert rep["values"]["diam"] == {"value": 0.0, "source": "computed"}
        assert rep["values"]["inj"] == {"value": None, "source": "computed"}
        assert "\nlambda0_lower,,,not-applicable\n" in data["csv"]
        params = tmp_path / "p.json"
        params.write_text(json.dumps(dict(
            {k: v["value"] for k, v in rep["values"].items()}, inj=1.0)))
        out = cli("bounds", "eval", "--id", "lambda0_lower",
                  "--params", str(params))
        assert out.returncode == 2 and out.stdout == ""
        assert "float division by zero" in out.stderr

    def test_all_on_a_dual_diameter_of_60(self, tmp_path):
        # a strip of 61 triangles, (i, i+1, i+2): its dual graph is a path
        # of diameter 60, so dirichlet_boundary's exp(12 diam) is beyond a
        # float; `bounds all` reports that side as null, and `bounds eval`
        # on the same parameters still exits 2
        path = tmp_path / "strip.json"
        path.write_text(json.dumps([[i, i + 1, i + 2] for i in range(61)]))
        out = cli("bounds", "all", "--attach", str(path))
        assert out.returncode == 0, out.stderr
        data = json.loads(out.stdout)
        reps = {r["id"]: r for r in data["reports"]}
        rep = reps["dirichlet_boundary"]
        assert rep["values"]["diam"] == {"value": 60.0, "source": "computed"}
        assert rep["lhs"] is None and rep["rhs"] is None
        assert rep["verdict"] == "not-applicable"
        assert rep["notes"] == ["parameter 'lhs' not supplied",
                                "right side overflows a float: math range "
                                "error"]
        assert "\ndirichlet_boundary,,,not-applicable\n" in data["csv"]
        assert reps["dirichlet_diam"]["rhs"] == 120.0
        params = tmp_path / "p.json"
        params.write_text(json.dumps(dict(
            {k: v["value"] for k, v in rep["values"].items()}, lhs=1.0)))
        out = cli("bounds", "eval", "--id", "dirichlet_boundary",
                  "--params", str(params))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == (
            "validation error: bound dirichlet_boundary cannot be evaluated "
            "at these parameters: math range error\n")

    def test_all_on_a_disconnected_dual_graph(self, tmp_path):
        # two triangles sharing one vertex: a valid, connected complex whose
        # dual graph has two components, so it has no diameter; this exited
        # 2 with "validation error: graph is disconnected"
        path = tmp_path / "bowtie.json"
        path.write_text("[[0,1,2],[0,3,4]]")
        out = cli("bounds", "all", "--attach", str(path))
        assert out.returncode == 0, out.stderr
        reps = json.loads(out.stdout)["reports"]
        needs = [r for r in reps if "diam" in r["values"]]
        assert len(needs) >= 6
        for rep in needs:
            assert rep["values"]["diam"] == {"value": None,
                                             "source": "computed"}
            assert rep["verdict"] == "not-applicable"
            assert "parameter 'diam' not supplied" in rep["notes"]

    def test_all_invents_no_computed_value(self):
        # a computed parameter the CLI does not compute is null, and every
        # entry that has one is not applicable and names it
        out = cli("bounds", "all", "--attach", "genus2")
        assert out.returncode == 0, out.stderr
        computed = {"vol", "b1", "diam", "lam", "lambda1", "lambda1_whitney",
                    "lambda1_comb"}
        for rep in json.loads(out.stdout)["reports"]:
            null = [k for k, v in rep["values"].items() if v["value"] is None]
            assert all(rep["values"][k]["source"] == "computed" for k in null)
            assert {k for k, v in rep["values"].items()
                    if v["source"] == "computed"} - set(null) <= computed
            assert rep["verdict"] == "not-applicable" or not null, rep["id"]
            for k in null:
                assert f"parameter {k!r} not supplied" in rep["notes"]
        verdicts = {r["id"]: r["verdict"]
                    for r in json.loads(out.stdout)["reports"]}
        assert verdicts["upper_b0"] == verdicts["tree_diam"] == \
            "not-applicable"
        assert verdicts["exp_gap"] == "holds"

    @pytest.mark.parametrize("n", [3.7, 2])
    def test_eval_dimension_must_be_an_integer_from_3(self, tmp_path, n):
        params = tmp_path / "p.json"
        params.write_text(json.dumps(dict(lhs=1.0, n=n, inj=1.0, lam_probe=0.1,
                                          diam=2.0, vol=10.0)))
        out = cli("bounds", "eval", "--id", "lambda0_lower",
                  "--params", str(params))
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == (
            "validation error: bound lambda0_lower cannot be evaluated at "
            f"these parameters: n must be an integer >= 3, not {n!r}\n")

    def test_eval_lambda0_lower_in_dimension_30(self, capsys, tmp_path):
        # the Moser product is summed in logs, so 4.0 ** k cannot overflow
        params = tmp_path / "p.json"
        params.write_text(json.dumps(dict(lhs=1.0, n=30, inj=2.0,
                                          lam_probe=1.0, diam=2.0, vol=10.0)))
        code, out, _ = run(capsys, "bounds", "eval", "--id", "lambda0_lower",
                           "--params", str(params))
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"

    def test_all_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "bounds.json"
        code, out, _ = run(capsys, "bounds", "all", "--attach", "sphere",
                           "--out", str(out_path))
        assert code == 0 and out == ""
        data = json.loads(out_path.read_text())
        assert len(data["reports"]) == 22


class TestConstantsCommand:
    def test_kappa_and_ball(self, capsys):
        code, out, _ = run(capsys, "constants", "--ball", "3", "1.0", "1.0")
        assert code == 0
        data = json.loads(out)
        assert "3" in data["kappa"]
        assert data["ball_volume"] > 0

    def test_moser(self, capsys):
        code, out, _ = run(capsys, "constants",
                           "--moser", "3", "1", "1.0", "1.0")
        assert code == 0
        mc = json.loads(out)["moser_constant"]
        assert mc["value"] == pytest.approx(3.7783218670864, abs=1e-9)

    @pytest.mark.parametrize("r, volume", [("0.99", 0.0),    # 5e-822
                                           ("3", 1.8265629556840e114)])
    def test_ball_in_high_dimension(self, capsys, r, volume):
        code, out, _ = run(capsys, "constants", "--ball", "1000", r, "1")
        assert code == 0
        assert json.loads(out)["ball_volume"] == _round(volume)

    def test_tiny_ball_underflows_to_zero(self, capsys):
        # the area is about pi r^2 = pi 1e-600 for so small a curvature
        code, out, err = run(capsys, "constants", "--ball", "2", "1e-300",
                             "1e-160")
        assert (code, err) == (0, "")
        assert json.loads(out)["ball_volume"] == 0.0

    @pytest.mark.parametrize("argv, message", [
        (("--ball", "1", "1.0", "1.0"), "dimension must be >= 2"),
        (("--ball", "3", "-1", "1"), "radius must be >= 0"),
        (("--ball", "3", "1", "-2"), "curvature magnitude must be > 0"),
        (("--moser", "2", "1", "1", "1"), "need n >= 3"),
        (("--moser", "3", "1", "-1", "1"), "need L > 0"),
        (("--moser", "3", "1", "1", "-1"), "need lam >= 0"),
        (("--moser", "3", "5", "1", "0"), "need q(n-q) + lam + 4/L^2 > 0")],
        ids=["ball_dimension", "ball_radius", "ball_curvature",
             "moser_dimension", "moser_length", "moser_lambda",
             "moser_bracket"])
    def test_bad_arguments_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "constants", *argv)
        assert code == 2 and out == ""
        assert err == f"validation error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("--ball", "3", "nan", "1"),
        ("--ball", "3", "inf", "1"),
        ("--ball", "3", "1000", "1"),    # the volume overflows a float
        ("--moser", "3", "1", "1", "nan"),
        ("--ball", "1e308", "1", "1"),   # n steps of the recurrence
        ("--ball", "3000", "0.5", "1"),  # n^3 work for the nodes
        ("--moser", "50", "1", "1", "1"),      # the constant overflows
        ("--moser", "3", "1", "1e-300", "1"),  # and so does 4 / L^2
        ("--moser", "3", "1e300", "1", "1"),   # and q(n - q) + lam
    ])
    def test_non_finite_constants_exit_3(self, capsys, argv):
        code, out, err = run(capsys, "constants", *argv)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("--ball", "nan", "1", "1"),
        ("--ball", "inf", "1", "1"),
        ("--ball", "3.7", "1", "1"),
        ("--moser", "3", "1.5", "1", "1"),
    ])
    def test_non_integer_dimension_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "constants", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1



def significant_digits(text):
    """The significant digits of a printed number: 1 for zero."""
    return len(Decimal(text).normalize().as_tuple().digits)


FLOAT_MAX = sys.float_info.max


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.one_of(st.floats(1e-300, FLOAT_MAX),
                 st.floats(-FLOAT_MAX, -1e-300),
                 st.floats(-2.3e-308, 2.3e-308),     # subnormals and +-0.0
                 st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300,
                                  0.5, 9.999999999995, 99999999999.5,
                                  FLOAT_MAX, -FLOAT_MAX, 1.7976931348e308,
                                  1.797693134849e308, 1.797693134851e308])))
def test_round_to_significant_digits(x):
    """_round(x) prints with at most _DIGITS significant digits, lies within
    half a unit of x's last kept digit (plus the half binary ulp of reading
    that decimal back as a float) and keeps x's sign; rounding again changes
    nothing.  Where the nearest number of _DIGITS digits lies past the
    largest float, x itself is kept."""
    r = _round(x)
    assert type(r) is float and math.copysign(1, r) == math.copysign(1, x)
    nearest = decimal.Context(prec=_DIGITS).plus(Decimal(x))
    if abs(nearest) > Decimal(FLOAT_MAX):
        assert r == x
        return
    assert significant_digits(repr(r)) <= _DIGITS
    unit = Fraction(10) ** (Decimal(x).adjusted() - _DIGITS + 1) if x else 0
    assert abs(Fraction(r) - Fraction(x)) <= unit / 2 + Fraction(
        math.ulp(r)) / 2
    assert _round(r) == r


@pytest.mark.parametrize("value", [0, -7, 10 ** 400, True, "0.12345678901234",
                                   "3/7", None, Fraction(1, 3)])
def test_round_passes_non_floats_through(value):
    assert _round(value) is value


def _perturbed_geometry(K, seed):
    rng = random.Random(seed)
    return {"edges": {",".join(map(str, e)): rng.uniform(0.9, 1.1)
                      for e in K.cells[1]}}


def _torus_null_cycle():
    return {"coefficients": [row[0] for row in
                             to_pylists(torus7().boundary_matrix(2))]}


PRINTED_FLOATS = {
    "spectrum.comb": (["spectrum", "genus2", "--degree", "1"], []),
    "spectrum.whitney": (["spectrum", "genus2", "--degree", "1", "--inner",
                          "whitney", "--geometry", "geo"],
                         [("geo", _perturbed_geometry(genus2_surface(), 1))]),
    "spectrum.whitney.torus": (["spectrum", "torus", "--degree", "0",
                                "--inner", "whitney"], []),
    "norms.constants": (["norms", "constants", "genus2", "--geometry", "geo"],
                        [("geo", _perturbed_geometry(genus2_surface(), 2))]),
    "norms.mass": (["norms", "mass", "torus", "--degree", "1", "--geometry",
                    "geo"], [("geo", _perturbed_geometry(torus7(), 3))]),
    "scl.fill": (["scl", "fill", "--base", "torus", "--cycle", "cycle",
                  "--inner", "whitney", "--geometry", "geo"],
                 [("cycle", _torus_null_cycle()),
                  ("geo", _perturbed_geometry(torus7(), 4))]),
    "scl.report": (["scl", "report", "--base", "torus", "--cycle", "cycle",
                    "--inner", "whitney", "--geometry", "geo"],
                   [("cycle", _torus_null_cycle()),
                    ("geo", _perturbed_geometry(torus7(), 5))]),
    "bounds.eval": (["bounds", "eval", "--id", "dichotomy", "--params", "p"],
                    [("p", {"lambda1_whitney": 2e-13, "lambda1_comb": 1.0,
                            "G": 1e-13, "C": 1.0, "vol": 1.0})]),
    "bounds.all.circle": (["bounds", "all", "--attach", "circle"], []),
    "bounds.all.genus2": (["bounds", "all", "--attach", "genus2",
                           "--geometry", "geo"],
                          [("geo", _perturbed_geometry(genus2_surface(), 6))]),
    "constants": (["constants", "--ball", "3", "0.7", "1.0", "--moser", "3",
                   "1", "1.3", "0.4"], []),
}


@pytest.mark.parametrize("name", sorted(PRINTED_FLOATS))
def test_every_printed_float_follows_the_rule(name):
    """No float escapes _round: every float of the JSON, and of the CSV that
    `bounds all` embeds, is printed with at most _DIGITS significant
    digits."""
    argv, files = PRINTED_FLOATS[name]
    code, out, err = main_captured(argv, files)
    assert code == 0, err
    printed = []

    def walk(path, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{path}.{k}", v)
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{path}[{i}]", v)
        elif isinstance(value, Decimal):
            printed.append((path, str(value)))
    data = json.loads(out, parse_float=Decimal)
    walk("", data)
    for line in data.get("csv", "").splitlines()[1:]:
        bid, lhs, rhs, _verdict = line.split(",")
        printed += [(f"csv.{bid}", x) for x in (lhs, rhs) if x]
    assert printed
    assert [(path, x) for path, x in printed
            if significant_digits(x) > _DIGITS] == []


def test_tiny_parameters_are_not_printed_as_zero(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"lambda1_whitney": 2e-13, "G": 1e-13,
                                  "lambda1_comb": 1.0, "C": 1.0, "vol": 1.0}))
    code, out, _ = run(capsys, "bounds", "eval", "--id", "dichotomy",
                       "--params", str(params))
    assert code == 0
    data = json.loads(out)
    assert (data["lhs"], data["rhs"]) == (2e-13, 2.5e25)
    assert {k: v["value"] for k, v in data["values"].items()} == {
        "lambda1_whitney": 2e-13, "G": 1e-13, "lambda1_comb": 1.0, "C": 1.0,
        "vol": 1.0}
    assert '"value": 2e-13' in out and '"value": 1e-13' in out


@pytest.mark.parametrize("name", ["lambda1_whitney", "vol"])
def test_float_maximum_parameter_is_printed(capsys, tmp_path, name):
    """A finite parameter next to the largest float stays finite in print:
    rounding it to _DIGITS digits would pass the float range."""
    params = dict({"lambda1_whitney": 1.0, "G": 1.0, "lambda1_comb": 1.0,
                   "C": 1.0, "vol": 1.0}, **{name: FLOAT_MAX})
    path = tmp_path / "p.json"
    path.write_text(json.dumps(params))
    code, out, err = run(capsys, "bounds", "eval", "--id", "dichotomy",
                         "--params", str(path))
    assert code == 0, err
    assert json.loads(out)["values"][name]["value"] == FLOAT_MAX


# numbers that reach the edges of the analytic constants: dimensions past
# the float range of 4^k, past the work bound and past a float; lengths
# whose square under- or overflows; non-finite and negative values
EXTREMES = ["0", "1", "2", "3", "4", "20", "30", "45", "1000", "1001", "-1",
            "2.5", "0.5", "1e-160", "1e-300", "1e200", "1e300", "1e308",
            "nan", "inf"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(["--ball", "--moser"]), max_size=2,
                unique=True), st.data())
def test_constants_fuzz(options, data):
    """Every `constants` input ends in exit 0, 2 or 3, never in a traceback
    or an endless loop."""
    argv = ["constants"]
    for option in options:
        argv += [option] + data.draw(st.lists(
            st.sampled_from(EXTREMES), min_size=3 + (option == "--moser"),
            max_size=3 + (option == "--moser")))
    assert_clean_exit(*main_captured(argv))


ODD_PARAMS = [None, 0, 1, -1, 2.5, 30, 1001, 1e-300, 1e300, 1e308, True, "x",
              [1], 10 ** 400]


@st.composite
def bound_params(draw, bid):
    """A params object for entry bid: each parameter a finite, extreme or
    malformed value, sometimes one left out or an unknown one added."""
    params = {name: draw(st.sampled_from(ODD_PARAMS))
              for name, _source in get_entry(bid).params}
    kind = draw(st.sampled_from(["as drawn", "as drawn", "missing",
                                 "unknown"]))
    if kind == "missing":
        params.pop(draw(st.sampled_from(sorted(params))))
    elif kind == "unknown":
        params["no_such_parameter"] = 1.0
    return params


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_bounds_eval_fuzz(data):
    """Every `bounds eval` params file ends in exit 0, 2 or 3, never in a
    traceback."""
    bid = data.draw(st.sampled_from(catalogue_ids()))
    params = data.draw(bound_params(bid))
    argv = ["bounds", "eval", "--id", bid, "--params", "params"]
    assert_clean_exit(*main_captured(argv, [("params", params)]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(["circle", "sphere", "torus", "projective_plane"]),
       st.data())
def test_bounds_all_fuzz(name, data):
    """Every `bounds all` overrides file ends in exit 0, 2 or 3, never in a
    traceback, and in exit 2 if it names an id outside the catalogue or a
    parameter its entry does not have."""
    bid = data.draw(st.sampled_from(catalogue_ids()))
    params = data.draw(bound_params(bid))
    overrides = data.draw(st.sampled_from([
        {bid: params}, {"no_such_bound": params}, {bid: 1.0}, [bid], {}]))
    argv = ["bounds", "all", "--attach", name, "--params", "params"]
    code, out, err = main_captured(argv, [("params", overrides)])
    assert_clean_exit(code, out, err)
    if "no_such_bound" in overrides or (
            overrides == {bid: params} and "no_such_parameter" in params):
        assert code == 2


@pytest.mark.parametrize("field, prefix", [
    ("degree", "validation error: "), ("coefficients", "error: ")],
    ids=["degree", "coefficients"])
def test_missing_field_exit_2(capsys, tmp_path, field, prefix):
    path = tmp_path / "input.json"
    if field == "degree":
        path.write_text(json.dumps({"perms": {}}))
        argv = ("cover", "build", "--base", "torus", "--spec", str(path))
    else:
        path.write_text(json.dumps({"cycle": TORUS_COLUMN}))
        argv = ("scl", "fill", "--base", "torus", "--cycle", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


def test_key_error_of_a_bug_is_not_a_validation_error(capsys, monkeypatch):
    import hodgecover.cli as cli

    def broken(*args):
        return {}["c_min"]

    monkeypatch.setattr(cli, "norm_equivalence_constants", broken)
    with pytest.raises(KeyError):
        main(["norms", "constants", "torus"])


@pytest.mark.parametrize("argv", [
    ("spectrum", "torus", "--degree", "1", "--inner", "whitney"),
    ("bounds", "all", "--attach", "torus"),
    ("norms", "constants", "torus"),
    ("norms", "mass", "torus"),
], ids=["spectrum", "bounds", "constants", "mass"])
def test_overflowing_edge_length_exit_3(capsys, tmp_path, argv):
    """An edge of length 1e200 overflows its triangles' Grams: one line
    naming the first such triangle, no traceback, no NaN matrix."""
    K = torus7()
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"edges": {
        f"{u},{v}": 1e200 if k == 0 else 1.0
        for k, (u, v) in enumerate(K.cells[1])}}))
    code, out, err = run(capsys, *argv, "--geometry", str(path))
    assert (code, out) == (3, "")
    assert err == "numerical failure: edge-vector Gram of top cell " \
        "(1, 2, 4) is not finite: its entries or determinant overflow\n"


def test_non_finite_result_exit_3(capsys, monkeypatch):
    import hodgecover.cli as cli
    monkeypatch.setattr(cli, "kappa", lambda n: float("nan"))
    code, out, err = run(capsys, "constants")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    monkeypatch.setattr(cli, "kappa", lambda n: float("-inf"))
    assert run(capsys, "constants")[:2] == (3, "")


_SCIPY_PACKAGES = """
import json, sys
{setup}
print(json.dumps(sorted({{m.split(".")[1] for m in sys.modules
                         if m.startswith("scipy.")
                         and not m.split(".")[1].startswith("_")}})))
print("scipy" in sys.modules)
"""


def _fresh_stdout(code):
    """The stdout lines of `code` run in a fresh interpreter on this src."""
    src = Path(hodgecover.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def _scipy_packages(setup):
    """The public scipy subpackages loaded by `setup` in a fresh interpreter,
    and whether scipy is loaded at all."""
    packages, loaded = _fresh_stdout(_SCIPY_PACKAGES.format(setup=setup))
    return set(json.loads(packages)), loaded == "True"


def test_commands_load_only_the_scipy_they_need(tmp_path):
    K = circle(3)
    base = tmp_path / "base.json"
    base.write_text(json.dumps([list(c) for c in K.cells[1]]))
    spec = tmp_path / "spec.json"
    edges = sorted(e for e in K.facet_adjacencies() if e[0] < e[1])
    perms = {f"{a},{b}": [1, 2, 0] if k == 0 else [0, 1, 2]
             for k, (a, b) in enumerate(edges)}
    spec.write_text(json.dumps({"degree": 3, "perms": perms}))
    spec2 = tmp_path / "spec2.json"
    spec2.write_text(json.dumps({"degree": 2, "perms": {
        f"{a},{b}": [0, 1] for a, b in genus2_surface().facet_adjacencies()
        if a < b}}))
    cycle = tmp_path / "cycle.json"
    bd = to_pylists(genus2_surface().boundary_matrix(2))
    cycle.write_text(json.dumps({"coefficients": [row[0] for row in bd]}))
    run_main = ("import contextlib, io, sys, hodgecover.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert hodgecover.cli.main({!r}) == 0\n"
                "assert 'numpy.ma' not in sys.modules")
    # the dense pencil eigenvalues and the k = 1 weighted median are numpy
    # only, and coexact_gap stays dense below its cutoff: no fixture command
    # here loads any scipy package, nor numpy.ma (which np.unique without
    # return_inverse loads on numpy 2.4)
    for argv in (["cover", "tree", "--base", str(base), "--spec", str(spec)],
                 ["cover", "build", "--base", "genus2", "--spec", str(spec2)],
                 ["complex", "validate", "genus2"],
                 ["complex", "homology", "projective_plane"],
                 ["constants", "--ball", "3", "1.0", "1.0"],
                 ["norms", "constants", "genus2", "--degree", "1"],
                 ["norms", "mass", "genus2", "--degree", "1"],
                 ["spectrum", "genus2", "--degree", "1", "--inner", "whitney"],
                 ["spectrum", "torus", "--degree", "1", "--charpoly"],
                 ["scl", "fill", "--base", "genus2", "--cycle", str(cycle)],
                 ["scl", "fill", "--base", "genus2", "--cycle", str(cycle),
                  "--inner", "whitney"],
                 ["scl", "fill", "--base", "genus2", "--cycle", str(cycle),
                  "--l1"],
                 ["scl", "report", "--base", "genus2", "--cycle", str(cycle),
                  "--inner", "whitney"],
                 ["bounds", "all", "--attach", "genus2"]):
        assert _scipy_packages(run_main.format(argv)) == (set(), False), argv
    # the probe does see a package that is loaded
    packages, loaded = _scipy_packages("import scipy.sparse")
    assert "sparse" in packages and loaded
