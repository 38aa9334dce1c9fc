import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hodgecover
from hodgecover.cli import main
from hodgecover.surfaces import circle, genus2_surface, torus7


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

    @pytest.mark.parametrize("action, data", [
        ("validate", [[0, "x", 2]]), ("homology", {"cells": 5}),
        ("validate", [[0, 1.5, 2]]), ("validate", [[0, True, 2]]),
        ("validate", {"cells": [[0, 1, 2]]}), ("validate", 5),
        ("validate", {"cells": [[[0, 1, 2]]], "labels": 5})],
        ids=["string_vertex", "cells_not_a_list", "fractional_vertex",
             "bool_vertex", "flat_cells", "not_a_list", "labels_not_object"])
    def test_malformed_complex_exit_2(self, capsys, tmp_path, action, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "complex", action, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_whitney_inner(self, capsys):
        code, out, _ = run(capsys, "spectrum", "torus", "--degree", "1",
                           "--inner", "whitney")
        assert code == 0
        assert json.loads(out)["kernel_dim"] == 2

    @pytest.mark.parametrize("key, length", [
        ("{}-{}", 1.0), ("{},{}", float("nan")), ("{},{}", float("inf")),
        ("{},{}", True)], ids=["dash_key", "nan", "inf", "bool"])
    def test_malformed_geometry_exit_2(self, capsys, tmp_path, key, length):
        (u, v), *rest = torus7().cells[1]
        edges = {f"{a},{b}": 1.0 for a, b in rest}
        edges[key.format(u, v)] = length
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps({"edges": edges}))
        code, _, err = run(capsys, "spectrum", "torus", "--degree", "1",
                           "--inner", "whitney", "--geometry", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

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
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_edge_length_exit_2(self, capsys, tmp_path):
        _, *rest = torus7().cells[1]
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps({"edges": {f"{a},{b}": 1.0
                                              for a, b in rest}}))
        code, out, err = run(capsys, "spectrum", "torus", "--degree", "1",
                             "--inner", "whitney", "--geometry", str(path))
        assert code == 2 and out == ""
        assert err == "error: geometry gives no length for edge (1, 2)\n"

    def test_bad_degree_exit_2(self, capsys):
        for degree in ("7", "9", "-1"):
            code, out, err = run(capsys, "spectrum", "torus", "--degree",
                                 degree)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1


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

    @pytest.mark.parametrize("spec", [
        {"degree": 3, "perms": {"0-1": [1, 2, 0]}},
        {"degree": 3, "perms": {"0,1": [1, "a", 0]}},
        {"degree": 3, "perms": {"0,1": 5}},
        {"degree": 3, "perms": [[1, 2, 0]]},
        {"degree": 1.5, "perms": {}},
    ], ids=["dash_key", "string_entry", "perm_not_list", "perms_not_object",
            "fractional_degree"])
    def test_malformed_spec_exit_2(self, capsys, spec_file, tmp_path, spec):
        base, _ = spec_file
        bad = tmp_path / "badspec.json"
        bad.write_text(json.dumps(spec))
        code, _, err = run(capsys, "cover", "build", "--base", base,
                           "--spec", str(bad))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_spec_exit_2(self, capsys, spec_file, tmp_path):
        base, _ = spec_file
        bad = tmp_path / "badspec.json"
        bad.write_text(json.dumps({"degree": 2, "perms": {"0,1": [0, 0]}}))
        code, _, err = run(capsys, "cover", "build", "--base", base,
                           "--spec", str(bad))
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
        assert err.startswith("error: ") and err.count("\n") == 1


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
        assert err.startswith("error: ") and err.count("\n") == 1
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


TORUS_COLUMN = [row[0] for row in torus7().boundary_matrix(2).to_pylists()]


class TestSclCommands:
    @pytest.fixture
    def cycle_file(self, tmp_path):
        K = torus7()
        bd = K.boundary_matrix(2).to_pylists()
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
    ], ids=["fraction", "bool", "not_a_list"])
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
        assert err == "error: 2-cell (3, 4, 5) lies in no top cell\n"

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
        assert err.startswith("error:") and err.count("\n") == 1

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
        assert json.loads(out)["ball_volume"] == pytest.approx(volume,
                                                               rel=1e-12)

    def test_bad_ball_exit_3(self, capsys):
        code, _, err = run(capsys, "constants", "--ball", "1", "1.0", "1.0")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("--ball", "3", "nan", "1"),
        ("--ball", "3", "inf", "1"),
        ("--ball", "3", "1000", "1"),    # the volume overflows a float
        ("--moser", "3", "1", "1", "nan"),
    ])
    def test_non_finite_constants_exit_3(self, capsys, argv):
        code, out, err = run(capsys, "constants", *argv)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure:")

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


@pytest.mark.parametrize("field", ["degree", "coefficients"])
def test_missing_field_exit_2(capsys, tmp_path, field):
    path = tmp_path / "input.json"
    if field == "degree":
        path.write_text(json.dumps({"perms": {}}))
        argv = ("cover", "build", "--base", "torus", "--spec", str(path))
    else:
        path.write_text(json.dumps({"cycle": TORUS_COLUMN}))
        argv = ("scl", "fill", "--base", "torus", "--cycle", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def _scipy_packages(setup):
    """The public scipy subpackages loaded by `setup` in a fresh interpreter,
    and whether scipy is loaded at all."""
    src = Path(hodgecover.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PACKAGES.format(setup=setup)], env=env,
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    packages, loaded = out.stdout.splitlines()
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
    bd = genus2_surface().boundary_matrix(2).to_pylists()
    cycle.write_text(json.dumps({"coefficients": [row[0] for row in bd]}))
    run_main = ("import contextlib, io, hodgecover.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert hodgecover.cli.main({!r}) == 0")
    for argv in (["cover", "tree", "--base", str(base), "--spec", str(spec)],
                 ["cover", "build", "--base", "genus2", "--spec", str(spec2)],
                 ["complex", "validate", "genus2"],
                 ["complex", "homology", "projective_plane"],
                 ["constants", "--ball", "3", "1.0", "1.0"],
                 ["norms", "constants", "genus2", "--degree", "1"],
                 ["scl", "fill", "--base", "genus2", "--cycle", str(cycle),
                  "--inner", "whitney"]):
        assert _scipy_packages(run_main.format(argv)) == (set(), False)
    linalg, _ = _scipy_packages("import scipy.linalg")
    for argv in (["spectrum", "genus2", "--degree", "1", "--inner", "whitney"],
                 ["norms", "mass", "genus2", "--degree", "1"]):
        packages, _ = _scipy_packages(run_main.format(argv))
        assert packages <= linalg | {"sparse"}, argv


def test_cli_import_leaves_scipy_linalg_unloaded():
    src = Path(hodgecover.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, hodgecover.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
