import json
import math
import re

import pytest

from hodgecover import (BoundError, InnerProduct, catalogue_ids, coexact_gap,
                        evaluate_all, evaluate_bound, get_entry, lambda1_split,
                        least_norm_filling)
from hodgecover.cli import _round, main
from hodgecover.fillings import EdgeCycle
from hodgecover.hypgeom import GeometryError, ball_volume
from hodgecover.surfaces import torus7
from hodgecover.whitney import ComplexGeometry, whitney_mass_matrix

from helpers import moser_oracle, to_pylists

# one complete synthetic parameter set per catalogue entry
SYNTHETIC = {
    "upper_b0": dict(lam=1.0, C=1.0, V=1.0, D=1.0,
                     sup_sarea_over_length=1.0, vol=1.0),
    "upper_b0_body": dict(lam=1.0, C=1.0, vol_boundary=1.0, sup_sarea=1.0,
                          vol=1.0),
    "upper_b1": dict(lam=1.0, E=0.5, C=1.0, V=1.0, D=1.0, vol=1.0,
                     delta=0.1, sup_sarea=1.0),
    "upper_general": dict(lam=1.0, C=1.0, V=1.0, vol=1.0, f_norm=1.0,
                          h_norm=1.0, sup_sarea=1.0, b1=2),
    "harmonic_subtraction": dict(lhs=1.0, df_sup=1.0, sarea=1.0, b1=1),
    "lower_whitney": dict(lhs=1.0, W=1.0, vol=10.0, diam=2.0,
                          lambda1_whitney=1.0),
    "dichotomy": dict(lambda1_whitney=1.0, lambda1_comb=1.0, G=1.0, C=1.0,
                      vol=1.0),
    "tree_area": dict(lhs=59.0, vol_boundary_base=10.0, vol=6.0,
                      vol_base=1.0),
    "tree_diam": dict(lhs=14.0, diam_base_domain=3.0, diam_tree=4),
    "comb_ball_diam": dict(lhs=1.0, dist=1.0, r0=1.0, k0=1.0),
    "tree_diam_M": dict(lhs=1.0, diam_base_domain=1.0, k0=1.0, r0=1.0,
                        diam=1.0),
    "dirichlet_diam": dict(lhs=3.9, diam=2.0),
    "dirichlet_boundary": dict(lhs=1.0, E_n=1.0, n=2, diam=1.0),
    "surface_injectivity": dict(lhs=1.0, mu1=1.0, inj=0.3),
    "surface_triangulation_count": dict(lhs=1.0, vol_surface=1.0, mu=1.0,
                                        curvature=1.0),
    "intersection_bound": dict(lhs=1.0, triangle_count=10.0, length=1.0,
                               mu=1.0),
    "free_part_length": dict(lhs=1.0, A=1.0, D=1.0, b1=2),
    "regulator_independent": dict(lhs=1.0, D=1.0, vol=1.0, delta=0.1,
                                  sup_sarea=1.0),
    "exp_gap": dict(lambda1=1.0, H=1.0, vol=1.0),
    "high_dim_scl": dict(lhs=1.0, K=1.0, vol=2.0, C=1.0, diam=3.0),
    "retraction": dict(lhs=1.0, K=1.0, d=2, vol_target=1.0, diam_target=1.0,
                       lambda1_target=1.0),
    "lambda0_lower": dict(lhs=1.0, n=3, inj=1.0, lam_probe=0.1, diam=2.0,
                          vol=10.0),
}


class TestCatalogue:
    def test_every_entry_evaluates(self):
        ids = catalogue_ids()
        assert set(ids) == set(SYNTHETIC)
        assert ids == sorted(ids)
        for bid in ids:
            rep = evaluate_bound(bid, SYNTHETIC[bid])
            assert rep.id == bid
            assert math.isfinite(rep.rhs)
            assert rep.verdict in ("holds", "fails", "marginal",
                                   "not-applicable")
            assert set(rep.values) == set(SYNTHETIC[bid])

    def test_all_synthetic_params_give_holds(self):
        for bid, params in SYNTHETIC.items():
            rep = evaluate_bound(bid, params)
            assert rep.verdict == "holds", (bid, rep.lhs, rep.rhs)

    def test_sources_recorded(self):
        rep = evaluate_bound("dirichlet_diam", SYNTHETIC["dirichlet_diam"])
        assert rep.values["diam"]["source"] == "computed"
        rep = evaluate_bound("exp_gap", SYNTHETIC["exp_gap"])
        assert rep.values["H"]["source"] == "user"

    def test_missing_lhs_not_applicable(self):
        params = dict(SYNTHETIC["dirichlet_diam"])
        params["lhs"] = None
        rep = evaluate_bound("dirichlet_diam", params)
        assert rep.verdict == "not-applicable"
        assert any("right side" in n for n in rep.notes)


class TestEvaluateAll:
    """The one fill rule of `bounds all`: a parameter takes its entry's
    override, else the computed value if its source is computed, else the
    default of a user parameter."""

    @staticmethod
    def reports(computed, overrides):
        return {r.id: r for r in evaluate_all(computed, overrides)}

    def test_every_entry_in_id_order(self):
        assert [r.id for r in evaluate_all({}, {})] == catalogue_ids()

    def test_override_beats_computed_beats_default(self):
        reps = self.reports({"diam": 2.0, "k0": 9.0},
                            {"dirichlet_diam": {"lhs": 3.0, "diam": 7.0},
                             "tree_diam_M": {"r0": 4.0}})
        dirichlet = reps["dirichlet_diam"]
        assert dirichlet.values["diam"] == {"value": 7.0, "source": "computed"}
        assert (dirichlet.lhs, dirichlet.rhs) == (3.0, 14.0)
        # an override belongs to its entry alone; a user parameter takes its
        # default although computed has a value of that name, and one the
        # defaults table does not list takes 1.0
        tree = {k: v["value"] for k, v in reps["tree_diam_M"].values.items()}
        assert tree == {"lhs": None, "diam_base_domain": 1.0, "k0": 2.0,
                        "r0": 4.0, "diam": 2.0}
        assert reps["dirichlet_boundary"].values["n"]["value"] == 3

    def test_uncomputed_parameter_is_none_and_not_applicable(self):
        rep = self.reports({}, {})["dirichlet_diam"]
        assert rep.values["diam"] == {"value": None, "source": "computed"}
        assert rep.verdict == "not-applicable"
        assert rep.notes == ["parameter 'lhs' not supplied",
                             "parameter 'diam' not supplied"]

    @pytest.mark.parametrize("overrides, message", [
        ([1.0], "must map bound ids to objects"),
        ({"dirichlet_diam": 1.0}, "must map bound ids to objects"),
        ({"no_such_bound": {}}, "unknown bound id 'no_such_bound'"),
        ({"dirichlet_diam": {"typo": 5}},
         "bound dirichlet_diam has no parameter 'typo'")],
        ids=["list", "value", "unknown_id", "unknown_parameter"])
    def test_malformed_overrides(self, overrides, message):
        with pytest.raises(BoundError, match=re.escape(message)):
            evaluate_all({}, overrides)


class TestHandValues:
    def test_dirichlet_diam(self):
        rep = evaluate_bound("dirichlet_diam", dict(lhs=3.9, diam=2.0))
        assert rep.rhs == 4.0 and rep.verdict == "holds"
        rep = evaluate_bound("dirichlet_diam", dict(lhs=4.5, diam=2.0))
        assert rep.verdict == "fails"

    def test_tree_area(self):
        rep = evaluate_bound("tree_area", dict(
            lhs=59.0, vol_boundary_base=10.0, vol=6.0, vol_base=1.0))
        assert rep.rhs == 60.0 and rep.verdict == "holds"

    def test_tree_diam(self):
        rep = evaluate_bound("tree_diam", dict(
            lhs=14.0, diam_base_domain=3.0, diam_tree=4))
        assert rep.rhs == 15.0 and rep.verdict == "holds"

    def test_marginal_at_near_equality(self):
        rep = evaluate_bound("tree_diam", dict(
            lhs=15.0 * (1 + 1e-12), diam_base_domain=3.0, diam_tree=4))
        assert rep.verdict == "marginal"
        rep = evaluate_bound("tree_area", dict(
            lhs=60.0, vol_boundary_base=10.0, vol=6.0, vol_base=1.0))
        assert rep.verdict == "marginal"

    def test_lambda0_lower_against_oracle(self):
        rep = evaluate_bound("lambda0_lower", SYNTHETIC["lambda0_lower"])
        expect = moser_oracle(3, 1, 0.5, 0.1) ** -2 / 40.0
        assert rep.rhs == pytest.approx(expect, rel=1e-9)
        assert rep.verdict == "holds"

    def test_surface_triangulation_count_closed_form(self):
        rep = evaluate_bound("surface_triangulation_count",
                             SYNTHETIC["surface_triangulation_count"])
        small = ball_volume(2, 0.2, 1.0)
        assert rep.rhs == pytest.approx(
            1.0 / small * ball_volume(2, 1.0, 1.0) / small, rel=1e-12)


class TestErrors:
    def test_unknown_id(self):
        with pytest.raises(BoundError):
            evaluate_bound("no_such_bound", {})
        with pytest.raises(BoundError):
            get_entry("no_such_bound")

    def test_missing_parameter(self):
        with pytest.raises(BoundError, match="missing parameter"):
            evaluate_bound("dirichlet_diam", {"lhs": 1.0})

    def test_dichotomy_missing_parameter(self):
        params = dict(SYNTHETIC["dichotomy"])
        del params["lambda1_comb"]
        with pytest.raises(BoundError, match="missing parameter"):
            evaluate_bound("dichotomy", params)

    def test_unexpected_parameter(self):
        params = dict(SYNTHETIC["dirichlet_diam"], bogus=1.0)
        with pytest.raises(BoundError):
            evaluate_bound("dirichlet_diam", params)

    @pytest.mark.parametrize("value", [math.nan, math.inf, True, "2.0",
                                       [2.0], 10 ** 400],
                             ids=["nan", "inf", "bool", "str", "list",
                                  "huge_int"])
    def test_non_finite_real_parameter(self, value):
        with pytest.raises(BoundError, match="finite real number"):
            evaluate_bound("dirichlet_diam", dict(lhs=1.0, diam=value))

    def test_none_right_side_parameter_is_not_applicable(self):
        rep = evaluate_bound("dirichlet_diam", dict(lhs=1.0, diam=None))
        assert rep.verdict == "not-applicable"
        assert rep.lhs == 1.0 and rep.rhs is None
        assert rep.notes == ["parameter 'diam' not supplied"]
        assert rep.values["diam"] == {"value": None, "source": "computed"}

    def test_none_parameter_of_the_dichotomy_is_not_applicable(self):
        params = dict(SYNTHETIC["dichotomy"], lambda1_comb=None)
        rep = evaluate_bound("dichotomy", params)
        assert rep.verdict == "not-applicable"
        assert rep.lhs == 1.0 and rep.rhs == 0.25
        assert rep.notes[0] == "parameter 'lambda1_comb' not supplied"

    @pytest.mark.parametrize("n", [3.7, 2, -3])
    def test_dimension_must_be_an_integer_from_3(self, n):
        params = dict(SYNTHETIC["lambda0_lower"], n=n)
        with pytest.raises(BoundError, match=f"n must be an integer >= 3, "
                                             f"not {n!r}"):
            evaluate_bound("lambda0_lower", params)
        rep = evaluate_bound("lambda0_lower", dict(params, n=3.0))
        assert rep.rhs == evaluate_bound("lambda0_lower",
                                         SYNTHETIC["lambda0_lower"]).rhs

    @pytest.mark.parametrize("bid,change", [
        ("exp_gap", dict(H=1e6)),                    # exp overflows
        ("regulator_independent", dict(vol=-1.0)),   # complex power
        ("lambda0_lower", dict(inj=-1.0)),           # L = inj / 2 < 0
        ("lambda0_lower", dict(inj=0)),
        ("surface_triangulation_count", dict(mu=-1.0)),   # a negative radius
        ("surface_triangulation_count", dict(curvature=0.0)),
    ])
    def test_evaluation_failure_names_the_bound(self, bid, change):
        with pytest.raises(BoundError, match=f"bound {bid} cannot"):
            evaluate_bound(bid, dict(SYNTHETIC[bid], **change))

    def test_geometry_error_is_not_rewrapped(self):
        # a Moser constant beyond a float is a numerical failure
        params = dict(SYNTHETIC["lambda0_lower"], n=50)
        with pytest.raises(GeometryError, match="overflows"):
            evaluate_bound("lambda0_lower", params)


class TestDichotomy:
    """The dichotomy entry on the degree-1 gaps of torus7 in both inner
    products and its volume, computed here from the library."""

    def setup_method(self):
        K = torus7()
        geo = ComplexGeometry.uniform(K)
        comb = {q: InnerProduct.identity(K.n_cells(q)) for q in range(3)}
        whit = {q: whitney_mass_matrix(K, geo, q) for q in range(3)}
        self.params = {"lambda1_whitney": coexact_gap(K, 1, whit).lambda1,
                       "lambda1_comb": coexact_gap(K, 1, comb).lambda1,
                       "vol": geo.total_volume()}

    def test_generous_constants_hold(self):
        rep = evaluate_bound("dichotomy", dict(self.params, G=1.0, C=1.0))
        assert rep.verdict == "holds"
        assert any("alternative" in n for n in rep.notes)

    def test_adversarial_constants_fail(self):
        rep = evaluate_bound("dichotomy", dict(self.params, G=1e-9, C=1.0))
        assert rep.verdict == "fails"

    @pytest.mark.parametrize("lam_w, lam_c, verdict", [
        (1.0, 1.0, "holds"), (0.01, 1.0, "fails"), (0.25, 2.0, "marginal"),
        (0.25, 0.5, "holds"), (0.1, 0.4, "marginal")])
    def test_verdict_of_the_two_alternatives(self, lam_w, lam_c, verdict):
        # at G = C = vol = 1, alternative 1 reads lam_w >= 1/4 and
        # alternative 2 lam_c <= 4 lam_w; the entry's sides are those of 1
        rep = evaluate_bound("dichotomy", dict(SYNTHETIC["dichotomy"],
                                               lambda1_whitney=lam_w,
                                               lambda1_comb=lam_c))
        assert rep.verdict == verdict
        assert (rep.lhs, rep.rhs, rep.direction) == (lam_w, 0.25, "ge")

    def test_direct_entry_matches_check(self, tmp_path, capsys):
        # `bounds all --attach` computes the same parameters
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"dichotomy": {"G": 1e-9, "C": 1.0}}))
        assert main(["bounds", "all", "--attach", "torus",
                     "--params", str(path)]) == 0
        (got,) = [r for r in json.loads(capsys.readouterr().out)["reports"]
                  if r["id"] == "dichotomy"]
        rep = evaluate_bound("dichotomy", dict(self.params, G=1e-9, C=1.0))
        assert got["verdict"] == rep.verdict == "fails"
        assert got["lhs"] == _round(rep.lhs)
        assert got["rhs"] == _round(rep.rhs)
        assert {k: v["value"] for k, v in got["values"].items()} == \
            {k: _round(v) for k, v in dict(self.params, G=1e-9,
                                           C=1.0).items()}


class TestFillingChain:
    def test_comb_certificate_holds(self):
        # the variational gap inequality |g|^2 <= (1 + delta) |f|^2 / lambda1*
        # for the comb least-norm filling, and its Euler characteristic bound
        K = torus7()
        products = {q: InnerProduct.identity(K.n_cells(q))
                    for q in range(3)}
        lam = lambda1_split(K, 1, products).lambda1_dstar
        f = EdgeCycle(K, tuple(row[0]
                               for row in to_pylists(K.boundary_matrix(2))))
        cert = least_norm_filling(f, "comb")
        lhs = float(sum(c * c for c in cert.g))
        rhs = (1.0 + cert.delta) / lam * sum(c * c for c in f.coefficients)
        assert 0 < lhs <= rhs * (1 + 1e-9)
        assert cert.chi_bound == 4 * sum(abs(c) * cert.m for c in cert.g)
