"""Command-line interface: validation, homology, covers, spectra, norms,
fillings, and the bounds catalogue, with deterministic JSON/CSV output."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import BoundError, catalogue_ids, evaluate_bound, get_entry
from .complexes import (ComplexError, LoadReport, _integer,
                        load_complex_report)
from .covers import (CoverError, PermutationCoverSpec, build_cover, dual_graph,
                     graph_diameter, shortest_path_tree,
                     tree_fundamental_domain)
from .fillings import (EdgeCycle, FillingError, l1_filling, least_norm_filling,
                       rationally_null, scl_report)
from .homology import homology_table
from .hypgeom import GeometryError, ball_volume, kappa, moser_constant
from .spectra import (SpectralError, charpoly_gap_bound, coexact_gap,
                      lambda1_split)
from .surfaces import FIXTURES
from .whitney import (ComplexGeometry, InnerProduct, norm_equivalence_constants,
                      whitney_mass_matrix)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _round(x, nd=12):
    if isinstance(x, float):
        return round(x, nd)
    return x


def _emit(obj, out=None):
    try:
        text = json.dumps(obj, indent=1, sort_keys=True, default=str,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise CliError(f"result is not finite: {exc}", EXIT_NUMERICAL) from None
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}")


def _load_complex(path):
    """The LoadReport of a fixture, or of a complex file."""
    if path in FIXTURES:
        return LoadReport(FIXTURES[path]())
    return load_complex_report(_load_json(path))


def _key(key):
    """An "i,j" key of a geometry or cover-spec file as a pair of ints."""
    try:
        i, j = (int(t) for t in key.split(","))
    except ValueError:
        raise CliError(f'key {key!r} is not of the form "i,j"') from None
    return i, j


def _items(name, data, field):
    """The (key, value) pairs of the object data[field] of a JSON object,
    each key read as a pair of ints."""
    value = data.get(field, {}) if isinstance(data, dict) else None
    if not isinstance(value, dict):
        raise CliError(f"{name} must be an object with an object {field!r}")
    return {_key(key): val for key, val in value.items()}


def _load_geometry(K, path):
    if path is None:
        return ComplexGeometry.uniform(K, 1.0)
    return ComplexGeometry(K, _items("geometry", _load_json(path), "edges"))


def _load_cover_spec(base, path):
    data = _load_json(path)
    perms = _items("cover spec", data, "perms")
    return PermutationCoverSpec(base, data.get("degree"), perms)


def _inner_products(K, geometry, inner):
    if inner == "comb":
        return {q: InnerProduct.identity(q, K.n_cells(q))
                for q in range(K.dim + 1)}
    return {q: whitney_mass_matrix(K, geometry, q) for q in range(K.dim + 1)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_complex(args):
    report = _load_complex(args.path)
    K, added = report.complex, report.added_faces
    if args.action == "validate":
        _emit({
            "dim": K.dim,
            "cells": [K.n_cells(q) for q in range(K.dim + 1)],
            "euler_characteristic": K.euler_characteristic(),
            "added_faces": [list(c) for c in added],
            "valid": True,
        }, args.out)
    else:
        _emit({"homology": homology_table(K)}, args.out)


def cmd_cover(args):
    base = _load_complex(args.base).complex
    spec = _load_cover_spec(base, args.spec)
    cover = build_cover(spec)
    if args.action == "build":
        _emit({
            "degree": spec.degree,
            "connected": cover.connected,
            "cells": [cover.complex.n_cells(q)
                      for q in range(cover.complex.dim + 1)],
            "euler_characteristic": cover.complex.euler_characteristic(),
            "base_euler_characteristic": base.euler_characteristic(),
            "complex": cover.complex.to_dict(),
        }, args.out)
        return
    g = cover.schreier_graph()
    tree = shortest_path_tree(g, 0)
    if args.action == "tree":
        _emit({
            "tiles": g.n,
            "graph_diameter": graph_diameter(g),
            "tree_diameter": tree.diameter(),
            "tree_edges": sorted(list(e) for e in tree.tree_edges),
            "words": {str(v): [list(l) for l in w]
                      for v, w in sorted(tree.words.items())},
        }, args.out)
        return
    words, pairings = tree_fundamental_domain(cover, tree)
    _emit({
        "n_pairings": len(pairings),
        "pairings": [{
            "face": list(p.face),
            "paired_face": list(p.paired_face),
            "word": [list(l) for l in p.word],
        } for p in pairings.pairings],
    }, args.out)


def cmd_spectrum(args):
    K = _load_complex(args.path).complex
    geometry = _load_geometry(K, args.geometry)
    ips = _inner_products(K, geometry, args.inner)
    split = lambda1_split(K, args.degree, ips)
    out = {
        "degree": split.degree,
        "inner": args.inner,
        "kernel_dim": split.kernel_dim,
        "lambda1": _round(split.lambda1),
        "lambda1_d": _round(split.lambda1_d),
        "lambda1_dstar": _round(split.lambda1_dstar),
        "spectrum": [_round(float(x)) for x in split.spectrum],
    }
    if args.charpoly and args.degree < K.dim:
        out["reciprocal_sum_bound"] = str(charpoly_gap_bound(K, args.degree))
    _emit(out, args.out)


def cmd_norms(args):
    K = _load_complex(args.path).complex
    geometry = _load_geometry(K, args.geometry)
    if args.action == "constants":
        lo, hi = norm_equivalence_constants(K, geometry, args.degree)
        _emit({"degree": args.degree, "c_min": _round(lo), "c_max": _round(hi),
               "volume": _round(geometry.total_volume())}, args.out)
        return
    ip = whitney_mass_matrix(K, geometry, args.degree)
    _emit({"degree": args.degree,
           "mass_matrix": [[_round(float(x)) for x in row]
                           for row in ip.matrix]}, args.out)


def _load_cycle(K, path):
    data = _load_json(path)
    coeffs = data.get("coefficients") if isinstance(data, dict) else data
    try:
        return EdgeCycle(K, coeffs)
    except FillingError as exc:     # a malformed cycle is bad input
        raise CliError(str(exc))


def cmd_scl(args):
    K = _load_complex(args.base).complex
    geometry = _load_geometry(K, args.geometry)
    f = _load_cycle(K, args.cycle)
    null, _w = rationally_null(f)
    if not null:
        raise CliError("cycle is not rationally null-homologous")
    if K.dim < 2:
        raise CliError("a filling needs 2-cells; the base has dimension "
                       f"{K.dim}")
    try:
        _scl(args, K, geometry, f)
    except OverflowError as exc:    # an exact chain too large for a float
        raise CliError(f"filling too large for a float: {exc}",
                       EXIT_NUMERICAL)


def _scl(args, K, geometry, f):
    if args.l1:
        cert = l1_filling(f)
    elif args.inner == "whitney":
        ip = whitney_mass_matrix(K, geometry, 2)
        cert = least_norm_filling(f, "whitney", ip)
    else:
        cert = least_norm_filling(f, "comb")
    payload = {
        "inner": cert.inner,
        "m": cert.m,
        "g": [str(c) for c in cert.g],
        "one_norm": str(cert.one_norm),
        "chi_bound": str(cert.chi_bound),
        "delta": cert.delta,
        "norm_g": _round(cert.norm_g),
    }
    if args.action == "fill":
        _emit(payload, args.out)
        return
    ips = _inner_products(K, geometry, "whitney")
    gap = coexact_gap(K, 1, ips).lambda1
    if gap is None:
        raise CliError("no positive coexact eigenvalue in degree 1",
                       EXIT_NUMERICAL)
    report = scl_report(cert, geometry, gap)
    payload["report"] = {k: _round(v) for k, v in report.items()}
    _emit(payload, args.out)


def _bounds_csv(reports):
    lines = ["id,lhs,rhs,verdict"]
    for r in reports:
        lhs, rhs = ("" if x is None else repr(_round(x))
                    for x in (r.lhs, r.rhs))
        lines.append(f"{r.id},{lhs},{rhs},{r.verdict}")
    return "\n".join(lines) + "\n"


def _report_dict(r):
    return {"id": r.id, "lhs": _round(r.lhs), "rhs": _round(r.rhs),
            "direction": r.direction, "verdict": r.verdict,
            "notes": r.notes,
            "values": {k: {"value": _round(v["value"]),
                           "source": v["source"]}
                       for k, v in sorted(r.values.items())}}


def cmd_bounds(args):
    if args.action == "eval":
        params = _load_json(args.params)
        report = evaluate_bound(args.id, params)
        _emit(_report_dict(report), args.out)
        return
    # bounds all: evaluate every entry, pulling computed parameters from the
    # attached complex/geometry (None where nothing here computes them) and
    # defaults for user parameters
    K = _load_complex(args.attach).complex
    geometry = _load_geometry(K, args.geometry)
    computed = _computed_params(K, geometry)
    overrides = _load_json(args.params) if args.params else {}
    if not (isinstance(overrides, dict)
            and all(isinstance(v, dict) for v in overrides.values())):
        raise CliError("bounds all --params must map bound ids to objects")
    reports = []
    for bid in catalogue_ids():
        given = overrides.get(bid, {})
        params = {name: given[name] if name in given
                  else computed.get(name) if source == "computed"
                  else _DEFAULT_USER_PARAMS.get(name, 1.0)
                  for name, source in get_entry(bid).params}
        reports.append(evaluate_bound(bid, params))
    payload = {"reports": [_report_dict(r) for r in reports],
               "csv": _bounds_csv(reports)}
    _emit(payload, args.out)


_DEFAULT_USER_PARAMS = {
    "n": 3, "E": 0.5, "delta": 0.5, "mu": 0.5, "mu1": 1.0, "curvature": 1.0,
    "k0": 2.0, "r0": 0.5, "d": 2.0, "lam_probe": 1.0,
}


def _computed_params(K, geometry):
    from .homology import betti_numbers
    ips = _inner_products(K, geometry, "whitney")
    comb = _inner_products(K, geometry, "comb")
    gap_w = coexact_gap(K, 1, ips).lambda1 if K.dim >= 1 else None
    gap_c = coexact_gap(K, 1, comb).lambda1 if K.dim >= 1 else None
    g = dual_graph(K)
    betti = betti_numbers(K)
    out = {
        "vol": geometry.total_volume(),
        "b1": betti[1] if len(betti) > 1 else 0,
        "diam": float(graph_diameter(g)) if g.n else 0.0,
    }
    if gap_w is not None:
        out["lambda1_whitney"] = out["lam"] = out["lambda1"] = gap_w
    if gap_c is not None:
        out["lambda1_comb"] = gap_c
    return out


def cmd_constants(args):
    out = {"kappa": {str(n): _round(kappa(n)) for n in range(3, 7)}}
    if args.ball is not None:
        n, r, k = args.ball
        out["ball_volume"] = _round(ball_volume(_integer(n, "N", CliError),
                                                r, k))
    if args.moser is not None:
        n, q, L, lam = args.moser
        mc = moser_constant(_integer(n, "N", CliError),
                            _integer(q, "Q", CliError), L, lam)
        out["moser_constant"] = {"value": _round(mc.value), "terms": mc.terms,
                                 "tail_bound": mc.tail_bound}
    _emit(out, args.out)


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="hodgecover",
        description="Simplicial spectra, covers, and filling bounds.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("complex", help="validate a complex or compute homology")
    pc.add_argument("action", choices=["validate", "homology"])
    pc.add_argument("path")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_complex)

    pv = sub.add_parser("cover", help="build covers and fundamental domains")
    pv.add_argument("action", choices=["build", "tree", "pairings"])
    pv.add_argument("--base", required=True)
    pv.add_argument("--spec", required=True)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_cover)

    ps = sub.add_parser("spectrum", help="Hodge Laplacian spectrum and split")
    ps.add_argument("path")
    ps.add_argument("--degree", type=int, default=0)
    ps.add_argument("--inner", choices=["comb", "whitney"], default="comb")
    ps.add_argument("--geometry")
    ps.add_argument("--charpoly", action="store_true",
                    help="add the exact reciprocal-sum bound")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_spectrum)

    pn = sub.add_parser("norms", help="mass matrices and norm constants")
    pn.add_argument("action", choices=["constants", "mass"])
    pn.add_argument("path")
    pn.add_argument("--degree", type=int, default=1)
    pn.add_argument("--geometry")
    pn.add_argument("--out")
    pn.set_defaults(func=cmd_norms)

    pf = sub.add_parser("scl", help="rational fillings and complexity reports")
    pf.add_argument("action", choices=["fill", "report"])
    pf.add_argument("--base", required=True)
    pf.add_argument("--cycle", required=True)
    pf.add_argument("--inner", choices=["comb", "whitney"], default="comb")
    pf.add_argument("--geometry")
    pf.add_argument("--l1", action="store_true",
                    help="1-norm minimizing filling via linear programming")
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_scl)

    pb = sub.add_parser("bounds", help="evaluate catalogue inequalities")
    pb.add_argument("action", choices=["eval", "all"])
    pb.add_argument("--id")
    pb.add_argument("--params")
    pb.add_argument("--attach")
    pb.add_argument("--geometry")
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bounds)

    pk = sub.add_parser("constants", help="analytic constants")
    pk.add_argument("--ball", nargs=3, type=float, metavar=("N", "R", "K"))
    pk.add_argument("--moser", nargs=4, type=float,
                    metavar=("N", "Q", "L", "LAM"))
    pk.add_argument("--out")
    pk.set_defaults(func=cmd_constants)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bounds":
        if args.action == "eval" and not (args.id and args.params):
            parser.error("bounds eval needs --id and --params")
        if args.action == "all" and not args.attach:
            parser.error("bounds all needs --attach")
    try:
        args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ComplexError, CoverError, BoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FillingError, SpectralError, GeometryError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
