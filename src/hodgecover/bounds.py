"""Catalogue of the explicit inequalities tying spectral gaps, covering
geometry, and filling complexity together, plus an evaluator.

Each entry substitutes named parameters into a closed-form right-hand side.
Constants that no computation here can produce (leading constants of
asymptotic statements) are user parameters with explicit provenance; the
evaluator never invents them.  Verdicts near equality are flagged marginal
instead of being decided by rounding noise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .hypgeom import GeometryError, ball_volume, moser_constant


class BoundError(ValueError):
    pass


MARGINAL_REL_GAP = 1e-9


@dataclass(frozen=True)
class BoundEntry:
    id: str
    description: str
    params: tuple[tuple[str, str], ...]  # (name, source in {user, computed})
    direction: str                       # "le": lhs <= rhs, "ge": lhs >= rhs
    lhs: object                          # params -> float | None
    rhs: object                          # params -> float


@dataclass
class BoundReport:
    id: str
    values: dict
    lhs: float | None
    rhs: float | None                    # None only when not applicable
    direction: str
    verdict: str                         # holds | fails | marginal | not-applicable
    notes: list[str]


def _verdict(lhs, rhs, direction):
    if lhs is None:
        return "not-applicable"
    scale = max(abs(lhs), abs(rhs), 1e-300)
    if abs(lhs - rhs) < MARGINAL_REL_GAP * scale:
        return "marginal"
    ok = lhs <= rhs if direction == "le" else lhs >= rhs
    return "holds" if ok else "fails"


def _opt(p, name):
    v = p.get(name)
    return None if v is None else float(v)


def _dimension(n) -> int:
    if n != int(n) or n < 3:
        raise ValueError(f"n must be an integer >= 3, not {n!r}")
    return int(n)


def _inv_sqrt_lambda(p):
    lam = _opt(p, "lam")
    return None if lam is None else 1.0 / math.sqrt(lam)


_CATALOGUE: dict[str, BoundEntry] = {}


def _entry(id, description, params, direction, rhs, lhs=None):
    """Catalogue an entry; its left side is its `lhs` parameter unless an
    entry without one passes lhs."""
    _CATALOGUE[id] = BoundEntry(id, description, tuple(params), direction,
                                lhs or (lambda p: _opt(p, "lhs")), rhs)


_entry(
    "upper_b0",
    "spectral gap upper bound from a rationally null geodesic family",
    [("lam", "computed"), ("C", "user"), ("V", "computed"), ("D", "user"),
     ("sup_sarea_over_length", "user"), ("vol", "computed")],
    "le",
    lambda p: p["C"] ** 2 * (2 * math.pi * p["V"]
                             + p["D"] * p["sup_sarea_over_length"])
    + p["C"] / 2 * math.sqrt(p["vol"]),
    lhs=_inv_sqrt_lambda)

_entry(
    "upper_b0_body",
    "gap upper bound from a fundamental domain boundary",
    [("lam", "computed"), ("C", "user"), ("vol_boundary", "computed"),
     ("sup_sarea", "user"), ("vol", "computed")],
    "le",
    lambda p: p["C"] ** 2 * (3 * math.pi * p["vol_boundary"] + p["sup_sarea"])
    + p["C"] / 2 * math.sqrt(p["vol"]),
    lhs=_inv_sqrt_lambda)

_entry(
    "upper_b1",
    "gap upper bound with harmonic correction and volume regulator term",
    [("lam", "computed"), ("E", "user"), ("C", "user"), ("V", "computed"),
     ("D", "user"), ("vol", "computed"), ("delta", "user"),
     ("sup_sarea", "user")],
    "le",
    lambda p: p["C"] ** 2 * (3 * math.pi * p["V"]
                             + 2 * math.sqrt(2) * p["D"] ** 2
                             * p["vol"] ** (p["delta"] + 0.5) * p["sup_sarea"]
                             + 5 * math.pi)
    + p["C"] / 2 * math.sqrt(p["vol"]),
    lhs=lambda p: None if _opt(p, "lam") is None
        else (1.0 - p["E"]) / math.sqrt(p["lam"]))

_entry(
    "upper_general",
    "gap upper bound with damped cycle term, any first betti number",
    [("lam", "computed"), ("C", "user"), ("V", "computed"), ("vol", "computed"),
     ("f_norm", "computed"), ("h_norm", "computed"), ("sup_sarea", "user"),
     ("b1", "computed")],
    "le",
    lambda p: 3 * math.pi * p["C"] ** 2 * p["V"]
    + p["C"] / 2 * math.sqrt(p["vol"])
    + p["C"] ** 2
    * (p["f_norm"] / math.sqrt(p["f_norm"] ** 2 + p["h_norm"] ** 2))
    * (p["sup_sarea"] + (5 * p["b1"] + 2) * math.pi),
    lhs=_inv_sqrt_lambda)

_entry(
    "harmonic_subtraction",
    "period bound after subtracting the harmonic part of a primitive",
    [("lhs", "user"), ("df_sup", "computed"), ("sarea", "user"),
     ("b1", "computed")],
    "le",
    lambda p: p["df_sup"] * (p["sarea"] + 5 * p["b1"] * math.pi))

_entry(
    "lower_whitney",
    "filling complexity controlled by the coexact Whitney gap",
    [("lhs", "user"), ("W", "user"), ("vol", "computed"),
     ("diam", "computed"), ("lambda1_whitney", "computed")],
    "le",
    lambda p: p["W"] * p["vol"] * p["diam"] ** 2 / p["lambda1_whitney"])

_entry(
    "dichotomy",
    "either the Whitney gap is large or it controls the combinatorial gap",
    [("lambda1_whitney", "computed"), ("lambda1_comb", "computed"),
     ("G", "user"), ("C", "user"), ("vol", "computed")],
    "ge",
    lambda p: 1.0 / (4 * p["G"] ** 2 * p["C"] ** 2 * p["vol"]),
    lhs=lambda p: _opt(p, "lambda1_whitney"))

_entry(
    "tree_area",
    "boundary volume of a tree-type domain vs the base domain",
    [("lhs", "computed"), ("vol_boundary_base", "user"),
     ("vol", "computed"), ("vol_base", "user")],
    "le",
    lambda p: p["vol_boundary_base"] * p["vol"] / p["vol_base"])

_entry(
    "tree_diam",
    "diameter of a tree-type domain vs the tree diameter",
    [("lhs", "computed"), ("diam_base_domain", "user"),
     ("diam_tree", "computed")],
    "le",
    lambda p: p["diam_base_domain"] * (p["diam_tree"] + 1))

_entry(
    "comb_ball_diam",
    "dual-graph distance vs metric distance through ball covers",
    [("lhs", "computed"), ("dist", "user"), ("r0", "user"), ("k0", "user")],
    "le",
    lambda p: p["dist"] / p["r0"] * 2 * p["k0"] + 2 * p["k0"])

_entry(
    "tree_diam_M",
    "tree-type domain diameter vs the ambient diameter",
    [("lhs", "computed"), ("diam_base_domain", "user"), ("k0", "user"),
     ("r0", "user"), ("diam", "computed")],
    "le",
    lambda p: p["diam_base_domain"]
    * (4 * p["k0"] / p["r0"] * p["diam"] + 4 * p["k0"] + 1))

_entry(
    "dirichlet_diam",
    "diameter of a distance fundamental domain",
    [("lhs", "computed"), ("diam", "computed")],
    "le",
    lambda p: 2 * p["diam"])

_entry(
    "dirichlet_boundary",
    "boundary volume of a distance fundamental domain",
    [("lhs", "computed"), ("E_n", "user"), ("n", "user"),
     ("diam", "computed")],
    "le",
    lambda p: p["E_n"] * math.exp((2 * p["n"] - 3) * 4 * p["diam"]))

_entry(
    "surface_injectivity",
    "injectivity radius of an immersed bounding surface",
    [("lhs", "computed"), ("mu1", "user"), ("inj", "user")],
    "ge",
    lambda p: min(1.0 / (2 * p["mu1"]), p["inj"]))

_entry(
    "surface_triangulation_count",
    "triangle count of a controlled surface triangulation via ball packing",
    [("lhs", "computed"), ("vol_surface", "user"), ("mu", "user"),
     ("curvature", "user")],
    "le",
    lambda p: p["vol_surface"] / ball_volume(2, p["mu"] / 5, 1.0)
    * ball_volume(2, p["mu"], p["curvature"]) / ball_volume(2, p["mu"] / 5, 1.0))

_entry(
    "intersection_bound",
    "intersections of a geodesic with a controlled triangulation",
    [("lhs", "computed"), ("triangle_count", "user"), ("length", "computed"),
     ("mu", "user")],
    "le",
    lambda p: p["triangle_count"] * p["length"] / (6 * p["mu"] / 5))

_entry(
    "free_part_length",
    "length of a homologically adjusted loop via lattice reduction",
    [("lhs", "computed"), ("A", "user"), ("D", "user"), ("b1", "computed")],
    "le",
    lambda p: (p["A"] * p["D"] * math.sqrt(p["b1"])) ** p["b1"]
    * p["D"] * p["b1"])

_entry(
    "regulator_independent",
    "regulator-free form of the harmonic correction term",
    [("lhs", "user"), ("D", "user"), ("vol", "computed"), ("delta", "user"),
     ("sup_sarea", "user")],
    "le",
    lambda p: 2 * math.sqrt(2) * p["D"] ** 2
    * p["vol"] ** (p["delta"] + 0.5) * p["sup_sarea"])

_entry(
    "exp_gap",
    "at most exponentially small coexact gap in the covolume",
    [("lambda1", "computed"), ("H", "user"), ("vol", "computed")],
    "le",
    lambda p: math.exp(p["H"] * p["vol"]),
    lhs=lambda p: None if _opt(p, "lambda1") is None else 1.0 / p["lambda1"])

_entry(
    "high_dim_scl",
    "normalized filling complexity vs volume and diameter",
    [("lhs", "computed"), ("K", "user"), ("vol", "computed"), ("C", "user"),
     ("diam", "computed")],
    "le",
    lambda p: p["K"] * p["vol"] ** (1 + p["C"] / 2) * p["diam"])

_entry(
    "retraction",
    "filling complexity pulled back through a degree-d retraction",
    [("lhs", "computed"), ("K", "user"), ("d", "user"), ("vol_target", "user"),
     ("diam_target", "user"), ("lambda1_target", "user")],
    "le",
    lambda p: p["K"] * p["d"] ** 2 * p["vol_target"] * p["diam_target"]
    * math.sqrt(1.0 / p["lambda1_target"]))

_entry(
    "lambda0_lower",
    "function-level gap lower bound from the sup-norm iteration constant",
    [("lhs", "computed"), ("n", "user"), ("inj", "computed"),
     ("lam_probe", "user"), ("diam", "computed"), ("vol", "computed")],
    "ge",
    lambda p: moser_constant(_dimension(p["n"]), 1, p["inj"] / 2,
                             p["lam_probe"]).value ** -2
    / (p["diam"] ** 2 * p["vol"]))


def catalogue_ids() -> list[str]:
    return sorted(_CATALOGUE)


def get_entry(id: str) -> BoundEntry:
    if id not in _CATALOGUE:
        raise BoundError(f"unknown bound id {id!r}")
    return _CATALOGUE[id]


# the user parameters that `bounds all` fills with other values than 1.0
_DEFAULT_USER_PARAMS = {"n": 3, "E": 0.5, "delta": 0.5, "mu": 0.5, "mu1": 1.0,
                        "curvature": 1.0, "k0": 2.0, "r0": 0.5, "d": 2.0,
                        "lam_probe": 1.0}


def evaluate_all(computed: dict, overrides: dict) -> list[BoundReport]:
    """Every catalogue entry, in id order.  A parameter takes overrides[id]'s
    value, else computed's if its source is computed (None if computed has
    none), else its _DEFAULT_USER_PARAMS value (1.0 if unlisted).  BoundError
    unless overrides maps catalogue ids to objects of their parameters."""
    if not (isinstance(overrides, dict)
            and all(isinstance(v, dict) for v in overrides.values())):
        raise BoundError("bounds all parameters must map bound ids to objects")
    for bid in overrides:
        get_entry(bid)
    reports = []
    for bid in catalogue_ids():
        filled = {name: computed.get(name) if source == "computed"
                  else _DEFAULT_USER_PARAMS.get(name, 1.0)
                  for name, source in _CATALOGUE[bid].params}
        reports.append(evaluate_bound(bid, filled | overrides.get(bid, {}),
                                      overflow=True))
    return reports


def _finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int too large for a float
        return False


def evaluate_bound(id: str, params: dict, overflow=False) -> BoundReport:
    """Substitute params into the catalogue entry and compare both sides.

    Parameter values are finite real numbers, or None for one that is not
    supplied: a side that reads it is None, and the entry is not applicable.
    A parameter absent from params that a side reads is an error, and so is
    a side beyond a float unless `overflow`: then it is None, and noted."""
    entry = get_entry(id)
    if not isinstance(params, dict):
        raise BoundError(f"parameters of bound {id} must be a JSON object, "
                         f"not {type(params).__name__}")
    sources = dict(entry.params)
    values = {}
    for name, value in params.items():
        if name not in sources:
            raise BoundError(f"bound {id} has no parameter {name!r}")
        if value is not None and not _finite_real(value):
            raise BoundError(f"bound {id} parameter {name!r} must be a "
                             f"finite real number, not {value!r}")
        values[name] = {"value": value, "source": sources[name]}
    null = [k for k, v in params.items() if v is None]
    given = {k: v for k, v in params.items() if v is not None}
    beyond = [] if overflow else None       # notes of overflowed sides
    try:
        rhs, lhs = (_side(f, given, null, beyond, side) for side, f in
                    (("right", entry.rhs), ("left", entry.lhs)))
        if id == "dichotomy" and not (null or beyond):
            return _dichotomy_report(given, values, lhs, rhs)
    except KeyError as exc:
        raise BoundError(f"bound {id} missing parameter {exc.args[0]!r}")
    except GeometryError:
        raise
    # a negative base to a fractional power is complex: float() raises
    # TypeError on it
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise BoundError(f"bound {id} cannot be evaluated at these "
                         f"parameters: {exc}")
    verdict = ("not-applicable" if null or beyond
               else _verdict(lhs, rhs, entry.direction))
    notes = [f"parameter {k!r} not supplied" for k in null] + (beyond or [])
    if lhs is None and rhs is not None and not beyond:
        notes.append("left side not supplied; right side reported only")
    return BoundReport(id, values, lhs, rhs, entry.direction, verdict, notes)


def _side(f, given: dict, null: list, beyond, side: str) -> float | None:
    """f(given) as a float, None if f returns None or reads a parameter in
    null; any other parameter f reads must be in given (KeyError).  When
    beyond is a list, an overflow is None too, and noted there."""
    try:
        x = f(given)
        return None if x is None else float(x)
    except KeyError as exc:
        if exc.args[0] not in null:
            raise
    except OverflowError as exc:
        if beyond is None:
            raise
        beyond.append(f"{side} side overflows a float: {exc}")
    return None


def _dichotomy_report(params, values, lam_w, alt1_rhs) -> BoundReport:
    """Alternative 1 is the entry's own lam_w >= alt1_rhs; alternative 2
    reads lambda1_comb <= 4 G^2 vol lam_w."""
    alt2_rhs = 4 * float(params["G"]) ** 2 * float(params["vol"]) * lam_w
    v1 = _verdict(lam_w, alt1_rhs, "ge")
    v2 = _verdict(float(params["lambda1_comb"]), alt2_rhs, "le")
    notes = [f"alternative 1 (gap not small): {v1}",
             f"alternative 2 (gap controls combinatorial gap): {v2}",
             "constants G, C are user-supplied empirical values"]
    verdict = ("holds" if "holds" in (v1, v2)
               else "marginal" if "marginal" in (v1, v2) else "fails")
    return BoundReport("dichotomy", values, lam_w, alt1_rhs, "ge",
                       verdict, notes)
