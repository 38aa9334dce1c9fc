"""The three workloads: input generation and one timed pass of each.

Importing this module imports the package under test, so the benchmark
times that import as part of set-up.  A pass returns the seconds of each
level or command it ran, timed without the output checks; the checks run
between levels and add wrong outputs to the recorder's failed count.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import inputs
from hodgecover import (ComplexGeometry, EdgeCycle, PermutationCoverSpec,
                        build_cover, charpoly_gap_bound, cycle_from_word,
                        graph_diameter, homology_table, l1_filling,
                        lambda1_split, least_norm_filling,
                        norm_equivalence_constants, rationally_null,
                        shortest_path_tree, tree_fundamental_domain,
                        up_pencil, whitney_mass_matrix)
from hodgecover.surfaces import FIXTURES, genus2_surface

TOWER_DEGREES = (1, 2, 3)
WIDE_DEGREES = (23, 53, 101)
SMOKE_DEGREES = {"tower": (1,), "wide_cover": (23,)}
BASE_GAP = 1.0962756169        # coexact lambda_1 of genus2, unit Whitney


@dataclass
class Level:
    degree: int
    perms: dict                  # (a, b) with a < b -> sheet permutation
    spec: PermutationCoverSpec
    geometry: ComplexGeometry
    lengths: dict | None         # None on unit geometry
    null: list[int] | None = None
    non_null: list[int] | None = None


@dataclass
class Command:
    id: str
    argv: list[str]
    code: int                    # expected exit code
    check: object                # stdout text -> list of failure messages


def _report(rec, where: str, failures: list[str]):
    for msg in failures:
        print(f"check failed [{where}]: {msg}", file=sys.stderr)
    rec.failed += len(failures)


# ---------------------------------------------------------------------------
# tower and wide_cover


def make_levels(workload: str, seed: int, smoke: bool) -> list[Level]:
    rng = random.Random(seed)
    base = genus2_surface()
    degrees = SMOKE_DEGREES[workload] if smoke else \
        (TOWER_DEGREES if workload == "tower" else WIDE_DEGREES)
    word = inputs.non_null_word(base, rng) if workload == "tower" else None
    levels = []
    for d in degrees:
        perms = inputs.cyclic_cover_perms(base, d, rng)
        spec = PermutationCoverSpec(base, d, perms)
        cover = build_cover(spec)
        K = cover.complex
        if workload == "tower":
            levels.append(Level(
                d, perms, spec, ComplexGeometry.uniform(K, 1.0), None,
                null=inputs.null_cycle(K, rng),
                non_null=list(cycle_from_word(cover, word * d).coefficients)))
        else:
            lengths = inputs.edge_lengths(K, rng)
            levels.append(Level(d, perms, spec, ComplexGeometry(K, lengths),
                                lengths))
    return levels


def tower_level(rec, lv: Level) -> tuple:
    c = rec.call
    cover = c("covers.build_cover", build_cover, lv.spec)
    K = cover.complex
    bnd = {q: c("complexes.boundary_matrix", K.boundary_matrix, q) for q in (1, 2)}
    table = c("homology.homology_table", homology_table, K)
    ips = {q: c("whitney.mass_matrix", whitney_mass_matrix, K, lv.geometry, q)
           for q in range(3)}
    consts = c("whitney.norm_constants", norm_equivalence_constants,
               K, lv.geometry, 1)
    A, _ = c("spectra.up_pencil", up_pencil, K, 1, ips[1], ips[2])
    split = c("spectra.lambda1_split", lambda1_split, K, 1, ips)
    bound = c("spectra.charpoly_gap_bound", charpoly_gap_bound, K, 0)
    f = c("fillings.edge_cycle", EdgeCycle, K, tuple(lv.null))
    solved = c("fillings.rationally_null", rationally_null, f)
    certs = [c("fillings.least_norm_comb", least_norm_filling, f, "comb"),
             c("fillings.least_norm_whitney", least_norm_filling, f,
               "whitney", ips[2]),
             c("fillings.l1_filling", l1_filling, f)]
    h = c("fillings.edge_cycle", EdgeCycle, K, tuple(lv.non_null))
    refuted = c("fillings.rationally_null", rationally_null, h)
    graph = tiles(rec, cover)
    return (K, bnd, table, ips, consts, A, split, bound, f, solved, certs,
            refuted, graph)


def tower_checks(rec, lv: Level, outputs: tuple, state: dict, rng) -> None:
    (K, bnd, table, ips, consts, A, split, bound, f, solved, certs, refuted,
     graph) = outputs
    d = lv.degree
    fails = checks.cover_shape(K, d) + checks.homology(table, d)
    for q, B in bnd.items():
        fails += checks.boundary_matrix(K, q, B)
    fails += checks.mass0_volume(ips[0].matrix, checks.heron_volume(K, None))
    fails += checks.norm_constants(*consts)
    fails += checks.up_pencil_kills_exact(K, A, rng)
    fails += checks.spectral_split(split.kernel_dim, split.lambda1_dstar,
                                   2 + 2 * d, BASE_GAP)
    if d == 1 and not math.isclose(split.lambda1_dstar, BASE_GAP, rel_tol=1e-9):
        fails.append(f"base gap {split.lambda1_dstar} != {BASE_GAP}")
    fails += checks.charpoly_bound(K, bound)
    fails += [] if tuple(f.coefficients) == tuple(lv.null) \
        else ["EdgeCycle changed the coefficients"]
    fails += checks.null_solution(K, lv.null, solved)
    for cert in certs:
        state["fill_attempts"] = state.get("fill_attempts", 0) + 1
        bad = checks.filling(K, lv.null, cert.g, cert.m, cert.inner)
        if not bad:
            state["fill_certified"] = state.get("fill_certified", 0) + 1
            state["m_bits"] = max(state.get("m_bits", 0), cert.m.bit_length())
        fails += bad
    fails += checks.non_null_certificate(K, lv.non_null, refuted)
    fails += tile_checks(lv, graph, state)
    _report(rec, f"tower degree {d}", fails)


def tiles(rec, cover):
    c = rec.call
    g = c("covers.schreier_graph", cover.schreier_graph)
    tree = c("covers.shortest_path_tree", shortest_path_tree, g, 0)
    gd = c("covers.graph_diameter", graph_diameter, g)
    td = c("covers.tree_diameter", tree.diameter)
    _words, pairings = c("covers.fundamental_domain", tree_fundamental_domain,
                         cover, tree)
    return cover, g, gd, td, pairings


def tile_checks(lv: Level, graph, state: dict) -> list[str]:
    cover, g, gd, td, pairings = graph
    state["tiles"] = max(state.get("tiles", 0), g.n)
    return checks.tile_graph(cover, lv.degree, gd, td, pairings, lv.perms)


def wide_level(rec, lv: Level) -> tuple:
    c = rec.call
    cover = c("covers.build_cover", build_cover, lv.spec)
    K = cover.complex
    bnd = {q: c("complexes.boundary_matrix", K.boundary_matrix, q) for q in (1, 2)}
    graph = tiles(rec, cover)
    ips = {q: c("whitney.mass_matrix", whitney_mass_matrix, K, lv.geometry, q)
           for q in range(3)}
    consts = c("whitney.norm_constants", norm_equivalence_constants,
               K, lv.geometry, 1)
    A, _ = c("spectra.up_pencil", up_pencil, K, 1, ips[1], ips[2])
    return K, bnd, graph, ips[0].matrix, consts, A


def wide_checks(rec, lv: Level, outputs: tuple, state: dict, rng) -> None:
    K, bnd, graph, M0, consts, A = outputs
    fails = checks.cover_shape(K, lv.degree)
    for q, B in bnd.items():
        fails += checks.boundary_matrix(K, q, B)
    fails += tile_checks(lv, graph, state)
    fails += checks.mass0_volume(M0, checks.heron_volume(K, lv.lengths))
    fails += checks.norm_constants(*consts)
    fails += checks.up_pencil_kills_exact(K, A, rng)
    _report(rec, f"wide_cover degree {lv.degree}", fails)


def level_pass(workload: str, rec, levels: list[Level], state: dict
               ) -> dict[str, float]:
    """Run every level once; returns the seconds of each level."""
    run, check = (tower_level, tower_checks) if workload == "tower" \
        else (wide_level, wide_checks)
    rng = random.Random(0)
    times = {}
    for lv in levels:
        unit = f"degree-{lv.degree}"
        start = time.perf_counter()
        try:
            with rec.span("level", unit):
                outputs = run(rec, lv)
        except Exception:            # count it and go on to the next level
            traceback.print_exc()
            rec.failed += 1
            continue
        finally:
            times[unit] = time.perf_counter() - start
        try:
            check(rec, lv, outputs, state, rng)
        except Exception:            # output too malformed to check
            traceback.print_exc()
            rec.failed += 1
    return times


# ---------------------------------------------------------------------------
# cli


def _homology(expect_betti, expect_torsion):
    def check(out):
        rows = json.loads(out)["homology"]
        got = ([r["betti"] for r in rows], [r["torsion"] for r in rows])
        return [] if got == (expect_betti, expect_torsion) \
            else [f"homology {got}"]
    return check


def _fill_check(K, f):
    def check(out):
        d = json.loads(out)
        return checks.filling(K, f, d["g"], int(d["m"]), d["inner"])
    return check


def make_commands(seed: int, workdir: Path, smoke: bool) -> list[Command]:
    """Write the seeded input files and list the command mix."""
    rng = random.Random(seed)
    base = genus2_surface()
    perms = inputs.cyclic_cover_perms(base, 5, rng)
    lengths = inputs.edge_lengths(base, rng)
    null = inputs.null_cycle(base, rng)
    non_null = inputs.gate_cycle(base, inputs.non_null_word(base, rng))
    lhs, diam = rng.uniform(0.5, 6.0), rng.uniform(1.0, 3.0)
    r, L, lam = rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0)
    files = {
        "spec": inputs.spec_json(5, perms),
        "geometry": {"edges": {f"{u},{v}": x for (u, v), x in lengths.items()}},
        "null": {"coefficients": null},
        "non_null": {"coefficients": non_null},
        "params": {"lhs": lhs, "diam": diam},
    }
    path = {}
    for name, data in files.items():
        path[name] = str(workdir / f"{name}.json")
        with open(path[name], "w") as fh:
            json.dump(data, fh, sort_keys=True)
    volume = checks.heron_volume(base, lengths)
    torus = FIXTURES["torus"]()

    def validate(out):
        d = json.loads(out)
        return [] if (d["cells"], d["euler_characteristic"], d["valid"]) \
            == ([7, 21, 14], 0, True) else [f"validate {d['cells']}"]

    def spectrum_whitney(out):
        d = json.loads(out)
        return checks.spectral_split(d["kernel_dim"], d["lambda1_dstar"], 4,
                                     BASE_GAP) \
            + ([] if math.isclose(d["lambda1_dstar"], BASE_GAP, rel_tol=1e-9)
               else [f"genus2 gap {d['lambda1_dstar']}"])

    def spectrum_charpoly(out):
        d = json.loads(out)
        cols = [inputs.boundary2(torus, [int(i == j) for i in range(14)])
                for j in range(14)]
        B = np.array(cols, dtype=float).T
        eigs = np.linalg.eigvalsh(B @ B.T)
        recip = float(np.sum(1 / eigs[eigs > 1e-9]))
        bound = float(Fraction(d["reciprocal_sum_bound"]))
        return ([] if d["kernel_dim"] == 2 else ["torus kernel_dim"]) + \
            ([] if math.isclose(bound, recip, rel_tol=1e-9)
             else [f"torus reciprocal sum {bound} != {recip}"])

    def constants(out):
        d = json.loads(out)
        lo, hi = d["c_min"], d["c_max"]
        return checks.norm_constants(lo, hi) + (
            [] if math.isclose(d["volume"], volume, rel_tol=1e-9)
            else [f"volume {d['volume']} != {volume}"])

    def mass(out):
        M0 = np.array(json.loads(out)["mass_matrix"])
        return checks.mass0_volume(M0, volume)

    def cover_build(out):
        d = json.loads(out)
        got = (d["cells"], d["euler_characteristic"], d["connected"])
        return [] if got == ([55, 195, 130], -10, True) else [f"cover {got}"]

    def cover_tree(out):
        d = json.loads(out)
        gd, td = d["graph_diameter"], d["tree_diameter"]
        return [] if d["tiles"] == 130 and gd <= td <= 2 * gd \
            else [f"tree tiles {d['tiles']}, diameters {gd}, {td}"]

    def pairings(out):
        n = json.loads(out)["n_pairings"]
        return [] if n == 66 else [f"{n} pairings"]

    def report(out):
        d = json.loads(out)["report"]
        return [] if d["lambda1_dstar"] > 0 and d["m"] >= 1 \
            and math.isfinite(d["empirical_constant"]) else [f"report {d}"]

    def bounds_all(out):
        d = json.loads(out)
        n = len(d["reports"])
        return [] if n and d["csv"].count("\n") == n + 1 \
            else [f"bounds all: {n} reports"]

    def bounds_eval(out):
        verdict = json.loads(out)["verdict"]
        expect = "holds" if lhs <= 2 * diam else "fails"
        return [] if verdict == expect else [f"dirichlet_diam {verdict}"]

    def analytic(out):
        d = json.loads(out)
        ball = math.pi * (math.sinh(2 * r) - 2 * r)
        moser = d["moser_constant"]["value"]
        return ([] if math.isclose(d["ball_volume"], ball, rel_tol=1e-9)
                else [f"ball volume {d['ball_volume']} != {ball}"]) + \
            ([] if moser > 0 and math.isfinite(moser) else ["moser constant"])

    def refused(out):
        return [] if out == "" else ["non-null fill printed a result"]

    g2, geo = "genus2", ["--geometry", path["geometry"]]
    cover = ["--base", g2, "--spec", path["spec"]]
    cmds = [
        Command("complex.validate", ["complex", "validate", "torus"], 0, validate),
        Command("complex.homology.rp2", ["complex", "homology", "projective_plane"],
                0, _homology([1, 0, 0], [[], [2], []])),
        Command("spectrum.whitney", ["spectrum", g2, "--degree", "1",
                                     "--inner", "whitney"], 0, spectrum_whitney),
        Command("spectrum.charpoly", ["spectrum", "torus", "--degree", "1",
                                      "--charpoly"], 0, spectrum_charpoly),
        Command("norms.constants", ["norms", "constants", g2, "--degree", "1"]
                + geo, 0, constants),
        Command("norms.mass", ["norms", "mass", g2, "--degree", "0"] + geo,
                0, mass),
        Command("cover.build", ["cover", "build"] + cover, 0, cover_build),
        Command("cover.tree", ["cover", "tree"] + cover, 0, cover_tree),
        Command("cover.pairings", ["cover", "pairings"] + cover, 0, pairings),
        Command("scl.fill", ["scl", "fill", "--base", g2, "--cycle", path["null"]],
                0, _fill_check(base, null)),
        Command("scl.fill.l1", ["scl", "fill", "--base", g2, "--cycle",
                                path["null"], "--l1"], 0, _fill_check(base, null)),
        Command("scl.report", ["scl", "report", "--base", g2, "--cycle",
                               path["null"], "--inner", "whitney"] + geo,
                0, report),
        Command("scl.fill.non_null", ["scl", "fill", "--base", g2, "--cycle",
                                      path["non_null"]], 2, refused),
        Command("bounds.all", ["bounds", "all", "--attach", g2], 0, bounds_all),
        Command("bounds.eval", ["bounds", "eval", "--id", "dirichlet_diam",
                                "--params", path["params"]], 0, bounds_eval),
        Command("constants", ["constants", "--ball", "3", repr(r), "1.0",
                              "--moser", "3", "1", repr(L), repr(lam)],
                0, analytic),
    ]
    return cmds[:3] if smoke else cmds


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_command(root: Path, cmd: Command) -> tuple[float, int, str, str]:
    argv = [sys.executable, "-m", "hodgecover.cli"] + cmd.argv
    start = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(root), capture_output=True,
                          text=True, timeout=120)
    return (time.perf_counter() - start, proc.returncode, proc.stdout,
            proc.stderr)


def cli_pass(rec, root: Path, cmds: list[Command], state: dict
             ) -> dict[str, float]:
    """Run the command mix once as cold subprocesses."""
    seen = state.setdefault("stdout", {})
    times = {}
    for cmd in cmds:
        rec.attempted += 1
        with rec.span("cli.command", cmd.id):
            try:
                seconds, code, out, err = run_command(root, cmd)
            except subprocess.TimeoutExpired as exc:
                seconds, code, out, err = exc.timeout, None, "", "timed out"
        times[cmd.id] = seconds
        fails = [] if code == cmd.code else \
            [f"exit code {code}, expected {cmd.code}: {err.strip()[-300:]}"]
        if not fails:
            try:
                fails = cmd.check(out)
            except (ValueError, KeyError, TypeError) as exc:
                fails = [f"unreadable output: {exc!r}"]
        if seen.setdefault(cmd.id, out) != out:
            fails.append("stdout differs from the first run")
        _report(rec, cmd.id, fails)
    return times


def cli_layers(rec, root: Path, cmds: list[Command], state: dict) -> None:
    """Traced only: interpreter start, package import, and cli.main in this
    process after a warm import, each command once."""
    probes(rec, root)
    import hodgecover.cli as cli
    seen = state.setdefault("stdout", {})
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        with rec.span("cli.main", cmd.id), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = rec.call("cli.main." + cmd.argv[0], cli.main, cmd.argv)
            except SystemExit as exc:        # argparse rejected the argv
                code = exc.code
            except Exception:
                code = None
                traceback.print_exc(file=err)
        fails = [] if code == cmd.code else \
            [f"in-process exit {code}: {err.getvalue().strip()[-300:]}"]
        if seen.get(cmd.id) != out.getvalue():
            fails.append("in-process stdout differs from the subprocess")
        _report(rec, cmd.id + " (in process)", fails)
        if cmd.id == "cover.tree" and code == 0:
            state["tiles"] = json.loads(out.getvalue())["tiles"]


_IMPORT_PROBE = ("import sys, time\n"
                 "t = time.perf_counter()\n"
                 "import hodgecover.cli\n"
                 "sys.stdout.write(repr(time.perf_counter() - t) + ' '"
                 " + hodgecover.cli.__file__)\n")


def probes(rec, root: Path) -> None:
    """Spans for a bare interpreter start and for the package import."""
    env = child_env(root)
    rec.attempted += 2
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   timeout=60)
    end = time.perf_counter()
    rec.add_span("cli.interpreter", start, end)
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         check=True, timeout=60, capture_output=True,
                         text=True).stdout
    seconds, where = out.split(" ", 1)
    if Path(where).resolve().parent.parent != (root / "src").resolve():
        raise SystemExit(f"hodgecover imported from {where}, not from this "
                         "checkout's src/")
    end = time.perf_counter()
    rec.add_span("cli.import", end - float(seconds), end)
