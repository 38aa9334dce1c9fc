"""Benchmark of hodgecover: the paper's cover tower, wide covers, and the CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload tower --seed 1 --seconds 20 --trace 0

`--workload all` runs the three workloads one after another.  Each run
imports the package from this checkout's src/ (and refuses any other copy),
generates its inputs from the seed, repeats its pass for about `--seconds`
seconds, checks every output, and prints its metrics.  The last line of
stdout is one JSON object: `correct`, `attempted`, `failed`, and the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("tower", "wide_cover", "cli")
BLAS_THREADS = "1"
SETUP_SAMPLES = 3          # this process plus two fresh ones
MIN_PASSES = {"tower": 1, "wide_cover": 1, "cli": 2}
TAIL_BEYOND = 10           # samples the tail percentile leaves above it

LAYER_CALLS = [
    "homology.homology_table",
    "spectra.lambda1_split", "spectra.charpoly_gap_bound", "spectra.up_pencil",
    "fillings.edge_cycle", "fillings.rationally_null",
    "fillings.least_norm_comb", "fillings.least_norm_whitney",
    "fillings.l1_filling",
    "covers.build_cover", "covers.schreier_graph", "covers.shortest_path_tree",
    "covers.graph_diameter", "covers.tree_diameter",
    "covers.fundamental_domain",
    "complexes.boundary_matrix",
    "whitney.mass_matrix", "whitney.norm_constants",
    "cli.interpreter", "cli.import", "cli.main",
    "cli.main.complex", "cli.main.cover", "cli.main.spectrum",
    "cli.main.norms", "cli.main.scl", "cli.main.bounds", "cli.main.constants",
]


def pin_environment() -> None:
    """One BLAS thread for this process and every child, set before numpy
    loads, and this checkout's package first on the import path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))


def guard_package() -> None:
    import hodgecover
    where = Path(hodgecover.__file__).resolve()
    if where.parent.parent != SRC.resolve():
        raise SystemExit(f"error: hodgecover resolves to {where}, "
                         f"not to this checkout's {SRC}")


def setup(workload: str, seed: int, workdir: Path, smoke: bool):
    """Import the package and generate the inputs; returns (inputs, seconds)."""
    start = time.perf_counter()
    import workloads
    if workload == "cli":
        data = workloads.make_commands(seed, workdir, smoke)
    else:
        data = workloads.make_levels(workload, seed, smoke)
    return data, time.perf_counter() - start


def fresh_setups(args, n: int) -> list[float]:
    """Set-up seconds of n fresh interpreters on the same seed."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"]
            + (["--smoke"] if args.smoke else []),
            capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its
    percentile; the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n


def measure(args, data):
    """Repeat the workload's pass for about args.seconds.

    Untraced, every pass is untraced.  Traced, passes alternate untraced and
    traced, so both walls come from the same stretch of time."""
    import workloads
    from spans import Recorder

    plain, traced = Recorder(False), Recorder(True)
    state: dict = {}
    walls: dict[bool, list[float]] = {False: [], True: []}
    units: dict[str, list[float]] = {}
    start = time.perf_counter()
    k = 0
    while True:
        on = bool(args.trace) and k % 2 == 1
        rec = traced if on else plain
        with rec.span("pass"):
            if args.workload == "cli":
                times = workloads.cli_pass(rec, ROOT, data, state)
            else:
                times = workloads.level_pass(args.workload, rec, data, state)
        walls[on].append(sum(times.values()))
        if not on:
            for unit, seconds in times.items():
                units.setdefault(unit, []).append(seconds)
        elif args.workload == "cli":
            workloads.cli_layers(rec, ROOT, data, state)
        else:
            workloads.probes(rec, ROOT)
        k += 1
        done = k >= MIN_PASSES[args.workload] \
            and (walls[True] or not args.trace)
        mean = (time.perf_counter() - start) / k
        if done and time.perf_counter() - start + mean > args.seconds:
            break
    return plain, traced, walls, units, state


def environment() -> dict:
    import numpy as np
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10
                                ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit or "none (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(args, walls, units) -> dict:
    """Every end-to-end metric but setup_s.  Read before the fresh set-up
    interpreters run, so that on cli the peak RSS is a command's.

    A command is one CLI subprocess on cli, and one whole pass (all levels)
    on tower and wide_cover, as one `hodgecover tower` run would be."""
    if args.workload == "cli":
        lat = [t for times in units.values() for t in times]
        levels: dict[str, list[float]] = {}
        for cmd, times in units.items():       # one level per subcommand
            group = levels.setdefault(cmd.split(".")[0], [0.0] * len(times))
            for i, t in enumerate(times):
                group[i] += t
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        lat, levels = walls[False], units
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    value, pct = tail(lat)
    print(f"# cmd_tail_s is p{pct:.1f} of n={len(lat)} "
          f"{'commands' if args.workload == 'cli' else 'passes'}")
    return {
        "wall_s": (statistics.median(walls[False]), "s"),
        "level_max_s": (max(statistics.median(v) for v in levels.values()),
                        "s"),
        "cmd_p50_s": (statistics.median(lat), "s"),
        "cmd_tail_s": (value, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(traced, walls, state) -> dict:
    n = len(walls[True])
    busy = traced.busy()
    out = {}
    for name in LAYER_CALLS:
        seconds, calls = busy.get(name, (0.0, 0))
        out[f"{name}_s"] = (seconds / n, "s")
        out[f"{name}.calls"] = (calls / n, "count")
    attempts = state.get("fill_attempts", 0)
    out["fillings.certified_ratio"] = (
        state.get("fill_certified", 0) / attempts if attempts else 0.0, "ratio")
    out["fillings.m_max_bits"] = (state.get("m_bits", 0), "bits")
    out["covers.tiles"] = (state.get("tiles", 0), "count")
    out["trace.overhead_s"] = (statistics.median(walls[True])
                               - statistics.median(walls[False]), "s")
    return out


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"## workload {name}", flush=True)
        worst = max(worst, subprocess.run(argv, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest level or a few commands, for a quick check")
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up seconds and exit")
    args = p.parse_args(argv)
    if not (SRC / "hodgecover" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'hodgecover'}; run from the root "
              "of a hodgecover checkout", file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    compileall.compile_dir(str(SRC), quiet=1)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        data, setup_s = setup(args.workload, args.seed, workdir, args.smoke)
        guard_package()
        if args.setup_only:
            print(setup_s)
            return 0
        plain, traced, walls, units, state = measure(args, data)
        setups = [setup_s]
        if args.trace:
            metrics = per_layer(traced, walls, state)
        else:
            metrics = end_to_end(args, walls, units)
            setups += fresh_setups(args, SETUP_SAMPLES - 1)
            metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    attempted = plain.attempted + traced.attempted
    failed = min(plain.failed + traced.failed, attempted)
    for key, value in environment().items():
        print(f"# env {key}: {value}")
    print(f"# workload {args.workload} seed {args.seed}: "
          f"{len(walls[False])} untraced and {len(walls[True])} traced passes")
    print(f"# setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / max(attempted, 1):.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
