"""Compare the CLI output of two source trees, command by command.

    python tools/cli_compare.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  The
commands are the benchmark's `cli` mix for seeds 1 and 2 (its input files
written by `bench/workloads.make_commands` of this checkout, with
CHANGE_SRC's package), `spectrum` on every fixture in every degree with the
comb and the Whitney products, and `bounds all --attach` on every fixture.
Each runs in a cold subprocess with its tree on PYTHONPATH and one BLAS
thread.

Every command whose exit code or stdout differs is printed, and under it
each number that differs, with the two printed values and, for a float,
whether they agree at CHANGE_SRC's `hodgecover.cli._DIGITS` significant
digits.  The exit status is 1 on any difference, else 0.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def commands(workdir: Path) -> list[list[str]]:
    """The argv of every compared command; the bench's input files go to
    workdir."""
    import workloads
    from hodgecover.surfaces import FIXTURES
    out = []
    for seed in (1, 2):
        (workdir / str(seed)).mkdir()
        out += [cmd.argv for cmd in
                workloads.make_commands(seed, workdir / str(seed), False)]
    for name, make in FIXTURES.items():
        for q in range(make().dim + 1):
            for inner in ("comb", "whitney"):
                out.append(["spectrum", name, "--degree", str(q),
                            "--inner", inner])
    out += [["bounds", "all", "--attach", name] for name in FIXTURES]
    return out


def run(src: str, argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=src, **{v: "1" for v in BLAS})
    proc = subprocess.run([sys.executable, "-m", "hodgecover.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout


def is_float(token: str) -> bool:
    return any(c in token for c in ".eE")


def differences(a: str, b: str, digits: int) -> list[str]:
    """One line per differing number of two outputs, or one line saying that
    they differ beyond their numbers."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return ["bytes other than numbers differ"]
    out = []
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        if x == y:
            continue
        if is_float(x) or is_float(y):
            same = f"{float(x):.{digits}g}" == f"{float(y):.{digits}g}"
            out.append(f"float {x} -> {y} ("
                       f"{'agree' if same else 'differ'} at {digits} digits)")
        else:
            out.append(f"number {x} -> {y}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src")
    p.add_argument("change_src")
    args = p.parse_args(argv)
    parent, change = (str(Path(s).resolve())
                      for s in (args.parent_src, args.change_src))
    sys.path[:0] = [change, str(Path(__file__).resolve().parent.parent
                                / "bench")]
    from hodgecover.cli import _DIGITS as digits
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(Path(tmp))
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(
                lambda argv: (run(parent, argv), run(change, argv)), cmds))
    n_diff = n_float = n_agree = 0
    for argv, ((code_a, out_a), (code_b, out_b)) in zip(cmds, results):
        if (code_a, out_a) == (code_b, out_b):
            continue
        n_diff += 1
        print("hodgecover " + " ".join(argv))
        if code_a != code_b:
            print(f"  exit code {code_a} -> {code_b}")
        for line in differences(out_a, out_b, digits):
            n_float += line.startswith("float")
            n_agree += line.endswith(f"(agree at {digits} digits)")
            print("  " + line)
    print(f"{len(cmds)} commands, {n_diff} differ; {n_float} floats differ, "
          f"{n_agree} of them agree at {digits} digits")
    return int(n_diff > 0)


if __name__ == "__main__":
    sys.exit(main())
