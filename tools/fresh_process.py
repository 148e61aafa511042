"""Time btpgeo CLI commands as fresh processes, a parent tree against a change tree.

Each command runs as ``python -m btpgeo.cli ...`` in a new interpreter, with
``PYTHONPATH`` at the tree's ``src`` and the tree as working directory, one
process at a time.  The two sides alternate which runs first, from command to
command and from round to round.  A first round warms the ``.pyc`` files
(``PYTHONDONTWRITEBYTECODE`` is unset for every run) and is discarded.  One
more run per command and side, under ``-X importtime``, tells whether numpy
was loaded, numpy's cumulative import time, and the summed self time of the
btpgeo modules; it is not timed.  One more plain, untimed run per command
and side records whether the two trees wrote byte-identical stdout and
stderr and exited with the same code (``identical``).  Each row also tells
whether the change's median lies outside the parent's quartile range
(``change_median_outside_parent_quartiles``): a ratio whose median stays
inside that range is within the run-to-run spread.  The interpreter's own
start-up, ``python -c pass`` under each side's environment, is timed in the
same alternation, before the commands of each round, and written as the
``floor`` entry: the part of each command's time that no change to btpgeo
can remove.

Usage::

    python tools/fresh_process.py --parent PARENT_TREE --change CHANGE_TREE \\
        --out BENCH.json [--runs 15] [--commands classify sweep ...]

The ``fresh_process`` block of ``--out`` is replaced (the file is created if
missing, its other keys are kept), and a table is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# the north star's end-to-end commands, a suite given --torsion-a, and help
# and a usage error, which are read by argparse (whose stdout and stderr the
# identity check then compares): name -> (argv, accepted exit codes)
COMMANDS = {
    "classify": (["classify", "--input", "tests/data/a_st.json"], (0,)),
    "verify_n3": (["verify", "--example", "n3"], (0,)),
    "verify_n3_torsion_a": (["verify", "--example", "n3", "--torsion-a", "1/200"], (0,)),
    "verify_a_st": (["verify", "--example", "a_st"], (0,)),
    "verify_b_zt": (["verify", "--example", "b_zt"], (0,)),
    "verify_vaisman54": (["verify", "--example", "vaisman54"], (0,)),
    "verify_sl2c": (["verify", "--example", "sl2c"], (0,)),
    "verify_wallach": (["verify", "--example", "wallach"], (1,)),   # criterion 4 stays red
    "wallach": (["wallach"], (0,)),
    "wallach_float_seed": (["wallach", "--float", "--seed", "1"], (0,)),
    "sweep": (["sweep"], (0,)),
    "companion": (["companion", "--example", "n3", "--swap", "2"], (0,)),
    "help": (["classify", "--help"], (0,)),
    "usage_error": (["verify", "--example", "n3", "--bogus"], (3,)),
}
SIDES = ("parent", "change")
FLOOR = "floor"     # python -c pass: the interpreter's start-up alone


def _env(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(tree: str, name: str) -> float:
    """Wall milliseconds of one fresh process running the command, or
    ``python -c pass`` for ``FLOOR``."""
    argv, codes = (["-c", "pass"], (0,)) if name == FLOOR else (
        ["-m", "btpgeo.cli", *COMMANDS[name][0]], COMMANDS[name][1])
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=tree,
                          env=_env(tree), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    ms = (time.perf_counter() - t) * 1e3
    if proc.returncode not in codes:
        raise RuntimeError(f"{name} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}")
    return ms


def outputs(tree: str, name: str) -> dict:
    """The stdout and stderr bytes and the exit code of one untimed run."""
    argv, _ = COMMANDS[name]
    proc = subprocess.run([sys.executable, "-m", "btpgeo.cli", *argv], cwd=tree,
                          env=_env(tree), capture_output=True)
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit_code": proc.returncode}


def import_profile(tree: str, name: str) -> dict:
    """From one ``-X importtime`` run: whether numpy was loaded, its
    cumulative import time, and the summed self time of btpgeo's modules."""
    argv, _ = COMMANDS[name]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "btpgeo.cli", *argv],
                          cwd=tree, env=_env(tree), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    numpy_us, btpgeo_self_us = None, 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, module = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue            # the header line
        module = module.strip()
        if module == "numpy":
            numpy_us = int(cumulative_us)
        elif module == "btpgeo" or module.startswith("btpgeo."):
            btpgeo_self_us += int(self_us)
    return {"numpy_loaded": numpy_us is not None,
            "numpy_import_ms": None if numpy_us is None else round(numpy_us / 1e3, 1),
            "btpgeo_self_import_ms": round(btpgeo_self_us / 1e3, 1)}


def _quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def _summary(xs, quartiles) -> dict:
    q1, med, q3 = quartiles
    return {"median_ms": round(med, 1), "q1_ms": round(q1, 1), "q3_ms": round(q3, 1),
            "runs_ms": [round(x, 1) for x in xs]}


def measure(trees: dict, names, runs: int) -> tuple:
    """The ``floor`` entry and one row per command."""
    timed = [FLOOR, *names]
    times = {name: {side: [] for side in SIDES} for name in timed}
    for round_ in range(runs + 1):          # round 0 warms the caches and is discarded
        for k, name in enumerate(timed):
            order = SIDES if (round_ + k) % 2 == 0 else SIDES[::-1]
            for side in order:
                ms = run_once(trees[side], name)
                if round_:
                    times[name][side].append(ms)
    floor = {side: _summary(times[FLOOR][side], _quartiles(times[FLOOR][side]))
             for side in SIDES}
    out = {}
    for name in names:
        row = {"argv": COMMANDS[name][0]}
        quartiles = {side: _quartiles(times[name][side]) for side in SIDES}
        for side in SIDES:
            row[side] = {**_summary(times[name][side], quartiles[side]),
                         **import_profile(trees[side], name)}
        out_p, out_c = (outputs(trees[side], name) for side in SIDES)
        row["identical"] = {k: out_p[k] == out_c[k] for k in out_p}
        p, c = row["parent"], row["change"]
        row["change_over_parent_median"] = round(c["median_ms"] / p["median_ms"], 3)
        row["parent_quartile_spread_ms"] = round(p["q3_ms"] - p["q1_ms"], 1)
        q1, _, q3 = quartiles["parent"]
        row["change_median_outside_parent_quartiles"] = not q1 <= quartiles["change"][1] <= q3
        out[name] = row
    return floor, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tools/fresh_process.py", description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent tree")
    ap.add_argument("--change", required=True, help="root of the change tree")
    ap.add_argument("--out", required=True, help="BENCH JSON file whose fresh_process block is written")
    ap.add_argument("--runs", type=int, default=15, help="timed runs per command and side")
    ap.add_argument("--commands", nargs="+", choices=COMMANDS, default=list(COMMANDS))
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    floor, rows = measure(trees, args.commands, args.runs)
    block = {
        "method": ("python -m btpgeo.cli as a fresh process per run, PYTHONPATH at each "
                   "tree's src and the tree as working directory, one process at a time, "
                   "the side that runs first alternating by command and round, one warm-up "
                   f"round discarded, {args.runs} timed runs per side; warm .pyc, "
                   "PYTHONDONTWRITEBYTECODE unset; numpy_loaded and the import figures "
                   "come from one more -X importtime run per side, identical from one "
                   "more plain run per side (stdout and stderr bytes, exit code); "
                   "floor times python -c pass under each side's environment, first in "
                   "each round's alternation; "
                   "quartiles are statistics.quantiles(method='inclusive'); "
                   "change_median_outside_parent_quartiles compares the change's median "
                   "with the parent's unrounded q1 and q3"),
        "runs": args.runs,
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "machine": platform.machine()},
        "floor": floor,
        "commands": rows,
    }
    try:
        with open(args.out) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    doc["fresh_process"] = block
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"{'command':<20}{'parent ms':>11}{'change ms':>11}{'ratio':>7}  "
          f"{'vs parent IQR':<14}numpy (parent, change)  identical (stdout, stderr, exit code)")
    print(f"{FLOOR + ' (-c pass)':<20}{floor['parent']['median_ms']:>11.1f}"
          f"{floor['change']['median_ms']:>11.1f}")
    for name, row in rows.items():
        spread = "outside" if row["change_median_outside_parent_quartiles"] else "inside"
        print(f"{name:<20}{row['parent']['median_ms']:>11.1f}{row['change']['median_ms']:>11.1f}"
              f"{row['change_over_parent_median']:>7.3f}  {spread:<14}"
              f"{row['parent']['numpy_loaded']}, {row['change']['numpy_loaded']}  "
              f"{', '.join(str(v) for v in row['identical'].values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
