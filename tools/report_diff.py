"""List every difference in exit code, stdout or stderr between two btpgeo trees.

The commands are the benchmark's own argv lists, read (never changed) from
``bench/btpbench/workloads.make_jobs`` of the change tree for every workload
(``lie_exact``, ``lie_float``, ``verify_suites``, ``float_sampling``), with
the classify inputs written once to a temporary directory that both trees
read.  Added to them: ``classify --input`` of every JSON file in the change
tree's ``tests/data``, and a few ``sweep`` and ``companion`` commands.

Each tree runs every command in one interpreter of its own, with its ``src``
first on ``sys.path``: ``btpgeo.cli.main(argv)`` is called in process with
stdout and stderr captured, as the benchmark does.  A command whose exit
code, stdout or stderr differs between the trees is listed.

Usage::

    python tools/report_diff.py --parent PARENT_TREE --change CHANGE_TREE \\
        [--seed 1] [--out BENCH.json]

Exits 1 if any command differs.  With ``--out`` the ``report_diff`` block
of that file is replaced (the file is created if missing, its other keys
are kept).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

EXTRA = {
    "sweep": [["sweep"], ["sweep", "--torsion-a", "1/1000000"],
              ["sweep", "--grid=-37/91,5/13,999983/1000003", "--torsion-a", "1000000"]],
    "companion": [["companion", "--example", "n3", "--swap", "2"],
                  ["companion", "--example", "vaisman54", "--swap", "1"],
                  ["companion", "--example", "a_st", "--swap", "1,2"]],
}

# runs in a fresh interpreter per tree: argv lists on stdin, one
# [exit code, stdout, stderr] per command on stdout
RUNNER = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from btpgeo import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        rc, err = "raised", io.StringIO(f"{type(exc).__name__}: {exc}")
    results.append([rc, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def commands(change: str, seed: int, workdir: str):
    """(group, argv) for every command, in a fixed order."""
    sys.path[:0] = [os.path.join(change, "src"), os.path.join(change, "bench")]
    from btpbench import workloads
    out = []
    for workload in workloads.WORKLOADS:
        jobs = workloads.make_jobs(workload, seed, os.path.join(workdir, workload))
        out += [(workload, list(job.argv)) for job in jobs]
    for path in sorted(glob.glob(os.path.join(change, "tests", "data", "*.json"))):
        out.append(("tests/data", ["classify", "--input", path]))
    for group, argvs in EXTRA.items():
        out += [(group, argv) for argv in argvs]
    return out


def run_tree(tree: str, argvs) -> list:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", RUNNER, os.path.join(tree, "src")],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          cwd=tree, env=env, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    parent, change = (os.path.abspath(p) for p in (args.parent, args.change))
    with tempfile.TemporaryDirectory() as workdir:
        cmds = commands(change, args.seed, workdir)
        argvs = [argv for _, argv in cmds]
        results = {side: run_tree(tree, argvs)
                   for side, tree in (("parent", parent), ("change", change))}
    groups, differences = {}, []
    for k, (group, argv) in enumerate(cmds):
        a, b = results["parent"][k], results["change"][k]
        groups[group] = groups.get(group, 0) + 1
        fields = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
        if fields:
            argv = [os.path.relpath(t, change) if os.path.isabs(t) else t for t in argv]
            differences.append({"group": group, "argv": argv, "differs_in": fields})
    block = {"method": "btpgeo.cli.main(argv) in process, one interpreter per tree; exit code, "
                       "stdout and stderr compared", "seed": args.seed,
             "commands_per_group": groups, "commands": len(cmds), "differences": differences}
    for d in differences:
        print(f"DIFFERS {d['group']}: {' '.join(d['argv'])} ({', '.join(d['differs_in'])})")
    print(f"{len(cmds)} commands, {len(differences)} differing: "
          + ", ".join(f"{g} {n}" for g, n in groups.items()))
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["report_diff"] = block
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
