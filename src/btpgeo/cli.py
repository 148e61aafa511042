"""Command-line entry point.

Subcommands:
  classify   classify a user-supplied algebra JSON file
  verify     run a built-in example against its golden-value suite
  wallach    emit the flag-threefold point-curvature report
  sweep      classify the two middle-type families over a parameter grid
  companion  conjugation-swap an example and compare Bismut connections

Exit codes: 0 success, 1 golden mismatch, 2 validation failure, 3 usage or
schema error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import charts, goldens, lie
from .scalars import EC

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse rational {text!r}", EXIT_USAGE) from exc


_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:/\d+)?)?\s*(?P<im>[+-]?\s*(?:\d+(?:/\d+)?)?\s*i)?\s*$")


def _parse_complex(text: str) -> EC:
    """Rational complex literals: '2', '-1/2', '1+1/2i', '-3/4i', 'i'."""
    m = _COMPLEX_RE.match(text.replace(" ", ""))
    if not m or (m.group("re") is None and m.group("im") is None):
        raise CliError(f"cannot parse complex rational {text!r}", EXIT_USAGE)
    re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
    im_part = Fraction(0)
    if m.group("im"):
        body = m.group("im").replace("i", "")
        if body in ("", "+"):
            im_part = Fraction(1)
        elif body == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(body)
    return EC(re_part, im_part)


def _example_algebra(name: str, a=Fraction(1)) -> lie.HermitianLieAlgebra:
    """Resolve 'n3', 'vaisman54', 'sl2c', 'abelian', or parameterized
    'a_st(s,t)' / 'b_zt(z,t)'."""
    name = name.strip()
    m = re.match(r"^(\w+)\((.*)\)$", name)
    if m:
        base, argtxt = m.group(1), m.group(2)
        args = [s for s in argtxt.split(",") if s.strip()]
        if base == "a_st" and len(args) == 2:
            return lie.family_a(_parse_rational(args[0]), _parse_rational(args[1]), a)
        if base == "b_zt" and len(args) == 2:
            return lie.family_b(_parse_complex(args[0]), _parse_rational(args[1]), a)
        raise CliError(f"unknown parameterized example {name!r}", EXIT_USAGE)
    plain = {
        "n3": lambda: lie.nilmanifold_n3(a),
        "sl2c": lambda: lie.sl2c(a),
        "vaisman54": lambda: lie.vaisman_nilmanifold(a),
        "abelian": lambda: lie.abelian(3),
        "a_st": lambda: lie.family_a(0, 0, a),
        "b_zt": lambda: lie.family_b(0, 0, a),
    }
    if name not in plain:
        raise CliError(f"unknown example {name!r}", EXIT_USAGE)
    return plain[name]()


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


CLASSIFY_REFS = [
    "torsion from structure constants",
    "trace 1-form / balanced test",
    "parallel-torsion residuals",
    "B tensor rank",
    "Bismut and Chern Ricci traces",
    "lower-central and derived series of the real algebra",
]


def cmd_classify(args) -> int:
    try:
        with open(args.input) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc}", EXIT_USAGE)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON: {exc}", EXIT_USAGE)
    try:
        g = lie.HermitianLieAlgebra.from_json(payload)
    except lie.SchemaError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    except lie.IntegrabilityError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    rep = lie.classify(g).to_json()
    rep["refs"] = CLASSIFY_REFS
    _emit(rep, args.out)
    return EXIT_OK


def _check_seed(args) -> None:
    # numpy's generator rejects a negative seed with a ValueError traceback
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be nonnegative, got {args.seed}", EXIT_USAGE)


def cmd_verify(args) -> int:
    _check_seed(args)
    suite = goldens.SUITES.get(args.example)
    if suite is None:
        raise CliError(f"unknown example {args.example!r}; choose from "
                       f"{sorted(goldens.SUITES)}", EXIT_USAGE)
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.torsion_a is not None:
        kwargs["a"] = _parse_rational(args.torsion_a)
    takes = inspect.signature(suite).parameters
    for name, flag in (("seed", "--seed"), ("a", "--torsion-a")):
        if name in kwargs and name not in takes:
            raise CliError(f"{flag} does not apply to --example {args.example}", EXIT_USAGE)
    checks = suite(**kwargs)
    ok = all(c.passed for c in checks)
    report = {
        "example": args.example,
        "pass": ok,
        "checks": [c.to_json() for c in checks],
        "refs": [c.ref for c in checks],
    }
    if "a" in kwargs:
        report["torsion_a"] = str(kwargs["a"])
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_wallach(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be at least 1, got {args.samples}", EXIT_USAGE)
    _check_seed(args)
    exact = not args.float_mode
    m = charts.wallach_metric(exact=exact)
    pc = charts.riemannian_curvature_at(m)
    report = pc.to_json()
    report["refs"] = [
        "chart metric jets at the origin",
        "Chern curvature and Ricci tensors",
        "Levi-Civita components under parallel torsion",
    ]
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        mf = m if not exact else charts.wallach_metric(exact=False)
        pcf = pc if not exact else charts.riemannian_curvature_at(mf)
        min_sec = float("inf")
        ric_lo, ric_hi = float("inf"), -float("inf")
        for X, Y in charts.random_planes(rng, args.samples, pcf.n):
            min_sec = min(min_sec, float(charts.sectional_numerator(pcf, X, Y).min()))
            r = charts.ricci_curvature(pcf, X)
            ric_lo, ric_hi = min(ric_lo, float(r.min())), max(ric_hi, float(r.max()))
        report["sampling"] = {"seed": args.seed, "samples": args.samples,
                              "min_sectional_numerator": min_sec,
                              "ricci_range": [ric_lo, ric_hi]}
    _emit(report, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = [_parse_rational(v) for v in args.grid.split(",")] if args.grid else \
        [Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")]
    a = _parse_rational(args.torsion_a) if args.torsion_a else Fraction(1)
    rows = []
    claims_ok = True
    for fam, mk in (("a_st", lambda p, q: lie.family_a(p, q, a)),
                    ("b_zt", lambda p, q: lie.family_b(p, q, a))):
        for p in grid:
            for q in grid:
                g = mk(p, q)
                rep = lie.classify(g)
                expect_cy = (p + q == 0) if fam == "a_st" else (p == 0 and q == 0)
                off_origin = (p, q) != (0, 0)
                ok = (rep.cyt and rep.balanced and rep.btp and rep.b_rank == 2
                      and rep.calabi_yau_type == expect_cy
                      and (not off_origin or (rep.nilpotent_steps is None
                                              and rep.solvable_steps == 3)))
                claims_ok = claims_ok and ok
                row = rep.to_json()
                row["family"] = fam
                row["params"] = [str(p), str(q)]
                row["claims_pass"] = ok
                rows.append(row)
    overlap_ok = all(lie.family_a(0, t, a).C == lie.family_b(0, t, a).C
                     and lie.family_a(0, t, a).D == lie.family_b(0, t, a).D
                     for t in grid)
    origin_is_n3 = (lie.family_a(0, 0, a).D == lie.nilmanifold_n3(a).D)
    rows_ok = claims_ok
    claims_ok = claims_ok and overlap_ok and origin_is_n3
    report = {"grid": [str(v) for v in grid], "torsion_a": str(a), "rows": rows,
              "claims": {"cyt_everywhere_and_family_claims": rows_ok,
                         "overlap_first_param_zero": overlap_ok,
                         "origin_is_nilmanifold": origin_is_n3},
              "refs": ["family predicates over the sweep grid",
                       "family overlap and origin identifications"]}
    _emit(report, args.out)
    return EXIT_OK if claims_ok else EXIT_MISMATCH


def cmd_companion(args) -> int:
    a = _parse_rational(args.torsion_a) if args.torsion_a else Fraction(1)
    g = _example_algebra(args.example, a)
    swap = set()
    if args.swap.strip():
        try:
            swap = {int(v) - 1 for v in args.swap.split(",")}
        except ValueError:
            raise CliError(f"cannot parse swap set {args.swap!r}", EXIT_USAGE)
    try:
        swapped = lie.conjugate_swap(g, swap)
        bis_equal = lie.bismut_swap_equal(g, swap)
    except lie.SwapError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    rep0 = lie.classify(g)
    rep1 = lie.classify(swapped)
    report = {
        "original": rep0.to_json(),
        "swapped": rep1.to_json(),
        "swap_set": sorted(v + 1 for v in swap),
        "bismut_equal": bis_equal,
        "swapped_structure": swapped.to_json(),
        "refs": ["conjugation swap of frame directions",
                 "Bismut connection match under relabeling"],
    }
    _emit(report, args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="btpgeo",
                description="verification engine for parallel-Bismut-torsion "
                            "Hermitian geometry")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify an algebra JSON file")
    c.add_argument("--input", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_classify)

    v = sub.add_parser("verify", help="run a built-in golden suite")
    v.add_argument("--example", required=True)
    v.add_argument("--seed", type=int)
    v.add_argument("--torsion-a", dest="torsion_a")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    w = sub.add_parser("wallach", help="point-curvature report of the flag metric")
    w.add_argument("--float", dest="float_mode", action="store_true")
    w.add_argument("--seed", type=int)
    w.add_argument("--samples", type=int, default=10000)
    w.add_argument("--out")
    w.set_defaults(fn=cmd_wallach)

    s = sub.add_parser("sweep", help="classify the parameter families over a grid")
    s.add_argument("--grid", help="comma-separated rationals")
    s.add_argument("--torsion-a", dest="torsion_a")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_sweep)

    k = sub.add_parser("companion", help="conjugation-swap an example")
    k.add_argument("--example", required=True)
    k.add_argument("--swap", default="", help="comma-separated 1-based indices")
    k.add_argument("--torsion-a", dest="torsion_a")
    k.add_argument("--out")
    k.set_defaults(fn=cmd_companion)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
