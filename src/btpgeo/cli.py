"""Command-line entry point.

``COMMANDS`` is the command table: classify, verify, wallach, sweep and
companion, each with its function, its help line and its options.  Every
command is run with its options spelled in full, as ``--opt value`` or
``--opt=value``, and ``_read`` reads argv of that form straight from the
table.  Any other argv (help, a prefix of an option, '--', a value that
starts with '-', a bad value or a missing option) goes to the standard
library's argparse, which is built from the same table and imported only
then: its errors exit 3 after the usage line, and help and usage are laid
out as at 80 columns, whatever the terminal's width.  ``main`` builds no
parser for argv that ``_read`` takes, and the top-level parser, which reads
the command name, only for argv that does not start with a command and for
``<command> -- ...``; no parser outlives the call.  ``btpgeo --help`` lists
the commands with their help lines, ``btpgeo <command> --help`` the options
of one command.

``charts``, ``goldens`` and numpy are imported inside the commands that use
them, so the exact Lie commands (``classify`` of exact data, ``sweep``,
``companion`` and ``verify`` of the Lie examples) run without numpy.

Every report is written by ``_emit`` through ``_dumps``, which gives the
bytes of ``json.dumps(report, indent=2, sort_keys=True)`` in one walk of the
report: json writes an indented document through its pure-Python encoder,
while ``_dumps`` escapes strings with json's C ``encode_basestring_ascii``
and appends each leaf with its separator, indent and key as one part.  It
takes only the types reports hold (see ``_write``).  A chart table reaches
it as one ``scalars.JsonTable``, its shape and flat leaves, standing for
the nested lists json would write: its text is one fill of a template
cached per shape, leaf form and indent (``_table_template``), finite floats
going in through ``%r`` (``float.__repr__``) after one finiteness test and
the parts of {re, im} leaves through their ``_LEAF`` text, so a table costs
one writer call, not one per nested list.

Exit codes: 0 success, 1 golden mismatch, 2 validation failure (float
overflow in classify, or an exact result too long to write), 3 usage or
schema error (an unwritable ``--out``, or an exact literal too long to
read), 141 standard output closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from json.encoder import encode_basestring_ascii
from math import isfinite
from types import SimpleNamespace

from . import lie, linalg
from .scalars import EC, EXACT, FLOAT, DigitLimitError, JsonTable, parse_rational

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 3
EXIT_BROKEN_PIPE = 141


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except DigitLimitError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse rational {text!r}", EXIT_USAGE) from exc


# the real part ends at a sign or the end, so '2i' is imaginary, not 2 + i
_COMPLEX_RE = re.compile(r"^\s*(?P<re>[+-]?\d+(?:/\d+)?(?=[+-]|\s*$))?"
                         r"\s*(?P<im>[+-]?\s*(?:\d+(?:/\d+)?)?\s*i)?\s*$")


def _parse_complex(text: str) -> EC:
    """Rational complex literals: '2', '-1/2', '1+1/2i', '-3/4i', 'i'."""
    m = _COMPLEX_RE.match(text.replace(" ", ""))
    if not m or (m.group("re") is None and m.group("im") is None):
        raise CliError(f"cannot parse complex rational {text!r}", EXIT_USAGE)
    body = (m.group("im") or "0").replace("i", "")
    return EC(_parse_rational(m.group("re") or "0"),
              _parse_rational(body + "1" if body in ("", "+", "-") else body))


def _example_algebra(name: str, a=Fraction(1)) -> lie.HermitianLieAlgebra:
    """Resolve 'n3', 'vaisman54', 'sl2c', 'abelian', or parameterized
    'a_st(s,t)' / 'b_zt(z,t)'."""
    name = name.strip()
    m = re.match(r"^(\w+)\((.*)\)$", name)
    if m:
        base, argtxt = m.group(1), m.group(2)
        args = argtxt.split(",")
        if not all(s.strip() for s in args):
            raise CliError(f"empty parameter in example {name!r}", EXIT_USAGE)
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


def _float_text(x) -> str:
    if isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


# the text of each JSON leaf type, as json.dumps writes it
_LEAF = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
         bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _leaf(kind):
    """The text function of a leaf type; TypeError, in json's words, for
    any type that is not exactly a ``_LEAF`` type."""
    leaf = _LEAF.get(kind)
    if leaf is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return leaf


@cache
def _table_template(shape, keys, nl, mark) -> str:
    """The JSON text of nested lists of the given shape at the level of
    newline and indent nl, with the format mark (%r or %s) for each leaf or,
    when keys is a tuple, a dict of those sorted keys with a mark for each
    value.  Only the keys can hold a literal %, which is escaped."""
    leaf_nl = nl + "  " * len(shape)
    text = mark
    if keys is not None:
        inner = leaf_nl + "  "
        text = ("{" + inner + ("," + inner).join(
            encode_basestring_ascii(k).replace("%", "%%") + ": " + mark for k in keys)
            + leaf_nl + "}") if keys else "{}"
    for depth in reversed(range(len(shape))):
        inner = nl + "  " * (depth + 1)
        text = ("[" + inner + ("," + inner).join([text] * shape[depth]) + inner[:-2] + "]"
                if shape[depth] else "[]")
    return text


def _filled(shape, keys, nl, values: tuple) -> str:
    """The template of (shape, keys, nl) filled with the JSON text of each
    of values, leaves of ``_LEAF`` types: finite floats after one
    finiteness test, as ``float.__repr__`` through %r; leaves of one type
    through that type's text function."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(isfinite, values)):
        return _table_template(shape, keys, nl, "%r") % values
    if len(kinds) == 1:
        texts = tuple(map(_leaf(kinds.pop()), values))
    else:
        texts = tuple(_leaf(type(v))(v) for v in values)
    return _table_template(shape, keys, nl, "%s") % texts


def _table_text(table, nl) -> str:
    """The JSON text of a ``JsonTable`` at the level of newline and indent
    nl, in one fill of a cached template: one mark per leaf, or, when the
    leaves are dicts that share their keys, one mark per value.  Dict
    leaves that do not, or a mix of dict and other leaves, are written one
    by one, each as one mark's text."""
    flat, shape = table.flat, table.shape
    kinds = set(map(type, flat))
    if dict not in kinds:
        return _filled(shape, None, nl, flat)
    keys = tuple(sorted(flat[0])) if kinds == {dict} else ()
    # dicts of one size that all hold the keys of the first share them
    if keys and set(map(len, flat)) == {len(keys)}:
        try:
            values = tuple([d[k] for d in flat for k in keys])
        except KeyError:
            pass
        else:
            return _filled(shape, keys, nl, values)
    leaf_nl = nl + "  " * len(shape)
    texts = []
    for x in flat:
        part = []
        _write(x, "", leaf_nl, part)
        texts.append("".join(part))
    return _table_template(shape, None, nl, "%s") % tuple(texts)


def _write(value, lead, nl, parts) -> None:
    """Append the JSON text of value to parts, after lead (the separator,
    indent and key before it); nl is the newline and indent of its level.
    Each leaf, and each ``JsonTable``, is one part, joined to its lead.  A
    value that is not a dict with str keys, a list, a tuple, a ``JsonTable``
    or exactly a ``_LEAF`` type raises TypeError."""
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple:
        parts.append(lead + (_table_text(value, nl) if kind is JsonTable else _leaf(kind)(value)))
        return
    if not value:
        parts.append(lead + ("{}" if kind is dict else "[]"))
        return
    inner = nl + "  "
    sep = "," + inner
    append = parts.append
    if kind is dict:
        lead += "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            key = encode_basestring_ascii(key) + ": "
            leaf = _LEAF.get(type(item))
            if leaf is None:
                _write(item, lead + key, inner, parts)
            else:
                append(lead + key + leaf(item))
            lead = sep
        append(nl + "}")
    else:
        lead += "[" + inner
        for item in value:
            leaf = _LEAF.get(type(item))
            if leaf is None:
                _write(item, lead, inner, parts)
            else:
                append(lead + leaf(item))
            lead = sep
        append(nl + "]")


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, in one
    walk that joins each leaf to its separator, indent and key, where json's
    pure-Python encoder yields them as separate parts."""
    parts = []
    _write(payload, "", "\n", parts)
    return "".join(parts)


def _emit(payload, out_path):
    text = _dumps(payload)
    if not out_path:
        print(text, flush=True)     # a closed stdout raises here, not at exit
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc}", EXIT_USAGE)


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
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past the digit bound, or nesting past
        # the decoder's recursion bound
        raise CliError(f"invalid JSON: {exc}", EXIT_USAGE)
    try:
        rep = lie.classify(lie.HermitianLieAlgebra.from_json(payload)).to_json()
    except lie.SchemaError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    except lie.IntegrabilityError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    except (linalg.NumericError, OverflowError) as exc:
        # float data whose products, or the modulus of one constant, leave the
        # float range
        raise CliError(f"float overflow in classify: {exc}", EXIT_VALIDATION)
    rep["refs"] = CLASSIFY_REFS
    _emit(rep, args.out)
    return EXIT_OK


def _check_seed(args) -> None:
    # numpy's generator rejects a negative seed with a ValueError traceback
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be nonnegative, got {args.seed}", EXIT_USAGE)


def cmd_verify(args) -> int:
    from . import goldens
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
    takes = goldens.SUITE_PARAMETERS.get(args.example, ())
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
    from . import charts
    m = charts.wallach_metric(kind=FLOAT if args.float_mode else EXACT)
    report = charts.point_report(m)
    report["refs"] = [
        "chart metric jets at the origin",
        "Chern curvature and Ricci tensors",
        "Levi-Civita components from the Christoffel formula of the real metric",
    ]
    if args.seed is not None:
        import numpy as np
        rng = np.random.default_rng(args.seed)
        mf = m if m.kind is FLOAT else charts.wallach_metric(kind=FLOAT)
        min_sec = float("inf")
        ric_lo, ric_hi = float("inf"), -float("inf")
        for X, Y in charts.random_planes(rng, args.samples, mf.n):
            min_sec = min(min_sec, float(charts.sectional_numerator(mf, X, Y).min()))
            r = charts.ricci_curvature(mf, X)
            ric_lo, ric_hi = min(ric_lo, float(r.min())), max(ric_hi, float(r.max()))
        report["sampling"] = {"seed": args.seed, "samples": args.samples,
                              "min_sectional_numerator": min_sec,
                              "ricci_range": [ric_lo, ric_hi]}
    _emit(report, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = ([Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")]
            if args.grid is None else [_parse_rational(v) for v in args.grid.split(",")])
    a = Fraction(1) if args.torsion_a is None else _parse_rational(args.torsion_a)
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
    pairs = ((lie.family_a(0, t, a), lie.family_b(0, t, a)) for t in grid)
    overlap_ok = all(ga.C == gb.C and ga.D == gb.D for ga, gb in pairs)
    g0, n3 = lie.family_a(0, 0, a), lie.nilmanifold_n3(a)
    origin_is_n3 = g0.C == n3.C and g0.D == n3.D
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
    a = Fraction(1) if args.torsion_a is None else _parse_rational(args.torsion_a)
    g = _example_algebra(args.example, a)
    swap = set()
    if args.swap.strip():
        try:
            swap = {int(v) - 1 for v in args.swap.split(",")}
        except ValueError:
            raise CliError(f"cannot parse swap set {args.swap!r}", EXIT_USAGE)
    try:
        swapped = lie.conjugate_swap(g, swap)
        bis_equal = lie.bismut_swap_equal(g, swapped, swap)
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


_OUT, _SEED, _TORSION_A = ("--out", {}), ("--seed", {"type": int}), ("--torsion-a", {})


# fn takes the parsed namespace to an exit code; options are (flag, keywords)
# pairs, in help order, whose keywords are those of the standard library's
# option parser: required, type, default, dest, action="store_true" and help
Command = namedtuple("Command", "fn help options")


COMMANDS = {
    "classify": Command(cmd_classify, "classify an algebra JSON file",
                        (("--input", {"required": True}), _OUT)),
    "verify": Command(cmd_verify, "run a built-in golden suite",
                      (("--example", {"required": True}), _SEED, _TORSION_A, _OUT)),
    "wallach": Command(cmd_wallach, "point-curvature report of the flag metric",
                       (("--float", {"dest": "float_mode", "action": "store_true"}), _SEED,
                        ("--samples", {"type": int, "default": 10000}), _OUT)),
    "sweep": Command(cmd_sweep, "classify the parameter families over a grid",
                     (("--grid", {"help": "comma-separated rationals"}), _TORSION_A, _OUT)),
    "companion": Command(cmd_companion, "conjugation-swap an example",
                         (("--example", {"required": True}),
                          ("--swap", {"default": "", "help": "comma-separated 1-based indices"}),
                          _TORSION_A, _OUT)),
}


def _dest(flag, kwargs) -> str:
    return kwargs.get("dest") or flag[2:].replace("-", "_")


def _read(name, argv):
    """argv's options read straight from the table of the command name, when
    every token is one of its options spelled in full: ``--opt value`` with a
    value that does not start with '-', ``--opt=value`` with a value other
    than '--', or a store_true flag with no '='; each value converts by its
    type and every required option is given.  The last of a repeated option
    wins.  None for any other argv."""
    table = COMMANDS[name].options
    options = dict(table)
    values = {_dest(flag, kw): kw.get("default", False if "action" in kw else None)
              for flag, kw in table}
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        kw = options.get(flag)
        if kw is None or ("action" in kw and eq) or value == "--":
            return None
        if "action" in kw:
            value = True
        elif not eq:
            value = next(tokens, "-")
            if value[:1] == "-":
                return None
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        values[_dest(flag, kw)] = value
    if any(kw.get("required") and values[_dest(flag, kw)] is None for flag, kw in table):
        return None
    return SimpleNamespace(**values)


def build_parser(name=None):
    """argparse's parser: without a name the top-level parser, which reads a
    command of COMMANDS and hands the rest of argv on, dropping a '--' just
    before or after the command; with one, the parser of that command's
    options.  Its errors exit 3 after the usage line; help and usage are
    laid out at width 78, argparse's layout at 80 columns, whatever the
    terminal's width."""
    import argparse
    layout = partial(argparse.RawDescriptionHelpFormatter, width=78)
    if name:
        parser = argparse.ArgumentParser(prog=f"btpgeo {name}", formatter_class=layout)
        for flag, kwargs in COMMANDS[name].options:
            parser.add_argument(flag, **kwargs)
    else:
        listing = "".join(f"\n  {cmd:<11}{c.help}" for cmd, c in COMMANDS.items())
        parser = argparse.ArgumentParser(
            prog="btpgeo", formatter_class=layout,
            description="verification engine for parallel-Bismut-torsion Hermitian geometry",
            epilog=f"commands:{listing}\n\n'btpgeo <command> --help' lists the options of one.")
        parser.add_argument("command", choices=COMMANDS, help="one of the commands below")
        # required=False: a missing command alone is the usage error, as with subparsers
        parser.add_argument("args", nargs=argparse.REMAINDER,
                            help="the command's options").required = False

    def error(message):
        parser.exit(EXIT_USAGE, f"{parser.format_usage()}error: {message}\n")
    parser.error = error
    return parser


def _command_parser(name: str):
    """The parser of one command: ``parse_args(argv)`` is ``_read``'s
    namespace, or argparse's for argv that ``_read`` does not take, where
    ``--opt=--``, which argparse reads as an empty list, is an error."""
    def parse_args(argv):
        args = _read(name, argv)
        if args is None:
            args = build_parser(name).parse_args(argv)
            for dest, value in vars(args).items():
                if value == []:
                    raise CliError(f"--{dest.replace('_', '-')} needs a value", EXIT_USAGE)
        return args
    return SimpleNamespace(parse_args=parse_args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv or argv[0] not in COMMANDS or argv[1:2] == ["--"]:
            # help, usage errors, and the '--' after a command, which the
            # top-level parser drops
            top = build_parser().parse_args(argv)
            argv = [top.command, *top.args]
        args = _command_parser(argv[0]).parse_args(argv[1:])
        return COMMANDS[argv[0]].fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DigitLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # the reader has gone; quiet the final flush (the Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
