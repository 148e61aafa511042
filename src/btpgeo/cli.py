"""Command-line entry point.

``COMMANDS`` is the command table: classify, verify, wallach, sweep and
companion, each with its function, its help line and its options.
``_Parser`` reads argv from that table alone, in the grammar of the standard
library's option parser but without importing it and its translation
lookups: ``--opt value`` or ``--opt=value``, a unique prefix of an option,
``-h`` and ``--help``, the last of a repeated option winning, and a value
that starts with '-' only in the ``=`` form unless it is a negative number.
Its errors, in that parser's words and order, exit 3 after the usage line;
the usage and help are laid out as it lays them out at 80 columns.
``main`` builds one parser per call, the parser of the command that argv
starts with.  The top-level parser, which reads the command name and hands
the rest of argv on, is built only for argv that does not start with a
command (help and usage errors) and for ``<command> -- ...``, whose ``--`` it
drops.  No parser outlives the call.  ``btpgeo --help`` lists the commands
with their help lines, ``btpgeo <command> --help`` the options of one
command.

``charts``, ``goldens`` and numpy are imported inside the commands that use
them, so the exact Lie commands (``classify`` of exact data, ``sweep``,
``companion`` and ``verify`` of the Lie examples) run without numpy.

Every report is written by ``_emit`` through ``_dumps``, which gives the
bytes of ``json.dumps(report, indent=2, sort_keys=True)`` in one walk of the
report: json writes an indented document through its pure-Python encoder,
while ``_dumps`` escapes strings with json's C ``encode_basestring_ascii``
and appends each leaf with its separator, indent and key as one part.  It
takes only the types reports hold (see ``_write``).

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
from json.encoder import encode_basestring_ascii
from math import isfinite
from types import SimpleNamespace

from . import lie, linalg
from .scalars import EC, DigitLimitError, parse_rational

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


def _write(value, lead, nl, parts) -> None:
    """Append the JSON text of value to parts, after lead (the separator,
    indent and key before it); nl is the newline and indent of its level.
    Each leaf is one part, joined to its lead.  A value that is not a dict
    with str keys, a list, a tuple or exactly a ``_LEAF`` type raises TypeError."""
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple:
        leaf = _LEAF.get(kind)
        if leaf is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        parts.append(lead + leaf(value))
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
    if kwargs:
        fn = suite
        while hasattr(fn, "__wrapped__"):       # read the parameters of what a wrapper wraps
            fn = fn.__wrapped__
        takes = fn.__code__.co_varnames[:fn.__code__.co_argcount]
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
    exact = not args.float_mode
    m = charts.wallach_metric(exact=exact)
    report = charts.point_report(m)
    report["refs"] = [
        "chart metric jets at the origin",
        "Chern curvature and Ricci tensors",
        "Levi-Civita components from the Christoffel formula of the real metric",
    ]
    if args.seed is not None:
        import numpy as np
        rng = np.random.default_rng(args.seed)
        mf = m if not exact else charts.wallach_metric(exact=False)
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

_HELP = {"help": "show this help message and exit"}
# a token that starts with '-' and names no option is a value if it is a
# negative number by this pattern, or if it holds a space
_NEGATIVE_RE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _dest(flag, kwargs) -> str:
    return kwargs.get("dest") or flag[2:].replace("-", "_")


def _invocation(flag, kwargs) -> str:
    """The option as help lists it: the flag, then the name of its value."""
    return flag if "action" in kwargs else f"{flag} {_dest(flag, kwargs).upper()}"


class _Parser:
    """The parser of one command's options, or without a name the top-level
    parser, which reads the command name and hands the rest of argv on,
    dropping one '--' just before or after it.  Each token before the first
    '--' is read first as an option, a value or an unknown option (an
    ambiguous prefix fails here), then in order; a missing required option,
    then a token left unread, then ``--opt=--`` fail at the end."""

    def __init__(self, name=None):
        self.name = name
        self.prog = f"btpgeo {name}" if name else "btpgeo"
        self.table = COMMANDS[name].options if name else ()
        self.options = {"-h": _HELP, "--help": _HELP, **dict(self.table)}

    def error(self, message):
        sys.stderr.write(f"{self.format_usage()}error: {message}\n")
        raise SystemExit(EXIT_USAGE)

    def format_usage(self) -> str:
        parts = ["[-h]"] if self.name else ["[-h]", f"{{{','.join(COMMANDS)}}}", "..."]
        for flag, kw in self.table:
            inv = _invocation(flag, kw)
            parts += inv.split() if kw.get("required") else [f"[{inv}]"]
        lines = ["usage: " + self.prog]
        for part in parts:
            if len(lines[-1]) + 1 + len(part) > 78:
                lines.append(" " * (len(self.prog) + 8) + part)
            else:
                lines[-1] += " " + part
        return "\n".join(lines) + "\n"

    def format_help(self) -> str:
        rows = [("-h, --help", _HELP["help"])]
        rows += [(_invocation(flag, kw), kw.get("help", "")) for flag, kw in self.table]
        pad = min(max(len(inv) for inv, _ in rows), 20) if self.name else 20
        options = "".join(f"  {inv:<{pad}}  {text}".rstrip() + "\n" for inv, text in rows)
        if self.name:
            return f"{self.format_usage()}\noptions:\n{options}"
        listing = "".join(f"\n  {name:<11}{c.help}" for name, c in COMMANDS.items())
        return (f"{self.format_usage()}\nverification engine for parallel-Bismut-torsion "
                f"Hermitian geometry\n\npositional arguments:\n  {{{','.join(COMMANDS)}}}\n"
                f"{'':24}one of the commands below\n  {'args':<22}the command's options\n"
                f"\noptions:\n{options}\ncommands:{listing}\n\n"
                "'btpgeo <command> --help' lists the options of one.\n")

    def _match(self, token):
        """None for a value, else (flag, the value given with it or None),
        with flag "" for an unknown option."""
        if token[:1] != "-" or token == "-":
            return None
        if token in self.options:
            return token, None
        name, eq, value = token.partition("=")
        if eq and name in self.options:
            return name, value
        if token[1] == "-":
            found = [flag for flag in self.options if flag.startswith(name)]
            value = value if eq else None
        else:
            found, value = ["-h"] if token[1] == "h" else [], token[2:]
        if len(found) > 1:
            self.error(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value
        return None if _NEGATIVE_RE.match(token) or " " in token else ("", None)

    def parse_args(self, argv):
        argv = list(argv)
        cut = argv.index("--") if "--" in argv else len(argv)
        kinds = [self._match(token) for token in argv[:cut]]
        # the top-level parser reads options up to the command name
        end = cut if self.name or None not in kinds else kinds.index(None)
        values = {_dest(flag, kw): kw.get("default", False if "action" in kw else None)
                  for flag, kw in self.table}
        extras, i = [], 0
        while i < end:
            kind, i = kinds[i], i + 1
            if kind is None or not kind[0]:
                extras.append(argv[i - 1])
                continue
            flag, value = kind
            kw = self.options[flag]
            if kw is _HELP:
                while flag == "-h" and value and value[0] == "h":     # -hh is -h -h
                    value = value[1:] or None
                if value is not None:
                    self.error(f"argument -h/--help: ignored explicit argument {value!r}")
                sys.stdout.write(self.format_help())
                raise SystemExit(EXIT_OK)
            dest = _dest(flag, kw)
            if "action" in kw:
                if value is not None:
                    self.error(f"argument {flag}: ignored explicit argument {value!r}")
                values[dest] = True
                continue
            if value is None:
                if i == cut or kinds[i] is not None:
                    self.error(f"argument {flag}: expected one argument")
                value, i = argv[i], i + 1
            if "type" in kw and value != "--":
                try:
                    value = kw["type"](value)
                except ValueError:
                    self.error(f"argument {flag}: invalid {kw['type'].__name__} value: {value!r}")
            values[dest] = value
        if self.name is None:
            end += end == cut       # the name after a '--'
            if end >= len(argv):
                self.error("the following arguments are required: command")
            if argv[end] not in COMMANDS:
                self.error(f"argument command: invalid choice: {argv[end]!r} (choose from "
                           f"{', '.join(map(repr, COMMANDS))})")
            values = {"command": argv[end], "args": argv[end + 1 + (end + 1 == cut):]}
        else:
            missing = [flag for flag, kw in self.table
                       if kw.get("required") and values[_dest(flag, kw)] is None]
            if missing:
                self.error(f"the following arguments are required: {', '.join(missing)}")
            extras += argv[cut:]
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        for dest, value in values.items():
            if value == "--":       # '--opt=--', read as no value
                raise CliError(f"--{dest.replace('_', '-')} needs a value", EXIT_USAGE)
        return SimpleNamespace(**values)


def build_parser() -> _Parser:
    """The top-level parser: a command of COMMANDS, then that command's argv."""
    return _Parser()


def _command_parser(name: str) -> _Parser:
    return _Parser(name)


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
