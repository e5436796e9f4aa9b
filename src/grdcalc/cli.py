"""Command-line front end.

Subcommands mirror the library modules: ``invariants``, ``schubert``,
``picard``, ``families``, ``pushforward``, ``slope`` and the cross-check
driver ``verify``.  Output is machine readable (JSON by default, also tsv and
an aligned pretty format), deterministic, and never contains a float:
rationals are serialized as ``p`` or ``p/q`` strings in lowest terms.

Exit codes: 0 success, 1 usage or precondition violation, 2 verification
failure (a dual-route check or golden comparison that did not agree) or an
internal arithmetic fault (a division by zero inside the program).

Imports: each subcommand imports the library modules it uses inside its
handler, so ``import grdcalc.cli`` loads only ``errors`` and ``exact``.  A
process answers one query, and where no bytecode cache is written every
module it imports is compiled from source at each start; an ``invariants``
query or a usage error then does not pay for ``verify`` or the family
assembly, and as the value classes are plain ``__slots__`` classes, no query
imports ``inspect``.  ``--help`` shows this docstring up to this paragraph.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from .errors import ConsistencyError, PreconditionError
from .exact import format_rational

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

GOLDEN_NAME = "verify_golden.json"

# The largest --g of any subcommand, --d of `schubert` and --g of the family
# assembly (`pushforward --method assembled|both`): the count builds g! and a
# class space g + 2 symbols, the closed Schubert form grows about as d^4
# (0.2-0.4 s at d = 300, r = d - 1, k = 1), and the assembly's 2g - 1 dense
# rows of g + 2 entries as g^2 (about 85 MB at g = 2000, 0.7 GB at g = 6400).
G_LIMIT = 20000
SCHUBERT_D_LIMIT = 300
ASSEMBLY_G_LIMIT = 2000

FORMATS = ("json", "tsv", "pretty")
# The keys a --config file may hold, each the dest of the flag whose default
# it supplies, applied in this order where the subcommand has that flag.
CONFIG_KEYS = ("format", "g_max", "m_max")


class CliError(Exception):
    """Usage-level failure carrying the exit code 1 message."""


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this tool reserves 2
    for verification failures, so usage problems are rerouted to exit 1.

    Prefix matching is off in every parser and subparser (argparse builds the
    subparsers with this class): an option is read only by its full name, so
    `--h` is not `--help` and `--form` is not `--format`.

    A parser with subcommands (the top level, `picard`) takes no option but
    -h: an option given before the subcommand is refused by its name, not
    read as the value of the token after it.  ``leaves`` are the parsers
    below it that take options; the message names those that have this one."""

    leaves = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        flag = args[0].partition("=")[0] if self.leaves and args else ""
        if flag[:1] == "-" and flag.strip("-") and flag not in self._option_string_actions:
            paths = [leaf.prog.partition(" ")[2] for leaf in self.leaves
                     if flag in leaf._option_string_actions]
            if len(paths) == 1:
                raise CliError(f"{flag} is an option of `{paths[0]}`: "
                               f"give it after `{paths[0].rpartition(' ')[2]}`")
            if paths:
                raise CliError(f"{flag} is an option of `{'`, `'.join(paths)}`: "
                               "give it after the subcommand")
            raise CliError(f"unrecognized arguments: {flag}")
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise CliError(message)


def _emit(payload, fmt: str) -> None:
    """Print a payload in one of FORMATS; a string (the verify table) as it is."""
    if isinstance(payload, str):
        lines = [payload]
    elif fmt == "json":
        lines = [json.dumps(payload, sort_keys=True, indent=2)]
    elif fmt == "tsv":
        lines = [f"{key}\t{value}" for key, value in _flatten(payload)]
    else:
        flat = _flatten(payload)
        width = max((len(k) for k, _ in flat), default=0)
        lines = [f"{key.ljust(width)}  {value}" for key, value in flat]
    for line in lines:
        print(line)


def _flatten(payload, prefix: str = "") -> list[tuple[str, str]]:
    if isinstance(payload, dict | list):
        items = sorted(payload.items()) if isinstance(payload, dict) else enumerate(payload)
        return [pair for key, item in items
                for pair in _flatten(item, f"{prefix}.{key}" if prefix else str(key))]
    return [(prefix, json.dumps(payload) if isinstance(payload, bool) else str(payload))]


def _apply_config(args, path: str) -> None:
    """Read key=value lines (blank lines and # comments ignored) and fill each
    flag that the subcommand has and the command line left unset."""
    config: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}, "
                           f"expected one of {', '.join(CONFIG_KEYS)}")
        config[key] = value
    for key in CONFIG_KEYS:
        if key not in config or key not in vars(args) or getattr(args, key) is not None:
            continue
        value = config[key]
        if key == "format":
            if value not in FORMATS:
                raise CliError(f"config format {value!r} invalid")
        else:
            try:
                value = int(value)
            except ValueError:
                raise CliError(f"config {key} {value!r} is not an integer")
        setattr(args, key, value)


def _add_triple(parser: argparse.ArgumentParser, required: bool = True) -> None:
    """The --g --r --d of a triple.  Added where it is called, not as a parent
    parser, so that `families` still names its positional first when
    arguments are missing."""
    for flag in ("--g", "--r", "--d"):
        parser.add_argument(flag, type=int, required=required)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=None,
                        help="output format (default json)")
    common.add_argument("--config", default=None,
                        help="optional key=value config file supplying defaults")

    parser = _Parser(prog="grdcalc", description=__doc__.partition("\nImports:")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common],
                       help="rho, Castelnuovo count and xi for a triple")
    _add_triple(p)

    p = sub.add_parser("schubert", parents=[common],
                       help="integral of zeta^k . sigma_b on the Grassmannian")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", required=True, help="comma-separated increasing index, e.g. 0,0")
    p.add_argument("--method", choices=["closed", "pieri", "both"], default="closed")

    # `picard` only groups its maps: every option goes after `pullback`.
    group = sub.add_parser("picard", help="pull-back maps on divisor classes")
    p = group.add_subparsers(dest="picard_command", required=True).add_parser(
        "pullback", parents=[common])
    group.leaves = [p]
    p.add_argument("map", choices=["i", "j", "k"],
                   help="i: elliptic-tail family, j: genus-2-tail family, k: moving marked point")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--h", type=int, default=None, help="component genus (map k only)")
    p.add_argument("--class", dest="class_text", required=True,
                   help='divisor class as "symbol:coeff,symbol:coeff"')

    p = sub.add_parser("families", parents=[common],
                       help="push-forwards of alpha, beta, gamma over a special family")
    p.add_argument("family", choices=["m21", "marked", "mogb"])
    _add_triple(p)
    p.add_argument("--h", type=int, default=None, help="component genus (marked family only)")

    p = sub.add_parser("pushforward", parents=[common],
                       help="push-forward of one class on the pointed moduli space")
    _add_triple(p)
    p.add_argument("--class", dest="class_name", required=True,
                   choices=["alpha", "beta", "gamma"])
    p.add_argument("--method", choices=["closed", "assembled", "both"], default="closed")

    p = sub.add_parser("slope", parents=[common],
                       help="slope report for the quadric divisor")
    _add_triple(p, required=False)
    p.add_argument("--m", type=int, help="member of the quadratic family")
    p.add_argument("--sweep", type=int, help="report the family for m = 1..SWEEP")

    p = sub.add_parser("verify", parents=[common], help="run the full cross-check battery")
    p.add_argument("--g-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--golden", default=None,
                   help="directory for golden-file regression (writes if absent, else compares)")
    parser.leaves = [leaf for p in sub.choices.values() for leaf in p.leaves or [p]]
    return parser


def _compare_routes(payload: dict, method: str, closed_key: str,
                    other_key: str) -> tuple[dict, int]:
    """Under ``--method both``, record whether the two routes agree; they must, or exit 2."""
    if method != "both":
        return payload, EXIT_OK
    agree = payload[closed_key] == payload[other_key]
    payload["methods_agree"] = agree
    return payload, EXIT_OK if agree else EXIT_VERIFY


def _cmd_invariants(args) -> tuple[dict, int]:
    from . import invariants
    g, r, d = args.g, args.r, args.d
    return {
        "rho": format_rational(invariants.rho(g, r, d)),
        "N": format_rational(invariants.castelnuovo_count(g, r, d)),
        "xi": format_rational(invariants.xi(g, r, d)),
    }, EXIT_OK


def _cmd_schubert(args) -> tuple[dict, int]:
    from . import schubert
    if args.d > SCHUBERT_D_LIMIT:
        raise CliError(f"--d must be at most {SCHUBERT_D_LIMIT}")
    shape = schubert.GrassShape(args.r, args.d)
    try:
        b = tuple(int(x) for x in args.b.split(","))
    except ValueError:
        raise CliError(f"bad index {args.b!r}, expected comma-separated integers")
    payload: dict = {"r": args.r, "d": args.d, "k": args.k, "b": list(b)}
    if args.method != "pieri":
        payload["value"] = format_rational(schubert.special_power_integral(shape, args.k, b))
    if args.method != "closed":
        payload["value_pieri" if args.method == "both" else "value"] = format_rational(
            schubert.zeta_power_integral_pieri(shape, args.k, b))
    return _compare_routes(payload, args.method, "value", "value_pieri")


def _cmd_picard(args) -> tuple[dict, int]:
    from . import picard
    if args.map != "k" and args.h is not None:
        raise CliError(f"pullback {args.map} takes no --h (component genus of map k only)")
    g = args.g
    source = picard.PicSpace.mg1(g)
    D = picard.parse_class(source, args.class_text)
    if args.map == "i":
        return picard.pullback_i(g, D).payload(), EXIT_OK
    if args.map == "j":
        return picard.pullback_j(g, D).payload(), EXIT_OK
    if args.h is None:
        raise CliError("pullback k needs --h")
    return {"degree": format_rational(picard.pullback_k(g, args.h, D))}, EXIT_OK


def _cmd_families(args) -> tuple[dict, int]:
    from .families import ClassLabel, push_m21, push_marked, push_mogb
    g, r, d = args.g, args.r, args.d
    if args.family != "marked" and args.h is not None:
        raise CliError(f"the {args.family} family takes no --h "
                       "(component genus of the marked family only)")
    if args.family == "mogb":
        return {label.value: push_mogb(g, r, d, label).payload()
                for label in ClassLabel}, EXIT_OK
    if args.family == "m21":
        return {label.value: push_m21(g, r, d, label).payload()
                for label in ClassLabel}, EXIT_OK
    if args.h is None:
        raise CliError("the marked family needs --h")
    return {label.value: format_rational(push_marked(g, r, d, args.h, label))
            for label in ClassLabel}, EXIT_OK


def _cmd_pushforward(args) -> tuple[dict, int]:
    from . import pushforward
    from .families import ClassLabel
    g, r, d = args.g, args.r, args.d
    if args.method != "closed" and g > ASSEMBLY_G_LIMIT:
        raise CliError(f"--method {args.method} needs --g at most {ASSEMBLY_G_LIMIT}; "
                       "use --method closed")
    label = ClassLabel(args.class_name)
    payload: dict = {"g": g, "r": r, "d": d, "class": label.value, "method": args.method}
    if args.method != "assembled":
        payload["coefficients"] = pushforward.closed_form(g, r, d, label).payload()
    if args.method != "closed":
        assembled = pushforward.solve_from_families(g, r, d, label).as_divisor_class(g)
        key = "coefficients_assembled" if args.method == "both" else "coefficients"
        payload[key] = assembled.payload()
    return _compare_routes(payload, args.method, "coefficients", "coefficients_assembled")


def _cmd_slope(args) -> tuple[dict, int]:
    from . import slope
    triple = (args.g, args.r, args.d)
    # Any part of a triple counts as a choice, so a stray --g beside --m is refused.
    chosen = [args.m is not None, args.sweep is not None,
              any(v is not None for v in triple)]
    if sum(chosen) != 1 or (chosen[2] and None in triple):
        raise CliError("give exactly one of --m, --sweep, or the full --g --r --d triple")
    if args.m is not None:
        return slope.m_family_report(args.m).payload(), EXIT_OK
    if args.sweep is not None:
        if args.sweep < 1:
            raise CliError("--sweep must be at least 1")
        if args.sweep > slope.M_FAMILY_LIMIT:
            raise CliError(f"--sweep must be at most {slope.M_FAMILY_LIMIT}")
        reports = slope.m_family_reports(args.sweep)
        identity = slope.m_family_gap_identity(reports) and slope.symbolic_gap_identity()
        return ({"reports": [rep.payload() for rep in reports], "gap_identity": identity},
                EXIT_OK if identity else EXIT_VERIFY)
    return slope.slope_report(args.g, args.r, args.d).payload(), EXIT_OK


def _golden_compare(payload: dict, directory: str) -> tuple[dict, int]:
    path = Path(directory) / GOLDEN_NAME
    rendered = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    try:
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(rendered)
            status = "written"
        else:
            status = "match" if path.read_text(encoding="utf-8") == rendered else "mismatch"
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot use golden file {path}: {exc}") from exc
    code = EXIT_VERIFY if status == "mismatch" else EXIT_OK
    return {"golden": str(path), "golden_status": status}, code


def _cmd_verify(args) -> tuple[dict | str, int]:
    from . import verify
    g_max = verify.DEFAULT_G_MAX if args.g_max is None else args.g_max
    m_max = verify.DEFAULT_M_MAX if args.m_max is None else args.m_max
    results = verify.run_checks(g_max, m_max)
    failures = sum(not rs.passed for rs in results)
    golden: dict = {}
    golden_code = EXIT_OK
    if args.golden is not None:
        golden, golden_code = _golden_compare(verify.golden_payload(g_max, m_max), args.golden)
    code = max(EXIT_OK if failures == 0 else EXIT_VERIFY, golden_code)
    if args.format is not None:
        return ({"checks": [rs.payload() for rs in results],
                 "passed": len(results) - failures, "total": len(results), **golden}, code)
    width = max(len(rs.name) for rs in results)
    lines = [f"{'PASS' if rs.passed else 'FAIL'}  {rs.name.ljust(width)}  {rs.detail}"
             for rs in results]
    if golden:
        lines.append(f"{'PASS' if golden_code == EXIT_OK else 'FAIL'}  golden{' ' * (width - 6)}"
                     f"  {golden['golden_status']}: {golden['golden']}")
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    return "\n".join(lines), code


_HANDLERS = {"invariants": _cmd_invariants, "schubert": _cmd_schubert, "picard": _cmd_picard,
             "families": _cmd_families, "pushforward": _cmd_pushforward, "slope": _cmd_slope,
             "verify": _cmd_verify}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(args, args.config)
        if getattr(args, "g", None) is not None and args.g > G_LIMIT:
            raise CliError(f"--g must be at most {G_LIMIT}")
        payload, code = _HANDLERS[args.command](args)
        try:
            _emit(payload, args.format or "json")
            sys.stdout.flush()
        except BrokenPipeError:
            # Later writes, and the flush at exit, go nowhere instead of raising again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise CliError("standard output was closed before all of the output was written")
        return code
    except CliError as exc:
        print(f"grdcalc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"grdcalc: precondition violated: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"grdcalc: consistency failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ZeroDivisionError as exc:
        print(f"grdcalc: internal error: ZeroDivisionError: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
