"""Command-line front end.

Subcommands mirror the library modules: ``invariants``, ``schubert``,
``picard``, ``families``, ``pushforward``, ``slope`` and the cross-check
driver ``verify``.  Output is machine readable (JSON by default, also tsv and
an aligned pretty format), deterministic, and never contains a float:
rationals are serialized as ``p`` or ``p/q`` strings in lowest terms.

Exit codes: 0 success, 1 usage or precondition violation, 2 verification
failure (a dual-route check or golden comparison that did not agree) or an
internal arithmetic fault (a division by zero inside the program).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from . import invariants, picard, pushforward, schubert, slope, verify
from .errors import ConsistencyError, PreconditionError
from .exact import format_rational
from .families import ClassLabel, push_m21, push_marked, push_mogb
from .picard import PicSpace, parse_class

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

GOLDEN_NAME = "verify_golden.json"


class CliError(Exception):
    """Usage-level failure carrying the exit code 1 message."""


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this tool reserves 2
    for verification failures, so usage problems are rerouted to exit 1."""

    def error(self, message):
        raise CliError(message)


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    flat = _flatten(payload)
    if fmt == "tsv":
        for key, value in flat:
            print(f"{key}\t{value}")
        return
    width = max((len(k) for k, _ in flat), default=0)
    for key, value in flat:
        print(f"{key.ljust(width)}  {value}")


def _flatten(payload, prefix: str = "") -> List[tuple[str, str]]:
    if isinstance(payload, dict):
        out: List[tuple[str, str]] = []
        for key in sorted(payload):
            out.extend(_flatten(payload[key], f"{prefix}.{key}" if prefix else str(key)))
        return out
    if isinstance(payload, list):
        out = []
        for i, item in enumerate(payload):
            out.extend(_flatten(item, f"{prefix}.{i}" if prefix else str(i)))
        return out
    value = json.dumps(payload) if isinstance(payload, bool) else str(payload)
    return [(prefix, value)]


def _load_config(path: str) -> Dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    out: Dict[str, str] = {}
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
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "tsv", "pretty"], default=None,
                        help="output format (default json)")
    common.add_argument("--config", default=None,
                        help="optional key=value config file supplying defaults")

    parser = _Parser(prog="grdcalc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common],
                       help="rho, Castelnuovo count and xi for a triple")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("schubert", parents=[common],
                       help="integral of zeta^k . sigma_b on the Grassmannian")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--b", required=True, help="comma-separated increasing index, e.g. 0,0")
    p.add_argument("--method", choices=["closed", "pieri", "both"], default="closed")

    p = sub.add_parser("picard", parents=[common], help="pull-back maps on divisor classes")
    psub = p.add_subparsers(dest="picard_command", required=True)
    pb = psub.add_parser("pullback", parents=[common])
    pb.add_argument("map", choices=["i", "j", "k"],
                    help="i: elliptic-tail family, j: genus-2-tail family, k: moving marked point")
    pb.add_argument("--g", type=int, required=True)
    pb.add_argument("--h", type=int, default=None, help="component genus (map k only)")
    pb.add_argument("--class", dest="class_text", required=True,
                    help='divisor class as "symbol:coeff,symbol:coeff"')

    p = sub.add_parser("families", parents=[common],
                       help="push-forwards of alpha, beta, gamma over a special family")
    p.add_argument("family", choices=["m21", "marked", "mogb"])
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--h", type=int, default=None, help="component genus (marked family only)")

    p = sub.add_parser("pushforward", parents=[common],
                       help="push-forward of one class on the pointed moduli space")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--class", dest="class_name", required=True,
                   choices=["alpha", "beta", "gamma"])
    p.add_argument("--method", choices=["closed", "assembled", "both"], default="closed")

    p = sub.add_parser("slope", parents=[common],
                       help="slope report for the quadric divisor")
    p.add_argument("--g", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int, help="member of the quadratic family")
    p.add_argument("--sweep", type=int, help="report the family for m = 1..SWEEP")

    p = sub.add_parser("verify", parents=[common], help="run the full cross-check battery")
    p.add_argument("--g-max", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--golden", default=None,
                   help="directory for golden-file regression (writes if absent, else compares)")
    p.add_argument("--skip-genus21", action="store_true",
                   help="skip the expensive Pieri count of the m-family (genus 21, 36, 55)")
    return parser


def _cmd_invariants(args) -> tuple[Dict, int]:
    g, r, d = args.g, args.r, args.d
    return {
        "rho": format_rational(invariants.rho(g, r, d)),
        "N": format_rational(invariants.castelnuovo_count(g, r, d)),
        "xi": format_rational(invariants.xi(g, r, d)),
    }, EXIT_OK


def _cmd_schubert(args) -> tuple[Dict, int]:
    shape = schubert.GrassShape(args.r, args.d)
    try:
        b = tuple(int(x) for x in args.b.split(","))
    except ValueError:
        raise CliError(f"bad index {args.b!r}, expected comma-separated integers")
    payload: Dict = {"r": args.r, "d": args.d, "k": args.k, "b": list(b)}
    code = EXIT_OK
    if args.method in ("closed", "both"):
        payload["value"] = format_rational(schubert.special_power_integral(shape, args.k, b))
    if args.method in ("pieri", "both"):
        payload["value_pieri"] = format_rational(
            schubert.zeta_power_integral_pieri(shape, args.k, b))
        if args.method == "pieri":
            payload["value"] = payload.pop("value_pieri")
    if args.method == "both":
        agree = payload["value"] == payload["value_pieri"]
        payload["methods_agree"] = agree
        if not agree:
            code = EXIT_VERIFY
    return payload, code


def _cmd_picard(args) -> tuple[Dict, int]:
    if args.map != "k" and args.h is not None:
        raise CliError(f"pullback {args.map} takes no --h (component genus of map k only)")
    g = args.g
    source = PicSpace.mg1(g)
    D = parse_class(source, args.class_text)
    if args.map == "i":
        return picard.pullback_i(g, D).payload(), EXIT_OK
    if args.map == "j":
        return picard.pullback_j(g, D).payload(), EXIT_OK
    if args.h is None:
        raise CliError("pullback k needs --h")
    return {"degree": format_rational(picard.pullback_k(g, args.h, D))}, EXIT_OK


def _cmd_families(args) -> tuple[Dict, int]:
    g, r, d = args.g, args.r, args.d
    if args.family != "marked" and args.h is not None:
        raise CliError(f"the {args.family} family takes no --h "
                       "(component genus of the marked family only)")
    if args.family == "mogb":
        invariants.COVER_DEGREE.check(g, r, d)
        return {label.value: push_mogb(g, label).payload() for label in ClassLabel}, EXIT_OK
    if args.family == "m21":
        return {label.value: push_m21(g, r, d, label).payload()
                for label in ClassLabel}, EXIT_OK
    if args.h is None:
        raise CliError("the marked family needs --h")
    return {label.value: format_rational(push_marked(g, r, d, args.h, label))
            for label in ClassLabel}, EXIT_OK


def _cmd_pushforward(args) -> tuple[Dict, int]:
    g, r, d = args.g, args.r, args.d
    label = ClassLabel(args.class_name)
    payload: Dict = {"g": g, "r": r, "d": d, "class": label.value, "method": args.method}
    code = EXIT_OK
    if args.method in ("closed", "both"):
        payload["coefficients"] = pushforward.closed_form(g, r, d, label).payload()
    if args.method in ("assembled", "both"):
        assembled = pushforward.solve_from_families(g, r, d, label).as_divisor_class(g)
        key = "coefficients_assembled" if args.method == "both" else "coefficients"
        payload[key] = assembled.payload()
    if args.method == "both":
        agree = payload["coefficients"] == payload["coefficients_assembled"]
        payload["methods_agree"] = agree
        if not agree:
            code = EXIT_VERIFY
    return payload, code


def _cmd_slope(args) -> tuple[Dict, int]:
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
        reports = [slope.m_family_report(m).payload() for m in range(1, args.sweep + 1)]
        identity = slope.m_family_gap_identity(args.sweep) and slope.symbolic_gap_identity()
        return ({"reports": reports, "gap_identity": identity},
                EXIT_OK if identity else EXIT_VERIFY)
    return slope.slope_report(args.g, args.r, args.d).payload(), EXIT_OK


def _golden_compare(payload: Dict, directory: str) -> tuple[Dict, int]:
    path = Path(directory) / GOLDEN_NAME
    rendered = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        return {"golden": str(path), "golden_status": "written"}, EXIT_OK
    if path.read_text() == rendered:
        return {"golden": str(path), "golden_status": "match"}, EXIT_OK
    return {"golden": str(path), "golden_status": "mismatch"}, EXIT_VERIFY


def _cmd_verify(args) -> int:
    g_max = args.g_max if args.g_max is not None else 12
    m_max = args.m_max if args.m_max is not None else 15
    results = verify.run_checks(g_max, m_max,
                                include_genus21_sweep=not args.skip_genus21)
    failures = sum(not rs.passed for rs in results)
    golden: Dict = {}
    golden_code = EXIT_OK
    if args.golden is not None:
        golden, golden_code = _golden_compare(verify.golden_payload(g_max, m_max), args.golden)
    code = max(EXIT_OK if failures == 0 else EXIT_VERIFY, golden_code)
    if args.format is not None:
        _emit({"checks": [dataclasses.asdict(rs) for rs in results],
               "passed": len(results) - failures, "total": len(results), **golden},
              args.format)
        return code
    width = max(len(rs.name) for rs in results)
    for rs in results:
        print(f"{'PASS' if rs.passed else 'FAIL'}  {rs.name.ljust(width)}  {rs.detail}")
    if golden:
        print(f"{'PASS' if golden_code == EXIT_OK else 'FAIL'}  golden{' ' * (width - 6)}  "
              f"{golden['golden_status']}: {golden['golden']}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            config = _load_config(args.config)
            if getattr(args, "format", None) is None and "format" in config:
                if config["format"] not in ("json", "tsv", "pretty"):
                    raise CliError(f"config format {config['format']!r} invalid")
                args.format = config["format"]
            for key in ("g_max", "m_max"):
                if hasattr(args, key) and getattr(args, key) is None and key in config:
                    try:
                        setattr(args, key, int(config[key]))
                    except ValueError:
                        raise CliError(f"config {key} {config[key]!r} is not an integer")
        fmt = getattr(args, "format", None) or "json"

        if args.command == "verify":
            return _cmd_verify(args)
        handler = {
            "invariants": _cmd_invariants,
            "schubert": _cmd_schubert,
            "picard": _cmd_picard,
            "families": _cmd_families,
            "pushforward": _cmd_pushforward,
            "slope": _cmd_slope,
        }[args.command]
        payload, code = handler(args)
        _emit(payload, fmt)
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
