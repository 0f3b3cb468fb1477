"""Command-line front end.

Subcommands: count (the exact formula), classes (explicit orbit enumeration),
verify (triple-oracle agreement gate), recognize (vertex-transitivity and
Cayley recognition for a graph file), fixtures (the bundled order-9/order-25
cross-checks).  All output is deterministic; every flag can also be set
through a VTT_* environment variable.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import counting, enumeration, fixtures, graphs, perm
from .errors import InconsistencyError, SizeLimitError
from .groups import is_prime

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE_CAP = 3

ENV_PREFIX = "VTT_"


def _env_default(name: str, fallback, cast=str):
    """VTT_<name> through cast, or fallback if unset; exit 2 if cast raises."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except (KeyError, ValueError):
        print(f"error: bad value {raw!r} for {ENV_PREFIX}{name}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """command's arguments: the four flags that every command takes, then its own."""
    formats = {f: f for f in ("text", "tsv", "json", "dot")}
    parser.add_argument("--format", choices=tuple(formats),
                        default=_env_default("FORMAT", "text", formats.__getitem__),
                        help="output format (default: text)")
    parser.add_argument("--budget-bits", type=int, metavar="B",
                        default=_env_default("BUDGET_BITS", enumeration.DEFAULT_BUDGET_BITS, int),
                        help="mask-bit budget for explicit enumeration: admits p with "
                             "(p-1)/2 <= B; enumeration keeps each class's smallest mask "
                             "and size, about 6 bytes per class (default: %(default)s)")
    parser.add_argument("--aut-cap", type=int, metavar="N",
                        default=_env_default("AUT_CAP", perm.DEFAULT_AUT_CAP, int),
                        help="vertex cap for automorphism search, checked on the graph "
                             "file's header before the graph is built; a group of order "
                             f"more than {perm.MAX_AUT_ELEMENTS:,} also exits 3, checked as "
                             "its stabilizer chain grows (default: %(default)s)")
    parser.add_argument("--workers", type=int, metavar="W",
                        default=_env_default("WORKERS", 1, int),
                        help="accepted for compatibility and checked to be >= 1; has no "
                             "effect, enumeration runs in one process "
                             "(default: %(default)s)")
    if command == "count":
        parser.add_argument("prime", help="an odd prime P, or a range LO..HI")
    elif command in ("classes", "verify"):
        parser.add_argument("prime", type=int, help="an odd prime within the bit budget")
    elif command == "recognize":
        parser.add_argument("file", help="path to a graph file ('digraph n' or 'graph n' header)")
    if command == "classes":
        switch = dict.fromkeys(("1", "true", "yes", "on"), True)
        switch.update(dict.fromkeys(("0", "false", "no", "off"), False))
        parser.add_argument("--members", action="store_true",
                            default=_env_default("MEMBERS", False, lambda raw: switch[raw.lower()]),
                            help="include the full member list of every class")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtt",
        description="Isomorphism classes of vertex-transitive tournaments of prime order: "
                    "exact counts, explicit class enumeration, oracle verification, and "
                    "Cayley recognition.",
        epilog="Every flag has an environment override with the VTT_ prefix: "
               "VTT_FORMAT, VTT_BUDGET_BITS, VTT_AUT_CAP, VTT_WORKERS, VTT_MEMBERS. "
               "Flags take precedence over the environment. VTT_WORKERS/--workers "
               "has no effect on the output or the work done.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, text) in _HANDLERS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Only the parser of the command named first, as `build_parser` has it; the
    full one for -h, no or an unknown command, or unrecognized arguments."""
    if argv and argv[0] in _HANDLERS:
        parser = _add_arguments(argparse.ArgumentParser(prog=f"vtt {argv[0]}"), argv[0])
        args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return build_parser().parse_args(argv)


def _positive(args) -> None:
    if args.budget_bits < 1 or args.aut_cap < 1 or args.workers < 1:
        raise ValueError("budget, cap and workers must be positive")


def _parse_prime_range(text: str) -> tuple[int, int] | int:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            return int(lo_text), int(hi_text)
        except ValueError:
            raise ValueError(f"bad range {text!r}: expected LO..HI")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad prime {text!r}")


def cmd_count(args) -> int:
    target = _parse_prime_range(args.prime)
    if isinstance(target, int):
        if target < 3 or target % 2 == 0:
            raise ValueError(f"{target} is not an odd prime")
        counting.check_digit_cap(target)  # before trial division, slow on huge p
        if not is_prime(target):
            raise ValueError(f"{target} is not an odd prime")
        rows = [(target, counting.residual(target))]
    else:
        rows = counting.residual_table(*target)
    # every count is checked, against the digit cap too, before the first line
    sys.stdout.writelines(counting.residual_lines(rows, args.format))
    return EXIT_OK


def cmd_classes(args) -> int:
    report = enumeration.equivalence_classes(
        args.prime, include_members=args.members, budget_bits=args.budget_bits)
    sys.stdout.writelines(line + "\n" for line in report.json_lines())
    return EXIT_OK


def cmd_verify(args) -> int:
    report = enumeration.equivalence_classes(args.prime, budget_bits=args.budget_bits)
    enumerated = report.count
    table = counting.phi_table(args.prime)  # after the budget check, as it trial-divides p
    formula = table.class_count
    burnside = enumeration.burnside_count(args.prime)
    formula_sizes = {size: count for count, size in table.entries.values() if count}
    ok = formula == enumerated == burnside and formula_sizes == Counter(report.orbit_sizes)
    if args.format == "json":
        print(json.dumps({"p": args.prime, "formula": formula, "enumeration": enumerated,
                          "burnside": burnside, "ok": ok}, separators=(",", ":")))
    else:
        verdict = "OK" if ok else "MISMATCH"
        print(f"formula={formula} enumeration={enumerated} burnside={burnside} {verdict}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_recognize(args) -> int:
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {args.file}: {exc}")
    if args.format == "dot":
        sys.stdout.write(graphs.dot_from_text(text))
        return EXIT_OK
    g = graphs.parse_graph_text(text, args.aut_cap)
    aut = perm.automorphisms(g, cap=args.aut_cap)
    transitive = len(aut.levels[0]) == g.n  # 0's orbit under Aut(g) is every vertex
    regular = perm.find_regular_subgroup(aut, g.n)
    if args.format == "json":
        witness = [list(p) for p in regular] if regular is not None else None
        print(json.dumps({"n": g.n, "vertex_transitive": transitive,
                          "cayley": regular is not None, "witness": witness},
                         separators=(",", ":")))
    else:
        print(f"vertex-transitive: {'yes' if transitive else 'no'}, "
              f"cayley: {'yes' if regular is not None else 'no'}")
        if regular is not None:
            print("witness: " + "; ".join(perm.perm_str(p) for p in regular))
    return EXIT_OK


def cmd_fixtures(args) -> int:
    results = fixtures.run_all()
    failed = [r.name for r in results if not r.ok]
    if args.format == "json":
        payload = {r.name: {"ok": r.ok, "detail": r.detail, **r.data} for r in results}
        payload["ok"] = not failed
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for r in results:
            print(f"{r.name}: {r.detail}: {'PASS' if r.ok else 'FAIL'}")
        print("fixtures: all passed" if not failed
              else f"fixtures: FAILED ({', '.join(failed)})")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


# command -> (handler, the --format values it accepts, its help line)
_HANDLERS = {
    "count": (cmd_count, ("text", "tsv", "json"), "exact class count for a prime or a prime range"),
    "classes": (cmd_classes, ("text", "json"),
                "enumerate the classes with canonical representatives"),
    "verify": (cmd_verify, ("text", "json"),
               "check formula vs orbit enumeration vs Burnside count"),
    "recognize": (cmd_recognize, ("text", "tsv", "json", "dot"),
                  "vertex-transitivity and Cayley recognition for a graph file"),
    "fixtures": (cmd_fixtures, ("text", "json"), "run the bundled order-9 / order-25 cross-checks"),
}


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    handler, formats, _ = _HANDLERS[args.command]
    try:
        _positive(args)
        if args.format not in formats:
            raise ValueError(f"format {args.format!r} is not supported for {args.command}")
        return handler(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
