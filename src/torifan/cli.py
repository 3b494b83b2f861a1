"""Command line interface: every operation on JSON fan files.

Fans are read from files or from ``catalog:NAME`` pseudo-paths (resolved
without touching the filesystem). All payload numbers are exact integers;
``--json`` switches to machine-readable output on stdout. Predicate
commands report falsity in the payload and still exit 0; malformed input,
invalid fans, unknown names and a failed ``validate`` or ``verify`` exit 1,
and argparse's usage errors exit 2.

A known command's arguments are parsed once, by that command's own parser,
as argparse's subparsers action would hand them over; the top-level parser
handles only help, a missing command and an unknown command, and reports
any arguments that the command's parser leaves over.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import cache
from typing import Optional

from . import catalog, classify
from .contraction import crepant_contractions, is_weakened_fano
from .fan import Fan, fan_from_json
from .isomorphism import find_isomorphism
from .polytope import anticanonical_degree
from .primitive import is_extremal, is_fano, is_weak_fano, picard_rank, primitive_collections

DEFAULT_TWIST_BOUND = 3


@dataclass
class CommandResult:
    status: str  # "ok" | "error"
    payload: object

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "ok" else 1


def _load_fan(path: str) -> Fan:
    if path.startswith("catalog:"):
        name = path[len("catalog:"):]
        return catalog.named_fan(name).fan
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text") from exc
    return fan_from_json(text)


def _load_valid_fan(path: str) -> Fan:
    fan = _load_fan(path)
    report = fan.report
    if not report.ok:  # wherever validate clears a flag it names an offending cone
        reasons = sorted({reason for reason, _ in report.offending_cones})
        raise ValueError(f"fan is invalid: {', '.join(reasons)}")
    return fan


def _analyze(fan: Fan) -> dict:
    return {
        "picard_rank": picard_rank(fan),
        "relations": [
            {**rel.to_dict(len(fan.rays)), "extremal": is_extremal(fan, rel)}
            for rel in primitive_collections(fan)
        ],
    }


def _weakened(fan: Fan) -> dict:
    payload = is_weakened_fano(fan).to_dict()
    payload["crepant_contractions"] = [
        {"relation": rel.to_dict(len(fan.rays)), "contraction": kind.to_dict()}
        for rel, kind in crepant_contractions(fan)
    ]
    return payload


# the per-fan commands in their order after validate: help text, and the
# payload of a fan that validates
_PER_FAN = {
    "analyze": ("primitive relations with degrees and extremality", _analyze),
    "degree": ("anticanonical degree (-K)^d", lambda fan: {"anticanonical_degree": anticanonical_degree(fan)}),
    "is-fano": ("every wall curve has positive degree", lambda fan: {"is_fano": is_fano(fan)}),
    "is-weak-fano": ("every wall curve has nonnegative degree", lambda fan: {"is_weak_fano": is_weak_fano(fan)}),
    "is-weakened-fano": ("weakened Fano verdict with contraction table", _weakened),
}


def _cmd_validate(args) -> CommandResult:
    report = _load_fan(args.fan).report
    return CommandResult("ok" if report.ok else "error", report.to_dict())


def _cmd_per_fan(args) -> CommandResult:
    return CommandResult("ok", _PER_FAN[args.command][1](_load_valid_fan(args.fan)))


def _cmd_isomorphic(args) -> CommandResult:
    f = _load_valid_fan(args.fan)
    g = _load_valid_fan(args.other)
    iso = find_isomorphism(f, g)
    payload = {
        "isomorphic": iso is not None,
        "matrix": [list(row) for row in iso.matrix] if iso else None,
        "ray_permutation": list(iso.ray_permutation) if iso else None,
    }
    return CommandResult("ok", payload)


def _cmd_catalog(args) -> CommandResult:
    if args.list and args.name is not None:
        raise ValueError(f"catalog takes a name or --list, not both (got {args.name!r} and --list)")
    if args.name is None:
        names = [
            {"name": nf.name, "expected": nf.expected}
            for nf in catalog.all_named().values()
        ]
        return CommandResult("ok", {"names": names})
    nf = catalog.named_fan(args.name)
    return CommandResult("ok", nf.fan.to_dict())


def _classification(report: classify.ClassificationReport, args) -> CommandResult:
    payload = report.to_dict()
    if args.stats:
        payload["stats"] = report.stats
    return CommandResult("ok", payload)


def _cmd_classify_surfaces(args) -> CommandResult:
    return _classification(classify.enumerate_weak_del_pezzo(), args)


def _cmd_classify_3folds(args) -> CommandResult:
    return _classification(classify.enumerate_weakened_threefolds(args.twist_bound), args)


def _cmd_verify(args) -> CommandResult:
    summary = classify.verify_classification()
    return CommandResult("ok" if summary["passed"] else "error", summary)


def _human_lines(command: str, payload: dict) -> tuple[list[str], list[str]]:
    """The stdout lines of a payload, and the failures for its ``error:`` line."""
    lines, failures = [], []
    if command == "validate":
        for word in ("simplicial", "smooth", "complete"):
            flag = payload[f"is_{word}"]
            lines.append(f"is_{word}: {flag}")
            if not flag:
                failures.append(f"not {word}")
        for item in payload["offending_cones"]:
            lines.append(f"  offending {item['indices']}: {item['reason']}")
    elif command == "analyze":
        lines.append(f"picard rank: {payload['picard_rank']}")
        for rel in payload["relations"]:
            lines.append(
                f"  collection {rel['collection']} -> sigma {rel['sigma']} "
                f"coeffs {rel['coeffs']} degree {rel['degree']} extremal {rel['extremal']}"
            )
    elif command in ("classify-surfaces", "classify-3folds"):
        lines.append(payload["scope"])
        lines.append(f"classes: {payload['count']}")
        header = ("name", "rays", "picard", "degree", "fiber")
        lines.append("  " + "  ".join(header))
        for entry in payload["classes"]:
            inv = entry["invariants"]
            row = (entry["name"] or "?", inv["rays"], inv["picard"], inv["degree"], inv.get("fiber", "-"))
            lines.append("  " + "  ".join(str(x) for x in row))
    elif command == "catalog" and "names" in payload:
        for item in payload["names"]:
            lines.append(f"{item['name']}: {item['expected']}")
    elif command == "verify":
        for a in payload["assertions"]:
            lines.append(f"{'PASS' if a['passed'] else 'FAIL'} {a['name']} {a['detail']}".rstrip())
            if not a["passed"]:
                failures.append(f"{a['name']}: FAIL")
        lines.append(f"overall: {'PASS' if payload['passed'] else 'FAIL'}")
    else:
        lines.append(json.dumps(payload, indent=2))
    return lines, failures


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # built once per process: parsing reads the parsers and never changes them
    parser = argparse.ArgumentParser(
        prog="torifan",
        description="Exact toric fan analysis: primitive relations, Fano predicates, "
        "crepant contractions and the weak del Pezzo / weakened Fano classifications.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("validate", "validate a fan (smooth, complete)", _cmd_validate),
        *((name, help_text, _cmd_per_fan) for name, (help_text, _) in _PER_FAN.items()),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("fan", help="fan JSON file or catalog:NAME")
        p.set_defaults(func=func)

    p = sub.add_parser("isomorphic", parents=[common], help="decide unimodular fan isomorphism")
    p.add_argument("fan")
    p.add_argument("other")
    p.set_defaults(func=_cmd_isomorphic)

    p = sub.add_parser("catalog", parents=[common], help="dump named fans")
    p.add_argument("name", nargs="?", help="catalog name, e.g. X3_0")
    p.add_argument("--list", action="store_true", help="list all names with expected invariants")
    p.set_defaults(func=_cmd_catalog)

    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument(
        "--stats", action="store_true", help="report the search's stage counters (stderr, or a \"stats\" key under --json)"
    )

    p = sub.add_parser("classify-surfaces", parents=[common, stats], help="enumerate weak del Pezzo surfaces")
    p.set_defaults(func=_cmd_classify_surfaces)

    p = sub.add_parser("classify-3folds", parents=[common, stats], help="enumerate weakened Fano 3-folds")
    p.add_argument(
        "--twist-bound",
        type=int,
        default=DEFAULT_TWIST_BOUND,
        help="section twist search bound, at least 2; every allowed bound builds the same bundles and "
        "changes only the scope line and the box_points and pruned_by_phi counts (default %(default)s)",
    )
    p.set_defaults(func=_cmd_classify_3folds)

    p = sub.add_parser("verify", parents=[common], help="full classification cross-check")
    p.set_defaults(func=_cmd_verify)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def _parse(argv: Optional[list[str]]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with a known command's arguments parsed once."""
    argv = sys.argv[1:] if argv is None else argv
    commands = _parsers()[1]
    if not argv or argv[0] not in commands:  # help, no command, an unknown one
        return build_parser().parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def _dispatch(args: argparse.Namespace) -> CommandResult:
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        message = str(exc.args[0]) if exc.args else str(exc)
        return CommandResult("error", {"error": message})


def run(argv: Optional[list[str]] = None) -> CommandResult:
    """Programmatic entry point: parse, dispatch, return the result object.

    A known command's arguments are parsed once, by its own parser; usage
    errors raise ``SystemExit(2)`` as under ``main``.
    """
    return _dispatch(_parse(argv))


def main(argv: Optional[list[str]] = None) -> int:
    args = _parse(argv)
    result = _dispatch(args)
    try:
        if args.json:
            print(json.dumps(result.payload, separators=(",", ":")))
        elif "error" in result.payload:
            print(f"error: {result.payload['error']}", file=sys.stderr)
        else:
            lines, failures = _human_lines(args.command, result.payload)
            for line in lines:
                print(line)
            if getattr(args, "stats", False):
                for name, count in result.payload["stats"].items():
                    print(f"{name}: {count}", file=sys.stderr)
            if failures:
                print("error: " + "; ".join(failures), file=sys.stderr)
        sys.stdout.flush()  # a reader that has gone away raises here, not at shutdown
    except BrokenPipeError:
        # stdout to devnull, so that the flush at shutdown stays quiet (Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
