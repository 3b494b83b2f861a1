"""Command line interface: every operation on JSON fan files.

Fans are read from files or from ``catalog:NAME`` pseudo-paths (resolved
without touching the filesystem). All payload numbers are exact integers;
``--json`` switches to machine-readable output on stdout. Predicate
commands report falsity in the payload and still exit 0; only malformed
input, invalid fans and unknown names exit nonzero.
"""

from __future__ import annotations

import argparse
import json
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
    diagnostics: list[str]

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
    if not report.ok:
        reasons = sorted({reason for reason, _ in report.offending_cones})
        raise ValueError(f"fan is invalid: {', '.join(reasons) or 'unknown reason'}")
    return fan


def _cmd_validate(args) -> CommandResult:
    report = _load_fan(args.fan).report
    diagnostics = []
    if not report.is_simplicial:
        diagnostics.append("not simplicial")
    if not report.is_smooth:
        diagnostics.append("not smooth")
    if not report.is_complete:
        diagnostics.append("not complete")
    status = "ok" if report.ok else "error"
    return CommandResult(status, report.to_dict(), diagnostics)


def _cmd_analyze(args) -> CommandResult:
    fan = _load_valid_fan(args.fan)
    payload = {
        "picard_rank": picard_rank(fan),
        "relations": [
            {**rel.to_dict(), "extremal": is_extremal(fan, rel)}
            for rel in primitive_collections(fan)
        ],
    }
    return CommandResult("ok", payload, [])


def _cmd_degree(args) -> CommandResult:
    fan = _load_valid_fan(args.fan)
    return CommandResult("ok", {"anticanonical_degree": anticanonical_degree(fan)}, [])


def _cmd_is_fano(args) -> CommandResult:
    return CommandResult("ok", {"is_fano": is_fano(_load_valid_fan(args.fan))}, [])


def _cmd_is_weak_fano(args) -> CommandResult:
    return CommandResult("ok", {"is_weak_fano": is_weak_fano(_load_valid_fan(args.fan))}, [])


def _cmd_is_weakened_fano(args) -> CommandResult:
    fan = _load_valid_fan(args.fan)
    payload = is_weakened_fano(fan).to_dict()
    payload["crepant_contractions"] = [
        {"relation": rel.to_dict(), "contraction": kind.to_dict()}
        for rel, kind in crepant_contractions(fan)
    ]
    return CommandResult("ok", payload, [])


def _cmd_isomorphic(args) -> CommandResult:
    f = _load_valid_fan(args.fan)
    g = _load_valid_fan(args.other)
    iso = find_isomorphism(f, g)
    payload = {
        "isomorphic": iso is not None,
        "matrix": [list(row) for row in iso.matrix] if iso else None,
        "ray_permutation": list(iso.ray_permutation) if iso else None,
    }
    return CommandResult("ok", payload, [])


def _cmd_catalog(args) -> CommandResult:
    if args.list and args.name is not None:
        raise ValueError(f"catalog takes a name or --list, not both (got {args.name!r} and --list)")
    if args.name is None:
        names = [
            {"name": nf.name, "expected": nf.expected}
            for nf in catalog.all_named().values()
        ]
        return CommandResult("ok", {"names": names}, [])
    nf = catalog.named_fan(args.name)
    return CommandResult("ok", nf.fan.to_dict(), [])


def _classification(report: classify.ClassificationReport, args) -> CommandResult:
    payload = report.to_dict()
    if args.stats:
        payload["stats"] = report.stats
    return CommandResult("ok", payload, [])


def _cmd_classify_surfaces(args) -> CommandResult:
    return _classification(classify.enumerate_weak_del_pezzo(), args)


def _cmd_classify_3folds(args) -> CommandResult:
    return _classification(classify.enumerate_weakened_threefolds(args.twist_bound), args)


def _cmd_verify(args) -> CommandResult:
    summary = classify.verify_classification()
    status = "ok" if summary["passed"] else "error"
    diagnostics = [f"{a['name']}: FAIL" for a in summary["assertions"] if not a["passed"]]
    return CommandResult(status, summary, diagnostics)


def _human_lines(command: str, result: CommandResult) -> list[str]:
    payload = result.payload
    lines = []
    if command == "validate":
        for key in ("is_simplicial", "is_smooth", "is_complete"):
            lines.append(f"{key}: {payload[key]}")
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
            lines.append(
                "  "
                + "  ".join(
                    str(x)
                    for x in (
                        entry["name"] or "?",
                        inv["rays"],
                        inv["picard"],
                        inv["degree"],
                        inv.get("fiber", "-"),
                    )
                )
            )
    elif command == "catalog" and "names" in (payload or {}):
        for item in payload["names"]:
            lines.append(f"{item['name']}: {item['expected']}")
    elif command == "verify":
        for a in payload["assertions"]:
            lines.append(f"{'PASS' if a['passed'] else 'FAIL'} {a['name']} {a['detail']}".rstrip())
        lines.append(f"overall: {'PASS' if payload['passed'] else 'FAIL'}")
    else:
        lines.append(json.dumps(payload, indent=2))
    return lines


@cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing reads the parser and never changes it
    parser = argparse.ArgumentParser(
        prog="torifan",
        description="Exact toric fan analysis: primitive relations, Fano predicates, "
        "crepant contractions and the weak del Pezzo / weakened Fano classifications.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("validate", _cmd_validate, "validate a fan (smooth, complete)"),
        ("analyze", _cmd_analyze, "primitive relations with degrees and extremality"),
        ("degree", _cmd_degree, "anticanonical degree (-K)^d"),
        ("is-fano", _cmd_is_fano, "all primitive degrees positive"),
        ("is-weak-fano", _cmd_is_weak_fano, "all primitive degrees nonnegative"),
        ("is-weakened-fano", _cmd_is_weakened_fano, "weakened Fano verdict with contraction table"),
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
        "--twist-bound", type=int, default=DEFAULT_TWIST_BOUND, help="section twist search bound (default %(default)s)"
    )
    p.set_defaults(func=_cmd_classify_3folds)

    p = sub.add_parser("verify", parents=[common], help="full classification cross-check")
    p.set_defaults(func=_cmd_verify)
    return parser


def _dispatch(args: argparse.Namespace) -> CommandResult:
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        message = str(exc.args[0]) if exc.args else str(exc)
        return CommandResult("error", {"error": message}, [message])


def run(argv: Optional[list[str]] = None) -> CommandResult:
    """Programmatic entry point: parse, dispatch, return the result object."""
    return _dispatch(build_parser().parse_args(argv))


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    result = _dispatch(args)
    if getattr(args, "json", False):
        print(json.dumps(result.payload, separators=(",", ":")))
    else:
        if result.status == "error" and isinstance(result.payload, dict) and "error" in result.payload:
            print(f"error: {result.payload['error']}", file=sys.stderr)
        else:
            for line in _human_lines(args.command, result):
                print(line)
            if getattr(args, "stats", False):
                for name, count in result.payload["stats"].items():
                    print(f"{name}: {count}", file=sys.stderr)
            if result.status == "error" and result.diagnostics:
                print("error: " + "; ".join(result.diagnostics), file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
