"""Seeded inputs of the three workloads and the checks of every answer.

A query is one ``torifan`` CLI call. Its expected outcome and the reference
answer come from ``reference``, never from the layer under test. Queries on
inputs that hit a defect of the seed commit carry the defect's name, so a
failure there is counted and reported without hiding a new failure
elsewhere.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import reference as ref

COMMANDS = (
    "validate", "analyze", "degree", "is-fano", "is-weak-fano", "is-weakened-fano", "isomorphic",
)

# Known defects of the seed commit, by the inputs that show them.
KNOWN_DEFECTS = {
    "degree-not-nef": "degree of a fan whose -K is not nef (F_a for a >= 3, non-weak-Fano "
    "blow-ups, P1 x those): polytope volume instead of (-K)^d, a wrong number or an error",
    "coercion": "float, bool or numeric-string entries are coerced to int and accepted",
    "dim4": "a 4-dimensional fan ends in an uncaught NotImplementedError",
}

CORRUPTIONS = ("bad-ray", "det", "unmatched-facet", "overlap")
MALFORMED = ("float", "bool", "string", "dim4", "truncated")


class BenchError(RuntimeError):
    """The benchmark itself cannot go on (missing sources, uncertified input)."""


@dataclass
class Query:
    command: str
    argv: list[str]
    expect: str  # "ok" | "error"
    label: str
    dim: int = 0
    rays: list = field(default_factory=list)
    cones: list = field(default_factory=list)
    text: str = ""
    name: Optional[str] = None  # catalog name the fan is a rebasing of
    target: Optional[str] = None  # catalog name given to `isomorphic`
    defect: Optional[str] = None
    _ref: Optional[dict] = None


def plain_catalog(named) -> dict[str, tuple[int, list, list]]:
    """Catalog fans as plain (dim, rays, cones) data."""
    return {
        name: (nf.fan.dim, [tuple(r) for r in nf.fan.rays], [tuple(c) for c in nf.fan.max_cones])
        for name, nf in named.items()
    }


def _write(work_dir: Path, index: int, text: str) -> str:
    path = work_dir / f"q{index:04d}.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _non_weak_surfaces(rng: random.Random, catalog) -> list[tuple[str, list, list]]:
    """Three Hirzebruch surfaces F_a (a >= 3) and non-weak-Fano blow-ups with 7, 8 and 9 rays."""
    out = []
    for _ in range(3):
        a = rng.randint(3, 7)
        out.append((f"F{a}", *ref.hirzebruch(a)))
    for size in (7, 8, 9):
        rays = ()
        while len(rays) != size or ref.is_weak_fano(rays, cones):
            _, rays, cones = catalog[rng.choice(ref.SURFACE_NAMES[:12])]
            while len(rays) < size:
                rays, cones = ref.blow_up(rays, cones, rng.randrange(len(cones)))
        out.append((f"blowup{size}", rays, cones))
    return out


def query_mix(seed: int, catalog, work_dir: Path) -> list[Query]:
    """Every command on seeded rebasings of all named fans and of non-weak-Fano fans."""
    rng = random.Random(f"query-mix/{seed}")
    slots = [(name, name, dim, rays, cones) for name, (dim, rays, cones) in catalog.items()]
    for label, rays, cones in _non_weak_surfaces(rng, catalog):
        slots.append((label, None, 2, rays, cones))
        slots.append((f"P1x{label}", None, 3, *ref.product_with_p1(rays, cones)))
    queries = []
    for command in COMMANDS:
        for label, name, dim, rays, cones in slots:
            if command == "is-weakened-fano" and dim != 3:
                continue
            rays2, cones2 = ref.rebase(rng, rays, cones)
            path = _write(work_dir, len(queries), ref.fan_json(dim, rays2, cones2))
            q = Query(command, [command, path], "ok", label, dim, rays2, cones2, name=name)
            if command == "isomorphic":
                if name is None:
                    same = [n for n, (d, r, _) in catalog.items() if d == dim and len(r) == len(rays)]
                    q.target = rng.choice(same or [n for n, (d, _, _) in catalog.items() if d == dim])
                else:
                    q.target = name
                q.argv.append(f"catalog:{q.target}")
            if command == "degree" and name is None:
                q.defect = "degree-not-nef"
            queries.append(q)
    # interleaved, so every command is timed across the whole run
    rng.shuffle(queries)
    return queries


def _corrupt(kind: str, rng: random.Random, template: int, dim: int, rays, cones):
    rays, cones = ref.rebase(rng, rays, cones)
    if kind == "bad-ray":
        i = rng.randrange(len(rays))
        how = rng.choice(("zero", "multiple", "duplicate"))
        if how == "zero":
            rays[i] = (0,) * dim
        elif how == "multiple":
            rays[i] = tuple(2 * x for x in rays[i])
        else:
            rays[i] = rays[(i + 1) % len(rays)]
    elif kind == "det":
        i, j = rng.sample(rng.choice(cones), 2)
        rays[i] = tuple(2 * x + y for x, y in zip(rays[i], rays[j]))
    elif kind == "unmatched-facet":
        del cones[rng.randrange(len(cones))]
    else:
        rays, cones = ref.double_cover(template % len(ref.DOUBLE_COVERS))
        if dim == 3:
            rays, cones = ref.product_with_p1(rays, cones)
        rays, cones = ref.rebase(rng, rays, cones)
    return rays, cones


def _malformed(kind: str, rng: random.Random, dim: int, rays, cones) -> str:
    if kind == "dim4":
        rays4, cones4 = ref.product_with_p1(rays, cones)
        rays4, cones4 = ref.rebase(rng, rays4, cones4, ref.signed_permutation(rng, 4))
        return ref.fan_json(4, rays4, cones4)
    rays, cones = ref.rebase(rng, rays, cones, ref.signed_permutation(rng, dim))
    if kind == "truncated":
        text = ref.fan_json(dim, rays, cones)
        return text[: rng.randrange(1, len(text) - 1)]
    data = {"rays": [list(r) for r in rays], "max_cones": [list(c) for c in cones]}
    # every entry still truncates or converts to the same int, so a coercing
    # parser reads the original valid fan
    spots = [
        (key, i, j)
        for key, rows in data.items()
        for i, row in enumerate(rows)
        for j, x in enumerate(row)
        if kind != "bool" or x in (0, 1)
    ]
    key, i, j = rng.choice(spots)
    x = data[key][i][j]
    if kind == "float":
        data[key][i][j] = x + 0.25 if x > 0 else (x - 0.25 if x < 0 else 0.5)
    elif kind == "bool":
        data[key][i][j] = bool(x)
    else:
        data[key][i][j] = str(x)
    return json.dumps({"dim": dim, **data}, separators=(",", ":"))


def reject_mix(seed: int, catalog, work_dir: Path) -> list[Query]:
    """Every command on corrupted catalog fans and on malformed JSON; all must be errors."""
    rng = random.Random(f"reject-mix/{seed}")
    names = list(catalog)
    threefolds = [n for n in names if catalog[n][0] == 3]
    queries = []
    for c_index, command in enumerate(COMMANDS):
        for k, name in enumerate(names):
            dim, rays, cones = catalog[name]
            kind = CORRUPTIONS[(k + c_index) % len(CORRUPTIONS)]
            rays2, cones2 = _corrupt(kind, rng, k, dim, rays, cones)
            path = _write(work_dir, len(queries), ref.fan_json(dim, rays2, cones2))
            queries.append(Query(command, [command, path], "error", kind, dim, rays2, cones2, name=name))
        for j, kind in enumerate(MALFORMED + MALFORMED):
            # a coerced 2-fold would be refused by is-weakened-fano anyway
            pool = threefolds if command == "is-weakened-fano" or kind == "dim4" else names
            # bases are spread over the catalog in a fixed pattern, so the
            # work a coerced input causes is the same for every seed
            name = pool[(7 * c_index + 3 * j) % len(pool)]
            text = _malformed(kind, rng, *catalog[name])
            path = _write(work_dir, len(queries), text)
            defect = "dim4" if kind == "dim4" else ("coercion" if kind != "truncated" else None)
            queries.append(Query(command, [command, path], "error", kind, text=text, name=name, defect=defect))
    for q in queries:
        if q.command == "isomorphic":
            # the invalid fan comes first, so the target never matters
            q.target = q.name
            q.argv.append(f"catalog:{q.name}")
    rng.shuffle(queries)
    return queries


def result_queries(reports, work_dir: Path) -> list[Query]:
    """Every command on each class a classification found, named as the report names it."""
    queries = []
    for report in reports:
        for entry in report.classes:
            fan = entry.fan
            rays = [tuple(r) for r in fan.rays]
            cones = [tuple(c) for c in fan.max_cones]
            path = _write(work_dir, len(queries), ref.fan_json(fan.dim, rays, cones))
            for command in COMMANDS:
                # an unnamed class already fails the classification check
                if (command == "is-weakened-fano" and fan.dim != 3) or (command == "isomorphic" and not entry.name):
                    continue
                q = Query(command, [command, path], "ok", entry.name or "?", fan.dim, rays, cones)
                q.name = entry.name
                if command == "isomorphic":
                    q.target = entry.name
                    q.argv.append(f"catalog:{entry.name}")
                queries.append(q)
    random.Random(0).shuffle(queries)
    return queries


# -- checks ---------------------------------------------------------------------


def _reference(q: Query, catalog) -> dict:
    if q._ref is None:
        if q.expect == "error":
            reason = ref.strict_fan(q.text) if q.text else ref.invalidity(q.rays, q.cones)
            if reason is None:
                raise BenchError(f"{q.label} input of {q.command} is not certified invalid")
            q._ref = {"reason": reason}
        else:
            degrees = ref.curve_degrees(q.rays, q.cones)
            weak = all(c >= 0 for c in degrees)
            fano = all(c > 0 for c in degrees)
            q._ref = {
                "weak": weak,
                "fano": fano,
                "degree": ref.anticanonical_degree(q.rays, q.cones),
                "weakened": weak and not fano and q.name in ref.WEAKENED_NAMES,
            }
            if q.target is not None:
                _, g_rays, g_cones = catalog[q.target]
                iso = q.name == q.target
                if not iso and sorted(degrees) == sorted(ref.curve_degrees(g_rays, g_cones)):
                    raise BenchError(f"{q.label} vs {q.target} is not certified non-isomorphic")
                q._ref["isomorphic"] = iso
    return q._ref


def check(q: Query, result, catalog) -> Optional[str]:
    """None if the CLI result is the right answer, else what is wrong."""
    expected = _reference(q, catalog)
    try:
        return _compare(q, result, expected, catalog)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed payload ({exc!r}): {result.payload}"


def _compare(q: Query, result, expected: dict, catalog) -> Optional[str]:
    if q.expect == "error":
        if result.status != "error" or result.exit_code != 1:
            return f"status {result.status} where an error was due ({expected['reason']})"
        return None
    if result.status != "ok" or result.exit_code != 0:
        return f"status {result.status}: {result.payload}"
    p = result.payload
    if q.command == "validate":
        ok = p["is_simplicial"] and p["is_smooth"] and p["is_complete"] and not p["offending_cones"]
        return None if ok else f"valid fan reported as {p}"
    if q.command == "analyze":
        return ref.check_analyze(q.rays, q.cones, p)
    if q.command == "degree":
        got = p["anticanonical_degree"]
        return None if got == expected["degree"] else f"degree {got}, expected {expected['degree']}"
    if q.command == "is-fano":
        return None if p["is_fano"] == expected["fano"] else f"is_fano {p['is_fano']}"
    if q.command == "is-weak-fano":
        return None if p["is_weak_fano"] == expected["weak"] else f"is_weak_fano {p['is_weak_fano']}"
    if q.command == "is-weakened-fano":
        got = (p["is_weak_fano"], p["is_fano"], p["is_weakened"])
        want = (expected["weak"], expected["fano"], expected["weakened"])
        if got != want:
            return f"(weak, fano, weakened) = {got}, expected {want}"
        for item in p["crepant_contractions"]:
            if item["relation"]["degree"] != 0:
                return "a crepant contraction of nonzero degree"
            if p["is_weakened"] and (
                item["contraction"]["kind"] != "zero_two" or item["contraction"].get("a") not in (0, 1)
            ):
                return f"weakened fan with contraction {item['contraction']}"
        return None
    if q.command == "isomorphic":
        if p["isomorphic"] != expected["isomorphic"]:
            return f"isomorphic {p['isomorphic']}, expected {expected['isomorphic']}"
        if not p["isomorphic"]:
            return None
        _, g_rays, g_cones = catalog[q.target]
        return ref.check_witness(q.rays, q.cones, g_rays, g_cones, p["matrix"], p["ray_permutation"])
    raise BenchError(f"no check for command {q.command}")


def check_classification(surfaces, threefolds) -> tuple[list[str], list[str]]:
    """Problems with each classification report: 16 and 15 classes, one per name."""
    out = []
    for report, names, dim in ((surfaces, ref.SURFACE_NAMES, 2), (threefolds, ref.WEAKENED_NAMES, 3)):
        problems = []
        got = sorted(str(e.name) for e in report.classes)
        if report.count != len(names) or got != sorted(names):
            problems.append(f"{report.count} classes named {got}, expected {sorted(names)}")
        for e in report.classes:
            rays = [tuple(r) for r in e.fan.rays]
            cones = [tuple(c) for c in e.fan.max_cones]
            reason = ref.invalidity(rays, cones)
            if reason is not None or e.fan.dim != dim:
                problems.append(f"class {e.name} is not a smooth complete {dim}-fan: {reason}")
                continue
            degrees = ref.curve_degrees(rays, cones)
            inv = e.invariants
            want = {
                "rays": len(rays),
                "picard": len(rays) - dim,
                "degree": ref.anticanonical_degree(rays, cones),
            }
            if dim == 2:
                want["fano"] = all(c > 0 for c in degrees)
                want["weak_fano"] = True
            if {k: inv.get(k) for k in want} != want:
                problems.append(f"class {e.name} has invariants {inv}, expected {want}")
            if min(degrees) < 0 or (dim == 3 and min(degrees) > 0):
                problems.append(f"class {e.name} has curve degrees {sorted(degrees)}")
            special = ref.SPECIAL_DEGREES.get(e.name)
            if special is not None and want["degree"] != special:
                problems.append(f"{e.name} has degree {want['degree']}, not {special}")
        out.append(problems)
    fano = sum(1 for e in surfaces.classes if e.invariants.get("fano"))
    if fano != 5:
        out[0].append(f"{fano} Fano surfaces, expected 5")
    return out[0], out[1]
