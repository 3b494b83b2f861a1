"""Seeded fuzzing of the CLI input boundary.

Random JSON of every shape goes through ``cli.run`` with each command that
reads a fan file. Nothing may raise; the status and the exit code must
agree; and a file that is not a smooth complete fan of dimension 1 to 3
with integer entries must give status "error" and exit code 1. Validity is
decided independently of the package: by type checks written here and the
pairwise completeness search of ``_oracles.pairwise_validate``.
"""

import json
import random

from torifan.catalog import all_named
from torifan.cli import run
from torifan.fan import Fan

from _oracles import pairwise_validate, random_unimodular, rebase_fan

FAN_COMMANDS = ("validate", "analyze", "degree", "is-fano", "is-weak-fano", "is-weakened-fano")

EMPTY_FAN = '{"dim": 2, "rays": [], "max_cones": []}'
DEEPLY_NESTED = "[" * 100000


def _scalar(rng: random.Random):
    return rng.choice(
        [
            rng.randint(-3, 3),
            round(rng.uniform(-3, 3), 2),
            float(rng.randint(-3, 3)),
            rng.random() < 0.5,
            str(rng.randint(-3, 3)),
            None,
            10**30,
        ]
    )


def _value(rng: random.Random, depth: int = 3):
    """Any JSON value, nested at most ``depth`` deep."""
    kind = rng.randrange(3) if depth > 0 else 0
    if kind == 0:
        return _scalar(rng)
    if kind == 1:
        return [_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    keys = ["dim", "rays", "max_cones", "x"]
    return {rng.choice(keys): _value(rng, depth - 1) for _ in range(rng.randint(0, 3))}


def _deep_ray(rng: random.Random) -> str:
    """P2 text with one ray entry nested hundreds to thousands of lists deep."""
    depth = rng.randint(300, 3000)
    ray = "[" * depth + "1" + "]" * depth
    return '{"dim": 2, "rays": [[%s, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}' % ray


def _entry(rng: random.Random, low: int, high: int):
    return rng.randint(low, high) if rng.random() < 0.95 else _scalar(rng)


def _fan_shaped(rng: random.Random) -> dict:
    """A dict with the fan keys and mostly integer entries of mixed validity."""
    dim = rng.choice([0, 1, 2, 3, 4, 5]) if rng.random() < 0.95 else _scalar(rng)
    width = dim if type(dim) is int else 2
    n = rng.randint(0, 6)
    rays = [
        [_entry(rng, -2, 2) for _ in range(width + (rng.random() < 0.05))]
        for _ in range(n)
    ]
    cones = [
        [_entry(rng, -1, n) for _ in range(rng.randint(0, width + 1))]
        for _ in range(rng.randint(0, 8))
    ]
    data = {"dim": dim, "rays": rays, "max_cones": cones}
    if rng.random() < 0.1:
        del data[rng.choice(list(data))]
    if rng.random() < 0.1:
        data[rng.choice(list(data) or ["dim"])] = _value(rng)
    return data


def _edited(rng: random.Random, fan: Fan) -> dict:
    """A small catalog fan, rebased, then with at most one entry changed."""
    data = rebase_fan(fan, random_unimodular(rng, fan.dim)).to_dict()
    edit = rng.randrange(4)
    if edit == 1:
        ray = rng.choice(data["rays"])
        ray[rng.randrange(len(ray))] += rng.choice([-1, 1])
    elif edit == 2:
        cone = rng.choice(data["max_cones"])
        cone[rng.randrange(len(cone))] = rng.randrange(len(data["rays"]))
    elif edit == 3:
        data["max_cones"].pop(rng.randrange(len(data["max_cones"])))
    return data


def _is_valid_fan(data) -> bool:
    """Dict with integer dim 1 to 3, integer lists, and a smooth complete fan."""
    if not isinstance(data, dict) or not {"dim", "rays", "max_cones"} <= set(data):
        return False
    dim, rays, cones = data["dim"], data["rays"], data["max_cones"]
    if type(dim) is not int or not 1 <= dim <= 3:
        return False
    if not isinstance(rays, list) or not isinstance(cones, list):
        return False
    for ray in rays:
        if not isinstance(ray, list) or len(ray) != dim or any(type(x) is not int for x in ray):
            return False
    for cone in cones:
        if not isinstance(cone, list) or any(type(i) is not int for i in cone):
            return False
        if len(set(cone)) != len(cone):
            return False
    return pairwise_validate(Fan(dim, rays, cones)) == (True, True, True)


def _check(path, text: str, valid: bool, dim) -> None:
    path.write_text(text)
    for command in FAN_COMMANDS + ("isomorphic",):
        argv = [command, str(path)] + (["catalog:P2"] if command == "isomorphic" else [])
        result = run(argv + ["--json"])
        assert result.status in ("ok", "error"), (argv, text)
        assert result.exit_code == (0 if result.status == "ok" else 1), (argv, text)
        expect_ok = valid and (command != "is-weakened-fano" or dim == 3)
        assert result.status == ("ok" if expect_ok else "error"), (argv, text[:300], result.payload)
        if result.status == "error" and command != "validate":
            assert isinstance(result.payload["error"], str)


def test_random_json_never_raises_and_invalid_input_is_an_error(tmp_path):
    rng = random.Random(20021)
    small = [nf.fan for nf in all_named().values() if len(nf.fan.rays) <= 6]
    path = tmp_path / "fan.json"
    counts = {True: 0, False: 0}
    for text in [DEEPLY_NESTED, EMPTY_FAN] + [_deep_ray(rng) for _ in range(5)]:
        _check(path, text, False, None)
    for case in range(300):
        kind = case % 5
        if kind == 0:
            data = _value(rng)
        elif kind in (1, 2):
            data = _fan_shaped(rng)
        else:
            data = _edited(rng, rng.choice(small))
        text = json.dumps(data)
        if rng.random() < 0.05:
            text = text[: rng.randrange(len(text) + 1)]
        try:
            parsed = json.loads(text)
        except (ValueError, RecursionError):
            parsed = None
        valid = parsed is not None and _is_valid_fan(parsed)
        counts[valid] += 1
        _check(path, text, valid, parsed["dim"] if valid else None)
    # both outcomes occur often enough to mean something
    assert counts[True] >= 20 and counts[False] >= 150
