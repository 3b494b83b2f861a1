import json
import random
import re
import subprocess
import sys
from operator import itemgetter

import pytest

from torifan.catalog import all_named, named_fan
from torifan.cli import _parse, build_parser, main, run
from torifan.lattice import matvec

from test_fan import DIM4_FAN

FLOAT_RAY_P2 = '{"dim": 2, "rays": [[1.7,0],[0,1],[-1,-1]], "max_cones": [[0,1],[1,2],[0,2]]}'
# every ray used and every index in range, so the one defect is ray 3 = ray 0
DUPLICATE_RAY_P2 = '{"dim": 2, "rays": [[1,0],[0,1],[-1,-1],[1,0]], "max_cones": [[0,1],[1,2],[2,3]]}'
PER_FAN_COMMANDS = ("analyze", "degree", "is-fano", "is-weak-fano", "is-weakened-fano")


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_degree_catalog_pseudo_path(capsys):
    code, out, _ = invoke(capsys, "degree", "catalog:X3_0", "--json")
    assert code == 0
    assert json.loads(out) == {"anticanonical_degree": 52}


def test_is_weakened_fano_json(capsys):
    code, out, _ = invoke(capsys, "is-weakened-fano", "catalog:P1xF2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_weakened"] is True
    assert payload["crepant_contractions"][0]["contraction"]["kind"] == "zero_two"


def test_false_predicate_still_exits_zero(capsys):
    code, out, _ = invoke(capsys, "is-fano", "catalog:F2", "--json")
    assert code == 0
    assert json.loads(out) == {"is_fano": False}


def test_validate_error_on_incomplete_fan(tmp_path, capsys):
    path = tmp_path / "fan.json"
    path.write_text('{"dim":2,"rays":[[1,0],[0,1],[-1,-1]],"max_cones":[[0,1],[1,2]]}')
    code, out, err = invoke(capsys, "validate", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["is_complete"] is False
    # human mode: the report on stdout, and only the flag that failed on stderr
    code, out, err = invoke(capsys, "validate", str(path))
    assert code == 1
    assert out.splitlines()[:3] == ["is_simplicial: True", "is_smooth: True", "is_complete: False"]
    assert err == "error: not complete\n"


def test_validate_ok(capsys):
    code, out, _ = invoke(capsys, "validate", "catalog:P2", "--json")
    assert code == 0
    assert json.loads(out)["is_complete"] is True


def test_unknown_catalog_name(capsys):
    code, out, _ = invoke(capsys, "degree", "catalog:NOPE", "--json")
    assert code == 1
    assert "unknown catalog name" in json.loads(out)["error"]
    # the KeyError's message, not its repr in quotes
    code, out, err = invoke(capsys, "degree", "catalog:Nope")
    assert code == 1 and out == ""
    assert err == "error: unknown catalog name 'Nope'\n"


@pytest.mark.parametrize("command", PER_FAN_COMMANDS + ("isomorphic",))
def test_per_fan_commands_name_the_defect_of_an_invalid_fan(tmp_path, capsys, command):
    path = tmp_path / "dup.json"
    path.write_text(DUPLICATE_RAY_P2)
    argv = [command, str(path)] + (["catalog:P2"] if command == "isomorphic" else [])
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: fan is invalid: duplicate_ray\n"
    code, out, err = invoke(capsys, *argv, "--json")
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": "fan is invalid: duplicate_ray"}


def test_malformed_json_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, out, _ = invoke(capsys, "analyze", str(path), "--json")
    assert code == 1


@pytest.mark.parametrize("first", ["short", "full"])
def test_a_repeated_key_is_refused_in_either_order(tmp_path, capsys, first):
    # json.loads alone keeps the last value: with the full cone list last
    # the file would read as P2, of degree 9, and the first list would be
    # dropped without a word
    cones = {"short": "[[0,1]]", "full": "[[0,1],[1,2],[0,2]]"}
    second = "full" if first == "short" else "short"
    path = tmp_path / "repeated.json"
    path.write_text(
        f'{{"dim": 2, "max_cones": {cones[first]}, "rays": [[1,0],[0,1],[-1,-1]], '
        f'"max_cones": {cones[second]}}}'
    )
    message = "fan JSON repeats the key 'max_cones'"
    code, out, err = invoke(capsys, "degree", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = invoke(capsys, "degree", str(path), "--json")
    assert code == 1 and err == "" and json.loads(out) == {"error": message}


def test_a_byte_order_mark_is_refused_with_the_message_of_json_loads(tmp_path, capsys):
    text = "\ufeff" + json.dumps(named_fan("P2").fan.to_dict())
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    path = tmp_path / "bom.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = invoke(capsys, "validate", str(path), "--json")
    assert code == 1 and json.loads(out) == {"error": expected.value.args[0]}


def _unreadable(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "missing.json", "cannot read {}: No such file or directory"
    if kind == "directory":
        return tmp_path, "cannot read {}: Is a directory"
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dim": 2, "rays": "\xe9"}'.encode("latin-1"))
    return path, "{} is not UTF-8 text"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_file_reports_the_reason_with_the_path(tmp_path, capsys, kind, json_flag):
    path, template = _unreadable(tmp_path, kind)
    code, out, err = invoke(capsys, "validate", str(path), *json_flag)
    assert code == 1
    message = template.format(path)
    if json_flag:
        assert json.loads(out) == {"error": message} and err == ""
    else:
        assert err == f"error: {message}\n" and out == ""


def test_failed_verify_lists_only_the_failed_assertions(capsys, monkeypatch):
    from torifan import classify

    summary = {
        "passed": False,
        "assertions": [
            {"name": "first", "passed": True, "detail": ""},
            {"name": "second", "passed": False, "detail": "2 != 3"},
            {"name": "third", "passed": True, "detail": ""},
        ],
    }
    monkeypatch.setattr(classify, "verify_classification", lambda: summary)
    code, out, err = invoke(capsys, "verify")
    assert code == 1
    assert out.splitlines() == ["PASS first", "FAIL second 2 != 3", "PASS third", "overall: FAIL"]
    assert err == "error: second: FAIL\n"


@pytest.mark.parametrize("text", [DIM4_FAN, FLOAT_RAY_P2], ids=["dim4", "float"])
def test_unsupported_input_exits_one_with_message(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = invoke(capsys, "validate", str(path))
    assert code == 1
    assert err.startswith("error: ")


def test_isomorphic_command(tmp_path, capsys):
    code, out, _ = invoke(capsys, "isomorphic", "catalog:P1xP1", "catalog:F1", "--json")
    assert code == 0
    assert json.loads(out)["isomorphic"] is False
    code, out, _ = invoke(capsys, "isomorphic", "catalog:X4_1", "catalog:X4_1", "--json")
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert payload["matrix"] is not None
    # a rebased X4_1 with its rays in reverse order: the matrix takes ray i
    # of the file to ray ray_permutation[i] of the catalog fan
    target = named_fan("X4_1").fan
    rebase = ((1, 2, 0), (0, 1, 0), (1, 1, 1))
    n = len(target.rays)
    rays = [matvec(rebase, target.rays[n - 1 - i]) for i in range(n)]
    cones = [[n - 1 - i for i in cone] for cone in target.max_cones]
    path = tmp_path / "x4_1.json"
    path.write_text(json.dumps({"dim": 3, "rays": rays, "max_cones": cones}))
    code, out, _ = invoke(capsys, "isomorphic", str(path), "catalog:X4_1", "--json")
    assert code == 0
    payload = json.loads(out)
    matrix, perm = payload["matrix"], payload["ray_permutation"]
    assert sorted(perm) == list(range(n))
    assert [matvec(matrix, ray) for ray in rays] == [target.rays[j] for j in perm]


def test_catalog_list(capsys):
    code, out, _ = invoke(capsys, "catalog", "--list", "--json")
    assert code == 0
    items = json.loads(out)["names"]
    names = {item["name"] for item in items}
    assert {"P2", "F2", "X3_0", "P1xW7", "PP2_O_O3"} <= names
    # human mode: one line per name, in the same order
    code, out, err = invoke(capsys, "catalog", "--list")
    assert code == 0 and err == ""
    assert out.splitlines() == [f"{item['name']}: {item['expected']}" for item in items]
    assert out.splitlines()[0] == "P2: {'rays': 3, 'picard': 1, 'degree': 9, 'fano': True, 'weak_fano': True}"


def test_catalog_dump_round_trips(capsys):
    from torifan.fan import fan_from_json

    code, out, _ = invoke(capsys, "catalog", "X5_1", "--json")
    assert code == 0
    assert fan_from_json(out) == named_fan("X5_1").fan


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["human", "json"])
def test_catalog_name_with_list_is_an_error(capsys, json_flag):
    code, out, err = invoke(capsys, "catalog", "--list", "X3_0", *json_flag)
    assert code == 1
    message = json.loads(out)["error"] if json_flag else err
    assert "X3_0" in message and "--list" in message
    if not json_flag:
        assert out == ""


def test_analyze_payload_shape(capsys):
    code, out, _ = invoke(capsys, "analyze", "catalog:F2", "--json")
    payload = json.loads(out)
    assert payload["picard_rank"] == 2
    degrees = sorted(rel["degree"] for rel in payload["relations"])
    assert degrees == [0, 2]
    assert all(rel["extremal"] for rel in payload["relations"])
    code, out, err = invoke(capsys, "analyze", "catalog:F2")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "picard rank: 2",
        "  collection [0, 1] -> sigma [] coeffs {} degree 2 extremal True",
        "  collection [2, 3] -> sigma [0] coeffs {'0': 2} degree 0 extremal True",
    ]


def test_analyze_pins_the_one_relation_of_p3(tmp_path, capsys):
    # the only smooth complete 3-fan with a collection of four rays
    path = tmp_path / "p3.json"
    path.write_text(json.dumps({"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                                "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}))
    code, out, _ = invoke(capsys, "analyze", str(path), "--json")
    assert code == 0
    [relation] = json.loads(out)["relations"]
    assert relation["collection"] == [0, 1, 2, 3] and relation["sigma"] == [] and relation["degree"] == 4
    assert relation["class"] == [1, 1, 1, 1] and relation["extremal"] is True


def test_verify_passes_through_the_cli(capsys):
    code, out, err = invoke(capsys, "verify")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "overall: PASS"
    assert len(lines) > 1 and all(line.startswith("PASS ") for line in lines[:-1])
    assert "PASS threefold_count_15 found 15 classes" in lines
    result = run(["verify", "--json"])
    assert result.status == "ok" and result.exit_code == 0
    assert result.payload["passed"] is True


def test_output_byte_stable(capsys):
    _, first, _ = invoke(capsys, "analyze", "catalog:X4_1", "--json")
    _, second, _ = invoke(capsys, "analyze", "catalog:X4_1", "--json")
    assert first == second


def _relabelled(rel: dict, perm: list) -> dict:
    """A relation of ``to_dict`` with ray i renamed perm[i]."""
    cls = [0] * len(perm)
    for i, x in enumerate(rel["class"]):
        cls[perm[i]] = x
    return {
        **rel,
        "collection": sorted(perm[i] for i in rel["collection"]),
        "sigma": sorted(perm[i] for i in rel["sigma"]),
        "coeffs": {str(perm[int(i)]): a for i, a in rel["coeffs"].items()},
        "class": cls,
    }


def test_relabelling_changes_no_relation_extremality_or_verdict(tmp_path):
    """Every catalog fan with its rays permuted and its maximal cones in
    reverse order, so that another cone comes first, gives the relations,
    extremal flags, verdict and contraction table of the original, mapped
    through the permutation."""
    rng = random.Random(34)
    named = all_named()
    assert len(named) == 34
    for name, nf in named.items():
        fan = nf.fan
        perm = list(range(len(fan.rays)))
        rng.shuffle(perm)
        rays = [None] * len(perm)
        for i, ray in enumerate(fan.rays):
            rays[perm[i]] = list(ray)
        cones = [[perm[i] for i in cone] for cone in reversed(fan.max_cones)]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"dim": fan.dim, "rays": rays, "max_cones": cones}))

        # relation order is collection order, which the permutation changes
        original = run(["analyze", f"catalog:{name}", "--json"]).payload
        moved = run(["analyze", str(path), "--json"]).payload
        assert moved["picard_rank"] == original["picard_rank"], name
        expected = sorted((_relabelled(rel, perm) for rel in original["relations"]), key=itemgetter("collection"))
        assert sorted(moved["relations"], key=itemgetter("collection")) == expected, name

        original = run(["is-weakened-fano", f"catalog:{name}", "--json"])
        moved = run(["is-weakened-fano", str(path), "--json"])
        assert moved.status == original.status, name
        if original.status == "error":  # a surface
            assert fan.dim == 2 and moved.payload == original.payload, name
            continue
        table = original.payload.pop("crepant_contractions")
        expected = []
        for entry in table:
            kind = dict(entry["contraction"])
            if "exceptional_ray" in kind:
                kind["exceptional_ray"] = perm[kind["exceptional_ray"]]
            expected.append({"relation": _relabelled(entry["relation"], perm), "contraction": kind})
        table = sorted(moved.payload.pop("crepant_contractions"), key=lambda e: e["relation"]["collection"])
        assert table == sorted(expected, key=lambda e: e["relation"]["collection"]), name
        assert moved.payload == original.payload, name


def test_run_returns_result_object():
    result = run(["degree", "catalog:P2", "--json"])
    assert result.status == "ok"
    assert result.payload == {"anticanonical_degree": 9}
    assert result.exit_code == 0


F, G = "fan.json", "catalog:P2"  # parsing never opens a fan
PARSE_CASES = [
    *([command, *argv] for command in ("validate",) + PER_FAN_COMMANDS
      for argv in ([F], [F, "--json"], ["--json", F])),
    ["isomorphic", F, G], ["isomorphic", F, G, "--json"], ["isomorphic", "--json", F, G], ["isomorphic", F],
    ["catalog"], ["catalog", "P2", "--json"], ["catalog", "--json", "--list"], ["catalog", "P2", "extra"],
    ["classify-surfaces"], ["classify-surfaces", "--stats", "--json"], ["classify-surfaces", "--stats=1"],
    ["classify-3folds", "--json"], ["classify-3folds", "--stats", "--twist-bound", "4"],
    ["classify-3folds", "--twist-bound", "2.5"], ["classify-3folds", "--twist", "4"],
    ["classify-3folds", "--twist-bound=4", "--json"], ["classify-3folds", "--twist-bound"],
    ["verify"], ["verify", "--json"], ["verify", "extra"],
    ["validate", "--js", F], ["validate", "--", F], ["validate", F, "--", "--json"], ["validate", "-1"],
    ["validate", F, "extra"], ["validate", F, "extra", "--bogus"], ["validate", F, "--bogus"],
    ["validate", "--bogus", F], ["validate", "--json=1", F], ["validate"], ["validate", "--json"],
    ["validate", "-h"], ["validate", F, "--he"], ["catalog", "--help"],
    ["-h"], ["--help"], [], ["nosuch"], ["nosuch", F], ["validat", F], ["--json", "validate", F], ["-h", "validate"],
]


def _outcome(parse, argv, capsys):
    """The namespace or the exit code, and the stdout and stderr, of one parse."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=[" ".join(argv) or "(empty)" for argv in PARSE_CASES])
def test_a_command_parsed_once_parses_as_the_top_level_parser_does(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "100")
    assert _outcome(_parse, argv, capsys) == _outcome(build_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("argv", [["degree", F, "--json"], ["degree", F, "extra"], []], ids=["ok", "extra", "empty"])
def test_a_missing_argv_is_read_from_sys_argv(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["torifan", *argv])
    assert _outcome(_parse, None, capsys) == _outcome(build_parser().parse_args, None, capsys)


SUBCOMMAND_HELP = [
    ("validate", "validate a fan (smooth, complete)"),
    ("analyze", "primitive relations with degrees and extremality"),
    ("degree", "anticanonical degree (-K)^d"),
    ("is-fano", "every wall curve has positive degree"),
    ("is-weak-fano", "every wall curve has nonnegative degree"),
    ("is-weakened-fano", "weakened Fano verdict with contraction table"),
    ("isomorphic", "decide unimodular fan isomorphism"),
    ("catalog", "dump named fans"),
    ("classify-surfaces", "enumerate weak del Pezzo surfaces"),
    ("classify-3folds", "enumerate weakened Fano 3-folds"),
    ("verify", "full classification cross-check"),
]


def test_top_level_help_lists_every_subcommand_in_order_with_its_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # wide enough that no help line wraps
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    names = [name for name, _ in SUBCOMMAND_HELP]
    assert "{" + ",".join(names) + "}" in out.splitlines()[0]
    # argparse indents each subcommand by four spaces and its help past it
    listed = [tuple(re.split(r"\s{2,}", line.strip(), maxsplit=1))
              for line in out.splitlines() if re.match(r"    \S", line)]
    assert listed == SUBCOMMAND_HELP


def test_human_output_contains_table(capsys):
    code, out, _ = invoke(capsys, "validate", "catalog:P2")
    assert code == 0
    assert "is_smooth: True" in out


@pytest.mark.parametrize("argv", [["degree", "catalog:P2"], ["catalog", "P2"]], ids=["degree", "catalog"])
def test_human_mode_prints_any_other_payload_as_indented_json(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0 and err == ""
    if argv[0] == "degree":
        assert out == '{\n  "anticanonical_degree": 9\n}\n'
    else:
        assert out == json.dumps(named_fan("P2").fan.to_dict(), indent=2) + "\n"


def test_twist_bound_env_override():
    # the bound is set only by --twist-bound; there is no environment override
    result = run(["classify-3folds", "--twist-bound", "1", "--json"])
    assert result.status == "error"  # bound 1 is rejected by the enumerator
    assert "box misses candidate twists" in result.payload["error"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "torifan", "degree", "catalog:P2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"anticanonical_degree": 9}


def test_a_reader_that_goes_away_gets_no_traceback():
    # the pipe is closed before verify prints, so its first write fails
    with subprocess.Popen(
        [sys.executable, "-m", "torifan", "verify"], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


SWEEP_STATS_B3 = {
    "box_points": 2704,
    "pruned_by_phi": 2400,
    "built": 304,
    "fano": 27,
    "weak_not_weakened": 255,
    "weakened": 22,
    "duplicates": 7,
    "classes": 15,
}


def test_classify_3folds_stats(capsys):
    # human mode: the counters go to stderr, one per line
    code, out, err = invoke(capsys, "classify-3folds", "--stats")
    assert code == 0
    assert err.splitlines() == [f"{name}: {count}" for name, count in SWEEP_STATS_B3.items()]
    assert "box_points" not in out
    table = out.splitlines()[3:]
    # --json: a "stats" key, only when asked for
    code, out, err = invoke(capsys, "classify-3folds", "--stats", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["stats"] == SWEEP_STATS_B3
    # the human table names each class as the JSON does, in the same order
    assert [row.split()[0] for row in table] == [entry["name"] for entry in payload["classes"]]
    assert "X3_0" in [row.split()[0] for row in table]
    code, out, err = invoke(capsys, "classify-3folds", "--json")
    assert code == 0 and err == ""
    assert "stats" not in json.loads(out)
    assert {**json.loads(out), "stats": SWEEP_STATS_B3} == payload


def test_classify_surfaces_stats(capsys):
    stats = {"seeds": 3, "blowups": 96, "weak_fano": 40, "duplicates": 27, "classes": 16}
    code, out, err = invoke(capsys, "classify-surfaces", "--stats")
    assert code == 0
    assert err.splitlines() == [f"{name}: {count}" for name, count in stats.items()]
    assert "blowups" not in out
    code, out, err = invoke(capsys, "classify-surfaces", "--stats", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    code, out, err = invoke(capsys, "classify-surfaces", "--json")
    assert code == 0 and err == ""
    assert {**json.loads(out), "stats": stats} == payload
