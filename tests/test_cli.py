import json
import subprocess
import sys

import pytest

from torifan.cli import main, run

from test_fan import DIM4_FAN

FLOAT_RAY_P2 = '{"dim": 2, "rays": [[1.7,0],[0,1],[-1,-1]], "max_cones": [[0,1],[1,2],[0,2]]}'


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


def test_validate_ok(capsys):
    code, out, _ = invoke(capsys, "validate", "catalog:P2", "--json")
    assert code == 0
    assert json.loads(out)["is_complete"] is True


def test_unknown_catalog_name(capsys):
    code, out, _ = invoke(capsys, "degree", "catalog:NOPE", "--json")
    assert code == 1
    assert "unknown catalog name" in json.loads(out)["error"]


def test_malformed_json_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, out, _ = invoke(capsys, "analyze", str(path), "--json")
    assert code == 1


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


def test_catalog_list(capsys):
    code, out, _ = invoke(capsys, "catalog", "--list", "--json")
    assert code == 0
    names = {item["name"] for item in json.loads(out)["names"]}
    assert {"P2", "F2", "X3_0", "P1xW7", "PP2_O_O3"} <= names


def test_catalog_dump_round_trips(capsys):
    from torifan.catalog import named_fan
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


def test_output_byte_stable(capsys):
    _, first, _ = invoke(capsys, "analyze", "catalog:X4_1", "--json")
    _, second, _ = invoke(capsys, "analyze", "catalog:X4_1", "--json")
    assert first == second


def test_run_returns_result_object():
    result = run(["degree", "catalog:P2", "--json"])
    assert result.status == "ok"
    assert result.payload == {"anticanonical_degree": 9}
    assert result.exit_code == 0


def test_human_output_contains_table(capsys):
    code, out, _ = invoke(capsys, "validate", "catalog:P2")
    assert code == 0
    assert "is_smooth: True" in out


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
    # --json: a "stats" key, only when asked for
    code, out, err = invoke(capsys, "classify-3folds", "--stats", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["stats"] == SWEEP_STATS_B3
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
