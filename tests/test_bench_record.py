"""The judgement that ``scripts/bench_record.py`` adds to a BENCH record."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load_bench_record()

END_TO_END = [
    {"name": "solve_s", "better": "lower", "bound": 0.2},
    {"name": "ok_rate", "better": "higher", "bound": 0.02},
    {"name": "queries_per_s", "better": "higher", "bound": 0.25},
    {"name": "failures", "better": "lower", "bound": 0.1},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def _runs(**columns):
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


def test_judge_a_synthetic_record():
    parent = _runs(solve_s=[1.0] * 5, ok_rate=[1.0] * 5, queries_per_s=[100] * 5, failures=[0] * 5)
    change = _runs(solve_s=[1.3, 0.9, 1.0, 1.3, 1.3], ok_rate=[1.0, 1.0, 1.0, 0.9, 1.0],
                   queries_per_s=[70] * 5, failures=[0] * 5)
    record = {"workloads": {"w": {"parent": {"runs": parent}, "change": {"runs": change}}}}
    rows = bench_record.judge(record, END_TO_END)["w"]
    # a metric that no run reports is left out
    assert set(rows) == {"solve_s", "ok_rate", "queries_per_s", "failures"}
    solve = rows["solve_s"]
    assert solve["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert solve["change"] == {"median": 1.3, "q1": pytest.approx(0.95), "q3": 1.3}
    assert solve["relative"] == pytest.approx(0.3)
    # one pair won (0.9 < 1.0), one tie counted for neither side, +30% past a 20% bound
    assert (solve["won"], solve["pairs"], solve["worse"]) == (1, 5, True)
    assert (rows["ok_rate"]["won"], rows["ok_rate"]["worse"]) == (0, False)
    assert rows["queries_per_s"]["relative"] == pytest.approx(-0.3)
    assert rows["queries_per_s"]["worse"]
    assert rows["failures"]["relative"] is None and not rows["failures"]["worse"]
    lines = bench_record.judgement_lines({"w": rows})
    assert len(lines) == 4
    assert "won 1/5" in lines[0] and lines[0].endswith("WORSE") and "+30.0%" in lines[0]
    assert not lines[1].endswith("WORSE") and "n/a" in lines[3]


def test_judge_the_wall_table_record():
    record = json.loads((ROOT / "BENCH_wall_table.json").read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    judgement = bench_record.judge(record, end_to_end)
    assert set(judgement) == {"sweep-b3", "query-mix", "reject-mix"}
    assert all(len(rows) == len(end_to_end) for rows in judgement.values())
    # that change claimed no gain, and no end-to-end metric passed its bound
    assert not any(row["worse"] for rows in judgement.values() for row in rows.values())
    sweep = judgement["sweep-b3"]["solve_s"]
    assert (sweep["won"], sweep["pairs"]) == (6, 10)
    assert sweep["parent"]["q3"] - sweep["parent"]["q1"] == pytest.approx(0.00245, abs=5e-5)
    query = judgement["query-mix"]["solve_s"]
    assert query["won"] == 10 and query["relative"] == pytest.approx(-0.124, abs=1e-3)


def test_per_layer_medians_of_three_traced_runs(monkeypatch):
    # perfbench itself is replaced: each run reports its side, seed and a
    # per-layer time, and the calls are logged in order
    order = []

    def fake_perfbench(checkout, workload, seed, seconds, trace):
        order.append((checkout, seed))
        self_s = {"parent": [0.050, 0.026, 0.040], "change": [0.033, 0.031, 0.090]}[checkout]
        # like perfbench's traced runs, no end-to-end metric such as solve_s
        run = {"fan.validate.self_s": self_s[seed - bench_record.TRACE_SEED], "fan.validate.calls": 317}
        if seed != bench_record.TRACE_SEED:
            run["only_in_some_runs"] = 1.0
        return run

    monkeypatch.setattr(bench_record, "perfbench", fake_perfbench)
    seeds = [bench_record.TRACE_SEED + i for i in range(bench_record.TRACE_RUNS)]
    sides = {"parent": "parent", "change": "change"}
    traced = bench_record.alternating_runs(sides, "sweep-b3", seeds, 1, True)
    first, second, third = seeds
    assert order == [("parent", first), ("change", first), ("change", second), ("parent", second),
                     ("parent", third), ("change", third)]
    assert [r["fan.validate.self_s"] for r in traced["parent"]["runs"]] == [0.050, 0.026, 0.040]
    # the median of each metric that every run reports, next to the runs
    assert traced["parent"]["median"] == {"fan.validate.calls": 317, "fan.validate.self_s": 0.040}
    assert traced["change"]["median"]["fan.validate.self_s"] == 0.033
    assert bench_record.medians([{"a": 1, "b": 5}, {"a": 3}, {"a": 2, "b": 7}]) == {"a": 2}


def _checkout_whose_run(tmp_path, body: str) -> Path:
    """A checkout whose ``perfbench/run.py`` is ``body``."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(body)
    return tmp_path


def test_a_failed_run_names_its_reason(tmp_path):
    checkout = _checkout_whose_run(tmp_path, (
        "import sys\n"
        "print('partial output')\n"
        "print('\\n'.join(f'noise {i}' for i in range(30)), file=sys.stderr)\n"
        "print('fan 7 does not parse', file=sys.stderr)\n"
        "sys.exit(3)\n"
    ))
    with pytest.raises(SystemExit) as stop:
        bench_record.perfbench(checkout, "query-mix", 4, 1, False)
    lines = str(stop.value.code).splitlines()
    assert lines[0].startswith(f"{checkout}: query-mix seed 4 failed (exit code 3)")
    # the reason is the last line of stderr; the oldest lines are cut
    assert lines[-1] == "fan 7 does not parse"
    assert len(lines) == 1 + bench_record.STDERR_TAIL
    assert "noise 29" in lines and "noise 0" not in lines


def test_a_run_without_a_json_result_is_reported(tmp_path):
    checkout = _checkout_whose_run(tmp_path, "")
    # an empty stdout, and a last line that is not JSON
    for body in ("", "print('{\"correct\": true}')\nprint('done')\n"):
        (checkout / "perfbench" / "run.py").write_text(body + "import sys\nsys.stderr.write('a warning')\n")
        with pytest.raises(SystemExit, match=r"(?s)reject-mix seed 1 printed no JSON result .*"
                                             r"\(exit code 0\).*a warning"):
            bench_record.perfbench(checkout, "reject-mix", 1, 1, False)


def test_judge_the_traced_layers():
    per_layer = [
        {"name": "fan.validate.calls", "unit": "count"},
        {"name": "primitive.is_extremal.calls", "unit": "count"},
        {"name": "fan.validate.self_s", "unit": "s"},
        {"name": "classify.build_bundle.self_s", "unit": "s"},
        {"name": "lattice.solve_rational.self_s", "unit": "s"},
        {"name": "primitive.is_extremal.true_ratio", "unit": "ratio"},
        {"name": "missing.calls", "unit": "count"},
    ]
    parent = _runs(**{"fan.validate.calls": [317] * 3, "primitive.is_extremal.calls": [388] * 3,
                      "fan.validate.self_s": [0.030, 0.020, 0.025], "classify.build_bundle.self_s": [0.010] * 3,
                      "lattice.solve_rational.self_s": [0.0] * 3, "primitive.is_extremal.true_ratio": [0.9] * 3})
    change = _runs(**{"fan.validate.calls": [317, 318, 317], "primitive.is_extremal.calls": [0] * 3,
                      "fan.validate.self_s": [0.012, 0.015, 0.018],
                      "classify.build_bundle.self_s": [0.009, 0.014, 0.008],
                      "lattice.solve_rational.self_s": [0.0] * 3, "primitive.is_extremal.true_ratio": [0.0] * 3})
    rows = bench_record.judge_layers({"parent": {"runs": parent}, "change": {"runs": change}}, per_layer)
    # ratios, metrics that no run reports and times that are 0 in every
    # run are left out
    assert set(rows) == {"fan.validate.calls", "primitive.is_extremal.calls", "fan.validate.self_s",
                         "classify.build_bundle.self_s"}
    # a count that differs between runs of one side is flagged; one that
    # differs only between the sides is not
    assert rows["fan.validate.calls"] == {"parent": [317], "change": [317, 318], "varies": ["change"]}
    assert rows["primitive.is_extremal.calls"]["varies"] == []
    # [0.012, 0.018] lies below [0.020, 0.030]: compared by medians
    validate = rows["fan.validate.self_s"]
    assert validate["parent"] == {"median": 0.025, "min": 0.020, "max": 0.030}
    assert validate["verdict"] == "lower" and validate["relative"] == pytest.approx(-0.4)
    # [0.008, 0.014] holds 0.010: no median comparison
    build = rows["classify.build_bundle.self_s"]
    assert build["verdict"] == "unresolved" and build["relative"] is None
    lines = bench_record.layer_lines(rows)
    assert lines[0].endswith("VARIES at change") and "VARIES" not in lines[1]
    assert lines[2].endswith("lower  -40.0%") and lines[3].endswith("unresolved")


def test_judge_the_traced_layers_of_the_one_walk_record():
    record = json.loads((ROOT / "BENCH_one_walk.json").read_text())
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    rows = bench_record.judge_layers(record["traced_sweep_b3"], per_layer)
    # the sweep's 54.7-75.1 ms at the parent and 59.4-93.1 ms at the change
    # overlap, so the slower median at the change is not read as a change
    assert rows["classify.enumerate_weakened_threefolds.total_s"]["verdict"] == "unresolved"
    assert rows["contraction.zero_two_normal_form_witness.total_s"]["verdict"] == "unresolved"
    # the counts that change moved, and none that varies within a side
    witness = rows["contraction.zero_two_normal_form_witness.calls"]
    assert witness == {"parent": [314], "change": [313], "varies": []}
    assert rows["primitive.is_extremal.calls"] == {"parent": [305], "change": [388], "varies": []}
    assert not any(row.get("varies") for row in rows.values())
    # the dead targets' times read 0 on both sides and are left out
    assert "lattice.solve_rational.self_s" not in rows and "lattice.solve_rational.calls" in rows
