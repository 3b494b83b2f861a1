"""Record a BENCH_<label>.json from perfbench runs of a parent checkout and of this one.

Run from the root of a checkout, with the parent commit checked out in
another directory (for example by ``git clone``):

    python3 scripts/bench_record.py --parent ../parent --label int_simplex

Every workload runs RUNS times per side at seeds ``--seed``, ``--seed`` + 1,
..., for the ``run_seconds`` of BENCHMARK.json, alternating which side goes
first; ten pairs are what a claimed gain is judged on. Both checkouts must
be clean (untracked files aside), so each side is exactly its commit. The
file holds the Python version, nproc, both commits, every run's end-to-end
metrics with their medians per side, and the per-layer metrics of TRACE_RUNS
traced sweep-b3 runs per side (seeds TRACE_SEED, TRACE_SEED + 1, ...,
alternating in the same way) with the median of each metric, since one
traced run swings too widely to carry a per-layer claim. It also judges the record (``judge``): for every
workload and end-to-end metric of BENCHMARK.json, both medians and
quartiles, the relative change, the pairs the change won, and whether its
median is worse than the parent's by more than the metric's bound; the
judgement goes into the file and is printed. The traced runs are judged
too (``judge_layers``): a call count that differs between the runs of one
side is flagged, and a per-layer time is compared only when the ranges
of the two sides do not overlap. Standard library only; perfbench itself
is not changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-b3", "query-mix", "reject-mix")
RUNS = 10
TRACE_SEED = 901  # the first seed of the traced sweep-b3 runs quoted in ROADMAP.md
TRACE_RUNS = 3
STDERR_TAIL = 20  # lines of a failed run's stderr quoted when it stops the record


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run; its last stdout line is the JSON result.

    A run that exits non-zero, or whose last stdout line is not JSON, stops
    the record with ``SystemExit`` naming the checkout, workload, seed, exit
    code and the last ``STDERR_TAIL`` lines of the run's stderr.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)

    def failed(why: str) -> SystemExit:
        tail = done.stderr.strip().splitlines()[-STDERR_TAIL:]
        return SystemExit("\n".join([f"{checkout}: {workload} seed {seed} {why} "
                                      f"(exit code {done.returncode}); its stderr ends:", *tail]))

    if done.returncode != 0:
        raise failed("failed")
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise failed("printed no JSON result as its last stdout line") from None
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} gave wrong answers")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def medians(runs: list[dict]) -> dict:
    """metric -> the median over ``runs`` of each metric that every run reports."""
    names = set(runs[0]).intersection(*runs[1:])
    return {name: statistics.median(r[name] for r in runs) for name in sorted(names)}


def alternating_runs(sides: dict, workload: str, seeds: list[int], seconds: float,
                     trace: bool) -> dict:
    """side -> {"median", "runs"}: one run per side and seed, the parent first
    at even positions of ``seeds`` and the change first at odd ones."""
    # a traced run reports per-layer metrics only
    shown = "fan.validate.self_s" if trace else "solve_s"
    runs = {side: [] for side in sides}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(perfbench(sides[side], workload, seed, seconds, trace))
            print(f"{workload}{' traced' if trace else ''} seed {seed} {side}: "
                  f"{shown} {runs[side][-1][shown]:.4f}", file=sys.stderr)
    return {side: {"median": medians(side_runs), "runs": side_runs} for side, side_runs in runs.items()}


def commit(checkout: Path) -> str:
    """The commit checked out in ``checkout``; refuses tracked changes on top of it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                              check=True).stdout.strip()

    if git("status", "--porcelain", "--untracked-files=no"):
        raise SystemExit(f"{checkout}: uncommitted changes; commit them before recording")
    return git("rev-parse", "HEAD")


def judge(record: dict, end_to_end: list[dict]) -> dict:
    """workload -> metric -> the two sides of a record compared, run pair by run pair.

    ``end_to_end`` is the list of that name in BENCHMARK.json (name, better,
    bound). For each side: the median and the quartiles (``statistics.quantiles``,
    exclusive method) of its runs. ``relative`` is (change - parent) / parent
    of the medians, None when the parent's is 0. Run i of each side shares a
    seed, and ``won`` counts the pairs in which the change is strictly better;
    ties count for neither side. ``worse`` is true when the change's median is
    worse than the parent's by more than ``bound``, relative to the parent's.
    Metrics that a workload does not report are left out.
    """
    out = {}
    for workload, sides in record["workloads"].items():
        rows = {}
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            runs = {side: [r[name] for r in sides[side]["runs"]] for side in ("parent", "change")
                    if all(name in r for r in sides[side]["runs"])}
            if len(runs) < 2:
                continue
            row = {}
            for side, values in runs.items():
                q1, median, q3 = statistics.quantiles(values, n=4)
                row[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
            p, c = row["parent"]["median"], row["change"]["median"]
            row["relative"] = (c - p) / abs(p) if p else None
            row["won"] = sum(b < a if lower else b > a for a, b in zip(runs["parent"], runs["change"]))
            row["pairs"] = min(map(len, runs.values()))
            limit = abs(p) * metric["bound"]
            row["worse"] = c - p > limit if lower else p - c > limit
            rows[name] = row
        out[workload] = rows
    return out


def judge_layers(traced: dict, per_layer: list[dict]) -> dict:
    """metric -> the traced runs of the two sides compared, for the per-layer
    call counts and times of BENCHMARK.json that every traced run reports.

    ``per_layer`` is the list of that name in BENCHMARK.json. A ``.calls``
    count is the same in every run of a side unless something other than
    the code changes it, so each side gets its sorted distinct values and
    ``varies`` lists the sides with more than one. A time (unit ``s``) gets
    each side's median, min and max. Three runs cannot tell a change that
    is smaller than the spread of one side, so when the two [min, max]
    ranges overlap the time is ``unresolved`` and no relative change is
    given; otherwise ``relative`` is (change - parent) / parent of the
    medians, None when the parent's is 0, and the time is ``lower`` or
    ``higher`` at the change. A time that reads 0 in every run of both
    sides, a layer that neither entered, is left out.
    """
    sides = ("parent", "change")
    rows = {}
    for metric in per_layer:
        name = metric["name"]
        runs = {side: [r[name] for r in traced[side]["runs"] if name in r] for side in sides}
        if any(len(runs[side]) != len(traced[side]["runs"]) for side in sides):
            continue
        if name.endswith(".calls"):
            row = {side: sorted(set(runs[side])) for side in sides}
            row["varies"] = [side for side in sides if len(row[side]) > 1]
        elif metric["unit"] == "s" and any(runs["parent"] + runs["change"]):
            row = {side: {"median": statistics.median(v), "min": min(v), "max": max(v)}
                   for side, v in runs.items()}
            p, c = row["parent"], row["change"]
            if p["min"] <= c["max"] and c["min"] <= p["max"]:
                row["verdict"], row["relative"] = "unresolved", None
            else:
                row["verdict"] = "lower" if c["max"] < p["min"] else "higher"
                row["relative"] = (c["median"] - p["median"]) / p["median"] if p["median"] else None
        else:
            continue
        rows[name] = row
    return rows


def layer_lines(rows: dict) -> list[str]:
    """One line per layer metric: call counts with a VARIES flag, or times
    with their ranges and verdict."""
    lines = []
    for name, row in rows.items():
        if "varies" in row:
            flag = "".join(f"  VARIES at {side}" for side in row["varies"])
            lines.append(f"traced     {name:48s} parent {row['parent']}  change {row['change']}{flag}")
        else:
            parent, change = row["parent"], row["change"]
            relative = "" if row["relative"] is None else f"  {100 * row['relative']:+.1f}%"
            lines.append(
                f"traced     {name:48s} parent {parent['median']:.4g} [{parent['min']:.4g}, {parent['max']:.4g}]"
                f"  change {change['median']:.4g} [{change['min']:.4g}, {change['max']:.4g}]"
                f"  {row['verdict']}{relative}"
            )
    return lines


def judgement_lines(judgement: dict) -> list[str]:
    """One line per workload and metric: medians [q1, q3], change, pairs won, WORSE flag."""
    lines = []
    for workload, rows in judgement.items():
        for name, row in rows.items():
            parent, change = row["parent"], row["change"]
            relative = "n/a" if row["relative"] is None else f"{100 * row['relative']:+.1f}%"
            lines.append(
                f"{workload:10s} {name:21s} parent {parent['median']:.4g} [{parent['q1']:.4g}, {parent['q3']:.4g}]"
                f"  change {change['median']:.4g} [{change['q1']:.4g}, {change['q3']:.4g}]"
                f"  {relative}  won {row['won']}/{row['pairs']}" + ("  WORSE" if row["worse"] else "")
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=951,
                        help="first seed; use seeds no earlier run has seen")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    out = {
        "label": args.label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commits": {side: commit(path) for side, path in sides.items()},
        "seconds": seconds,
        "seeds": [args.seed + i for i in range(RUNS)],
        "workloads": {},
    }
    for workload in WORKLOADS:
        out["workloads"][workload] = alternating_runs(sides, workload, out["seeds"], seconds, False)
    trace_seeds = [TRACE_SEED + i for i in range(TRACE_RUNS)]
    out["traced_sweep_b3"] = {
        "seeds": trace_seeds,
        **alternating_runs(sides, "sweep-b3", trace_seeds, seconds, True),
    }
    out["judgement"] = judge(out, benchmark["end_to_end"])
    out["traced_judgement"] = judge_layers(out["traced_sweep_b3"], benchmark["per_layer"])
    print("\n".join(judgement_lines(out["judgement"]) + layer_lines(out["traced_judgement"])), file=sys.stderr)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
