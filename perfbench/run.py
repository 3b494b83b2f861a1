"""Benchmark of torifan: one workload per process, single-threaded, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 15 --trace 0

Workloads:
  sweep-b3    both classifications: enumerate_weak_del_pezzo() and
              enumerate_weakened_threefolds(3), then every CLI command on each
              class found. The seed is ignored; the twist bound is the input.
  query-mix   every CLI command on seeded GL(d, Z) rebasings of all named fans
              and of non-weak-Fano surfaces and P1 x those.
  reject-mix  every CLI command on corrupted fans and malformed JSON, each
              certified invalid by the benchmark; all must come back as errors.

Every answer is checked against ``reference``. With --trace 0 the last line
holds the end-to-end metrics, all times at calibrated reference speed (see
``calibration``); with --trace 1 an untraced and a traced pass give the
per-layer metrics, and the spans are written to perfbench/_work/. The run
exits nonzero, without a result line, when the torifan sources are missing.
perfbench/baseline.json defines every metric and holds the seed baseline.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

import workloads as wl  # noqa: E402
from calibration import Calibrator  # noqa: E402
from quantile import harrell_davis  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("sweep-b3", "query-mix", "reject-mix")
SETUPS = 5
TWIST_BOUND = 3
RESULT_PASSES = 3  # passes over the classes a sweep found, for steady latencies
PER_COMMAND = {
    "validate": "validate_geomean_ms",
    "analyze": "analyze_geomean_ms",
    "degree": "degree_geomean_ms",
    "is-weakened-fano": "weakened_geomean_ms",
    "isomorphic": "isomorphic_geomean_ms",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "solve_s": "s",
    "solve_cpu_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    **{metric: "ms" for metric in PER_COMMAND.values()},
}


def _sweep_observer(result, parent):
    if parent == "classify.enumerate_weakened_threefolds":
        yield "sweep"
        if result.is_weak_fano:
            yield "sweep_weak"
        if result.is_weakened:
            yield "sweep_weakened"


SPAN_TARGETS = {
    "cli.run": None,
    "fan.fan_from_json": None,
    "fan.validate": lambda r, _: ("reject",) if not r.ok else (),
    "classify.enumerate_weak_del_pezzo": None,
    "classify.enumerate_weakened_threefolds": None,
    "classify.build_bundle": None,
    "primitive.primitive_collections": None,
    "primitive.is_extremal": lambda r, _: ("true",) if r else (),
    "lattice.has_nonneg_combination": None,
    "lattice.solve_rational": None,
    "contraction.is_weakened_fano": _sweep_observer,
    "contraction.zero_two_normal_form_witness": None,
    "contraction.hirzebruch_type": None,
    "polytope.anticanonical_volume": None,
    "polytope.anticanonical_degree": None,
    "isomorphism.find_isomorphism": lambda r, _: ("hit",) if r is not None else (),
    "isomorphism.canonical_key": None,
}
COUNT_TARGETS = ("lattice.kernel_directions", "lattice.invert_unimodular")


PER_LAYER_UNITS = {
    **{f"{target}.{field}": unit for target in SPAN_TARGETS
       for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    **{f"{target}.calls": "count" for target in COUNT_TARGETS},
    "fan.validate.reject_ratio": "ratio",
    "primitive.is_extremal.true_ratio": "ratio",
    "isomorphism.find_isomorphism.hit_ratio": "ratio",
    "classify.weak_fano_count": "count",
    "classify.weakened_count": "count",
    "classify.class_count": "count",
    "classify.weak_fano_ratio": "ratio",
    "classify.weakened_ratio": "ratio",
    "classify.dedup_ratio": "ratio",
    "catalog.build_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.missing_targets": "count",
}


# -- set-up ---------------------------------------------------------------------


def import_torifan():
    """Fresh import of torifan from this checkout's src/, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "torifan" / "__init__.py").is_file():
        raise wl.BenchError(f"no torifan sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "torifan" or m.startswith("torifan.")]:
        del sys.modules[name]
    torifan = importlib.import_module("torifan")
    importlib.import_module("torifan.cli")
    if not Path(torifan.__file__).resolve().is_relative_to(src):
        raise wl.BenchError(f"torifan was imported from {torifan.__file__}, not from {src}")
    return torifan


def smoke_subset(queries, limit: int):
    """At most ``limit`` evenly spaced queries of each command."""
    out = []
    for command in wl.COMMANDS:
        same = [q for q in queries if q.command == command]
        out += same[:: max(1, len(same) // limit)][:limit]
    return out


class Setup:
    """Import, catalog build and input generation, repeated; the last one is kept."""

    def __init__(self, workload: str, seed: int, work_dir: Path, clock, repeats: int = SETUPS, limit=None):
        self.spans = []
        self.catalog_spans = []
        for _ in range(repeats):
            if work_dir.exists():
                shutil.rmtree(work_dir)
            work_dir.mkdir(parents=True)
            start = clock.mark()
            self.torifan = import_torifan()
            catalog_start = clock.mark()
            named = self.torifan.catalog.all_named()
            self.catalog_spans.append(clock.stop(catalog_start))
            self.catalog = wl.plain_catalog(named)
            if workload == "query-mix":
                self.queries = wl.query_mix(seed, self.catalog, work_dir)
            elif workload == "reject-mix":
                self.queries = wl.reject_mix(seed, self.catalog, work_dir)
            else:
                self.queries = []
            if limit is not None:
                self.queries = smoke_subset(self.queries, limit)
            self.spans.append(clock.stop(start))
        gc.collect()
        gc.freeze()


# -- measuring ------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, timed spans, and failures by known defect."""

    def __init__(self, catalog):
        self.catalog = catalog
        self.attempted = 0
        self.failed = 0
        self.by_defect: dict[str, int] = {}
        self.unexpected: list[str] = []
        self.calls: list[tuple[int, str, object]] = []  # (pass, command, span) per query
        self.solves: list = []  # one span per sweep
        self.passes = 0

    def fail(self, what: str, defect=None) -> None:
        self.failed += 1
        if defect is None:
            self.unexpected.append(what)
        else:
            self.by_defect[defect] = self.by_defect.get(defect, 0) + 1

    def run_queries(self, cli, queries, clock, tracer=None) -> None:
        """One pass over the queries, each timed and checked."""
        self.passes += 1
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.request = i + 1
            # every call starts from an empty young generation, so collector
            # pauses fall on the call that caused them
            gc.collect()
            start = clock.mark()
            try:
                result, escaped = cli.run(q.argv), None
            except Exception as exc:  # an escaping exception is a failed operation
                result, escaped = None, exc
            self.calls.append((self.passes, q.command, clock.stop(start)))
            self.attempted += 1
            problem = f"{type(escaped).__name__} escaped: {escaped}" if escaped else wl.check(q, result, self.catalog)
            if problem:
                self.fail(f"{q.command} on {q.label}: {problem}", q.defect)

    def pass_wall(self, clock, number: int) -> float:
        return sum(clock.scaled(span)[0] for p, _, span in self.calls if p == number)

    def sweep(self, torifan, clock):
        """Both classifications, timed and checked; returns the two reports."""
        classify = torifan.classify
        start = clock.mark()
        reports = classify.enumerate_weak_del_pezzo(), classify.enumerate_weakened_threefolds(TWIST_BOUND)
        self.solves.append(clock.stop(start))
        for label, problems in zip(("surfaces", "threefolds"), wl.check_classification(*reports)):
            self.attempted += 1
            if problems:
                self.fail(f"{label} classification: " + "; ".join(problems))
        return reports


def end_to_end(setup: Setup, tally: Tally, clock) -> dict[str, float]:
    """The end-to-end metrics, with every time at calibrated reference speed."""
    calls = [(p, command, *clock.scaled(span)) for p, command, span in tally.calls]
    latencies = [wall for _, _, wall, _ in calls]
    if tally.solves:
        solves = [clock.scaled(span) for span in tally.solves]
    else:
        solves = [
            (sum(c[2] for c in calls if c[0] == p), sum(c[3] for c in calls if c[0] == p))
            for p in range(1, tally.passes + 1)
        ]
    metrics = {
        "setup_s": statistics.median(clock.scaled(span)[0] for span in setup.spans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
        "solve_s": statistics.median(wall for wall, _ in solves),
        "solve_cpu_s": statistics.median(cpu for _, cpu in solves),
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": 1000 * harrell_davis(latencies, 0.50),
        "query_p95_ms": 1000 * harrell_davis(latencies, 0.95),
    }
    # a command's latencies cluster by fan dimension, so their median jumps
    # between clusters; the geometric mean moves smoothly with every query
    for command, metric in PER_COMMAND.items():
        metrics[metric] = 1000 * statistics.geometric_mean(c[2] for c in calls if c[1] == command)
    return metrics


def per_layer(tracer: Tracer, setup: Setup, overhead: float, class_count: int) -> dict[str, float]:
    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for target in SPAN_TARGETS:
        s = tracer.stats[target]
        metrics[f"{target}.calls"] = s.calls
        metrics[f"{target}.total_s"] = s.total
        metrics[f"{target}.self_s"] = s.self_time
    for target in COUNT_TARGETS:
        metrics[f"{target}.calls"] = tracer.counts[target][0]
    calls = {t: tracer.stats[t].calls for t in SPAN_TARGETS}
    sweep_calls = tracer.outcome("contraction.is_weakened_fano", "sweep")
    weak = tracer.outcome("contraction.is_weakened_fano", "sweep_weak")
    weakened = tracer.outcome("contraction.is_weakened_fano", "sweep_weakened")
    metrics.update({
        "fan.validate.reject_ratio": ratio(tracer.outcome("fan.validate", "reject"), calls["fan.validate"]),
        "primitive.is_extremal.true_ratio": ratio(
            tracer.outcome("primitive.is_extremal", "true"), calls["primitive.is_extremal"]
        ),
        "isomorphism.find_isomorphism.hit_ratio": ratio(
            tracer.outcome("isomorphism.find_isomorphism", "hit"), calls["isomorphism.find_isomorphism"]
        ),
        "classify.weak_fano_count": weak,
        "classify.weakened_count": weakened,
        "classify.class_count": class_count,
        "classify.weak_fano_ratio": ratio(weak, sweep_calls),
        "classify.weakened_ratio": ratio(weakened, weak),
        "classify.dedup_ratio": ratio(class_count, weakened),
        "catalog.build_s": statistics.median(span.wall for span in setup.catalog_spans),
        "trace.overhead_s": overhead,
        "trace.spans": len(tracer.spans),
        "trace.missing_targets": len(tracer.missing),
    })
    return metrics


def new_tracer(clock: Calibrator) -> Tracer:
    tracer = Tracer(clock=clock.now)
    tracer.install(SPAN_TARGETS, COUNT_TARGETS)
    for target in tracer.missing:
        print(f"trace: target {target} no longer exists; its metrics read 0")
    return tracer


# -- workloads ------------------------------------------------------------------


def run_sweep(setup: Setup, seconds: float, trace: bool, work_dir: Path, clock):
    """Sweeps for ``seconds`` (at least one), or one untraced and one traced sweep;
    then every command on the classes found."""
    torifan = setup.torifan
    tally = Tally(setup.catalog)
    start = time.perf_counter()
    reports = tally.sweep(torifan, clock)
    while not trace and time.perf_counter() - start < seconds:
        tally.sweep(torifan, clock)
    layers = None
    if trace:
        tracer = new_tracer(clock)
        tracer.request = 1
        try:
            traced = tally.sweep(torifan, clock)
        finally:
            tracer.uninstall()
        tracer.write(str(work_dir / "spans.csv"))
        untraced, traced_time = (clock.scaled(span)[0] for span in tally.solves)
        layers = per_layer(tracer, setup, traced_time - untraced, traced[1].count)
    queries = wl.result_queries(reports, work_dir)
    for _ in range(1 if trace else RESULT_PASSES):
        tally.run_queries(torifan.cli, queries, clock)
    return tally, layers


def run_queries(setup: Setup, seconds: float, trace: bool, work_dir: Path, clock):
    """Passes over the queries for ``seconds`` (at least one), or one untraced and one traced pass."""
    torifan = setup.torifan
    tally = Tally(setup.catalog)
    start = time.perf_counter()
    tally.run_queries(torifan.cli, setup.queries, clock)
    while not trace and time.perf_counter() - start < seconds:
        tally.run_queries(torifan.cli, setup.queries, clock)
    layers = None
    if trace:
        tracer = new_tracer(clock)
        try:
            tally.run_queries(torifan.cli, setup.queries, clock, tracer)
        finally:
            tracer.uninstall()
        tracer.write(str(work_dir / "spans.csv"))
        layers = per_layer(tracer, setup, tally.pass_wall(clock, 2) - tally.pass_wall(clock, 1), 0)
    return tally, layers


def run(workload: str, seed: int, seconds: float, trace: bool, setups: int = SETUPS, limit=None) -> dict:
    """One run; ``setups`` and ``limit`` shrink it to smoke size for the self-test.

    End-to-end times are at calibrated reference speed; per-layer span times
    are measured seconds without the calibration kernel's time.
    """
    work_dir = WORK / workload
    runner = run_sweep if workload == "sweep-b3" else run_queries
    with Calibrator() as clock:
        setup = Setup(workload, seed, work_dir, clock, setups, limit)
        tally, layers = runner(setup, seconds, trace, work_dir, clock)
    metrics = layers if trace else end_to_end(setup, tally, clock)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    report(workload, tally, metrics, units)
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def report(workload: str, tally: Tally, metrics, units) -> None:
    print(
        f"workload {workload}: {len(tally.solves)} sweep(s), {tally.passes} query pass(es), "
        f"{len(tally.calls)} queries"
    )
    print(
        f"fail_rate {tally.failed / tally.attempted:.4f} "
        f"({tally.failed} failed of {tally.attempted} operations)"
    )
    for defect, count in sorted(tally.by_defect.items()):
        print(f"  known defect {defect}: {count} failed  -- {wl.KNOWN_DEFECTS[defect]}")
    for what in tally.unexpected[:20]:
        print(f"  WRONG: {what}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except wl.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
