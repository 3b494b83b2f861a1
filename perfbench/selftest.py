"""Smoke-size self-test of the benchmark: python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is printed with its unit, that
the tracer's self-time arithmetic holds on a nested toy call, that the
reference answers agree with the expected data of all 34 named fans, that
the quantile estimate is right on known cases, and that the benchmark
refuses to run where the torifan sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from quantile import beta_cdf, harrell_davis  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


class MetricNames(unittest.TestCase):
    def test_declared_metrics_match_the_code(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual(declared, bench.END_TO_END_UNITS)
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual(declared, bench.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(bench.WORKLOADS))

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in ("query-mix", "reject-mix"):
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    with contextlib.redirect_stdout(io.StringIO()):
                        result = bench.run(workload, 7, 0, trace, setups=1, limit=2)
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)


class SelfTime(unittest.TestCase):
    def test_nested_toy_call(self):
        now = [0.0]
        pkg = types.ModuleType("toytrace")
        mod = types.ModuleType("toytrace.layer")

        def tick(dt):
            now[0] += dt

        def inner():
            tick(5)
            mod.leaf()

        def outer():
            tick(1)
            mod.inner()
            tick(2)
            mod.inner()
            tick(3)

        mod.inner, mod.outer, mod.leaf = inner, outer, lambda: None
        pkg.outer = outer  # a second namespace holding the same function
        sys.modules.update({"toytrace": pkg, "toytrace.layer": mod})
        try:
            tracer = Tracer(clock=lambda: now[0], prefix="toytrace")
            tracer.install({"layer.outer": None, "layer.inner": None, "layer.gone": None}, ("layer.leaf",))
            tracer.request = 9
            pkg.outer()
            tracer.uninstall()
        finally:
            del sys.modules["toytrace"], sys.modules["toytrace.layer"]
        outer_stats, inner_stats = tracer.stats["layer.outer"], tracer.stats["layer.inner"]
        self.assertEqual((outer_stats.calls, outer_stats.total, outer_stats.self_time), (1, 16, 6))
        self.assertEqual((inner_stats.calls, inner_stats.total, inner_stats.self_time), (2, 10, 10))
        self.assertEqual(tracer.counts["layer.leaf"], [2])
        self.assertEqual(tracer.missing, ["layer.gone"])
        self.assertIs(mod.outer, outer)
        root = [s for s in tracer.spans if s[3] == "layer.outer"][0]
        children = [s for s in tracer.spans if s[3] == "layer.inner"]
        self.assertEqual([s[1] for s in children], [root[0], root[0]])
        self.assertEqual({s[2] for s in tracer.spans}, {9})


class Quantiles(unittest.TestCase):
    def test_harrell_davis(self):
        self.assertAlmostEqual(beta_cdf(2, 3, 0.4), 0.5248)
        self.assertAlmostEqual(harrell_davis(range(1, 102), 0.5), 51)
        self.assertAlmostEqual(harrell_davis([3.0] * 50, 0.95), 3.0)
        self.assertLess(harrell_davis(range(100), 0.95), 99)


class References(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.torifan = bench.import_torifan()
        cls.named = cls.torifan.catalog.all_named()
        cls.catalog = wl.plain_catalog(cls.named)

    def test_named_fans_expected_data(self):
        self.assertEqual(len(self.named), 34)
        for name, nf in self.named.items():
            dim, rays, cones = self.catalog[name]
            degrees = ref.curve_degrees(rays, cones)
            mine = {
                "rays": len(rays),
                "picard": len(rays) - dim,
                "degree": ref.anticanonical_degree(rays, cones),
                "fano": min(degrees) > 0,
                "weak_fano": min(degrees) >= 0,
                "weakened": name in ref.WEAKENED_NAMES,
            }
            with self.subTest(name=name):
                self.assertIsNone(ref.invalidity(rays, cones))
                for key, value in nf.expected.items():
                    if key in mine:
                        self.assertEqual(mine[key], value, key)
                if dim == 2:
                    weak = all(s >= -2 for s in ref.self_intersections(rays, cones).values())
                    self.assertEqual(weak, mine["weak_fano"])
                    self.assertEqual(mine["degree"], 12 - len(rays))
                if name.startswith("P1x") and dim == 3:
                    self.assertEqual(mine["degree"], 6 * (12 - (len(rays) - 2)))

    def test_name_lists(self):
        cat = self.torifan.catalog
        self.assertEqual(tuple(nf.name for nf in cat.surfaces()), ref.SURFACE_NAMES)
        self.assertEqual(tuple(nf.name for nf in cat.threefolds()), ref.WEAKENED_NAMES)
        for name, degree in ref.SPECIAL_DEGREES.items():
            self.assertEqual(self.named[name].expected["degree"], degree)

    def test_classification_check_accepts_the_catalog(self):
        def report(group, invariants):
            classes = [
                types.SimpleNamespace(name=nf.name, fan=nf.fan, invariants=invariants(nf))
                for nf in group
            ]
            return types.SimpleNamespace(count=len(classes), classes=classes)

        cat = self.torifan.catalog
        surfaces = report(cat.surfaces(), lambda nf: dict(nf.expected))
        threefolds = report(cat.threefolds(), lambda nf: dict(nf.expected))
        self.assertEqual(wl.check_classification(surfaces, threefolds), ([], []))
        threefolds.classes[-1].invariants["degree"] += 1
        self.assertTrue(wl.check_classification(surfaces, threefolds)[1])

    def test_invalid_inputs_are_certified(self):
        for k in range(len(ref.DOUBLE_COVERS)):
            rays, cones = ref.double_cover(k)
            self.assertIn("2 cones", ref.invalidity(rays, cones))
        rays, cones = ref.hirzebruch(4)
        self.assertEqual(ref.self_intersections(rays, cones)[1], -4)
        self.assertIn("|det|", ref.invalidity([(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)]))
        self.assertIn("one side", ref.invalidity([(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)]))
        self.assertIn("not an integer", ref.strict_fan('{"dim":2,"rays":[[true,0]],"max_cones":[]}'))


class MissingSources(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        bare = bench.WORK / "bare"
        if bare.exists():
            shutil.rmtree(bare)
        bare.mkdir(parents=True)
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(bench.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
