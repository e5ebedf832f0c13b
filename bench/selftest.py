"""Self-tests of the benchmark: python3 bench/selftest.py (from a checkout)."""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import generate  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("script-euclid", "script-ideal")


def run_script(text):
    # looked up at call time, so that installed wrappers are the ones called
    from pga2d.render import build_svg
    from pga2d.script import evaluate, parse

    env, out = evaluate(parse(text))
    return out, build_svg(env)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_script(self):
        for workload in WORKLOADS:
            a, b = generate.generate(workload, 7, 3), generate.generate(workload, 7, 3)
            self.assertEqual(a, b)
            self.assertNotEqual(a.text, generate.generate(workload, 8, 3).text)
            self.assertNotEqual(a.text, generate.generate(workload, 7, 4).text)

    def test_mix_is_exact(self):
        # (8, 11) has only nearly parallel lines when its first meet comes up
        for seed, index in ((1, 0), (8, 11)):
            script = generate.generate("script-euclid", seed, index)
            verbs = [line.split()[0] for line in script.text.splitlines()]
            for verb, count in generate.MIXES["script-euclid"].items():
                self.assertEqual(verbs.count(verb), count, verb)


class ReferenceTest(unittest.TestCase):
    def test_generated_scripts_pass(self):
        for workload in WORKLOADS:
            script = generate.generate(workload, 2, 0)
            out, svg = run_script(script.text)
            self.assertEqual(ref.check_output(out, script.expected), [])
            self.assertEqual(ref.check_svg(svg, script.circles, script.arrows, script.lines), [])

    def test_flags_a_wrong_value(self):
        script = generate.generate("script-ideal", 2, 0)
        out, _ = run_script(script.text)
        lines = out.splitlines()
        name, _, value = lines[5].partition(" = ")
        kind, numbers = ref.parse_printed(value)
        wrong = list(numbers)
        wrong[-1] += 1e-3
        shown = ", ".join(f"{v:.6f}" for v in wrong)
        lines[5] = f"{name} = " + {
            "num": shown, "point": f"({shown})", "ideal": f"ideal ({shown})", "line": f"[{shown}]"
        }[kind]
        problems = ref.check_output("\n".join(lines) + "\n", script.expected)
        self.assertEqual(len(problems), 1)
        self.assertIn(name, problems[0])

    def test_flags_a_flipped_line_and_a_missing_print(self):
        self.assertTrue(ref.check_output("h = [0.800000, -0.600000, 0.000000]\n",
                                         [("h", "line", (-0.8, 0.6, 0.0))]))
        self.assertTrue(ref.check_output("", [("d", "num", (5.0,))]))

    def test_golden_values(self):
        """The conventions reproduce the checked-in golden outputs."""
        a, b = ref.Pt(0.0, 0.0, 1.0), ref.Pt(3.0, 4.0, 1.0)
        self.assertEqual(ref.point_distance(a, b), 5.0)
        self.assertEqual(ref.printed(ref.join(a, b)), ("line", (-0.8, 0.6, 0.0)))
        self.assertEqual(ref.midpoint(a, b).pos, (1.5, 2.0))
        # rotation_case: a quarter turn about the origin
        a, m = ref.Pt(1.0, 0.0, 1.0), ref.Ln(0.0, 1.0, 0.0)
        g = ref.transport(a, m, ref.Pt(0.0, 1.0, 1.0), ref.Ln(-1.0, 0.0, 0.0))
        for got, want in zip(ref.apply(g, a).pos, (0.0, 1.0)):
            self.assertAlmostEqual(got, want, places=12)
        for got, want in zip(ref.apply(g, m).unit(), (-1.0, 0.0, 0.0)):
            self.assertAlmostEqual(got, want, places=12)


class TracingTest(unittest.TestCase):
    def traced(self, text):
        tracer = spans.Tracer()
        tracer.install()
        try:
            out = run_script(text)
        finally:
            tracer.uninstall()
        return out, spans.summarize(tracer.take())

    def test_traced_outputs_equal_untraced(self):
        import pga2d.geometry
        import pga2d.metric

        original = pga2d.metric.normalize
        for workload in WORKLOADS:
            script = generate.generate(workload, 4, 1)
            untraced = run_script(script.text)
            traced, summary = self.traced(script.text)
            self.assertEqual(traced, untraced)
            self.assertGreater(summary.counts[spans.MV_INIT], 0)
        self.assertIs(pga2d.metric.normalize, original)
        self.assertIs(pga2d.geometry.normalize, original)

    def test_every_binding_is_wrapped(self):
        import pga2d.geometry
        import pga2d.metric

        p, q = pga2d.Point(0, 0, 1), pga2d.Point(2, 0, 1)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIs(pga2d.geometry.normalize, pga2d.metric.normalize)
            pga2d.geometry.midpoint(p, q)
        finally:
            tracer.uninstall()
        names = [row[0] for row in tracer.take()]
        self.assertEqual(names[0], "geometry.midpoint")
        self.assertIn("metric.normalize", names)

    def test_counts_repeat_exactly(self):
        script = generate.generate("script-ideal", 5, 2)
        first = spans.layer_counts(self.traced(script.text)[1])
        second = spans.layer_counts(self.traced(script.text)[1])
        self.assertEqual(first, second)
        self.assertGreater(first["solves"], 0)

    def test_self_time_excludes_children(self):
        rows = [("a.x", 0.0, 10.0, -1, 1), ("b.y", 1.0, 4.0, 0, 1), ("b.z", 2.0, 3.0, 1, 1)]
        summary = spans.summarize(rows)
        self.assertAlmostEqual(summary.self_s["a"], 7.0)
        self.assertAlmostEqual(summary.self_s["b"], 3.0)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
