"""Tests of the benchmark's own code.

    python3 -m unittest discover -s bench/tests
"""

import itertools
import json
import random
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def linear_extensions(n, arcs):
    """Brute force: bijections onto 1..n decreasing along every arc."""
    return sum(1 for perm in itertools.permutations(range(1, n + 1))
               if all(perm[u] > perm[v] for u, v in arcs))


def weak_maps(n, arcs, i):
    return sum(1 for f in itertools.product(range(1, i + 1), repeat=n)
               if all(f[u] >= f[v] for u, v in arcs))


class InputsTest(unittest.TestCase):
    def build(self, name, seed):
        with tempfile.TemporaryDirectory(dir=BENCH / "tests") as tmp:
            w = workloads.build(name, seed, Path(tmp), expected={})
            files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
            argv = [tuple(a.replace(tmp, "<work>") for a in job.argv)
                    for job in w.jobs]
        return files, argv

    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.BUILDERS:
            first = self.build(name, 11)
            second = self.build(name, 11)
            self.assertEqual(first, second, name)
            if first[0]:
                self.assertNotEqual(first, self.build(name, 12), name)

    def test_ideal_count_matches_tree_states(self):
        rng = random.Random(3)
        for _ in range(20):
            parents, states = inputs.random_tree(rng, 2 ** 4, 2 ** 7, (6, 12))
            d = inputs.tree_digraph(parents)
            self.assertEqual(inputs.ideal_count(d), states)
            self.assertEqual(inputs.ideal_count(d.reversed()), states)

    def test_blow_up_condenses_to_base(self):
        rng = random.Random(5)
        base = inputs.two_row_grid(2, 3)
        for _ in range(10):
            d = inputs.blow_up(base, rng, 3)
            succ = [0] * d.n
            for u, v in d.arcs:
                succ[u] |= 1 << v
            reach = [inputs._closure(x, succ) for x in range(d.n)]
            # strong components: vertices that reach each other
            comps = {frozenset(y for y in range(d.n)
                               if reach[x] >> y & 1 and reach[y] >> x & 1)
                     for x in range(d.n)}
            self.assertEqual(len(comps), base.n)


class RefsTest(unittest.TestCase):
    def test_against_brute_force(self):
        staircase = {4: [(0, 1), (2, 1), (2, 3)],
                     5: [(0, 1), (2, 1), (2, 3), (4, 3)]}
        for n, arcs in staircase.items():
            self.assertEqual(refs.zigzag(n), linear_extensions(n, arcs))
        for n1, n2 in ((0, 3), (2, 3), (3, 3)):
            grid = inputs.two_row_grid(n1, n2)
            self.assertEqual(refs.ballot(n1, n2),
                             linear_extensions(grid.n, grid.arcs))
            for i in range(1, 4):
                self.assertEqual(refs.nonstrict_two_row(n1, n2, i),
                                 weak_maps(grid.n, grid.arcs, i))
        parents = [-1, 0, 0, 1, 1, 2, 5]
        tree = inputs.tree_digraph(parents)
        self.assertEqual(refs.hook_length(parents),
                         linear_extensions(tree.n, tree.arcs))
        path = [(v, v + 1) for v in range(3)]
        self.assertEqual(refs.nonstrict_path(4, 3), weak_maps(4, path, 3))


class ChecksTest(unittest.TestCase):
    def test_every_job_rejects_wrong_stdout(self):
        """Jobs that a cross-check covers are tested through it below."""
        with tempfile.TemporaryDirectory(dir=BENCH / "tests") as tmp:
            for name in workloads.BUILDERS:
                w = workloads.build(name, 0, Path(tmp))
                grouped = {k for keys, _ in w.cross_checks for k in keys}
                for job in w.jobs:
                    if job.key in grouped:
                        self.assertIsNotNone(job.check(""), job.key)
                        continue
                    for wrong in ("", "0\n", "1\n"):
                        try:
                            err = job.check(wrong)
                        except (ValueError, KeyError, TypeError):
                            err = "raised"
                        self.assertIsNotNone(err, (job.key, wrong))

    def test_one_changed_value_is_caught(self):
        self.assertIsNone(workloads.integer(120)("120\n"))
        self.assertIsNotNone(workloads.integer(120)("121\n"))
        table = workloads.nonstrict_table(
            [lambda i: refs.nonstrict_path(2, i)], 3)
        self.assertIsNone(table("digraph,i=1,i=2,i=3\npath:2,1,3,6\n"))
        self.assertIsNotNone(table("digraph,i=1,i=2,i=3\npath:2,1,3,7\n"))
        recorded = workloads.seed_bytes("k", {"k": workloads.digest("61\n")})
        self.assertIsNone(recorded("61\n"))
        self.assertIsNotNone(recorded("61 \n"))

    def test_cross_checks(self):
        rule = workloads.union_rule("u", "r", ["a", "b"], [2, 3])
        # parts count 1 and 2: union = C(5, 2) * 1 * 2 = 20
        good = {"u": "20\n", "r": "20\n", "a": "1\n", "b": "2\n"}
        self.assertIsNone(rule(good))
        self.assertIsNotNone(rule({**good, "r": "21\n"}))
        self.assertIsNotNone(rule({**good, "u": "19\n", "r": "19\n"}))
        self.assertIsNone(workloads.all_equal({"a": "X\n", "b": "X\n"}))
        self.assertIsNotNone(workloads.all_equal({"a": "X\n", "b": "Y\n"}))

    def test_failed_cross_check_marks_jobs(self):
        w = workloads.Workload("t", {})
        w.add("a", ("count",), lambda out: None)
        w.add("b", ("count",), lambda out: None)
        w.cross_checks.append((("a", "b"), workloads.all_equal))
        outs = iter(["1\n", "2\n"])
        original = run.run_job
        run.run_job = lambda job, *args: run.JobResult(
            job.key, 0.1, 0.1, 1, None, next(outs))
        try:
            results, _ = run.run_pass(w, Path("."), {}, traced=False)
        finally:
            run.run_job = original
        self.assertTrue(all(r.error for r in results))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            ["cli.main", -1, 0, 100],
            ["counting.count", 0, 10, 50],       # child of main
            ["graph.x", 1, 20, 30],              # child of count
            ["ode.y", 0, 40, 70],                # overlaps count by 10
            ["ode.z", 0, 60, 65],                # inside ode.y's interval
            ["algebra.gcd", 3, 45, 55],
        ]
        # main: 100 minus the union [10, 70] = 40
        # count: 40 - 10; graph: 10; ode.y: 30 - 10; ode.z: 5; gcd: 10
        self.assertEqual(tracer.self_times(spans), [40, 30, 10, 20, 5, 10])

    def test_job_metrics(self):
        spans = [
            ["cli.main", -1, 0, 10 ** 9],
            ["companion.companion_from_counters", 0, 0, 6 * 10 ** 8],
            ["counting.count", 1, 0, 2 * 10 ** 8],
            ["counting.count", 0, 7 * 10 ** 8, 8 * 10 ** 8],
            ["ode.ab_reduction", 0, 8 * 10 ** 8, 9 * 10 ** 8],
            ["algebra.gcd", 4, 8 * 10 ** 8, 85 * 10 ** 7],
        ]
        m = tracer.job_metrics({"spans": spans,
                                "counters": {"counting.states": 7}})
        self.assertEqual(m["counting.calls"], 2)
        self.assertEqual(m["companion.count_calls"], 1)
        self.assertEqual(m["algebra.gcd_calls"], 1)
        self.assertAlmostEqual(m["companion.self_s"], 0.4)
        self.assertAlmostEqual(m["ode.self_s"], 0.05)
        self.assertAlmostEqual(m["ode.ab_reduction_s"], 0.1)
        self.assertAlmostEqual(m["cli.self_s"], 0.2)
        self.assertEqual(m["counting.states"], 7)


class TracedCliTest(unittest.TestCase):
    def test_same_output_and_counts(self):
        argv = ["companion", "--family", "staircase:6", "--vertex", "v1"]
        plain = subprocess.run([sys.executable, "-m", "displab.cli", *argv],
                               cwd=run.SRC, env=run.child_env(),
                               capture_output=True, check=True)
        with tempfile.TemporaryDirectory(dir=BENCH / "tests") as tmp:
            out = Path(tmp) / "trace.json"
            traced = subprocess.run(
                [sys.executable, str(BENCH / "traced_cli.py"), str(out),
                 *argv], cwd=run.SRC, env=run.child_env(),
                capture_output=True, check=True)
            trace = json.loads(out.read_text())
        self.assertEqual(plain.stdout, traced.stdout)
        m = tracer.job_metrics(trace)
        # counters route: one count per attached path length 0..2n-1
        self.assertEqual(m["counting.calls"], 12)
        self.assertEqual(m["companion.count_calls"], 12)
        self.assertEqual(m["counting.tables"], 12)
        self.assertGreater(m["counting.states"], 12)


if __name__ == "__main__":
    unittest.main()
