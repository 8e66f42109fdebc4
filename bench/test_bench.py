"""Self-tests of the benchmark: seeded generators, the independent checks,
the per-call deadline, the tracer's binding sites and the metric contract.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import k3lattice as kl  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def inputs(self, cls, seed, n):
        gen = cls(seed)
        return [(op.tag, op.inputs) for op in (gen.next_op() for _ in range(n))]

    def test_same_seed_same_inputs(self):
        for cls in (wl.Claim3Grid, wl.K3Queries, wl.ScaleSweep):
            with self.subTest(workload=cls.__name__):
                self.assertEqual(self.inputs(cls, 7, 300), self.inputs(cls, 7, 300))
                self.assertNotEqual(self.inputs(cls, 7, 300), self.inputs(cls, 8, 300))

    def test_claim3_pass_covers_the_grid(self):
        gen = wl.Claim3Grid(3)
        got = sorted(gen.next_op().inputs for _ in range(len(wl.Claim3Grid.GRID)))
        self.assertEqual(got, sorted(wl.Claim3Grid.GRID))

    def test_hyperbolic_grams(self):
        import random

        rng = random.Random(1)
        for rank in (2, 3, 4):
            gram = wl.random_hyperbolic_gram(rng, rank)
            self.assertEqual(kl.signature(kl.GramLattice(rank, gram)), (1, rank - 1, 0))


class CheckTest(unittest.TestCase):
    def test_tampered_witness_is_rejected(self):
        q = kl.BinaryForm(1, 0, -2)
        v = kl.binary_represents(q, -1)
        self.assertEqual(wl.check_verdict(q, -1, v), wl.OK)
        x, y = v.witness
        bad = dataclasses.replace(v, witness=(x + 1, y))
        self.assertTrue(wl.check_verdict(q, -1, bad).startswith("wrong"))
        zero = dataclasses.replace(kl.ternary_represents_zero(kl.DiagonalTernaryForm(1, 1, -2)), witness=(0, 0, 0))
        self.assertTrue(wl.check_verdict(kl.DiagonalTernaryForm(1, 1, -2), 0, zero).startswith("wrong"))

    def test_tampered_certificate_is_rejected(self):
        q = kl.BinaryForm(2, 0, 4)
        v = kl.binary_represents(q, 3)
        self.assertEqual(v.kind, "NO")
        self.assertEqual(wl.check_verdict(q, 3, v), wl.OK)
        cert = dataclasses.replace(v.certificate, data={**v.certificate.data, "divisor": 3})
        self.assertTrue(wl.check_verdict(q, 3, dataclasses.replace(v, certificate=cert)).startswith("wrong"))
        # a valid certificate replayed against another target
        self.assertTrue(wl.check_verdict(q, 4, v).startswith("wrong"))

    def test_tampered_claim3_result_is_rejected(self):
        gen = wl.Claim3Grid(0)
        inputs = kl.Claim3Input(1, 0, 0)
        res = kl.claim3_search(inputs, gen.BOUND)
        self.assertEqual(gen.check(inputs, res), wl.OK)
        bad_gram = ((res.gram[0][0], res.gram[0][1]), (res.gram[1][0], res.gram[1][1] + 8))
        self.assertTrue(gen.check(inputs, dataclasses.replace(res, gram=bad_gram)).startswith("wrong"))
        bad_vec = res.vector_generator[:5] + (1,) + res.vector_generator[6:]
        self.assertTrue(gen.check(inputs, dataclasses.replace(res, vector_generator=bad_vec)).startswith("wrong"))

    def test_tampered_paper_verify_output_is_rejected(self):
        gen = wl.PaperVerify(0)
        code, out = gen._run()
        self.assertEqual(gen._check((code, out)), wl.OK)
        self.assertEqual(gen._check((code, out)), wl.OK)
        self.assertTrue(gen._check((code, out.replace("true", "false", 1))).startswith("wrong"))
        doc = json.loads(out)
        row = next(r for r in doc["rows"] if r["kind"] == "theorem3")
        row["result"]["minus2"]["certificate"]["kind"] = "SIEVE"
        self.assertTrue(wl.check_paper_document(json.dumps(doc)).startswith("wrong"))


class DeadlineTest(unittest.TestCase):
    def setUp(self):
        self.previous = signal.signal(signal.SIGALRM, run._on_alarm)

    def tearDown(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def test_deadline_interrupts_the_separable_search(self):
        q = kl.DiagonalTernaryForm(-6, -13, 7)
        result, seconds, error = run.timed_call(lambda: kl.ternary_represents(q, -128), 0.2)
        self.assertEqual(error, run.TIMEOUT)
        self.assertIsNone(result)
        self.assertLess(seconds, 2.0)

    def test_fast_call_passes_and_disarms(self):
        result, _, error = run.timed_call(lambda: kl.binary_represents_zero(kl.BinaryForm(1, 0, -1)), 1.0)
        self.assertIsNone(error)
        self.assertEqual(result.kind, "YES")
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class SummaryTest(unittest.TestCase):
    def test_timeouts_are_undecided_not_failed_and_have_no_latency(self):
        records = run.Records()
        # input 0: one slow repeat among fast ones; input 1: mostly timed out;
        # inputs 2..21: one call each, 10 ms apart
        for ms in (1, 50, 1):
            records.add("a", 0, 0.0, ms / 1e3, wl.OK, 1.0)
        for ms, outcome in ((20, run.TIMEOUT), (20, run.TIMEOUT), (5, wl.OK)):
            records.add("b", 1, 0.0, ms / 1e3, outcome, 1.0)
        for key in range(2, 22):
            records.add("c", key, 0.0, key / 1e2, wl.UNDECIDED if key == 2 else wl.OK, 1.0)
        s = run.summarize(records)
        self.assertEqual((s["attempted"], s["failed"], s["timeouts"], s["undecided"]), (26, 0, 2, 3))
        # the ten slowest inputs are 12..21 (0.12 .. 0.21 s): input 0 counts
        # with its median 1 ms, input 1 is left out
        self.assertAlmostEqual(s["latency_tail_ms"], 165.0)
        self.assertEqual(s["tail_inputs"], [10, 21])
        records.add("c", 22, 0.0, 0.001, "wrong: witness does not evaluate to t", 1.0)
        self.assertEqual(run.summarize(records)["failed"], 1)


class TracerTest(unittest.TestCase):
    def test_every_binding_site_is_wrapped_and_restored(self):
        from k3lattice import catalog, embeddings, lattices, matrices, ntheory

        sites = [
            (embeddings, "smith_normal_form", matrices.smith_normal_form),
            (lattices, "smith_normal_form", matrices.smith_normal_form),
            (lattices, "factorize", ntheory.factorize),
            (catalog, "classify", kl.k3.classify),
            (kl, "verify_certificate", kl.qform.verify_certificate),
        ]
        tracer = tracing.Tracer(run.DeadlineExceeded)
        tracer.install()
        try:
            for mod, attr, orig in sites:
                self.assertIsNot(getattr(mod, attr), orig, f"{mod.__name__}.{attr}")
            tracer.begin_op()
            kl.discriminant_group(kl.standard_lattice("A1_neg"))
            tracer.end_op()
        finally:
            tracer.uninstall()
        for mod, attr, orig in sites:
            self.assertIs(getattr(mod, attr), orig)
        m = tracer.metrics()
        self.assertEqual(m["lattices.discriminant_group.calls"], 1)
        self.assertGreaterEqual(m["matrices.smith_normal_form.calls"], 1)
        self.assertTrue(all(m[f"{name}.self_ms"] >= 0 for name in tracing.span_names()))

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer(run.DeadlineExceeded)
        tracer.install()
        try:
            tracer.begin_op()
            kl.paper_verification()
            tracer.end_op()
        finally:
            tracer.uninstall()
        m = tracer.metrics()
        total = (tracer.end[0] - tracer.start[0]) / 1e6
        self.assertEqual(tracer.names[tracer.fid[0]], "catalog.paper_verification")
        self.assertLess(m["catalog.paper_verification.self_ms"], total)
        self.assertAlmostEqual(sum(m[f"{n}.self_ms"] for n in tracing.span_names()), total, delta=0.01 * total)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], tracing.per_layer_metrics())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(wl.WORKLOADS))
        self.assertEqual(set(run.DEADLINE_S), set(wl.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
