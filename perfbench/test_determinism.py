#!/usr/bin/env python3
"""The benchmark's own test: its request stream is a pure function of --seed.

    python3 perfbench/test_determinism.py

For every workload it serves a fixed number of requests twice with one seed
and once with another, then checks that the same seed gives a byte-identical
request stream (methods and right-hand sides, by digest) and identical
per-request iteration counts, and that a different seed changes the
right-hand sides.  Builds the benchmark first, as run.py does.
"""
import json
import subprocess
import unittest

import run

WORKLOADS = ("thermal2-pipe-pscg", "poisson125-pcg", "thermal2-stream-batched")
REQUESTS = 6


def serve(binary, workload, seed):
    """Serve REQUESTS timed requests; return (digest, iterations, result)."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1e9",
         "--requests", str(REQUESTS), "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    digest = next(l.split()[1] for l in out if l.startswith("stream_digest "))
    iterations = next(l.split()[1:] for l in out if l.startswith("iterations"))
    return digest, iterations, json.loads(out[-1])


class SeededStream(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_seed_fixes_stream_and_iterations(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                d1, it1, r1 = serve(self.binary, workload, 7)
                d2, it2, r2 = serve(self.binary, workload, 7)
                d3, _, _ = serve(self.binary, workload, 8)
                self.assertEqual(d1, d2)
                self.assertEqual(it1, it2)
                self.assertEqual(len(it1), REQUESTS)
                self.assertNotEqual(d1, d3)
                for r in (r1, r2):
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)


if __name__ == "__main__":
    unittest.main()
