#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

    python3 simbench/test_simbench.py             everything
    python3 simbench/test_simbench.py OutputCheck one group

ShortMode builds the driver and runs every workload once (about a minute
after the first build); the other groups need no build.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LINE_RE = re.compile(r"^(\S+) (\S+) (\S+)( \(estimate\))?$")


def parse_metric_line(line):
    """(name, value, unit) of one metric line; raises on anything else."""
    m = LINE_RE.match(line)
    if not m or not NAME_RE.match(m.group(1)) or not UNIT_RE.match(m.group(3)):
        raise ValueError(f"not a metric line: {line!r}")
    return m.group(1), float(m.group(2)), m.group(3)


def fake_iteration(workload, traced=False):
    exp = bench.load_expected()[workload]
    counts = {k: 1000 for k in (
        "l1d_reads", "l1d_writes", "l1d_misses", "l2_reads", "l2_misses",
        "pf_issued", "l3_reads", "l3_accesses", "l3_misses", "ddr_requests",
        "snoop_requests", "trace_samples", "trace_bytes", "dump_bytes",
        "instructions", "flops", "counted_events")}
    counts.update(l1d_read_misses=500, l2_read_misses=100, pf_hits=900,
                  l3_read_misses=10, snoop_filtered=1000, trace_dropped=0)
    return {"record": "iter", "traced": traced, "error": "",
            "verified": True, "verify_detail": "ok", "mine_ok": True,
            "coverage": "full", "timeline_ok": True, "timeline_coverage": "",
            "elapsed_cycles": exp["elapsed_cycles"],
            "node_digests": list(exp["node_digests"]),
            "machine_ctor_s": 0.01, "session_ctor_s": 0.001, "setup_s": 0.012,
            "run_s": 1.5, "cpu_s": 1.4, "mine_s": 0.002, "timeline_s": 0.01,
            "total_s": 1.53, "init_s": 0.003, "finalize_s": 0.004,
            "peak_rss_mb": 30.0, "counts": counts, "spans": []}


def fake_run(workload):
    run = bench.Run(workload)
    for k in range(4):
        rec = fake_iteration(workload, traced=k % 2 == 0)
        run.iters.append((rec, [], float(k), float(k) + 1.5))
    run.setups = [0.01, 0.011]
    run.probes = {name: {"median": 10.0, "iqr": 1.0}
                  for name in (*bench.MEM_PROBES, *bench.OTHER_PROBES)}
    run.probes.update(l3_hit_level_share=1.0, ddr_miss_level_share=1.0)
    run.host = {"nproc": 4}
    return run


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.expected = bench.load_expected()

    def test_expected_values_cover_every_workload(self):
        self.assertEqual(set(self.expected), set(bench.WORKLOADS))
        nodes = {"mg_miss": 4, "ep_compute": 8, "cg_trace": 64,
                 "cg_par_trace": 64}
        for w, exp in self.expected.items():
            self.assertEqual(len(exp["node_digests"]), nodes[w])

    def test_both_dispatchers_share_the_cg_expectation(self):
        self.assertEqual(self.expected["cg_trace"],
                         self.expected["cg_par_trace"])

    def test_matching_outputs_pass(self):
        for w in bench.WORKLOADS:
            self.assertEqual(
                bench.check_iteration(fake_iteration(w), self.expected[w]), [])

    def test_perturbed_cycle_count_is_rejected(self):
        rec = fake_iteration("cg_par_trace")
        rec["elapsed_cycles"] += 64
        problems = bench.check_iteration(rec, self.expected["cg_par_trace"])
        self.assertEqual(len(problems), 1)
        self.assertIn("elapsed", problems[0])

    def test_perturbed_dump_digest_is_rejected(self):
        rec = fake_iteration("mg_miss")
        d = rec["node_digests"][2]
        rec["node_digests"][2] = d[:-1] + ("0" if d[-1] != "0" else "1")
        problems = bench.check_iteration(rec, self.expected["mg_miss"])
        self.assertEqual(len(problems), 1)
        self.assertIn("first node 2", problems[0])

    def test_missing_node_is_rejected(self):
        rec = fake_iteration("ep_compute")
        rec["node_digests"].pop()
        self.assertTrue(bench.check_iteration(rec,
                                              self.expected["ep_compute"]))

    def test_failed_verification_mining_and_crashes_are_rejected(self):
        exp = self.expected["mg_miss"]
        for key in ("verified", "mine_ok", "timeline_ok"):
            rec = fake_iteration("mg_miss")
            rec[key] = False
            self.assertTrue(bench.check_iteration(rec, exp), key)
        self.assertIn("threw", bench.check_iteration({"error": "boom"},
                                                     exp)[0])


class MetricLines(unittest.TestCase):
    def setUp(self):
        self.end_to_end, self.per_layer = bench.load_declared()

    def test_declared_names_and_units_are_well_formed(self):
        names = [d["name"] for d in self.end_to_end + self.per_layer]
        self.assertEqual(len(names), len(set(names)))
        for d in self.end_to_end + self.per_layer:
            self.assertRegex(d["name"], NAME_RE)
            self.assertRegex(d["unit"], UNIT_RE)
        self.assertIn("setup_s", names)

    def test_every_layer_metric_is_mapped(self):
        with open(HERE / "metric_map.json", encoding="utf-8") as f:
            layers = json.load(f)["layers"]
        e2e = {d["name"] for d in self.end_to_end}
        self.assertEqual({d["name"] for d in self.per_layer}, set(layers))
        for name, entry in layers.items():
            self.assertTrue(set(entry["moves"]) <= e2e | {"sim_mips"}, name)
            self.assertTrue(set(entry["on"]) <= set(bench.WORKLOADS), name)

    def test_reductions_produce_every_declared_metric(self):
        run = fake_run("cg_par_trace")
        self.assertEqual(set(bench.end_to_end(run)),
                         {d["name"] for d in self.end_to_end})
        self.assertEqual(set(bench.per_layer(run)),
                         {d["name"] for d in self.per_layer})

    def test_report_lines_parse(self):
        run = fake_run("mg_miss")
        for declared, metrics in ((self.end_to_end, bench.end_to_end(run)),
                                  (self.per_layer, bench.per_layer(run))):
            for d in declared:
                line = bench.metric_line(d["name"], metrics[d["name"]],
                                         d["unit"])
                self.assertEqual(parse_metric_line(line)[0], d["name"])
        with self.assertRaises(ValueError):
            parse_metric_line("run_s fast s")


class ShortMode(unittest.TestCase):
    def test_short_mode_runs_every_workload_end_to_end(self):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                               "--short"], stdout=subprocess.PIPE,
                              text=True, timeout=1800)
        self.assertEqual(proc.returncode, 0)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        end_to_end, per_layer = bench.load_declared()
        seen = {}
        for line in lines[:-1]:
            if line.startswith("#") or line.startswith("{"):
                continue
            name, _, _ = parse_metric_line(line)
            seen[name] = seen.get(name, 0) + 1
        for d in end_to_end + per_layer:
            self.assertEqual(seen.get(d["name"]), len(bench.WORKLOADS),
                             d["name"])
        self.assertEqual(set(result["workloads"]), set(bench.WORKLOADS))
        for w, r in result["workloads"].items():
            self.assertGreaterEqual(r["attempted"], 2, w)
        for w in ("mg_miss", "ep_compute", "cg_trace"):
            self.assertTrue(result["workloads"][w]["correct"],
                            result["workloads"][w]["problems"])
        # The parallel dispatcher under tracing is not yet deterministic on
        # multi-core hosts (ROADMAP open item 1): cg_par_trace may fail its
        # output check, but only through a cycle or counter mismatch against
        # the default dispatcher's values.
        for p in result["workloads"]["cg_par_trace"]["problems"]:
            self.assertRegex(p, r"^(elapsed \d+ cycles|counter digest)")


if __name__ == "__main__":
    unittest.main()
