#!/usr/bin/env python3
"""The simulator's benchmark: three fixed NAS workloads, timed end to end
and layer by layer, with every run's simulated outputs checked.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --short     one pass of every workload, traced
    python3 simbench/run.py --record    rewrite expected.json (default
                                        dispatcher, one run per workload)

Run from anywhere inside a checkout; the first call builds the simulator
and the driver (simbench.cpp) in Release under .bench_build/. A run
repeats one workload, each iteration in a fresh process, for --seconds
(never starting an iteration the deadline would cut, but running at
least MIN_ITERS) and reports medians. Every
iteration is checked: the kernel's own verification, post::mine OK with
full coverage (and post::mine_timeline for the traced workload), simulated
elapsed cycles and a per-node counter digest equal to expected.json.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(host time around each layer's public calls, exact layer counts, timed
hot-path probes). Metric lines read "name value unit"; the last line of
stdout is the JSON result. metric_map.json says which end-to-end metric
and workload each layer metric should move.

The NAS inputs are fixed by problem class, so --seed selects nothing: it
is recorded with the host facts and otherwise unused.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "simbench"
WORK_DIR = ROOT / ".bench_build" / "work"
SPANS_DIR = ROOT / ".bench_build" / "spans"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("mg_miss", "ep_compute", "cg_trace", "cg_par_trace")
MIN_ITERS = 3
SETUP_REPS = 11
ITER_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840

# Probe name in simbench's output -> key used by the mem estimate.
MEM_PROBES = {
    "mem.probe.l1_hit_ns": "l1_hit",
    "mem.probe.l3_hit_ns": "l3_hit",
    "mem.probe.ddr_miss_ns": "ddr_miss",
    "mem.probe.stream_pf_ns": "stream_pf",
    "mem.probe.store_ns": "store",
}
OTHER_PROBES = ("upc.probe.batch_event_ns", "cpu.probe.block_ns",
                "compiler.probe.compile_us")


class BenchError(Exception):
    pass


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


# ---- build and spawn ------------------------------------------------------

def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources at {ROOT / 'src'}; run from "
                         "a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "simbench"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}") from e
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError(f"build step {' '.join(cmd[:2])} exited "
                             f"{proc.returncode}")
    return BUILD_DIR / "simbench"


def spawn(binary, args):
    """Run the driver once; returns (record, start, end) with monotonic
    stamps. A crash or timeout becomes a record with an error."""
    start = time.monotonic()
    try:
        proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=ITER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ({"error": f"timed out after {ITER_TIMEOUT_S} s"}, start,
                time.monotonic())
    end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        return ({"error": f"exit {proc.returncode}: "
                          f"{err[-1] if err else 'no output'}"}, start, end)
    return json.loads(lines[-1]), start, end


# ---- output check ---------------------------------------------------------

def load_expected():
    with open(EXPECTED, encoding="utf-8") as f:
        return json.load(f)["workloads"]


def check_iteration(rec, expected):
    """Everything wrong with one iteration's outputs; empty when correct."""
    if rec.get("error"):
        return [f"threw: {rec['error']}"]
    problems = []
    if not rec["verified"]:
        problems.append(f"kernel verification failed: {rec['verify_detail']}")
    if not rec["mine_ok"]:
        problems.append(f"post::mine not OK with full coverage "
                        f"({rec['coverage']})")
    if not rec["timeline_ok"]:
        problems.append(f"post::mine_timeline not OK with full coverage "
                        f"({rec['timeline_coverage']})")
    if rec["elapsed_cycles"] != expected["elapsed_cycles"]:
        problems.append(f"elapsed {rec['elapsed_cycles']} cycles, expected "
                        f"{expected['elapsed_cycles']}")
    got, want = rec["node_digests"], expected["node_digests"]
    if len(got) != len(want):
        problems.append(f"{len(got)} node digests, expected {len(want)}")
    else:
        bad = [n for n, (a, b) in enumerate(zip(got, want)) if a != b]
        if bad:
            problems.append(f"counter digest differs on {len(bad)} node(s), "
                            f"first node {bad[0]}")
    return problems


# ---- one measured run -----------------------------------------------------

class Run:
    """All records of one workload run, in spawn order."""

    def __init__(self, workload):
        self.workload = workload
        self.iters = []      # (record, problems, start, end)
        self.setups = []     # setup-only seconds
        self.probes = None
        self.host = None

    @property
    def ok_iters(self):
        """Iterations that ran to completion (timed even when their output
        check failed)."""
        return [r for r, _, _, _ in self.iters if not r.get("error")]

    @property
    def counts(self):
        """Layer counts of the first traced iteration, preferring one whose
        outputs passed the check."""
        done = [(r, p) for r, p, _, _ in self.iters if not r.get("error")]
        ranked = sorted(done, key=lambda rp: (not rp[0]["traced"], bool(rp[1])))
        return ranked[0][0]["counts"]

    @property
    def attempted(self):
        return len(self.iters)

    @property
    def failed(self):
        return sum(1 for _, problems, _, _ in self.iters if problems)


def measure(binary, workload, seconds, traced, setup_reps, min_iters):
    expected = load_expected()[workload]
    run = Run(workload)
    run.host, _, _ = spawn(binary, ["--host"])
    work = WORK_DIR / workload
    begin = time.monotonic()
    for _ in range(setup_reps):
        rec, _, _ = spawn(binary, ["--workload", workload, "--setup-only",
                                   "--work-dir", str(work)])
        if rec.get("error"):
            raise BenchError(f"{workload} setup failed: {rec['error']}")
        run.setups.append(rec["setup_s"])
    last = 0.0  # duration of the latest iteration
    while (len(run.iters) < min_iters
           or time.monotonic() - begin + last <= seconds):
        # Traced runs alternate, starting with spans on, so the span cost
        # can be read off against the iterations without them.
        spans = traced and len(run.iters) % 2 == 0
        args = ["--workload", workload, "--work-dir", str(work)]
        rec, start, end = spawn(binary, args + (["--spans"] if spans else []))
        last = end - start
        rec.setdefault("traced", spans)
        problems = check_iteration(rec, expected)
        for p in problems:
            log(f"{workload} iteration {len(run.iters)}: {p}")
        run.iters.append((rec, problems, start, end))
    if traced:
        run.probes, _, _ = spawn(binary, ["--probes"])
        if run.probes.get("error"):
            raise BenchError(f"probes failed: {run.probes['error']}")
    shutil.rmtree(work, ignore_errors=True)
    if not run.ok_iters:
        raise BenchError(f"{workload}: no iteration completed")
    return run


# ---- reductions -----------------------------------------------------------

def med(values):
    return statistics.median(values)


def end_to_end(run):
    ok = run.ok_iters
    return {
        "setup_s": med(run.setups + [r["setup_s"] for r in ok]),
        "run_s": med([r["run_s"] for r in ok]),
        "total_s": med([r["total_s"] for r in ok]),
        "sim_mips": med([r["counts"]["instructions"] / r["run_s"] / 1e6
                         for r in ok]),
        "cpu_s": med([r["cpu_s"] for r in ok]),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in ok]),
    }


def mem_estimate_s(c, p):
    """Host seconds the cache walks would take at the probes' per-walk
    costs: an ESTIMATE. L1 read hits at the L1-hit probe, L2 read hits at
    the streaming probe, walks below L2 split by the L3 read miss ratio
    between the L3-hit and DDR-miss probes, stores at the store probe."""
    m3 = c["l3_read_misses"] / c["l3_reads"] if c["l3_reads"] else 0.0
    ns = ((c["l1d_reads"] - c["l1d_read_misses"]) * p["l1_hit"]
          + (c["l2_reads"] - c["l2_read_misses"]) * p["stream_pf"]
          + c["l2_read_misses"] * ((1 - m3) * p["l3_hit"] + m3 * p["ddr_miss"])
          + c["l1d_writes"] * p["store"])
    return ns * 1e-9


def per_layer(run):
    ok = run.ok_iters
    traced = [r for r in ok if r["traced"]] or ok
    plain = [r for r in ok if not r["traced"]]
    c = run.counts
    run_s = med([r["run_s"] for r in ok])
    m = {
        "runtime.machine_ctor_s": med([r["machine_ctor_s"] for r in ok]),
        "runtime.cpu_per_wall": med([r["cpu_s"] / r["run_s"] for r in ok]),
        "core.session_ctor_s": med([r["session_ctor_s"] for r in ok]),
        "core.init_s": med([r["init_s"] for r in traced]),
        "core.finalize_s": med([r["finalize_s"] for r in traced]),
        "core.dump_bytes": c["dump_bytes"],
        "trace.samples": c["trace_samples"],
        "trace.dropped": c["trace_dropped"],
        "trace.bytes": c["trace_bytes"],
        "postproc.mine_s": med([r["mine_s"] for r in ok]),
        "postproc.timeline_s": med([r["timeline_s"] for r in ok]),
        "mem.l1d.reads": c["l1d_reads"],
        "mem.l1d.writes": c["l1d_writes"],
        "mem.l1d.misses": c["l1d_misses"],
        "mem.l2.misses": c["l2_misses"],
        "mem.prefetch.issued": c["pf_issued"],
        "mem.prefetch.hit_ratio": (c["pf_hits"] / c["pf_issued"]
                                   if c["pf_issued"] else 0.0),
        "mem.l3.accesses": c["l3_accesses"],
        "mem.l3.misses": c["l3_misses"],
        "mem.ddr.requests": c["ddr_requests"],
        "mem.snoop.requests": c["snoop_requests"],
        "mem.snoop.filter_ratio": (c["snoop_filtered"] / c["snoop_requests"]
                                   if c["snoop_requests"] else 0.0),
        "upc.counted_events": c["counted_events"],
        "cpu.instructions": c["instructions"],
        "cpu.flops": c["flops"],
        "bench.span_overhead_s": (
            med([r["total_s"] for r in traced]) -
            med([r["total_s"] for r in plain]) if plain else 0.0),
    }
    for name in (*MEM_PROBES, *OTHER_PROBES):
        m[name] = run.probes[name]["median"]
        m[name + "_iqr"] = run.probes[name]["iqr"]
    costs = {key: run.probes[name]["median"]
             for name, key in MEM_PROBES.items()}
    m["mem.est_share"] = mem_estimate_s(c, costs) / run_s
    return m


def span_summary(run):
    """All spans of the run (each traced iteration's process as a root, the
    iteration's own spans under it) and each name's summed self time."""
    spans = []
    for rec, _, start, end in run.iters:
        if not rec.get("spans"):
            continue
        root = len(spans)
        spans.append({"id": root, "parent": -1, "name": "iteration_process",
                      "start_s": start, "end_s": end})
        for s in rec.get("spans", []):
            parent = root if s["parent"] < 0 else root + 1 + s["parent"]
            spans.append({**s, "id": root + 1 + s["id"], "parent": parent})
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    summary = {}
    for s in spans:
        covered, cur_a, cur_b = 0.0, 0.0, -1.0
        for a, b in sorted((k["start_s"], k["end_s"])
                           for k in children.get(s["id"], [])):
            if a > cur_b:
                covered += max(0.0, cur_b - cur_a)
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        covered += max(0.0, cur_b - cur_a)
        dur = s["end_s"] - s["start_s"]
        agg = summary.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - covered
    return spans, summary


# ---- reporting ------------------------------------------------------------

def load_declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def metric_line(name, value, unit):
    return f"{name} {value!r} {unit}"


def report(run, metrics, declared, seed, trace_flag):
    """Print the human-readable lines, then the JSON result line."""
    h, first = run.host, run.ok_iters[0]
    print(f"# simbench {run.workload} seed={seed} trace={trace_flag} | "
          f"nproc {h.get('nproc')} | build {h.get('build_type')} | "
          f"{h.get('compiler')} | cpu {h.get('cpu_model')} | load avg "
          f"{h.get('loadavg_1m')} at start | {first['dispatcher']} "
          f"dispatcher, jobs {first['jobs']}, pinned cpu "
          f"{first['pinned_cpu']} | seed selects nothing: the NAS inputs "
          f"are fixed by problem class")
    print(f"# iterations: {run.attempted} attempted, {run.failed} failed the "
          f"output check; setup-only repetitions: {len(run.setups)}")
    for k, (rec, problems, _, _) in enumerate(run.iters):
        if not rec.get("error"):
            print(f"# iteration {k}: run_s {rec['run_s']:.4f} cpu_s "
                  f"{rec['cpu_s']:.4f} total_s {rec['total_s']:.4f} "
                  f"{'traced' if rec['traced'] else 'untraced'}")
        for p in problems:
            print(f"# iteration {k} FAILED: {p}")
    out = {}
    for d in declared:
        value = metrics[d["name"]]
        note = " (estimate)" if d["name"] == "mem.est_share" else ""
        print(metric_line(d["name"], value, d["unit"]) + note)
        out[d["name"]] = {"value": value, "unit": d["unit"]}
    print(metric_line("fail_frac", run.failed / run.attempted, "ratio"))
    if "mem.est_share" in out:  # per-layer report: add probe and span detail
        print(f"# probe streams served at the intended level: L3 "
              f"{run.probes['l3_hit_level_share']!r}, DDR "
              f"{run.probes['ddr_miss_level_share']!r}")
        _, summary = span_summary(run)
        for name, agg in summary.items():
            print(f"# span {name}: count {agg['count']}, total "
                  f"{agg['total_s']:.6f} s, self {agg['self_s']:.6f} s")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": out}


def write_spans(run, seed):
    spans, summary = span_summary(run)
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    path = SPANS_DIR / f"{run.workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": run.workload, "spans": spans,
                   "self_time": summary}, f)
    print(f"# spans written to {path.relative_to(ROOT)}")


# ---- modes ----------------------------------------------------------------

def main_run(args):
    binary = build()
    end_to_end_decl, per_layer_decl = load_declared()
    traced = args.trace == 1
    run = measure(binary, args.workload, args.seconds, traced,
                  setup_reps=0 if traced else SETUP_REPS,
                  min_iters=MIN_ITERS)
    if traced:
        result = report(run, per_layer(run), per_layer_decl, args.seed, 1)
        write_spans(run, args.seed)
    else:
        result = report(run, end_to_end(run), end_to_end_decl, args.seed, 0)
    print(json.dumps(result))


def main_short():
    """Every workload once with spans and once without, both metric sets."""
    binary = build()
    end_to_end_decl, per_layer_decl = load_declared()
    summary = {}
    for w in WORKLOADS:
        run = measure(binary, w, 0, True, setup_reps=1, min_iters=2)
        report(run, end_to_end(run), end_to_end_decl, 0, 0)
        result = report(run, per_layer(run), per_layer_decl, 0, 1)
        summary[w] = {k: result[k] for k in ("correct", "attempted", "failed")}
        summary[w]["problems"] = [p for _, ps, _, _ in run.iters for p in ps]
    print(json.dumps({"short": True, "workloads": summary}))


def main_record():
    """Take the expected outputs from the default (serial) dispatcher."""
    binary = build()
    workloads = {}
    for w in WORKLOADS:
        rec, _, _ = spawn(binary, ["--workload", w, "--serial", "--work-dir",
                                   str(WORK_DIR / w)])
        if rec.get("error") or not (rec["verified"] and rec["mine_ok"]
                                    and rec["timeline_ok"]):
            raise BenchError(f"{w}: the default dispatcher's run is not "
                             f"clean: {rec}")
        workloads[w] = {"elapsed_cycles": rec["elapsed_cycles"],
                        "node_digests": rec["node_digests"]}
        log(f"{w}: {rec['elapsed_cycles']} cycles")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as f:
        json.dump({"dispatcher": "serial (the default); run.py --record",
                   "workloads": workloads}, f, indent=1)
        f.write("\n")


def main(argv=None):
    # Exit through SystemExit on SIGTERM so a running subprocess.run kills
    # and reaps its child before this process goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record:
            main_record()
        elif args.short:
            main_short()
        elif args.workload:
            main_run(args)
        else:
            ap.error("give --workload, --short or --record")
    except BenchError as e:
        log(str(e))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
