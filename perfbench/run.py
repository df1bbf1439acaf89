#!/usr/bin/env python3
"""The repository benchmark: builds the simulator from source and measures
one workload for a fixed time.

    python3 perfbench/run.py --workload faults-online --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. Each workload run is one process of the
`perfbench` binary (perfbench.cpp). One warm-up process runs first, then
processes are launched again and again until `--seconds` have passed;
host-time metrics are the median over the processes after the warm-up.
With `--trace 1` the untraced runs are followed by one traced run whose
per-layer numbers are reported instead. Every run's simulated outputs
are checked (conservation ledger in every process, the committed expected
values at the default seed, repeat identity and traced-equals-untraced at
every seed). The last stdout line is the JSON result; see README.md.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED_DIR = os.path.join(HERE, "expected")

DEFAULT_SEED = 1
# The workloads of BENCHMARK.json. sweep-fig11a can still be run by name;
# it is left out of BENCHMARK.json because its host times spread more than
# their bound on a shared host (see README.md, Steadiness).
WORKLOADS = ["sat-r32-sh2", "tenants-r16", "faults-online"]
EXTRA_WORKLOADS = ["sweep-fig11a"]
MIN_RUNS = 3          # timed untraced processes per measurement, at least
CHILD_TIMEOUT_S = 120  # keeps a hung run inside the 180 s limit
# Host times are reported at a nominal host speed. Right before each timed
# process, `perfbench --calibrate` times a fixed kernel that shares no code
# with the simulator (reference_kernel_s in perfbench.cpp). The medians of
# a run's host times are multiplied by NOMINAL_REF_S / the median of the
# kernel's times. A shared host's speed drifts by 20-40% over minutes and
# the kernel drifts with it: while it drifted, the scaled times of the
# workloads that fit in the LLC spread a third to a half as much as raw
# ones (README.md, Steadiness). The raw times stay in the .bench_out
# records.
NOMINAL_REF_S = 0.4

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "flit_hops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_accepted": "flits/cycle/chip",
    "sim_latency_cycles": "cycles",
    "sim_ttc_cycles": "cycles",
}

PER_LAYER = {
    "topo.wire_s": "s",
    "sim.finalize_s": "s",
    "faults.inject_s": "s",
    "faults.steps": "count",
    "faults.step_s": "s",
    "traffic.dest_calls": "count",
    "traffic.dest_s": "s",
    "route.calls": "count",
    "route.init_calls": "count",
    "route.busy_s": "s",
    "route.ns_per_call": "ns",
    "sim.steps": "count",
    "sim.step_s": "s",
    "sim.step_self_s": "s",
    "sim.hops_per_step": "hops/step",
    "sim.step_p50_us": "us",
    "sim.step_tail_us": "us",
    "sim.step_tail_pct": "%",
    "sim.skip_calls": "count",
    "sim.cycles_skipped": "cycles",
    "sim.idle_frac": "frac",
    "sim.drain_s": "s",
    "workload.gen_s": "s",
    "workload.messages": "count",
    "trace.run_tenants_s": "s",
    "trace.run_tenants_self_s": "s",
    "tracing.overhead_frac": "frac",
    "tracing.unattributed_s": "s",
}

# Fields of the committed expected outputs (perfbench/expected/).
POINT_FIELDS = ["series", "rate", "cycles_run", "flit_hops", "delivered_total",
                "accepted", "avg_latency", "p99_latency"]
SIM_KEYS = ["flit_hops", "runs", "sim_accepted", "sim_latency_cycles",
            "sim_ttc_cycles", "points", "closed"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build ---

def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.hpp"))):
        raise RuntimeError("the simulator sources (CMakeLists.txt, src/) are "
                           "not in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def run_child(exe, workload, seed, scale="full", spans=None):
    """One workload run in its own process; returns its parsed result
    (None when the process failed before printing one) and its exit code."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--scale", scale]
    if spans:
        cmd += ["--spans", spans]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None, -1
    if p.stderr:
        log(p.stderr.rstrip())
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), p.returncode
    except (IndexError, ValueError):
        log("perfbench: %s printed no result (exit %d)" % (workload,
                                                            p.returncode))
        return None, p.returncode


def calibrate(exe):
    """Seconds the host-speed reference kernel takes now; None on failure."""
    try:
        p = subprocess.run([exe, "--calibrate"], capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S, check=True)
        return json.loads(p.stdout.strip().splitlines()[-1])["ref_s"]
    except (subprocess.SubprocessError, IndexError, ValueError, KeyError):
        log("perfbench: the reference kernel failed")
        return None


# ----------------------------------------------------------------- checks ---

def sim_outputs(r):
    return {k: r[k] for k in SIM_KEYS}


def expected_view(r):
    """The subset of a run's outputs that is committed per workload."""
    points = [{k: p[k] for k in POINT_FIELDS} for p in r["points"]]
    closed = [{"makespan": c["makespan"],
               "packets_delivered": c["packets_delivered"],
               "tenants": [{k: t[k] for k in ("name", "ttc", "isolated_ttc")}
                           for t in c["tenants"]]} for c in r["closed"]]
    return {"points": points, "closed": closed}


def same(a, b, rel=0.0):
    """Structural equality; floats may differ by `rel` relative. Processes
    of one build must agree exactly (the default); against the committed
    expected values 1e-9 absorbs another compiler's last-bit rounding."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y, rel)
                                        for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


def expected_path(workload):
    return os.path.join(EXPECTED_DIR, workload + ".json")


def check_runs(workload, seed, untraced, traced):
    """Returns (problems, failed engine runs) over every process of one
    measurement: ledger verdicts, repeat identity, traced-equals-untraced
    and, at the default seed, the committed expected outputs."""
    problems = []
    failed = 0
    runs = untraced + ([traced] if traced else [])
    ref = runs[0]
    for i, r in enumerate(runs):
        tag = "traced run" if r is traced else "run %d" % i
        failed += r["runs_failed"]
        problems += ["%s: %s" % (tag, e) for e in r["errors"]]
        if i and not same(sim_outputs(r), sim_outputs(ref)):
            problems.append("%s: simulated outputs differ from run 0" % tag)
            failed += r["runs"] - r["runs_failed"]
    if seed == DEFAULT_SEED:
        path = expected_path(workload)
        want = None
        if os.path.isfile(path):
            with open(path) as f:
                want = json.load(f)
        if want is None or not same(expected_view(ref), want, rel=1e-9):
            # Every process matched run 0 or is already counted above.
            problems.append("outputs do not match " + path)
            failed = sum(r["runs"] for r in runs)
    return problems, failed


# ------------------------------------------------------------- provenance ---

def provenance(r):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = "unknown"
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        best = -1
        for d in os.listdir(base):
            if not d.startswith("index"):
                continue
            with open(os.path.join(base, d, "level")) as f:
                level = int(f.read())
            if level > best:
                best = level
                with open(os.path.join(base, d, "size")) as f:
                    llc = "L%d %s" % (level, f.read().strip())
    except (OSError, ValueError):
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_file = os.path.join(ROOT, ".git", ref[5:])
            commit = ref[5:]
            if os.path.isfile(ref_file):
                with open(ref_file) as f:
                    commit = f.read().strip()
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "llc": llc,
        "compiler": r["compiler"],
        "build_type": r["build_type"],
        "lto": r["lto"],
        "release_build": r["build_type"] == "Release",
        "git_commit": commit,
    }


# ---------------------------------------------------------------- measure ---

def measure(exe, workload, seed, seconds, trace):
    """Runs one measurement; returns (result dict, record for .bench_out)."""
    untraced = []
    t_start = time.monotonic()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "samples": untraced, "warmup": None,
              "traced": None}
    crashed = 0
    # The first process of a measurement runs cold: its setup_s often reads
    # about twice the median of the rest. It is checked but not timed.
    warmup, _ = run_child(exe, workload, seed)
    if warmup is None:
        crashed += 1
    record["warmup"] = warmup
    # Untraced processes until the time is used up; a traced measurement
    # keeps room for its traced run (about one and a half untraced ones).
    reserve = 1.5 if trace else 0.0
    need = 2 if trace else MIN_RUNS
    while warmup is not None:
        t0 = time.monotonic()
        ref_s = calibrate(exe)
        r = run_child(exe, workload, seed)[0] if ref_s else None
        if r is None:
            crashed += 1
            break
        r["ref_s"] = ref_s
        untraced.append(r)
        now = time.monotonic()
        if len(untraced) >= need and \
                now - t_start + (now - t0) * (1.0 + reserve) > seconds:
            break
    if not untraced:
        record["problems"] = ["no run printed a result"]
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}, record
    traced = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        record["spans_file"] = os.path.join(
            OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))
        traced, _ = run_child(exe, workload, seed,
                              spans=record["spans_file"])
        if traced is None:
            crashed += 1

    checked = [warmup] + untraced
    problems, failed = check_runs(workload, seed, checked, traced)
    attempted = sum(r["runs"] for r in checked) + \
        (traced["runs"] if traced else 0) + crashed
    failed += crashed
    if crashed:
        problems.append("%d process(es) crashed" % crashed)

    ref = untraced[0]
    metrics = {}

    def median(key):
        return statistics.median([key(r) for r in untraced])
    raw = {k: median(lambda r: r[k]) for k in ("wall_s", "setup_s", "ref_s")}
    record["raw_medians"] = raw
    scale = NOMINAL_REF_S / raw["ref_s"]
    if trace:
        if traced is not None:
            layers = traced["layers"]
            for name in PER_LAYER:
                if name == "tracing.overhead_frac":
                    v = traced["wall_s"] / raw["wall_s"] - 1.0
                else:
                    v = layers[name]
                metrics[name] = {"value": v, "unit": PER_LAYER[name]}
    else:
        values = {
            "wall_s": raw["wall_s"] * scale,
            "setup_s": raw["setup_s"] * scale,
            "flit_hops_per_s": median(lambda r: r["flit_hops"] /
                                      r["engine_s"]) / scale,
            "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
            "sim_accepted": ref["sim_accepted"],
            "sim_latency_cycles": ref["sim_latency_cycles"],
            "sim_ttc_cycles": ref["sim_ttc_cycles"],
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}

    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(provenance=provenance(ref), problems=problems,
                  traced=traced, elapsed_s=time.monotonic() - t_start)
    return result, record


def report(workload, result, record):
    """Human-readable lines: provenance, checks, every metric with unit."""
    prov = record.get("provenance")
    if prov:
        print("# %s: provenance %s" % (workload, json.dumps(prov)))
        if not prov["release_build"]:
            print("# WARNING: build type %r is not Release; host times are "
                  "not comparable" % prov["build_type"])
    print("# %s: a warm-up and %d timed untraced run(s)%s, seed %d, %s" % (
        workload, len(record["samples"]),
        " + 1 traced" if record.get("traced") else "", record["seed"],
        "outputs OK" if result["correct"] else
        "OUTPUT CHECK FAILED: " + "; ".join(record["problems"])))
    raw = record.get("raw_medians")
    if raw:
        print("# %s: raw medians wall_s %.4g s, setup_s %.4g s; reference "
              "kernel %.4g s, host times scaled to %.4g s" % (
                  workload, raw["wall_s"], raw["setup_s"], raw["ref_s"],
                  NOMINAL_REF_S))
    for name, m in result["metrics"].items():
        print("%s %s %.6g %s" % (workload, name, m["value"], m["unit"]))


def record_expected(exe):
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for w in WORKLOADS + EXTRA_WORKLOADS:
        r, rc = run_child(exe, w, DEFAULT_SEED)
        if r is None or rc != 0 or r["runs_failed"]:
            raise RuntimeError("%s failed; not recording" % w)
        with open(expected_path(w), "w") as f:
            json.dump(expected_view(r), f, indent=1, sort_keys=True)
            f.write("\n")
        log("wrote " + expected_path(w))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="one of %s, or 'all' (the first %d)" % (
                        ", ".join(WORKLOADS + EXTRA_WORKLOADS),
                        len(WORKLOADS)))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite perfbench/expected/ from the current "
                         "build at the default seed, then exit")
    args = ap.parse_args()
    # As an exception, SIGTERM makes subprocess.run kill and reap the
    # current child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload != "all" and \
            args.workload not in WORKLOADS + EXTRA_WORKLOADS:
        ap.error("unknown workload %r" % args.workload)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: cannot build the simulator: %s" % e)
        return 2
    if args.record_expected:
        record_expected(exe)
        return 0

    names = WORKLOADS if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        result, record = measure(exe, w, args.seed, args.seconds, args.trace)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (
                w, args.seed, args.trace)), "w") as f:
            json.dump(record, f)
        report(w, result, record)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        if len(names) == 1:
            total["metrics"] = result["metrics"]
        else:
            total["metrics"].update({"%s.%s" % (w, k): v for k, v in
                                     result["metrics"].items()})
    print(json.dumps(total), flush=True)
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
