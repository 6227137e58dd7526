#!/usr/bin/env python3
"""Repository benchmark for the MLTCP simulator.

Builds the perfbench binary from ../src (CMake, Release), runs one workload
repeatedly for a fixed wall-clock budget, checks every run's outputs and
prints the metrics, then one JSON result line last:

  python3 perfbench/run.py --workload train_packet --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all            # every workload, seed 1
  python3 perfbench/run.py --selftest                # benchmark's own tests

--trace 0 reports the end-to-end metrics of untraced runs. --trace 1 runs
rounds of (untraced, sliced, traced) instances and reports the per-layer
metrics: counts from the untraced run, slice and heap figures from the
sliced run, self times from the traced run. Each instance is its own
process, so its peak memory is its own, and runs one input drawn from
--seed (see INPUTS_PER_PASS). Run from the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 1
# A seed no tuning used: check a claimed gain on it too.
HELD_OUT_SEED = 7
# A run makes whole passes over the same inputs drawn from --seed, however
# fast the program is: run time varies with the input, so every commit must
# take its medians over the same inputs, each weighed alike. --seconds only
# sets how many passes: another pass starts only while it is expected to
# end within --seconds, and at least one always runs. A pass takes about
# 13 s on a 4-vCPU Sapphire Rapids guest; train_flowsim's run time varies
# most from input to input (16% coefficient of variation), so it gets the
# most inputs.
INPUTS_PER_PASS = {"train_packet": 24, "mix_packet": 12,
                   "poisson_flowsim": 32, "train_flowsim": 32}
INPUT_STRIDE = 64       # Seed s draws input seeds 64*s, 64*s+1, ...
# A traced pass covers the first TRACE_INPUTS inputs, each as three
# instances (untraced, sliced, traced).
TRACE_INPUTS = 4

WORKLOADS = ["train_packet", "mix_packet", "poisson_flowsim", "train_flowsim"]

# (name, unit, better); bounds live in BENCHMARK.json.
END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("sim.events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.heap_peak", "count", "lower"),
    ("sim.slice_p50_ms", "ms", "lower"),
    ("sim.slice_tail_ms", "ms", "lower"),
    ("net.pkt_hops", "count", "lower"),
    ("net.ns_per_hop", "ns", "lower"),
    ("net.queue_calls", "count", "lower"),
    ("net.queue_self_ns", "ns", "lower"),
    ("net.drops", "count", "lower"),
    ("net.fault_drops", "count", "lower"),
    ("net.backlog_peak_bytes", "bytes", "lower"),
    ("net.topo_build_s", "s", "lower"),
    ("tcp.data_pkts", "count", "lower"),
    ("tcp.retx", "count", "lower"),
    ("tcp.timeouts", "count", "lower"),
    ("tcp.goodput_frac", "ratio", "higher"),
    ("tcp.cc_calls", "count", "lower"),
    ("tcp.cc_self_ns", "ns", "lower"),
    ("core.gain_calls", "count", "lower"),
    ("core.gain_self_ns", "ns", "lower"),
    ("workload.iterations", "count", "higher"),
    ("workload.comm_frac", "ratio", "lower"),
    ("workload.jobs_build_s", "s", "lower"),
    ("workload.iter_p50_s", "s", "lower"),
    ("workload.iter_tail_s", "s", "lower"),
    ("traffic.posted", "count", "higher"),
    ("traffic.completed", "count", "higher"),
    ("traffic.channels", "count", "lower"),
    ("traffic.callback_self_ns", "ns", "lower"),
    ("traffic.install_s", "s", "lower"),
    ("traffic.fct_p50_s", "s", "lower"),
    ("traffic.fct_tail_s", "s", "lower"),
    ("flowsim.recomputes", "count", "lower"),
    ("flowsim.fills_per_transfer", "ratio", "lower"),
    ("flowsim.dirty_links_per_recompute", "ratio", "lower"),
    ("flowsim.heap_updates", "count", "lower"),
    ("flowsim.create_self_ns", "ns", "lower"),
    ("flowsim.post_self_ns", "ns", "lower"),
    ("scenario.applied", "count", "higher"),
    ("scenario.skipped", "count", "lower"),
    ("digest_match", "ratio", "higher"),
    ("failed_frac", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
]

# Per-layer metrics each instance mode supplies (the rest come from the
# untraced instance).
FROM_SLICED = {"sim.heap_peak"}
FROM_TRACED = {"net.queue_calls", "net.queue_self_ns", "tcp.data_pkts",
               "tcp.retx", "tcp.timeouts", "tcp.goodput_frac", "tcp.cc_calls",
               "tcp.cc_self_ns", "core.gain_calls", "core.gain_self_ns",
               "traffic.callback_self_ns", "flowsim.create_self_ns",
               "flowsim.post_self_ns"}

# An instance takes a few seconds at most; these keep a whole run, trace
# rounds included, inside three minutes even if one hangs.
INSTANCE_TIMEOUT_S = 12
HARD_STOP_S = 90        # No pass starts that is expected to end later.


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# -------------------------------------------------------------------- build

def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise SystemExit("perfbench: run from the repository root "
                         "(src/CMakeLists.txt not found)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs])
    return os.path.join(out, "perfbench")


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit("perfbench: build step failed: " + " ".join(cmd))


# ---------------------------------------------------------------- instances

def input_seeds(workload, seed):
    """The inputs a run of --seed measures, as perfbench input seeds."""
    return [seed * INPUT_STRIDE + k
            for k in range(INPUTS_PER_PASS[workload])]


def instance(binary, workload, seed, mode):
    """One benchmark instance in its own process; None if it failed."""
    cmd = [binary, "run", workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=INSTANCE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} {mode} timed out")
        return None
    if proc.returncode != 0:
        log(f"perfbench: {workload} {mode} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-400:]}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"perfbench: {workload} {mode} printed no result")
        return None


def judge(instances, references):
    """Counts failed instances: crashed, failed an output check, or reached
    a state digest other than the reference digest of its input."""
    failed = 0
    notes = []
    for inst in instances:
        if inst is None:
            failed += 1
            notes.append("instance crashed or printed no result")
            continue
        bad = [c for c in inst["checks"] if not c["ok"]]
        want = references.get(inst["seed"])
        if bad:
            notes += [f"{inst['mode']}: {c['name']}: {c['detail']}"
                      for c in bad]
        elif inst["digest"] != want:
            notes.append(f"{inst['mode']} input {inst['seed']}: digest "
                         f"{inst['digest']} != {want}")
        else:
            continue
        failed += 1
    return failed, notes


def reference_digests(instances):
    """Per input seed: the digest most untraced repeats of it agree on,
    which every instance of the input must reach."""
    seeds = sorted({i["seed"] for i in instances if i is not None})
    return {seed: statistics.mode([i["digest"] for i in instances
                                   if i is not None and i["seed"] == seed])
            for seed in seeds}


def passes(inputs, seconds, run_one):
    """Runs whole passes of run_one over `inputs` while the next pass is
    expected to end within `seconds`; returns the results and the number
    of passes."""
    start = time.monotonic()
    results = []
    count = 0
    while True:
        pass_start = time.monotonic()
        results += [run_one(seed) for seed in inputs]
        count += 1
        now = time.monotonic()
        if now - start + (now - pass_start) > min(seconds, HARD_STOP_S):
            return results, count


# -------------------------------------------------------------- aggregation

def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(instances):
    ok = [i for i in instances if i is not None]
    return {
        "run_s": median([i["run_s"] for i in ok]),
        "setup_s": median([s for i in ok for s in i["setup_s"]]),
        "peak_rss_mb": median([i["peak_rss_mb"] for i in ok]),
    }


def per_layer(rounds, references, failed, attempted):
    """Per-layer metrics from rounds of (plain, sliced, traced) instances,
    each a median over rounds."""
    ok = [r for r in rounds if all(i is not None for i in r)]
    if not ok:
        return {name: 0.0 for name, _, _ in PER_LAYER}
    out = {}
    for name, _, _ in PER_LAYER:
        mode = 1 if name in FROM_SLICED else 2 if name in FROM_TRACED else 0
        if name in ok[0][0]["layers"]:
            out[name] = median([r[mode]["layers"][name] for r in ok])
    out["sim.slice_p50_ms"] = median([r[1]["slice_ms"]["p50"] for r in ok])
    out["sim.slice_tail_ms"] = median([r[1]["slice_ms"]["tail"] for r in ok])
    out["workload.iter_p50_s"] = median([r[0]["iter"]["p50"] for r in ok])
    out["workload.iter_tail_s"] = median([r[0]["iter"]["tail"] for r in ok])
    out["traffic.fct_p50_s"] = median([r[0]["fct"]["p50"] for r in ok])
    out["traffic.fct_tail_s"] = median([r[0]["fct"]["tail"] for r in ok])
    every = [i for r in rounds for i in r if i is not None]
    out["digest_match"] = ratio(
        sum(1 for i in every if i["digest"] == references.get(i["seed"])),
        len(every))
    out["failed_frac"] = ratio(failed, attempted)
    out["trace_overhead"] = median([ratio(r[2]["run_s"], r[0]["run_s"])
                                    for r in ok])
    return out


def ratio(a, b):
    return a / b if b else 0.0


# ------------------------------------------------------------------ reports

def source_fingerprint():
    """Names the code measured: the git commit, marked +dirty when src/ or
    perfbench/ differ from it (or "none" outside a git work tree), and a
    hash of the src/ and perfbench/ files themselves."""
    sha = "none"
    if os.path.isdir(".git") and shutil.which("git"):
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--",
                                "src", "perfbench"],
                               capture_output=True, text=True)
        if head.returncode == 0:
            sha = head.stdout.strip() + ("+dirty" if dirty.stdout else "")
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for f in sorted(files):
                path = os.path.join(root, f)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return f"sha={sha} tree={h.hexdigest()[:12]}"


def host_line(binary, workload, seed, inputs, passes_made):
    proc = subprocess.run([binary, "host"], capture_output=True, text=True)
    compiler, flags = (proc.stdout.splitlines() + ["?", "?"])[:2]
    affinity = len(os.sched_getaffinity(0))
    return (f"host: nproc={os.cpu_count()} usable={affinity} "
            f"compiler=\"{compiler}\" flags=\"{flags.strip()}\" "
            f"{source_fingerprint()} workload={workload} seed={seed} "
            f"inputs={inputs[0]}..{inputs[-1]} passes={passes_made} "
            f"threads=1")


def print_end_to_end(metrics, instances, failed, attempted):
    units = {name: unit for name, unit, _ in END_TO_END}
    ok = [i for i in instances if i is not None]
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]} "
              f"(median of {len(ok)} runs)")
    print(f"failed_frac = {ratio(failed, attempted):.6g} "
          f"({failed}/{attempted} runs)")
    # Simulated results are per input; print the median over the inputs.
    first = {}
    for i in ok:
        first.setdefault(i["seed"], i)
    for key, label in (("iter", "sim_iter"), ("fct", "sim_fct")):
        stats = [i[key] for i in first.values() if i[key]["n"]]
        if not stats:
            print(f"{label}_p50_s = n/a")
            print(f"{label}_tail_s = n/a")
            continue
        n = sum(st["n"] for st in stats)
        p50 = median([st["p50"] for st in stats])
        print(f"{label}_p50_s = {p50:.6g} s (median over {len(stats)} "
              f"inputs, n={n})")
        tails = [st for st in stats if st["pct"]]
        if tails:
            pct = min(st["pct"] for st in tails)
            print(f"{label}_tail_s = {median([st['tail'] for st in tails]):.6g}"
                  f" s (p{pct:g} per input, median over {len(tails)} inputs, "
                  f"n={n})")
        else:
            print(f"{label}_tail_s = n/a (too few samples)")


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })


# --------------------------------------------------------------------- runs

def measure(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (attempted, failed, metrics, units)."""
    if not trace:
        inputs = input_seeds(workload, seed)
        instances, made = passes(
            inputs, seconds,
            lambda k: instance(binary, workload, k, "plain"))
        # Two passes already repeat every input; otherwise repeat the first,
        # so repeats of one input are always checked for one digest. The
        # extra repeat is judged but kept out of the medians.
        extra = ([] if made > 1 else
                 [instance(binary, workload, inputs[0], "plain")])
        judged = instances + extra
        failed, notes = judge(judged, reference_digests(judged))
        print(host_line(binary, workload, seed, inputs, made))
        metrics = end_to_end(instances)
        print_end_to_end(metrics, instances, failed, len(judged))
        for n in notes:
            print("check failed:", n)
        units = {name: unit for name, unit, _ in END_TO_END}
        return len(judged), failed, metrics, units

    inputs = input_seeds(workload, seed)[:TRACE_INPUTS]
    rounds, made = passes(
        inputs, seconds,
        lambda k: tuple(instance(binary, workload, k, mode)
                        for mode in ("plain", "sliced", "traced")))
    extra = ([] if made > 1 else
             [instance(binary, workload, inputs[0], "plain")])
    flat = [i for r in rounds for i in r] + extra
    references = reference_digests([r[0] for r in rounds] + extra)
    failed, notes = judge(flat, references)
    print(host_line(binary, workload, seed, inputs, made))
    metrics = per_layer(rounds, references, failed, len(flat))
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, unit, _ in PER_LAYER:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for n in notes:
        print("check failed:", n)
    traced = next((r[2] for r in rounds if r[2] is not None), None)
    if traced is not None:
        path = os.path.join(build_dir(),
                            f"spans-{workload}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump(traced["spans"], fh, indent=1)
        print(f"spans: {path}")
    return len(flat), failed, metrics, units


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all",
                    help="one of " + ", ".join(WORKLOADS) + ", or all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held-out "
                         f"seed for checking gains: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.workload not in WORKLOADS + ["all"]:
        ap.error("unknown workload " + args.workload)

    binary = build()
    if args.selftest:
        import selftest
        return selftest.main(binary)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics, units = {}, {}
    for name in names:
        a, f, m, u = measure(binary, name, args.seed, args.seconds,
                             bool(args.trace))
        attempted += a
        failed += f
        prefix = name + "." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        units.update({prefix + k: v for k, v in u.items()})
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
