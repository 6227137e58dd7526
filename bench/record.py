#!/usr/bin/env python3
"""Runs benchmark commands and records their results in a BENCH_*.json file.

Usage:
  bench/record.py RESULT_FILE [--section NAME] [--against BASE]
                  [--floor METRIC=TOL]... [--ceiling METRIC=FACTOR]...
                  -- CMD [ARG...] [-- CMD [ARG...]]...

Each command runs in turn with its stdout echoed, and contributes runs:
  - every `RESULT key=value ...` line is one run. Decimal literals become
    int or float, anything else stays a string; `digest` (hex) always stays
    a string.
  - a google-benchmark `--benchmark_format=json` document contributes its
    median rows (or its plain rows, without repetitions) as
    {name, items_per_second, real_time_ns}.

The runs replace section NAME (default "current") of RESULT_FILE as
{"runs": [...]}; every other section is kept. A command that exits non-zero
aborts the recording: nothing is written and the recorder exits with the
command's status.

With --against, each run is compared with the run of section BASE that has
the same (name, jobs, shards, background); a missing field takes its default
(shards=1, background=none), so older records still match.
  --floor METRIC=TOL       fail if METRIC < BASE's METRIC * (1 - TOL)
  --ceiling METRIC=FACTOR  fail if METRIC > BASE's METRIC * FACTOR
A gate skips a pair whose BASE run lacks the metric or holds a value <= 0.
The record is written before the gates run, so a failing run stays on file.

The records kept in results/:
  bench/record.py results/BENCH_engine.json -- build/bench/micro_benchmarks \\
      --benchmark_filter='EventQueue|Timer' --benchmark_min_time=0.2 \\
      --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \\
      --benchmark_format=json -- build/bench/runner_scaling
  bench/record.py results/BENCH_scale.json --section ci-quick \\
      --against baseline-quick --floor events_per_sec=0.10 \\
      -- build/bench/cluster_scale --quick --repeat=3
  bench/record.py results/BENCH_flowsim.json --section ci-quick \\
      --against baseline-quick --floor transfers_per_sec=0.10 \\
      --ceiling fills_per_transfer=1.5 -- build/bench/flowsim_scale --quick
"""

import argparse
import json
import re
import subprocess
import sys

# Fields that identify a run across sections, with the value a run that
# predates the field is taken to have.
MATCH_KEY = (("name", None), ("jobs", None), ("shards", 1),
             ("background", "none"))
INT_RE = re.compile(r"[-+]?\d+\Z")
FLOAT_RE = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+(?=[eE]))([eE][-+]?\d+)?\Z")
NEW_FILE = {"schema": 1,
            "note": "benchmark record; written by bench/record.py"}


def parse_value(key, text):
    if key == "digest":
        return text
    if INT_RE.match(text):
        return int(text)
    if FLOAT_RE.match(text):
        return float(text)
    return text


def parse_result_lines(text):
    runs = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] != "RESULT":
            continue
        kv = (item.split("=", 1) for item in fields[1:])
        runs.append({k: parse_value(k, v) for k, v in kv})
    return runs


def parse_gbench(doc):
    runs = []
    for b in doc.get("benchmarks", []):
        # With repetitions + aggregates-only there are mean/median/stddev
        # rows; the median is the representative number.
        if b.get("aggregate_name", "") not in ("", "median"):
            continue
        runs.append({
            "name": b["name"].split("/")[0].replace("_median", ""),
            "items_per_second": round(b.get("items_per_second", 0.0), 1),
            "real_time_ns": round(b.get("real_time", 0.0), 2),
        })
    return runs


def run_command(cmd):
    """Runs `cmd`, echoing its stdout; returns (exit status, runs)."""
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        print(f"record: cannot run {cmd[0]}: {e}", file=sys.stderr)
        return 127, []
    lines = []
    for line in proc.stdout:
        sys.stdout.write(line)
        lines.append(line)
    sys.stdout.flush()
    status = proc.wait()
    text = "".join(lines)
    if text.lstrip().startswith("{"):
        return status, parse_gbench(json.loads(text))
    return status, parse_result_lines(text)


def split_commands(argv):
    """Splits `argv` at "--": options before the first, commands after."""
    if "--" not in argv:
        return argv, []
    head = argv.index("--")
    commands = [[]]
    for arg in argv[head + 1:]:
        if arg == "--":
            commands.append([])
        else:
            commands[-1].append(arg)
    return argv[:head], [c for c in commands if c]


def metric_bound(text):
    metric, sep, value = text.partition("=")
    if not sep or not metric:
        raise argparse.ArgumentTypeError(f"expected METRIC=NUMBER: {text}")
    return metric, float(value)


def fmt(x):
    return f"{x:.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def match_key(run):
    return tuple(run.get(field, default) for field, default in MATCH_KEY)


def label(run):
    parts = [str(run["name"])]
    for field, default in MATCH_KEY[1:]:
        if field in run and run[field] != default:
            parts.append(f"{field}={run[field]}")
    return " ".join(parts)


def check_gates(runs, base_runs, against, floors, ceilings):
    """Prints one verdict per gated pair; returns (pairs, failures)."""
    base = {match_key(r): r for r in base_runs}
    pairs = failures = 0
    for run in runs:
        b = base.get(match_key(run))
        if b is None:
            continue
        pairs += 1
        for metric, limit, kind in ([(m, t, "floor") for m, t in floors] +
                                    [(m, f, "ceiling") for m, f in ceilings]):
            ref = b.get(metric)
            if not isinstance(ref, (int, float)) or ref <= 0:
                continue
            value = run.get(metric)
            if kind == "floor":
                bound = ref * (1.0 - limit)
                ok = isinstance(value, (int, float)) and value >= bound
            else:
                bound = ref * limit
                ok = isinstance(value, (int, float)) and value <= bound
            print(f"gate {label(run)}: {metric} {value} vs {against} {ref} "
                  f"({kind} {fmt(bound)}) -> {'ok' if ok else 'REGRESSED'}")
            failures += not ok
    return pairs, failures


def main(argv):
    options, commands = split_commands(argv)
    parser = argparse.ArgumentParser(
        usage="%(prog)s RESULT_FILE [options] -- CMD [ARG...] [-- CMD...]",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("result_file")
    parser.add_argument("--section", default="current")
    parser.add_argument("--against", metavar="BASE")
    parser.add_argument("--floor", type=metric_bound, action="append",
                        default=[], metavar="METRIC=TOL")
    parser.add_argument("--ceiling", type=metric_bound, action="append",
                        default=[], metavar="METRIC=FACTOR")
    args = parser.parse_args(options)
    if not commands:
        parser.error("no bench command after --")
    if (args.floor or args.ceiling) and not args.against:
        parser.error("--floor/--ceiling need --against")

    runs = []
    for cmd in commands:
        status, cmd_runs = run_command(cmd)
        if status != 0:
            print(f"record: {' '.join(cmd)} exited {status}; nothing "
                  f"recorded", file=sys.stderr)
            return status if 0 < status < 256 else 1
        runs += cmd_runs
    if not runs:
        print("record: no RESULT lines or benchmark rows in the output",
              file=sys.stderr)
        return 1

    try:
        with open(args.result_file) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = dict(NEW_FILE)
    doc[args.section] = {"runs": runs}
    with open(args.result_file, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote section '{args.section}' to {args.result_file}")

    if not args.against:
        return 0
    if args.against not in doc:
        print(f"record: no section '{args.against}' in {args.result_file}",
              file=sys.stderr)
        return 1
    pairs, failures = check_gates(runs, doc[args.against].get("runs", []),
                                  args.against, args.floor, args.ceiling)
    if pairs == 0:
        print(f"record: no run matches a run of section '{args.against}'",
              file=sys.stderr)
        return 1
    if failures:
        print(f"record: {failures} gate failure(s) vs section "
              f"'{args.against}'", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
