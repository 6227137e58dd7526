"""perfbench's own tests: `python3 perfbench/run.py --selftest`.

- the C++ self-test (perfbench selftest): the timing wrappers and sliced
  driving leave every workload's state digest unchanged on a short input,
  and each output check fails on a deliberately corrupted snapshot;
- the digest check (repeats of one seed reach one digest) fails on a
  corrupted result, and a failed output check or crash counts as failed;
- the printed metric and workload names match BENCHMARK.json.
"""

import copy
import json
import subprocess
import time

import run

class Tally:
    def __init__(self):
        self.failures = 0

    def expect(self, ok, what):
        print(("ok  " if ok else "FAIL"), what, flush=True)
        if not ok:
            self.failures += 1


def check_names(t, binary):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    listed = subprocess.run([binary, "list"], capture_output=True,
                            text=True).stdout.split()
    t.expect(listed == run.WORKLOADS,
             "perfbench list == run.py workloads")
    t.expect([w["name"] for w in bench["workloads"]] == run.WORKLOADS,
             "BENCHMARK.json workloads == run.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        t.expect(declared == table, f"BENCHMARK.json {key} == run.py table")

    # The metrics the aggregation prints are exactly the declared ones.
    rounds = [tuple(run.instance(binary, "train_packet", run.DEFAULT_SEED,
                                 mode)
                    for mode in ("plain", "sliced", "traced"))]
    t.expect(all(i is not None for i in rounds[0]), "short instances run")
    plain = list(rounds[0][:1])
    t.expect(set(run.end_to_end(plain)) == {m for m, _, _ in run.END_TO_END},
             "printed end-to-end names == BENCHMARK.json")
    refs = {plain[0]["seed"]: plain[0]["digest"]}
    layers = run.per_layer(rounds, refs, 0, 3)
    t.expect(set(layers) == {m for m, _, _ in run.PER_LAYER},
             "printed per-layer names == BENCHMARK.json")
    return rounds[0]


def check_digest_checks(t, plain):
    ref = run.reference_digests([plain, plain])
    t.expect(run.judge([plain, plain], ref)[0] == 0,
             "matching repeats pass")
    other = copy.deepcopy(plain)
    other["digest"] = "0" * 16
    repeats = [plain, plain, other]
    ref = run.reference_digests(repeats)
    t.expect(run.judge(repeats, ref)[0] == 1,
             "digest check fails on a repeat with another digest")
    broken = copy.deepcopy(plain)
    broken["checks"][0]["ok"] = False
    t.expect(run.judge([broken], ref)[0] == 1,
             "a failed output check counts the run as failed")
    t.expect(run.judge([None], ref)[0] == 1, "a crashed run counts as failed")


def check_passes(t):
    """A run covers whole passes over its inputs, however fast they run."""
    inputs = [3, 1, 2]

    def slow(k):
        time.sleep(0.002)
        return k

    results, made = run.passes(inputs, 0.02, slow)
    t.expect(made >= 2 and results == inputs * made,
             f"passes repeat the same inputs whole ({made} passes)")
    results, made = run.passes(inputs, 0, slow)
    t.expect(made == 1 and results == inputs,
             "a budget shorter than one pass still runs one whole pass")


def main(binary):
    t = Tally()
    rc = subprocess.run([binary, "selftest"]).returncode
    t.expect(rc == 0, "perfbench selftest (C++)")
    plain, _, _ = check_names(t, binary)
    if plain is not None:
        check_digest_checks(t, plain)
    check_passes(t)
    print(("PASS" if t.failures == 0 else "FAIL") +
          f": {t.failures} failure(s)")
    return 0 if t.failures == 0 else 1
