#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes a short untraced run and a
short traced run through perfbench/run.py and checks that:
  - the run exits 0 and its answers pass the oracles (correct, no failures);
  - the result line names exactly the end-to-end metrics (untraced) or the
    per-layer metrics (traced) of BENCHMARK.json, each with its unit;
  - one seed always generates the same inputs and two seeds different ones
    (the binary's --digest of the generated inputs).
Exits nonzero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout, proc.stderr


def check(condition, what):
    if not condition:
        print("FAIL: " + what)
        sys.exit(1)
    print("ok: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, seconds in (("0", "3"), ("1", "4")):
            code, out, err = run(["--workload", workload, "--seed", "5",
                                  "--seconds", seconds, "--trace", trace])
            if code != 0:
                print(err.strip()[-2000:])
            check(code == 0, "%s trace=%s exits 0" % (workload, trace))
            result = json.loads(out.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s trace=%s result keys" % (workload, trace))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "%s trace=%s oracles pass (%d attempted)"
                  % (workload, trace, result["attempted"]))
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace],
                  "%s trace=%s prints every metric with its unit"
                  % (workload, trace))
        digests = []
        for seed in ("5", "5", "6"):
            code, out, _ = run(["--workload", workload, "--seed", seed,
                                "--seconds", "1", "--digest"])
            check(code == 0, "%s --digest seed %s exits 0" % (workload, seed))
            digests.append(out.strip().splitlines()[-1])
        check(digests[0] == digests[1], "%s: same seed, same inputs" % workload)
        check(digests[0] != digests[2], "%s: other seed, other inputs" % workload)
    print("selftest passed")


if __name__ == "__main__":
    main()
