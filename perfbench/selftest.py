#!/usr/bin/env python3
"""Smoke-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the benchmark like run.py, then at a small matrix scale checks that:
  * every workload prints every end-to-end metric of BENCHMARK.json (untraced)
    and every per-layer metric (traced), each with its declared unit, and
    passes its own correctness gate;
  * the correctness gate rejects a deliberately wrong solution;
  * every recorded span lies inside its parent and shares its run id.
Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

import run

SCALE = "0.25"
SECONDS = "0.1"


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(binary, workload, trace, *extra):
    args = [binary, "--workload", workload, "--seed", "3", "--seconds",
            SECONDS, "--trace", str(trace), "--scale", SCALE, *extra]
    proc = subprocess.run(args, env=run.child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def check_metrics(result, declared, what, errors):
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            errors.append("%s: metric %s missing" % (what, m["name"]))
        elif got[m["name"]]["unit"] != m["unit"]:
            errors.append("%s: metric %s unit %s, declared %s" % (
                what, m["name"], got[m["name"]]["unit"], m["unit"]))
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        errors.append("%s: undeclared metrics %s" % (what, sorted(extra)))


def check_spans(path, errors):
    with open(path) as f:
        spans = json.load(f)["spans"]
    if not spans:
        errors.append("%s: no spans" % path)
    eps = 1e-9
    for s in spans:
        if s["end"] < s["start"]:
            errors.append("span %d (%s) ends before it starts" % (
                s["id"], s["name"]))
        if s["parent"] < 0:
            continue
        p = spans[s["parent"]]
        if s["start"] < p["start"] - eps or s["end"] > p["end"] + eps:
            errors.append("span %d (%s) outside parent %d (%s)" % (
                s["id"], s["name"], p["id"], p["name"]))
        if s["run"] != p["run"]:
            errors.append("span %d (%s) run id differs from its parent" % (
                s["id"], s["name"]))
    return len(spans)


def main():
    binary = run.build()
    bench = spec()
    spans_dir = os.path.join(run.build_dir(), "..", "perfbench-selftest")
    os.makedirs(spans_dir, exist_ok=True)
    errors = []
    for w in bench["workloads"]:
        name = w["name"]
        code, res = invoke(binary, name, 0)
        if code != 0 or res is None or not res["correct"]:
            errors.append("%s: untraced run failed (exit %d)" % (name, code))
        else:
            check_metrics(res, bench["end_to_end"], name, errors)

        spans = os.path.join(spans_dir, name + ".json")
        code, res = invoke(binary, name, 1, "--spans-out", spans)
        if code != 0 or res is None or not res["correct"]:
            errors.append("%s: traced run failed (exit %d)" % (name, code))
        else:
            check_metrics(res, bench["per_layer"], name + " traced", errors)
            n = check_spans(spans, errors)
            print("%s: ok, %d spans" % (name, n))

    name = bench["workloads"][0]["name"]
    code, res = invoke(binary, name, 0, "--wrong-x")
    if res is None or res["correct"] or res["failed"] != res["attempted"]:
        errors.append("correctness gate accepted a wrong solution")
    else:
        print("gate: rejected %d of %d wrong solutions" % (
            res["failed"], res["attempted"]))

    for e in errors:
        print("FAIL", e, file=sys.stderr)
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
