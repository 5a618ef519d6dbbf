#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 ringbench/smoke_test.py [--seconds S]

Checks, with short runs (S seconds each, default 3):
  1. every workload, with --trace 0 and --trace 1, exits 0 with a
     correct result, no failed request, every metric BENCHMARK.json
     names for that mode (and no other) printed with its unit, and every
     ok ring client-verified;
  2. responses the client deliberately corrupts (--corrupt-every) are
     counted in `failed`, so the verification gate is live;
  3. a second seed runs clean on every workload;
  4. in a directory holding only BENCHMARK.json and the benchmark's own
     files the benchmark exits non-zero without printing a result.
Exits 0 when all pass.  Run from anywhere; it works on its own checkout.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SUMMARY = re.compile(r"attempted (\d+), answered (\d+), status ok (\d+), "
                     r"client-verified (\d+), failed (\d+)")

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed, seconds, trace, extra=(), cwd=ROOT):
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    p = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    # Traced runs print one summary per window; sum them.
    counts = [0] * 5
    for m in SUMMARY.finditer(p.stderr):
        counts = [c + int(x) for c, x in zip(counts, m.groups())]
    return p.returncode, result, counts, p.stderr


def check_clean(workload, seed, seconds, trace):
    tag = f"{workload} seed {seed} trace {trace}"
    rc, res, (att, ans, st_ok, verified, failed), err = run(
        workload, seed, seconds, trace)
    check(rc == 0 and res is not None, f"{tag}: exit 0 with a result"
          + ("" if rc == 0 else f" (rc {rc}: {err.strip()[-300:]})"))
    if res is None:
        return
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys")
    check(res["correct"] is True and res["failed"] == 0
          and res["attempted"] >= 1, f"{tag}: correct, nothing failed")
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    check(got == want, f"{tag}: every metric with its unit"
          + ("" if got == want else
             f" (missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and got[k] != want[k]]})"))
    check(all(isinstance(v["value"], (int, float))
              for v in res["metrics"].values()), f"{tag}: numeric values")
    check(att == res["attempted"] and st_ok == att and verified == st_ok,
          f"{tag}: every ok ring client-verified ({verified} of {st_ok})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]

    for w in names:
        for trace in (0, 1):
            check_clean(w, 1, args.seconds, trace)

    # The gate is live: every third ok response is corrupted before the
    # client checks it, and each must land in `failed`.
    rc, res, (att, ans, st_ok, verified, failed), _ = run(
        "open_mix_proxy", 1, args.seconds, 0, ["--corrupt-every", "3"])
    check(rc == 1 and res is not None and res["correct"] is False,
          "corrupted responses: run reported incorrect")
    check(res is not None and res["failed"] >= 1
          and res["failed"] == st_ok - verified and st_ok == att,
          f"corrupted responses: all counted in failed "
          f"({res and res['failed']} failed, {st_ok - verified} corrupted)")

    for w in names:
        check_clean(w, 2, args.seconds, 0)

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, _, _ = run(names[0], 1, args.seconds, 0, cwd=bare)
    check(rc != 0 and res is None,
          "without the repository's sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
