#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny graphs (a few seconds per run).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, untraced and traced, it checks that
the run succeeds, that every metric the result line must carry is there
with the unit BENCHMARK.json gives it, that each also prints as a
`metric NAME = VALUE UNIT` line, and that failed_frac is 0. It then runs
every workload with deliberately corrupted reference answers and checks
that the comparisons against the reference count them as failures: the
in-process ones on every workload, and the check of served answers on the
served ones. Exits 0 when every check passes.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--scale-mult", "0.1", "--setup-reps", "1"]
CORRUPTED = 3


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--trace", str(trace), *TINY, *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit {out.returncode}\n"
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    printed, failures = {}, {}
    for line in lines[:-1]:
        m = re.match(r"metric (\S+) = (\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
        if line.startswith("failures:"):
            failures = {k: int(v) for k, v in
                        re.findall(r"(\w+)=(\d+)", line)}
    return json.loads(lines[-1]), printed, failures


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, printed, _ = run(wl, trace)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{wl} trace={trace}: every answer verified")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want,
                  f"{wl} trace={trace}: result line has exactly the "
                  f"{len(want)} {key} metrics with their units")
            missing = [n for n, u in want.items()
                       if printed.get(n, (None, None))[1] != u]
            check(not missing,
                  f"{wl} trace={trace}: every metric printed with its unit"
                  + (f" (missing {missing})" if missing else ""))
            check(printed.get("failed_frac", (None, "ratio")) == (0.0, "ratio"),
                  f"{wl} trace={trace}: failed_frac printed as 0")

        result, printed, where = run(wl, 0, "--corrupt-reference",
                                     str(CORRUPTED))
        check(not result["correct"] and result["failed"] >= CORRUPTED
              and printed["failed_frac"][0] > 0
              and where.get("inproc", 0) > 0,
              f"{wl}: corrupted reference answers counted as failures by "
              f"the in-process checks ({where})")
        if "serve" in wl:  # the served workloads
            check(where.get("wire", 0) > 0,
                  f"{wl}: corrupted reference answers counted as failures by "
                  f"the check of served answers ({where})")

    print("selftest: " + ("all checks passed" if not failures
                          else f"{len(failures)} checks failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
