"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, from the root of a source tree:

1. a tiny run (one pass, two when traced) of every workload, untraced and
   traced, exits 0 and ends with a JSON line holding exactly ``correct``,
   ``attempted``, ``failed`` and ``metrics``, with every metric
   BENCHMARK.json names for that mode, each with its unit;
2. an injected wrong expected answer raises the failed count, lowers
   ``verified_frac`` and makes the exit code non-zero, on every workload;
3. a directory holding only BENCHMARK.json and the benchmark's files makes
   the command exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, trace, cwd=ROOT, extra=()):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.1",
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def main():
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    problems = []

    def expect(cond, message):
        if not cond:
            problems.append(message)
            print("FAIL " + message)

    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            proc, result = _run(workload, trace)
            expect(proc.returncode == 0, "%s exits %d: %s"
                   % (label, proc.returncode, proc.stderr[-300:]))
            if result is None:
                expect(False, "%s printed no JSON result" % label)
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   "%s result keys %s" % (label, sorted(result)))
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, "%s counts %r" % (label, result))
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(got == wanted[trace], "%s metrics or units differ from "
                   "BENCHMARK.json: %s" % (label, sorted(set(got) ^ set(wanted[trace]))))
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   "%s has a non-numeric value" % label)
            print("ok   " + label)

        proc, result = _run(workload, 0, extra=["--inject-fault"])
        expect(proc.returncode != 0, "%s with a wrong expected answer exits 0" % workload)
        expect(result is not None and result["failed"] >= 1
               and result["correct"] is False
               and result["metrics"]["verified_frac"]["value"] < 1.0,
               "%s with a wrong expected answer reports %r" % (workload, result))
        print("ok   %s with a wrong expected answer fails" % workload)

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _run("certify", 0, cwd=bare)
    expect(proc.returncode != 0 and result is None,
           "a tree without the library exits %d with result %r"
           % (proc.returncode, result))
    shutil.rmtree(bare, ignore_errors=True)
    print("ok   a tree without the library is refused")

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
