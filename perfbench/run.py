"""The polyadc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: the library is imported from ``src/``.
One process and one caller thread drive the library's public functions in
a closed loop: each input is sent after the previous one has finished and
been checked, over the workload's seeded input list, in whole passes until
``--seconds`` have gone by.  The ``cli`` workload runs its subcommands as
subprocesses, one at a time.

An input's time is the CPU time it costs: the caller thread's, plus that of
the subprocess for ``cli`` (see ``cpu_clock``).  The library is single-
threaded and CPU-bound, so this is its wall time less the time the host
hands the virtual CPU to other guests; the wall times are kept in the
output file as well.  Between inputs the run also times a fixed reference
task that uses no ``polyadc`` code (see ``run_reference``), and with
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics: input times in units of the reference task's time (``ref``), so
that the host's speed, which drifts by a fifth over minutes, cancels out
(see ``typical``), plus the set-up time, re-measured every few seconds
during the run, and memory.  With ``--trace 1`` the passes alternate
between untraced ones and ones with spans and counters around the
library's public functions (see ``tracer.py``), and the JSON line carries
the per-layer metrics plus the tracing overhead.  Inputs, failures and
spans are written under ``.bench_out/``.  The exit code is 0 only when
every answer passed its check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter, thread_time
from types import SimpleNamespace

import tracer as tracer_mod
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
MODULES = ("zlin", "adc", "nu", "polygraph", "roundtrip", "serialize", "catalog")
SETUP_EVERY = 4.0
REFERENCE_EVERY = 0.2
IMPORT_PROBES = 10
CLI_SUBCOMMANDS = ("catalog", "lambda", "check", "preorder", "enumerate",
                   "roundtrip", "oracle")


def cpu_clock():
    """CPU seconds used so far by this thread and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return thread_time() + children.ru_utime + children.ru_stime


def _reference_loop():
    """A fixed piece of pure-Python work that calls no ``polyadc`` code."""
    table = {}
    for i in range(2000):
        key = (i % 61, i * 7 % 89)
        table[key] = table.get(key, 0) + i
    order = sorted(table.items(), key=lambda kv: (kv[1] % 13, kv[0]))
    return len({(b, a, v & 255) for (a, b), v in order})


def run_reference(ctx, workload):
    """The CPU seconds of one run of the workload's reference task, the unit
    (``ref``) its end-to-end times are given in: a bare interpreter start
    for ``cli``, ``_reference_loop`` in this thread for the others.
    Neither runs ``polyadc`` code, so a change to the library moves the
    ratio of the two and a change of the host's speed does not."""
    start = cpu_clock()
    if workload == "cli":
        subprocess.run([sys.executable, "-c", "pass"], cwd=ctx.workdir,
                       env=workloads.cli_env(ROOT), check=True, timeout=120)
    else:
        _reference_loop()
    return cpu_clock() - start


def _fresh_library():
    """Import ``polyadc`` from scratch and return its modules by name."""
    for key in [k for k in sys.modules if k == "polyadc" or k.startswith("polyadc.")]:
        del sys.modules[key]
    importlib.import_module("polyadc")
    return SimpleNamespace(**{m: sys.modules["polyadc." + m] for m in MODULES})


def _warm_up(ctx, inputs):
    """Run the smallest input of each kind once, untimed."""
    smallest = {}
    for inp in inputs:
        known = smallest.get(inp.kind)
        if known is None or len(inp.text) < len(known.text):
            smallest[inp.kind] = inp
    for inp in smallest.values():
        try:
            workloads.run_input(ctx, inp)
        except Exception:  # counted when the measured passes run it
            pass


def set_up(workload, seed, workdir):
    """Import the library, generate the inputs and warm up.  Returns the
    context, the inputs and the CPU seconds it took."""
    start = cpu_clock()
    lib = _fresh_library()
    ctx = workloads.Context(lib=lib, root=ROOT, workdir=workdir)
    inputs = workloads.generate(lib, workload, seed, workdir)
    _warm_up(ctx, inputs)
    return ctx, inputs, cpu_clock() - start


def _shape(inputs):
    return [(i.kind, i.text, i.argv) for i in inputs]


@dataclass
class Measured:
    plain: list       # per input, the CPU seconds of each untraced try
    traced: list      # per input, the CPU seconds of each traced try
    walls: list       # wall seconds of every try, in run order
    refs: list        # CPU seconds of each reference try, in run order
    setups: list      # CPU seconds of each set-up made during the run
    failed: int
    passes: int
    wall: float

    @property
    def attempted(self):
        return len(self.walls)


def typical(tries, workload):
    """The time that stands for a list of tries of one input, or of the
    reference task: their minimum in-process, their median for ``cli``.

    The machines this runs on swing between a fast and a slower state many
    times a second, and drift by a fifth over minutes.  An in-process input
    gets dozens of tries in a run, and their minimum is the steadiest
    figure; a ``cli`` try costs a whole interpreter start, an input gets
    about a dozen, and their minimum still depends on luck where their
    median does not.  The reference task is reduced the same way, so that
    the ratio of the two cancels the drift."""
    return statistics.median(tries) if workload == "cli" else min(tries)


def measure(ctx, workload, inputs, seconds, failures, tracer=None, resetup=None):
    """Whole passes over the inputs until ``seconds`` have gone by, with a
    try of the reference task whenever ``REFERENCE_EVERY`` seconds have
    passed since the last one.  With a tracer, untraced and traced passes
    alternate, starting untraced and ending after a traced one.  With
    ``resetup``, it is called between passes every ``SETUP_EVERY`` seconds
    and its results are kept; the time it takes is not counted in
    ``seconds``."""
    plain = [[] for _ in inputs]
    traced_tries = [[] for _ in inputs]
    walls = []
    refs = []
    setups = []
    passes = failed = 0
    overflow = ctx.lib.zlin.CoefficientOverflow
    modes = 1 if tracer is None else 2
    start = last_setup = perf_counter()
    last_ref = start - REFERENCE_EVERY
    while True:
        traced = passes % modes == 1
        tries = traced_tries if traced else plain
        if traced:
            tracer.install()
            ctx.tracer = tracer
        try:
            for k, inp in enumerate(inputs):
                if traced:
                    tracer.input_id = inp.id
                w0 = perf_counter()
                t0 = cpu_clock()
                try:
                    workloads.run_input(ctx, inp)
                except Exception as exc:  # every exception is a failed input
                    failed += 1
                    if traced and isinstance(exc, overflow):
                        tracer.add("zlin.overflow")
                    failures.append({"input": inp.id, "pass": passes,
                                     "error": "%s: %s" % (type(exc).__name__, exc),
                                     "traceback": traceback.format_exc(limit=4)})
                tries[k].append(cpu_clock() - t0)
                walls.append(perf_counter() - w0)
                if perf_counter() - last_ref >= REFERENCE_EVERY:
                    refs.append(run_reference(ctx, workload))
                    last_ref = perf_counter()
        finally:
            if traced:
                ctx.tracer = None
                tracer.uninstall()
        passes += 1
        if perf_counter() - start >= seconds and passes % modes == 0:
            break
        if resetup is not None and perf_counter() - last_setup >= SETUP_EVERY:
            s0 = perf_counter()
            setups.append(resetup())
            last_setup = perf_counter()
            start += last_setup - s0
    return Measured(plain, traced_tries, walls, refs, setups, failed, passes,
                    perf_counter() - start)


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _peak_rss_mb(workload):
    """Peak resident memory of the processes that run the library: this
    one, or for ``cli`` the largest of its subprocesses."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(run, workload):
    """Throughput and percentiles over each input's typical time (one sample
    per input) in units of the reference task's typical time (``ref``): a
    pass, and the time a caller waits for the median and the
    90th-percentile input.  Set-up time is the median of the set-ups made
    during the run, in seconds."""
    ref = typical(run.refs, workload)
    times = [typical(t, workload) / ref for t in run.plain]
    verified = 1.0 - run.failed / run.attempted
    return {
        "items_per_ref": (verified * len(times) / sum(times), "1/ref"),
        "item_p50_ref": (statistics.median(times), "ref"),
        "item_p90_ref": (_p90(times), "ref"),
        "verified_frac": (verified, "ratio"),
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mb": (_peak_rss_mb(workload), "MB"),
    }


def _import_ms():
    """Fastest CPU time of a fresh interpreter importing the command line."""
    costs = []
    for _ in range(IMPORT_PROBES):
        start = cpu_clock()
        subprocess.run([sys.executable, "-c", "import polyadc.cli"],
                       env=workloads.cli_env(ROOT), check=True, timeout=120)
        costs.append(cpu_clock() - start)
    return min(costs) * 1000.0


def per_layer(ctx, inputs, workload, seed, seconds, failures, units):
    """Alternating untraced and traced passes; per-layer metrics from the
    traced ones, input times and the overhead from both."""
    setup_tracer = tracer_mod.Tracer()
    setup_tracer.install()
    try:
        workloads.generate(ctx.lib, workload, seed, ctx.workdir)
    finally:
        setup_tracer.uninstall()

    tracer = tracer_mod.Tracer()
    run = measure(ctx, workload, inputs, seconds, failures, tracer)
    traced_passes = run.passes // 2
    values = tracer_mod.layer_metrics(tracer, traced_passes, setup_tracer.spans)
    plain = [typical(t, workload) for t in run.plain]
    traced = [typical(t, workload) for t in run.traced]
    values["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    for sub in CLI_SUBCOMMANDS:
        costs = [t for inp, t in zip(inputs, plain) if inp.argv[:1] == (sub,)]
        values["cli.%s_ms" % sub] = statistics.median(costs) * 1000.0 if costs else 0.0
    values["cli.import_ms"] = _import_ms() if workload == "cli" else 0.0
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    record = {"passes": run.passes, "traced_passes": traced_passes,
              "spans": tracer.spans, "setup_spans": setup_tracer.spans,
              "counters": tracer.dump()["counters"]}
    return run, metrics, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="make one expected answer wrong (self-test)")
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx, inputs, setup_s = set_up(args.workload, args.seed, workdir)
        shape = _shape(inputs)

        def resetup():
            _, again, seconds = set_up(args.workload, args.seed, workdir)
            if _shape(again) != shape:
                raise RuntimeError("one seed produced two different input lists")
            return seconds

        if args.inject_fault:
            workloads.corrupt(inputs)
        failures = []
        if args.trace:
            with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
                units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
            run, metrics, record = per_layer(ctx, inputs, args.workload, args.seed,
                                             args.seconds, failures, units)
        else:
            run = measure(ctx, args.workload, inputs, args.seconds, failures,
                          resetup=resetup)
            run.setups.insert(0, setup_s)
            metrics, record = end_to_end(run, args.workload), {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [typical(t, args.workload) for t in run.plain]
    ref = typical(run.refs, args.workload) if run.refs else float("nan")
    p90 = _p90(times)
    tail = sum(1 for t in times if t > p90)
    summary = ("%s seed %d: %d inputs per pass, %d attempted in %d passes over "
               "%.2f s, %d failed; p90 from the typical times of %d inputs, %d beyond "
               "it%s; p50 %.3f ms, p90 %.3f ms, reference %.3f ms (%d tries)"
               % (args.workload, args.seed, len(inputs), run.attempted, run.passes,
                  run.wall, run.failed, len(times), tail,
                  "" if tail >= 10 else " (too few: p90 not valid)",
                  statistics.median(times) * 1000.0, p90 * 1000.0, ref * 1000.0,
                  len(run.refs)))
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "summary": summary,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "item_cpu_seconds": run.plain, "traced_item_cpu_seconds": run.traced,
        "item_wall_seconds": run.walls, "reference_cpu_seconds": run.refs,
        "setup_cpu_seconds": run.setups,
        "failures": failures,
        "inputs": [inp.record() for inp in inputs], **record,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)

    print(summary)
    for failure in failures[:5]:
        print("failed input %d: %s" % (failure["input"], failure["error"]), file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": results["metrics"],
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "polyadc")):
        print("error: %s has no src/polyadc to benchmark" % ROOT, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    raise SystemExit(main())
