"""The library names the benchmark reads resolve on a freshly imported
``polyadc``.

``perfbench/run.py`` imports each module in its ``MODULES``, and
``perfbench/tracer.py`` looks up each function in ``SPANNED`` and
``COUNTED`` with a bare ``getattr``, so deleting one of those names from
the library breaks ``--trace 1``.  The probe imports the two harness files
and the library in a fresh interpreter.

The tracer wraps a counted function at every module attribute that holds
it.  ``nu`` serves the table algebra of ``table``, which ``polygraph``
calls, so the probe also checks that the two modules hold the same
functions and that the compositions and identities of a presentation's
boundaries are counted.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import importlib, json
import run, tracer
import polyadc
pairs = [(module, name) for module, name, *_ in tracer.SPANNED + tracer.COUNTED]
modules = {module: importlib.import_module("polyadc." + module)
           for module in set(run.MODULES) | {module for module, _ in pairs}}
table = importlib.import_module("polyadc.table")
shared = [name for name in ("composable", "compose", "identity")
          if getattr(modules["nu"], name) is getattr(table, name)]
traced = tracer.Tracer()
traced.install()
try:
    polyadc.parse_document(json.dumps({"kind": "polygraph", "generators": [
        {"name": "x", "dim": 0}, {"name": "y", "dim": 0}, {"name": "z", "dim": 0},
        {"name": "f", "dim": 1, "src": {"gen": "x"}, "tgt": {"gen": "y"}},
        {"name": "g", "dim": 1, "src": {"gen": "y"}, "tgt": {"gen": "z"}},
        {"name": "h", "dim": 1, "src": {"gen": "x"}, "tgt": {"gen": "z"}},
        {"name": "l", "dim": 1, "src": {"gen": "x"}, "tgt": {"gen": "x"}},
        {"name": "t", "dim": 2, "src": {"comp": [0, {"gen": "f"}, {"gen": "g"}]},
         "tgt": {"gen": "h"}},
        {"name": "u", "dim": 2, "src": {"id": {"gen": "x"}}, "tgt": {"gen": "l"}}]}))
finally:
    traced.uninstall()
print(json.dumps({
    "shared": shared,
    "counted": {name: traced.counters[name] for name in ("nu.compose", "nu.identity")},
    "modules": sorted(modules),
    "pairs": len(pairs),
    "missing": [[module, name] for module, name in pairs
                if not callable(getattr(modules[module], name, None))],
}))
"""


def test_every_name_the_benchmark_reads_resolves():
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path,
                                                PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["missing"] == []
    assert found["shared"] == ["composable", "compose", "identity"]
    assert found["counted"] == {"nu.compose": 1, "nu.identity": 1}
    assert found["pairs"] == 20
    assert found["modules"] == ["adc", "catalog", "nu", "polygraph", "roundtrip",
                                "serialize", "zlin"]
