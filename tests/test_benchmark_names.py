"""The library names the benchmark reads resolve on a freshly imported
``polyadc``.

``perfbench/run.py`` imports each module in its ``MODULES``, and
``perfbench/tracer.py`` looks up each function in ``SPANNED`` and
``COUNTED`` with a bare ``getattr``, so deleting one of those names from
the library breaks ``--trace 1``.  The probe imports the two harness files
and the library in a fresh interpreter and runs nothing else.
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
print(json.dumps({
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
    assert found["pairs"] == 20
    assert found["modules"] == ["adc", "catalog", "nu", "polygraph", "roundtrip",
                                "serialize", "zlin"]
