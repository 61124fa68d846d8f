import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

MODULES = ["apparatus", "cli", "experiment", "lhv", "observables", "qstate", "reference", "source"]

PROBE = """
import json
import sys
import avnsim
print(json.dumps(sorted(name for name in vars(avnsim) if not name.startswith("_"))))
print(json.dumps([name for name in sys.modules if name.startswith("avnsim.")]))
"""


def test_root_exports_only_the_modules_and_loads_each():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, env=env, text=True, check=True)
    public, loaded = map(json.loads, proc.stdout.splitlines())
    assert public == MODULES
    assert {f"avnsim.{name}" for name in MODULES} <= set(loaded)
