import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
DATA = os.path.join(os.path.dirname(__file__), "data")

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


BARE_IMPORT_PROBE = """
import json
import sys
import avnsim
numpy_loaded = "numpy" in sys.modules
from avnsim import observables, qstate
print(json.dumps([numpy_loaded, [name for name in sys.modules if name.startswith("avnsim.")], qstate.Party is observables.Party]))
"""

# a module set to None in sys.modules makes every import of it raise
# ImportError: the commands need neither numpy nor dataclasses, whose import
# (inspect, ast, dis, tokenize) costs a cold command about 10 ms
NO_NUMPY_MAIN = """
import sys
sys.modules["numpy"] = None
sys.modules["dataclasses"] = None
from avnsim.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


def test_bare_import_loads_no_numpy_and_registers_each_module():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", BARE_IMPORT_PROBE], capture_output=True, env=env, text=True, check=True)
    numpy_loaded, loaded, same_party = json.loads(proc.stdout)
    assert not numpy_loaded
    assert {f"avnsim.{name}" for name in MODULES} <= set(loaded)
    assert same_party


def assert_runs_without_numpy(args, stdin=b""):
    """The command exits 0 with numpy and dataclasses blocked, prints nothing to stderr and matches a normal run."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    blocked = subprocess.run([sys.executable, "-c", NO_NUMPY_MAIN, *args], input=stdin, capture_output=True, env=env)
    normal = subprocess.run([sys.executable, "-m", "avnsim", *args], input=stdin, capture_output=True, env=env)
    assert blocked.returncode == 0, blocked.stderr.decode()
    assert normal.returncode == 0
    assert blocked.stdout == normal.stdout
    assert blocked.stderr == b""


@pytest.mark.parametrize("args", [["lhv"], ["lhv", "--format", "text"]])
def test_lhv_certificate_runs_without_numpy(args):
    assert_runs_without_numpy(args)


NOISY_CONFIG = {
    "source": {"phi": 0.7},
    "noise": {"white_noise_weight": 0.1, "pol_visibility": 0.9, "path_visibility": 0.8, "phase_offset": -1.2},
}


@pytest.mark.parametrize("config", [{}, NOISY_CONFIG], ids=["default", "noisy"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_predict_runs_without_numpy(fmt, config):
    assert_runs_without_numpy(["predict", "--format", fmt, "--config", "-"], json.dumps(config).encode())


with open(os.path.join(DATA, "pair_rate_2.config.json"), encoding="utf-8") as _fh:
    PAIR_RATE_2_CONFIG = json.load(_fh)


@pytest.mark.parametrize("config", [{}, NOISY_CONFIG, PAIR_RATE_2_CONFIG], ids=["default", "noisy", "pair_rate_2"])
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_simulate_runs_without_numpy(fmt, config):
    assert_runs_without_numpy(["simulate", "--format", fmt, "--config", "-"], json.dumps(config).encode())


@pytest.mark.parametrize("seed", ["0", "7"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_reproduce_paper_runs_without_numpy(fmt, seed):
    assert_runs_without_numpy(["reproduce-paper", "--seed", seed, "--format", fmt])
