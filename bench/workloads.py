"""The benchmark's workloads.

Every workload is an object made per run.  ``setup(seed)`` prepares it,
``request(i)`` makes the inputs of operation ``i`` from the seed,
``call(request)`` is the timed call into the program, ``check`` verifies
its output and ``finish`` runs the end-of-run checks.  Checks return
lists of failure messages.

The ``cli_*`` workloads are a closed loop with one client: each request
is a fresh ``python -m avnsim`` process, so interpreter start, the numpy
import and cold caches are paid on every request, as a user pays them per
document.  ``seed_sweep`` and ``noise_scan`` run in process on warm
caches.  In-process calls go through module attributes so a tracer
installed after import sees them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
REQUEST_TIMEOUT_S = 120.0
SEED_RANGE = 2**31


def random_source(rng: np.random.Generator) -> tuple[float, dict]:
    """A path phase phi != 0 and a noise model with every parameter active."""
    phi = 0.0
    while abs(phi) < 1e-3:
        phi = float(rng.uniform(-math.pi, math.pi))
    noise = {
        "white_noise_weight": float(rng.uniform(0.0, 0.3)),
        "pol_visibility": float(rng.uniform(0.7, 1.0)),
        "path_visibility": float(rng.uniform(0.7, 1.0)),
        "phase_offset": float(rng.uniform(-math.pi, math.pi)),
    }
    return phi, noise


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ------------------------------------------------------------- in process


class NoiseScan:
    """Seeded random (phi, noise model) pairs through build_psi,
    apply_noise and predict_exact, checked against the reduced oracle."""

    name = "noise_scan"
    in_process = True

    def setup(self, seed: int) -> None:
        from avnsim import experiment, source

        self.source, self.experiment = source, experiment
        self.rng = np.random.default_rng(seed)
        # fill the operator and projector caches, as a warm process has them
        self.call(self.request(-1))

    def request(self, i: int):
        phi, noise = random_source(self.rng)
        return phi, self.source.NoiseModel(**noise)

    def call(self, req):
        phi, model = req
        return self.experiment.predict_exact(self.source.apply_noise(self.source.build_psi(phi), model))

    def check(self, req, report) -> list[str]:
        phi, model = req
        rows = [{"id": est.id, "E": est.E} for est in report.estimates]
        return checks.exact_rows(rows, checks.reduced_oracle(phi, model.to_dict()))

    def finish(self) -> list[list[str]]:
        return []


class SeedSweep:
    """The calibrated state and the matched schedule through run_schedule
    over consecutive seeds, as in the statistical reproduction."""

    name = "seed_sweep"
    in_process = True

    def setup(self, seed: int) -> None:
        from avnsim import cli, experiment, reference, source

        self.cli, self.experiment = cli, experiment
        fit = source.fit_noise(reference.measured_targets())
        self.rho = source.apply_noise(source.build_psi(0.0), fit.model)
        self.schedule = reference.matched_schedule()
        self.exact_bell = experiment.predict_exact(self.rho).bell_value
        self.base = int(np.random.default_rng(seed).integers(0, SEED_RANGE))
        self.bells: list[float] = []
        self.first = None

    def request(self, i: int) -> int:
        return self.base + i

    def call(self, run_seed: int):
        return self.experiment.run_schedule(self.rho, self.schedule, run_seed)

    def check(self, run_seed: int, report) -> list[str]:
        self.bells.append(report.bell_value)
        if self.first is None:
            self.first = (run_seed, report.to_dict())
        return checks.bell_near_exact(report.bell_value, report.bell_stderr, self.exact_bell)

    def finish(self) -> list[list[str]]:
        run_seed, doc = self.first
        again = self.call(run_seed).to_dict()
        same = checks.identical(self.cli.to_json(doc), self.cli.to_json(again), f"seed {run_seed}")
        return [checks.sweep_mean(self.bells), same]


# -------------------------------------------------------------- cold CLI


class CliWorkload:
    """One fresh ``python -m avnsim <command>`` process per request."""

    in_process = False
    tracer = None  # a Tracer here makes requests run traced, through child.py
    work_dir: Path | None = None

    def setup(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.env = child_env()
        self.first = None
        self.import_s: list[float] = []
        self._traced = 0

    def request(self, i: int) -> dict:
        raise NotImplementedError

    def call(self, req: dict) -> tuple[int, bytes, bytes]:
        if self.tracer is None:
            argv = [sys.executable, "-m", "avnsim", *req["argv"]]
        else:
            spans = self.work_dir / f"spans-{os.getpid()}-{self._traced}.json"
            argv = [sys.executable, str(CHILD), "cli", str(spans), *req["argv"]]
        proc = subprocess.run(
            argv,
            input=req.get("stdin", b""),
            capture_output=True,
            env=self.env,
            cwd=ROOT,
            timeout=REQUEST_TIMEOUT_S,
        )
        if self.tracer is not None:
            self._collect(spans)
        return proc.returncode, proc.stdout, proc.stderr

    def _collect(self, spans: Path) -> None:
        try:
            with open(spans, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return  # the child crashed; its exit code reports that
        spans.unlink()
        self.import_s.append(doc["import_s"])
        self.tracer.merge(doc["trace"], request=self._traced)
        self._traced += 1

    def check(self, req: dict, result) -> list[str]:
        returncode, stdout, stderr = result
        if self.first is None:
            self.first = (req, stdout)
        doc, failures = checks.parse_document(returncode, stdout)
        if returncode != 0 and stderr:
            failures.append(stderr.decode(errors="replace").strip()[-400:])
        if doc is not None:
            failures += self.check_document(req, doc)
        return failures

    def check_document(self, req: dict, doc: dict) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[list[str]]:
        req, stdout = self.first
        again = self.call(req)[1]
        return [checks.identical(stdout, again, " ".join(req["argv"]))]


class CliPredict(CliWorkload):
    name = "cli_predict"

    def request(self, i: int) -> dict:
        phi, noise = random_source(self.rng)
        config = json.dumps({"source": {"phi": phi}, "noise": noise}).encode()
        return {"argv": ["predict", "--config", "-"], "stdin": config, "oracle": checks.reduced_oracle(phi, noise)}

    def check_document(self, req, doc):
        return checks.exact_rows(doc.get("correlations", []), req["oracle"])


class CliSimulate(CliWorkload):
    name = "cli_simulate"

    def request(self, i: int) -> dict:
        phi, noise = random_source(self.rng)
        seed = int(self.rng.integers(0, SEED_RANGE))
        config = json.dumps({"source": {"phi": phi}, "noise": noise}).encode()
        return {
            "argv": ["simulate", "--config", "-", "--seed", str(seed)],
            "stdin": config,
            "seed": seed,
            "oracle": checks.reduced_oracle(phi, noise),
        }

    def check_document(self, req, doc):
        failures = checks.sampled_rows(doc.get("correlations", []), req["oracle"])
        if doc.get("rng", {}).get("seed") != req["seed"]:
            failures.append(f"document seed {doc.get('rng')!r} is not {req['seed']}")
        return failures


class CliLhv(CliWorkload):
    name = "cli_lhv"

    def request(self, i: int) -> dict:
        return {"argv": ["lhv"]}

    def check(self, req, result):
        failures = super().check(req, result)
        # the certificate has no input, so every request must match the first
        return failures + checks.identical(self.first[1], result[1], "lhv")

    def check_document(self, req, doc):
        return checks.flag(doc, "ok")


class CliReproduce(CliWorkload):
    name = "cli_reproduce"

    def request(self, i: int) -> dict:
        seed = int(self.rng.integers(0, SEED_RANGE))
        return {"argv": ["reproduce-paper", "--seed", str(seed)], "seed": seed}

    def check_document(self, req, doc):
        failures = checks.flag(doc, "all_pass")
        if doc.get("seed") != req["seed"]:
            failures.append(f"document seed {doc.get('seed')!r} is not {req['seed']}")
        return failures


WORKLOADS = {w.name: w for w in (CliPredict, CliSimulate, CliLhv, CliReproduce, SeedSweep, NoiseScan)}


def make(name: str):
    return WORKLOADS[name]()
