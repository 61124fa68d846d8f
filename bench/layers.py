"""The traced layers and the per-layer metrics.

Layers are avnsim's modules.  Each traced function reports
``<module>.<function>.{calls,total_s,self_s}``; the hooks below add the
counts that make ratios measurable where the work happens.  No layer
queues work, so there is no wait metric.
"""

from __future__ import annotations

import hashlib

import numpy as np

STATES_PER_ENUMERATION = 4096  # 2**12 local value assignments


def _phi_key(tracer, name, args, kwargs, result):
    config = args[0] if args else kwargs.get("config")
    phi = getattr(config, "phi", config)
    tracer.keys[name].add(repr(float(phi or 0.0)))


def _rho_pair_key(tracer, name, args, kwargs, result):
    rho = np.ascontiguousarray(args[0] if args else kwargs["rho"], dtype=complex)
    pair = args[1] if len(args) > 1 else kwargs["pair"]
    digest = hashlib.blake2b(rho.tobytes(), digest_size=8).hexdigest()
    tracer.keys[name].add(f"{digest}:{pair.alice.name}:{pair.bob.name}")


def _events(tracer, name, args, kwargs, result):
    tracer.sums["experiment.events"] += sum(est.n for est in result.estimates)


def _residual(tracer, name, args, kwargs, result):
    tracer.last["source.fit_noise.residual"] = float(result.residual)


# (module, function, hook): every function a per-layer metric names, plus
# lhv.enumerate_assignments, which is only counted
TRACED = (
    ("cli", "to_json", None),
    ("source", "fit_noise", _residual),
    ("source", "build_psi", _phi_key),
    ("source", "apply_noise", None),
    ("qstate", "assert_density_matrix", None),
    ("qstate", "mixed_expectation", None),
    ("qstate", "tensor4", None),
    ("experiment", "run_schedule", _events),
    ("experiment", "outcome_distribution", _rho_pair_key),
    ("experiment", "predict_exact", None),
    ("lhv", "certificate", None),
    ("lhv", "enumerate_assignments", None),
    ("apparatus", "build_apparatus", None),
)

# functions reported as <name>.{calls,total_s,self_s}; README.md maps each
# to the end-to-end metric it should move
_TIMED = (
    "cli.to_json",
    "source.fit_noise",
    "source.build_psi",
    "source.apply_noise",
    "qstate.assert_density_matrix",
    "qstate.mixed_expectation",
    "qstate.tensor4",
    "experiment.run_schedule",
    "experiment.outcome_distribution",
    "experiment.predict_exact",
    "lhv.certificate",
    "apparatus.build_apparatus",
)

# every per-layer metric and its unit
PER_LAYER: dict[str, str] = {"cli.import_s": "s"}
for _fn in _TIMED:
    PER_LAYER.update({f"{_fn}.calls": "count", f"{_fn}.total_s": "s", f"{_fn}.self_s": "s"})
PER_LAYER.update(
    {
        "source.fit_noise.evaluations": "count",  # apply_noise calls beneath one fit_noise call
        "source.fit_noise.residual": "1",  # least-squares residual of the fit
        "source.build_psi.distinct_ratio": "ratio",  # distinct phi per call
        "experiment.outcome_distribution.distinct_ratio": "ratio",  # distinct (rho, setting pair) per call
        "experiment.events": "count",  # pairs drawn per run_schedule call
        "lhv.assignments_visited": "count",  # enumerate_assignments calls beneath one certificate x 4096
        "trace.overhead_frac": "ratio",  # traced p5 operation time over untraced, minus 1
    }
)


def per_layer_metrics(workload, tour, import_s: float, overhead_frac: float) -> tuple[dict[str, float], list[str]]:
    """Every PER_LAYER metric from the traced workload's spans.

    A function the workload never calls is measured on the ``tour`` tracer
    instead; the second value lists those functions.
    """
    rows = {id(t): t.per_function() for t in (workload, tour)}

    def calls(t, fn):
        return rows[id(t)].get(fn, {}).get("calls", 0)

    def pick(fn):
        return workload if calls(workload, fn) else tour

    def per_call(value, t, fn):
        return value / calls(t, fn) if calls(t, fn) else 0.0

    out: dict[str, float] = {"cli.import_s": import_s}
    for fn in _TIMED:
        row = rows[id(pick(fn))].get(fn, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{fn}.calls"] = row["calls"]
        out[f"{fn}.total_s"] = row["total_s"]
        out[f"{fn}.self_s"] = row["self_s"]

    t = pick("source.fit_noise")
    out["source.fit_noise.evaluations"] = per_call(t.count_beneath("source.apply_noise", "source.fit_noise"), t, "source.fit_noise")
    out["source.fit_noise.residual"] = t.last.get("source.fit_noise.residual", 0.0)
    for fn in ("source.build_psi", "experiment.outcome_distribution"):
        t = pick(fn)
        out[f"{fn}.distinct_ratio"] = per_call(len(t.keys.get(fn, ())), t, fn)
    t = pick("experiment.run_schedule")
    out["experiment.events"] = per_call(t.sums.get("experiment.events", 0.0), t, "experiment.run_schedule")
    t = pick("lhv.certificate")
    visited = t.count_beneath("lhv.enumerate_assignments", "lhv.certificate") * STATES_PER_ENUMERATION
    out["lhv.assignments_visited"] = per_call(visited, t, "lhv.certificate")
    out["trace.overhead_frac"] = overhead_frac
    return out, [fn for fn in _TIMED if pick(fn) is tour]
