"""Simulator and verifier for a two-photon, four-dimensional
all-versus-nothing test of local realism.

The package computes the exact quantum predictions of the doubly
entangled state (polarization and path singlets), proves by exhaustive
enumeration that no local-realistic value assignment reproduces them,
models the linear-optics measurement devices, and reproduces the
published counting statistics by seeded Monte Carlo simulation.
"""

import importlib.util as _util
import sys as _sys


def _load_on_first_use(name: str):
    """Bind and register submodule `name`, but run its code at its first attribute access.

    Every module is in sys.modules and on the package from the start, as an
    eager import would leave it, yet `avnsim lhv` never pays for the numpy
    import that only the quantum modules need.
    """
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_frame = _load_on_first_use("_frame")
_records = _load_on_first_use("_records")
_sampler = _load_on_first_use("_sampler")
apparatus = _load_on_first_use("apparatus")
cli = _load_on_first_use("cli")
experiment = _load_on_first_use("experiment")
lhv = _load_on_first_use("lhv")
observables = _load_on_first_use("observables")
qstate = _load_on_first_use("qstate")
reference = _load_on_first_use("reference")
source = _load_on_first_use("source")
