"""Simulation and hyperfine-tensor estimation for an NV electron spin
coupled to a single first-shell 13C nucleus.

Submodules:
    spin_core        6-level Hamiltonian, eigensystem labeling, transitions
    analytic         closed-form splitting and Ramsey signal models
    dynamics         pulse-sequence simulation (Rabi, zero-quantum Ramsey)
    estimation       dataset synthesis, hyperfine fitting, sensitivity
    tensor_geometry  principal axes of the coupling tensor
    config           run-configuration files
    cli              command-line entry point

Submodules load on first attribute access so the CLI can configure the
numeric runtime (thread caps) before anything imports numpy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "spin_core",
    "analytic",
    "dynamics",
    "estimation",
    "tensor_geometry",
    "config",
    "cli",
)


def __getattr__(name):
    if name in _SUBMODULES:
        module = importlib.import_module("." + name, __name__)
        globals()[name] = module
        return module
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))
