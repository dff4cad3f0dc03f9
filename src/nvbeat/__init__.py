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

Importing the package loads no submodule and not numpy, so the CLI can cap
the numeric runtime's thread pools before numpy loads. Import a submodule
by name: ``from nvbeat import estimation``.
"""

__version__ = "0.1.0"
