"""Closed-form models for the zero-quantum splitting and Ramsey signals.

The ms0 nuclear doublet splitting Delta is dominated by second-order
hyperfine mixing through the ms_plus/ms_minus manifolds; the closed form and
the explicit perturbation sum below both live in that regime (gamma_e B << D).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .spin_core import (
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    build_hamiltonian,
    zeeman_states,
)


@dataclass(frozen=True)
class BrightDarkDecomposition:
    """Bright/dark combination of the two ms0 levels for a common excited state.

    Components are over the Lambda basis (|ground_plus>, |excited>,
    |ground_minus>); mixing_angle = atan2(omega_minus, omega_plus) in radians.
    """

    bright: np.ndarray
    dark: np.ndarray
    mixing_angle: float
    coupling: float


@dataclass(frozen=True)
class RamseyModelParams:
    """Inputs of the analytic zero-quantum Ramsey signal."""

    omega_plus: float
    omega_minus: float
    delta: float  # ms0 doublet splitting, MHz
    n_spins: int = 1

    def __post_init__(self):
        if self.omega_plus < 0 or self.omega_minus < 0:
            raise ValueError("drive amplitudes must be >= 0")
        if self.omega_plus == 0 and self.omega_minus == 0:
            raise ValueError("at least one drive amplitude must be nonzero")
        if self.n_spins < 1:
            raise ValueError("n_spins must be >= 1")


def delta_perturbative(params: SystemParams, field: FieldOrientation) -> float:
    """Closed-form ms0 doublet splitting, MHz.

    Second order in ms0 gives the enhanced nuclear field
    (2 gamma_e / D) (a_xx B_x, a_yy B_y, a B_x); Delta is its magnitude,

    Delta = (2 gamma_e B sin(theta) / D)
            * sqrt((a_xx^2 + a^2) cos^2(phi) + a_yy^2 sin^2(phi))

    The bare nuclear Zeeman term gamma_n B is dropped, so the zero tensor
    gives 0.
    """
    t = params.tensor
    th = np.radians(field.theta)
    ph = np.radians(field.phi)
    pref = 2.0 * params.gamma_e * field.b * np.sin(th) / params.d
    return float(
        pref * np.hypot(np.hypot(t.a_xx, t.a) * np.cos(ph), t.a_yy * np.sin(ph))
    )


def _adapted_basis_hamiltonian(params: SystemParams, field: FieldOrientation):
    """Hamiltonian with each electron manifold's nuclear block diagonalized.

    The ms0 columns become exactly |0, beta_pm> (the diagonal ms0 block is the
    bare nuclear Zeeman term); the ms_pm blocks rotate to their alpha-like
    eigenstates, which is what makes the perturbation denominators meaningful
    when the xz cross coupling is large.
    """
    if field.b <= 0:
        raise ValueError("Zeeman axis undefined (b = 0)")
    h = build_hamiltonian(params, field)
    beta_plus, beta_minus = zeeman_states(field.theta, field.phi)
    u = np.zeros((6, 6), dtype=complex)
    u[2:4, 2] = beta_plus
    u[2:4, 3] = beta_minus
    for rows, cols in (((0, 1), (0, 1)), ((4, 5), (4, 5))):
        block = h[np.ix_(rows, rows)]
        _, vecs = np.linalg.eigh(block)
        u[np.ix_(rows, cols)] = vecs
    return u.conj().T @ h @ u


def delta_second_order_sum(params: SystemParams, field: FieldOrientation) -> float:
    """Second-order perturbative ms0 doublet splitting, MHz.

    Builds the effective 2x2 Hamiltonian of the |0, beta_pm> pair at second
    order in the couplings to the four ms_plus/ms_minus states and returns
    its eigenvalue difference. The diagonal difference of that 2x2 is the
    textbook sum of |<i|H|g+>|^2 - |<i|H|g->|^2 over the perturbation
    denominators; the off-diagonal term matters because the bare beta_pm
    spacing (the nuclear Zeeman energy) is far smaller than the second-order
    couplings, so the pair must be treated as quasi-degenerate. Warns when
    gamma_e B > D/10 (outside the perturbative regime).
    """
    if params.gamma_e * field.b > params.d / 10.0:
        warnings.warn(
            "gamma_e*B exceeds D/10; second-order treatment is unreliable",
            stacklevel=2,
        )
    hr = _adapted_basis_hamiltonian(params, field)
    ground = (2, 3)
    far = (0, 1, 4, 5)
    h_eff = np.array(
        [[hr[2, 2], hr[2, 3]], [hr[3, 2], hr[3, 3]]], dtype=complex
    )
    scale = max(1.0, float(np.max(np.abs(hr))))
    for ia, a in enumerate(ground):
        for ib, b in enumerate(ground):
            acc = 0.0 + 0.0j
            for i in far:
                da = (hr[a, a] - hr[i, i]).real
                db = (hr[b, b] - hr[i, i]).real
                if min(abs(da), abs(db)) < 1e-12 * scale:
                    raise ValueError("degenerate denominator at basis state %d" % i)
                acc += hr[a, i] * hr[i, b] * 0.5 * (1.0 / da + 1.0 / db)
            h_eff[ia, ib] += acc
    w = np.linalg.eigvalsh(h_eff)
    return float(abs(w[1] - w[0]))


def effective_couplings(tensor: HyperfineTensor):
    """Effective coupling magnitudes and mixing angles induced by the xz cross term.

    Returns dict with a_zz_eff = sqrt(a_zz^2 + a^2), a_xx_eff =
    sqrt(a_xx^2 + a^2), theta_prime = atan2(a, a_zz) and theta_double_prime
    defined by tan(theta''/2) = -a / a_xx (degrees).
    """
    return {
        "a_zz_eff": float(np.hypot(tensor.a_zz, tensor.a)),
        "a_xx_eff": float(np.hypot(tensor.a_xx, tensor.a)),
        "theta_prime_deg": float(np.degrees(np.arctan2(tensor.a, tensor.a_zz))),
        "theta_double_prime_deg": float(
            np.degrees(2.0 * np.arctan2(-tensor.a, tensor.a_xx))
        ),
    }


def bright_dark(omega_plus: float, omega_minus: float) -> BrightDarkDecomposition:
    """Bright/dark decomposition of the ms0 doublet for given leg amplitudes.

    bright = (omega_plus |g+> + omega_minus |g->) / N,
    dark = (omega_minus |g+> - omega_plus |g->) / N, N^2 = op^2 + om^2.
    The transformed drive couples only |excited> <-> bright with strength N.
    """
    n2 = omega_plus**2 + omega_minus**2
    if n2 <= 0:
        raise ValueError("at least one drive amplitude must be nonzero")
    n = np.sqrt(n2)
    bright = np.array([omega_plus, 0.0, omega_minus]) / n
    dark = np.array([omega_minus, 0.0, -omega_plus]) / n
    return BrightDarkDecomposition(
        bright=bright,
        dark=dark,
        mixing_angle=float(np.arctan2(omega_minus, omega_plus)),
        coupling=float(n),
    )


def zq_ramsey_v(model: RamseyModelParams, tau: np.ndarray) -> np.ndarray:
    """Ground-doublet population after a V-type zero-quantum Ramsey sequence.

    p(tau) = (op^4 + om^4)/(op^2 + om^2)^2
             + 2 (op om / (op^2 + om^2))^2 cos(2 pi Delta tau)

    Detuning-free by construction; p(0) = 1.
    """
    tau = np.asarray(tau, dtype=float)
    op2 = model.omega_plus**2
    om2 = model.omega_minus**2
    offset = (op2**2 + om2**2) / (op2 + om2) ** 2
    amp = zq_beat_amplitude(model.omega_plus, model.omega_minus)
    return offset + amp * np.cos(2.0 * np.pi * model.delta * tau)


def zq_beat_amplitude(omega_plus: float, omega_minus: float) -> float:
    """Oscillation amplitude of the V-type signal, 2 (op om / (op^2+om^2))^2."""
    s = omega_plus**2 + omega_minus**2
    if s <= 0:
        raise ValueError("at least one drive amplitude must be nonzero")
    return float(2.0 * (omega_plus * omega_minus / s) ** 2)


def zq_ramsey_lambda(model: RamseyModelParams, tau: np.ndarray) -> np.ndarray:
    """Lambda-type (and N-nucleus) zero-quantum Ramsey signal.

    For one nucleus p = 1/2 + p_V/2; for n identical spectator nuclei the
    oscillating part carries the 2^-n initialization weight:
    p = (1 - 2^-n) + 2^-n p_V.
    """
    pv = zq_ramsey_v(model, tau)
    w = 0.5**model.n_spins
    return (1.0 - w) + w * pv
