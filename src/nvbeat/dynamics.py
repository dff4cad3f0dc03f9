"""Time-domain simulation of Rabi and zero-quantum Ramsey sequences.

The default path works in the eigenbasis of the static Hamiltonian, in the
frame rotating at the microwave carrier: free evolution is exactly diagonal
there, and the rotating wave approximation keeps only the drive matrix
elements between the ms0 manifold and the ms_plus/ms_minus manifolds (the
intra-manifold elements oscillate at the carrier frequency and average
out). The carrier sits at the mean of the two ms0 -> (ms_minus,
alpha_minus) transition frequencies plus an optional detuning, so the
detuning parameter measures symmetric offset from the Lambda doublet.
Propagation applies exp(-i 2 pi H t), H in MHz and t in us. Every trace is a
unitary, diagonal free evolution and a unitary: its coefficient matrix C is
computed once per point, then one matmul and one row dot give the trace on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_core import (
    DRIVE_SX,
    Eigensystem,
    FieldOrientation,
    SystemParams,
    _hermitian,
    build_hamiltonian,
    eigensystem,
    lambda_excited_index,
    lambda_system,
)

# Drive operator normalized so rabi_amplitude equals the on-resonance Rabi
# frequency of an isolated two-level transition (|<e|sqrt(2) Sx|g>| = 1 for
# the bare electron states).
_DRIVE_NORM = np.sqrt(2.0) * DRIVE_SX


@dataclass(frozen=True)
class PulseParams:
    """Microwave drive strength (MHz) and carrier offset (MHz)."""

    rabi_amplitude: float
    carrier_detuning: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.rabi_amplitude) and self.rabi_amplitude >= 0):
            raise ValueError("rabi_amplitude must be finite and >= 0")
        if not np.isfinite(self.carrier_detuning):
            raise ValueError("carrier_detuning must be finite")


@dataclass(frozen=True)
class RamseyTrace:
    """Sampled population trace."""

    tau: np.ndarray
    signal: np.ndarray


@dataclass(frozen=True)
class SpectrumPeaks:
    """FFT peaks sorted by descending magnitude."""

    frequency: np.ndarray
    magnitude: np.ndarray


def rotating_frame_h(
    delta: float, splitting: float, omega_plus: float, omega_minus: float
) -> np.ndarray:
    """Three-level Lambda Hamiltonian in the rotating frame, basis (g+, e, g-).

    Diagonal (0, delta, -splitting); the drive enters at half amplitude per
    leg (rotating wave approximation).
    """
    return np.array(
        [
            [0.0, omega_plus / 2.0, 0.0],
            [omega_plus / 2.0, delta, omega_minus / 2.0],
            [0.0, omega_minus / 2.0, -splitting],
        ],
        dtype=complex,
    )


def propagate(segments, psi0: np.ndarray) -> np.ndarray:
    """Apply exp(-i 2 pi H_k t_k) for each (hamiltonian, duration) segment in order.

    Every H_k must be Hermitian; a segment that is not raises.
    """
    psi = np.asarray(psi0, dtype=complex)
    for h, t in segments:
        if t < 0:
            raise ValueError("segment duration must be >= 0")
        h = np.asarray(h, dtype=complex)
        if not _hermitian(h[None])[0]:
            raise ValueError("segment Hamiltonian is not Hermitian")
        psi = _unitary(h, t) @ psi
    return psi


def _unitary(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-2j * np.pi * w * t)) @ v.conj().T


def _sequence_coefficients(vectors, before, after) -> np.ndarray:
    """The Hermitian 6x6 C for which the bare ms0 population from bare ms0 x I/2,
    after ``before``, free evolution tau under eigenbasis energies w and ``after``,
    is sum_jk C_jk exp(-2 pi i (w_j - w_k) tau). C_jk = 1/2 sum_ms A_mj b_js
    conj(A_mk b_ks) factors into the Gram matrices of A and b."""
    a = vectors[2:4] @ after  # rows 2, 3: the bare ms0 states
    b = before @ vectors[2:4].conj().T  # columns: the two bare ms0 starts, eigenbasis
    return 0.5 * (a.T @ a.conj()) * (b @ b.conj().T)


def _ms0_mixture_trace(eig: Eigensystem, times, w, before, after) -> RamseyTrace:
    """Bare ms0 population from the pumped state rho = Pi_ms0 / 2 (bare ms0 x I/2):
    ``_sequence_coefficients``, then one matmul and one row dot over ``times`` (us)."""
    phases = np.exp(-2j * np.pi * np.outer(times, w))
    c = _sequence_coefficients(eig.vectors, before, after)
    return RamseyTrace(tau=times, signal=np.vecdot(phases, phases @ c).real)


def _rotating_frame(eig: Eigensystem, exc: int, detuning: float):
    """Carrier, rotating-frame energies and drive in the eigenbasis of the static problem.

    Carrier omega_c: the mean of the two ms0 -> excited level (index exc)
    frequencies, plus detuning. Energies: eigenvalues, shifted down by
    omega_c on the ms_plus/ms_minus states. Drive: the carrier-resonant
    blocks of ``_DRIVE_NORM``, those connecting ms0 to the excited
    manifolds; H adds them at half amplitude. Returns (omega_c, w, x).
    """
    g = eig._order[2:4]  # the ms0 pair
    omega_c = float(eig.values[exc] - 0.5 * (eig.values[g[0]] + eig.values[g[1]])) + detuning
    excited = eig.labels != 1
    x = eig.vectors.conj().T @ _DRIVE_NORM @ eig.vectors
    x = np.where(excited[:, None] != excited[None, :], x, 0.0)
    return omega_c, eig.values - omega_c * excited, x


def simulate_rabi(
    params: SystemParams,
    field: FieldOrientation,
    pulse: PulseParams,
    t_grid: np.ndarray,
) -> RamseyTrace:
    """Driven ms0 population for drive durations t_grid (us).

    Starts from bare ms0 x I/2 and reads bare ms0 (``_ms0_mixture_trace``).
    ``_rabi_lab_frame`` is the same trace without the rotating wave
    approximation, the reference this path is checked against.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not ((t_grid >= 0) & (t_grid < np.inf)).all():  # nan fails too
        raise ValueError("t_grid must hold finite times >= 0")
    eig = eigensystem(build_hamiltonian(params, field))
    exc = lambda_excited_index(eig, params.tensor)
    _, w_rot, x = _rotating_frame(eig, exc, pulse.carrier_detuning)
    w, v = np.linalg.eigh(np.diag(w_rot) + 0.5 * pulse.rabi_amplitude * x)
    return _ms0_mixture_trace(eig, t_grid, w, v.conj().T, v)


def _rabi_lab_frame(params, field, pulse, t_grid) -> RamseyTrace:
    """``simulate_rabi`` in the lab frame: piecewise-constant integration of
    the explicitly time-dependent H(t) = H0 + amp cos(2 pi omega_c t) sqrt2 Sx,
    100 steps per carrier period, with no rotating wave approximation.
    t_grid must be non-decreasing."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be non-decreasing")
    h0 = build_hamiltonian(params, field)
    eig = eigensystem(h0)
    exc = lambda_excited_index(eig, params.tensor)
    omega_c = _rotating_frame(eig, exc, pulse.carrier_detuning)[0]
    dt = 1.0 / (100.0 * omega_c)  # 100 steps per carrier period
    inits = np.eye(6)[2:4]  # bare |0, +1/2> and |0, -1/2>: bare ms0 x I/2
    sig = np.zeros_like(t_grid)
    for psi0 in inits:
        psi = psi0.astype(complex)
        t_now = 0.0
        for n, t_target in enumerate(t_grid):
            while t_now < t_target - 1e-15:
                step = min(dt, t_target - t_now)
                t_mid = t_now + 0.5 * step
                h = h0 + pulse.rabi_amplitude * np.cos(2 * np.pi * omega_c * t_mid) * _DRIVE_NORM
                psi = _unitary(h, step) @ psi
                t_now += step
            sig[n] += np.abs(psi[2]) ** 2 + np.abs(psi[3]) ** 2
    return RamseyTrace(tau=t_grid, signal=sig / len(inits))


def _trace_arrays(trace: RamseyTrace):
    """(tau, signal) of a trace as float arrays; raises unless tau is 1-D,
    finite and >= 0 and the signal finite and of tau's length."""
    t, s = np.asarray(trace.tau, dtype=float), np.asarray(trace.signal, dtype=float)
    if not (t.ndim == 1 and s.shape == t.shape and ((t >= 0) & (t < np.inf)).all()
            and np.isfinite(s).all()):
        raise ValueError("a trace needs a 1-D finite tau >= 0 and a finite signal of its length")
    return t, s


def pi_pulse_from_rabi(trace: RamseyTrace) -> float:
    """Pulse duration at the first local minimum of a Rabi trace (us).

    Refines the grid minimum with a three-point parabola. A trace with no
    interior local minimum raises, as do times that do not increase.
    """
    t, s = _trace_arrays(trace)
    if len(s) < 3:
        raise ValueError("no Rabi minimum found (trace too short)")
    if not (np.diff(t) > 0).all():
        raise ValueError("sample times must increase")
    left, mid, right = s[:-2], s[1:-1], s[2:]
    found = (mid <= left) & (mid <= right) & ((mid < left) | (mid < right))
    if not found.any():
        raise ValueError("no Rabi minimum found")
    k = int(found.argmax()) + 1
    denom = s[k - 1] - 2 * s[k] + s[k + 1]
    if denom <= 0:
        return float(t[k])
    shift = 0.5 * (s[k - 1] - s[k + 1]) / denom
    shift = np.clip(shift, -1.0, 1.0)
    return float(t[k] + shift * (t[min(k + 1, len(t) - 1)] - t[k]))


def _ideal_pi_unitary(op, om, exc, gp, gm) -> np.ndarray:
    """Instantaneous swap of the excited level and the bright state of a
    ``lambda_system``, in the eigenbasis: the reflection I - d d^T with
    d = (op e_gp + om e_gm) / hypot(op, om) - e_exc."""
    n = np.hypot(op, om)
    if n == 0:
        raise ValueError("both Lambda amplitudes vanish; no pulse defined")
    d = np.zeros(6)
    d[[gp, gm, exc]] = op / n, om / n, -1.0
    return np.eye(6) - np.outer(d, d)


def simulate_zq_ramsey(
    params: SystemParams,
    field: FieldOrientation,
    pi_duration: float,
    detuning: float,
    tau_grid: np.ndarray,
    rabi_amplitude: float | None = None,
    ideal_pulses: bool = False,
) -> RamseyTrace:
    """ms0 population after pulse - free evolution tau - pulse.

    The initial state is bare ms0 x I/2 (the two bare ms0 states averaged),
    the readout bare ms0 (``_ms0_mixture_trace``). The drive amplitude defaults to
    1/(2 pi_duration), i.e. the strength for which pi_duration is a resonant
    pi pulse. ``ideal_pulses=True`` replaces the physical pulses with the
    instantaneous excited/bright population swap (pi_duration ignored).
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not ((tau_grid >= 0) & (tau_grid < np.inf)).all():  # nan fails too
        raise ValueError("tau_grid must hold finite times >= 0")
    if not np.isfinite(detuning):
        raise ValueError("detuning must be finite")
    if rabi_amplitude is not None:
        PulseParams(rabi_amplitude)  # finite and >= 0, or raises
    eig = eigensystem(build_hamiltonian(params, field))
    if ideal_pulses:
        lam = lambda_system(eig, params.tensor, field)
        exc, u_pulse = lam[2], _ideal_pi_unitary(*lam)
    else:
        exc = lambda_excited_index(eig, params.tensor)
    # free evolution is diagonal in the eigenbasis rotating frame
    _, w_free, x = _rotating_frame(eig, exc, detuning)
    if not ideal_pulses:
        if not (np.isfinite(pi_duration) and pi_duration > 0):
            raise ValueError("pi_duration must be finite and positive")
        if rabi_amplitude is None:
            rabi_amplitude = 1.0 / (2.0 * pi_duration)
        u_pulse = _unitary(np.diag(w_free) + 0.5 * rabi_amplitude * x, pi_duration)
    return _ms0_mixture_trace(eig, tau_grid, w_free, u_pulse, u_pulse)


def spectrum_peaks(trace: RamseyTrace, n_peaks: int = 4) -> SpectrumPeaks:
    """Dominant frequencies of a uniformly sampled trace, MHz.

    Mean-subtracted, Hann-windowed FFT magnitude; local maxima are refined by
    three-point parabolic interpolation and returned sorted by descending
    magnitude. A constant trace yields no peaks.
    """
    if not (isinstance(n_peaks, (int, np.integer)) and n_peaks >= 1):
        raise ValueError("n_peaks must be an integer >= 1, got %r" % (n_peaks,))
    t, s = _trace_arrays(trace)
    if len(t) < 16:
        raise ValueError("need at least 16 samples")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt.mean())) > 1e-9 * max(dt.mean(), 1e-30):
        raise ValueError("non-uniform sample grid")
    step = dt.mean()
    if not step > 0:
        raise ValueError("sample times must increase")
    x = (s - s.mean()) * np.hanning(len(s))
    mag = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(len(s), step)
    floor = 1e-12 * max(np.max(mag), 1e-300)
    left, mid, right = mag[:-2], mag[1:-1], mag[2:]
    i = np.flatnonzero((mid > left) & (mid >= right) & (mid > floor))
    left, mid, right = left[i], mid[i], right[i]
    denom = left - 2 * mid + right
    # no shift where denom >= 0; a nan denom (from inf magnitudes) divides to nan
    shift = np.divide(0.5 * (left - right), denom, out=np.zeros_like(denom), where=~(denom >= 0))
    pk_f = (i + 1 + shift) * freqs[1]
    pk_m = mid - 0.25 * (left - right) * shift
    order = np.argsort(pk_m)[::-1][:n_peaks]
    return SpectrumPeaks(frequency=pk_f[order], magnitude=pk_m[order])


def apply_dephasing(
    trace: RamseyTrace, t2_star: float, shape: str = "exponential"
) -> RamseyTrace:
    """Damp the oscillating part of a trace toward its mean.

    shape 'exponential' applies exp(-tau/T2*), 'gaussian' exp(-(tau/T2*)^2).
    """
    if not (t2_star > 0):
        raise ValueError("t2_star must be positive")
    tau, signal = _trace_arrays(trace)
    if shape == "exponential":
        env = np.exp(-tau / t2_star)
    elif shape == "gaussian":
        env = np.exp(-((tau / t2_star) ** 2))
    else:
        raise ValueError("unknown envelope shape %r" % (shape,))
    mean = signal.mean()
    return RamseyTrace(tau=tau, signal=mean + (signal - mean) * env)
