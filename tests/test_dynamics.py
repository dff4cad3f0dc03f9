"""Pulse simulations: Rabi traces, ZQ Ramsey, spectra, dephasing."""

import math
import re

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import curve_fit

from nvbeat.analytic import RamseyModelParams, bright_dark, zq_ramsey_lambda, zq_ramsey_v
from nvbeat.dynamics import (
    PulseParams,
    RamseyTrace,
    _ideal_pi_unitary,
    _rabi_lab_frame,
    _rotating_frame,
    _sequence_coefficients,
    _unitary,
    apply_dephasing,
    pi_pulse_from_rabi,
    propagate,
    rotating_frame_h,
    simulate_rabi,
    simulate_zq_ramsey,
    spectrum_peaks,
)
from nvbeat.spin_core import (
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    build_hamiltonian,
    eigensystem,
    lambda_excited_index,
    lambda_system,
    lambda_transition_amplitudes,
    zero_quantum_splitting_exact,
)

REF = HyperfineTensor(166.9, 122.9, 90.0, -90.3)
SYS = SystemParams(tensor=REF)
STA = FieldOrientation(40.3, 5.008965663741781, 0.0)
F40 = FieldOrientation(40.3, 40.0, 90.0)


def test_propagate_unitary():
    rng = np.random.default_rng(10)
    for _ in range(20):
        segs = []
        for _ in range(3):
            m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            segs.append(((m + m.conj().T) / 2, float(rng.uniform(0, 0.5))))
        psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi0 /= np.linalg.norm(psi0)
        psi = propagate(segs, psi0)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9
        want = psi0
        for h, t in segs:
            want = expm(-2j * np.pi * h * t) @ want
        assert np.max(np.abs(psi - want)) < 1e-10
    skew = np.zeros((6, 6), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError, match="^segment Hamiltonian is not Hermitian$"):
        propagate([(np.eye(6), 0.1), (skew, 0.1)], np.eye(6)[0])


def test_dark_state_stationary():
    rng = np.random.default_rng(11)
    for _ in range(10):
        op, om = rng.uniform(0.1, 2.0, size=2)
        dec = bright_dark(float(op), float(om))
        h = rotating_frame_h(float(rng.uniform(-3, 3)), 0.0, float(op), float(om))
        psi = propagate([(h, 0.7)], dec.dark)
        assert abs(abs(np.vdot(dec.dark, psi)) - 1.0) < 1e-9
        want = expm(-2j * np.pi * h * 0.7) @ dec.dark
        assert np.max(np.abs(psi - want)) < 1e-10


def test_pi_pulse_duration_at_sta():
    t = np.linspace(0, 2.0 / 14.3, 801)
    trace = simulate_rabi(SYS, STA, PulseParams(14.3), t)
    t_pi = pi_pulse_from_rabi(trace)
    assert abs(t_pi - 1.0 / (2 * 14.3)) / (1.0 / (2 * 14.3)) < 0.10


def test_rabi_single_sinusoid_at_sta():
    t = np.linspace(0, 4.0 / 14.3, 1024)
    trace = simulate_rabi(SYS, STA, PulseParams(14.3), t)
    peaks = spectrum_peaks(trace)
    assert abs(peaks.frequency[0] - 14.3) < 0.2

    def sinus(tt, a, f, ph, c):
        return a * np.cos(2 * np.pi * f * tt + ph) + c

    p, _ = curve_fit(sinus, t, trace.signal, p0=[0.25, peaks.frequency[0], 0.0, 0.75])
    rms = np.sqrt(np.mean((trace.signal - sinus(t, *p)) ** 2))
    contrast = trace.signal.max() - trace.signal.min()
    print("sta rabi: peak %.4f MHz, rms/contrast %.4f" % (peaks.frequency[0], rms / contrast))
    assert rms / contrast < 0.03


def test_rabi_modulated_off_axis():
    # long enough record to resolve the beat envelope from dc
    t = np.linspace(0, 1.0, 2048)
    trace = simulate_rabi(SYS, F40, PulseParams(14.3), t)
    peaks = spectrum_peaks(trace)
    rel = peaks.magnitude / peaks.magnitude.max()
    assert np.sum(rel > 0.10) >= 2


def test_rabi_first_minimum_agreement():
    t = np.linspace(0, 1.0, 2048)
    m_sta = pi_pulse_from_rabi(simulate_rabi(SYS, STA, PulseParams(14.3), t))
    m_off = pi_pulse_from_rabi(simulate_rabi(SYS, F40, PulseParams(14.3), t))
    assert abs(m_off - m_sta) / m_sta < 0.10


def test_rabi_lab_frame_cross_check():
    t = np.linspace(0, 0.12, 240)
    rot = simulate_rabi(SYS, F40, PulseParams(14.3), t)
    lab = _rabi_lab_frame(SYS, F40, PulseParams(14.3), t)
    dev = np.max(np.abs(rot.signal - lab.signal))
    print("lab frame deviation: %.4f" % dev)
    assert dev < 0.05


def test_dynamics_keep_the_phi_mirror():
    # H(-phi) = conj H(phi) and the drive is real, so a sequence started in
    # bare ms0 x I/2 and read on bare ms0 gives the same trace at +-phi:
    # Rabi, its pi pulse and ZQ Ramsey with ideal and finite pulses, on the
    # reference tensor and two seeded ones (reference +-10 %)
    rng = np.random.default_rng(131)
    tensors = [REF] + [HyperfineTensor(*(r * f for r, f in zip(
        (166.9, 122.9, 90.0, -90.3), rng.uniform(0.9, 1.1, 4)))) for _ in range(2)]
    t, tau = np.linspace(0, 0.1, 201), np.linspace(0, 5.0, 256)
    for params in (SystemParams(tensor=tensor) for tensor in tensors):
        for phi in (30.0, 60.0):
            fields = [FieldOrientation(40.3, 40.0, sign * phi) for sign in (1, -1)]
            rabi = [simulate_rabi(params, f, PulseParams(14.3), t) for f in fields]
            assert np.max(np.abs(rabi[0].signal - rabi[1].signal)) < 1e-10
            assert abs(pi_pulse_from_rabi(rabi[0]) - pi_pulse_from_rabi(rabi[1])) < 1e-10
            for ideal in (True, False):
                a, b = (simulate_zq_ramsey(params, f, 0.035, 0.0, tau, rabi_amplitude=14.3,
                                           ideal_pulses=ideal).signal for f in fields)
                assert np.max(np.abs(a - b)) < 1e-10, (phi, ideal)


def test_zq_ramsey_matches_lambda_model():
    tau = np.linspace(0, 5.0, 512)
    rng = np.random.default_rng(12)
    worst = 0.0
    n = 0
    while n < 20:
        f = FieldOrientation(40.3, float(rng.uniform(5, 75)), float(rng.uniform(-90, 90)))
        try:
            eig = eigensystem(build_hamiltonian(SYS, f))
            op, om = lambda_transition_amplitudes(eig, REF, f)
            sim = simulate_zq_ramsey(SYS, f, 0.035, 0.0, tau, ideal_pulses=True)
        except ValueError:
            continue
        n += 1
        model = zq_ramsey_lambda(
            RamseyModelParams(op, om, zero_quantum_splitting_exact(eig)), tau
        )
        worst = max(worst, float(np.max(np.abs(sim.signal - model))))
    print("ideal-pulse vs analytic worst deviation: %.4f" % worst)
    assert worst < 0.05


def test_zq_ramsey_lambda_v_relation():
    tau = np.linspace(0, 5.0, 512)
    eig = eigensystem(build_hamiltonian(SYS, F40))
    op, om = lambda_transition_amplitudes(eig, REF, F40)
    delta = zero_quantum_splitting_exact(eig)
    sim = simulate_zq_ramsey(SYS, F40, 0.035, 0.0, tau, ideal_pulses=True)
    pv = zq_ramsey_v(RamseyModelParams(op, om, delta), tau)
    assert np.max(np.abs(sim.signal - (0.5 + 0.5 * pv))) < 0.05


def test_zq_ramsey_identifies_the_excited_level_once(monkeypatch):
    # the carrier and the ideal swap share one Lambda system
    from nvbeat import spin_core

    calls = []
    kernel = spin_core.lambda_overlaps

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(spin_core, "lambda_overlaps", counted)
    tau = np.linspace(0, 5.0, 64)
    for kwargs in (dict(ideal_pulses=True), dict(rabi_amplitude=14.3)):
        calls.clear()
        simulate_zq_ramsey(SYS, F40, 0.035, 0.0, tau, **kwargs)
        assert len(calls) == 1, kwargs


def test_pulses_at_zero_field_need_only_the_excited_level():
    # Rabi and finite pulses read the excited level alone, which b = 0
    # leaves defined; the ideal swap needs the Zeeman states of the legs
    f0 = FieldOrientation(0.0, 0.0, 0.0)
    t = np.linspace(0, 1.0, 64)
    rabi = simulate_rabi(SYS, f0, PulseParams(14.3), t)
    ramsey = simulate_zq_ramsey(SYS, f0, 0.035, 0.0, t, rabi_amplitude=14.3)
    for trace in (rabi, ramsey):
        assert np.all((trace.signal >= -1e-12) & (trace.signal <= 1 + 1e-12))
    assert rabi.signal[0] > 0.99 and rabi.signal.min() < 0.1  # the drive empties ms0
    with pytest.raises(ValueError, match=r"^Zeeman axis undefined \(b = 0\)$"):
        simulate_zq_ramsey(SYS, f0, 0.035, 0.0, t, ideal_pulses=True)


def _sequence_cases(phi):
    """The eigensystem at theta 40, phi, and one (name, simulated trace, unitary(t) in
    the eigenbasis, C or None) per case: a 14.3 MHz Rabi trace, and ZQ Ramsey with
    finite and with ideal pulses."""
    field = FieldOrientation(40.3, 40.0, phi)
    eig = eigensystem(build_hamiltonian(SYS, field))
    _, w, x = _rotating_frame(eig, lambda_excited_index(eig, REF), 0.0)
    rabi_h = np.diag(w) + 0.5 * 14.3 * x
    rabi = simulate_rabi(SYS, field, PulseParams(14.3), np.linspace(0.0, 2.0 / 14.3, 801))
    t_pi = pi_pulse_from_rabi(rabi)
    tau = np.linspace(0.0, 2.0, 64)
    finite = _unitary(rabi_h, t_pi)
    ideal = _ideal_pi_unitary(*lambda_system(eig, REF, field))
    return eig, [
        ("rabi", rabi, lambda t: _unitary(rabi_h, t), None),
        ("finite", simulate_zq_ramsey(SYS, field, t_pi, 0.0, tau, rabi_amplitude=14.3),
         lambda t: finite @ _unitary(np.diag(w), t) @ finite,
         _sequence_coefficients(eig.vectors, finite, finite)),
        ("ideal", simulate_zq_ramsey(SYS, field, 0.0, 0.0, tau, ideal_pulses=True),
         lambda t: ideal @ _unitary(np.diag(w), t) @ ideal,
         _sequence_coefficients(eig.vectors, ideal, ideal)),
    ]


@pytest.mark.parametrize("phi", [-60.0, 0.0, 30.0, 60.0, 90.0])
def test_sequence_kernel_matches_explicit_propagation(phi):
    # each bare ms0 start propagated one tau at a time, read in bare ms0 and
    # averaged over the two starts: the state-by-state sum C stands for
    eig, cases = _sequence_cases(phi)
    starts = eig.vectors[2:4].conj().T  # eigenbasis columns: bare |0, +1/2>, |0, -1/2>
    for name, trace, sequence, c in cases:
        want = [np.sum(np.abs((eig.vectors @ sequence(t) @ starts)[2:4]) ** 2) / 2
                for t in trace.tau]
        assert np.max(np.abs(trace.signal - want)) < 1e-12, name
        if c is not None:
            assert np.max(np.abs(c - c.conj().T)) < 1e-15, name


@pytest.mark.parametrize("phi, ideal, finite", [
    (0.0, 0.0165, 0.0073), (30.0, 0.0452, 0.0260), (60.0, 0.1429, 0.1105), (90.0, 0.2485, 0.2285),
])
def test_zq_amplitude_is_the_ms0_pair_coefficient(phi, ideal, finite):
    # 2 |C[g0, g1]| is the beat amplitude with no time grid; at phi 60 the
    # finite pulses leave 8 frequency pairs above 1e-3, the ideal swap 2
    eig, cases = _sequence_cases(phi)
    g0, g1 = eig._order[2:4]
    pairs = np.triu_indices(6, 1)
    for (name, _, _, c), amplitude, n_pairs in zip(cases[1:], (finite, ideal), (8, 2)):
        assert abs(2 * abs(c[g0, g1]) - amplitude) < 5e-5, name
        if phi == 60.0:
            assert np.count_nonzero(2 * np.abs(c[pairs]) > 1e-3) == n_pairs, name


def test_zq_ramsey_dominant_peak():
    t_pi = pi_pulse_from_rabi(
        simulate_rabi(SYS, F40, PulseParams(14.3), np.linspace(0, 1.0, 2048))
    )
    tau = np.linspace(0, 20.0, 2048)
    trace = simulate_zq_ramsey(SYS, F40, t_pi, 0.0, tau, rabi_amplitude=14.3)
    peaks = spectrum_peaks(trace)
    assert abs(peaks.frequency[0] - 6.2376) < 0.05
    assert peaks.magnitude[1] < 0.25 * peaks.magnitude[0]


def test_detuning_invariance():
    tau = np.linspace(0, 20.0, 2048)
    bin_width = 1.0 / 20.0
    doms = []
    for det in (-10.0, -5.0, 0.0, 5.0, 10.0):
        trace = simulate_zq_ramsey(SYS, F40, 0.025, det, tau, rabi_amplitude=20.0)
        doms.append(spectrum_peaks(trace).frequency[0])
    assert max(doms) - min(doms) < bin_width


def test_third_pi_mixed_spectrum():
    # partial excitation leaves single-quantum coherence at det -+ delta/2
    # next to the zero-quantum line
    tau = np.linspace(0, 20.0, 2048)
    det = 5.0
    delta = zero_quantum_splitting_exact(eigensystem(build_hamiltonian(SYS, F40)))
    t_pi = 1.0 / (2 * 14.3)
    trace = simulate_zq_ramsey(SYS, F40, t_pi / 3.0, det, tau, rabi_amplitude=14.3)
    peaks = spectrum_peaks(trace, n_peaks=5)
    expected = (delta, det - delta / 2.0, det + delta / 2.0)
    for want in expected:
        assert np.min(np.abs(peaks.frequency - want)) < 0.1


def test_spectrum_peaks_tone():
    t = np.linspace(0, 20, 1000)
    tone = RamseyTrace(tau=t, signal=0.5 + 0.3 * np.cos(2 * np.pi * 6.0 * t))
    peaks = spectrum_peaks(tone)
    assert abs(peaks.frequency[0] - 6.0) < 0.05

    flat = RamseyTrace(tau=t, signal=np.full_like(t, 0.75))
    assert len(spectrum_peaks(flat).frequency) == 0


@pytest.mark.parametrize("signal, want", [
    ([1.0, 0.5, 0.2, 0.2, 0.2, 0.6, 1.0], "0x1.0000000000001p-2"),  # flat bottom
    ([0.5, 0.5, 0.5, 0.2, 0.9, 0.1], "0x1.1eb851eb851ecp-2"),  # equal neighbours
    ([1.0, 0.4, 0.1, 0.4, 1.0], "0x1.999999999999ap-3"),  # symmetric minimum
    ([1.0, 0.2, 0.7], "0x1.c8dc8dc8dc8ddp-4"),  # three samples
    # s[0] - 2 s[1] + s[2] rounds to 0: no parabola, the grid minimum itself
    ([-1 + 2**-53, -1.0, -1.0, 0.0], "0x1.999999999999bp-4"),
])
def test_pi_pulse_edge_traces(signal, want):
    # the first sample no higher than both neighbours and lower than one,
    # refined by the parabola, as the sample-by-sample walk found it
    t = np.linspace(0.0, 0.1 * (len(signal) - 1), len(signal))
    assert pi_pulse_from_rabi(RamseyTrace(tau=t, signal=np.array(signal))).hex() == want
    for bad, msg in (([1.0, 0.8, 0.6, 0.4], "no Rabi minimum found$"),
                     ([0.2, 0.2, 0.2, 0.2], "no Rabi minimum found$"),
                     ([1.0, 0.2], r"trace too short")):
        with pytest.raises(ValueError, match=msg):
            pi_pulse_from_rabi(RamseyTrace(tau=np.arange(len(bad)) * 0.1, signal=np.array(bad)))


@pytest.mark.parametrize("mag, freqs, mags", [
    # a plateau counts once, at its first bin
    ([0.0, 1.0, 3.0, 3.0, 1.0, 0.5, 2.0, 5.0, 2.0, 0.0],
     ["0x1.f1c71c71c71c8p+2", "0x1.638e38e38e38ep+1"],
     ["0x1.4000000000000p+2", "0x1.a000000000000p+1"]),
    # local maxima at or below 1e-12 of the largest are no peaks
    ([0.0, 2e-12, 1e-12, 3.0, 1.0, 4e-12, 0.0, 1e-13, 0.0, 0.0],
     ["0x1.b8e38e38e381cp+1"], ["0x1.83333333332cep+1"]),
])
def test_spectrum_peaks_edge_spectra(monkeypatch, mag, freqs, mags):
    n = 2 * len(mag) - 2
    monkeypatch.setattr(np.fft, "rfft", lambda x: np.asarray(mag, dtype=complex))
    peaks = spectrum_peaks(RamseyTrace(tau=np.arange(n) * 0.05, signal=np.arange(n) % 3.0), 8)
    assert [f.hex() for f in peaks.frequency] == freqs
    assert [m.hex() for m in peaks.magnitude] == mags


def test_spectrum_peaks_truncates_and_keeps_empty_arrays():
    t = np.arange(64) * 0.25
    tones = sum(a * np.cos(2 * np.pi * f * t) for a, f in ((0.3, 0.5), (0.2, 1.25), (0.1, 1.7)))
    freqs = ["0x1.ffffeb6218ec7p-2", "0x1.40006bca716dap+0", "0x1.b2848ca5c8f53p+0"]
    mags = ["0x1.2e6e53197d348p+2", "0x1.93360a64bbb20p+1", "0x1.8e21f5ae3d678p+0"]
    for n in (2, 3, 50, np.int64(2)):
        peaks = spectrum_peaks(RamseyTrace(tau=t, signal=tones), n_peaks=n)
        assert [f.hex() for f in peaks.frequency] == freqs[:n]
        assert [m.hex() for m in peaks.magnitude] == mags[:n]
    # -1 dropped the weakest peak and 0.5 failed in the slice
    for n in (-1, 0, 0.5, 2.0, None):
        with pytest.raises(ValueError, match="n_peaks must be an integer >= 1"):
            spectrum_peaks(RamseyTrace(tau=t, signal=tones), n_peaks=n)
    flat = spectrum_peaks(RamseyTrace(tau=t, signal=np.full(64, 0.75)))
    for values in (flat.frequency, flat.magnitude):
        assert values.dtype == np.float64 and values.shape == (0,)


def test_spectrum_peaks_input_checks():
    # 16 samples, the floor of the config's sequence.n_points, is the least
    # grid the peak finder takes; 15 is refused
    tau = np.linspace(0, 1, 16)
    spectrum_peaks(RamseyTrace(tau=tau, signal=np.cos(2 * np.pi * 4.0 * tau)))
    with pytest.raises(ValueError, match="^need at least 16 samples$"):
        spectrum_peaks(RamseyTrace(tau=tau[:15], signal=np.zeros(15)))
    bad = np.array([0.0, 0.1, 0.15, 0.4, 0.41, 0.6, 0.8, 1.0] * 3)
    with pytest.raises(ValueError, match="^non-uniform sample grid$"):
        spectrum_peaks(RamseyTrace(tau=bad, signal=np.zeros(len(bad))))


T32 = np.linspace(0.0, 1.0, 32)
TONE = np.cos(2 * np.pi * 3.0 * T32)
UNREADABLE = "a trace needs a 1-D finite tau >= 0 and a finite signal of its length"
NOT_INCREASING = "sample times must increase"
# each trace a reader once read: a repeated time gave an inf frequency, a
# decreasing grid -3 MHz for a 3 MHz tone and a wrong pi time, a nan a nan
# answer or "no peaks", negative times a dephased signal growing to 4.16
BAD_TRACES = {
    "repeated_time": (np.full(32, 0.5), TONE, NOT_INCREASING),
    "decreasing_time": (np.arange(32.0)[::-1] / 32.0, TONE, NOT_INCREASING),  # uniform
    "nan_time": (np.where(T32 == T32[7], np.nan, T32), TONE, UNREADABLE),
    "inf_time": (np.where(T32 == T32[7], np.inf, T32), TONE, UNREADABLE),
    "negative_time": (T32 - 1.0, TONE, UNREADABLE),
    "two_dim_time": (T32.reshape(2, 16), TONE.reshape(2, 16), UNREADABLE),
    "nan_signal": (T32, np.where(T32 == T32[7], np.nan, TONE), UNREADABLE),
    "inf_signal": (T32, np.where(T32 == T32[7], np.inf, TONE), UNREADABLE),
    "short_signal": (T32, TONE[:-1], UNREADABLE),
}
TRACE_READERS = {
    "spectrum_peaks": spectrum_peaks,
    "pi_pulse_from_rabi": pi_pulse_from_rabi,
    "apply_dephasing": lambda trace: apply_dephasing(trace, 1.0),
}


@pytest.mark.parametrize("reader", TRACE_READERS)
@pytest.mark.parametrize("bad", BAD_TRACES)
def test_trace_readers_refuse_traces_they_cannot_read(reader, bad):
    tau, signal, message = BAD_TRACES[bad]
    trace = RamseyTrace(tau=tau, signal=signal)
    if reader == "apply_dephasing" and message == NOT_INCREASING:
        # an envelope per sample needs no order of the samples
        assert np.array_equal(TRACE_READERS[reader](trace).tau, tau)
        return
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        TRACE_READERS[reader](trace)


def test_pulse_and_ramsey_input_checks():
    # a nan or inf drive once reached eigh, and an infinite pi pulse gave
    # an all-nan trace
    for kwargs, message in (
        (dict(rabi_amplitude=math.nan), "rabi_amplitude must be finite"),
        (dict(rabi_amplitude=math.inf), "rabi_amplitude must be finite"),
        (dict(rabi_amplitude=-1.0), "rabi_amplitude must be finite and >= 0"),
        (dict(rabi_amplitude=14.3, carrier_detuning=math.nan), "carrier_detuning must be finite"),
        (dict(rabi_amplitude=14.3, carrier_detuning=-math.inf), "carrier_detuning must be finite"),
    ):
        with pytest.raises(ValueError, match=message):
            PulseParams(**kwargs)
    tau = np.linspace(0, 5.0, 64)
    for bad in (math.inf, math.nan, 0.0, -0.035):
        with pytest.raises(ValueError, match="pi_duration must be finite and positive"):
            simulate_zq_ramsey(SYS, F40, bad, 0.0, tau, rabi_amplitude=14.3)
    # a nan or inf drive ended in eigh's "Eigenvalues did not converge"
    for bad in (math.nan, math.inf, -14.3):
        for ideal in (False, True):
            with pytest.raises(ValueError, match="rabi_amplitude must be finite and >= 0"):
                simulate_zq_ramsey(SYS, F40, 0.035, 0.0, tau, rabi_amplitude=bad,
                                   ideal_pulses=ideal)
    # a nan time gave a nan signal and a nan detuning numpy's LinAlgError
    pulse = PulseParams(14.3)
    for grid in ([0.0, math.nan], [0.0, math.inf], [-0.01, 0.0]):
        with pytest.raises(ValueError, match="t_grid must hold finite times >= 0"):
            simulate_rabi(SYS, F40, pulse, grid)
        for ideal in (False, True):
            with pytest.raises(ValueError, match="tau_grid must hold finite times >= 0"):
                simulate_zq_ramsey(SYS, F40, 0.035, 0.0, grid, ideal_pulses=ideal)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="detuning must be finite"):
            simulate_zq_ramsey(SYS, F40, 0.035, bad, tau)


def test_dephasing_identity_limit():
    tau = np.linspace(0, 20.0, 2048)
    trace = simulate_zq_ramsey(SYS, F40, 0.035, 0.0, tau, rabi_amplitude=14.3)
    same = apply_dephasing(trace, 1e9, "exponential")
    assert np.max(np.abs(same.signal - trace.signal)) < 1e-6


def test_dephasing_envelope():
    t = np.linspace(0, 4, 1001)
    sq = RamseyTrace(tau=t, signal=0.5 + 0.5 * np.cos(2 * np.pi * 3.0 * t))
    damped = apply_dephasing(sq, 1.0, "exponential")
    i = int(np.argmin(np.abs(t - 1.0)))
    ratio = (damped.signal[i] - 0.5) / (sq.signal[i] - 0.5)
    assert abs(ratio - np.exp(-1)) < 0.01

    gauss = apply_dephasing(sq, 1.0, "gaussian")
    j = int(np.argmin(np.abs(t - 0.5)))
    ratio_g = (gauss.signal[j] - 0.5) / (sq.signal[j] - 0.5)
    assert abs(ratio_g - np.exp(-0.25)) < 0.01


def test_dephasing_keeps_beat_frequency():
    tau = np.linspace(0, 20.0, 2048)
    trace = simulate_zq_ramsey(SYS, F40, 0.035, 0.0, tau, rabi_amplitude=14.3)
    f0 = spectrum_peaks(trace).frequency[0]
    bin_width = 1.0 / 20.0
    for t2 in (20.0, 5.0):
        f = spectrum_peaks(apply_dephasing(trace, t2, "exponential")).frequency[0]
        assert abs(f - f0) <= bin_width


def test_dephasing_linewidth():
    # record a few T2* long so the window does not limit the width
    tau = np.linspace(0, 60.0, 4096)
    trace = simulate_zq_ramsey(SYS, F40, 0.035, 0.0, tau, rabi_amplitude=14.3)
    damped = apply_dephasing(trace, 20.0, "exponential")
    sig = damped.signal - damped.signal.mean()
    mag = np.abs(np.fft.rfft(sig * np.hanning(len(sig))))
    freqs = np.fft.rfftfreq(len(sig), tau[1] - tau[0])
    i0 = int(np.argmax(mag))
    half = mag[i0] / 2.0
    li = i0
    while mag[li] > half:
        li -= 1
    ri = i0
    while mag[ri] > half:
        ri += 1
    fl = freqs[li] + (freqs[li + 1] - freqs[li]) * (half - mag[li]) / (mag[li + 1] - mag[li])
    fr = freqs[ri - 1] + (freqs[ri] - freqs[ri - 1]) * (half - mag[ri - 1]) / (
        mag[ri] - mag[ri - 1]
    )
    print("dephased linewidth: %.4f MHz" % (fr - fl))
    assert fr - fl < 0.1


def test_simulated_signal_bounded():
    tau = np.linspace(0, 10.0, 512)
    for kwargs in (dict(ideal_pulses=True), dict(rabi_amplitude=14.3)):
        trace = simulate_zq_ramsey(SYS, F40, 0.035, 0.0, tau, **kwargs)
        assert np.all(trace.signal >= -1e-9) and np.all(trace.signal <= 1 + 1e-9)
