"""Closed-form observables against the exact 6x6 oracle."""

import re
import warnings

import numpy as np
import pytest

from nvbeat.analytic import (
    RamseyModelParams,
    bright_dark,
    delta_perturbative,
    delta_second_order_sum,
    effective_couplings,
    zq_beat_amplitude,
    zq_ramsey_lambda,
    zq_ramsey_v,
)
from nvbeat.spin_core import (
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    build_hamiltonian,
    eigensystem,
    zero_quantum_splitting_exact,
)

REF = HyperfineTensor(166.9, 122.9, 90.0, -90.3)
SYS = SystemParams(tensor=REF)


def exact_delta(params, field):
    return zero_quantum_splitting_exact(eigensystem(build_hamiltonian(params, field)))


def test_delta_closed_form_basics():
    assert delta_perturbative(SYS, FieldOrientation(40.3, 0.0, 0.0)) == 0.0

    # a=0 reduces to the plain transverse-component form
    p = SystemParams(tensor=HyperfineTensor(150.0, 110.0, 70.0, 0.0))
    f = FieldOrientation(30.0, 50.0, 35.0)
    pref = 2 * p.gamma_e * f.b * np.sin(np.radians(f.theta)) / p.d
    want = pref * np.sqrt(
        150.0**2 * np.cos(np.radians(f.phi)) ** 2
        + 110.0**2 * np.sin(np.radians(f.phi)) ** 2
    )
    assert abs(delta_perturbative(p, f) - want) < 1e-12


def test_delta_closed_form_reference_value():
    got = delta_perturbative(SYS, FieldOrientation(40.3, 40.0, 0.0))
    assert abs(got - 9.600105699) < 1e-6
    # cross check against exact diagonalization
    assert abs(got - exact_delta(SYS, FieldOrientation(40.3, 40.0, 0.0))) / got < 0.05


def test_delta_phi_symmetry():
    f0 = FieldOrientation(40.3, 40.0, 0.0)
    for phi in (-60.0, -15.0, 20.0, 75.0):
        a = delta_perturbative(SYS, FieldOrientation(40.3, 40.0, phi))
        b = delta_perturbative(SYS, FieldOrientation(40.3, 40.0, phi + 180.0))
        c = delta_perturbative(SYS, FieldOrientation(40.3, 40.0, -phi))
        assert abs(a - b) < 1e-12 and abs(a - c) < 1e-12
    assert delta_perturbative(SYS, f0) > 0


def _envelope_worst(scale_diag, scale_a, seed=5, n_draws=200):
    # Closed form truncates at second order in A/D and drops the bare
    # nuclear Zeeman term, so |error| <= C*(|A|^3/D^2 + gamma_n*B).
    rng = np.random.default_rng(seed)
    worst = 0.0
    rels = []
    n = 0
    while n < n_draws:
        t = HyperfineTensor(
            *(float(x) for x in rng.uniform(-scale_diag, scale_diag, size=3)),
            float(rng.uniform(-scale_a, scale_a)),
        )
        if t.a_yy < 0:
            continue
        p = SystemParams(tensor=t)
        f = FieldOrientation(
            float(rng.uniform(5, 50)),
            float(rng.uniform(5, 90)),
            float(rng.uniform(-90, 90)),
        )
        n += 1
        exact = exact_delta(p, f)
        err = abs(delta_perturbative(p, f) - exact)
        norm = np.sqrt(t.a_xx ** 2 + t.a_yy ** 2 + t.a_zz ** 2 + 2 * t.a ** 2)
        envelope = norm ** 3 / p.d ** 2 + p.gamma_n * f.b
        worst = max(worst, err / envelope)
        rels.append(err / max(exact, 1e-9))
    return worst, float(np.median(rels))


def test_closed_form_error_envelope():
    # zero tensor exposes the floor: closed form gives 0, exact gives gamma_n*B
    zero = SystemParams(tensor=HyperfineTensor(0.0, 0.0, 0.0, 0.0))
    f = FieldOrientation(40.0, 30.0, 0.0)
    assert delta_perturbative(zero, f) == 0.0
    assert abs(exact_delta(zero, f) - zero.gamma_n * 40.0) < 1e-9

    worst_full, median_full = _envelope_worst(180.0, 120.0)
    worst_small, _ = _envelope_worst(18.0, 12.0)
    print(
        "envelope ratio full %.3f small %.3f, median rel %.4f"
        % (worst_full, worst_small, median_full)
    )
    assert worst_full < 6.0
    assert worst_small < 6.0
    # relative accuracy is a few percent for typical draws; near-degenerate
    # geometries where the exact splitting collapses dominate the tail
    assert median_full < 0.04


def test_second_order_sum_zero_tensor():
    # graded sum keeps the bare nuclear Zeeman term the closed form drops
    p = SystemParams(tensor=HyperfineTensor(0, 0, 0, 0))
    got = delta_second_order_sum(p, FieldOrientation(40.0, 60.0, 30.0))
    assert abs(got - p.gamma_n * 40.0) < 1e-9


def test_second_order_sum_warns_above_its_regime():
    # gamma_e B = 308.3 MHz at 110 G passes D/10 = 287 MHz; 280.3 MHz at 100 G does not
    with pytest.warns(UserWarning, match=re.escape(
            "gamma_e*B exceeds D/10; second-order treatment is unreliable")):
        got = delta_second_order_sum(SYS, FieldOrientation(110.0, 40.0, 90.0))
    assert abs(got - 17.2042) < 5e-5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta_second_order_sum(SYS, FieldOrientation(100.0, 40.0, 90.0))


def test_second_order_sum_vs_closed_form():
    # wide-tensor sweep, theta=90 phi=0 channel
    worst = {0.0: 0.0, 50.0: 0.0, 100.0: 0.0}
    for a in worst:
        t = HyperfineTensor(200.0, 120.0, 130.0, a)
        p = SystemParams(tensor=t)
        for b in np.arange(5.0, 51.0, 5.0):
            f = FieldOrientation(float(b), 90.0, 0.0)
            s = delta_second_order_sum(p, f)
            c = delta_perturbative(p, f)
            worst[a] = max(worst[a], abs(s - c) / c)
    print("sum vs closed form worst: %s" % worst)
    assert worst[0.0] < 0.015
    assert worst[50.0] < 0.02 and worst[100.0] < 0.02


def test_effective_couplings():
    c = effective_couplings(HyperfineTensor(7.0, 1.0, 3.0, 4.0))
    assert abs(c["a_zz_eff"] - 5.0) < 1e-12
    assert abs(c["a_xx_eff"] - np.hypot(7.0, 4.0)) < 1e-12
    assert abs(c["theta_prime_deg"] - np.degrees(np.arctan2(4.0, 3.0))) < 1e-12
    assert abs(c["theta_double_prime_deg"] - 2 * np.degrees(np.arctan2(-4.0, 7.0))) < 1e-12

    c = effective_couplings(HyperfineTensor(5.0, 2.0, 3.0, 0.0))
    assert c["a_zz_eff"] == 3.0 and c["a_xx_eff"] == 5.0
    assert c["theta_prime_deg"] == 0.0 and c["theta_double_prime_deg"] == 0.0

    c = effective_couplings(REF)
    assert abs(c["a_zz_eff"] - 127.4915) < 0.01
    assert abs(c["a_xx_eff"] - 189.7622) < 0.01
    assert abs(c["theta_prime_deg"] + 45.0953) < 0.01
    assert abs(c["theta_double_prime_deg"] - 56.8305) < 0.01


def test_bright_dark_structure():
    d = bright_dark(1.0, 0.0)
    assert abs(abs(d.bright[0]) - 1.0) < 1e-12
    assert abs(d.mixing_angle) < 1e-12

    d = bright_dark(1.0, 1.0)
    assert np.allclose(np.abs(d.bright), [1 / np.sqrt(2), 0, 1 / np.sqrt(2)], atol=1e-12)
    assert abs(np.degrees(d.mixing_angle) - 45.0) < 1e-9

    rng = np.random.default_rng(6)
    for _ in range(20):
        op, om = rng.uniform(0.05, 2.0, size=2)
        d = bright_dark(float(op), float(om))
        assert abs(np.vdot(d.bright, d.dark)) < 1e-12
        assert abs(d.bright[1]) < 1e-12 and abs(d.dark[1]) < 1e-12
        assert abs(d.coupling - np.hypot(op, om)) < 1e-12

    with pytest.raises(ValueError, match="^at least one drive amplitude must be nonzero$"):
        bright_dark(0.0, 0.0)


def test_v_type_signal():
    tau = np.linspace(0, 3, 301)
    flat = zq_ramsey_v(RamseyModelParams(1.0, 0.0, 6.0), tau)
    assert np.allclose(flat, 1.0, atol=1e-12)

    sym = zq_ramsey_v(RamseyModelParams(0.7, 0.7, 6.0), tau)
    assert np.allclose(sym, 0.5 + 0.5 * np.cos(2 * np.pi * 6.0 * tau), atol=1e-12)

    rng = np.random.default_rng(7)
    for _ in range(10):
        op, om = rng.uniform(0.05, 2.0, size=2)
        sig = zq_ramsey_v(RamseyModelParams(float(op), float(om), 6.0), tau)
        assert sig[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(sig >= -1e-12) and np.all(sig <= 1 + 1e-12)


def test_lambda_type_signal():
    # sample at the exact extremum delays, tau=0 and tau=1/(2*delta)
    tau = np.array([0.0, 1.0 / 12.0])
    sym1 = zq_ramsey_lambda(RamseyModelParams(1.0, 1.0, 6.0), tau)
    assert abs((sym1[0] - sym1[1]) / 2 - 0.25) < 1e-12

    sym2 = zq_ramsey_lambda(RamseyModelParams(1.0, 1.0, 6.0, n_spins=2), tau)
    assert abs((sym2[0] - sym2[1]) / 2 - 0.125) < 1e-12

    flat = zq_ramsey_lambda(RamseyModelParams(1.0, 0.0, 6.0, n_spins=3), np.linspace(0, 2, 500))
    assert np.allclose(flat, 1.0, atol=1e-12)


def test_lambda_equals_half_plus_half_v():
    tau = np.linspace(0, 4, 700)
    rng = np.random.default_rng(8)
    for _ in range(15):
        op, om = rng.uniform(0.05, 2.0, size=2)
        m = RamseyModelParams(float(op), float(om), 5.3)
        pl = zq_ramsey_lambda(m, tau)
        pv = zq_ramsey_v(m, tau)
        assert np.max(np.abs(pl - (0.5 + 0.5 * pv))) < 1e-12


def test_periodicity():
    delta = 7.7
    m = RamseyModelParams(0.9, 0.4, delta)
    tau = np.linspace(0, 1, 97)
    a = zq_ramsey_v(m, tau)
    b = zq_ramsey_v(m, tau + 1.0 / delta)
    assert np.max(np.abs(a - b)) < 1e-9


def test_beat_amplitude_limits():
    assert zq_beat_amplitude(1.0, 0.0) == 0.0
    assert abs(zq_beat_amplitude(1.0, 1.0) - 0.5) < 1e-12
