"""Randomized invariants, all seeded, quick enough to run on every push."""

import dataclasses

import numpy as np

from nvbeat.analytic import bright_dark
from nvbeat.dynamics import PulseParams, propagate, rotating_frame_h, simulate_rabi, simulate_zq_ramsey
from nvbeat.estimation import _amplitude_ratios, sensitivity_c, synthesize_dataset
from nvbeat.spin_core import (
    MANIFOLD_LABELS,
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    build_hamiltonian,
    eigensystem,
    eigensystems,
    main_four_lines,
)

REF = HyperfineTensor(166.9, 122.9, 90.0, -90.3)
SYS = SystemParams(tensor=REF)


def random_case(rng):
    tensor = HyperfineTensor(*(float(x) for x in rng.uniform(-200, 200, size=4)))
    field = FieldOrientation(
        float(rng.uniform(1, 60)), float(rng.uniform(0, 180)), float(rng.uniform(0, 360))
    )
    return SystemParams(tensor=tensor), field


def test_hamiltonian_hermitian_and_trace():
    rng = np.random.default_rng(21)
    for _ in range(300):
        params, field = random_case(rng)
        h = build_hamiltonian(params, field)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert abs(np.trace(h).real - 4.0 * params.d) < 1e-9 * params.d


def test_spectrum_mirror_symmetry():
    rng = np.random.default_rng(22)
    for _ in range(50):
        params, field = random_case(rng)
        plus = np.linalg.eigvalsh(build_hamiltonian(params, field))
        minus = np.linalg.eigvalsh(
            build_hamiltonian(params, FieldOrientation(field.b, field.theta, -field.phi))
        )
        assert np.max(np.abs(plus - minus)) < 1e-9


def test_lambda_ratio_is_even_in_phi():
    # H(theta, -phi) = conj H(theta, phi), so every Lambda amplitude is even
    # in phi; the STA search solves only the phi >= 0 half of its grid
    rng = np.random.default_rng(24)
    ref = np.array([REF.a_xx, REF.a_yy, REF.a_zz, REF.a])
    thetas = np.arange(0.0, 90.0 + 1e-9, 2.0)
    phis = np.arange(-90.0, 90.0 + 1e-9, 2.0)
    finite = 0
    for _ in range(30):
        factors = rng.uniform(0.5, 1.5, 4) * rng.choice([-1.0, 1.0], 4)
        params = SystemParams(tensor=HyperfineTensor(*(float(x) for x in ref * factors)))
        grid = _amplitude_ratios(params, float(rng.uniform(5.0, 300.0)), thetas[:, None], phis)
        mirror = grid[:, ::-1]
        assert np.array_equal(np.isinf(grid), np.isinf(mirror))
        ok = np.isfinite(grid)
        finite += int(ok.sum())
        assert np.all(np.abs(grid[ok] - mirror[ok]) <= 1e-10)
    assert finite > 0.9 * 30 * grid.size


def test_off_diagonal_sign_gauge():
    # flipping the sign of a is undone by a 180 degree azimuth shift
    rng = np.random.default_rng(23)
    for _ in range(50):
        params, field = random_case(rng)
        flipped = SystemParams(
            d=params.d,
            gamma_e=params.gamma_e,
            gamma_n=params.gamma_n,
            tensor=HyperfineTensor(
                params.tensor.a_xx, params.tensor.a_yy, params.tensor.a_zz,
                -params.tensor.a,
            ),
        )
        e1 = np.linalg.eigvalsh(build_hamiltonian(params, field))
        e2 = np.linalg.eigvalsh(
            build_hamiltonian(
                flipped, FieldOrientation(field.b, field.theta, field.phi + 180.0)
            )
        )
        assert np.max(np.abs(e1 - e2)) < 1e-9


def test_propagation_unitary():
    rng = np.random.default_rng(24)
    for _ in range(20):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (m + m.conj().T) / 2
        psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi0 /= np.linalg.norm(psi0)
        psi = propagate([(h, 0.3), (2 * h, 0.1)], psi0)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_dark_state_survives_any_detuning():
    rng = np.random.default_rng(25)
    for _ in range(10):
        op, om = rng.uniform(0.2, 2.0, size=2)
        dec = bright_dark(float(op), float(om))
        h = rotating_frame_h(float(rng.uniform(-5, 5)), 0.0, float(op), float(om))
        psi = propagate([(h, 1.1)], dec.dark)
        assert abs(abs(np.vdot(dec.dark, psi)) - 1.0) < 1e-9


def test_signals_stay_in_unit_interval():
    rng = np.random.default_rng(26)
    tau = np.linspace(0, 8.0, 160)
    t = np.linspace(0, 0.3, 120)
    # theta below ~80 keeps the ms_minus excited level clean enough for the
    # Lambda carrier; the simulators refuse, by design, beyond that
    for _ in range(5):
        theta = float(rng.uniform(5, 75))
        phi = float(rng.uniform(-90, 90))
        field = FieldOrientation(40.3, theta, phi)
        zq = simulate_zq_ramsey(SYS, field, 0.035, 0.0, tau)
        rb = simulate_rabi(SYS, field, PulseParams(14.3), t)
        for sig in (zq.signal, rb.signal):
            assert np.all(sig >= -1e-9) and np.all(sig <= 1 + 1e-9)


def test_synthesis_bit_identical():
    design = [(40.0, float(p), "zq_frequency") for p in np.linspace(-90, 90, 7)]
    design.append((20.0, 10.0, "sq_frequency"))
    kw = dict(
        noise_sigma={"zq_frequency": 0.3, "sq_frequency": 0.2},
        field_imperfection=(0.8, 120.0, 45.0),
        seed=31,
    )
    a = synthesize_dataset(SYS, b=40.3, design=design, **kw)
    b = synthesize_dataset(SYS, b=40.3, design=design, **kw)
    assert [p.value for p in a.points] == [p.value for p in b.points]
    clean = synthesize_dataset(SYS, b=40.3, design=design, seed=31)
    assert any(p.value != q.value for p, q in zip(a.points, clean.points))


def test_eigensystem_reproducible():
    rng = np.random.default_rng(27)
    for _ in range(10):
        params, field = random_case(rng)
        h = build_hamiltonian(params, field)
        e1 = eigensystem(h)
        e2 = eigensystem(h)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)
        assert e1.manifold == e2.manifold


def test_batched_labels_match_scalar():
    rng = np.random.default_rng(28)
    h = np.stack([build_hamiltonian(*random_case(rng)) for _ in range(200)])
    values, vectors, labels, reason, order, over = eigensystems(h)
    assert not reason.any()
    for k in range(len(h)):
        eig = eigensystem(h[k])
        assert np.array_equal(eig.labels, labels[k])
        assert np.array_equal(eig._order, order[k])
        assert eig._purity == over[k, order[k, 4:], 2].tolist()
        assert eig.manifold == tuple(MANIFOLD_LABELS[j] for j in labels[k])
        assert np.allclose(eig.values, values[k], rtol=0, atol=1e-9)
        assert np.allclose(eig.vectors, vectors[k], rtol=0, atol=1e-12)


def _main_lines(params, field, which, delta):
    """The four main line frequencies with one tensor component shifted by delta."""
    tensor = dataclasses.replace(
        params.tensor, **{which: getattr(params.tensor, which) + delta}
    )
    eig = eigensystem(build_hamiltonian(dataclasses.replace(params, tensor=tensor), field))
    return np.array([ln.frequency for ln in main_four_lines(eig)])


def test_sensitivity_matches_central_differences():
    # the exact slopes against central differences of the scalar main lines
    # with step 1e-3 MHz, which agree to 1e-8 on these cases; at 1200 G the
    # ms-1 states lie below ms0 and a line is E(ms0) - E(ms-1)
    rng = np.random.default_rng(29)
    cases = [random_case(rng) for _ in range(60)]
    cases.append((SYS, FieldOrientation(1200.0, 2.0, 30.0)))
    h = 1e-3
    for params, field in cases:
        for which in ("a_xx", "a_yy", "a_zz", "a"):
            fd = (_main_lines(params, field, which, h)
                  - _main_lines(params, field, which, -h)) / (2 * h)
            slopes = sensitivity_c(params, field, which).slopes
            assert np.abs(np.array(slopes) - fd).max() < 1e-7, which
