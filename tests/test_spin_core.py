"""Hamiltonian construction, labeling, and transition bookkeeping."""

import math

import numpy as np
import pytest

from nvbeat.spin_core import (
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    _fix_phases,
    build_hamiltonian,
    eigensystem,
    ground_zeeman_states,
    hamiltonians,
    label_manifolds,
    lambda_excited_index,
    lambda_transition_amplitudes,
    main_four_lines,
    nuclear_eigenstates_excited,
    spin_matrices,
    unit_vectors,
    zero_quantum_splitting_exact,
)

REF = HyperfineTensor(a_xx=166.9, a_yy=122.9, a_zz=90.0, a=-90.3)
SYS = SystemParams(tensor=REF)
STA_THETA = 5.008965663741781


def random_system(rng):
    t = HyperfineTensor(
        a_xx=float(rng.uniform(-200, 200)),
        a_yy=float(rng.uniform(-200, 200)),
        a_zz=float(rng.uniform(-200, 200)),
        a=float(rng.uniform(-150, 150)),
    )
    f = FieldOrientation(
        b=float(rng.uniform(0, 80)),
        theta=float(rng.uniform(0, 180)),
        phi=float(rng.uniform(-180, 180)),
    )
    return SystemParams(tensor=t), f


def test_spin_matrices_algebra():
    ops = spin_matrices(1.0)
    comm = ops.sx @ ops.sy - ops.sy @ ops.sx
    assert np.allclose(comm, 1j * ops.sz, atol=1e-12)
    ops2 = spin_matrices(0.5)
    assert np.allclose(ops2.sx @ ops2.sx, 0.25 * np.eye(2), atol=1e-12)


def test_hermiticity_random():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        p, f = random_system(rng)
        h = build_hamiltonian(p, f)
        worst = max(worst, np.max(np.abs(h - h.conj().T)))
    assert worst < 1e-12


def test_trace_identity():
    # Sz^2 has trace 2 over the electron triplet, times 2 nuclear states;
    # every other term is traceless
    rng = np.random.default_rng(1)
    for _ in range(50):
        p, f = random_system(rng)
        h = build_hamiltonian(p, f)
        assert abs(np.trace(h).real - 4.0 * p.d) < 1e-9


def test_phi_wraparound():
    f1 = FieldOrientation(40.3, 40.0, 25.0)
    f2 = FieldOrientation(40.3, 40.0, 385.0)
    assert np.allclose(build_hamiltonian(SYS, f1), build_hamiltonian(SYS, f2), atol=1e-12)


def test_mirror_symmetry_spectrum():
    rng = np.random.default_rng(2)
    for _ in range(25):
        p, f = random_system(rng)
        w1 = np.linalg.eigvalsh(build_hamiltonian(p, f))
        f_m = FieldOrientation(f.b, f.theta, -f.phi)
        w2 = np.linalg.eigvalsh(build_hamiltonian(p, f_m))
        assert np.allclose(w1, w2, atol=1e-9)


def test_zero_tensor_zero_field_levels():
    p = SystemParams(tensor=HyperfineTensor(0, 0, 0, 0))
    w = np.linalg.eigvalsh(build_hamiltonian(p, FieldOrientation(0.0, 0.0, 0.0)))
    assert np.allclose(sorted(w), [0, 0, p.d, p.d, p.d, p.d], atol=1e-9)


def test_zero_tensor_axial_field_lines():
    p = SystemParams(tensor=HyperfineTensor(0, 0, 0, 0))
    f = FieldOrientation(30.0, 0.0, 0.0)
    eig = eigensystem(build_hamiltonian(p, f))
    lines = sorted(main_four_lines(eig), key=lambda l: l.amplitude)
    lo = p.d - p.gamma_e * f.b
    # nuclear spin decoupled: the bright pair is degenerate at D - gamma_e*B,
    # the nuclear-flip cross lines sit at +-gamma_n*B with zero weight
    for l in lines[2:]:
        assert abs(l.frequency - lo) < 1e-6
        assert abs(l.amplitude - 0.5) < 1e-9
    for l in lines[:2]:
        assert l.amplitude < 1e-9
        assert abs(abs(l.frequency - lo) - p.gamma_n * f.b) < 1e-6


def test_theta0_splitting_bound():
    # exact at theta=0 for a zero tensor, second-order correction otherwise
    p0 = SystemParams(tensor=HyperfineTensor(0, 0, 0, 0))
    f = FieldOrientation(40.3, 0.0, 0.0)
    d0 = zero_quantum_splitting_exact(eigensystem(build_hamiltonian(p0, f)))
    assert d0 <= 2 * p0.gamma_n * f.b + 1e-9

    d1 = zero_quantum_splitting_exact(eigensystem(build_hamiltonian(SYS, f)))
    bound = 2 * SYS.gamma_n * f.b + 3 * (
        abs(REF.a_xx * REF.a_yy) + REF.a ** 2
    ) * SYS.gamma_e * f.b / SYS.d ** 2
    assert d1 <= bound


def test_zq_exact_reference_points():
    f0 = FieldOrientation(0.0, 0.0, 0.0)
    assert zero_quantum_splitting_exact(eigensystem(build_hamiltonian(SYS, f0))) < 1e-6

    fx = FieldOrientation(40.3, 40.0, 0.0)
    dx = zero_quantum_splitting_exact(eigensystem(build_hamiltonian(SYS, fx)))
    assert abs(dx - 9.593790913) < 1e-6

    fy = FieldOrientation(40.3, 40.0, 90.0)
    dy = zero_quantum_splitting_exact(eigensystem(build_hamiltonian(SYS, fy)))
    assert abs(dy - 6.237610666) < 1e-6


def test_four_lines_pair_splitting():
    f = FieldOrientation(40.3, 40.0, 90.0)
    eig = eigensystem(build_hamiltonian(SYS, f))
    freqs = sorted(l.frequency for l in main_four_lines(eig))
    delta = zero_quantum_splitting_exact(eig)
    # two pairs, each split by the ground-state splitting
    assert abs((freqs[1] - freqs[0]) - delta) < 1e-9
    assert abs((freqs[3] - freqs[2]) - delta) < 1e-9
    assert freqs[2] - freqs[1] > 50.0


def test_nuclear_excited_states():
    theta_p, ap, am = nuclear_eigenstates_excited(HyperfineTensor(1, 1, 5, 0))
    assert abs(theta_p) < 1e-12
    assert abs(abs(ap[0]) - 1.0) < 1e-12

    theta_r, ap, am = nuclear_eigenstates_excited(REF)
    assert abs(theta_r - math.degrees(math.atan2(-90.3, 90.0))) < 1e-9
    assert abs(np.vdot(ap, am)) < 1e-12

    with pytest.raises(ValueError):
        nuclear_eigenstates_excited(HyperfineTensor(1, 1, 0, 0))


def test_ground_zeeman_states():
    bp, bm = ground_zeeman_states(FieldOrientation(10.0, 0.0, 0.0))
    assert abs(abs(bp[0]) - 1.0) < 1e-12 and abs(abs(bm[1]) - 1.0) < 1e-12

    bp, bm = ground_zeeman_states(FieldOrientation(10.0, 90.0, 0.0))
    assert np.allclose(np.abs(bp), [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert abs(np.vdot(bp, bm)) < 1e-12

    with pytest.raises(ValueError):
        ground_zeeman_states(FieldOrientation(0.0, 10.0, 0.0))


def test_lambda_amplitudes():
    # a=0 and field along z conserve the nuclear state, so one branch closes
    p = SystemParams(tensor=HyperfineTensor(100.0, 80.0, 60.0, 0.0))
    f = FieldOrientation(40.3, 0.0, 0.0)
    eig = eigensystem(build_hamiltonian(p, f))
    op, om = lambda_transition_amplitudes(eig, p.tensor, f)
    assert min(op, om) < 1e-10 * max(op, om) + 1e-10

    f2 = FieldOrientation(40.3, 40.0, 90.0)
    eig2 = eigensystem(build_hamiltonian(SYS, f2))
    op2, om2 = lambda_transition_amplitudes(eig2, REF, f2)
    assert op2 > 0.01 and om2 > 0.01


def test_lambda_amplitudes_at_single_transition_axis():
    f = FieldOrientation(40.3, STA_THETA, 0.0)
    eig = eigensystem(build_hamiltonian(SYS, f))
    op, om = lambda_transition_amplitudes(eig, REF, f)
    assert min(op, om) / max(op, om) < 0.03

    amps = sorted(l.amplitude for l in main_four_lines(eig))
    assert amps[0] < 1e-3 * amps[-1]


def test_labeling_at_theta90():
    # linear Zeeman vanishes between ms_plus and ms_minus at theta=90;
    # labeling must still resolve the ms0 doublet without raising
    f = FieldOrientation(40.3, 90.0, 0.0)
    eig = eigensystem(build_hamiltonian(SYS, f))
    assert eig.manifold.count("ms0") == 2
    assert zero_quantum_splitting_exact(eig) > 0


def test_eigensystem_reproducible():
    f = FieldOrientation(40.3, 40.0, 90.0)
    e1 = eigensystem(build_hamiltonian(SYS, f))
    e2 = eigensystem(build_hamiltonian(SYS, f))
    assert np.array_equal(e1.vectors, e2.vectors)
    assert e1.manifold == e2.manifold


def test_field_orientation_rejects_non_finite():
    for b in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="field magnitude"):
            FieldOrientation(b, 40.0, 0.0)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phi must be finite"):
            FieldOrientation(40.3, 40.0, phi)
    for theta in (math.nan, math.inf, -1.0, 180.5):
        with pytest.raises(ValueError, match="theta out of range"):
            FieldOrientation(40.3, theta, 0.0)


def test_stacked_hamiltonians_match_scalar_builder():
    rng = np.random.default_rng(5)
    params, _ = random_system(rng)
    theta = rng.uniform(0, 180, 20)
    phi = rng.uniform(-360, 360, 20)
    phi[0] = -3.2751579226442118e-15  # wraps to exactly 360
    b = 37.5
    stack = hamiltonians(params, b * unit_vectors(theta, np.mod(phi, 360.0)))
    assert stack.shape == (20, 6, 6)
    for k in range(20):
        f = FieldOrientation(b, float(theta[k]), float(phi[k]))
        assert np.array_equal(stack[k], build_hamiltonian(params, f))


def test_fix_phases_matches_column_loop():
    rng = np.random.default_rng(6)
    vecs = np.linalg.eigh(
        np.stack([build_hamiltonian(*random_system(rng)) for _ in range(30)])
    )[1]
    vecs[0, :, 3] = 0.0  # an empty column keeps its (zero) phase
    want = vecs.copy()
    for m in range(len(want)):
        for k in range(6):
            piv = want[m, int(np.argmax(np.abs(want[m, :, k]))), k]
            if np.abs(piv) > 0:
                want[m, :, k] *= np.conj(piv) / np.abs(piv)
    assert np.array_equal(_fix_phases(vecs), want)
    assert np.array_equal(_fix_phases(vecs[7]), want[7])


def _walk(over):
    """Reference labelling walk, one state at a time (see eigensystem)."""
    labels, counts = [], [0, 0, 0]
    for o in over:
        if o[1] >= 0.6:
            choice = 1
        elif o[1] <= 0.4:
            avail = [j for j in (0, 2) if counts[j] < 2]
            if not avail:
                break
            choice = max(avail, key=lambda j: o[j])
        else:
            break
        if counts[choice] >= 2:
            break
        counts[choice] += 1
        labels.append(choice)
    return labels + [-1] * (6 - len(labels)), len(labels) == 6


def test_label_manifolds_follows_the_walk():
    rng = np.random.default_rng(8)
    # ms0 weights on and around the 0.4/0.6 thresholds, ties between the
    # ms_plus and ms_minus shares
    zero = rng.choice([0.0, 0.1, 0.4, 0.5, 0.6, 0.95, 1.0], size=(20000, 6),
                      p=[0.3, 0.2, 0.05, 0.05, 0.05, 0.25, 0.1])
    split = rng.choice([0.0, 0.3, 0.5, 0.7, 1.0], size=(20000, 6))
    over = np.stack([(1 - zero) * split, zero, (1 - zero) * (1 - split)], axis=-1)
    labels, ok = label_manifolds(over)
    want = [_walk(o) for o in over]
    assert np.array_equal(labels, [w[0] for w in want])
    assert np.array_equal(ok, [w[1] for w in want])
    assert 0.1 < ok.mean() < 0.9


def test_scalar_errors_keep_their_messages():
    h = build_hamiltonian(SYS, FieldOrientation(40.3, 40.0, 90.0))
    skew = h.copy()
    skew[0, 1] += 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        eigensystem(skew)
    # the lowest state is half ms_plus, half ms0
    u = np.eye(6)
    u[0, 0] = u[0, 2] = u[2, 2] = math.sqrt(0.5)
    u[2, 0] = -math.sqrt(0.5)
    with pytest.raises(ValueError, match="ambiguous for state 0"):
        eigensystem(u @ np.diag(np.arange(6.0)) @ u.T)
    f = FieldOrientation(40.3, 90.0, 90.0)
    with pytest.raises(ValueError, match="not a clean ms_minus state"):
        lambda_excited_index(eigensystem(build_hamiltonian(SYS, f)), REF)
    flat = HyperfineTensor(150.0, 120.0, 0.0, 0.0)
    f = FieldOrientation(40.3, 40.0, 90.0)
    eig = eigensystem(build_hamiltonian(SystemParams(tensor=flat), f))
    with pytest.raises(ValueError, match="quantization axis undefined"):
        lambda_transition_amplitudes(eig, flat, f)
