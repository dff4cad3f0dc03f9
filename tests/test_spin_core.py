"""Hamiltonian construction, labeling, and transition bookkeeping."""

import collections
import math

import numpy as np
import pytest

from nvbeat import spin_core
from nvbeat.analytic import delta_second_order_sum
from nvbeat.estimation import model_values
from nvbeat.spin_core import (
    DRIVE_SX,
    EIGEN_REASONS,
    LAMBDA_REASONS,
    MANIFOLD_LABELS,
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    TransitionLine,
    _OPS,
    _WALK_LABELS,
    _WALK_ORDER,
    _derivative_operators,
    _fix_phases,
    _hermitian,
    build_hamiltonian,
    eigensystem,
    eigensystems,
    hamiltonians,
    label_manifolds,
    lambda_excited_index,
    lambda_legs,
    lambda_overlaps,
    lambda_rule,
    lambda_system,
    lambda_transition_amplitudes,
    line_drives,
    main_four_lines,
    manifold_overlaps,
    single_quantum_transitions,
    unit_vectors,
    wrap_azimuth,
    zeeman_states,
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
    # the operators the Hamiltonian is built from: [Sx, Sy] = i Sz for S = 1,
    # Ix^2 = 1/4 for I = 1/2
    sx, sy, sz = spin_core._SX, spin_core._SY, spin_core._SZ
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)
    assert np.allclose(spin_core._IX @ spin_core._IX, 0.25 * np.eye(2), atol=1e-12)


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
    assert f2.phi == 25.0
    assert FieldOrientation(40.3, 10.0, -90.0).phi == 270.0
    # phi % 360 rounds a tiny negative phi up to exactly 360
    assert FieldOrientation(40.3, 10.0, -1e-18).phi == 0.0
    assert FieldOrientation(40.3, 10.0, -3.3e-15).phi == 0.0


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
    # alpha_minus is the unit -r/2 eigenvector of a_zz Iz + a Ix, r = hypot(a_zz, a)
    for a_zz, a in ((5.0, 0.0), (-5.0, 0.0), (0.0, 3.0), (0.0, -3.0), (REF.a_zz, REF.a)):
        am, code = HyperfineTensor(1.0, 1.0, a_zz, a)._alpha_minus
        r = math.hypot(a_zz, a)
        op = 0.5 * np.array([[a_zz, a], [a, -a_zz]])
        assert code == 0 and am.dtype == complex
        np.testing.assert_allclose(op @ am, -0.5 * r * am, rtol=0, atol=1e-12 * r)
        assert abs(np.vdot(am, am) - 1.0) < 1e-12
    # a_zz = a = 0: no quantization axis, the LAMBDA_REASONS code 2
    am, code = HyperfineTensor(1, 1, 0, 0)._alpha_minus
    assert code == 2 and np.isnan(am).all()


def test_ground_zeeman_states():
    bp, bm = zeeman_states(0.0, 0.0)
    assert abs(abs(bp[0]) - 1.0) < 1e-12 and abs(abs(bm[1]) - 1.0) < 1e-12

    bp, bm = zeeman_states(90.0, 0.0)
    assert np.allclose(np.abs(bp), [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert abs(np.vdot(bp, bm)) < 1e-12

    # at b = 0 the field gives no Zeeman axis for the adapted basis to read
    with pytest.raises(ValueError, match=r"^Zeeman axis undefined \(b = 0\)$"):
        delta_second_order_sum(SYS, FieldOrientation(0.0, 10.0, 0.0))

    # theta and phi broadcast: a row of thetas at one phi, or a column of
    # thetas against a row of phis, holds the per-element calls bit for bit
    for theta, phi in ((np.array([10.0, 20.0]), 0.0), (np.array([[10.0], [20.0]]), [0.0, 30.0])):
        got = zeeman_states(theta, phi)
        grid = np.broadcast_arrays(theta, phi)
        assert got[0].shape == got[1].shape == grid[0].shape + (2,)
        for idx in np.ndindex(grid[0].shape):
            want = zeeman_states(float(grid[0][idx]), float(grid[1][idx]))
            assert [g[idx].tobytes() for g in got] == [w.tobytes() for w in want]


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


def test_sq_lines_match_the_state_loop():
    # reference: the loop over ms0 states and the states outside ms0, each
    # ascending, sorted stably by frequency; the batched amplitude squares
    # the same matrix element as an array, the loop as a scalar (libm pow),
    # so the two may differ by one float64 rounding
    rng = np.random.default_rng(12)
    zero = SystemParams()
    cases = [(zero, FieldOrientation(0.0, 0.0, 0.0)), (zero, FieldOrientation(30.0, 0.0, 0.0))]
    cases += [random_system(rng) for _ in range(40)]
    for params, field in cases:
        eig = eigensystem(build_hamiltonian(params, field))
        want = []
        for i in range(6):
            for j in range(6):
                if MANIFOLD_LABELS[eig.labels[i]] == "ms0" != MANIFOLD_LABELS[eig.labels[j]]:
                    amp = np.abs(np.vdot(eig.vectors[:, j], DRIVE_SX @ eig.vectors[:, i])) ** 2
                    want.append((abs(float(eig.values[j] - eig.values[i])), amp, i, j))
        want.sort(key=lambda ln: ln[0])
        got = single_quantum_transitions(eig)
        assert [(ln.frequency, ln.from_state, ln.to_state) for ln in got] == [
            (f, i, j) for f, _, i, j in want
        ]
        np.testing.assert_allclose(
            [ln.amplitude for ln in got], [w[1] for w in want], rtol=2**-51, atol=0
        )


def test_zero_tensor_degenerate_lines_keep_their_order():
    # equal frequencies keep the order of ms0 state, then upper state: every
    # line at zero field, and the bright pairs at an axial field
    d, half = "0x1.66c0000000000p+11", "0x1.0000000000001p-1"
    lo, lo_pair, hi = "0x1.58a083f6b4fd9p+11", "0x1.58a1e56041893p+11", "0x1.58a346c9ce14dp+11"
    axial_main = [(lo, "0x0.0p+0", 1, 2), (lo_pair, half, 0, 2), (lo_pair, half, 1, 3),
                  (hi, "0x0.0p+0", 0, 3)]
    cases = {
        0.0: ([(d, half if i == j % 2 else "0x0.0p+0", i, j) for i in (0, 1) for j in (2, 3, 4, 5)],
              [(d, half, 0, 4), (d, "0x0.0p+0", 0, 5), (d, "0x0.0p+0", 1, 4), (d, half, 1, 5)]),
        40.3: (axial_main + [
            ("0x1.74dcb93631eb3p+11", "0x0.0p+0", 1, 4), ("0x1.74de1a9fbe76dp+11", half, 0, 4),
            ("0x1.74de1a9fbe76dp+11", half, 1, 5), ("0x1.74df7c094b027p+11", "0x0.0p+0", 0, 5),
        ], axial_main),
    }
    assert TransitionLine._fields == ("frequency", "amplitude", "from_state", "to_state")
    for b, (sq, main) in cases.items():
        eig = eigensystem(build_hamiltonian(SystemParams(), FieldOrientation(b, 0.0, 90.0)))
        for lines, want in ((single_quantum_transitions(eig), sq), (main_four_lines(eig), main)):
            assert [(ln.frequency.hex(), ln.amplitude.hex(), ln.from_state, ln.to_state)
                    for ln in lines] == want
            # TransitionLine tuples: the named fields are the items
            assert all(type(ln) is TransitionLine for ln in lines)
            assert [(f.hex(), a.hex(), i, j) for f, a, i, j in lines] == want


def test_labeling_at_theta90():
    # linear Zeeman vanishes between ms_plus and ms_minus at theta=90;
    # labeling must still resolve the ms0 doublet without raising
    f = FieldOrientation(40.3, 90.0, 0.0)
    eig = eigensystem(build_hamiltonian(SYS, f))
    assert [MANIFOLD_LABELS[j] for j in eig.labels].count("ms0") == 2
    assert zero_quantum_splitting_exact(eig) > 0


def test_eigensystem_reproducible():
    f = FieldOrientation(40.3, 40.0, 90.0)
    e1 = eigensystem(build_hamiltonian(SYS, f))
    e2 = eigensystem(build_hamiltonian(SYS, f))
    assert np.array_equal(e1.vectors, e2.vectors)
    assert [MANIFOLD_LABELS[j] for j in e1.labels] == [MANIFOLD_LABELS[j] for j in e2.labels]


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


def test_system_params_reject_non_finite():
    # inf or nan constants once reached eigh, which failed to converge
    for kwargs, message in (
        (dict(d=math.inf), "d must be finite"), (dict(d=math.nan), "d must be finite"),
        (dict(d=0.0), "d must be finite and positive"),
        (dict(gamma_e=math.inf), "gamma_e must be finite"),
        (dict(gamma_e=math.nan), "gamma_e must be finite"),
        (dict(gamma_n=math.nan), "gamma_n out of range"),
        (dict(gamma_n=math.inf), "gamma_n out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            SystemParams(**kwargs)


def test_stacked_hamiltonians_match_scalar_builder():
    rng = np.random.default_rng(5)
    params, _ = random_system(rng)
    theta = rng.uniform(0, 180, 20)
    phi = rng.uniform(-360, 360, 20)
    phi[0] = -3.2751579226442118e-15  # np.mod wraps it to exactly 360
    b = 37.5
    stack = hamiltonians(params, b * unit_vectors(theta, wrap_azimuth(phi)))
    assert stack.shape == (20, 6, 6)
    for k in range(20):
        f = FieldOrientation(b, float(theta[k]), float(phi[k]))
        assert np.array_equal(stack[k], build_hamiltonian(params, f))


def _formula(params, bvec, tensor):
    """H by complex numpy ops in the formula's order: D, the electron and
    nuclear field terms (b_c F_c summed over c, then times gamma), then the
    tensor terms a_k O_k for k = 0 to 3."""
    b = bvec[..., None, None, None]
    zeeman = b[..., 0, :, :, :] * _OPS[[1, 4]]
    zeeman += b[..., 1, :, :, :] * _OPS[[2, 5]]
    zeeman += b[..., 2, :, :, :] * _OPS[[3, 6]]
    zeeman *= np.array([params.gamma_e, params.gamma_n])[:, None, None]
    terms = tensor[..., :, None, None] * [*_OPS[7:10], _OPS[10] + _OPS[11]]
    h = params.d * _OPS[0] + zeeman[..., 0, :, :] + zeeman[..., 1, :, :]
    for k in range(4):
        h = h + terms[..., k, :, :]
    return h


@pytest.mark.parametrize("n", [1, 2, 7, 20, 129, 455, 500])
def test_hamiltonians_equal_the_formula_bit_for_bit(n):
    # signed zeros included: field components of +-0, zero tensor entries,
    # per-row tensors, non-default d and gammas; odd sizes reach the BLAS
    # edge kernels, and 455 is the STA coarse grid's stack. The products are
    # exact only while every table entry is 0 or a power of two
    ops = spin_core._H_OPS[spin_core._H_OPS != 0]
    assert (np.frexp(np.abs(ops))[0] == 0.5).all()
    rng = np.random.default_rng(2000 + n)
    for _ in range(20):
        bvec = rng.normal(0.0, 60.0, (n, 3))
        bvec[rng.random((n, 3)) < 0.2] = 0.0
        bvec[rng.random((n, 3)) < 0.2] = -0.0
        tensor = rng.uniform(-200.0, 200.0, (n, 4))
        tensor[rng.random((n, 4)) < 0.1] = 0.0
        tensor[rng.random((n, 4)) < 0.1] = -0.0
        params = SystemParams(
            d=float(rng.uniform(100.0, 4000.0)), gamma_e=float(rng.uniform(1.0, 4.0)),
            gamma_n=float(rng.uniform(-0.009, 0.009)),
            tensor=HyperfineTensor(*(float(x) for x in tensor[0])),
        )
        for args in ((bvec, tensor), (bvec, tensor[0]), (bvec[0], tensor), (bvec[0], tensor[0])):
            got = hamiltonians(params, *args)
            want = _formula(params, *args)
            assert got.shape == want.shape
            assert _bits(got) == _bits(want)
        assert _bits(hamiltonians(params, bvec)) == _bits(hamiltonians(params, bvec, tensor[0]))


def test_derivative_operators_are_the_formulas_operators():
    # dH/dp read off the builder's coefficient rows: the tensor terms, then
    # G_c = gamma_e S_c + gamma_n I_c; equal in value, a zero's sign aside
    sc = spin_core
    tensor = [np.kron(sc._SX, sc._IX), np.kron(sc._SY, sc._IY), np.kron(sc._SZ, sc._IZ),
              np.kron(sc._SZ, sc._IX) + np.kron(sc._SX, sc._IZ)]
    s = [np.kron(m, np.eye(2)) for m in (sc._SX, sc._SY, sc._SZ)]
    i = [np.kron(np.eye(3), m) for m in (sc._IX, sc._IY, sc._IZ)]
    rng = np.random.default_rng(42)
    gammas = [(SystemParams().gamma_e, SystemParams().gamma_n)]
    gammas += [(float(rng.uniform(0.5, 4.0)), float(rng.uniform(-0.005, 0.005))) for _ in range(50)]
    for gamma_e, gamma_n in gammas:
        want = np.concatenate([*tensor, *(gamma_e * e + gamma_n * n for e, n in zip(s, i))])
        got = _derivative_operators(gamma_e, gamma_n)
        assert got.shape == (42, 6) and np.array_equal(got, want)


def _full_hermitian(h):
    """The Hermitian check over every entry of finite matrices."""
    scale = np.maximum(1.0, np.abs(h).max(axis=(1, 2)))
    with np.errstate(invalid="ignore"):
        skew = np.abs(h - h.transpose(0, 2, 1).conj()).max(axis=(1, 2))
    return np.isfinite(h).all(axis=(1, 2)) & (skew <= 1e-9 * scale)


def test_hermitian_check_reads_the_whole_matrix():
    rng = np.random.default_rng(9)
    h = np.stack([build_hamiltonian(*random_system(rng)) for _ in range(300)])
    # skews around the 1e-9 bound on either side, one side of the diagonal
    # or the diagonal's imaginary part; then nan and inf entries
    for k in range(60, 300):
        i, j = rng.integers(0, 6, 2)
        scale = max(1.0, np.abs(h[k]).max())
        h[k, i, j] += 1e-9 * scale * rng.choice([0.4, 0.5, 1.0, 2.0]) * rng.choice([1, 1j])
    for k, bad in zip(range(240, 300), [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)] * 15):
        h[k, rng.integers(0, 6), rng.integers(0, 6)] = bad
    with np.errstate(invalid="ignore"):  # inf - inf
        got = _hermitian(h)
        assert np.array_equal(_hermitian(h[:, :3, :3]), _full_hermitian(h[:, :3, :3]))
    assert np.array_equal(got, _full_hermitian(h))
    assert got[:60].all() and not got[240:].any() and 0 < got[60:240].sum() < 180


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
    """Reference labelling walk, one state at a time (see eigensystem).

    Returns (labels, reason): the EIGEN_REASONS code is 2 where the walk
    stops at an ambiguous state, 3 where the state's manifold is full.
    """
    labels, counts = [], [0, 0, 0]
    reason = 0
    for o in over:
        if o[1] >= 0.6:
            choice = 1
        elif o[1] <= 0.4:
            avail = [j for j in (0, 2) if counts[j] < 2]
            if not avail:
                reason = 3
                break
            choice = max(avail, key=lambda j: o[j])
        else:
            reason = 2
            break
        if counts[choice] >= 2:
            reason = 3
            break
        counts[choice] += 1
        labels.append(choice)
    return labels + [-1] * (6 - len(labels)), reason


def test_label_manifolds_follows_the_walk():
    rng = np.random.default_rng(8)
    # ms0 weights on and around the 0.4/0.6 thresholds, ties between the
    # ms_plus and ms_minus shares
    zero = rng.choice([0.0, 0.1, 0.4, 0.5, 0.6, 0.95, 1.0], size=(20000, 6),
                      p=[0.3, 0.2, 0.05, 0.05, 0.05, 0.25, 0.1])
    split = rng.choice([0.0, 0.3, 0.5, 0.7, 1.0], size=(20000, 6))
    over = np.stack([(1 - zero) * split, zero, (1 - zero) * (1 - split)], axis=-1)
    labels, reason, order = label_manifolds(over)
    want = [_walk(o) for o in over]
    assert np.array_equal(labels, [w[0] for w in want])
    assert np.array_equal(reason, [w[1] for w in want])
    assert np.array_equal(order, labels.argsort(axis=-1, kind="stable"))
    assert 0.1 < (reason == 0).mean() < 0.9
    assert set(reason) == {0, 2, 3}


def test_walk_order_is_the_label_order_of_every_key():
    # on all 4**6 keys of the walk table, the order eigensystems reads with the
    # labels lists every state once: the unlabelled (-1) ones, then the
    # ms_plus, ms0 and ms_minus states, each group by ascending index
    assert _WALK_ORDER.shape == _WALK_LABELS.shape == (4**6, 6)
    assert (np.sort(_WALK_ORDER, axis=1) == np.arange(6)).all()
    labels = np.take_along_axis(_WALK_LABELS.astype(int), _WALK_ORDER, axis=1)
    assert (np.diff(6 * labels + _WALK_ORDER, axis=1) > 0).all()  # (label, index) ascending


def _labelling_sweep():
    """A seeded sweep of Hamiltonians: four tensors (the reference, zero, a
    flat one and a weak one) over theta 0..180 by 5, phi -90..90 by 15 and
    four fields (5, 40.3, 500 and 1098 G, near the ms0/ms-1 crossing),
    then 400 random systems."""
    theta, phi = np.meshgrid(np.arange(0.0, 181.0, 5.0), np.arange(-90.0, 91.0, 15.0))
    bvec = unit_vectors(theta.ravel(), wrap_azimuth(phi.ravel()))
    tensors = [REF, HyperfineTensor(0.0, 0.0, 0.0, 0.0), HyperfineTensor(150.0, 120.0, 0.0, 0.0),
               HyperfineTensor(13.0, 9.0, 2.0, -1.5)]
    stack = [hamiltonians(SystemParams(tensor=t), b * bvec) for t in tensors
             for b in (5.0, 40.3, 500.0, 1098.0)]
    rng = np.random.default_rng(31)
    stack.append([build_hamiltonian(*random_system(rng)) for _ in range(400)])
    return np.concatenate(stack)


def test_labelling_pass_keeps_labels_reasons_and_order():
    # labels, reason codes and order of eigensystems, from the walk table,
    # against the walk one state at a time over the overlaps of eigh's own
    # vectors, before their phases are fixed, and a stable argsort of the labels
    h = _labelling_sweep()
    values, vectors, labels, reason, order, over = eigensystems(h)
    raw = manifold_overlaps(np.linalg.eigh(h)[1])
    assert _bits(over) == _bits(raw)
    want = [_walk(o) for o in raw.tolist()]
    assert np.array_equal(labels, [w[0] for w in want])
    assert np.array_equal(reason, [w[1] for w in want])
    assert np.array_equal(order, np.argsort(labels, axis=1, kind="stable"))
    assert set(reason) == {0, 2} and (reason == 0).mean() > 0.9


def test_kept_weight_is_the_lambda_purity_bit_for_bit():
    # the ms_minus weight the labelling pass keeps, at the ms_minus pair,
    # is the purity computed from that pair's rows of eigh's own vectors:
    # on a seeded stack and on the turned diag(0..5) cases of the Lambda
    # reasons (both ms_minus states half alpha_minus; 0.587 pure)
    rng = np.random.default_rng(32)
    stack = [build_hamiltonian(*random_system(rng)) for _ in range(300)]
    for u in (turn(4, 5, 44.5), turn(4, 5, 44.5) @ turn(0, 4, 50.0) @ turn(1, 5, 50.0)):
        stack.append(u @ np.diag(np.arange(6.0)) @ u.T)
    values, vectors, labels, reason, order, over = eigensystems(np.stack(stack))
    n = np.arange(len(stack))[:, None]
    raw = np.linalg.eigh(np.stack(stack))[1]
    pops = np.abs(raw.mT[n, order[:, 4:], 4:]) ** 2  # the ms_minus pair's ms_minus rows
    want = pops[..., 0] + pops[..., 1]
    assert _bits(over[n, order[:, 4:], 2]) == _bits(want)
    assert not reason[-2:].any() and want[-1].max() < 0.6 <= want[-2].min()
    for k in np.flatnonzero(reason == 0):
        assert eigensystem(stack[k])._purity == want[k].tolist()


def test_fit_and_scalar_layer_label_the_theta_90_ties_alike():
    # the fit labels eigh's own vectors; so does the labelling pass, before it
    # fixes their phases. Six measured ties at theta = 90 where labels read
    # off the phase-fixed vectors differed from the fit's
    zero, flat = HyperfineTensor(0.0, 0.0, 0.0, 0.0), HyperfineTensor(150.0, 120.0, 0.0, 0.0)
    cases = [(zero, 500.0, 75.0), (zero, 1098.0, -35.0), (zero, 1098.0, -20.0),
             (zero, 1098.0, 45.0), (flat, 1098.0, -55.0), (flat, 1098.0, 25.0)]
    for tensor, b, phi in cases:
        h = hamiltonians(SystemParams(tensor=tensor), b * unit_vectors(90.0, wrap_azimuth(phi)))
        fit = label_manifolds(manifold_overlaps(np.linalg.eigh(h)[1])[None])
        assert _bits(*fit) == _bits(*eigensystems(h[None])[2:5]), (tensor, b, phi)


def _eigen_failures():
    """One (matrix, message) case per EIGEN_REASONS message, in its order."""
    h = build_hamiltonian(SYS, FieldOrientation(40.3, 40.0, 90.0))
    skew = h.copy()
    skew[0, 1] += 1.0
    # the lowest state is half ms_plus, half ms0
    u = np.eye(6)
    u[0, 0] = u[0, 2] = u[2, 2] = math.sqrt(0.5)
    u[2, 0] = -math.sqrt(0.5)
    # states 0, 2 and 3 each 2/3 ms0: the third takes a full manifold
    w = np.eye(6)
    w[np.ix_([2, 3, 0], [2, 3, 0])] = [
        np.array([1, -1, 0]) / math.sqrt(2),
        np.array([1, 1, -2]) / math.sqrt(6),
        np.array([1, 1, 1]) / math.sqrt(3),
    ]
    diag = np.diag(np.arange(6.0))
    return [
        (skew, "matrix is not Hermitian"),
        (u @ diag @ u.T, "manifold assignment ambiguous for state 0 "
         "(overlaps ms_plus=0.500 ms0=0.500 ms_minus=0.000)"),
        (w @ diag @ w.T, "ground manifold not resolved: labels ['ms0', 'ms_plus', 'ms0']"),
    ]


def turn(i, j, deg):
    """The 6x6 rotation by deg between basis states i and j."""
    u = np.eye(6)
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    u[[i, i, j, j], [i, j, i, j]] = [c, -s, s, c]
    return u


def turned(u):
    """The eigensystem of diag(0..5) in the basis turned by u."""
    return eigensystem(u @ np.diag(np.arange(6.0)) @ u.T)


def test_scalar_errors_keep_their_messages():
    cases = _eigen_failures()
    assert len(cases) == len(EIGEN_REASONS)
    for (m, message), template in zip(cases, EIGEN_REASONS):
        assert message.startswith(template.split("{")[0])
        with pytest.raises(ValueError) as err:
            eigensystem(m)
        assert str(err.value) == message
    # nan passed the Hermitian check and stopped LAPACK with its LinAlgError
    inf = cases[0][0].copy()
    inf[2, 2] = math.inf
    for m in (np.full((6, 6), math.nan), inf):
        with pytest.raises(ValueError, match="^matrix is not Hermitian$"), np.errstate(invalid="ignore"):
            eigensystem(m)

    f = FieldOrientation(40.3, 40.0, 90.0)
    flat = HyperfineTensor(150.0, 120.0, 0.0, 0.0)
    zz = HyperfineTensor(0.0, 0.0, 1.0, 0.0)
    # the ms_minus states turned 44.5 degrees from |-1,+-1/2>: both overlap
    # alpha_minus = -|-1/2> of the pure a_zz coupling zz within 5 %
    cases = [  # one per LAMBDA_REASONS message, in its order
        (eigensystem(build_hamiltonian(SYS, FieldOrientation(40.3, 90.0, 90.0))), REF,
         "excited level not a clean ms_minus state (overlap 0.500)"),
        (eigensystem(build_hamiltonian(SystemParams(tensor=flat), f)), flat,
         "quantization axis undefined (a_zz = a = 0)"),
        (turned(turn(4, 5, 44.5)), zz,
         "excited-state identification ambiguous: alpha_minus overlaps "
         "0.4913 vs 0.5087"),
    ]
    assert len(cases) == len(LAMBDA_REASONS)
    for (eig, tensor, message), template in zip(cases, LAMBDA_REASONS):
        assert message.startswith(template.split("{")[0])
        with pytest.raises(ValueError) as err:
            lambda_excited_index(eig, tensor)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            lambda_transition_amplitudes(eig, tensor, f)
        assert str(err.value) == message
    # a state takes the first reason that holds: these ms_minus states are
    # 0.587 pure, and as above ambiguous for zz
    eig = turned(turn(4, 5, 44.5) @ turn(0, 4, 50.0) @ turn(1, 5, 50.0))
    for tensor in (zz, flat):
        with pytest.raises(ValueError, match=r"clean ms_minus state \(overlap 0.587\)"):
            lambda_excited_index(eig, tensor)


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _raises_reason(call, reasons, code):
    """call() raises the message of reason ``code``, up to its fields."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value).startswith(reasons[code - 1].split("{")[0])


def test_scalar_calls_are_rows_of_the_batched_kernels():
    # bit for bit (signed zeros included) on mixed stacks: random systems,
    # the axis, 90 degrees, fields across the ms0/ms-1 crossing, and one
    # failing matrix per EIGEN_REASONS code
    rng = np.random.default_rng(14)
    systems = [random_system(rng) for _ in range(60)]
    systems += [(SYS, FieldOrientation(*f)) for f in (
        (40.3, 0.0, 0.0), (40.3, 90.0, 90.0), (1200.0, 2.0, 30.0), (1098.0, 20.0, 0.0),
        (0.0, 0.0, 0.0), (37.5, 12.0, -3.2751579226442118e-15),
    )]
    stack = [build_hamiltonian(p, f) for p, f in systems]
    stack += [m for m, _ in _eigen_failures()]
    values, vectors, labels, reason, order, over = eigensystems(np.stack(stack))
    assert set(reason) == {0, 1, 2, 3}
    for k, h in enumerate(stack):
        if reason[k]:
            _raises_reason(lambda: eigensystem(h), EIGEN_REASONS, reason[k])
            continue
        eig = eigensystem(h)
        assert _bits(eig.values, eig.vectors, eig.labels, eig._order, eig._purity) == _bits(
            values[k], vectors[k], labels[k], order[k], over[k, order[k, 4:], 2]
        )

    # the Lambda legs: one tensor over a field grid, as the STA search runs
    theta = np.r_[rng.uniform(0, 180, 60), 0.0, 90.0, 45.0, 180.0]
    phi = np.r_[rng.uniform(-360, 360, 60), 0.0, 90.0, -3.2751579226442118e-15, 45.0]
    b = 40.3
    for params in (SYS, SystemParams(tensor=HyperfineTensor(150.0, 120.0, 0.0, 0.0))):
        op, om, ok = lambda_legs(params, b, theta, phi)
        for k in range(len(theta)):
            f = FieldOrientation(b, float(theta[k]), float(phi[k]))
            eig = eigensystem(build_hamiltonian(params, f))
            if ok[k]:
                got = lambda_transition_amplitudes(eig, params.tensor, f)
                assert [x.hex() for x in got] == [op[k].hex(), om[k].hex()]
            else:
                with pytest.raises(ValueError):
                    lambda_transition_amplitudes(eig, params.tensor, f)

    # every output of lambda_system and lambda_excited_index, or the error
    # text, is its row of one stacked lambda_overlaps and lambda_rule
    fields = [FieldOrientation(*f) for f in (
        (40.3, 0.0, 0.0), (40.3, 90.0, 90.0), (40.3, 90.0, 0.0), (40.3, 180.0, 45.0),
        (0.0, 0.0, 0.0), (0.0, 40.0, 90.0), (1200.0, 2.0, 30.0),
    )]
    fields += [FieldOrientation(*rng.uniform([0, 0, -360], [80, 180, 360])) for _ in range(20)]
    zz = HyperfineTensor(0.0, 0.0, 1.0, 0.0)
    tensors = [REF, HyperfineTensor(0.0, 0.0, 0.0, 0.0), HyperfineTensor(150.0, 120.0, 0.0, 0.0),
               zz, HyperfineTensor(100.0, 80.0, 60.0, 0.0)]
    tensors += [HyperfineTensor(*rng.uniform(-200, 200, 4)) for _ in range(3)]
    seen = set()
    for tensor in tensors:
        cases = [(eigensystem(build_hamiltonian(SystemParams(tensor=tensor), f)), f)
                 for f in fields]
        if tensor == zz:  # ms_minus turned: clean, ambiguous, impure and ambiguous
            cases += [(turned(u), fields[-1]) for u in (
                turn(4, 5, 10.0), turn(4, 5, 44.5),
                turn(4, 5, 44.5) @ turn(0, 4, 50.0) @ turn(1, 5, 50.0),
            )]
        for (eig, f), want, want_excited in zip(cases, *_lambda_rows(cases, tensor)):
            assert _outcome(lambda: lambda_system(eig, tensor, f)) == want
            assert _outcome(lambda: lambda_excited_index(eig, tensor)) == want_excited
            seen.add(want.split(" (")[0] if isinstance(want, str) else "ok")
    assert seen == {
        "ok", "Zeeman axis undefined", "quantization axis undefined",
        "excited level not a clean ms_minus state",
        "excited-state identification ambiguous: alpha_minus overlaps 0.4913 vs 0.5087",
    }


def _outcome(call):
    """call()'s outputs, floats as float.hex, or the text of its ValueError."""
    try:
        out = call()
    except ValueError as err:
        return str(err)
    return [x.hex() if isinstance(x, float) else x
            for x in (out if isinstance(out, tuple) else (out,))]


def _lambda_rows(cases, tensor):
    """The ``_outcome`` of ``lambda_system`` and of ``lambda_excited_index``
    for each (eigensystem, field) of cases, read off one stacked
    ``lambda_overlaps`` call, ``lambda_rule`` per row and one
    ``line_drives`` call."""
    vectors = np.stack([eig.vectors for eig, _ in cases])
    order = np.stack([eig.labels for eig, _ in cases]).argsort(axis=-1, kind="stable")
    n = np.arange(len(cases))
    states = vectors.mT[n[:, None], order[:, 2:]]
    theta, phi = np.array([(f.theta, f.phi) for _, f in cases]).T
    alpha_minus, axis_code = tensor._alpha_minus
    overlap = lambda_overlaps(states, zeeman_states(theta, phi)[0], alpha_minus)
    purity = np.array([eig._purity for eig, _ in cases])  # from each labelling pass
    rows = [lambda_rule(o, p, axis_code) for o, p in zip(overlap.tolist(), purity.tolist())]
    reason, e, g = np.array(rows, dtype=int).T
    excited, ground = order[n, 4 + e], order[n[:, None], np.stack([2 + g, 3 - g], 1)]
    legs = np.abs(line_drives(vectors.mT[n[:, None], ground], vectors.mT[n, excited][:, None]))
    systems, indices = [], []
    for k, (_, f) in enumerate(cases):
        if reason[k]:
            low = purity[k, np.argmax(purity[k] < 0.6)]
            text = LAMBDA_REASONS[reason[k] - 1].format(purity=low, overlap=overlap[k, 2:])
            systems.append(text)
            indices.append(text)
            continue
        indices.append([int(excited[k])])
        systems.append("Zeeman axis undefined (b = 0)" if f.b == 0 else [
            legs[k, 0].hex(), legs[k, 1].hex(), int(excited[k]), *ground[k].tolist()
        ])
    return systems, indices


def test_batched_kernels_take_empty_stacks():
    # n = 0 rows in, n = 0 rows out, with the dtypes of a full stack
    none = np.array([])
    bvec = unit_vectors(none, none)
    beta_plus, beta_minus = zeeman_states(none, none)
    h = hamiltonians(SYS, bvec)
    values, vectors, labels, reason, order, over = eigensystems(h)
    states, purity, main = spin_core._records(vectors, order, over)
    overlap = lambda_overlaps(states, beta_plus, REF._alpha_minus[0])
    drives = line_drives(states[:, :2], states[:, 2:3])
    legs = lambda_legs(SYS, 40.3, none, none)
    got = [bvec, beta_plus, beta_minus, h, hamiltonians(SYS, bvec, np.zeros((0, 4))), values,
           vectors, labels, reason, over, *label_manifolds(over), order, states, overlap,
           purity, main, drives, *legs, model_values(SYS, []), zeeman_states(none, none, False)]
    shapes = [(0, 3), (0, 2), (0, 2), (0, 6, 6), (0, 6, 6), (0, 6), (0, 6, 6), (0, 6), (0,),
              (0, 6, 3), (0, 6), (0,), (0, 6), (0, 6), (0, 4, 6), (0, 4), (0, 2), (0, 2, 2),
              (0, 2), (0,), (0,), (0,), (0,), (0, 2)]
    kinds = "fccccfciifiiiicfffcffbfc"
    assert [a.shape for a in got] == shapes
    assert "".join(a.dtype.kind for a in got) == kinds


def test_line_drives_match_vdot_bit_for_bit():
    # one gemv and one dot per element, as np.vdot(v_hi, DRIVE_SX @ v_lo)
    # computes it, whatever the stack: float.hex of every element on mixed
    # stacks of 1, 7 and 460 rows (random systems, the pole, theta = 90)
    rng = np.random.default_rng(26)
    pole = [(SYS, FieldOrientation(40.3, 0.0, 0.0)), (SYS, FieldOrientation(0.0, 0.0, 0.0))]
    side = [(SYS, FieldOrientation(40.3, 90.0, 0.0)), (SYS, FieldOrientation(40.3, 90.0, 45.0))]
    for n in (1, 7, 460):
        systems = [random_system(rng) for _ in range(n)]
        systems[: min(n, 4)] = (pole + side)[: min(n, 4)]
        vectors = np.stack([eigensystem(build_hamiltonian(p, f)).vectors for p, f in systems])
        lo, hi = rng.integers(0, 6, (2, n, 5))
        rows = np.arange(n)[:, None]
        for hi_rows in (hi, hi[:, :1]):  # hi broadcast against lo, too
            got = line_drives(vectors.mT[rows, lo], vectors.mT[rows, hi_rows])
            for v, ls, hs, row in zip(vectors, lo, np.broadcast_to(hi_rows, lo.shape), got):
                want = [np.vdot(v[:, h], DRIVE_SX @ v[:, l]) for l, h in zip(ls, hs)]
                assert _hex(row) == _hex(want)

    # an Eigensystem's main-line drives, from its gathered ms0 and ms_minus
    # states, on the zero tensor (degenerate pairs) at the pole and at 90
    for theta in (0.0, 90.0):
        eig = eigensystem(build_hamiltonian(SystemParams(), FieldOrientation(40.3, theta, 0.0)))
        v, order = eig.vectors, eig.labels.argsort(kind="stable")
        want = [abs(np.vdot(v[:, order[h]], DRIVE_SX @ v[:, order[l]]))
                for l, h in ((2, 4), (2, 5), (3, 4), (3, 5))]
        assert [x.hex() for x in eig._main_legs] == [x.hex() for x in want]


def _hex(row):
    """float.hex of the real and imaginary parts of each complex in row."""
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in row]


def test_scan_point_solves_once(monkeypatch):
    # a design scan point (H, eigensystem, ZQ splitting, Lambda legs, main
    # lines) on one Eigensystem: one assembly, one eigh, and its order and
    # main-line drives computed once for the ZQ pair, the legs and the lines;
    # the order is read with the labels from the walk table, no argsort
    calls = collections.Counter()

    def counted(module, name):
        kernel = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    counted(np.linalg, "eigh")
    for name in ("hamiltonians", "label_manifolds", "line_drives"):
        counted(spin_core, name)
    f = FieldOrientation(31.77, 40.0, 30.0)
    eig = eigensystem(build_hamiltonian(SYS, f))
    zero_quantum_splitting_exact(eig)
    lambda_transition_amplitudes(eig, REF, f)
    main_four_lines(eig)
    assert calls == {"eigh": 1, "hamiltonians": 1, "label_manifolds": 1, "line_drives": 1}
