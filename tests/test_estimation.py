"""Dataset I/O, synthetic scans, hyperfine fitting, sensitivity tools."""

import dataclasses
import re

import numpy as np
import pytest

from nvbeat.analytic import zq_beat_amplitude
from nvbeat.estimation import (
    CSV_HEADER,
    FitParams,
    ScanDataset,
    ScanPoint,
    _amplitude_ratios,
    _FitData,
    _forward_model,
    find_axis_minimum,
    find_single_transition_axis,
    fit_hyperfine,
    precision_propagation,
    read_dataset,
    sensitivity_c,
    synthesize_dataset,
    write_dataset,
)
from nvbeat.spin_core import (
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    build_hamiltonian,
    eigensystem,
    lambda_transition_amplitudes,
    zero_quantum_splitting_exact,
)

TRUTH = FitParams(a_xx=166.9, a_yy=122.9, a_zz=90.0, a=-90.3, b=40.3, phi_offset=0.0)
SYS = SystemParams(tensor=HyperfineTensor(166.9, 122.9, 90.0, -90.3))
STA_THETA = 5.008965663741781

# one strongly identifying design: four SQ orientations plus two ZQ phi sweeps
DESIGN2 = [
    (10.0, 0.0, "sq_frequency"),
    (40.0, 50.0, "sq_frequency"),
    (70.0, 20.0, "sq_frequency"),
    (85.0, -35.0, "sq_frequency"),
]
DESIGN2 += [(40.0, float(p), "zq_frequency") for p in np.linspace(-90, 90, 13)]
DESIGN2 += [(65.0, float(p), "zq_frequency") for p in np.linspace(-80, 80, 9)]


def test_scan_point_validation():
    with pytest.raises(ValueError):
        ScanPoint(10.0, 0.0, 40.0, "nope", 1.0, 0.1)
    with pytest.raises(ValueError):
        ScanPoint(10.0, 0.0, 40.0, "zq_frequency", 1.0, 0.0)
    with pytest.raises(ValueError):
        ScanPoint(10.0, 0.0, 40.0, "sq_frequency", 1.0, 0.1, transition_index=7)
    good = dict(theta=10.0, phi=0.0, b=40.0, kind="zq_frequency", value=1.0, sigma=0.1)
    for name, bad in (
        ("theta", np.nan), ("theta", 400.0), ("theta", -0.5), ("phi", np.inf),
        ("b", np.nan), ("b", -5.0), ("value", np.nan), ("value", -np.inf),
        ("sigma", np.inf), ("sigma", 1e-300), ("sigma", 0.999e-6),
    ):
        with pytest.raises(ValueError, match=name):
            ScanPoint(**{**good, name: bad})


def test_csv_round_trip(tmp_path):
    ds = synthesize_dataset(
        SYS, b=40.3, design=DESIGN2, noise_sigma={"zq_frequency": 0.1}, seed=4
    )
    path = str(tmp_path / "scan.csv")
    write_dataset(ds, path, comments=("generated for a test",))
    text = open(path).read()
    assert text.startswith("# generated for a test\n")
    assert "theta_deg,phi_deg,b_gauss,kind,value,sigma,transition_index" in text
    back = read_dataset(path)
    assert len(back) == len(ds)
    for p, q in zip(ds.points, back.points):
        assert p.kind == q.kind and p.transition_index == q.transition_index
        assert abs(p.value - q.value) < 1e-9 * max(1.0, abs(p.value))
        assert abs(p.sigma - q.sigma) < 1e-12


def test_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("theta,phi\n")
    with pytest.raises(ValueError, match=r"a\.csv:1: expected header"):
        read_dataset(str(bad_header))

    short_row = tmp_path / "b.csv"
    short_row.write_text(
        "theta_deg,phi_deg,b_gauss,kind,value,sigma,transition_index\n1,2,3\n"
    )
    with pytest.raises(ValueError, match=r"b\.csv:2: expected 7 fields, got 3"):
        read_dataset(str(short_row))

    bad_value = tmp_path / "c.csv"
    bad_value.write_text(
        "theta_deg,phi_deg,b_gauss,kind,value,sigma,transition_index\n"
        "# comment rows do not shift line numbers\n"
        "1,2,3,zq_frequency,x,0.1,\n"
    )
    with pytest.raises(ValueError, match=r"c\.csv:3: "):
        read_dataset(str(bad_value))

    bad_kind = tmp_path / "d.csv"
    bad_kind.write_text(
        "theta_deg,phi_deg,b_gauss,kind,value,sigma,transition_index\n"
        "1,2,3,mystery,4,0.1,\n"
    )
    with pytest.raises(ValueError, match=r"d\.csv:2: unknown observable kind"):
        read_dataset(str(bad_kind))

    empty = tmp_path / "e.csv"
    empty.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no header line found"):
        read_dataset(str(empty))


@pytest.mark.parametrize(
    "column, text", [(4, "nan"), (4, "inf"), (0, "400"), (2, "-5"), (5, "1e-300")]
)
def test_csv_rejects_non_finite_and_out_of_range(tmp_path, column, text):
    row = ["40", "10", "40.3", "zq_frequency", "1.5", "0.1", ""]
    row[column] = text
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n# comment\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: "):
        read_dataset(str(path))


def test_synthesize_deterministic():
    kw = dict(
        noise_sigma={"sq_frequency": 0.2, "zq_frequency": 0.2},
        field_imperfection=(1.0, 120.0, 30.0),
        seed=9,
    )
    d1 = synthesize_dataset(SYS, b=40.3, design=DESIGN2, **kw)
    d2 = synthesize_dataset(SYS, b=40.3, design=DESIGN2, **kw)
    assert all(p.value == q.value for p, q in zip(d1.points, d2.points))
    d3 = synthesize_dataset(SYS, b=40.3, design=DESIGN2, **dict(kw, seed=10))
    assert any(p.value != q.value for p, q in zip(d1.points, d3.points))


def test_synthesize_matches_forward_model():
    f = FieldOrientation(40.3, 40.0, 50.0)
    eig = eigensystem(build_hamiltonian(SYS, f))
    ds = synthesize_dataset(
        SYS,
        b=40.3,
        design=[(40.0, 50.0, "zq_frequency"), (40.0, 50.0, "zq_amplitude")],
        noise_sigma=None,
        seed=0,
    )
    assert abs(ds.points[0].value - zero_quantum_splitting_exact(eig)) < 1e-12
    op, om = lambda_transition_amplitudes(eig, SYS.tensor, f)
    assert abs(ds.points[1].value - zq_beat_amplitude(op, om) / 2.0) < 1e-12


def test_sq_design_point_expands_to_four_lines():
    ds = synthesize_dataset(
        SYS, b=40.3, design=[(40.0, 50.0, "sq_frequency")], noise_sigma=None, seed=0
    )
    assert len(ds) == 4
    assert [p.transition_index for p in ds.points] == [0, 1, 2, 3]
    freqs = [p.value for p in ds.points]
    assert freqs == sorted(freqs)


def test_forward_model_points_are_independent():
    # a point's model value does not depend on the other points: repeats,
    # halfway values that tie two lines (resolved by amplitude) and the
    # same angles at another b all match the point fitted alone
    base = synthesize_dataset(
        SYS, b=40.3,
        design=[(40.0, 50.0, "sq_frequency"), (40.0, 10.0, "zq_frequency"),
                (70.0, 20.0, "sq_frequency")],
    )
    f = [p.value for p in base.points]
    ties = tuple(
        dataclasses.replace(base.points[5 + i], value=0.5 * (f[5 + i] + f[6 + i]))
        for i in (0, 2)
    )
    pts = base.points + (base.points[4], base.points[0]) + ties
    pts += (dataclasses.replace(base.points[4], b=45.0),)
    data = _FitData(ScanDataset(pts))
    column_b = TRUTH.as_vector()
    column_b[4] = np.nan  # the per-point b column, as with b fixed
    for vec in (TRUTH.as_vector(), column_b):
        model = _forward_model(SYS, vec, data)
        alone = [_forward_model(SYS, vec, _FitData(ScanDataset((p,))))[0] for p in pts]
        assert model.tolist() == alone
        assert model[9] == model[4] and model[10] == model[0]
        assert np.abs(model[:9] - f).max() < 1e-9
        assert model[11] == model[5] and model[12] == model[8]
        stacked = _forward_model(SYS, np.stack([vec + 1.0, vec]), data)
        assert stacked[1].tolist() == model.tolist()
    assert model[13] != model[4]


@pytest.mark.parametrize("first, later, message", [
    # (theta, phi, b, kind, value); value None is halfway between the lines
    # of the two degenerate pairs on the axis
    # ZQ: the ms-1 level crosses D/2 near the axis at 1000 G
    ((2.0, 0.0, 1000.0, "zq_frequency", 5.0), (1.0, 0.0, 1000.0, "zq_frequency", 5.0),
     "manifold assignment ambiguous in forward model at point 6 (theta=2.000 phi=0.000)"),
    # SQ: one eigenstate among the two largest ms0 and the two largest ms-1
    # weights past the level anticrossing
    ((20.0, 0.0, 1098.0, "sq_frequency", 100.0), (14.0, 0.0, 1098.0, "sq_frequency", 100.0),
     "manifold assignment ambiguous in forward model at point 6 (theta=20.000 phi=0.000)"),
    # SQ: two lines equally near with equal amplitudes
    ((0.0, 0.0, 40.3, "sq_frequency", None), (0.0, -30.0, 40.3, "sq_frequency", None),
     "ambiguous transition matching at point 6: two lines equidistant from "
     "value 2763.86 with comparable amplitudes"),
])
def test_forward_model_errors_name_the_data_point(first, later, message):
    # the failing point follows a repeated one, and a second failing point
    # that sorts first among the distinct field points comes later
    base = synthesize_dataset(
        SYS, b=40.3, design=[(40.0, 50.0, "sq_frequency"), (40.0, 10.0, "zq_frequency")]
    )
    axis = synthesize_dataset(SYS, b=40.3, design=[(0.0, 0.0, "sq_frequency")]).points
    halfway = 0.5 * (axis[0].value + axis[3].value)
    bad = [
        ScanPoint(theta, phi, b, kind, halfway if value is None else value, 1.0)
        for theta, phi, b, kind, value in (first, later)
    ]
    ds = ScanDataset(base.points + (base.points[4], bad[0], base.points[1], bad[1]))
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_hyperfine(ds, TRUTH, fixed=frozenset({"b"}))


def test_zq_only_fit_is_degenerate():
    design = [(40.0, float(p), "zq_frequency") for p in np.linspace(-90, 90, 19)]
    ds = synthesize_dataset(SYS, b=40.3, design=design, noise_sigma=None, seed=0)
    with pytest.raises(ValueError, match="degenerate parameter direction"):
        fit_hyperfine(ds, TRUTH)


def test_fit_input_checks():
    ds = synthesize_dataset(
        SYS, b=40.3, design=[(40.0, 0.0, "sq_frequency")], noise_sigma=None, seed=0
    )
    with pytest.raises(ValueError, match="unknown parameter id"):
        fit_hyperfine(ds, TRUTH, fixed=frozenset({"a_qq"}))
    with pytest.raises(ValueError, match="no free parameters"):
        fit_hyperfine(
            ds, TRUTH,
            fixed=frozenset({"a_xx", "a_yy", "a_zz", "a", "b", "phi_offset"}),
        )
    with pytest.raises(ValueError):
        fit_hyperfine(ds, FitParams(np.nan, 120.0, 90.0, -90.0, 40.3))
    # finite data whose weights overflow: chi^2 = inf, covariance = inf
    ds = synthesize_dataset(SYS, b=40.3, design=DESIGN2, noise_sigma=None, seed=0)
    huge = ScanDataset(
        ds.points[:-1] + (dataclasses.replace(ds.points[-1], value=1e300),)
    )
    with pytest.raises(ValueError, match=r"chi\^2 not finite"):
        fit_hyperfine(huge, TRUTH)
    loose = ScanDataset(tuple(dataclasses.replace(p, sigma=1e155) for p in ds.points))
    with pytest.raises(ValueError, match="covariance not finite"):
        fit_hyperfine(loose, TRUTH)


def test_round_trip_many_records():
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in range(50):
        tr = FitParams(
            a_xx=float(rng.uniform(60, 220)),
            a_yy=float(rng.uniform(60, 220)),
            a_zz=float(rng.uniform(40, 180)),
            a=float(rng.uniform(-150, 150)),
            b=float(rng.uniform(20, 60)),
            phi_offset=float(rng.uniform(-5, 5)),
        )
        sysk = SystemParams(tensor=tr.tensor())
        dsk = synthesize_dataset(
            sysk,
            b=tr.b,
            design=[(t, p + tr.phi_offset, kind) for t, p, kind in DESIGN2],
            noise_sigma=None,
            seed=k,
        )
        start = FitParams(
            tr.a_xx * 1.02, tr.a_yy * 0.98, tr.a_zz * 1.02, tr.a * 0.98,
            tr.b, tr.phi_offset,
        )
        r = fit_hyperfine(dsk, start)
        err = max(
            abs(getattr(r.params, n) - getattr(tr, n))
            for n in ("a_xx", "a_yy", "a_zz", "a")
        )
        worst = max(worst, err)
        assert err < 0.01, "record %d missed by %.3g" % (k, err)
    print("50-record round trip, worst error %.3g MHz" % worst)


def test_reported_sigmas_match_scatter():
    # reported 1-sigma vs empirical scatter over repeated noise draws
    noise = {"sq_frequency": 0.2, "zq_frequency": 0.2}
    rec = {n: [] for n in ("a_xx", "a_yy", "a_zz", "a")}
    sig = {n: [] for n in ("a_xx", "a_yy", "a_zz", "a")}
    chis = []
    for s in range(100):
        dsn = synthesize_dataset(SYS, b=40.3, design=DESIGN2, noise_sigma=noise, seed=900 + s)
        r = fit_hyperfine(dsn, TRUTH)
        assert r.converged
        chis.append(r.chi2)
        for n in rec:
            rec[n].append(getattr(r.params, n))
            sig[n].append(r.sigmas[n])
    dof = len(synthesize_dataset(SYS, b=40.3, design=DESIGN2, seed=0)) - 6
    assert abs(np.mean(chis) - dof) < 3.0
    for n in rec:
        ratio = np.std(rec[n]) / np.mean(sig[n])
        print("calibration %-5s ratio %.3f" % (n, ratio))
        assert 2.0 / 3.0 < ratio < 1.5


def test_fixed_b_fit():
    ds = synthesize_dataset(
        SYS,
        b=40.3,
        design=[(10.0, 0.0, "sq_frequency"), (40.0, 50.0, "sq_frequency"),
                (70.0, 20.0, "sq_frequency")]
        + [(40.0, float(p), "zq_frequency") for p in np.linspace(-90, 90, 13)],
        noise_sigma=None,
        seed=0,
    )
    start = FitParams(160.0, 130.0, 95.0, -85.0, 40.3, 0.0)
    r = fit_hyperfine(ds, start, fixed=frozenset({"b", "phi_offset"}))
    assert r.converged
    assert r.params.b == 40.3 and r.sigmas["b"] == 0.0
    for n in ("a_xx", "a_yy", "a_zz", "a"):
        assert abs(getattr(r.params, n) - getattr(TRUTH, n)) < 1e-6


def test_mirror_plane_from_zq_scan():
    # the phi of maximal ZQ splitting coincides with the single-transition
    # plane; locate it by fitting the negated scan minimum
    th_a, ph_a, _ = find_single_transition_axis(SYS, 40.3)

    def negated(noise, seed):
        dsm = synthesize_dataset(
            SYS,
            b=40.3,
            design=[(40.0, float(p), "zq_frequency") for p in np.linspace(-60, 60, 25)],
            noise_sigma=noise,
            seed=seed,
        )
        return ScanDataset(
            tuple(
                ScanPoint(q.theta, q.phi, q.b, q.kind, -q.value, q.sigma)
                for q in dsm.points
            )
        )

    x0, _ = find_axis_minimum(negated(None, 0))
    assert abs(x0 - ph_a) < 1e-9

    xn, sn = find_axis_minimum(negated({"zq_frequency": 0.2}, 11))
    assert sn < 1.5
    assert abs(xn - ph_a) < 3.0 * sn


def test_find_axis_minimum_near_sta():
    scan = synthesize_dataset(
        SYS,
        b=40.3,
        design=[(float(t), 0.0, "zq_amplitude") for t in np.linspace(4.2, 5.8, 13)],
        noise_sigma=None,
        seed=0,
    )
    x0, s0 = find_axis_minimum(scan)
    xq, sq = find_axis_minimum(scan, quartic=True)
    print("amplitude minimum: quad %.4f +- %.4f, quartic %.4f" % (x0, s0, xq))
    assert abs(x0 - 5.0886) < 2e-3
    assert abs(xq - 5.0833) < 2e-3
    assert s0 < 1e-3
    # both estimates land near the true minimum; residual bias is the
    # asymmetry of the amplitude curve over the window
    assert abs(x0 - STA_THETA) < 0.1
    assert abs(xq - STA_THETA) < 0.1


def test_find_axis_minimum_exact_parabola():
    pts = tuple(
        ScanPoint(30.0, float(x), 40.3, "zq_frequency", 5.0 + 0.3 * (x - 12.3) ** 2, 0.01)
        for x in np.linspace(5, 20, 9)
    )
    x0, _ = find_axis_minimum(ScanDataset(pts))
    assert abs(x0 - 12.3) < 1e-8


def test_find_axis_minimum_errors():
    mono = tuple(
        ScanPoint(30.0, float(x), 40.3, "zq_frequency", 5.0 + 0.3 * x, 0.01)
        for x in np.linspace(5, 20, 9)
    )
    with pytest.raises(ValueError, match="extremum not bracketed"):
        find_axis_minimum(ScanDataset(mono))
    few = mono[:4]
    with pytest.raises(ValueError, match="at least 5 points"):
        find_axis_minimum(ScanDataset(few))
    both = tuple(
        ScanPoint(float(x), float(x), 40.3, "zq_frequency", 5.0 + (x - 12.0) ** 2, 0.01)
        for x in np.linspace(5, 20, 9)
    )
    with pytest.raises(ValueError, match="exactly one of theta/phi"):
        find_axis_minimum(ScanDataset(both))


def test_sensitivity_at_sta():
    sta = FieldOrientation(40.3, STA_THETA, 0.0)
    frozen = {"a_xx": 0.044393, "a_yy": 0.032968, "a_zz": 0.340495, "a": 0.374518}
    for which, want in frozen.items():
        rep = sensitivity_c(SYS, sta, which)
        assert abs(rep.c_value - want) < 1e-3
        halved = sensitivity_c(SYS, sta, which, step=0.25)
        assert abs(halved.c_value - rep.c_value) < 1e-5


def test_sensitivity_zero_tensor_axial():
    zsys = SystemParams(tensor=HyperfineTensor(0.0, 0.0, 0.0, 0.0))
    f = FieldOrientation(40.3, 0.0, 0.0)
    rep = sensitivity_c(zsys, f, "a_zz")
    # Sz Iz shifts each ms=+-1 line by +-1/2 depending on the nuclear state
    assert np.allclose(rep.slopes, (0.5, 0.5, -0.5, -0.5), atol=1e-9)
    assert abs(rep.c_value - 0.5) < 1e-9
    assert sensitivity_c(zsys, f, "a_xx").c_value < 1e-9


def test_sensitivity_input_checks():
    f = FieldOrientation(40.3, 30.0, 0.0)
    with pytest.raises(ValueError, match="unknown parameter id"):
        sensitivity_c(SYS, f, "d")
    with pytest.raises(ValueError, match="step must be > 0"):
        sensitivity_c(SYS, f, "a_zz", step=0.0)


def test_precision_propagation():
    assert abs(precision_propagation(0.2, 0.35) - 0.2 / 0.35) < 1e-12
    assert precision_propagation(0.0, 0.1) == 0.0
    with pytest.raises(ValueError, match="unobservable"):
        precision_propagation(0.2, 0.0)
    with pytest.raises(ValueError):
        precision_propagation(-0.1, 0.3)


def test_find_single_transition_axis_reference():
    th, ph, ratio = find_single_transition_axis(SYS, 40.3)
    assert abs(th - STA_THETA) < 0.01
    assert abs(ph) < 0.1
    assert ratio < 1e-3
    # the last zoom level has 0.002 degree spacing: no neighbour is lower
    steps = np.array([-0.002, 0.0, 0.002])
    around = _amplitude_ratios(SYS, 40.3, th + steps[:, None], ph + steps)
    assert ratio == around[1, 1]
    assert ratio <= around.min()


def test_find_single_transition_axis_no_off_diagonal():
    sys0 = SystemParams(tensor=HyperfineTensor(150.0, 120.0, 90.0, 0.0))
    th, ph, ratio = find_single_transition_axis(sys0, 40.3)
    assert th < 0.1
    assert ratio < 1e-3
    with pytest.raises(ValueError):
        find_single_transition_axis(sys0, 0.0)


def test_field_imperfection_shows_up_in_residuals():
    # a 120-degree periodic field error cannot be absorbed by the tensor;
    # it must survive in the fit residuals at its own period
    sweep = [(40.0, float(p), "zq_frequency") for p in np.linspace(0, 345, 24)]
    ds = synthesize_dataset(
        SYS,
        b=40.3,
        design=sweep,
        noise_sigma=None,
        field_imperfection=(1.0, 120.0, 0.0),
        seed=0,
    )
    r = fit_hyperfine(ds, TRUTH, fixed=frozenset({"a_zz", "a", "b", "phi_offset"}))
    phis = np.array([p.phi for p in ds.points])
    amps = {}
    for period in (360.0, 180.0, 120.0, 90.0, 72.0):
        w = 2 * np.pi * phis / period
        amps[period] = np.hypot(
            np.mean(r.residuals * np.cos(w)), np.mean(r.residuals * np.sin(w))
        )
    others = max(v for k, v in amps.items() if k != 120.0)
    print("imperfection component ratio: %.2f" % (amps[120.0] / others))
    assert amps[120.0] > 3.0 * others


def _scalar_ratios(params, b, theta, phi):
    """The ratio point by point through the scalar API; inf where it raises."""
    out = []
    for th, ph in zip(theta, phi):
        try:
            f = FieldOrientation(b, float(th), float(ph))
            eig = eigensystem(build_hamiltonian(params, f))
            op, om = lambda_transition_amplitudes(eig, params.tensor, f)
        except ValueError:
            out.append(np.inf)
            continue
        out.append(min(op, om) / max(op, om) if max(op, om) > 0 else 1.0)
    return np.array(out)


def test_batched_ratios_match_scalar_chain():
    rng = np.random.default_rng(41)
    no_a = SystemParams(tensor=HyperfineTensor(150.0, 120.0, 90.0, 0.0))
    cases = [(SYS, 40.3), (no_a, 40.3)]
    for _ in range(8):
        tensor = HyperfineTensor(*(float(x) for x in rng.uniform(-200, 200, size=4)))
        cases.append((SystemParams(tensor=tensor), float(rng.uniform(1, 60))))
    near_90 = 0
    for params, b in cases:
        theta = np.concatenate([rng.uniform(0, 180, 60), rng.uniform(85, 95, 20)])
        phi = rng.uniform(-180, 360, len(theta))
        # tiny negative azimuths, which plain phi % 360 maps to exactly 360
        theta = np.append(theta, [30.0, 40.0])
        phi = np.append(phi, [-1e-18, -3.3e-15])
        batched = _amplitude_ratios(params, b, theta, phi)
        scalar = _scalar_ratios(params, b, theta, phi)
        assert np.array_equal(np.isinf(batched), np.isinf(scalar))
        finite = np.isfinite(scalar)
        assert finite.any()
        # the scalar API is the batch of one of the same kernels
        assert np.max(np.abs(batched[finite] - scalar[finite])) <= 1e-12
        near_90 += int(np.isinf(scalar[60:]).sum())
    # the clean-ms_minus purity check rejects points near theta = 90
    assert near_90 > 0


def test_batched_ratios_shape_and_undefined_axis():
    phis = np.arange(-90.0, 90.0 + 1e-9, 2.0)
    grid = _amplitude_ratios(SYS, 40.3, np.arange(0.0, 10.0, 2.0)[:, None], phis)
    assert grid.shape == (5, len(phis))
    assert np.isfinite(grid).any()
    # inputs the scalar chain rejects: theta outside [0, 180], b = 0
    assert np.all(np.isinf(_amplitude_ratios(SYS, 40.3, [-1.0, 181.0], 0.0)))
    assert np.all(np.isinf(_amplitude_ratios(SYS, 0.0, 30.0, phis)))
    # a_zz = a = 0 leaves the excited-state quantization axis undefined
    flat = SystemParams(tensor=HyperfineTensor(150.0, 120.0, 0.0, 0.0))
    assert np.all(np.isinf(_amplitude_ratios(flat, 40.3, 30.0, phis)))
    with pytest.raises(ValueError, match="no single-transition axis"):
        find_single_transition_axis(flat, 40.3)
