"""Dataset I/O, synthetic scans, hyperfine fitting, sensitivity tools."""

import collections
import dataclasses
import functools
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from nvbeat import estimation
from nvbeat.analytic import zq_beat_amplitude
from nvbeat.cli import main
from nvbeat.config import csv_row
from nvbeat.estimation import (
    CSV_HEADER,
    PARAM_IDS,
    FitParams,
    ScanDataset,
    ScanPoint,
    _amplitude_ratios,
    _FitData,
    _forward_model,
    _PLAIN,
    _Q,
    _VALLEY,
    _VALLEY_R,
    _jacobian,
    _second_directional,
    find_single_transition_axis,
    fit_hyperfine,
    model_values,
    precision_propagation,
    read_dataset,
    sensitivity_c,
    synthesize_dataset,
)
from nvbeat.spin_core import (
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    build_hamiltonian,
    eigensystem,
    lambda_transition_amplitudes,
    main_four_lines,
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
    with pytest.raises(ValueError, match=re.escape("unknown observable kind 'nope'")):
        ScanPoint(10.0, 0.0, 40.0, "nope", 1.0, 0.1)
    with pytest.raises(ValueError, match=re.escape("sigma must be >= 1e-06, got 0.0")):
        ScanPoint(10.0, 0.0, 40.0, "zq_frequency", 1.0, 0.0)
    with pytest.raises(ValueError, match=re.escape("transition_index must be 0..3, got 7")):
        ScanPoint(10.0, 0.0, 40.0, "sq_frequency", 1.0, 0.1, transition_index=7)
    good = dict(theta=10.0, phi=0.0, b=40.0, kind="zq_frequency", value=1.0, sigma=0.1)
    for name, bad in (
        ("theta", np.nan), ("theta", 400.0), ("theta", -0.5), ("phi", np.inf),
        ("b", np.nan), ("b", -5.0), ("value", np.nan), ("value", -np.inf),
        ("sigma", np.inf), ("sigma", 1e-300), ("sigma", 0.999e-6),
    ):
        with pytest.raises(ValueError, match=name):
            ScanPoint(**{**good, name: bad})


def test_zq_rows_take_no_transition_index(tmp_path):
    # the fit ignores it, and the CSV contract leaves it empty on ZQ rows
    for kind, k in (("zq_frequency", 7), ("zq_amplitude", 2), ("zq_frequency", 0)):
        with pytest.raises(ValueError, match=re.escape(
                "a %s row takes no transition_index, got %d" % (kind, k))):
            ScanPoint(40.0, 0.0, 40.3, kind, 1.0, 0.1, k)
    path = tmp_path / "zq.csv"
    path.write_text(CSV_HEADER + "\n40,0,40.3,sq_frequency,2873.1,0.1,1\n"
                    "40,10,40.3,zq_frequency,6.2,0.1,1\n")
    with pytest.raises(ValueError, match=re.escape(
            "zq.csv:3: a zq_frequency row takes no transition_index, got 1")):
        read_dataset(str(path))


def test_csv_round_trip(tmp_path):
    # the dataset written by `nvbeat synth --out` reads back as synthesized
    ds = synthesize_dataset(
        SYS, b=40.3, design=DESIGN2, noise_sigma={"zq_frequency": 0.1}, seed=4
    )
    cfg, path = tmp_path / "synth.cfg", str(tmp_path / "scan.csv")
    cfg.write_text("tensor.a_xx = 166.9\ntensor.a_yy = 122.9\ntensor.a_zz = 90.0\n"
                   "tensor.a = -90.3\nfield.b = 40.3\nnoise.sigma.zq_frequency = 0.1\n"
                   "seed = 4\n")
    assert main(["--config", str(cfg), "--out", path, "synth", "--design", "two-theta"]) == 0
    text = open(path).read()
    assert text.startswith("# nvbeat ") and "\n# design: two-theta\n" in text
    assert "theta_deg,phi_deg,b_gauss,kind,value,sigma,transition_index" in text
    back = read_dataset(path)
    assert len(back) == len(ds)
    for p, q in zip(ds.points, back.points):
        assert p.kind == q.kind and p.transition_index == q.transition_index
        assert abs(p.value - q.value) < 1e-9 * max(1.0, abs(p.value))
        assert abs(p.sigma - q.sigma) < 1e-12


def test_csv_row_cells():
    assert csv_row(1.0, np.float64(2.5e-11), 3, None, "ms_plus") == "1,2.5e-11,3,,ms_plus"
    p = ScanPoint(40.0, -90.0, 40.3, "sq_frequency", 2873.123456789012, 0.2, 1)
    row = csv_row(*dataclasses.astuple(p))
    assert row == "40,-90,40.3,sq_frequency,2873.123457,0.2,1"
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


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


def test_synthesize_input_checks():
    design = [(40.0, 0.0, "zq_frequency")]
    with pytest.raises(ValueError, match="design must be non-empty"):
        synthesize_dataset(SYS, b=40.3, design=[])
    with pytest.raises(ValueError, match="unknown observable kind"):
        synthesize_dataset(SYS, b=40.3, design=design, noise_sigma={"zq": 0.2})
    # a negative sigma once gave noiseless data at MIN_SIGMA
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"noise_sigma\['zq_frequency'\] must be finite"):
            synthesize_dataset(SYS, b=40.3, design=design, noise_sigma={"zq_frequency": bad})


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
    # unindexed halfway values that tie two lines (resolved by amplitude)
    # and the same angles at another b all match the point fitted alone
    base = synthesize_dataset(
        SYS, b=40.3,
        design=[(40.0, 50.0, "sq_frequency"), (40.0, 10.0, "zq_frequency"),
                (70.0, 20.0, "sq_frequency")],
    )
    f = [p.value for p in base.points]
    ties = tuple(
        dataclasses.replace(
            base.points[5 + i], value=0.5 * (f[5 + i] + f[6 + i]), transition_index=None
        )
        for i in (0, 2)
    )
    pts = base.points + (base.points[4], base.points[0]) + ties
    pts += (dataclasses.replace(base.points[4], b=45.0),)
    vec = TRUTH.as_vector()
    for per_point_b in (False, True):  # True: the per-point b column, as with b fixed
        model = _forward_model(SYS, vec, _FitData(ScanDataset(pts), per_point_b))
        alone = [_forward_model(SYS, vec, _FitData(ScanDataset((p,)), per_point_b))[0]
                 for p in pts]
        assert model.tolist() == alone
        assert model[9] == model[4] and model[10] == model[0]
        assert np.abs(model[:9] - f).max() < 1e-9
        assert model[11] == model[5] and model[12] == model[8]
    assert model[13] != model[4]


def test_sq_tie_goes_to_the_stronger_line():
    # an unindexed value halfway between two main lines ties them, and the
    # model takes the stronger line: halfway between lines 2 and 3 (ascending)
    # the nearer by argsort is the weak line 2 and the amplitudes move the
    # point to line 3; halfway between lines 0 and 1 the nearer is the strong 0
    lines = main_four_lines(eigensystem(build_hamiltonian(SYS, FieldOrientation(40.3, 40.0, 0.0))))
    assert ["%.4f" % ln.amplitude for ln in lines] == ["0.4960", "0.0050", "0.0050", "0.4019"]
    for pair, want in (((2, 3), "2862.894237"), ((0, 1), "2722.645024")):
        half = 0.5 * sum(lines[k].frequency for k in pair)
        model = model_values(SYS, [ScanPoint(40.0, 0.0, 40.3, "sq_frequency", half, 0.2)])
        assert "%.6f" % model[0] == want


@pytest.mark.parametrize("first, later, message", [
    # (theta, phi, b, kind, value); value None is halfway between the lines
    # of the two degenerate pairs on the axis
    # ZQ and SQ: past the level anticrossing no state is clearly ms0 or
    # ms-1, so the states cannot be labelled
    ((20.0, 0.0, 1098.0, "zq_frequency", 5.0), (14.0, 0.0, 1098.0, "zq_frequency", 5.0),
     "manifold assignment ambiguous in forward model at point 6 (theta=20.000 phi=0.000)"),
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


NOISE = {"sq_frequency": 0.2, "zq_frequency": 0.2}
STA_PHI = [(STA_THETA, 0.0, "sq_frequency")]
STA_PHI += [(40.0, float(p), "zq_frequency") for p in np.linspace(-90, 90, 19)]


# (design, b): the sta-phi and two-theta designs, and SQ points past the
# ms0 / ms-1 crossing near 1024 G, where the ms-1 states lie below ms0
JACOBIAN_CASES = {
    "sta_phi": (STA_PHI, 40.3),
    "two_theta": (DESIGN2, 40.3),
    "above_crossing": ([(0.0, 0.0, "sq_frequency"), (2.0, 30.0, "sq_frequency")], 1200.0),
}


@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
@pytest.mark.parametrize("b_fixed", [False, True])
def test_jacobian_matches_central_differences(case, b_fixed):
    # the Hellmann-Feynman derivatives against central differences of the
    # model with step 1e-5, whose rounding error is ~1e-7 MHz per unit; and
    # the same in each of the fit's charts: the plain one, the valley
    # coordinates r = hypot(a_zz, a) and psi = atan2(a, a_zz), and the q
    # chart, which also trades a_xx for q = sign(a_xx) hypot(a_xx, a); their
    # columns follow by the chain rule
    design, b = JACOBIAN_CASES[case]
    # b_fixed: the per-point b column, and the b slot goes unread
    data = _FitData(synthesize_dataset(SYS, b=b, design=design, noise_sigma=NOISE, seed=3),
                    b_fixed)
    vec = TRUTH.as_vector() + np.array([3.0, -2.0, 5.0, 4.0, 0.0, 2.0])
    vec[4] = b + 0.5
    assert np.allclose(_VALLEY.back(_VALLEY.to(vec)), vec, rtol=1e-15, atol=0.0)
    jac = _jacobian(SYS, vec, data)
    h = 1e-5
    for chart in (_PLAIN, _VALLEY, _Q):
        x = chart.to(vec)
        j = chart.jacobian(jac, x)
        for col in [0, 1, 2, 3, 5] if b_fixed else range(6):
            up, down = x.copy(), x.copy()
            up[col] += h
            down[col] -= h
            fd = (_forward_model(SYS, chart.back(up), data)
                  - _forward_model(SYS, chart.back(down), data)) / (2 * h)
            scale = np.abs(j[:, col]).max()
            assert scale > 0
            assert np.abs(fd - j[:, col]).max() <= 1e-5 * scale, col


@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
@pytest.mark.parametrize("b_fixed", [False, True])
def test_second_directional_matches_central_differences(case, b_fixed):
    # the model's second derivative along x(t) = vec + t dx + t^2 ddx / 2
    # (second-order perturbation theory on the kept solve) against central
    # second differences with step 1e-3, whose rounding error is a few
    # 1e-6 MHz; random directions reach every term, the field's
    # b-phi_offset and phi_offset curvature included. The valley chain rule
    # is checked the same way along straight lines in (a_xx, a_yy, r, psi,
    # b, phi_offset) and in the q chart's (q, a_yy, r, psi, b, phi_offset)
    design, b = JACOBIAN_CASES[case]
    # b_fixed: the per-point b column, and the b slot goes unread
    data = _FitData(synthesize_dataset(SYS, b=b, design=design, noise_sigma=NOISE, seed=3),
                    b_fixed)
    vec = TRUTH.as_vector() + np.array([3.0, -2.0, 5.0, 4.0, 0.0, 2.0])
    vec[4] = b + 0.5
    keep = {}
    _forward_model(SYS, vec, data, keep)
    _jacobian(SYS, vec, data, keep)
    u, uq = _VALLEY.to(vec), _Q.to(vec)
    rng = np.random.default_rng(5)
    h = 1e-3
    for _ in range(4):
        dx, ddx, du = rng.normal(size=(3, 6))
        if b_fixed:
            dx[4] = ddx[4] = du[4] = 0.0
        for curve, (d1, d2) in (
            (lambda t: vec + t * dx + 0.5 * t * t * ddx, (dx, ddx)),
            (lambda t: _VALLEY.back(u + t * du), _VALLEY.curve(u, du)),
            (lambda t: _Q.back(uq + t * du), _Q.curve(uq, du)),
        ):
            exact = _second_directional(data, keep, d1, d2)
            model = [_forward_model(SYS, curve(t), data) for t in (-h, 0.0, h)]
            fd = (model[0] - 2.0 * model[1] + model[2]) / (h * h)
            assert np.abs(fd - exact).max() <= 3e-5 * max(1.0, np.abs(exact).max())


@pytest.mark.parametrize("design", [STA_PHI, DESIGN2], ids=["sta_phi", "two_theta"])
@pytest.mark.parametrize("imperfection", [None, (1.0, 120.0, 30.0)])
def test_synthesize_is_the_fit_model(design, imperfection):
    # a noiseless value is the fit's forward model at the truth, bit for bit,
    # at the point's own field: b plus the imperfection, which the stored b
    # column leaves out
    ds = synthesize_dataset(SYS, b=40.3, design=design, field_imperfection=imperfection)
    values = np.array([p.value for p in ds.points])
    truth = TRUTH.as_vector()
    if imperfection is None:
        assert fit_hyperfine(ds, TRUTH).chi2 == 0.0
    else:
        amp, period, phase = imperfection
        ds = ScanDataset(
            dataclasses.replace(
                p, b=40.3 + amp * np.cos(2 * np.pi * p.phi / period + np.radians(phase))
            )
            for p in ds.points
        )
        assert not np.array_equal(_forward_model(SYS, truth, _FitData(ds)), values)
    assert np.array_equal(_forward_model(SYS, truth, _FitData(ds, True)), values)


def test_model_values_are_the_scalar_layer_bit_for_bit():
    # the fit builds B = b unit_vectors(theta, wrap_azimuth(phi)) as
    # FieldOrientation and build_hamiltonian do, so at any phi, wrapped or
    # not, a model value is the scalar layer's line or ZQ splitting exactly
    rng = np.random.default_rng(39)
    compared = 0
    for _ in range(300):
        tensor = HyperfineTensor(*(float(x) for x in rng.uniform(-200, 200, size=4)))
        b, theta, phi = (float(rng.uniform(*r)) for r in ((1, 60), (0, 180), (-360, 720)))
        params = SystemParams(tensor=tensor)
        try:
            eig = eigensystem(build_hamiltonian(params, FieldOrientation(b, theta, phi)))
        except ValueError:  # the scalar layer cannot label this field
            continue
        pts = [ScanPoint(theta, phi, b, "sq_frequency", 0.0, 1.0, k) for k in range(4)]
        pts.append(ScanPoint(theta, phi, b, "zq_frequency", 0.0, 1.0))
        want = [line.frequency for line in main_four_lines(eig)]
        assert model_values(params, pts).tolist() == want + [zero_quantum_splitting_exact(eig)]
        compared += 1
    assert compared >= 270


def test_fit_recovers_truth_from_far_starts():
    # acceptance 6's noiseless design from all 16 +-20 % corner starts;
    # letting psi run ahead of the other parameters once took two of them,
    # (0.8, 1.2, 0.8, 0.8) included, into a second minimum near psi = -158
    # degrees (a_zz -113.8, a -45.1 MHz)
    ds = synthesize_dataset(SYS, b=40.3, design=STA_PHI)
    names = ("a_xx", "a_yy", "a_zz", "a")
    for fac in itertools.product((0.8, 1.2), repeat=4):
        start = FitParams(*(getattr(TRUTH, n) * f for n, f in zip(names, fac)), b=40.3)
        r = fit_hyperfine(ds, start)
        err = max(abs(getattr(r.params, n) - getattr(TRUTH, n)) for n in names)
        assert r.converged and err < 0.01, fac
    # a start at a_zz = a = 0, where psi is undefined (r = 0), on the
    # two-theta design (``synth --design two-theta``) with b fixed
    ds = synthesize_dataset(SYS, b=40.3, design=DESIGN2)
    r = fit_hyperfine(ds, FitParams(170.0, 120.0, 0.0, 0.0, 40.3), fixed={"b"})
    err = max(abs(getattr(r.params, n) - getattr(TRUTH, n)) for n in names)
    assert r.converged and err < 0.01
    # and on the README snippet's design with phi_offset fixed, b free and
    # fixed, from r = 0 and from small r off the psi = 0 axis; stepping in
    # (r, psi) from there stalled with a_xx near 400 MHz
    snippet = [(20.0, 0.0, "sq_frequency"), (75.0, 30.0, "sq_frequency")]
    snippet += [(40.0, float(p), "zq_frequency") for p in np.linspace(-90, 90, 13)]
    ds = synthesize_dataset(SYS, b=40.3, design=snippet)
    for (a_zz, a), fixed in itertools.product(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, -1.0)],
        [{"phi_offset"}, {"b", "phi_offset"}],
    ):
        r = fit_hyperfine(ds, FitParams(170.0, 120.0, a_zz, a, 40.3), fixed=fixed)
        err = max(abs(getattr(r.params, n) - getattr(TRUTH, n)) for n in names)
        assert r.converged and err < 0.01, (a_zz, a, fixed)


# acceptance 6: SQ at the searched STA, find_single_transition_axis(SYS, 40.3),
# and its first start, the truth's tensor scaled by 1 +- 0.2 from default_rng(7)
A6_DESIGN = [(5.01, 0.0, "sq_frequency")] + STA_PHI[1:]
A6_FACTORS = 1.0 + 0.2 * np.random.default_rng(7).choice([-1.0, 1.0], size=4)
A6_START = FitParams(
    *(v * f for v, f in zip(dataclasses.astuple(TRUTH)[:4], A6_FACTORS)), b=40.3
)


@pytest.mark.parametrize("seed, max_iterations, reason", [
    (None, 500, "damping_cap"),  # noiseless: rejected at the rounding floor
    (101, 500, "stationary"),
    (104, 500, "chi2_stalled"),
    (100, 5, "max_iterations"),
])
def test_fit_stop_reason_and_model_calls(monkeypatch, seed, max_iterations, reason):
    # one model call for the start, one per pass, and one for the
    # covariance after a branch flip at most
    ds = synthesize_dataset(SYS, b=40.3, design=A6_DESIGN,
                            noise_sigma=None if seed is None else NOISE, seed=seed or 0)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return _forward_model(*args, **kwargs)

    monkeypatch.setattr(estimation, "_forward_model", counting)
    r = fit_hyperfine(ds, A6_START, max_iterations=max_iterations)
    assert r.stop_reason == reason
    assert r.converged == (reason != "max_iterations")
    assert r.n_iterations <= max_iterations
    assert len(calls) <= r.n_iterations + 2


@functools.lru_cache(maxsize=1)
def a6_fits():
    """(seed, dataset, fit) of acceptance 6's first start on seeds 100-109."""
    out = []
    for seed in range(100, 110):
        ds = synthesize_dataset(SYS, b=40.3, design=A6_DESIGN, noise_sigma=NOISE, seed=seed)
        out.append((seed, ds, fit_hyperfine(ds, A6_START)))
    return out


def test_converged_fit_is_stationary():
    # a restart from a converged fit finds no lower chi^2; a loop that let
    # rejected trials count toward convergence stopped seed 108 after 7
    # passes, 2.6 % above its minimum
    for seed, ds, r in a6_fits():
        assert r.converged
        assert fit_hyperfine(ds, r.params).chi2 >= r.chi2 * (1.0 - 1e-9), seed


def test_stationary_stop_is_certified():
    # a "stationary" stop has a Gauss-Newton decrement 1/4 g^T (J^T J)^-1 g,
    # the chi^2 drop of a full undamped step, of at most 1e-10 chi^2. The
    # fit takes it in its step chart; it is the same in PARAM_IDS, where it
    # is recomputed here from _jacobian at the returned params. The restart
    # of test_converged_fit_is_stationary covers these fits too
    stationary = [(seed, ds, r) for seed, ds, r in a6_fits() if r.stop_reason == "stationary"]
    assert len(stationary) >= 3
    for seed, ds, r in stationary:
        data, vec = _FitData(ds), r.params.as_vector()
        resid = (_forward_model(SYS, vec, data) - data.values) / data.sigmas
        jac = _jacobian(SYS, vec, data) / data.sigmas[:, None]
        grad = 2.0 * jac.T @ resid
        assert r.converged and math.fsum(resid * resid) == r.chi2
        assert 0.25 * grad @ np.linalg.solve(jac.T @ jac, grad) <= 1e-10 * r.chi2, seed


def test_pass_budget():
    # a guard on the fit's pass count: these ten fits took 533 passes before
    # the q chart and the stationary stop, 429 with them, and 352 with the
    # gain ratio of the velocity alone and acceleration on every valley step;
    # a change that gives up that gain fails here, not only in the benchmark.
    # A change that cuts passes further records its own count
    total = sum(r.n_iterations for _, _, r in a6_fits())
    assert abs(total - 352) <= 0.05 * 352, total


def test_rejected_pass_count():
    # n_rejected counts the passes whose trial was not taken; each fit takes
    # at least one step. These ten fits reject 92 of their 336 passes
    for _, _, r in a6_fits():
        assert 0 <= r.n_rejected < r.n_iterations
    total = sum(r.n_rejected for _, _, r in a6_fits())
    assert abs(total - 92) <= 0.05 * 92, total
    # a trailing field with a default: FitResult's older constructors still work
    r = a6_fits()[0][2]
    assert estimation.FitResult(r.params, r.sigmas, r.chi2, r.n_iterations, r.converged,
                                r.residuals, r.stop_reason).n_rejected == 0


def test_trials_keep_within_the_psi_cap(monkeypatch):
    # every trial turns psi = atan2(a, a_zz) by at most _PSI_CAP from the
    # vector of its pass's Jacobian, the geodesic acceleration included
    jac_vec, turns = [None], []

    def recording_jacobian(params, vec, data, keep=None):
        jac_vec[0] = np.array(vec)
        return _jacobian(params, vec, data, keep)

    def recording_model(params, vec, data, keep=None):
        if jac_vec[0] is not None:
            psi0, psi = (math.atan2(v[3], v[2]) for v in (jac_vec[0], vec))
            turns.append(abs(math.remainder(psi - psi0, 2.0 * math.pi)))
        return _forward_model(params, vec, data, keep)

    datasets = [synthesize_dataset(SYS, b=40.3, design=A6_DESIGN, noise_sigma=NOISE, seed=seed)
                for seed in range(100, 110)]
    monkeypatch.setattr(estimation, "_jacobian", recording_jacobian)
    monkeypatch.setattr(estimation, "_forward_model", recording_model)
    for ds in datasets:
        jac_vec[0] = None
        fit_hyperfine(ds, A6_START)
    assert len(turns) > 300
    assert max(turns) <= estimation._PSI_CAP * (1.0 + 1e-12), max(turns)


def test_q_chart_round_trip_and_fallback(monkeypatch):
    # q = sign(a_xx) hypot(a_xx, a) carries the sign of a_xx, so the chart
    # returns every vector with a_xx != 0
    for sx, sa in itertools.product((1.0, -1.0), repeat=2):
        vec = np.array([sx * 166.9, 122.9, -90.0, sa * 90.3, 40.3, 1.5])
        assert np.abs(_Q.back(_Q.to(vec)) - vec).max() <= 1e-12
    # the fit steps in the q chart only where a_xx, a_zz and a are free,
    # r >= _VALLEY_R and |a_xx| >= _Q_SHARE q; elsewhere in (r, psi). Both
    # charts reach the valley chart's ``to`` once per linearization
    charts, to_valley = [], estimation._ValleyChart.to

    def recording(chart, vec):
        charts.append((abs(vec[0]) >= estimation._Q_SHARE * math.hypot(vec[0], vec[3]),
                       chart is _Q))
        return to_valley(chart, vec)

    monkeypatch.setattr(estimation._ValleyChart, "to", recording)
    ds = synthesize_dataset(SYS, b=40.3, design=DESIGN2)
    r = fit_hyperfine(ds, FitParams(15.0, 120.0, 90.0, -90.3, 40.3))
    err = np.abs(r.params.as_vector() - TRUTH.as_vector()).max()
    assert r.converged and err < 0.01
    assert charts[0] == (False, False) and (True, True) in charts
    assert all(share == q for share, q in charts)
    charts.clear()
    r = fit_hyperfine(ds, dataclasses.replace(TRUTH, a_zz=80.0, a=-80.0), fixed={"a_xx"})
    assert r.converged and charts and not any(q for _, q in charts)


def test_trial_outside_the_q_chart_is_a_rejected_pass(monkeypatch):
    # no a_xx has q^2 <= a^2: the q chart's back raises ValueError, by
    # math and without a RuntimeWarning
    u = _Q.to(TRUTH.as_vector())
    for q in (0.0, u[2] * math.sin(u[3]), -0.5 * u[2] * math.sin(u[3])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the valley chart"):
                _Q.back(np.r_[q, u[1:]])
    # in a fit, the first q-chart trial moved to q = a / 2: that pass is
    # rejected with no model call, and the fit goes on
    ds = synthesize_dataset(SYS, b=40.3, design=A6_DESIGN, noise_sigma=NOISE, seed=101)
    back, forced, calls = estimation._QChart.back, [], []

    def forcing(chart, u):
        if not forced:
            forced.append(u[0])
            u = np.r_[0.5 * u[2] * math.sin(u[3]), u[1:]]
        return back(chart, u)

    def counting(*args, **kwargs):
        calls.append(1)
        return _forward_model(*args, **kwargs)

    monkeypatch.setattr(estimation._QChart, "back", forcing)
    monkeypatch.setattr(estimation, "_forward_model", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = fit_hyperfine(ds, A6_START)
    assert len(forced) == 1 and r.converged
    assert len(calls) == r.n_iterations  # the start's, and one per pass but the forced


def test_fit_stops_on_a_small_gradient():
    # noiseless values at sigma 1 MHz from just off the truth: each taken
    # step still halves chi^2, but the gradient is below 1e-8
    ds = synthesize_dataset(SYS, b=40.3, design=A6_DESIGN)
    ds = ScanDataset(dataclasses.replace(p, sigma=1.0) for p in ds.points)
    r = fit_hyperfine(ds, dataclasses.replace(TRUTH, a_xx=TRUTH.a_xx + 1e-3))
    assert r.stop_reason == "grad_small" and r.converged
    assert r.chi2 < 1e-12


def test_acceleration_adds_no_eigensolve(monkeypatch):
    # the geodesic acceleration of a valley step reads the pass's own
    # solve: eigh runs exactly as often as the forward model
    ds = synthesize_dataset(SYS, b=40.3, design=A6_DESIGN)
    counts = collections.Counter()
    # r of the vector each Jacobian and kernel call works at; a kernel
    # call reads the keep dict of its vector's Jacobian
    radii, r_of_keep = collections.defaultdict(list), {}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            if name == "jacobian":
                r_of_keep[id(args[3])] = math.hypot(args[1][2], args[1][3])
                radii[name].append(r_of_keep[id(args[3])])
            elif name == "second_directional":
                radii[name].append(r_of_keep[id(args[1])])
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    for name in ("forward_model", "jacobian", "second_directional"):
        monkeypatch.setattr(
            estimation, "_" + name, counting(name, getattr(estimation, "_" + name))
        )
    r = fit_hyperfine(ds, A6_START)
    assert r.converged and counts["second_directional"] > 0
    assert counts["eigh"] == counts["forward_model"] == r.n_iterations + 1
    # from r = 0 the fit steps in PARAM_IDS coordinates, where the kernel
    # never runs, until r reaches _VALLEY_R; from there it runs on every
    # pass, at the pass's taken vector (the last Jacobian is the covariance's)
    radii.clear()
    ds = synthesize_dataset(SYS, b=40.3, design=DESIGN2)
    r = fit_hyperfine(ds, FitParams(170.0, 120.0, 0.0, 0.0, 40.3), fixed={"b"})
    assert r.converged
    steps = radii["jacobian"][:-1]
    assert steps[0] == 0.0 and sum(x < _VALLEY_R for x in steps) > 1
    valley = [x for x in steps if x >= _VALLEY_R]
    assert valley and set(radii["second_directional"]) == set(valley)
    assert len(radii["second_directional"]) >= len(valley)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_curvature_takes_the_plain_step(monkeypatch, bad):
    # where two levels of a solve coincide the kernel gives nan at the
    # points of that solve, without a warning; a non-finite second
    # derivative fails the acceleration test, so the fit is the one that
    # never accelerates
    ds = synthesize_dataset(SYS, b=40.3, design=A6_DESIGN, noise_sigma=NOISE, seed=101)
    data, vec, keep = _FitData(ds), A6_START.as_vector(), {}
    _forward_model(SYS, vec, data, keep)
    _jacobian(SYS, vec, data, keep)
    keep["w"], d, k = keep["w"].copy(), data.dist2[0], keep["states"][0]
    keep["w"][d, (k + 1) % 6] = keep["w"][d, k]
    curv = _second_directional(data, keep, np.ones(6), np.ones(6))
    assert np.isnan(curv[0]) and np.isfinite(curv[data.dist != data.dist[0]]).all()
    accelerated = fit_hyperfine(ds, A6_START)
    # a zero second derivative makes the acceleration zero: the plain fit
    monkeypatch.setattr(estimation, "_second_directional",
                        lambda data, keep, dx, ddx: np.zeros(len(data.dist)))
    plain = fit_hyperfine(ds, A6_START)
    assert plain.n_iterations > accelerated.n_iterations
    monkeypatch.setattr(estimation, "_second_directional",
                        lambda data, keep, dx, ddx: np.full(len(data.dist), bad))
    r = fit_hyperfine(ds, A6_START)
    assert r.chi2 == plain.chi2 and r.n_iterations == plain.n_iterations


def test_zq_point_above_the_crossing_fits():
    # at 1200 G the ms-1 states lie below ms0; a ZQ point is the gap of the
    # labelled ms0 pair, as synthesize_dataset has it, not of the two
    # lowest levels
    truth = dataclasses.replace(TRUTH, b=1200.0)
    design = [(2.0, 0.0, "zq_frequency"), (0.0, 0.0, "sq_frequency"),
              (2.0, 30.0, "sq_frequency")]
    ds = synthesize_dataset(SYS, b=1200.0, design=design)
    model = _forward_model(SYS, truth.as_vector(), _FitData(ds))
    assert np.abs(model - [p.value for p in ds.points]).max() < 1e-9
    start = FitParams(170.2, 120.4, 91.8, -88.5, 1200.0)
    r = fit_hyperfine(ds, start, fixed={"b", "phi_offset"})
    assert r.converged
    for n in ("a_xx", "a_yy", "a_zz", "a"):
        assert abs(getattr(r.params, n) - getattr(truth, n)) < 1e-6


def test_indexed_sq_point_fits_its_line():
    # a row with transition_index is fitted to that line even when another
    # line lies nearer its value; without the index the nearest line wins
    lines = synthesize_dataset(SYS, b=40.3, design=[(40.0, 50.0, "sq_frequency")]).points
    moved = dataclasses.replace(lines[0], value=lines[2].value + 0.1)
    unindexed = dataclasses.replace(moved, transition_index=None)
    model = _forward_model(SYS, TRUTH.as_vector(), _FitData(ScanDataset((moved, unindexed))))
    assert abs(model[0] - lines[0].value) < 1e-9
    assert abs(model[1] - lines[2].value) < 1e-9


def test_forward_model_matches_synthesized_lines_near_90_degrees():
    # near theta = 90 the ms_plus and ms_minus states mix; the model labels
    # them as synthesize_dataset does and returns all four lines
    tensor = HyperfineTensor(
        177.8074522941026, 111.78221609527414, 91.16277332713015, -96.98895383140392
    )
    b = 34.47580701710749
    ds = synthesize_dataset(
        SystemParams(tensor=tensor), b=b,
        design=[(88.62727189633158, 135.32904274474893, "sq_frequency")],
    )
    vec = FitParams(tensor.a_xx, tensor.a_yy, tensor.a_zz, tensor.a, b).as_vector()
    model = _forward_model(SystemParams(tensor=tensor), vec, _FitData(ds))
    assert np.abs(model - [p.value for p in ds.points]).max() < 1e-9


def test_forward_model_and_jacobian_mirror_phi():
    # phi -> -phi (data and phi_offset) conjugates every Hamiltonian: the
    # model is unchanged, and so is the Jacobian but for the sign of its
    # phi_offset column
    ds = synthesize_dataset(SYS, b=40.3, design=DESIGN2, noise_sigma=NOISE, seed=4)
    mirrored = ScanDataset(tuple(dataclasses.replace(p, phi=-p.phi) for p in ds.points))
    vec = TRUTH.as_vector() + np.array([3.0, -2.0, 5.0, 4.0, 0.5, 2.0])
    flip = vec * [1, 1, 1, 1, 1, -1]
    data, data_m = _FitData(ds), _FitData(mirrored)
    model, model_m = _forward_model(SYS, vec, data), _forward_model(SYS, flip, data_m)
    assert np.abs(model - model_m).max() < 1e-9
    jac, jac_m = _jacobian(SYS, vec, data), _jacobian(SYS, flip, data_m)
    assert np.abs(jac - jac_m * [1, 1, 1, 1, 1, -1]).max() < 1e-9 * np.abs(jac).max()


def test_zq_only_fit_is_degenerate(monkeypatch):
    design = [(40.0, float(p), "zq_frequency") for p in np.linspace(-90, 90, 19)]
    ds = synthesize_dataset(SYS, b=40.3, design=design, noise_sigma=None, seed=0)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return _forward_model(*args, **kwargs)

    monkeypatch.setattr(estimation, "_forward_model", counting)
    with pytest.raises(ValueError, match="degenerate parameter direction"):
        fit_hyperfine(ds, TRUTH)
    # the rank check of the first Jacobian raises before any step is tried
    assert len(calls) == 1


@pytest.mark.parametrize("design, start", [
    (DESIGN2, FitParams(160.0, 130.0, 95.0, -85.0, 40.3, 0.0)),
    (A6_DESIGN, A6_START),
], ids=["two_theta", "sta_phi"])
def test_rank_checked_at_the_ends_only(monkeypatch, design, start):
    # on the first Jacobian and on the final covariance, never in mid-fit
    ds = synthesize_dataset(SYS, b=40.3, design=design, noise_sigma=NOISE, seed=100)
    shapes = []

    def counting(jac, free):
        shapes.append(jac.shape)
        return check_rank(jac, free)

    check_rank = estimation._check_rank
    monkeypatch.setattr(estimation, "_check_rank", counting)
    r = fit_hyperfine(ds, start)
    assert r.converged and r.n_iterations > 2
    assert shapes == [(len(ds), 6)] * 2


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
    with pytest.raises(ValueError, match="4 points cannot constrain 6 free parameters"):
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


def test_fit_entry_checks_name_their_fault():
    ds = synthesize_dataset(SYS, b=40.3, design=DESIGN2, noise_sigma=None, seed=0)
    with pytest.raises(ValueError, match="^initial guess must be finite$"):
        fit_hyperfine(ds, dataclasses.replace(TRUTH, a=np.nan))
    amp = synthesize_dataset(SYS, b=40.3, design=[(40.0, 0.0, "zq_amplitude")])
    with pytest.raises(ValueError, match="zq_amplitude points cannot enter the frequency fit"):
        fit_hyperfine(ScanDataset(ds.points + amp.points), TRUTH)
    with pytest.raises(ValueError, match=re.escape("no Lambda system at theta=40.000 phi=0.000")):
        synthesize_dataset(SYS, b=0.0, design=[(40.0, 0.0, "zq_amplitude")])


def test_check_rank_names_a_dead_phi_offset_column():
    # at theta = 0 the field has no azimuth, so the phi_offset column is exactly 0:
    # with all six free it is the dead column, alone it is an all-zero Jacobian
    design = [(0.0, 0.0, "sq_frequency"), (0.0, 0.0, "zq_frequency"),
              (0.0, 30.0, "zq_frequency")]
    ds = synthesize_dataset(SYS, b=40.3, design=design)
    assert len(ds) == 6
    assert not _jacobian(SYS, TRUTH.as_vector(), _FitData(ds))[:, 5].any()
    for fixed in (frozenset(), frozenset(PARAM_IDS[:5])):
        with pytest.raises(ValueError, match="^degenerate parameter direction: phi_offset$"):
            fit_hyperfine(ds, TRUTH, fixed=fixed)


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
        sysk = SystemParams(tensor=HyperfineTensor(tr.a_xx, tr.a_yy, tr.a_zz, tr.a))
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


def test_fit_reports_the_principal_branch():
    # (a, phi_offset) -> (-a, phi_offset +- 180) leaves the model unchanged;
    # a fit that ends on the other branch reports the principal one, with
    # the covariance of the principal vector, not of the solve it ended on
    ds = synthesize_dataset(SYS, b=40.3, design=DESIGN2, noise_sigma=NOISE, seed=5)
    start = FitParams(170.2, 120.4, 91.8, -88.5, 40.3, 0.0)
    ref = fit_hyperfine(ds, start)
    assert ref.converged and -90.0 < ref.params.phi_offset <= 90.0 and ref.params.a < 0
    want = ref.params.as_vector()
    scale = np.array([ref.sigmas[n] for n in PARAM_IDS])
    for a, phi_offset, tol in (
        (-start.a, 180.0, 1e-9),  # the gauge image of the start: the same walk
        (-start.a, -180.0, 1e-9),
        (start.a, 180.0, 1e-4),  # a different start that ends on the far branch
    ):
        r = fit_hyperfine(ds, dataclasses.replace(start, a=a, phi_offset=phi_offset))
        assert r.converged
        assert -90.0 < r.params.phi_offset <= 90.0 and r.params.a < 0
        assert np.all(np.abs(r.params.as_vector() - want) <= tol * scale)
        sig = np.array([r.sigmas[n] for n in PARAM_IDS])
        assert np.all(np.abs(sig - scale) <= tol * scale)


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

    def vertex(ds):
        # weighted least squares of value = c2 x^2 + c1 x + c0 over phi: the
        # vertex -c1 / (2 c2) and its first-order sigma
        x = np.array([p.phi for p in ds.points])
        (c2, c1, _), cov = np.polyfit(x, [p.value for p in ds.points], 2,
                                      w=[1.0 / p.sigma for p in ds.points], cov="unscaled")
        grad = np.array([c1 / (2.0 * c2 * c2), -1.0 / (2.0 * c2), 0.0])
        return -c1 / (2.0 * c2), math.sqrt(grad @ cov @ grad)

    x0, _ = vertex(negated(None, 0))
    assert abs(x0 - ph_a) < 1e-9

    xn, sn = vertex(negated({"zq_frequency": 0.2}, 11))
    assert sn < 1.5
    assert abs(xn - ph_a) < 3.0 * sn


def test_sensitivity_at_sta():
    sta = FieldOrientation(40.3, STA_THETA, 0.0)
    frozen = {"a_xx": 0.044393, "a_yy": 0.032968, "a_zz": 0.340495, "a": 0.374518}
    for which, want in frozen.items():
        rep = sensitivity_c(SYS, sta, which)
        assert abs(rep.c_value - want) < 1e-3


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


def test_precision_propagation():
    assert abs(precision_propagation(0.2, 0.35) - 0.2 / 0.35) < 1e-12
    assert precision_propagation(0.0, 0.1) == 0.0
    with pytest.raises(ValueError, match="unobservable"):
        precision_propagation(0.2, 0.0)
    with pytest.raises(ValueError):
        precision_propagation(-0.1, 0.3)
    for delta, c in ((math.nan, 1.0), (math.inf, 1.0), (0.2, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            precision_propagation(delta, c)
    with pytest.raises(ValueError, match="unobservable"):
        precision_propagation(0.2, math.nan)


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


def _full_grid_sta(params, b):
    """The STA search solving every grid point, with linspace phi offsets."""
    thetas = np.arange(0.0, 90.0 + 1e-9, 2.0)
    phis = np.arange(-90.0, 90.0 + 1e-9, 2.0)
    for span in (None, 2.0, 0.2, 0.02):
        if span is not None:
            offsets = np.linspace(-span, span, 21)
            thetas = np.clip(th + offsets, 0.0, 90.0)
            phis = np.clip(ph + offsets, -90.0, 90.0)
        rows = 500 // len(phis)
        grid = np.concatenate([
            _amplitude_ratios(params, b, thetas[k : k + rows, None], phis)
            for k in range(0, len(thetas), rows)
        ])
        i, j = np.unravel_index(np.argmin(grid), grid.shape)
        th, ph, r = float(thetas[i]), float(phis[j]), float(grid[i, j])
    return th, ph, r


def test_sta_search_equals_the_full_grid():
    rng = np.random.default_rng(43)
    cases = [(SYS, 40.3)]
    for _ in range(16):
        factors = rng.uniform(0.9, 1.1, 4)
        tensor = HyperfineTensor(*(float(x) for x in TRUTH.as_vector()[:4] * factors))
        cases.append((SystemParams(tensor=tensor), float(rng.uniform(20.0, 60.0))))
    for params, b in cases:
        got = find_single_transition_axis(params, b)
        assert [x.hex() for x in got] == [x.hex() for x in _full_grid_sta(params, b)]


def test_sta_search_returns_the_minus_phi_member_off_axis():
    # an STA off the phi = 0 plane comes as a (theta, +-phi) pair of equal
    # ratio; the first minimum in theta-major order is the -phi one
    params = SystemParams(tensor=HyperfineTensor(-221.6, -170.2, -68.3, 121.0))
    th, ph, ratio = find_single_transition_axis(params, 57.4)
    th_full, ph_full, ratio_full = _full_grid_sta(params, 57.4)
    assert ph_full > 1.0
    assert (th, ph) == (th_full, -ph_full)
    assert abs(ratio - ratio_full) < 1e-12


def test_sta_search_solves_the_phi_mirror_once(monkeypatch):
    solved = []
    eigh = np.linalg.eigh

    def counting(a):
        solved.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    find_single_transition_axis(SYS, 40.3)
    # the reference axis lies on phi = 0: the plane pass alone, 46 coarse
    # thetas and three zooms of 21, each one stacked solve
    assert solved == [46, 21, 21, 21]
    solved.clear()
    off_plane = SystemParams(tensor=HyperfineTensor(-221.6, -170.2, -68.3, 121.0))
    find_single_transition_axis(off_plane, 57.4)
    # an off-plane axis: the plane pass finds none, then the 2D pass solves
    # the 46 x 46 phi >= 0 half of the 2 degree grid (ten rows per solve)
    # and three 21 x 21 zooms off phi = 0
    assert solved[:4] == [46, 21, 21, 21]
    assert sum(solved[4:]) == 46 * 46 + 3 * 21 * 21 == 3439


def test_sta_plane_pass_keeps_the_full_grid_answer():
    # wide-family tensors with random signs: where the full grid finds its
    # axis on phi = 0 the bits are equal; where it finds one off the plane,
    # or none, the result is its answer (or the answer's mirror) or an axis
    # on the plane below the threshold; it never raises where the grid returns
    rng = np.random.default_rng(0)
    for _ in range(24):
        vec = TRUTH.as_vector()[:4] * rng.uniform(0.5, 1.5, 4) * rng.choice([-1.0, 1.0], 4)
        params = SystemParams(tensor=HyperfineTensor(*(float(x) for x in vec)))
        b = float(rng.uniform(5.0, 100.0))
        th_full, ph_full, ratio_full = _full_grid_sta(params, b)
        try:
            th, ph, ratio = find_single_transition_axis(params, b)
        except ValueError:
            assert not ratio_full < 0.05
            continue
        assert ratio < 0.05
        if ph_full == 0.0 and ratio_full < 0.05:
            got, full = (th, ph, ratio), (th_full, 0.0, ratio_full)
            assert [x.hex() for x in got] == [x.hex() for x in full]
        elif ph != 0.0:
            assert (th, abs(ph)) == (th_full, abs(ph_full))
            assert abs(ratio - ratio_full) < 1e-12


@pytest.mark.parametrize(
    "tensor, b, theta",
    [((242.08, 79.17, -130.38, 73.31), 43.87, 0.206), ((12.0, 11.0, 13.7, -2.0), 40.3, 0.45)],
)
def test_sta_search_finds_an_axis_next_to_the_pole(tensor, b, theta):
    # at theta = 0 every phi is the same field; the 2D grid's coarse tie
    # goes to (0, -90), and zooms around phi = -90 missed these axes
    th, ph, ratio = find_single_transition_axis(SystemParams(tensor=HyperfineTensor(*tensor)), b)
    assert ph == 0.0
    assert abs(th - theta) < 0.01
    assert ratio < 1e-3


def test_find_single_transition_axis_no_off_diagonal():
    sys0 = SystemParams(tensor=HyperfineTensor(150.0, 120.0, 90.0, 0.0))
    th, ph, ratio = find_single_transition_axis(sys0, 40.3)
    assert th < 0.1
    assert ratio < 1e-3
    with pytest.raises(ValueError, match=re.escape("b must be finite and > 0")):
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
