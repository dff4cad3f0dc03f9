"""Principal-axis decomposition and uncertainty propagation."""

import dataclasses

import numpy as np
import pytest

from nvbeat.spin_core import HyperfineTensor
from nvbeat.cli import main
from nvbeat.tensor_geometry import principal_axes, principal_sigmas

REF = HyperfineTensor(166.9, 122.9, 90.0, -90.3)


def diag_cov(a_xx=0.0, a_yy=0.0, a_zz=0.0, a=0.0):
    """The covariance of uncorrelated components with these sigmas."""
    return np.diag(np.square([a_xx, a_yy, a_zz, a]))


def tensor_matrix(t):
    return np.array([[t.a_xx, 0.0, t.a], [0.0, t.a_yy, 0.0], [t.a, 0.0, t.a_zz]])


def test_reference_values():
    ax = principal_axes(REF)
    assert abs(ax.values[0] - 30.30473776) < 1e-6
    assert ax.values[1] == 122.9
    assert abs(ax.values[2] - 226.5952622) < 1e-6
    assert abs(ax.theta_p - 56.53222225) < 1e-6
    assert abs(ax.theta_p_alt - 123.4677777) < 1e-6


def test_invariants_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        t = HyperfineTensor(*(float(x) for x in rng.uniform(-200, 200, size=4)))
        ax = principal_axes(t)
        small, y, big = ax.values
        assert small <= big
        assert y == t.a_yy
        assert abs((small + big) - (t.a_xx + t.a_zz)) < 1e-9 * max(1, abs(small + big))
        assert abs(small * big - (t.a_xx * t.a_zz - t.a**2)) < 1e-6
        assert abs(ax.theta_p + ax.theta_p_alt - 180.0) < 1e-12
        r = ax.rotation
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) > 0
        rebuilt = r @ np.diag(ax.values) @ r.T
        assert np.max(np.abs(rebuilt - tensor_matrix(t))) < 1e-9


def test_diagonal_tensor_cases():
    # no off-diagonal coupling: the big in-plane axis is x or z outright
    assert principal_axes(HyperfineTensor(150.0, 100.0, 90.0, 0.0)).theta_p == 90.0
    assert principal_axes(HyperfineTensor(90.0, 100.0, 150.0, 0.0)).theta_p == 0.0
    # isotropic in-plane block: angle pinned to the z axis by convention
    iso = principal_axes(HyperfineTensor(50.0, 70.0, 50.0, 0.0))
    assert iso.theta_p == 0.0
    assert iso.values[0] == iso.values[2] == 50.0


def test_pure_off_diagonal():
    ax = principal_axes(HyperfineTensor(0.0, 10.0, 0.0, 5.0))
    assert abs(ax.theta_p - 45.0) < 1e-12
    assert abs(ax.values[0] + 5.0) < 1e-12
    assert abs(ax.values[2] - 5.0) < 1e-12


def test_principal_prints_the_values_by_magnitude(tmp_path, capsys):
    # the display order loses the (small, y, big) labels: |values| descending
    cfg = tmp_path / "t.cfg"
    cfg.write_text("tensor.a_xx = 10\ntensor.a_yy = 122.9\ntensor.a_zz = -200\ntensor.a = 3\n")
    assert main(["--config", str(cfg), "principal"]) == 0
    rows = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()[1:])
    ax = principal_axes(HyperfineTensor(10.0, 122.9, -200.0, 3.0))
    assert [rows[k] for k in ("principal_small", "principal_y", "principal_big")] == [
        "%.10g" % v for v in ax.values]
    assert rows["magnitude_sorted"] == "-200.0428484 122.9 10.0428484"


def test_principal_sigmas_monte_carlo():
    sig = {"a_xx": 0.02, "a_yy": 0.05, "a_zz": 0.03, "a": 0.04}
    prop = principal_sigmas(REF, diag_cov(**sig))
    rng = np.random.default_rng(8)
    draws = {"small": [], "y": [], "big": [], "tp": []}
    for _ in range(4000):
        t = HyperfineTensor(
            REF.a_xx + rng.normal(0, sig["a_xx"]),
            REF.a_yy + rng.normal(0, sig["a_yy"]),
            REF.a_zz + rng.normal(0, sig["a_zz"]),
            REF.a + rng.normal(0, sig["a"]),
        )
        ax = principal_axes(t)
        draws["small"].append(ax.values[0])
        draws["y"].append(ax.values[1])
        draws["big"].append(ax.values[2])
        draws["tp"].append(ax.theta_p)
    pairs = (
        (prop["value_small"], np.std(draws["small"])),
        (prop["value_y"], np.std(draws["y"])),
        (prop["value_big"], np.std(draws["big"])),
        (prop["theta_p"], np.std(draws["tp"])),
    )
    for propagated, empirical in pairs:
        assert abs(propagated - empirical) < 0.08 * empirical


def test_principal_sigmas_covariance_path():
    with pytest.raises(ValueError, match="4x4"):
        principal_sigmas(REF, np.eye(3))


def test_y_sigma_passthrough():
    out = principal_sigmas(REF, diag_cov(a_yy=0.7))
    assert abs(out["value_y"] - 0.7) < 1e-6
    assert out["value_small"] < 1e-9


def random_tensors(seed, n, r_min=1.0):
    """Seeded tensors with in-plane radius r >= r_min MHz."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        t = HyperfineTensor(*(float(x) for x in rng.uniform(-200, 200, size=4)))
        if np.hypot(0.5 * (t.a_xx - t.a_zz), t.a) >= r_min:
            out.append(t)
    return out


def test_principal_sigmas_match_central_differences():
    # the exact Jacobian against a central difference of principal_axes, one
    # full non-diagonal covariance per tensor; theta_p = |phi| has kinks at 0
    # and 90 deg, so tensors within 1 deg of them are left out
    rng = np.random.default_rng(9)
    order = ("a_xx", "a_yy", "a_zz", "a")
    step = 1e-4
    checked = 0
    for t in random_tensors(10, 300):
        base = principal_axes(t)
        if not 1.0 <= base.theta_p <= 89.0:
            continue
        jac = np.zeros((4, 4))
        for c, name in enumerate(order):
            hi = principal_axes(dataclasses.replace(t, **{name: getattr(t, name) + step}))
            lo = principal_axes(dataclasses.replace(t, **{name: getattr(t, name) - step}))
            jac[:3, c] = (np.array(hi.values) - np.array(lo.values)) / (2 * step)
            jac[3, c] = (hi.theta_p - lo.theta_p) / (2 * step)
        root = rng.normal(size=(4, 4))
        cov = root @ root.T
        expected = np.sqrt(np.einsum("ij,jk,ik->i", jac, cov, jac))
        got = principal_sigmas(t, cov)
        for k, key in enumerate(("value_small", "value_y", "value_big", "theta_p")):
            assert abs(got[key] - expected[k]) <= 1e-6 * expected[k], (t, key)
        checked += 1
    assert checked > 250


def test_gauge_flips_only_the_xz_rotation_entries():
    # (a, phi_offset) -> (-a, phi_offset + 180): same values and theta_p,
    # phi -> -phi, so the x component of the large axis flips sign
    flip = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
    for t in random_tensors(11, 200):
        ax = principal_axes(t)
        mirror = principal_axes(dataclasses.replace(t, a=-t.a))
        assert mirror.values == ax.values
        assert mirror.theta_p == ax.theta_p
        assert mirror.theta_p_alt == ax.theta_p_alt
        assert np.array_equal(mirror.rotation, flip * ax.rotation)


def test_principal_sigmas_raise_without_an_in_plane_frame():
    with pytest.raises(ValueError, match="undefined"):
        principal_sigmas(HyperfineTensor(50.0, 70.0, 50.0, 0.0), diag_cov(a=0.1))


S = np.sqrt(0.5)


@pytest.mark.parametrize(
    "tensor, theta_p, rotation",
    [
        # a = +0.0 and -0.0 with a_zz < a_xx: the large axis is x
        (HyperfineTensor(150.0, 100.0, 90.0, 0.0), 90.0, [[0, 0, 1], [0, 1, 0], [-1, 0, 0]]),
        (HyperfineTensor(150.0, 100.0, 90.0, -0.0), 90.0, [[0, 0, 1], [0, 1, 0], [-1, 0, 0]]),
        (HyperfineTensor(90.0, 100.0, 150.0, 0.0), 0.0, np.eye(3)),
        (HyperfineTensor(50.0, 70.0, 50.0, 0.0), 0.0, np.eye(3)),
        (HyperfineTensor(50.0, 70.0, 50.0, -0.0), 0.0, np.eye(3)),
        (HyperfineTensor(0.0, 10.0, 0.0, 5.0), 45.0, [[S, 0, S], [0, 1, 0], [-S, 0, S]]),
        (HyperfineTensor(0.0, 10.0, 0.0, -5.0), 45.0, [[S, 0, -S], [0, 1, 0], [S, 0, S]]),
    ],
)
def test_edge_case_frames(tensor, theta_p, rotation):
    ax = principal_axes(tensor)
    assert abs(ax.theta_p - theta_p) <= 1e-12
    assert np.max(np.abs(ax.rotation - np.array(rotation, dtype=float))) <= 1e-12


def test_theta_p_sigma_folds_at_0_and_90_deg():
    # theta_p = |phi| half a degree from the fold at 0 deg: the first-order
    # sigma (0.955 deg) overstates the scatter of theta_p, which the folded
    # normal gives; the mirror tensor sits as far from the fold at 90 deg
    vec = np.array([90.0, 100.0, 150.0, 0.5235])
    cov = np.eye(4)  # 1 MHz on each component
    out = principal_sigmas(HyperfineTensor(*vec), cov)
    assert abs(out["theta_p"] - 0.9547116383210615) < 1e-12
    rng = np.random.default_rng(20)
    draws = vec + rng.normal(size=(20000, 4))
    scatter = np.std([principal_axes(HyperfineTensor(*map(float, x))).theta_p for x in draws])
    assert abs(out["theta_p_folded"] - scatter) < 0.03 * scatter
    near_90 = HyperfineTensor(150.0, 100.0, 90.0, 0.5235)
    assert abs(principal_axes(near_90).theta_p - 89.5) < 0.01
    mirror = principal_sigmas(near_90, cov)["theta_p_folded"]
    assert abs(mirror - out["theta_p_folded"]) <= 1e-12 * mirror


def test_theta_p_sigma_far_from_the_folds_is_first_order():
    at_45 = principal_sigmas(HyperfineTensor(100.0, 120.0, 100.0, 50.0), np.eye(4))
    assert abs(at_45["theta_p"] - 0.40514234227069773) <= 1e-12 * at_45["theta_p"]
    for out in (at_45, principal_sigmas(REF, diag_cov(a=0.04))):
        assert abs(out["theta_p_folded"] - out["theta_p"]) <= 1e-12 * out["theta_p"]
    assert principal_sigmas(REF, diag_cov(a_yy=0.7))["theta_p_folded"] == 0.0
