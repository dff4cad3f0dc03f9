"""Principal-axis decomposition of the mirror-symmetric hyperfine tensor."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import HyperfineTensor


@dataclass(frozen=True)
class PrincipalAxes:
    """Principal values (MHz) and axes of the coupling tensor.

    values = (small in-plane, y, large in-plane); rotation columns are the
    matching principal directions in the NV frame (y axis second).
    theta_p is the angle between the NV z axis and the principal axis of the
    largest in-plane value; theta_p_alt = 180 - theta_p. The two are physically
    indistinguishable here and are always reported as a pair.
    """

    values: tuple
    rotation: np.ndarray
    theta_p: float
    theta_p_alt: float


def _xz_block(tensor: HyperfineTensor):
    """(mean, h, r, phi) of [[a_xx, a], [a, a_zz]]: eigenvalues mean -+ r,
    h = (a_xx - a_zz)/2, phi (rad, in (-pi/2, pi/2]) the large axis's angle from z."""
    mean = 0.5 * (tensor.a_xx + tensor.a_zz)
    h = 0.5 * (tensor.a_xx - tensor.a_zz)
    phi = 0.5 * math.atan2(2.0 * tensor.a, tensor.a_zz - tensor.a_xx)
    if phi <= -0.5 * math.pi:  # atan2(-0.0, x < 0) = -pi; -90 deg is the axis of +90
        phi += math.pi
    return mean, h, float(np.hypot(h, tensor.a)), phi


def principal_axes(tensor: HyperfineTensor) -> PrincipalAxes:
    """Diagonalize the xz block in closed form and attach the y principal value.

    Mirror symmetry makes y an exact principal axis. The large in-plane axis
    is (sin phi, 0, cos phi), phi = atan2(2a, a_zz - a_xx)/2 in (-90, 90] deg
    (0 for an isotropic block), and theta_p = |phi|. Under the gauge (a,
    phi_offset) -> (-a, phi_offset + 180) the values and theta_p do not
    change and the x component of the large axis flips sign.
    """
    mean, _, r, phi = _xz_block(tensor)
    c, s = math.cos(phi), math.sin(phi)
    theta_p = math.degrees(abs(phi))
    return PrincipalAxes(
        values=(mean - r, float(tensor.a_yy), mean + r),
        rotation=np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]),
        theta_p=theta_p,
        theta_p_alt=180.0 - theta_p,
    )


def principal_sigmas(tensor: HyperfineTensor, covariance: np.ndarray) -> dict:
    """First-order propagation of tensor uncertainties to the principal frame.

    ``covariance`` is the 4x4 covariance over (a_xx, a_yy, a_zz, a).
    Returns sigma for the three principal values and theta_p (degrees), from
    the exact derivatives dr = (h, 0, -h, 2a)/(2r) and dphi = (a, 0, -a,
    -2h)/(4r^2). theta_p = |phi| folds at 0 and 90 deg, where that slope
    overstates its scatter; 'theta_p_folded' is the sigma of the normal
    N(d, s) folded at the nearer fold, d the distance to it and s the
    first-order sigma: with z = d/s, delta = s sqrt(2/pi) exp(-z^2/2)
    - 2 d Phi(-z) and sigma = sqrt(s^2 - 2 d delta - delta^2), which is s
    far from the folds. Raises ValueError at r = 0, where the frame is
    undefined.
    """
    cov = np.asarray(covariance, dtype=float)
    if cov.shape != (4, 4):
        raise ValueError("covariance must be 4x4 over (a_xx, a_yy, a_zz, a)")
    _, h, r, phi = _xz_block(tensor)
    if r == 0.0:
        raise ValueError("principal frame undefined: a_xx == a_zz and a == 0")
    a = tensor.a
    dmean = np.array([0.5, 0.0, 0.5, 0.0])
    dr = np.array([h, 0.0, -h, 2.0 * a]) / (2.0 * r)
    dphi = np.degrees(np.array([a, 0.0, -a, -2.0 * h]) / (4.0 * r * r))
    jac = np.array([dmean - dr, [0.0, 1.0, 0.0, 0.0], dmean + dr, dphi])
    var = np.clip(np.einsum("ij,jk,ik->i", jac, cov, jac), 0.0, None)
    out = dict(zip(("value_small", "value_y", "value_big", "theta_p"), np.sqrt(var).tolist()))
    s, theta_p = out["theta_p"], math.degrees(abs(phi))
    d = min(theta_p, 90.0 - theta_p)
    z = d / s if s > 0.0 else math.inf  # s = 0: delta = 0, the sigma stays 0
    delta = s * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z) - d * math.erfc(z / 2**0.5)
    out["theta_p_folded"] = math.sqrt(s * s - 2.0 * d * delta - delta * delta)
    return out
