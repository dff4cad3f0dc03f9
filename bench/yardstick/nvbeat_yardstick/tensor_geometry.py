"""Principal-axis decomposition of the mirror-symmetric hyperfine tensor."""

from __future__ import annotations

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


def principal_axes(tensor: HyperfineTensor) -> PrincipalAxes:
    """Diagonalize the xz block analytically and attach the y principal value.

    Mirror symmetry makes y an exact principal axis; the in-plane pair comes
    from the 2x2 block [[a_xx, a], [a, a_zz]].
    """
    axx, azz, a = tensor.a_xx, tensor.a_zz, tensor.a
    mean = 0.5 * (axx + azz)
    half_diff = 0.5 * (axx - azz)
    r = np.hypot(half_diff, a)
    lam_big = mean + r
    lam_small = mean - r
    # Eigenvector of the 2x2 block for lam_big, components (x, z).
    if r == 0.0:
        vx, vz = 0.0, 1.0  # isotropic in-plane block: any axis; keep z
    else:
        # (axx - lam) vx + a vz = 0
        vx, vz = a, lam_big - axx
        if vx == 0.0 and vz == 0.0:
            vx, vz = lam_big - azz, a
        nrm = np.hypot(vx, vz)
        vx, vz = vx / nrm, vz / nrm
    theta_p = float(np.degrees(np.arccos(np.clip(abs(vz), 0.0, 1.0))))
    big_axis = np.array([vx, 0.0, vz])
    if vz < 0:
        big_axis = -big_axis
    small_axis = np.array([big_axis[2], 0.0, -big_axis[0]])
    rotation = np.column_stack([small_axis, [0.0, 1.0, 0.0], big_axis])
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] = -rotation[:, 0]
    return PrincipalAxes(
        values=(float(lam_small), float(tensor.a_yy), float(lam_big)),
        rotation=rotation,
        theta_p=theta_p,
        theta_p_alt=float(180.0 - theta_p),
    )


def magnitude_sorted(axes: PrincipalAxes) -> tuple:
    """Principal values sorted by descending |value|, for display only.

    The structural (small, y, big) labeling of PrincipalAxes.values is what
    keeps theta_p well defined; this view loses that association.
    """
    return tuple(sorted(axes.values, key=abs, reverse=True))


def principal_sigmas(
    tensor: HyperfineTensor, sigmas: dict, covariance: np.ndarray | None = None
) -> dict:
    """First-order propagation of tensor uncertainties to the principal frame.

    ``sigmas`` maps component names ('a_xx', 'a_yy', 'a_zz', 'a') to 1-sigma
    values; an optional 4x4 covariance (same order) overrides the diagonal.
    Returns sigma for the three principal values and theta_p (degrees).
    """
    order = ("a_xx", "a_yy", "a_zz", "a")
    if covariance is None:
        cov = np.diag([sigmas.get(k, 0.0) ** 2 for k in order])
    else:
        cov = np.asarray(covariance, dtype=float)
        if cov.shape != (4, 4):
            raise ValueError("covariance must be 4x4 over (a_xx, a_yy, a_zz, a)")
    base = principal_axes(tensor)
    step = 1e-5 * max(1.0, max(abs(getattr(tensor, k)) for k in order))
    jac = np.zeros((4, 4))  # rows: three values + theta_p; cols: components
    for c, name in enumerate(order):
        tp = {k: getattr(tensor, k) for k in order}
        tm = dict(tp)
        tp[name] += step
        tm[name] -= step
        pp = principal_axes(HyperfineTensor(**tp))
        pm = principal_axes(HyperfineTensor(**tm))
        jac[0:3, c] = (np.array(pp.values) - np.array(pm.values)) / (2 * step)
        jac[3, c] = (pp.theta_p - pm.theta_p) / (2 * step)
    var = np.einsum("ij,jk,ik->i", jac, cov, jac)
    var = np.clip(var, 0.0, None)
    return {
        "value_small": float(np.sqrt(var[0])),
        "value_y": float(np.sqrt(var[1])),
        "value_big": float(np.sqrt(var[2])),
        "theta_p": float(np.sqrt(var[3])),
        "base": base,
    }
