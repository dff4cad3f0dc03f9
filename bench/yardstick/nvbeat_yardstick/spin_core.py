"""Exact spin Hamiltonian for an S=1 electron spin coupled to one I=1/2 nucleus.

All frequencies are in MHz (h=1), magnetic fields in Gauss, angles in degrees
at the public interfaces. The 6-dimensional product basis is ordered
electron x nucleus with m_S = +1, 0, -1 and m_I = +1/2, -1/2, i.e.
|+1,+1/2>, |+1,-1/2>, |0,+1/2>, |0,-1/2>, |-1,+1/2>, |-1,-1/2>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# NV center defaults; configuration inputs, pass through SystemParams to override.
D_DEFAULT = 2870.0  # zero-field splitting, MHz
GAMMA_E_DEFAULT = 2.8025  # electron gyromagnetic ratio, MHz/G
GAMMA_N_C13_DEFAULT = 1.0705e-3  # 13C nuclear gyromagnetic ratio, MHz/G

MANIFOLD_LABELS = ("ms_plus", "ms0", "ms_minus")

# Dominant-manifold assignment below this overlap is meaningless.
_MANIFOLD_OVERLAP_MIN = 0.6


@dataclass(frozen=True)
class SpinOperators:
    """Cartesian angular momentum matrices for one spin, basis m = s..-s."""

    s: float
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def spin_matrices(s: float) -> SpinOperators:
    """Spin matrices for s = 1/2 or 1 from the ladder construction.

    Returns matrices in units of hbar=1 with sz = diag(s, s-1, ..., -s).
    """
    if s not in (0.5, 1, 1.0):
        raise ValueError("unsupported spin: %r (need 1/2 or 1)" % (s,))
    dim = int(round(2 * s + 1))
    m = s - np.arange(dim)
    # <m+1| S+ |m> = sqrt(s(s+1) - m(m+1))
    sp = np.zeros((dim, dim))
    for k in range(1, dim):
        mm = m[k]
        sp[k - 1, k] = np.sqrt(s * (s + 1) - mm * (mm + 1))
    sx = 0.5 * (sp + sp.T)
    sy = -0.5j * (sp - sp.T)
    sz = np.diag(m)
    return SpinOperators(s=float(s), sx=sx, sy=sy.astype(complex), sz=sz)


@dataclass(frozen=True)
class HyperfineTensor:
    """Hyperfine coupling in the NV frame, MHz.

    Mirror symmetry of the defect forces the y row/column off-diagonals to
    zero; ``a`` is the common xz off-diagonal element (A_zx = A_xz).
    """

    a_xx: float
    a_yy: float
    a_zz: float
    a: float

    def __post_init__(self):
        for name in ("a_xx", "a_yy", "a_zz", "a"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("non-finite tensor component %s" % name)

    @property
    def matrix(self) -> np.ndarray:
        """3x3 coupling matrix [[a_xx, 0, a], [0, a_yy, 0], [a, 0, a_zz]]."""
        return np.array(
            [
                [self.a_xx, 0.0, self.a],
                [0.0, self.a_yy, 0.0],
                [self.a, 0.0, self.a_zz],
            ]
        )


@dataclass(frozen=True)
class SystemParams:
    """Static system constants plus the hyperfine tensor."""

    d: float = D_DEFAULT
    gamma_e: float = GAMMA_E_DEFAULT
    gamma_n: float = GAMMA_N_C13_DEFAULT
    tensor: HyperfineTensor = HyperfineTensor(0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (self.d > 0):
            raise ValueError("d must be positive")
        if not (self.gamma_e > 0):
            raise ValueError("gamma_e must be positive")
        if abs(self.gamma_n) >= self.gamma_e / 100.0:
            raise ValueError("gamma_n out of range (|gamma_n| must be << gamma_e)")


@dataclass(frozen=True)
class FieldOrientation:
    """Static field magnitude (Gauss) and direction (degrees).

    ``frame`` is 'NV' for angles in the defect frame. Lab-frame input must be
    rotated to the NV frame before building a Hamiltonian (see config module).
    phi is wrapped into [0, 360).
    """

    b: float
    theta: float
    phi: float
    frame: str = "NV"

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("field magnitude must be >= 0")
        if not (0.0 <= self.theta <= 180.0):
            raise ValueError("theta out of range [0, 180]")
        if self.frame not in ("NV", "LAB"):
            raise ValueError("frame must be 'NV' or 'LAB'")
        object.__setattr__(self, "phi", float(self.phi) % 360.0)

    @property
    def unit_vector(self) -> np.ndarray:
        th = np.radians(self.theta)
        ph = np.radians(self.phi)
        return np.array(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
        )


@dataclass(frozen=True)
class Eigensystem:
    """Diagonalized 6-level system.

    values are ascending (MHz); vectors[:, k] is the k-th eigenvector with the
    largest-magnitude component made real positive; manifold[k] labels the
    dominant electron subspace ('ms0', 'ms_minus', 'ms_plus').
    """

    values: np.ndarray
    vectors: np.ndarray
    manifold: tuple

    def indices(self, label: str):
        return [k for k, lab in enumerate(self.manifold) if lab == label]


@dataclass(frozen=True)
class TransitionLine:
    """One allowed line: frequency (MHz), drive amplitude |<f|V|i>|^2, state indices."""

    frequency: float
    amplitude: float
    from_state: int
    to_state: int


# Static operator cache: H is a fixed linear combination of these matrices.
_E = spin_matrices(1)
_N = spin_matrices(0.5)
_ID2 = np.eye(2)
_ID3 = np.eye(3)
_OP_SZ2 = np.kron(_E.sz @ _E.sz, _ID2).astype(complex)
_OP_SX = np.kron(_E.sx, _ID2).astype(complex)
_OP_SY = np.kron(_E.sy, _ID2)
_OP_SZ = np.kron(_E.sz, _ID2).astype(complex)
_OP_IX = np.kron(_ID3, _N.sx).astype(complex)
_OP_IY = np.kron(_ID3, _N.sy)
_OP_IZ = np.kron(_ID3, _N.sz).astype(complex)
_OP_SXIX = np.kron(_E.sx, _N.sx).astype(complex)
_OP_SYIY = np.kron(_E.sy, _N.sy)
_OP_SZIZ = np.kron(_E.sz, _N.sz).astype(complex)
_OP_MIX = (np.kron(_E.sz, _N.sx) + np.kron(_E.sx, _N.sz)).astype(complex)

# Projectors onto the three electron manifolds in the product basis.
PROJ_MS_PLUS = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
PROJ_MS0 = np.diag([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
PROJ_MS_MINUS = np.diag([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])

# Default microwave drive operator: electron Sx in the NV frame.
DRIVE_SX = _OP_SX


def build_hamiltonian(params: SystemParams, field: FieldOrientation) -> np.ndarray:
    """Static 6x6 Hamiltonian in MHz.

    H = D Sz^2 + gamma_e B.S + gamma_n B.I
        + A_xx Sx Ix + A_yy Sy Iy + A_zz Sz Iz + a (Sz Ix + Sx Iz)

    Parameters
    ----------
    params : SystemParams
    field : FieldOrientation
        Must be in the NV frame.

    Returns
    -------
    ndarray, complex, shape (6, 6)
    """
    if field.frame != "NV":
        raise ValueError("field must be given in the NV frame")
    bx, by, bz = field.b * field.unit_vector
    t = params.tensor
    h = (
        params.d * _OP_SZ2
        + params.gamma_e * (bx * _OP_SX + by * _OP_SY + bz * _OP_SZ)
        + params.gamma_n * (bx * _OP_IX + by * _OP_IY + bz * _OP_IZ)
        + t.a_xx * _OP_SXIX
        + t.a_yy * _OP_SYIY
        + t.a_zz * _OP_SZIZ
        + t.a * _OP_MIX
    )
    return h


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        idx = int(np.argmax(np.abs(out[:, k])))
        piv = out[idx, k]
        if np.abs(piv) > 0:
            out[:, k] *= np.conj(piv) / np.abs(piv)
    return out


def manifold_overlaps(vectors: np.ndarray) -> np.ndarray:
    """Population of each eigenvector (columns) in the three m_S subspaces.

    Returns array (n, 3) ordered (ms_plus, ms0, ms_minus).
    """
    pops = np.abs(vectors) ** 2
    return np.stack(
        [
            pops[0] + pops[1],
            pops[2] + pops[3],
            pops[4] + pops[5],
        ],
        axis=1,
    )


def eigensystem(h: np.ndarray) -> Eigensystem:
    """Diagonalize a 6x6 Hermitian matrix and label eigenstates by manifold.

    Eigenvalues ascend; phases are fixed by making the largest-magnitude
    vector component real positive. A state is labeled ms0 when its ms0
    overlap is at least 0.6; a state whose ms0 overlap exceeds 0.4 without
    reaching that raises as ambiguous. States clearly outside ms0 split
    between ms_plus and ms_minus by their larger overlap, two per label,
    walking states in ascending eigenvalue order (a transverse field can
    mix ms_plus with ms_minus legitimately, so no purity floor applies
    within that pair).
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (6, 6):
        raise ValueError("expected a 6x6 matrix")
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.conj().T)) > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(h)
    vectors = _fix_phases(vectors)
    over = manifold_overlaps(vectors)
    labels: list[str] = []
    counts = {lab: 0 for lab in MANIFOLD_LABELS}
    for k in range(6):
        o_zero = over[k, 1]
        if o_zero >= _MANIFOLD_OVERLAP_MIN:
            choice = 1
        elif o_zero <= 1.0 - _MANIFOLD_OVERLAP_MIN:
            avail = [j for j in (0, 2) if counts[MANIFOLD_LABELS[j]] < 2]
            if not avail:
                raise ValueError(
                    "ground manifold not resolved: labels %r" % (labels,)
                )
            choice = max(avail, key=lambda j: over[k, j])
        else:
            raise ValueError(
                "manifold assignment ambiguous for state %d "
                "(overlaps ms_plus=%.3f ms0=%.3f ms_minus=%.3f)"
                % (k, over[k, 0], over[k, 1], over[k, 2])
            )
        lab = MANIFOLD_LABELS[choice]
        if counts[lab] >= 2:
            raise ValueError("ground manifold not resolved: labels %r" % (labels,))
        counts[lab] += 1
        labels.append(lab)
    return Eigensystem(values=values, vectors=vectors, manifold=tuple(labels))


def single_quantum_transitions(
    eig: Eigensystem, drive: np.ndarray | None = None
) -> list[TransitionLine]:
    """Allowed single-quantum lines between ms0 and the ms_plus/ms_minus manifolds.

    Amplitude is |<to|drive|from>|^2 with the electron Sx drive by default.
    Lines are sorted by ascending frequency. The four ms0 <-> ms_minus lines
    are the main lines of the low-frequency branch (see ``main_four_lines``).
    """
    if drive is None:
        drive = DRIVE_SX
    g = eig.indices("ms0")
    lines = []
    for i in g:
        for j in range(6):
            if eig.manifold[j] == "ms0":
                continue
            amp = np.abs(np.vdot(eig.vectors[:, j], drive @ eig.vectors[:, i])) ** 2
            freq = abs(float(eig.values[j] - eig.values[i]))
            lines.append(
                TransitionLine(
                    frequency=freq, amplitude=float(amp), from_state=i, to_state=j
                )
            )
    lines.sort(key=lambda ln: ln.frequency)
    return lines


def main_four_lines(
    eig: Eigensystem, drive: np.ndarray | None = None
) -> list[TransitionLine]:
    """The four ms0 <-> ms_minus lines, ascending in frequency."""
    return [
        ln
        for ln in single_quantum_transitions(eig, drive)
        if eig.manifold[ln.to_state] == "ms_minus"
    ]


def zero_quantum_splitting_exact(eig: Eigensystem) -> float:
    """Energy gap of the ms0 doublet, MHz."""
    g = eig.indices("ms0")
    if len(g) != 2:
        raise ValueError("ground manifold not resolved")
    return float(abs(eig.values[g[1]] - eig.values[g[0]]))


def nuclear_eigenstates_excited(tensor: HyperfineTensor):
    """Nuclear quantization in the m_S = -1 manifold.

    The nuclear spin there sees the effective operator a_zz Iz + a Ix (up to
    the electron sign), with mixing angle theta' = atan2(a, a_zz). Returns
    (theta_prime_deg, alpha_plus, alpha_minus) where the vectors are
    components on (|+1/2>, |-1/2>).
    """
    if tensor.a_zz == 0.0 and tensor.a == 0.0:
        raise ValueError("quantization axis undefined (a_zz = a = 0)")
    tp = np.arctan2(tensor.a, tensor.a_zz)
    alpha_plus = np.array([np.cos(tp / 2), np.sin(tp / 2)], dtype=complex)
    alpha_minus = np.array([np.sin(tp / 2), -np.cos(tp / 2)], dtype=complex)
    return float(np.degrees(tp)), alpha_plus, alpha_minus


def ground_zeeman_states(field: FieldOrientation):
    """Nuclear Zeeman eigenstates along the field direction.

    Returns (beta_plus, beta_minus) as components on (|+1/2>, |-1/2>):
    beta_plus = cos(theta/2)|+1/2> + e^{i phi} sin(theta/2)|-1/2>,
    beta_minus = sin(theta/2)|+1/2> - e^{i phi} cos(theta/2)|-1/2>.
    """
    if field.b <= 0:
        raise ValueError("Zeeman axis undefined (b = 0)")
    th = np.radians(field.theta)
    ph = np.radians(field.phi)
    e = np.exp(1j * ph)
    beta_plus = np.array([np.cos(th / 2), e * np.sin(th / 2)], dtype=complex)
    beta_minus = np.array([np.sin(th / 2), -e * np.cos(th / 2)], dtype=complex)
    return beta_plus, beta_minus


def _nuclear_part(vec: np.ndarray, rows: tuple) -> np.ndarray:
    sub = vec[list(rows)]
    nrm = np.linalg.norm(sub)
    if nrm == 0:
        raise ValueError("state has no weight in the requested manifold")
    return sub / nrm


def lambda_excited_index(eig: Eigensystem, tensor: HyperfineTensor) -> int:
    """Index of the ms_minus eigenstate whose nuclear part is alpha_minus.

    Raises when the two ms_minus states overlap alpha_minus within 5% of each
    other (identification would be arbitrary).
    """
    exc_idx = eig.indices("ms_minus")
    if len(exc_idx) != 2:
        raise ValueError("ground manifold not resolved")
    # the Lambda model needs a clean ms_minus excited level; near theta=90
    # the transverse field mixes ms_plus and ms_minus and no such level exists
    for j in exc_idx:
        purity = float(np.sum(np.abs(eig.vectors[4:6, j]) ** 2))
        if purity < _MANIFOLD_OVERLAP_MIN:
            raise ValueError(
                "excited level not a clean ms_minus state "
                "(overlap %.3f)" % purity
            )
    _, _, alpha_minus = nuclear_eigenstates_excited(tensor)
    ov = []
    for j in exc_idx:
        nuc = _nuclear_part(eig.vectors[:, j], (4, 5))
        ov.append(np.abs(np.vdot(alpha_minus, nuc)) ** 2)
    best = int(np.argmax(ov))
    if abs(ov[0] - ov[1]) < 0.05 * max(ov):
        raise ValueError(
            "excited-state identification ambiguous: alpha_minus overlaps "
            "%.4f vs %.4f" % (ov[0], ov[1])
        )
    return exc_idx[best]


def lambda_transition_amplitudes(
    eig: Eigensystem,
    tensor: HyperfineTensor,
    field: FieldOrientation,
    drive: np.ndarray | None = None,
):
    """Drive amplitudes of the two legs of the zero-quantum Lambda system.

    The excited level is the ms_minus eigenstate whose nuclear part matches
    alpha_minus of ``nuclear_eigenstates_excited``; the two ms0 states are
    labeled by their overlap with the beta_plus/beta_minus Zeeman states.
    Returns (omega_plus, omega_minus) = |<excited|drive|ground_pm>|, not squared.
    """
    if drive is None:
        drive = DRIVE_SX
    g_idx = eig.indices("ms0")
    if len(g_idx) != 2:
        raise ValueError("ground manifold not resolved")
    excited = lambda_excited_index(eig, tensor)
    beta_plus, _ = ground_zeeman_states(field)
    gp_ov = [
        np.abs(np.vdot(beta_plus, _nuclear_part(eig.vectors[:, i], (2, 3)))) ** 2
        for i in g_idx
    ]
    if gp_ov[0] >= gp_ov[1]:
        g_plus, g_minus = g_idx[0], g_idx[1]
    else:
        g_plus, g_minus = g_idx[1], g_idx[0]
    ve = eig.vectors[:, excited]
    omega_plus = float(np.abs(np.vdot(ve, drive @ eig.vectors[:, g_plus])))
    omega_minus = float(np.abs(np.vdot(ve, drive @ eig.vectors[:, g_minus])))
    return omega_plus, omega_minus
