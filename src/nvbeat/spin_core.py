"""Exact spin Hamiltonian for an S=1 electron spin coupled to one I=1/2 nucleus.

All frequencies are in MHz (h=1), magnetic fields in Gauss, angles in degrees
at the public interfaces. The 6-dimensional product basis is ordered
electron x nucleus with m_S = +1, 0, -1 and m_I = +1/2, -1/2, i.e.
|+1,+1/2>, |+1,-1/2>, |0,+1/2>, |0,-1/2>, |-1,+1/2>, |-1,-1/2>.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(self.b) and self.b >= 0):
            raise ValueError("field magnitude must be finite and >= 0")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not (0.0 <= self.theta <= 180.0):
            raise ValueError("theta out of range [0, 180]")
        if self.frame not in ("NV", "LAB"):
            raise ValueError("frame must be 'NV' or 'LAB'")
        object.__setattr__(self, "phi", float(self.phi) % 360.0)

    @property
    def unit_vector(self) -> np.ndarray:
        return unit_vectors(self.theta, self.phi)


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
    return hamiltonians(params, field.b * field.unit_vector)


def unit_vectors(theta, phi) -> np.ndarray:
    """Field directions (degrees) as unit vectors, shape (..., 3).

    phi is used as given: wrap it as ``FieldOrientation`` does first to
    reproduce that class's vectors (wrapping twice is not a no-op, since
    a tiny negative phi wraps to exactly 360).
    """
    th = np.radians(theta)
    ph = np.radians(phi)
    return np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
    )


def hamiltonians(params: SystemParams, bvec) -> np.ndarray:
    """Stack of static Hamiltonians for NV-frame field vectors (Gauss).

    bvec has shape (..., 3); the result has shape (..., 6, 6).
    ``build_hamiltonian`` is the batch of one.
    """
    bvec = np.asarray(bvec, dtype=float)
    bx, by, bz = (bvec[..., k, None, None] for k in range(3))
    t = params.tensor
    return (
        params.d * _OP_SZ2
        + params.gamma_e * (bx * _OP_SX + by * _OP_SY + bz * _OP_SZ)
        + params.gamma_n * (bx * _OP_IX + by * _OP_IY + bz * _OP_IZ)
        + t.a_xx * _OP_SXIX
        + t.a_yy * _OP_SYIY
        + t.a_zz * _OP_SZIZ
        + t.a * _OP_MIX
    )


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive.

    Works on one (6, n) matrix or a stack (..., 6, n).
    """
    idx = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
    piv = np.take_along_axis(vectors, idx, axis=-2)
    mag = np.abs(piv)
    factor = np.ones_like(piv)
    np.divide(np.conj(piv), mag, out=factor, where=mag > 0)
    return vectors * factor


def manifold_overlaps(vectors: np.ndarray) -> np.ndarray:
    """Population of each eigenvector (columns) in the three m_S subspaces.

    Returns array (n, 3) ordered (ms_plus, ms0, ms_minus), or (..., n, 3)
    for a stack of eigenvector matrices.
    """
    pops = np.abs(vectors) ** 2
    return np.stack(
        [
            pops[..., 0, :] + pops[..., 1, :],
            pops[..., 2, :] + pops[..., 3, :],
            pops[..., 4, :] + pops[..., 5, :],
        ],
        axis=-1,
    )


def _hermitian(h: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (n, 6, 6): Hermitian to 1e-9 of its largest entry."""
    scale = np.maximum(1.0, np.max(np.abs(h), axis=(1, 2)))
    skew = np.max(np.abs(h - np.conj(np.swapaxes(h, 1, 2))), axis=(1, 2))
    return ~(skew > 1e-9 * scale)


def _labelling_walk(kinds: np.ndarray):
    """The labelling policy of ``eigensystem`` over rows of state kinds.

    kinds (m, 6) gives each state, in ascending energy, as 0 (clearly
    outside ms0, ms_plus overlap at least the ms_minus one), 1 (ms0),
    2 (clearly outside ms0, ms_minus larger) or 3 (ambiguous). Walking
    upward, a state takes its preferred label while that label holds fewer
    than two states; an outside state then takes the other one. Returns
    (labels, ok) as ``label_manifolds`` does.
    """
    m = len(kinds)
    rows = np.arange(m)
    labels = np.full((m, 6), -1)
    counts = np.zeros((m, 3), dtype=int)
    ok = np.ones(m, dtype=bool)
    for k in range(6):
        want = kinds[:, k]
        ok &= want != 3
        want = np.where(want == 3, 1, want)
        full = counts[rows, want] >= 2
        choice = np.where(full & (want != 1), 2 - want, want)
        ok &= counts[rows, choice] < 2
        labels[ok, k] = choice[ok]
        counts[rows, choice] += 1
    return labels, ok


# the walk tabulated once for all 4**6 kind sequences; base-4 digits
_KIND_WEIGHTS = 4 ** np.arange(6)
_WALK_LABELS, _WALK_OK = _labelling_walk(
    (np.arange(4**6)[:, None] // _KIND_WEIGHTS) % 4
)


def label_manifolds(over: np.ndarray):
    """Manifold labels for a stack of eigensystems, policy of ``eigensystem``.

    over has shape (n, 6, 3), as from ``manifold_overlaps``. Returns
    (labels, ok): labels (n, 6) index MANIFOLD_LABELS and read -1 from the
    first state that cannot be labelled; ok (n,) marks complete labellings,
    which hold each manifold exactly twice.
    """
    o_zero = over[..., 1]
    side = np.where(over[..., 0] >= over[..., 2], 0, 2)
    kinds = np.where(
        o_zero >= _MANIFOLD_OVERLAP_MIN,
        1,
        np.where(o_zero <= 1.0 - _MANIFOLD_OVERLAP_MIN, side, 3),
    )
    key = kinds @ _KIND_WEIGHTS
    return _WALK_LABELS[key], _WALK_OK[key]


def eigensystems(h: np.ndarray):
    """Batched ``eigensystem`` over a stack of 6x6 matrices (n, 6, 6).

    Returns (values, vectors, labels, ok) with labels as from
    ``label_manifolds``; ok is False where a matrix is not Hermitian or its
    states cannot be labelled.
    """
    h = np.asarray(h, dtype=complex)
    values, vectors = np.linalg.eigh(h)
    vectors = _fix_phases(vectors)
    labels, ok = label_manifolds(manifold_overlaps(vectors))
    return values, vectors, labels, ok & _hermitian(h)


def eigensystem(h: np.ndarray) -> Eigensystem:
    """Diagonalize a 6x6 Hermitian matrix and label eigenstates by manifold.

    Eigenvalues ascend; phases are fixed by making the largest-magnitude
    vector component real positive. A state is labeled ms0 when its ms0
    overlap is at least 0.6; a state whose ms0 overlap exceeds 0.4 without
    reaching that raises as ambiguous. States clearly outside ms0 split
    between ms_plus and ms_minus by their larger overlap, two per label,
    walking states in ascending eigenvalue order (a transverse field can
    mix ms_plus with ms_minus legitimately, so no purity floor applies
    within that pair). The batch of one of ``eigensystems``.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (6, 6):
        raise ValueError("expected a 6x6 matrix")
    values, vectors, labels, ok = eigensystems(h[None])
    if not ok[0]:
        if not _hermitian(h[None])[0]:
            raise ValueError("matrix is not Hermitian")
        k = list(labels[0]).index(-1)
        over = manifold_overlaps(vectors[0])[k]
        if 1.0 - _MANIFOLD_OVERLAP_MIN < over[1] < _MANIFOLD_OVERLAP_MIN:
            raise ValueError(
                "manifold assignment ambiguous for state %d "
                "(overlaps ms_plus=%.3f ms0=%.3f ms_minus=%.3f)"
                % (k, over[0], over[1], over[2])
            )
        raise ValueError(
            "ground manifold not resolved: labels %r"
            % ([MANIFOLD_LABELS[j] for j in labels[0, :k]],)
        )
    return Eigensystem(
        values=values[0],
        vectors=vectors[0],
        manifold=tuple(MANIFOLD_LABELS[j] for j in labels[0]),
    )


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


def zeeman_states(theta, phi):
    """Nuclear Zeeman eigenstates along field directions (degrees).

    Returns (beta_plus, beta_minus), each of shape (..., 2), as
    ``ground_zeeman_states`` describes them.
    """
    th = np.radians(theta)
    ph = np.radians(phi)
    e = np.exp(1j * ph)
    c = np.cos(th / 2)
    s = np.sin(th / 2)
    beta_plus = np.stack([c + 0j, e * s], axis=-1)
    beta_minus = np.stack([s + 0j, -e * c], axis=-1)
    return beta_plus, beta_minus


def ground_zeeman_states(field: FieldOrientation):
    """Nuclear Zeeman eigenstates along the field direction.

    Returns (beta_plus, beta_minus) as components on (|+1/2>, |-1/2>):
    beta_plus = cos(theta/2)|+1/2> + e^{i phi} sin(theta/2)|-1/2>,
    beta_minus = sin(theta/2)|+1/2> - e^{i phi} cos(theta/2)|-1/2>.
    """
    if field.b <= 0:
        raise ValueError("Zeeman axis undefined (b = 0)")
    return zeeman_states(field.theta, field.phi)


def _vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot over the last axis of broadcast stacks of vectors."""
    return (np.conj(a)[..., None, :] @ b[..., :, None])[..., 0, 0]


def _nuclear_overlaps(states: np.ndarray, rows: list, ref: np.ndarray) -> np.ndarray:
    """|<ref|nuclear part>|^2 for states (n, m, 6); result (n, m).

    The nuclear part is a state's block on ``rows`` (one electron
    manifold), normalised; a state without weight there gives nan.
    ref has shape (2,) or (n, 1, 2).
    """
    sub = states[..., rows]
    nrm = np.sqrt(_vdot(sub.real, sub.real) + _vdot(sub.imag, sub.imag))
    with np.errstate(divide="ignore", invalid="ignore"):
        nuc = sub / nrm[..., None]
    return np.abs(_vdot(ref, nuc)) ** 2


def _pair(vectors: np.ndarray, labels: np.ndarray, label: int):
    """Indices (n, 2) and states (n, 2, 6) of the two states with a label."""
    idx = np.argsort(labels, axis=1, kind="stable")[:, 2 * label : 2 * label + 2]
    return idx, vectors[np.arange(len(idx))[:, None], :, idx]


def lambda_excited_states(
    vectors: np.ndarray, labels: np.ndarray, tensor: HyperfineTensor
):
    """Batched ``lambda_excited_index`` over labelled eigensystems.

    vectors (n, 6, 6) and labels (n, 6) as from ``eigensystems``, where
    that marks them ok. Returns (excited, purity, overlap, ok): the index
    of the excited level (n,), the ms_minus weight (n, 2) and alpha_minus
    overlap (n, 2) of the two ms_minus states (nan where a state has no
    ms_minus weight or the quantization axis is undefined), and where the
    identification holds.
    """
    idx, states = _pair(vectors, labels, 2)
    purity = manifold_overlaps(np.swapaxes(states, 1, 2))[..., 2]
    try:
        _, _, alpha_minus = nuclear_eigenstates_excited(tensor)
    except ValueError:  # a_zz = a = 0: no quantization axis
        alpha_minus = np.full(2, np.nan)
    overlap = _nuclear_overlaps(states, [4, 5], alpha_minus)
    ok = np.all(purity >= _MANIFOLD_OVERLAP_MIN, axis=1)
    ok &= ~np.any(np.isnan(overlap), axis=1)
    ok &= ~(np.abs(overlap[:, 0] - overlap[:, 1]) < 0.05 * np.max(overlap, axis=1))
    excited = idx[np.arange(len(idx)), np.argmax(overlap, axis=1)]
    return excited, purity, overlap, ok


def lambda_legs(
    vectors: np.ndarray,
    labels: np.ndarray,
    excited: np.ndarray,
    beta_plus: np.ndarray,
    drive: np.ndarray | None = None,
):
    """Batched Lambda legs for labelled eigensystems and their excited levels.

    The two ms0 states are told apart by their overlap with beta_plus
    (n, 2). Returns (omega_plus, omega_minus, g_plus, g_minus, ok):
    |<excited|drive|g>| for both legs, the ground state indices, and False
    where an ms0 state has no weight in that manifold.
    """
    if drive is None:
        drive = DRIVE_SX
    rows = np.arange(len(labels))
    idx, states = _pair(vectors, labels, 1)
    gp = _nuclear_overlaps(states, [2, 3], beta_plus[:, None, :])
    ok = ~np.any(np.isnan(gp), axis=1)
    first = gp[:, 0] >= gp[:, 1]
    g_plus = np.where(first, idx[:, 0], idx[:, 1])
    g_minus = np.where(first, idx[:, 1], idx[:, 0])
    ve = vectors[rows, :, excited]

    def leg(g):
        return np.abs(_vdot(ve, (drive @ vectors[rows, :, g][..., None])[..., 0]))

    return leg(g_plus), leg(g_minus), g_plus, g_minus, ok


def _label_indices(eig: Eigensystem) -> np.ndarray:
    return np.array([[MANIFOLD_LABELS.index(lab) for lab in eig.manifold]])


def lambda_excited_index(eig: Eigensystem, tensor: HyperfineTensor) -> int:
    """Index of the ms_minus eigenstate whose nuclear part is alpha_minus.

    Raises when the two ms_minus states overlap alpha_minus within 5% of each
    other (identification would be arbitrary). The batch of one of
    ``lambda_excited_states``.
    """
    if len(eig.indices("ms_minus")) != 2:
        raise ValueError("ground manifold not resolved")
    excited, purity, overlap, ok = lambda_excited_states(
        eig.vectors[None], _label_indices(eig), tensor
    )
    if ok[0]:
        return int(excited[0])
    # the Lambda model needs a clean ms_minus excited level; near theta=90
    # the transverse field mixes ms_plus and ms_minus and no such level exists
    for p in purity[0]:
        if p < _MANIFOLD_OVERLAP_MIN:
            raise ValueError(
                "excited level not a clean ms_minus state (overlap %.3f)" % p
            )
    nuclear_eigenstates_excited(tensor)  # raises when a_zz = a = 0
    ov = overlap[0]
    if np.any(np.isnan(ov)):
        raise ValueError("state has no weight in the requested manifold")
    raise ValueError(
        "excited-state identification ambiguous: alpha_minus overlaps "
        "%.4f vs %.4f" % (ov[0], ov[1])
    )


def lambda_system(
    eig: Eigensystem,
    tensor: HyperfineTensor,
    field: FieldOrientation,
    drive: np.ndarray | None = None,
):
    """The zero-quantum Lambda system of one eigensystem.

    Returns (omega_plus, omega_minus, excited, g_plus, g_minus): the leg
    amplitudes of ``lambda_transition_amplitudes`` and the state indices
    of the excited level and of the ground states matching beta_plus and
    beta_minus. The batch of one of ``lambda_legs``.
    """
    if len(eig.indices("ms0")) != 2:
        raise ValueError("ground manifold not resolved")
    excited = lambda_excited_index(eig, tensor)
    beta_plus, _ = ground_zeeman_states(field)
    labels = _label_indices(eig)
    op, om, gp, gm, ok = lambda_legs(
        eig.vectors[None], labels, np.array([excited]), beta_plus[None], drive
    )
    if not ok[0]:
        raise ValueError("state has no weight in the requested manifold")
    return float(op[0]), float(om[0]), excited, int(gp[0]), int(gm[0])


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
    omega_plus, omega_minus, _, _, _ = lambda_system(eig, tensor, field, drive)
    return omega_plus, omega_minus
