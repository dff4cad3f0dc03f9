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
    """Static field magnitude (Gauss) and direction (degrees) in the NV frame.

    Lab-frame input is rotated to the NV frame by the config module
    (``config.lab_to_nv``). phi is wrapped into [0, 360).
    """

    b: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b >= 0):
            raise ValueError("field magnitude must be finite and >= 0")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not (0.0 <= self.theta <= 180.0):
            raise ValueError("theta out of range [0, 180]")
        object.__setattr__(self, "phi", float(wrap_azimuth(self.phi)))


@dataclass(frozen=True)
class Eigensystem:
    """Diagonalized 6-level system.

    values are ascending (MHz); vectors[:, k] is the k-th eigenvector with the
    largest-magnitude component made real positive; labels[k] indexes
    MANIFOLD_LABELS by the dominant electron subspace (``label_manifolds``).
    """

    values: np.ndarray
    vectors: np.ndarray
    labels: np.ndarray

    @property
    def manifold(self) -> tuple:
        """The labels as MANIFOLD_LABELS names."""
        return tuple(MANIFOLD_LABELS[j] for j in self.labels)


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

# Microwave drive operator: electron Sx in the NV frame.
DRIVE_SX = _OP_SX


def build_hamiltonian(params: SystemParams, field: FieldOrientation) -> np.ndarray:
    """Static 6x6 Hamiltonian in MHz.

    H = D Sz^2 + gamma_e B.S + gamma_n B.I
        + A_xx Sx Ix + A_yy Sy Iy + A_zz Sz Iz + a (Sz Ix + Sx Iz)

    Parameters
    ----------
    params : SystemParams
    field : FieldOrientation

    Returns
    -------
    ndarray, complex, shape (6, 6)
    """
    return hamiltonians(params, field.b * unit_vectors(field.theta, field.phi))


def wrap_azimuth(phi):
    """Azimuth (degrees, scalar or array) wrapped into [0, 360).

    ``phi % 360`` rounds a tiny negative phi up to exactly 360; that case
    maps to 0, so wrapping twice is a no-op.
    """
    w = np.mod(phi, 360.0)
    return np.where(w == 360.0, 0.0, w)


def unit_vectors(theta, phi) -> np.ndarray:
    """Field directions (degrees) as unit vectors, shape (..., 3).

    phi is used as given: wrap it with ``wrap_azimuth`` first to reproduce
    the vectors of ``FieldOrientation``, which stores it wrapped.
    """
    th = np.radians(theta)
    ph = np.radians(phi)
    return np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
    )


def hamiltonians(params: SystemParams, bvec, tensor=None) -> np.ndarray:
    """Stack of static Hamiltonians for NV-frame field vectors (Gauss).

    bvec has shape (..., 3); the result has shape (..., 6, 6).
    ``tensor`` holds per-row components (a_xx, a_yy, a_zz, a) with shape
    (..., 4), broadcast against bvec's leading axes; by default every row
    takes ``params.tensor``. ``build_hamiltonian`` is the batch of one.
    """
    bvec = np.asarray(bvec, dtype=float)
    bx, by, bz = (bvec[..., k, None, None] for k in range(3))
    if tensor is None:
        t = params.tensor
        tensor = (t.a_xx, t.a_yy, t.a_zz, t.a)
    tensor = np.asarray(tensor, dtype=float)
    a_xx, a_yy, a_zz, a = (tensor[..., k, None, None] for k in range(4))
    return (
        params.d * _OP_SZ2
        + params.gamma_e * (bx * _OP_SX + by * _OP_SY + bz * _OP_SZ)
        + params.gamma_n * (bx * _OP_IX + by * _OP_IY + bz * _OP_IZ)
        + a_xx * _OP_SXIX
        + a_yy * _OP_SYIY
        + a_zz * _OP_SZIZ
        + a * _OP_MIX
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
    pairs = pops.reshape(pops.shape[:-2] + (3, 2, pops.shape[-1]))
    return np.swapaxes(pairs.sum(axis=-2), -1, -2)


def _hermitian(h: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (n, k, k): Hermitian to 1e-9 of its largest entry."""
    scale = np.maximum(1.0, np.max(np.abs(h), axis=(1, 2)))
    skew = np.max(np.abs(h - np.conj(np.swapaxes(h, 1, 2))), axis=(1, 2))
    return ~(skew > 1e-9 * scale)


# Why one matrix has no labelled eigensystem: the reason code of a row is 0
# where every state is labelled, else 1 + the index of its message here.
# Hermiticity ranks first; the walk then stops at its first unlabelled state k.
EIGEN_REASONS = (
    "matrix is not Hermitian",
    "manifold assignment ambiguous for state {k} "
    "(overlaps ms_plus={over[0]:.3f} ms0={over[1]:.3f} ms_minus={over[2]:.3f})",
    "ground manifold not resolved: labels {labels!r}",
)


def _labelling_walk(kinds: np.ndarray):
    """The labelling policy of ``eigensystem`` over rows of state kinds.

    kinds (m, 6) gives each state, in ascending energy, as 0 (clearly
    outside ms0, ms_plus overlap at least the ms_minus one), 1 (ms0),
    2 (clearly outside ms0, ms_minus larger) or 3 (ambiguous). Walking
    upward, a state takes its preferred label while that label holds fewer
    than two states; an outside state then takes the other one. Returns
    (labels, reason) as ``label_manifolds`` does.
    """
    m = len(kinds)
    rows = np.arange(m)
    labels = np.full((m, 6), -1)
    counts = np.zeros((m, 3), dtype=int)
    reason = np.zeros(m, dtype=int)
    for k in range(6):
        want = kinds[:, k]
        ambiguous = want == 3
        want = np.where(ambiguous, 1, want)
        full = counts[rows, want] >= 2
        choice = np.where(full & (want != 1), 2 - want, want)
        stop = np.where(ambiguous, 2, np.where(counts[rows, choice] >= 2, 3, 0))
        reason = np.where(reason == 0, stop, reason)
        labels[reason == 0, k] = choice[reason == 0]
        counts[rows, choice] += 1
    return labels, reason


# the walk tabulated once for all 4**6 kind sequences; base-4 digits
_KIND_WEIGHTS = 4 ** np.arange(6)
_WALK_LABELS, _WALK_REASON = _labelling_walk(
    (np.arange(4**6)[:, None] // _KIND_WEIGHTS) % 4
)


def label_manifolds(over: np.ndarray):
    """Manifold labels for a stack of eigensystems, policy of ``eigensystem``.

    over has shape (n, 6, 3), as from ``manifold_overlaps``. Returns
    (labels, reason): labels (n, 6) index MANIFOLD_LABELS and read -1 from
    the first state that cannot be labelled; reason (n,) is the
    EIGEN_REASONS code, 0 for complete labellings, which hold each manifold
    exactly twice.
    """
    o_zero = over[..., 1]
    side = np.where(over[..., 0] >= over[..., 2], 0, 2)
    kinds = np.where(
        o_zero >= _MANIFOLD_OVERLAP_MIN,
        1,
        np.where(o_zero <= 1.0 - _MANIFOLD_OVERLAP_MIN, side, 3),
    )
    key = kinds @ _KIND_WEIGHTS
    return _WALK_LABELS[key], _WALK_REASON[key]


def eigensystems(h: np.ndarray):
    """Batched ``eigensystem`` over a stack of 6x6 matrices (n, 6, 6).

    Returns (values, vectors, labels, reason) with labels as from
    ``label_manifolds``; reason (n,) is the EIGEN_REASONS code, 0 where
    the matrix is Hermitian and its states are labelled.
    """
    h = np.asarray(h, dtype=complex)
    values, vectors = np.linalg.eigh(h)
    vectors = _fix_phases(vectors)
    labels, reason = label_manifolds(manifold_overlaps(vectors))
    return values, vectors, labels, np.where(_hermitian(h), reason, 1)


def eigensystem(h: np.ndarray) -> Eigensystem:
    """Diagonalize a 6x6 Hermitian matrix and label eigenstates by manifold.

    Eigenvalues ascend; phases are fixed by making the largest-magnitude
    vector component real positive. A state is labeled ms0 when its ms0
    overlap is at least 0.6; a state whose ms0 overlap exceeds 0.4 without
    reaching that raises as ambiguous. States clearly outside ms0 split
    between ms_plus and ms_minus by their larger overlap, two per label,
    walking states in ascending eigenvalue order (a transverse field can
    mix ms_plus with ms_minus legitimately, so no purity floor applies
    within that pair). The batch of one of ``eigensystems``; raises the
    EIGEN_REASONS message of its reason code.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (6, 6):
        raise ValueError("expected a 6x6 matrix")
    values, vectors, labels, reason = eigensystems(h[None])
    if reason[0]:
        k = int(np.argmax(labels[0] < 0))  # the first unlabelled state
        over = manifold_overlaps(vectors[0])[k]
        names = [MANIFOLD_LABELS[j] for j in labels[0, :k]]
        raise ValueError(EIGEN_REASONS[reason[0] - 1].format(k=k, over=over, labels=names))
    return Eigensystem(values=values[0], vectors=vectors[0], labels=labels[0])


def drive_amplitudes(vectors: np.ndarray, lo, hi) -> np.ndarray:
    """|<hi|DRIVE_SX|lo>|^2 for state index arrays lo and hi of vectors (6, 6),
    each element as ``np.vdot(v_hi, DRIVE_SX @ v_lo)`` computes it."""
    states = vectors.T
    drive = (DRIVE_SX @ states[lo][..., None])[..., 0]
    return np.abs(_vdot(states[hi], drive)) ** 2


def single_quantum_transitions(eig: Eigensystem) -> list[TransitionLine]:
    """Allowed single-quantum lines between ms0 and the ms_plus/ms_minus manifolds.

    Amplitude is |<to|Sx|from>|^2 for the electron Sx drive (``DRIVE_SX``).
    Lines are sorted by ascending frequency; equal frequencies keep the
    order of ms0 state, then upper state, each by ascending index. The four
    ms0 <-> ms_minus lines are the main lines of the low-frequency branch
    (see ``main_four_lines``).
    """
    upper = np.flatnonzero(eig.labels != 1)
    lo, hi = np.repeat(np.flatnonzero(eig.labels == 1), 4), np.tile(upper, 2)
    freq = np.abs(eig.values[hi] - eig.values[lo])
    amp = drive_amplitudes(eig.vectors, lo, hi)
    return [
        TransitionLine(float(freq[k]), float(amp[k]), int(lo[k]), int(hi[k]))
        for k in np.argsort(freq, kind="stable")
    ]


def main_four_lines(eig: Eigensystem) -> list[TransitionLine]:
    """The four ms0 <-> ms_minus lines, ascending in frequency."""
    return [
        ln
        for ln in single_quantum_transitions(eig)
        if eig.labels[ln.to_state] == 2
    ]


def zero_quantum_splitting_exact(eig: Eigensystem) -> float:
    """Energy gap of the ms0 doublet, MHz."""
    w = eig.values[eig.labels == 1]
    return float(abs(w[1] - w[0]))


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


# Why one eigensystem has no Lambda system: the reason code of a row is 0
# where the system is found, else 1 + the index of its message here. The
# order is the ranking: a row takes the first reason that holds.
LAMBDA_REASONS = (
    "excited level not a clean ms_minus state (overlap {purity:.3f})",
    "quantization axis undefined (a_zz = a = 0)",
    "excited-state identification ambiguous: alpha_minus overlaps "
    "{overlap[0]:.4f} vs {overlap[1]:.4f}",
)


def lambda_excited_states(
    vectors: np.ndarray, labels: np.ndarray, tensor: HyperfineTensor
):
    """Batched ``lambda_excited_index`` over labelled eigensystems.

    vectors (n, 6, 6) and labels (n, 6) as from ``eigensystems``, where
    that marks them ok. Returns (excited, purity, overlap, reason): the
    index of the excited level (n,), the ms_minus weight (n, 2) and
    alpha_minus overlap (n, 2) of the two ms_minus states (nan where a
    state has no ms_minus weight or the quantization axis is undefined),
    and the reason code (n,) of LAMBDA_REASONS, 0 where the
    identification holds. The Lambda model needs a clean ms_minus excited
    level; near theta = 90 the transverse field mixes ms_plus and ms_minus
    and no such level exists. A clean state has ms_minus weight, so its
    overlap is defined with the axis.
    """
    idx, states = _pair(vectors, labels, 2)
    purity = manifold_overlaps(np.swapaxes(states, 1, 2))[..., 2]
    try:
        _, _, alpha_minus = nuclear_eigenstates_excited(tensor)
        axis_code = 0
    except ValueError:  # a_zz = a = 0: no quantization axis
        alpha_minus = np.full(2, np.nan)
        axis_code = 2
    overlap = _nuclear_overlaps(states, [4, 5], alpha_minus)
    # nan overlaps, from an undefined axis, never compare as ambiguous
    ambiguous = np.abs(overlap[:, 0] - overlap[:, 1]) < 0.05 * np.max(overlap, axis=1)
    clean = np.all(purity >= _MANIFOLD_OVERLAP_MIN, axis=1)
    reason = np.where(clean, np.where(ambiguous, 3, axis_code), 1)
    excited = idx[np.arange(len(idx)), np.argmax(overlap, axis=1)]
    return excited, purity, overlap, reason


def lambda_legs(
    vectors: np.ndarray, labels: np.ndarray, excited: np.ndarray, beta_plus: np.ndarray
):
    """Batched Lambda legs for labelled eigensystems and their excited levels.

    The two ms0 states are told apart by their overlap with beta_plus
    (n, 2); a labelled ms0 state has ms0 weight at least 0.6, so the
    overlap is defined. Returns (omega_plus, omega_minus, g_plus, g_minus):
    |<excited|DRIVE_SX|g>| for both legs and the ground state indices.
    """
    rows = np.arange(len(labels))
    idx, states = _pair(vectors, labels, 1)
    gp = _nuclear_overlaps(states, [2, 3], beta_plus[:, None, :])
    first = gp[:, 0] >= gp[:, 1]
    g_plus = np.where(first, idx[:, 0], idx[:, 1])
    g_minus = np.where(first, idx[:, 1], idx[:, 0])
    ve = vectors[rows, :, excited]

    def leg(g):
        return np.abs(_vdot(ve, (DRIVE_SX @ vectors[rows, :, g][..., None])[..., 0]))

    return leg(g_plus), leg(g_minus), g_plus, g_minus


def _lambda_states(eig: Eigensystem, tensor: HyperfineTensor):
    """(vectors, labels, excited) of ``lambda_excited_states`` as a batch of one.

    Raises the LAMBDA_REASONS message of its reason code.
    """
    vectors, labels = eig.vectors[None], eig.labels[None]
    excited, purity, overlap, reason = lambda_excited_states(vectors, labels, tensor)
    if reason[0]:
        low = purity[0, np.argmax(purity[0] < _MANIFOLD_OVERLAP_MIN)]
        raise ValueError(
            LAMBDA_REASONS[reason[0] - 1].format(purity=low, overlap=overlap[0])
        )
    return vectors, labels, excited


def lambda_excited_index(eig: Eigensystem, tensor: HyperfineTensor) -> int:
    """Index of the ms_minus eigenstate whose nuclear part is alpha_minus.

    Raises when the two ms_minus states overlap alpha_minus within 5% of each
    other (identification would be arbitrary), and for the other
    LAMBDA_REASONS. The batch of one of ``lambda_excited_states``.
    """
    return int(_lambda_states(eig, tensor)[2][0])


def lambda_system(eig: Eigensystem, tensor: HyperfineTensor, field: FieldOrientation):
    """The zero-quantum Lambda system of one eigensystem.

    Returns (omega_plus, omega_minus, excited, g_plus, g_minus): the leg
    amplitudes of ``lambda_transition_amplitudes`` and the state indices
    of the excited level and of the ground states matching beta_plus and
    beta_minus. The batch of one of ``lambda_excited_states`` and
    ``lambda_legs``.
    """
    vectors, labels, excited = _lambda_states(eig, tensor)
    beta_plus, _ = ground_zeeman_states(field)
    op, om, gp, gm = lambda_legs(vectors, labels, excited, beta_plus[None])
    return float(op[0]), float(om[0]), int(excited[0]), int(gp[0]), int(gm[0])


def lambda_transition_amplitudes(
    eig: Eigensystem, tensor: HyperfineTensor, field: FieldOrientation
):
    """Drive amplitudes of the two legs of the zero-quantum Lambda system.

    The excited level is the ms_minus eigenstate whose nuclear part matches
    alpha_minus of ``nuclear_eigenstates_excited``; the two ms0 states are
    labeled by their overlap with the beta_plus/beta_minus Zeeman states.
    Returns (omega_plus, omega_minus) = |<excited|DRIVE_SX|ground_pm>|, not
    squared.
    """
    return lambda_system(eig, tensor, field)[:2]
