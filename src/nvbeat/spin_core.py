"""Exact spin Hamiltonian for an S=1 electron spin coupled to one I=1/2 nucleus.

All frequencies are in MHz (h=1), magnetic fields in Gauss, angles in degrees
at the public interfaces. The 6-dimensional product basis is ordered
electron x nucleus with m_S = +1, 0, -1 and m_I = +1/2, -1/2, i.e.
|+1,+1/2>, |+1,-1/2>, |0,+1/2>, |0,-1/2>, |-1,+1/2>, |-1,-1/2>.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# NV center defaults; configuration inputs, pass through SystemParams to override.
D_DEFAULT = 2870.0  # zero-field splitting, MHz
GAMMA_E_DEFAULT = 2.8025  # electron gyromagnetic ratio, MHz/G
GAMMA_N_C13_DEFAULT = 1.0705e-3  # 13C nuclear gyromagnetic ratio, MHz/G

MANIFOLD_LABELS = ("ms_plus", "ms0", "ms_minus")

# Dominant-manifold assignment below this overlap is meaningless.
_MANIFOLD_OVERLAP_MIN = 0.6


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

    @functools.cached_property
    def _components(self):
        """(a_xx, a_yy, a_zz, a) as a float array, once per tensor."""
        return np.array((self.a_xx, self.a_yy, self.a_zz, self.a), dtype=float)

    @functools.cached_property
    def _alpha_minus(self):
        """(alpha_minus, LAMBDA_REASONS axis code), once per tensor: in m_S = -1
        the nucleus sees a_zz Iz + a Ix, mixing angle theta' = atan2(a, a_zz);
        alpha_minus is on (|+1/2>, |-1/2>), nan (code 2) where a_zz = a = 0."""
        if self.a_zz == 0.0 and self.a == 0.0:
            return np.full(2, np.nan), 2
        tp = np.arctan2(self.a, self.a_zz)
        return np.array([np.sin(tp / 2), -np.cos(tp / 2)], dtype=complex), 0


@dataclass(frozen=True)
class SystemParams:
    """Static system constants plus the hyperfine tensor."""

    d: float = D_DEFAULT
    gamma_e: float = GAMMA_E_DEFAULT
    gamma_n: float = GAMMA_N_C13_DEFAULT
    tensor: HyperfineTensor = HyperfineTensor(0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError("d must be finite and positive")
        if not (math.isfinite(self.gamma_e) and self.gamma_e > 0):
            raise ValueError("gamma_e must be finite and positive")
        if not abs(self.gamma_n) < self.gamma_e / 100.0:  # nan fails too
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
    """Diagonalized 6-level system, one row of ``eigensystem``'s labelling pass.

    values are ascending (MHz); vectors[:, k] is the k-th eigenvector with the
    largest-magnitude component made real positive; labels[k] indexes
    MANIFOLD_LABELS by the dominant electron subspace (``label_manifolds``).
    The rest is the labels' order and the row's ``_records``, as Python floats
    where they are lists (the main-line drives in the order of ``_MAIN_LINES``).
    """

    values: np.ndarray
    vectors: np.ndarray
    labels: np.ndarray
    _order: np.ndarray
    _states: np.ndarray
    _purity: list
    _main_legs: list


class TransitionLine(NamedTuple):
    """One allowed line: frequency (MHz), drive amplitude |<f|V|i>|^2, state indices."""

    frequency: float
    amplitude: float
    from_state: int
    to_state: int


def _spin(sp, m):
    """(Sx, Sy, Sz) of one spin from its raising operator sp, basis m = s..-s."""
    return 0.5 * (sp + sp.T), -0.5j * (sp - sp.T), np.diag(m)


# the electron's (S = 1) and the 13C's (I = 1/2) operators, hbar = 1
_SX, _SY, _SZ = _spin(np.diag([math.sqrt(2)] * 2, 1), [1, 0, -1])
_IX, _IY, _IZ = _spin(np.diag([1.0], 1), [0.5, -0.5])
# H's operators in the formula's order: D Sz^2; Sx, Sy, Sz; Ix, Iy, Iz; Sx Ix,
# Sy Iy, Sz Iz and the a term's disjoint parts Sz Ix, Sx Iz
_E2, _E3 = np.eye(2), np.eye(3)
_OPS = np.array([np.kron(s, i) for s, i in (
    (_SZ @ _SZ, _E2), (_SX, _E2), (_SY, _E2), (_SZ, _E2), (_E3, _IX), (_E3, _IY), (_E3, _IZ),
    (_SX, _IX), (_SY, _IY), (_SZ, _IZ), (_SZ, _IX), (_SX, _IZ))], dtype=complex)

# Microwave drive operator: electron Sx in the NV frame.
DRIVE_SX = _OPS[1]

# H = c @ _H_OPS: one row of 72 floats (a flat complex 6x6) per operator of
# _OPS. The coefficients (src[_H_SRC] * _H_SCALE) * (1, gamma_e, gamma_n)[_H_GAM],
# src = (b_x, b_y, b_z, a_xx, a_yy, a_zz, a, d), carry Sx's and Sy's sqrt(2):
# every entry is 0 or a power of two, each product exact, and H keeps the
# formula's bits as long as BLAS sums the rows in order.
_R2 = math.sqrt(2)
_H_SRC = np.array([7, 0, 1, 2, 0, 1, 2, 3, 4, 5, 6, 6])
_H_SCALE = np.array([1.0, _R2, _R2, 1.0, 1.0, 1.0, 1.0, _R2, _R2, 1.0, 1.0, _R2])
_H_GAM = np.array([0, 1, 1, 1, 2, 2, 2, 0, 0, 0, 0, 0])
_H_OPS = _OPS.view(float).reshape(12, 72) / _H_SCALE[:, None]
_DH_SRC = np.array([3, 4, 5, 6, 0, 1, 2])  # a_xx, a_yy, a_zz, a; b_x, b_y, b_z


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
    maps to 0, so wrapping twice is a no-op. A Python float stays one.
    """
    w = phi % 360.0
    return w - (w == 360.0) * 360.0


def unit_vectors(theta, phi) -> np.ndarray:
    """Field directions (degrees) as unit vectors, shape (..., 3).

    phi is used as given: wrap it with ``wrap_azimuth`` first to reproduce
    the vectors of ``FieldOrientation``, which stores it wrapped.
    """
    th, ph = np.radians(theta), np.radians(phi)
    s = np.sin(th)
    out = np.empty(np.shape(th) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = s * np.cos(ph), s * np.sin(ph), np.cos(th)
    return out


def hamiltonians(params: SystemParams, bvec, tensor=None) -> np.ndarray:
    """Stack of static Hamiltonians for NV-frame field vectors (Gauss).

    bvec has shape (..., 3); the result has shape (..., 6, 6).
    ``tensor`` holds per-row components (a_xx, a_yy, a_zz, a) with shape
    (..., 4), broadcast against bvec's leading axes; by default every row
    takes ``params.tensor``. ``build_hamiltonian`` is the batch of one.

    One product of coefficient rows with the power-of-two table ``_H_OPS``, in
    the formula's order if BLAS keeps it; a non-finite field row is all nan.
    """
    bvec = np.asarray(bvec, dtype=float)
    tensor = params.tensor._components if tensor is None else np.asarray(tensor, dtype=float)
    src = np.empty((bvec.shape[:-1] if tensor.ndim == 1  # one row: no np.broadcast
                    else np.broadcast(bvec[..., 0], tensor[..., 0]).shape) + (8,))
    src[..., :3], src[..., 3:7], src[..., 7] = bvec, tensor, params.d
    c = src.reshape(-1, 8)[:, _H_SRC] * _H_SCALE
    c *= np.array((1.0, params.gamma_e, params.gamma_n))[_H_GAM]
    return (c @ _H_OPS).view(complex).reshape(src.shape[:-1] + (6, 6))


@functools.lru_cache(maxsize=8)
def _derivative_operators(gamma_e, gamma_n):
    """dH/dp of ``hamiltonians`` by each source of ``_DH_SRC``, 6x6 blocks
    stacked (42, 6): the coefficient rows that read the source, at source 1.
    H is linear in every source, so each block is exact."""
    gam = np.array((1.0, gamma_e, gamma_n))[_H_GAM] * _H_SCALE
    return (((_H_SRC == _DH_SRC[:, None]) * gam) @ _H_OPS).view(complex).reshape(-1, 6)


@functools.lru_cache(maxsize=16)
def _arange(n: int, ndim: int = 1) -> np.ndarray:
    """np.arange(n) along the first of ndim axes, built once per (n, ndim)
    and read-only: the row and column indices of the gathers over stacks."""
    index = np.arange(n).reshape((n,) + (1,) * (ndim - 1))
    index.flags.writeable = False
    return index


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive.

    Works on one (6, n) matrix or a stack (..., 6, n).
    """
    stack = vectors.reshape((-1,) + vectors.shape[-2:])
    idx = np.abs(stack).argmax(axis=1)
    piv = stack[_arange(len(stack), 2), idx, _arange(idx.shape[1])]
    mag = np.abs(piv)
    factor = np.conj(piv)  # an empty column (mag 0) stays empty
    np.divide(factor, mag, out=factor, where=mag > 0)
    return (stack * factor[:, None]).reshape(vectors.shape)


def manifold_overlaps(vectors: np.ndarray) -> np.ndarray:
    """Population of each eigenvector (columns) in the three m_S subspaces.

    Returns array (n, 3) ordered (ms_plus, ms0, ms_minus), or (..., n, 3)
    for a stack of eigenvector matrices.
    """
    pops = np.abs(vectors) ** 2
    return (pops[..., 0::2, :] + pops[..., 1::2, :]).swapaxes(-1, -2)


def _hermitian(h: np.ndarray) -> np.ndarray:
    """Per matrix of a stack (n, k, k): finite, Hermitian to 1e-9 of its
    largest entry. |h_ij - conj(h_ji)| is the same float from either side,
    so the whole matrix gives the skew of one triangle; nan or inf fails
    (inf - inf warns)."""
    scale = np.maximum.reduce(np.abs(h), axis=(1, 2), initial=1.0)
    skew = np.maximum.reduce(np.abs(h - h.mT.conj()), axis=(1, 2))
    return skew - 1e-9 * scale <= 0.0  # not skew <= tol: inf <= inf would pass


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
    row = np.arange(0, 3 * m, 3)  # a row's first count
    labels = np.full((m, 6), -1, dtype=np.int8)
    counts = np.zeros(3 * m, dtype=np.int8)  # per row: ms_plus, ms0, ms_minus states
    reason = np.zeros(m, dtype=np.int8)
    for k in range(6):
        want = kinds[:, k]
        ambiguous = want == 3
        want = np.where(ambiguous, 1, want)
        full = counts[row + want] >= 2
        choice = np.where(full & (want != 1), 2 - want, want)
        slot = row + choice
        stop = np.where(ambiguous, 2, np.where(counts[slot] >= 2, 3, 0))
        np.copyto(reason, stop, where=reason == 0)
        labels[reason == 0, k] = choice[reason == 0]
        counts[slot] += 1
    return labels, reason


# the walk tabulated once for all 4**6 kind sequences; base-4 digits
_KIND_WEIGHTS = 4 ** np.arange(6)
# a state's kind by [ms_plus >= ms_minus overlap, ms0 <= 0.4, ms0 >= 0.6]
_KINDS = np.array([[[3, 1], [2, 2]], [[3, 1], [0, 0]]])
_WALK = np.column_stack(_labelling_walk(np.arange(4**6)[:, None] >> 2 * np.arange(6) & 3))
_WALK_LABELS = _WALK[:, :6]  # int8 labels, then the reason, one row per key
# the labels' order, as indices; an argsort of int8 rows is a slow radix sort
_WALK_ORDER = _WALK_LABELS.astype(int).argsort(axis=-1, kind="stable")


def label_manifolds(over: np.ndarray):
    """Manifold labels for a stack of eigensystems, policy of ``eigensystem``.

    over has shape (n, 6, 3), as from ``manifold_overlaps``. Returns
    (labels, reason, order): labels (n, 6) index MANIFOLD_LABELS and read
    -1 from the first state that cannot be labelled; reason (n,) is the
    EIGEN_REASONS code, 0 for complete labellings, which hold each manifold
    exactly twice; order (n, 6) is their stable argsort, from the same table row.
    """
    o_zero, side = over[..., 1], (over[..., 0] >= over[..., 2]).view(np.int8)
    low, high = o_zero <= 1.0 - _MANIFOLD_OVERLAP_MIN, o_zero >= _MANIFOLD_OVERLAP_MIN
    kinds = _KINDS[side, low.view(np.int8), high.view(np.int8)]  # bools as indices
    row = _WALK.take(key := kinds.dot(_KIND_WEIGHTS), axis=0)
    return row[:, :6], row[:, 6], _WALK_ORDER.take(key, axis=0)


def eigensystems(h: np.ndarray):
    """Batched ``eigensystem`` over a stack of 6x6 matrices (n, 6, 6).

    The labelling pass: the states are labelled by ``label_manifolds`` from
    the overlaps of eigh's own vectors, the floats the fit's forward model
    labels from, and their phases fixed afterwards. Returns (values,
    vectors, labels, reason, order, over): reason (n,) is the EIGEN_REASONS
    code, 0 where the matrix is Hermitian (nan and inf solved as 0) and its
    states labelled; over (n, 6, 3) holds the overlaps the labels are read
    from (``manifold_overlaps``).
    """
    h = np.asarray(h, dtype=complex)
    # exactly Hermitian and finite, as from hamiltonians: no tolerance to weigh
    exact = (h == h.mT.conj()).all() and np.isfinite(h).all()
    hermitian = exact or _hermitian(h)
    every = exact or all(hermitian.tolist())
    if not every:  # nan or inf would stop LAPACK
        h = np.where(np.isfinite(h), h, 0.0)
    values, vectors = np.linalg.eigh(h)
    over = manifold_overlaps(vectors)
    labels, reason, order = label_manifolds(over)
    reason = reason if every else np.where(hermitian, reason, 1)
    return values, _fix_phases(vectors), labels, reason, order, over


def _records(vectors, order, over):
    """What a scan point reads off each row of an ``eigensystems`` pass:
    (states, purity, drives), the Lambda state rows (n, 4, 6) at positions
    2-5 of the order (the ms0 pair, then the ms_minus pair), the latter's
    ms_minus overlaps (n, 2), ``lambda_rule``'s purity, and the moduli (n,
    2, 2) of the four main-line drives, |<ms_minus e|DRIVE_SX|ms0 g>| at [g, e]."""
    rows = _arange(len(order), 2)
    states = vectors.mT[rows, order[:, 2:]]
    drives = np.abs(line_drives(states[:, :2, None], states[:, None, 2:]))
    return states, over[rows, order[:, 4:], 2], drives


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
    values, vectors, labels, reason, order, over = eigensystems(h[None])
    if reason[0]:
        k = int(np.argmax(labels[0] < 0))  # the first unlabelled state
        names = [MANIFOLD_LABELS[j] for j in labels[0, :k]]
        raise ValueError(EIGEN_REASONS[reason[0] - 1].format(k=k, over=over[0, k], labels=names))
    states, purity, drives = _records(vectors, order, over)
    return Eigensystem(values[0], vectors[0], labels[0], order[0], states[0], purity[0].tolist(),
                       drives[0].ravel().tolist())


def line_drives(lo_states: np.ndarray, hi_states: np.ndarray) -> np.ndarray:
    """<hi|DRIVE_SX|lo> for state rows lo_states (..., 6) and hi_states,
    broadcast against them; result (...).

    Each element is one gemv and one dot, as ``np.vdot(v_hi, DRIVE_SX @
    v_lo)`` computes it, so it keeps its bits in any stack.
    """
    return np.vecdot(hi_states, (DRIVE_SX @ lo_states[..., None])[..., 0])


# the four main lines: (from, to) rows of an ``Eigensystem._states``, ms0 to ms_minus
_MAIN_LINES = np.array([[0, 0, 1, 1], [2, 3, 2, 3]])


def single_quantum_transitions(eig: Eigensystem) -> list[TransitionLine]:
    """Allowed single-quantum lines between ms0 and the ms_plus/ms_minus manifolds.

    Amplitude is |<to|Sx|from>|^2 for the electron Sx drive (``DRIVE_SX``).
    Lines are sorted by ascending frequency; equal frequencies keep the
    order of ms0 state, then upper state, each by ascending index. The four
    ms0 <-> ms_minus lines are the main lines of the low-frequency branch
    (see ``main_four_lines``).
    """
    ms0, upper = eig._order[2:4], np.flatnonzero(eig.labels != 1)
    lo, hi = np.repeat(ms0, 4).tolist(), np.tile(upper, 2).tolist()
    amp = np.abs(line_drives(eig.vectors.T[lo], eig.vectors.T[hi])) ** 2
    return _sorted_lines(eig, lo, hi, amp.tolist())


def main_four_lines(eig: Eigensystem) -> list[TransitionLine]:
    """The four ms0 <-> ms_minus lines of ``single_quantum_transitions``."""
    o = eig._order.tolist()  # the lines of _MAIN_LINES
    return _sorted_lines(eig, [o[2], o[2], o[3], o[3]], o[4:] * 2, [a * a for a in eig._main_legs])


def _sorted_lines(eig: Eigensystem, lo, hi, amp) -> list:
    """TransitionLines from states lo to states hi with drive amplitudes
    amp (lists), stably sorted by frequency (``sorted`` is stable)."""
    w = eig.values.tolist()
    rows = [(abs(w[j] - w[i]), a, i, j) for i, j, a in zip(lo, hi, amp)]
    return [TransitionLine(*row) for row in sorted(rows, key=operator.itemgetter(0))]


def zero_quantum_splitting_exact(eig: Eigensystem) -> float:
    """Energy gap of the ms0 doublet, MHz."""
    w, order = eig.values, eig._order
    return float(abs(w[order[3]] - w[order[2]]))


def zeeman_states(theta, phi, minus=True):
    """Nuclear Zeeman eigenstates along field directions (degrees).

    Returns (beta_plus, beta_minus), each (..., 2), on (|+1/2>, |-1/2>):
    beta_plus = cos(theta/2)|+1/2> + e^{i phi} sin(theta/2)|-1/2>,
    beta_minus = sin(theta/2)|+1/2> - e^{i phi} cos(theta/2)|-1/2>; with
    minus False, beta_plus alone (all the Lambda kernels read).
    """
    half = np.radians(theta) / 2
    e = np.exp(1j * np.radians(phi))
    c, s = np.cos(half), np.sin(half)
    es = e * s  # its shape is theta's and phi's broadcast
    beta = np.empty(es.shape + (1 + minus, 2), dtype=complex)
    beta[..., 0, 0], beta[..., 0, 1] = c, es  # a real c or s takes +0j
    if not minus:
        return beta[..., 0, :]
    beta[..., 1, 0], beta[..., 1, 1] = s, -e * c
    return beta[..., 0, :], beta[..., 1, :]


def _nuclear_overlaps(sub: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """|<ref|nuclear part>|^2 for blocks sub (n, m, 2); result (n, m).

    sub holds the states' components in one electron manifold; the nuclear
    part is that block normalised, nan for a block without weight. ref
    broadcasts against sub.
    """
    # BLAS dots, one per state (an elementwise sum of squares rounds otherwise);
    # the real part of <sub|sub> sums the real and imaginary parts' dots
    nrm = np.sqrt(np.vecdot(sub, sub).real)
    nrm[nrm == 0] = np.nan  # x / nan is a quiet nan, 0 / 0 is not
    nuc = sub / nrm[..., None]
    return np.abs(np.vecdot(ref, nuc)) ** 2


# Why one eigensystem has no Lambda system: the reason code of a row is 0
# where the system is found, else 1 + the index of its message here. The
# order is the ranking: a row takes the first reason that holds.
LAMBDA_REASONS = (
    "excited level not a clean ms_minus state (overlap {purity:.3f})",
    "quantization axis undefined (a_zz = a = 0)",
    "excited-state identification ambiguous: alpha_minus overlaps "
    "{overlap[0]:.4f} vs {overlap[1]:.4f}",
)


# per state row of a ``lambda_overlaps`` stack: its components in its own manifold
_PAIR_ROWS = np.array([[2, 3], [2, 3], [4, 5], [4, 5]])
# beta_plus where only the excited level is asked for, which it does not decide
_NO_ZEEMAN_STATE = np.full(2, np.nan)


def lambda_overlaps(states: np.ndarray, beta_plus, alpha_minus):
    """The overlaps the Lambda systems of labelled eigensystems are read from.

    states (n, 4, 6) holds Lambda state rows from ``_records``, where
    ``eigensystems`` marks them ok: positions 2-5 of their order, the ms0
    pair and the ms_minus pair; beta_plus (n, 2) is from ``zeeman_states`` and
    alpha_minus (2,) from ``HyperfineTensor._alpha_minus``. Returns overlap
    (n, 4): the two ms0 states' overlaps with beta_plus, then the two
    ms_minus states' overlaps with alpha_minus, by ``_nuclear_overlaps``
    (nan where a state has no weight in its manifold). ``lambda_rule``
    decides each row from them and its purity from ``_records``.
    """
    block = states[:, _arange(4, 2), _PAIR_ROWS]
    ref = np.empty((len(states), 4, 2), dtype=complex)
    ref[:, :2], ref[:, 2:] = beta_plus[:, None], alpha_minus
    return _nuclear_overlaps(block, ref)


def lambda_rule(overlap, purity, axis_code):
    """The Lambda system of one ``lambda_overlaps`` row and its purity, as Python floats.

    axis_code is the LAMBDA_REASONS code of the tensor's quantization axis
    (0, or 2 where it is undefined and alpha_minus is nan). Returns
    (reason, excited, g_plus): the reason code, 0 where the system is
    found, and the positions within their pairs (bools: 0 or 1) of the
    excited level, the ms_minus state nearer alpha_minus, and of the ms0
    state nearer beta_plus. The Lambda model needs a clean ms_minus
    excited level; near theta = 90 the transverse field mixes ms_plus and
    ms_minus and no such level exists. A clean state has ms_minus weight,
    so its overlap is defined with the axis. The comparisons are numpy's:
    a nan purity is not clean, nan overlaps are never ambiguous, and the
    excited level is the first nan overlap, else the first largest one
    (``np.argmax``).
    """
    plus0, plus1, o1, o2 = overlap
    p1, p2 = purity
    if not (p1 >= _MANIFOLD_OVERLAP_MIN and p2 >= _MANIFOLD_OVERLAP_MIN):
        reason = 1
    elif abs(o1 - o2) < 0.05 * max(o1, o2):
        reason = 3
    else:
        reason = axis_code
    return reason, o1 == o1 and not o2 <= o1, not plus0 >= plus1


def _lambda_row(eig: Eigensystem, tensor: HyperfineTensor, beta_plus):
    """(excited, g_plus) of ``lambda_rule`` for one eigensystem, the batch of
    one of ``lambda_overlaps``. Raises the LAMBDA_REASONS message of its
    reason code."""
    alpha_minus, axis_code = tensor._alpha_minus
    overlap = lambda_overlaps(eig._states[None], beta_plus[None], alpha_minus)[0].tolist()
    purity = eig._purity
    reason, excited, g_plus = lambda_rule(overlap, purity, axis_code)
    if reason:
        low = next((p for p in purity if p < _MANIFOLD_OVERLAP_MIN), purity[0])
        raise ValueError(LAMBDA_REASONS[reason - 1].format(purity=low, overlap=overlap[2:]))
    return excited, g_plus


def lambda_excited_index(eig: Eigensystem, tensor: HyperfineTensor) -> int:
    """Index of the ms_minus eigenstate whose nuclear part is alpha_minus.

    Raises when the two ms_minus states overlap alpha_minus within 5% of each
    other (identification would be arbitrary), and for the other
    LAMBDA_REASONS. The batch of one of ``lambda_overlaps`` and
    ``lambda_rule``.
    """
    return int(eig._order[4 + _lambda_row(eig, tensor, _NO_ZEEMAN_STATE)[0]])


def lambda_system(eig: Eigensystem, tensor: HyperfineTensor, field: FieldOrientation):
    """The zero-quantum Lambda system of one eigensystem.

    Returns (omega_plus, omega_minus, excited, g_plus, g_minus): the leg
    amplitudes of ``lambda_transition_amplitudes`` and the state indices
    of the excited level and of the ground states matching beta_plus and
    beta_minus. The batch of one of ``lambda_overlaps`` and ``lambda_rule``;
    the legs are two of the eigensystem's main-line drives. Raises the
    LAMBDA_REASONS first, then at b = 0, where the Zeeman axis is undefined.
    """
    excited, g_plus = _lambda_row(eig, tensor, zeeman_states(field.theta, field.phi, False))
    if field.b <= 0:
        raise ValueError("Zeeman axis undefined (b = 0)")
    legs, order = eig._main_legs, eig._order.tolist()
    # _MAIN_LINES holds the line of ms0 position g and ms_minus position e at 2 g + e
    return (legs[2 * g_plus + excited], legs[2 - 2 * g_plus + excited], order[4 + excited],
            order[2 + g_plus], order[3 - g_plus])


def lambda_transition_amplitudes(
    eig: Eigensystem, tensor: HyperfineTensor, field: FieldOrientation
):
    """Drive amplitudes of the two legs of the zero-quantum Lambda system.

    The excited level is the ms_minus eigenstate whose nuclear part matches
    alpha_minus of ``HyperfineTensor._alpha_minus``; the two ms0 states are
    labeled by their overlap with the beta_plus/beta_minus Zeeman states.
    Returns (omega_plus, omega_minus) = |<excited|DRIVE_SX|ground_pm>|, not
    squared.
    """
    return lambda_system(eig, tensor, field)[:2]


def lambda_legs(params: SystemParams, b, theta, phi):
    """Lambda leg amplitudes at fields b (scalar or (n,)), theta, phi (n,).

    The batched form of ``lambda_transition_amplitudes``: one labelling pass
    (``eigensystems``) and one ``lambda_overlaps`` call, ``lambda_rule`` on every
    row, the legs read off each row's main-line drives. Returns (omega_plus,
    omega_minus, ok); ok is False where the scalar form would raise.
    """
    phi = wrap_azimuth(phi)  # as FieldOrientation
    ok = np.isfinite(b) & (b > 0) & (theta >= 0.0) & (theta <= 180.0)
    h = hamiltonians(params, np.where(ok, b, 0.0)[:, None] * unit_vectors(theta, phi))
    _, vectors, _, eig_reason, order, over = eigensystems(h)
    states, purity, drives = _records(vectors, order, over)
    alpha_minus, axis_code = params.tensor._alpha_minus
    overlap = lambda_overlaps(states, zeeman_states(theta, phi, False), alpha_minus)
    rule = map(lambda_rule, overlap.tolist(), purity.tolist(), itertools.repeat(axis_code))
    flat = np.fromiter(itertools.chain.from_iterable(rule), int, 3 * len(states))
    reason, excited, g_plus = flat.reshape(-1, 3).T
    rows = _arange(len(states))
    return (drives[rows, g_plus, excited], drives[rows, 1 - g_plus, excited],
            ok & (eig_reason == 0) & (reason == 0))
