"""Parameter estimation: datasets, fitting, sensitivities, axis searches.

The forward model everywhere is exact diagonalization of the 6x6
Hamiltonian. Fits run a damped Gauss-Newton iteration, one model
evaluation per pass, on a joint inverse-variance chi^2 over
single-quantum line frequencies and zero-quantum splittings; their
Jacobian is exact, the Hellmann-Feynman derivatives of the model's
eigenvalues. With a_zz and a both free the iteration steps in valley
coordinates, r = hypot(a_zz, a), psi = atan2(a, a_zz) and mostly q =
sign(a_xx) hypot(a_xx, a), along the soft curved valley that single-axis
data leave (Transtrum, Machta & Sethna, PRL 104, 060201 (2010)), once r
is past 40/3 MHz; psi moves at most 0.3 rad per iteration, with a
geodesic acceleration from the second-order perturbation theory of the
pass's own eigensolve. Results are reported in PARAM_IDS.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .spin_core import (
    _MAIN_LINES,
    FieldOrientation,
    SystemParams,
    _derivative_operators,
    hamiltonians,
    label_manifolds,
    lambda_legs,
    line_drives,
    manifold_overlaps,
    unit_vectors,
    wrap_azimuth,
)

OBSERVABLE_KINDS = ("sq_frequency", "zq_frequency", "zq_amplitude")

CSV_HEADER = "theta_deg,phi_deg,b_gauss,kind,value,sigma,transition_index"

# smallest sigma a point may carry; noiseless synthetic data is stored
# with it, and far smaller sigmas overflow the inverse-variance weights
MIN_SIGMA = 1e-6

# relative singular-value floor below which a fit direction counts as
# degenerate (see the null-space error in fit_hyperfine); the canonical
# STA + phi-sweep design sits near 9e-5, structural degeneracies below 1e-9
_SV_FLOOR = 1e-6


@dataclass(frozen=True)
class ScanPoint:
    """One measured observable at one field configuration."""

    # field order must match CSV_HEADER: a dataset row is csv_row(*astuple(point))
    theta: float  # deg, NV frame
    phi: float  # deg
    b: float  # Gauss
    kind: str
    value: float  # MHz for frequencies, dimensionless for amplitudes
    sigma: float
    transition_index: int | None = None

    def __post_init__(self):
        if self.kind not in OBSERVABLE_KINDS:
            raise ValueError("unknown observable kind %r" % (self.kind,))
        for name in ("theta", "phi", "b", "value", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if not 0.0 <= self.theta <= 180.0:
            raise ValueError("theta must be in [0, 180], got %r" % (self.theta,))
        if self.b < 0:
            raise ValueError("b must be >= 0, got %r" % (self.b,))
        if not self.sigma >= MIN_SIGMA:
            raise ValueError("sigma must be >= %g, got %r" % (MIN_SIGMA, self.sigma))
        if self.transition_index is not None:
            if self.kind != "sq_frequency":
                raise ValueError("a %s row takes no transition_index, got %r"
                                 % (self.kind, self.transition_index))
            if self.transition_index not in (0, 1, 2, 3):
                raise ValueError(
                    "transition_index must be 0..3, got %r" % (self.transition_index,)
                )


@dataclass(frozen=True)
class ScanDataset:
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class FitParams:
    """The fit's parameter table: its fields, in order, are PARAM_IDS and the vector's slots."""

    a_xx: float
    a_yy: float
    a_zz: float
    a: float
    b: float
    phi_offset: float = 0.0  # deg added to dataset phi to reach the NV frame

    def as_vector(self) -> np.ndarray:
        return np.array(dataclasses.astuple(self))


PARAM_IDS = tuple(f.name for f in dataclasses.fields(FitParams))
# the slots by name; _TENSOR and _G also index the rows of _derivative_operators
_XX, _YY, _ZZ, _A, _B, _PHI = range(len(PARAM_IDS))
_TENSOR, _G = slice(_B), slice(_B, None)


@dataclass(frozen=True)
class FitResult:
    params: FitParams
    sigmas: dict  # parameter id -> 1 sigma (0.0 for fixed parameters)
    chi2: float
    n_iterations: int
    converged: bool
    residuals: np.ndarray  # value - model, per point, point units
    stop_reason: str = "chi2_stalled"  # or stationary, grad_small, damping_cap, max_iterations
    n_rejected: int = 0  # passes whose trial was not taken
    dof: int = 0  # points less free parameters; scales the covariance where > 0


@dataclass(frozen=True)
class SensitivityReport:
    parameter: str
    c_value: float  # mean absolute slope over the four main lines
    slopes: tuple  # per-line signed slopes, ascending line frequency


def read_dataset(path: str) -> ScanDataset:
    """Parse a scan CSV. Lines starting with '#' and blank lines are skipped.

    The first content line must be exactly the canonical header.
    """
    points = []
    with open(path) as fh:
        lines = fh.readlines()
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ValueError(
                    "%s:%d: expected header %r, got %r" % (path, lineno, CSV_HEADER, line)
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ValueError("%s:%d: expected 7 fields, got %d" % (path, lineno, len(parts)))
        try:
            idx = int(parts[6]) if parts[6].strip() != "" else None
            point = ScanPoint(
                theta=float(parts[0]),
                phi=float(parts[1]),
                b=float(parts[2]),
                kind=parts[3].strip(),
                value=float(parts[4]),
                sigma=float(parts[5]),
                transition_index=idx,
            )
        except ValueError as exc:
            raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None
        points.append(point)
    if not header_seen:
        raise ValueError("%s: no header line found" % path)
    return ScanDataset(tuple(points))


# ---------------------------------------------------------------------------
# batched forward model

# SQ lines closer to an unindexed data point than this count as tied; ties
# between genuinely distinct lines fall back to the transition amplitudes
_MATCH_TIE = 1e-6


class _FitData:
    """A dataset as the fit's arrays, plus its distinct (theta, phi, b) points.

    ``sq`` indexes the sq_frequency data points and ``dist`` maps every
    data point into the list of distinct points, which are every point's
    (theta, phi, b) bits in ascending signed-int64 order.
    ``sq_index`` is each SQ point's ``transition_index``, -1 when it has
    none; ``sq_free`` lists those SQ rows. With ``per_point_b`` every
    point takes the b of its own row, else every vector's b slot. The rest
    are per-fit constants of ``_forward_model``, ``_jacobian`` and
    ``_second_directional``, which pass the per-vector field ("u", "dirs",
    "curv") in ``keep``.
    """

    def __init__(self, dataset: ScanDataset, per_point_b=False):
        pts = dataset.points
        if any(p.kind == "zq_amplitude" for p in pts):
            raise ValueError(
                "zq_amplitude points cannot enter the frequency fit; "
                "drop them or fit frequencies only"
            )
        self.per_point_b = per_point_b
        # floats even of int fields; keyed on the bits, so 0.0 and -0.0 stay apart as in H
        rows = np.array([(p.theta, p.phi, p.b, p.value, p.sigma) for p in pts], float)
        cols = rows.reshape(-1, 5).T  # (5, 0) for no points
        self.theta, self.phi, _, self.values, self.sigmas = cols
        bits = [tuple(k) for k in cols[:3].T.view(np.int64).tolist()]
        where = {k: i for i, k in enumerate(sorted(set(bits)))}
        self.dist = np.array([where[k] for k in bits], dtype=np.intp)
        self.theta_dist, self.phi_dist, self.b_dist = np.reshape(list(where), (-1, 3)).view(float).T
        self.sq = np.flatnonzero([p.kind == "sq_frequency" for p in pts])
        self.sq_index = np.array(
            [-1 if pts[k].transition_index is None else pts[k].transition_index
             for k in self.sq],
            dtype=int,
        )
        self.sq_at, self.sq_rows = self.dist[self.sq], np.arange(len(self.sq))
        self.sq_free = np.nonzero(self.sq_index < 0)[0].tolist()
        # every point's lower then upper state: rows 2k, 2k + 1 of a (2n,) gather
        self.dist2, self.ms0_pair = np.repeat(self.dist, 2), np.tile([2, 3], len(pts))
        self.rows2 = np.arange(2 * len(pts))


def _sq_lines(w, vecs, order, data):
    """The model line of every SQ data point, as a pair of eigenstates.

    w (nd, 6) and vecs (nd, 6, 6) solve the distinct points; order (nd, 6)
    lists each solve's states as ``label_manifolds`` labels them: ms_plus,
    ms0, ms_minus, two each, ascending in energy. The four main lines join
    the two ms0 and two ms_minus states, ranked in ascending frequency. A
    point with a ``transition_index`` takes that line; a point without one
    takes the nearest line, and a near-tie between distinct lines resolves
    toward the stronger transition amplitude and raises when the amplitudes
    are comparable too. Returns (lo, hi): each point's ms0 and ms_minus
    state, stacked (2, nsq).
    """
    at, rows = data.sq_at[:, None], data.sq_rows
    pairs = order[:, 2:][at, _MAIN_LINES[:, None]]  # (2, nsq, 4): ms0, ms_minus states
    e = w[at, pairs]
    freqs = np.abs(e[1] - e[0])
    # the line of each indexed point; unindexed points are set below
    col = freqs.argsort(axis=1, kind="stable")[rows, data.sq_index]
    for r in data.sq_free:
        k = int(data.sq[r])
        dist = np.abs(freqs[r] - data.values[k])
        best, second = np.argsort(dist)[:2]
        col[r] = best
        if not (dist[second] - dist[best] < _MATCH_TIE
                and abs(freqs[r, second] - freqs[r, best]) > 1e-9):
            continue
        states = vecs[at[r, 0]].T
        amp = np.abs(line_drives(states[pairs[0, r]], states[pairs[1, r]])) ** 2
        if abs(amp[best] - amp[second]) <= 0.1 * max(amp[best], amp[second]):
            raise ValueError(
                "ambiguous transition matching at point %d: two lines "
                "equidistant from value %.6g with comparable amplitudes"
                % (k, data.values[k])
            )
        if amp[second] > amp[best]:
            col[r] = second
    return pairs[:, rows, col]


def _forward_model(params, vec, data, keep=None):
    """Model frequencies (n,) for every point of a ``_FitData`` at vec (6,).

    The Hamiltonians are assembled and solved (``eigh``) once per call, over
    the distinct field points only, and their states labelled by
    ``label_manifolds``. Every point is the gap between two states of its
    solve: a ZQ point's ms0 pair, an SQ point's line from ``_sq_lines``.
    ``model_values`` runs this model at the truth, so synthetic data,
    ``zq-scan`` and the fit share it. With a dict ``keep``, the call
    leaves there what ``_jacobian`` and ``_second_directional`` reuse at
    this vector: the eigenvalues ("w") and eigenvectors ("vecs"), every
    point's lower and upper state ("states", (2n,), point k at 2k and
    2k + 1) and their energies ("e"), its signed gap ("gap"), and per
    distinct point b in G ("b", ``data.b_dist`` with ``data.per_point_b``,
    else vec's b at every point) and the field's unit vector ("u", at phi +
    phi_offset wrapped), so B = b u has ``build_hamiltonian``'s bits.
    """
    vec = np.asarray(vec, dtype=float)
    b = data.b_dist if data.per_point_b else np.full(len(data.b_dist), vec[_B])
    u = unit_vectors(data.theta_dist, wrap_azimuth(data.phi_dist + vec[_PHI]))
    w, vecs = np.linalg.eigh(hamiltonians(params, b[:, None] * u, vec[_TENSOR]))
    _, reason, order = label_manifolds(manifold_overlaps(vecs))
    if reason.any():  # every distinct point belongs to a data point
        k = int(np.argmax(reason[data.dist] > 0))
        raise ValueError(
            "manifold assignment ambiguous in forward model at point %d "
            "(theta=%.3f phi=%.3f)" % (k, data.theta[k], data.phi[k])
        )
    states = order[data.dist2, data.ms0_pair]  # the ms0 pair, for ZQ points
    if len(data.sq):
        lo, hi = states[0::2], states[1::2]
        lo[data.sq], hi[data.sq] = _sq_lines(w, vecs, order, data)
    e = w[data.dist2, states]
    gap = e[1::2] - e[0::2]
    if keep is not None:
        keep.update(w=w, vecs=vecs, states=states, e=e, gap=gap, b=b, u=u)
    return np.abs(gap)


def _jacobian(params, vec, data, keep=None):
    """Exact derivatives (n, len(PARAM_IDS)) of ``_forward_model`` at one vector.

    Hellmann-Feynman: d lambda_k / dp = <v_k| dH/dp |v_k>, the tensor's dH/dp
    the rows ``_TENSOR`` of ``_derivative_operators``. b and phi_offset (deg,
    added to phi) enter H as B . G, B = b u, u = ``unit_vectors(theta, phi)``,
    G_c its rows ``_G``; with k = pi/180, dH/db = u . G, dH/dphi_offset = k b
    (u_x G_y - u_y G_x), d^2H/db dphi_offset is that over b, d^2H/dphi_offset^2
    = -k^2 b (u_x G_x + u_y G_y) and d^2H/db^2 = 0. ``keep`` is what
    ``_forward_model`` left at this vector (made here when None): its solve
    and the two states of every point, so model and derivatives read the same
    states and no further eigensolve is needed. Columns follow PARAM_IDS;
    with ``data.per_point_b`` the b column is meaningless. It adds to
    ``keep`` what ``_second_directional`` reads: O s per state and operator
    ("ops_s"), the gap's sign ("sg"), each point's dB/db, dB/dphi_offset,
    d^2B/db dphi_offset and d^2B/dphi_offset^2 ("dirs", (n, 3, 4), built
    here only), the last two along its gap ("curv") and the result ("jac").
    """
    if keep is None:
        keep = {}
        _forward_model(params, vec, data, keep)
    n = len(data.dist)
    s = keep["vecs"][data.dist2, :, keep["states"]]
    # <s|O|s> of every operator, (2n, operators): one matmul, then
    # Re(conj(s) O s) as one sum over interleaved real and imaginary parts
    ops = _derivative_operators(params.gamma_e, params.gamma_n)
    ops_s = (s @ ops.T).reshape(2 * n, -1, 6)
    e = (ops_s.view(float) * s.view(float)[:, None]).sum(axis=-1)
    # per data point, the change of each expectation value along its gap
    sg = np.sign(keep["gap"])
    de = sg[:, None] * (e[1::2] - e[0::2])
    # B's four derivative directions from its unit vector u (k = pi/180): one
    # product gives b's and phi_offset's columns and both field curvatures
    u, b, k = keep["u"][data.dist], keep["b"][data.dist, None], math.pi / 180.0
    du = np.stack([-k * u[:, 1], k * u[:, 0], np.zeros(n)], axis=1)  # per unit b
    dirs = np.stack([u, du * b, du, u * [-k * k, -k * k, 0.0] * b], axis=2)
    field = (de[:, None, _G] @ dirs)[:, 0]
    out = np.empty((n, len(PARAM_IDS)))  # C-ordered: _pass reads a Fortran copy
    out[:, _TENSOR] = de[:, _TENSOR]
    out[:, [_B, _PHI]] = field[:, :2]
    keep.update(ops_s=ops_s, sg=sg, jac=out, dirs=dirs, curv=field[:, 2:])
    return out


def _second_directional(data, keep, dx, ddx):
    """Second derivative (n,) of ``_forward_model`` along vec + t dx + t^2 ddx / 2.

    Second-order perturbation theory on the solve that ``_forward_model``
    and ``_jacobian`` left in ``keep`` at vec: lambda_k'' = <k|H''|k> +
    2 sum_{j != k} |<j|H'|k>|^2 / (lambda_k - lambda_j), H' = sum_p dx_p
    dH/dp, H'' = sum_p ddx_p dH/dp + 2 dx_b dx_phi d^2H/db dphi_offset +
    dx_phi^2 d^2H/dphi_offset^2, the derivatives of
    ``_derivative_operators`` along ``_jacobian``'s "dirs" and "curv". The
    first call at a vector keeps its per-solve arrays there ("pt2"). With
    ``data.per_point_b``, dx and ddx must be 0 in the b slot. nan where two
    levels coincide.
    """
    n = len(data.dist)
    if "pt2" not in keep:
        gaps = keep["e"][:, None] - keep["w"][data.dist2]
        gaps[gaps == 0.0] = np.nan  # coinciding levels: nan, quietly
        gaps[data.rows2, keep["states"]] = np.inf  # j = k drops out of the sum
        # twice the upper state's sum less the lower's, along the gap's sign
        sg = keep["sg"][:, None] * [-2.0, 2.0]
        inv_gap = (sg.reshape(2 * n, 1) / gaps).reshape(n, 2, 6, 1)
        # <j|O|k> of every operator, (n, 2, operators, 12)
        x = keep["ops_s"].reshape(n, -1, 6) @ keep["vecs"][data.dist].conj()
        x = x.view(float).reshape(n, 2, -1, 12)
        # <j|dH/dp|k> per parameter: the tensor rows, then b's and phi_offset's
        # from the G_c rows along the Jacobian's field directions
        dirs = keep["dirs"][:, None, :, :2].mT
        keep["pt2"] = np.concatenate([x[:, :, _TENSOR], dirs @ x[:, :, _G]], axis=2), inv_gap
    x, inv_gap = keep["pt2"]
    h = dx @ x  # <j|H'|k>
    hh = (h * h).reshape(n, 2, 6, 2) * inv_gap
    return (keep["jac"] @ ddx + keep["curv"] @ [2.0 * dx[_B] * dx[_PHI], dx[_PHI] * dx[_PHI]]
            + hh.reshape(n, -1).sum(axis=1))


# the largest change of psi, the angle of (a_zz, a), in one fit iteration
_PSI_CAP = 0.3  # rad
# the fit steps in (r, psi) from this r on, where r's cap 0.15 r leaves its 2 MHz
# floor; nearer r = 0 psi is ill-defined, and a floor step turns it by > 0.15 rad
_VALLEY_R = 2.0 / 0.15  # MHz
# the q chart needs |a_xx| >= this share of q, capping d a_xx/dq = q/a_xx at 5
_Q_SHARE = 0.2
# the charts keep r, psi and q in the a_zz, a and a_xx slots
_R, _PSI = _ZZ, _A


class _Chart:
    """The plain chart, u = vec. A chart maps vec to u (``to``), u back
    (``back``; ValueError outside it) and a Jacobian to u (``jacobian``)."""

    to = back = staticmethod(lambda x: x)
    jacobian = staticmethod(lambda jac, u: jac)


class _ValleyChart(_Chart):
    """(a_zz, a) = r (cos psi, sin psi), the valley's own coordinates: d/dr =
    cos(psi) d/da_zz + sin(psi) d/da, d/dpsi = r (cos(psi) d/da - sin(psi)
    d/da_zz)."""

    def to(self, vec):
        u = np.array(vec, dtype=float)
        u[_R], u[_PSI] = math.hypot(u[_ZZ], u[_A]), math.atan2(u[_A], u[_ZZ])
        return u

    def back(self, u):
        vec = np.array(u, dtype=float)
        vec[_ZZ], vec[_A] = u[_R] * math.cos(u[_PSI]), u[_R] * math.sin(u[_PSI])
        return vec

    def jacobian(self, jac, u):
        c, s, r = math.cos(u[_PSI]), math.sin(u[_PSI]), u[_R]
        out = jac.copy()
        out[:, _R] = c * jac[:, _ZZ] + s * jac[:, _A]
        out[:, _PSI] = r * (c * jac[:, _A] - s * jac[:, _ZZ])
        return out

    def curve(self, u, du):
        """(dx, ddx) at t = 0 of the PARAM_IDS curve back(u + t du)."""
        c, s, r = math.cos(u[_PSI]), math.sin(u[_PSI]), u[_R]
        dr, dp, dx, ddx = du[_R], du[_PSI], du.copy(), np.zeros(len(du))
        dx[_ZZ], dx[_A] = c * dr - r * s * dp, s * dr + r * c * dp
        ddx[_ZZ] = -2.0 * s * dr * dp - r * c * dp * dp
        ddx[_A] = 2.0 * c * dr * dp - r * s * dp * dp
        return dx, ddx


class _QChart(_ValleyChart):
    """q = sign(a_xx) hypot(a_xx, a) for a_xx: d/dq = (q / a_xx) d/da_xx, d/dr
    and d/dpsi gain -a (sin(psi), r cos(psi)) / a_xx d/da_xx; a_xx' =
    (q q' - a a') / a_xx, a_xx'' = (q'^2 - a'^2 - a a'' - a_xx'^2) / a_xx."""

    def to(self, vec):
        u = super().to(vec)
        u[_XX] = math.copysign(math.hypot(vec[_XX], vec[_A]), vec[_XX])
        return u

    @staticmethod
    def axx(u):
        """a_xx = sign(q) sqrt(q^2 - a^2); raises where q^2 <= a^2."""
        g = u[_XX] * u[_XX] - (u[_R] * math.sin(u[_PSI])) ** 2
        if not g > 0.0:
            raise ValueError("q^2 <= a^2: outside the valley chart")
        return math.copysign(math.sqrt(g), u[_XX])

    def back(self, u):
        vec = super().back(u)
        vec[_XX] = self.axx(u)
        return vec

    def jacobian(self, jac, u):
        out = super().jacobian(jac, u)
        c, s, r, x = math.cos(u[_PSI]), math.sin(u[_PSI]), u[_R], self.axx(u)
        out[:, _XX] = (u[_XX] / x) * jac[:, _XX]
        out[:, _R] -= (r * s * s / x) * jac[:, _XX]
        out[:, _PSI] -= (r * r * s * c / x) * jac[:, _XX]
        return out

    def curve(self, u, du):
        dx, ddx = super().curve(u, du)
        x, a = self.axx(u), u[_R] * math.sin(u[_PSI])
        dq, da, dda = du[_XX], dx[_A], ddx[_A]
        dx[_XX] = dxx = (u[_XX] * dq - a * da) / x
        ddx[_XX] = (dq * dq - da * da - a * dda - dxx * dxx) / x
        return dx, ddx


_PLAIN, _VALLEY, _Q = _Chart(), _ValleyChart(), _QChart()


class _FitState:
    """A fit between passes: constants, the accepted ``vec`` with its weighted
    ``resid``, ``chi2`` and solve ``keep``, damping, counters and the last
    linearization: ``chart``, ``u`` and, in u's free columns ``cols``, ``jac``,
    ``grad``, ``jtj``, ``descent``, ``damp``, ``cap``."""

    def __init__(self, params, data, free, vec):
        self.params, self.data, self.free, self.cols = params, data, free, np.array(free)
        self.psi_col = free.index(_PSI) if _ZZ in free and _A in free else None
        self.phi_col = free.index(_PHI) if _PHI in free else None
        self.vec, self.keep = vec, {}
        self.resid, self.chi2 = self.residuals(vec, self.keep)
        self.mu, self.nu, self.need_jac, self.rel_change = 1e-3, 2.0, True, math.inf
        self.converged, self.consecutive, self.n_iter, self.n_rejected = False, 0, 0, 0

    def residuals(self, vec, keep):
        """Weighted residuals at vec and their chi^2, summed exactly (noiseless
        data weigh ~1e10, where plain sums hide real gains); inf on overflow."""
        data = self.data
        r = (_forward_model(self.params, vec, data, keep) - data.values) / data.sigmas
        x = r.tolist()
        try:
            return r, math.fsum(map(operator.mul, x, x))
        except OverflowError:
            return r, math.inf


def _pass(s):
    """One pass at state s; returns a stop reason or None.

    After a taken step it linearizes at vec, in the valley chart where a_zz and
    a are free and r >= ``_VALLEY_R``, in the q chart there where a_xx is free
    and |a_xx| >= ``_Q_SHARE`` q, else in the plain chart, and stops
    "stationary" if the step changed chi^2 by < 1e-10 relative and the
    Gauss-Newton decrement 1/4 g^T (J^T J)^-1 g is <= 1e-10 chi^2. Else one
    model evaluation tries the Marquardt step v, capped at max(2, 0.15 |u|) MHz
    and 5 deg in phi_offset (large steps jump between basins). A lower chi^2 is
    taken and sets mu *= max(1/3, 1 - (2 rho - 1)^3), rho (<= 1) the drop over
    the drop predicted for v; else mu *= nu, nu doubling per rejection in a row
    (Nielsen, IMM-REP-1999-05). In a valley chart v turns psi by at most
    ``_PSI_CAP`` and takes a/2, a = -(J^T J + mu D)^-1 J^T r''_v (Transtrum &
    Sethna, arXiv:1201.5885), where r''_v is finite and v + a/2 keeps that cap.
    Stops "chi2_stalled" after 3 taken steps in a row with relative chi^2
    change < 1e-10 or gradient norm < 1e-8, "grad_small" if the last met only
    the latter, "damping_cap" on a rejection at mu = 1e8 (converged if finite).
    """
    if s.need_jac:
        jac = _jacobian(s.params, s.vec, s.data, s.keep) / s.data.sigmas[:, None]
        if s.n_iter == 0:
            _check_rank(jac[:, s.free], s.free)
        s.chart, v = _PLAIN, s.vec
        if s.psi_col is not None and math.hypot(v[_ZZ], v[_A]) >= _VALLEY_R:
            q = _XX in s.free and abs(v[_XX]) >= _Q_SHARE * math.hypot(v[_XX], v[_A]) > 0
            s.chart = _Q if q else _VALLEY
        s.u = s.chart.to(v)
        # a Fortran-ordered copy; the products below read that layout
        s.jac = jac = s.chart.jacobian(jac, s.u)[:, s.free]
        s.grad = grad = 2.0 * jac.T @ s.resid
        s.jtj, s.descent = jac.T @ jac, -0.5 * grad
        if s.rel_change < 1e-10:
            with contextlib.suppress(np.linalg.LinAlgError):  # singular J^T J: no stop
                if 0.25 * grad @ np.linalg.solve(s.jtj, grad) <= 1e-10 * s.chi2:
                    s.converged = True
                    return "stationary"
        s.damp = np.maximum(s.jtj.diagonal(), 1e-300)
        s.cap = np.maximum(2.0, 0.15 * np.abs(s.u[s.cols]))
        if s.phi_col is not None:
            s.cap[s.phi_col] = 5.0
    s.n_iter += 1
    lhs = s.jtj.copy()
    lhs.ravel()[:: len(s.free) + 1] += s.mu * s.damp
    inv = np.linalg.inv(lhs)
    step = vel = inv @ s.descent
    if s.chart is not _PLAIN:
        # psi's damping alone grows x4 until the step fits (a whole-step scale lets psi
        # run into a second minimum): t there divides vel[psi] by 1 + t col[psi]
        psi = s.psi_col
        col, add, extra = inv[:, psi], 0.0, s.mu * s.damp[psi]
        while abs(vel[psi]) > _PSI_CAP * (1.0 + add * col[psi]):
            add += 3.0 * extra
            extra *= 4.0
        if add:
            inv = inv - np.outer(col, col) * (add / (1.0 + add * col[psi]))
            step = vel = inv @ s.descent
        du = np.zeros(len(s.u))  # geodesic acceleration, r'' from _second_directional
        du[s.cols] = vel
        curv = _second_directional(s.data, s.keep, *s.chart.curve(s.u, du)) / s.data.sigmas
        if np.isfinite(curv).all():
            accelerated = vel - 0.5 * (inv @ (s.jac.T @ curv))
            if abs(accelerated[psi]) <= _PSI_CAP:
                step = accelerated
    over = (np.abs(step) / s.cap).max()
    scale = 1.0 if over <= 1.0 else 1.0 / over
    trial, trial_keep = s.u.copy(), {}
    trial[s.cols] += scale * step
    try:
        trial = s.chart.back(trial)
        trial_resid, trial_chi2 = s.residuals(trial, trial_keep)
    except ValueError:  # outside the labelable regime or the chart
        trial_chi2 = math.inf
    if not trial_chi2 < s.chi2:
        s.n_rejected += 1
        if s.mu >= 1e8:
            s.converged = math.isfinite(trial_chi2)
            return "damping_cap"
        s.mu, s.nu, s.need_jac = min(s.mu * s.nu, 1e8), 2.0 * s.nu, False
        return None
    pred = -(scale * s.grad @ vel + scale * scale * vel @ s.jtj @ vel)
    # every rho >= 1 gives 1/3, and a pred at its floor cannot overflow
    rho = min((s.chi2 - trial_chi2) / max(pred, 1e-300), 1.0)
    s.mu = max(s.mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-12)
    s.nu, s.need_jac, s.rel_change = 2.0, True, (s.chi2 - trial_chi2) / max(s.chi2, 1e-300)
    s.vec, s.resid, s.chi2, s.keep = trial, trial_resid, trial_chi2, trial_keep
    stalled = s.rel_change < 1e-10
    s.consecutive = s.consecutive + 1 if stalled or math.sqrt(s.grad @ s.grad) < 1e-8 else 0
    if s.consecutive >= 3:
        s.converged = True
        return "chi2_stalled" if stalled else "grad_small"


def fit_hyperfine(
    dataset: ScanDataset,
    initial: FitParams,
    fixed=frozenset(),
    params: SystemParams | None = None,
    max_iterations: int = 500,
) -> FitResult:
    """Weighted least-squares fit of the hyperfine tensor to a scan dataset.

    Free parameters default to all of PARAM_IDS; names in ``fixed`` are held
    at their initial values. With b free a single global field strength is
    fitted and the per-point b column is ignored; with b fixed the column is
    used. An SQ point with a ``transition_index`` is fitted to that line, in
    ascending frequency, one without to the nearest line. The Jacobian is
    exact, from the accepted vector's solve (``_jacobian``).

    It runs ``_pass`` on one ``_FitState`` until a pass stops it or for
    ``max_iterations`` passes ("max_iterations", not converged). ``n_iterations``
    counts passes that evaluate the model, ``n_rejected`` those not taken.

    Raises ValueError("degenerate parameter direction: ...") when the first
    Jacobian or the covariance's loses rank (``_check_rank``; not in mid-fit),
    and when chi^2 or the covariance is not finite.
    """
    fixed = frozenset(fixed)
    for name in fixed:
        if name not in PARAM_IDS:
            raise ValueError("unknown parameter id %r in fixed" % (name,))
    free = [i for i, name in enumerate(PARAM_IDS) if name not in fixed]
    if not free:
        raise ValueError("no free parameters")
    data = _FitData(dataset, "b" in fixed)
    if len(dataset) < len(free):
        raise ValueError("%d points cannot constrain %d free parameters"
                         % (len(dataset), len(free)))
    params = params or SystemParams()
    vec = initial.as_vector()
    if not np.all(np.isfinite(vec)):
        raise ValueError("initial guess must be finite")
    s = _FitState(params, data, free, vec)
    if not math.isfinite(s.chi2):
        raise ValueError("chi^2 not finite at the initial guess; check the data values")
    stop_reason = None
    while stop_reason is None and s.n_iter < max_iterations:
        stop_reason = _pass(s)
    vec = s.vec
    if _A in free and _PHI in free and not -90.0 < vec[_PHI] <= 90.0:
        # (a, phi_offset) -> (-a, phi_offset +- 180), a z-rotation by pi, is exact;
        # report the principal branch, whose Jacobian needs a solve of its own
        while not -90.0 < vec[_PHI] <= 90.0:
            vec[_PHI] -= math.copysign(180.0, vec[_PHI])
            vec[_A] = -vec[_A]
        s.keep = None
    jac = (_jacobian(params, vec, data, s.keep) / data.sigmas[:, None])[:, free]
    _check_rank(jac, free)
    cov = np.linalg.inv(jac.T @ jac)
    if not np.all(np.isfinite(cov)):
        raise ValueError("fit covariance not finite; check the data sigmas")
    dof = len(dataset) - len(free)
    chi2_red = s.chi2 / dof if dof > 0 else 1.0
    if chi2_red > 1.0:
        cov = cov * chi2_red
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    sigmas_out = dict.fromkeys(PARAM_IDS, 0.0)
    sigmas_out.update((PARAM_IDS[pi], float(sig[col])) for col, pi in enumerate(free))
    return FitResult(FitParams(*vec.tolist()), sigmas_out, s.chi2, s.n_iter, s.converged,
                     -s.resid * data.sigmas, stop_reason or "max_iterations", s.n_rejected, dof)


def _check_rank(jac: np.ndarray, free):
    """Raise naming the null-space combination when the Jacobian loses rank."""
    norms = np.linalg.norm(jac, axis=0)
    top = float(np.max(norms))
    if top == 0.0:
        raise ValueError(
            "degenerate parameter direction: "
            + " , ".join(PARAM_IDS[i] for i in free)
        )
    scaled = jac / np.where(norms > top * 1e-300, norms, top)
    dead = norms < top * 1e-12
    if dead.any():
        name = PARAM_IDS[free[int(np.argmin(norms))]]
        raise ValueError("degenerate parameter direction: %s" % name)
    # singular values decide; the full SVD runs only to name the direction
    s = np.linalg.svd(scaled, compute_uv=False)
    if s[-1] < _SV_FLOOR * s[0]:
        null = np.linalg.svd(scaled)[2][-1] / norms
        null = null / np.linalg.norm(null)
        terms = [
            "%+.2f*%s" % (null[c], PARAM_IDS[free[c]])
            for c in range(len(free))
            if null[c] ** 2 > 0.1
        ]
        raise ValueError("degenerate parameter direction: %s" % " ".join(terms))


def model_values(params: SystemParams, points) -> np.ndarray:
    """The model value of every ScanPoint at params, each at its own field.

    Frequencies come from one ``_forward_model`` call over the per-point b
    column, so every point takes its own b; amplitudes
    (``zq_beat_amplitude`` / 2) from one ``lambda_legs`` call, nan
    where no Lambda system exists. An SQ point without a
    ``transition_index`` takes the line nearest its value, as in the fit.
    """
    out = np.empty(len(points))
    amp = np.array([p.kind == "zq_amplitude" for p in points], dtype=bool)
    if not amp.all():
        data = _FitData(ScanDataset(p for p, a in zip(points, amp) if not a), True)
        truth = FitParams(*dataclasses.astuple(params.tensor), b=0.0)  # b unread
        out[~amp] = _forward_model(params, truth.as_vector(), data)
    if amp.any():
        fields = np.array([(p.b, p.theta, p.phi) for p, a in zip(points, amp) if a])
        op, om, ok = lambda_legs(params, *fields.T)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[amp] = np.where(ok, (op * om / (op * op + om * om)) ** 2, np.nan)
    return out


def synthesize_dataset(
    params: SystemParams,
    b: float,
    design,
    noise_sigma=None,
    field_imperfection=None,
    seed: int = 0,
) -> ScanDataset:
    """Generate a synthetic scan dataset from the fit's forward model.

    design: iterable of (theta_deg, phi_deg, kind). An sq_frequency
    design point expands to the four main lines (transition_index 0..3,
    ascending frequency). noise_sigma: dict kind -> Gaussian sigma
    (default 0). field_imperfection: (amplitude_gauss, period_deg,
    phase_deg), all finite and the period nonzero, applied as
    B(phi) = b + amp*cos(2 pi phi/period + phase). Values are
    ``model_values`` at that field (the points store b), so a noiseless one
    equals ``_forward_model`` there. Raises where an amplitude point has no
    Lambda system. Deterministic for a fixed seed.
    """
    design = list(design)
    if not design:
        raise ValueError("design must be non-empty")
    noise_sigma = dict(noise_sigma or {})
    for kind, sigma in noise_sigma.items():
        if kind not in OBSERVABLE_KINDS:
            raise ValueError("unknown observable kind %r" % (kind,))
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError("noise_sigma[%r] must be finite and >= 0, got %r" % (kind, sigma))
    if field_imperfection is not None:
        amp, period, phase = field_imperfection
        if not (math.isfinite(amp) and math.isfinite(phase) and math.isfinite(period) and period):
            raise ValueError("field_imperfection (amplitude, period, phase) must be finite with "
                             "a nonzero period, got (%r, %r, %r)" % (amp, period, phase))
    points = []
    for theta, phi, kind in design:
        b_eff = b
        if field_imperfection is not None:
            b_eff = float(b + amp * np.cos(2 * np.pi * phi / period + np.radians(phase)))
        sigma = max(float(noise_sigma.get(kind, 0.0)), MIN_SIGMA)
        lines = range(4) if kind == "sq_frequency" else (None,)
        points += [ScanPoint(theta, phi, b_eff, kind, 0.0, sigma, k) for k in lines]
    values = model_values(params, points)
    if np.isnan(values).any():
        p = points[int(np.argmax(np.isnan(values)))]
        raise ValueError("no Lambda system at theta=%.3f phi=%.3f" % (p.theta, p.phi))
    noise = np.array([float(noise_sigma.get(p.kind, 0.0)) for p in points])
    noisy = noise > 0
    values[noisy] += np.random.default_rng(seed).normal(0.0, noise[noisy])
    return ScanDataset(
        dataclasses.replace(p, b=b, value=float(v)) for p, v in zip(points, values)
    )


def sensitivity_c(
    params: SystemParams, field: FieldOrientation, which: str
) -> SensitivityReport:
    """Frequency sensitivity of the four main SQ lines to one tensor component.

    The exact slopes: the ``_jacobian`` column of ``which`` (Hellmann-Feynman
    derivatives) at the four lines, in ascending line frequency.
    """
    if which not in PARAM_IDS[_TENSOR]:
        raise ValueError("unknown parameter id %r" % (which,))
    slopes = _tensor_slopes(params, field)[PARAM_IDS.index(which)]
    return SensitivityReport(which, float(np.mean(np.abs(slopes))), slopes)


@functools.lru_cache(maxsize=1)
def _tensor_slopes(params: SystemParams, field: FieldOrientation) -> tuple:
    """The four lines' slopes per tensor component from one ``_jacobian``,
    kept for the last point (equal keys differ at most in zero signs,
    which leave the Hamiltonian's bits as they are)."""
    data = _FitData(ScanDataset(
        ScanPoint(field.theta, field.phi, field.b, "sq_frequency", 0.0, MIN_SIGMA, k)
        for k in range(4)
    ))
    truth = FitParams(*dataclasses.astuple(params.tensor), field.b).as_vector()
    jac = _jacobian(params, truth, data)
    return tuple(tuple(float(x) for x in col) for col in jac[:, _TENSOR].T)


def precision_propagation(delta_omega: float, c: float) -> float:
    """Parameter precision from frequency precision: delta_A = delta_omega / c."""
    if not c > 0:
        raise ValueError("parameter unobservable (c = %r)" % (c,))
    if not (0 <= delta_omega < math.inf and c < math.inf):
        raise ValueError("delta_omega and c must be finite, delta_omega >= 0")
    return delta_omega / c


def _amplitude_ratios(params: SystemParams, b: float, theta, phi) -> np.ndarray:
    """Lambda amplitude ratio min/max at every (theta, phi), broadcast.

    inf where ``lambda_legs`` finds no Lambda system.
    """
    grid = np.empty((2,) + np.broadcast(theta, phi).shape)
    grid[0], grid[1] = theta, phi
    op, om, ok = lambda_legs(params, b, *grid.reshape(2, -1))
    hi = np.maximum(op, om)
    ratio = np.divide(np.minimum(op, om), hi, out=np.ones_like(hi), where=hi != 0)
    return np.where(ok, ratio, np.inf).reshape(grid.shape[1:])


def find_single_transition_axis(params: SystemParams, b: float):
    """Search the field orientation that kills one Lambda transition.

    Minimizes ``_amplitude_ratios`` by ``_sta_zoom`` on the mirror plane
    phi = 0 first (46 + 3 x 21 solves) and, only where that finds no ratio
    below 0.05, over phi in [-90, 90]. H is real at phi = 0 (no y tensor
    terms), so a Lambda leg is a real function of theta there and its zero
    a generic crossing. The plane solves the very (theta, 0) matrices of
    the 2D grid: an axis the 2D grid finds on phi = 0 keeps its bits. Where
    it finds one off the plane and the plane holds one too, the plane's is
    returned, and its ratio (below 0.05) may exceed the off-plane one (10
    of 2 000 tensors of a wide seeded family). The plane also mends the
    pole: at theta = 0 every phi is one field, the 2D coarse tie goes to
    (0, -90), and its zooms never search along phi = 0.
    Returns (theta_deg, phi_deg, amplitude_ratio). Raises when the
    minimum ratio stays at or above 0.05.
    """
    if not (math.isfinite(b) and b > 0):
        raise ValueError("b must be finite and > 0")
    for phis in (np.zeros(1), np.arange(-90.0, 90.0 + 1e-9, 2.0)):
        th, ph, r = _sta_zoom(params, b, phis)
        if r < 0.05:
            return th, ph, r
    raise ValueError("no single-transition axis in range (best ratio %.4f)" % r)


def _sta_zoom(params: SystemParams, b: float, phis: np.ndarray):
    """Grid zoom over theta in [0, 90] x ``phis``: a 2 degree theta grid,
    then three grids of +-2, +-0.2 and +-0.02 degrees in 21 steps around
    the best point so far, clipped to the range (a single phi stays fixed);
    0.002 degree is the final step. Ties go to the first minimum in
    theta-major order. Each grid runs as stacked eigensolves of at most
    500 points. H(theta, -phi) = conj H(theta, phi), so the ratio is even
    in phi: a grid whose phis are exactly symmetric about 0 (the coarse
    grid, and a zoom centred on phi = 0, whose offsets are antisymmetric
    bit for bit) is solved on its phi >= 0 columns only and mirrored, and
    of an off-axis (theta, +-phi) pair the tie rule returns -phi.
    Returns (theta_deg, phi_deg, amplitude_ratio).
    """
    thetas = np.arange(0.0, 90.0 + 1e-9, 2.0)
    for span in (None, 2.0, 0.2, 0.02):
        if span is not None:
            offsets = np.linspace(-span, span, 21)
            thetas = np.clip(th + offsets, 0.0, 90.0)
            if len(phis) > 1:
                phis = np.clip(ph + np.r_[-offsets[:10:-1], offsets[10:]], -90.0, 90.0)
        mirror = bool((phis == -phis[::-1]).all())
        solve = phis[len(phis) // 2 :] if mirror else phis
        # a few hundred points per stacked eigensolve: the whole 46 x 91
        # coarse grid at once raises peak memory ~10 %, and even 10 rows of
        # its mirrored half (460 points) raise it by ~0.5 MB
        rows = 500 // len(phis)
        grid = np.concatenate([
            _amplitude_ratios(params, b, thetas[k : k + rows, None], solve)
            for k in range(0, len(thetas), rows)
        ])
        if mirror:
            grid = np.concatenate([grid[:, :0:-1], grid], axis=1)
        i, j = divmod(int(grid.argmin()), grid.shape[1])
        th, ph, r = float(thetas[i]), float(phis[j]), float(grid[i, j])
    return th, ph, r
