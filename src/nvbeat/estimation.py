"""Parameter estimation: datasets, fitting, sensitivities, axis searches.

The forward model everywhere is exact diagonalization of the 6x6
Hamiltonian. Fits run a damped Gauss-Newton iteration on a joint
inverse-variance chi^2 over single-quantum line frequencies and
zero-quantum splittings.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .analytic import zq_beat_amplitude
from .spin_core import (
    _OP_IX,
    _OP_IY,
    _OP_IZ,
    _OP_MIX,
    _OP_SX,
    _OP_SXIX,
    _OP_SY,
    _OP_SYIY,
    _OP_SZ,
    _OP_SZ2,
    _OP_SZIZ,
    DRIVE_SX,
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    build_hamiltonian,
    eigensystem,
    eigensystems,
    hamiltonians,
    lambda_excited_states,
    lambda_legs,
    lambda_transition_amplitudes,
    main_four_lines,
    unit_vectors,
    wrap_azimuth,
    zeeman_states,
    zero_quantum_splitting_exact,
)

OBSERVABLE_KINDS = ("sq_frequency", "zq_frequency", "zq_amplitude")
PARAM_IDS = ("a_xx", "a_yy", "a_zz", "a", "b", "phi_offset")

CSV_HEADER = "theta_deg,phi_deg,b_gauss,kind,value,sigma,transition_index"

# smallest sigma a point may carry; noiseless synthetic data is stored
# with it, and far smaller sigmas overflow the inverse-variance weights
MIN_SIGMA = 1e-6

# finite-difference step for fit Jacobians, MHz / G / deg
_JAC_STEP = 0.05

# relative singular-value floor below which a fit direction counts as
# degenerate (see the null-space error in fit_hyperfine); the canonical
# STA + phi-sweep design sits near 9e-5, structural degeneracies below 1e-9
_SV_FLOOR = 1e-6


@dataclass(frozen=True)
class ScanPoint:
    """One measured observable at one field configuration."""

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
        if self.kind == "sq_frequency" and self.transition_index is not None:
            if self.transition_index not in (0, 1, 2, 3):
                raise ValueError(
                    "transition_index must be 0..3, got %r" % (self.transition_index,)
                )


@dataclass(frozen=True)
class ScanDataset:
    points: tuple
    frame: str = "NV"

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    def __len__(self):
        return len(self.points)

    def restricted(self, kind: str) -> "ScanDataset":
        return ScanDataset(
            tuple(p for p in self.points if p.kind == kind), frame=self.frame
        )


@dataclass(frozen=True)
class FitParams:
    """Free-parameter record of the hyperfine fit."""

    a_xx: float
    a_yy: float
    a_zz: float
    a: float
    b: float
    phi_offset: float = 0.0  # deg added to dataset phi to reach the NV frame

    def tensor(self) -> HyperfineTensor:
        return HyperfineTensor(self.a_xx, self.a_yy, self.a_zz, self.a)

    def as_vector(self) -> np.ndarray:
        return np.array(
            [self.a_xx, self.a_yy, self.a_zz, self.a, self.b, self.phi_offset]
        )

    @staticmethod
    def from_vector(v) -> "FitParams":
        return FitParams(*(float(x) for x in v))


@dataclass(frozen=True)
class FitResult:
    params: FitParams
    sigmas: dict  # parameter id -> 1 sigma (0.0 for fixed parameters)
    chi2: float
    n_iterations: int
    converged: bool
    residuals: np.ndarray  # value - model, per point, point units


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


def csv_row(p: ScanPoint) -> str:
    """One scan CSV row, columns as CSV_HEADER, without the newline."""
    idx = "" if p.transition_index is None else str(p.transition_index)
    return "%.10g,%.10g,%.10g,%s,%.10g,%.10g,%s" % (
        p.theta, p.phi, p.b, p.kind, p.value, p.sigma, idx
    )


def write_dataset(dataset: ScanDataset, path: str, comments=()):
    """Write a scan CSV; ``comments`` become leading '#' lines."""
    with open(path, "w") as fh:
        for c in comments:
            fh.write("# %s\n" % c)
        fh.write(CSV_HEADER + "\n")
        for p in dataset.points:
            fh.write(csv_row(p) + "\n")


# ---------------------------------------------------------------------------
# batched forward model

# SQ lines closer to a data point than this count as tied; ties between
# genuinely distinct lines fall back to the transition amplitudes
_MATCH_TIE = 1e-6


class _FitData:
    """A dataset as the fit's arrays, plus its distinct (theta, phi, b) points.

    ``zq``/``sq`` index the zq_frequency/sq_frequency data points,
    ``zq_dist``/``sq_dist`` the distinct points they use, and
    ``zq_pos``/``sq_pos`` map each such data point into that list.
    """

    def __init__(self, dataset: ScanDataset):
        pts = dataset.points
        if any(p.kind == "zq_amplitude" for p in pts):
            raise ValueError(
                "zq_amplitude points cannot enter the frequency fit; "
                "drop them or fit frequencies only"
            )
        self.values = np.array([p.value for p in pts])
        self.sigmas = np.array([p.sigma for p in pts])
        self.theta = np.array([p.theta for p in pts])
        self.phi = np.array([p.phi for p in pts])
        keys = np.stack([self.theta, self.phi, [p.b for p in pts]], axis=1)
        # keyed on the bits, so 0.0 and -0.0 stay apart as in the Hamiltonian
        first, inverse = np.unique(
            keys.view(np.int64), axis=0, return_index=True, return_inverse=True
        )[1:]
        th, self.phi_dist, self.b_dist = keys[first].T
        self.sin_t, self.cos_t = np.sin(np.radians(th)), np.cos(np.radians(th))

        def by_kind(mask):
            idx = np.nonzero(mask)[0]
            dist, pos = np.unique(inverse.reshape(-1)[idx], return_inverse=True)
            return idx, dist, pos.reshape(-1)

        zq = np.array([p.kind == "zq_frequency" for p in pts], dtype=bool)
        self.zq, self.zq_dist, self.zq_pos = by_kind(zq)
        self.sq, self.sq_dist, self.sq_pos = by_kind(~zq)


def _ambiguous(data, idx, bad):
    """Raise naming the first data point of ``idx`` flagged in ``bad``.

    ``bad`` holds one row of len(idx) flags per parameter row, flat or not.
    """
    k = int(idx[int(np.nonzero(bad.ravel())[0][0]) % len(idx)])
    raise ValueError(
        "manifold assignment ambiguous in forward model at point %d "
        "(theta=%.3f phi=%.3f)" % (k, data.theta[k], data.phi[k])
    )


def _forward_model(params, vec, data):
    """Model frequencies for every point of a ``_FitData`` at parameter vector(s).

    vec has shape (6,) or (m, 6); the return matches ((n,) or (m, n)). A
    nan in the b slot switches to the per-point b column. The Hamiltonians
    are assembled once per call, over the distinct field points only; ZQ
    points take ``eigvalsh`` of theirs and SQ points ``eigh``, one solve per
    distinct point however many lines it carries. The assembly's rounding
    order is frozen: (gamma * b_k) * op products, the tensor block first,
    then the x, y and z pairs. Fit trajectories on the soft sta-phi valley
    depend on every bit (a 1e-6 sigma change moves which fits end on its
    far side), so a change here must stay bit-identical or be measured as
    a change of the fit. Each SQ point is matched to the nearest of the
    four main model lines; a near-tie between distinct lines resolves
    toward the stronger transition amplitude and raises when the amplitudes
    are comparable too.
    """
    v = np.atleast_2d(np.asarray(vec, dtype=float))
    single = np.asarray(vec).ndim == 1
    m = v.shape[0]
    ph = np.radians(data.phi_dist[None, :] + v[:, 5:6])
    b = np.where(np.isnan(v[:, 4:5]), data.b_dist[None, :], v[:, 4:5])
    bs = b * data.sin_t
    ten = (
        params.d * _OP_SZ2
        + v[:, 0, None, None] * _OP_SXIX
        + v[:, 1, None, None] * _OP_SYIY
        + v[:, 2, None, None] * _OP_SZIZ
        + v[:, 3, None, None] * _OP_MIX
    )
    h = np.empty((m, len(data.b_dist), 6, 6), dtype=complex)
    h[:] = ten[:, None]
    for comp, se, ie in (
        (bs * np.cos(ph), _OP_SX, _OP_IX),
        (bs * np.sin(ph), _OP_SY, _OP_IY),
        (b * data.cos_t, _OP_SZ, _OP_IZ),
    ):
        c = comp[:, :, None, None]
        h += params.gamma_e * c * se + params.gamma_n * c * ie
    out = np.empty((m, len(data.values)))
    if len(data.zq):
        # the ms0 doublet is always the lowest eigenvalue pair here; only
        # eigenvalues are needed, with a separation guard against extreme
        # trial tensors pushing manifolds across each other
        w = np.linalg.eigvalsh(h[:, data.zq_dist].reshape(-1, 6, 6)).reshape(m, -1, 6)
        cut = params.d / 2.0
        bad = (w[..., 1] >= cut) | (w[..., 2] <= cut)
        if bad.any():
            _ambiguous(data, data.zq, bad[:, data.zq_pos])
        out[:, data.zq] = (w[..., 1] - w[..., 0])[:, data.zq_pos]
    if len(data.sq):
        n_sq, nd = len(data.sq), len(data.sq_dist)
        evals, evecs = np.linalg.eigh(h[:, data.sq_dist].reshape(-1, 6, 6))
        wght = np.abs(evecs) ** 2
        idx0 = np.argsort(wght[:, 2, :] + wght[:, 3, :], axis=1)[:, -2:]
        idxm = np.argsort(wght[:, 4, :] + wght[:, 5, :], axis=1)[:, -2:]
        # row of each (parameter row, SQ data point) in the distinct solve
        at = (np.arange(m)[:, None] * nd + data.sq_pos).ravel()
        clash = (idx0[:, :, None] == idxm[:, None, :]).any(axis=(1, 2))[at]
        if clash.any():
            _ambiguous(data, data.sq, clash)
        col = np.arange(len(evals))[:, None]
        # four line frequencies per point, layout [i_ms0, j_msm]
        freqs = (evals[col, idxm][:, None, :] - evals[col, idx0][:, :, None])
        freqs = freqs.reshape(-1, 4)[at]
        dist = np.abs(freqs.reshape(m, n_sq, 4) - data.values[data.sq][:, None])
        dist = dist.reshape(-1, 4)
        # the nearest and the second nearest line of each row
        order = np.argsort(dist, axis=1)[:, :2]
        rows = np.arange(len(freqs))[:, None]
        near, d = freqs[rows, order], dist[rows, order]
        tied = (d[:, 1] - d[:, 0] < _MATCH_TIE) & (np.abs(near[:, 1] - near[:, 0]) > 1e-9)
        model = near[:, 0]
        for r in np.nonzero(tied)[0]:
            s = at[r]
            v0, vm = evecs[s][:, idx0[s]], evecs[s][:, idxm[s]]
            amp = np.abs(v0.conj().T @ DRIVE_SX @ vm).reshape(-1) ** 2
            a_best, a_second = amp[order[r]]
            if abs(a_best - a_second) <= 0.1 * max(a_best, a_second):
                k = int(data.sq[r % n_sq])
                raise ValueError(
                    "ambiguous transition matching at point %d: two lines "
                    "equidistant from value %.6g with comparable amplitudes"
                    % (k, data.values[k])
                )
            if a_second > a_best:
                model[r] = near[r, 1]
        out[:, data.sq] = model.reshape(m, -1)
    return out[0] if single else out


def fit_hyperfine(
    dataset: ScanDataset,
    initial: FitParams,
    fixed=frozenset(),
    params: SystemParams | None = None,
    max_iterations: int = 500,
) -> FitResult:
    """Weighted least-squares fit of the hyperfine tensor to a scan dataset.

    Free parameters default to all of PARAM_IDS; names in ``fixed`` are
    held at their initial values. With b free a single global field
    strength is fitted and the per-point b column is ignored; with b
    fixed the column is used. Damped Gauss-Newton: the normal equations
    carry an adaptive Marquardt damping term and each step passes a
    halving line search. Convergence requires relative chi^2 change
    < 1e-10 or gradient norm < 1e-8 on 3 consecutive iterations.

    Raises ValueError("degenerate parameter direction: ...") when the
    Jacobian loses rank, naming the unconstrained combination; raises when
    chi^2 or the covariance is not finite.
    """
    fixed = frozenset(fixed)
    for name in fixed:
        if name not in PARAM_IDS:
            raise ValueError("unknown parameter id %r in fixed" % (name,))
    free = [i for i, name in enumerate(PARAM_IDS) if name not in fixed]
    if not free:
        raise ValueError("no free parameters")
    data = _FitData(dataset)
    values, sigmas = data.values, data.sigmas
    if len(dataset) < len(free):
        raise ValueError(
            "%d points cannot constrain %d free parameters" % (len(dataset), len(free))
        )
    if params is None:
        params = SystemParams()
    vec = initial.as_vector()
    if not np.all(np.isfinite(vec)):
        raise ValueError("initial guess must be finite")

    def model(v):
        u = np.array(v, dtype=float, copy=True)
        if "b" in fixed:
            u[..., 4] = np.nan  # sentinel: use the per-point column
        return _forward_model(params, u, data)

    def jacobian_forward(v, f0):
        vmat = np.repeat(v[None, :], len(free), axis=0)
        for col, pi in enumerate(free):
            vmat[col, pi] += _JAC_STEP
        fm = model(vmat)
        return (fm - f0[None, :]).T / (_JAC_STEP * sigmas[:, None])

    def jacobian_central(v):
        vmat = np.repeat(v[None, :], 2 * len(free), axis=0)
        for col, pi in enumerate(free):
            vmat[2 * col, pi] += _JAC_STEP
            vmat[2 * col + 1, pi] -= _JAC_STEP
        fm = model(vmat)
        return (fm[0::2] - fm[1::2]).T / (2 * _JAC_STEP * sigmas[:, None])

    def chi2_of(r):
        # exact summation: noiseless datasets weight chi^2 to ~1e10 where
        # plain accumulation hides real sub-unit improvements; an overflow
        # gives inf, which the caller rejects
        with np.errstate(over="ignore"):
            terms = (r * r).tolist()
        try:
            return math.fsum(terms)
        except OverflowError:
            return math.inf

    fvec = model(vec)
    resid = (fvec - values) / sigmas
    chi2 = chi2_of(resid)
    if not math.isfinite(chi2):
        raise ValueError("chi^2 not finite at the initial guess; check the data values")
    consecutive = 0
    converged = False
    n_iter = 0
    mu = 1e-3
    need_jac = True
    jac = grad = jtj = damp = None
    for n_iter in range(1, max_iterations + 1):
        if need_jac:
            jac = jacobian_forward(vec, fvec)
            _check_rank(jac, free)
            grad = 2.0 * jac.T @ resid
            jtj = jac.T @ jac
            damp = np.diag(np.clip(np.diag(jtj), 1e-300, None))
        step = np.linalg.solve(jtj + mu * damp, -0.5 * grad)
        # per-iteration trust cap: large raw steps jump between basins
        # (an x/y-swapped tensor with phi_offset near +-90 is a sticky
        # false minimum); the line search then polishes within the cap
        cap = np.maximum(2.0, 0.15 * np.abs(vec[free]))
        for col, pi in enumerate(free):
            if pi == 5:
                cap[col] = 5.0  # degrees per iteration
        over = np.max(np.abs(step) / cap)
        scale0 = 1.0 if over <= 1.0 else 1.0 / over
        scale = scale0
        improved = False
        for _ in range(25):
            trial = vec.copy()
            trial[free] += scale * step
            try:
                trial_f = model(trial)
            except ValueError:
                # trial point outside the model's labelable regime
                scale *= 0.5
                continue
            trial_resid = (trial_f - values) / sigmas
            trial_chi2 = chi2_of(trial_resid)
            if trial_chi2 < chi2:
                improved = True
                break
            scale *= 0.5
        if improved:
            rel_change = (chi2 - trial_chi2) / max(chi2, 1e-300)
            vec, fvec, resid, chi2 = trial, trial_f, trial_resid, trial_chi2
            mu = max(mu / 3.0, 1e-12) if scale == scale0 else min(mu * 2.0, 1e8)
            need_jac = True
        else:
            rel_change = 0.0
            mu = min(mu * 10.0, 1e8)
            need_jac = False
        if rel_change < 1e-10 or np.linalg.norm(grad) < 1e-8:
            consecutive += 1
        else:
            consecutive = 0
        if consecutive >= 3:
            converged = True
            break

    if 3 in free and 5 in free:
        # (a, phi_offset) -> (-a, phi_offset +- 180) is an exact symmetry of
        # the Hamiltonian (a z-rotation by pi); report the principal branch
        while vec[5] > 90.0:
            vec[5] -= 180.0
            vec[3] = -vec[3]
        while vec[5] <= -90.0:
            vec[5] += 180.0
            vec[3] = -vec[3]
    jac = jacobian_central(vec)
    _check_rank(jac, free)
    cov = np.linalg.inv(jac.T @ jac)
    if not np.all(np.isfinite(cov)):
        raise ValueError("fit covariance not finite; check the data sigmas")
    dof = len(dataset) - len(free)
    chi2_red = chi2 / dof if dof > 0 else 1.0
    if chi2_red > 1.0:
        cov = cov * chi2_red
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    sigmas_out = {name: 0.0 for name in PARAM_IDS}
    for col, pi in enumerate(free):
        sigmas_out[PARAM_IDS[pi]] = float(sig[col])
    return FitResult(
        params=FitParams.from_vector(vec),
        sigmas=sigmas_out,
        chi2=chi2,
        n_iterations=n_iter,
        converged=converged,
        residuals=-resid * sigmas,
    )


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
    s, vt = np.linalg.svd(scaled, compute_uv=True)[1:]
    if s[-1] < _SV_FLOOR * s[0]:
        null = vt[-1] / norms
        null = null / np.linalg.norm(null)
        terms = [
            "%+.2f*%s" % (null[c], PARAM_IDS[free[c]])
            for c in range(len(free))
            if null[c] ** 2 > 0.1
        ]
        raise ValueError("degenerate parameter direction: %s" % " ".join(terms))


def synthesize_dataset(
    params: SystemParams,
    b: float,
    design,
    noise_sigma=None,
    field_imperfection=None,
    seed: int = 0,
) -> ScanDataset:
    """Generate a synthetic scan dataset from the exact forward model.

    design: iterable of (theta_deg, phi_deg, kind). An sq_frequency
    design point expands to the four main lines (transition_index 0..3,
    ascending frequency). noise_sigma: dict kind -> Gaussian sigma
    (default 0). field_imperfection: (amplitude_gauss, period_deg,
    phase_deg) applied as B(phi) = b + amp*cos(2 pi phi/period + phase).
    Deterministic for a fixed seed.
    """
    design = list(design)
    if not design:
        raise ValueError("design must be non-empty")
    noise_sigma = dict(noise_sigma or {})
    for kind in noise_sigma:
        if kind not in OBSERVABLE_KINDS:
            raise ValueError("unknown observable kind %r" % (kind,))
    rng = np.random.default_rng(seed)
    points = []
    for theta, phi, kind in design:
        if kind not in OBSERVABLE_KINDS:
            raise ValueError("unknown observable kind %r" % (kind,))
        b_eff = b
        if field_imperfection is not None:
            amp, period, phase = field_imperfection
            b_eff = b + amp * np.cos(2 * np.pi * phi / period + np.radians(phase))
        f = FieldOrientation(b_eff, theta, phi)
        eig = eigensystem(build_hamiltonian(params, f))
        sigma = float(noise_sigma.get(kind, 0.0))
        stored_sigma = max(sigma, MIN_SIGMA)
        if kind == "sq_frequency":
            for k, line in enumerate(main_four_lines(eig)):
                value = line.frequency
                if sigma > 0:
                    value += rng.normal(0.0, sigma)
                points.append(
                    ScanPoint(theta, phi, b, kind, float(value), stored_sigma, k)
                )
        else:
            if kind == "zq_frequency":
                value = zero_quantum_splitting_exact(eig)
            else:
                op, om = lambda_transition_amplitudes(eig, params.tensor, f)
                value = zq_beat_amplitude(op, om) / 2.0
            if sigma > 0:
                value += rng.normal(0.0, sigma)
            points.append(ScanPoint(theta, phi, b, kind, float(value), stored_sigma))
    return ScanDataset(tuple(points))


def find_axis_minimum(dataset: ScanDataset, quartic: bool = False):
    """Locate the minimum of a single-angle scan by an even-model fit.

    The dataset must sweep exactly one of theta/phi; the other angle and
    b must be constant. Fits value(x) = v0 + k (x - x0)^2 (plus an
    optional quartic term) by weighted least squares and returns
    (x0_deg, sigma_deg).
    """
    if len(dataset) < 5:
        raise ValueError("need at least 5 points, got %d" % len(dataset))
    thetas = np.array([p.theta for p in dataset.points])
    phis = np.array([p.phi for p in dataset.points])
    theta_sweeps = len(np.unique(thetas)) > 1
    phi_sweeps = len(np.unique(phis)) > 1
    if theta_sweeps == phi_sweeps:
        raise ValueError("exactly one of theta/phi must vary across the scan")
    x = thetas if theta_sweeps else phis
    v = np.array([p.value for p in dataset.points])
    s = np.array([p.sigma for p in dataset.points])
    w = 1.0 / s**2
    design = np.vander(x, 3, increasing=True)  # columns 1, x, x^2
    wsq = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * wsq[:, None], v * wsq, rcond=None)
    c0, c1, c2 = coef
    if c2 <= 0:
        raise ValueError("extremum not bracketed")
    x0 = -c1 / (2 * c2)
    if not (x.min() < x0 < x.max()):
        raise ValueError("extremum not bracketed")
    if quartic:
        from scipy.optimize import curve_fit

        def even_model(xx, v0, k, xc, q):
            d = xx - xc
            return v0 + k * d**2 + q * d**4

        p0 = (c0 - c1**2 / (4 * c2), c2, x0, 0.0)
        popt, pcov = curve_fit(
            even_model, x, v, p0=p0, sigma=s, absolute_sigma=True, maxfev=10000
        )
        if popt[1] <= 0 or not (x.min() < popt[2] < x.max()):
            raise ValueError("extremum not bracketed")
        return float(popt[2]), float(np.sqrt(pcov[2, 2]))
    cov = np.linalg.inv((design * w[:, None]).T @ design)
    grad = np.array([0.0, -1.0 / (2 * c2), c1 / (2 * c2**2)])
    var = float(grad @ cov @ grad)
    return float(x0), float(np.sqrt(max(var, 0.0)))


def sensitivity_c(
    params: SystemParams,
    field: FieldOrientation,
    which: str,
    step: float = 0.5,
) -> SensitivityReport:
    """Frequency sensitivity of the four main SQ lines to one tensor component.

    Central differences with the given step (MHz). Each unperturbed state
    is matched to the perturbed state it overlaps most, so level crossings
    do not corrupt the slopes. Both bases are orthonormal, so once every
    matched overlap exceeds 0.5 the matching is a permutation; a smaller
    one raises.
    """
    if which not in ("a_xx", "a_yy", "a_zz", "a"):
        raise ValueError("unknown parameter id %r" % (which,))
    if not step > 0:
        raise ValueError("step must be > 0")
    eig0 = eigensystem(build_hamiltonian(params, field))
    lines = main_four_lines(eig0)
    sides = []
    for sign in (+1.0, -1.0):
        tensor = dataclasses.replace(
            params.tensor, **{which: getattr(params.tensor, which) + sign * step}
        )
        p = dataclasses.replace(params, tensor=tensor)
        eig = eigensystem(build_hamiltonian(p, field))
        overlap = np.abs(eig0.vectors.conj().T @ eig.vectors) ** 2
        col = overlap.argmax(axis=1)
        matched = overlap.max(axis=1)
        if np.min(matched) < 0.5:
            k = int(np.argmin(matched))
            raise ValueError(
                "transition matching failed for %s step %+g: state %d overlap %.3f "
                "(reduce the step or move off the degeneracy)"
                % (which, sign * step, k, matched[k])
            )
        sides.append((eig.values, col))
    (ep, colp), (em, colm) = sides
    slopes = []
    for line in lines:
        wp = ep[colp[line.to_state]] - ep[colp[line.from_state]]
        wm = em[colm[line.to_state]] - em[colm[line.from_state]]
        slopes.append(float((wp - wm) / (2 * step)))
    c_value = float(np.mean(np.abs(slopes)))
    return SensitivityReport(parameter=which, c_value=c_value, slopes=tuple(slopes))


def precision_propagation(delta_omega: float, c: float) -> float:
    """Parameter precision from frequency precision: delta_A = delta_omega / c."""
    if not c > 0:
        raise ValueError("parameter unobservable (c = %r)" % (c,))
    if delta_omega < 0:
        raise ValueError("delta_omega must be >= 0")
    return delta_omega / c


def _amplitude_ratios(params: SystemParams, b: float, theta, phi) -> np.ndarray:
    """Lambda amplitude ratio min/max at every (theta, phi), one stacked eigh.

    Runs the batched forms of ``eigensystem`` and
    ``lambda_transition_amplitudes`` (``eigensystems``,
    ``lambda_excited_states``, ``lambda_legs``) on the whole stack; a single
    point is the batch of one. A point where the scalar forms would raise
    gets inf.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    shape = theta.shape
    theta, phi = theta.ravel(), wrap_azimuth(phi.ravel())  # as FieldOrientation
    out = np.full(len(theta), np.inf)
    if not (math.isfinite(b) and b > 0):  # no Zeeman axis
        return out.reshape(shape)
    h = hamiltonians(params, b * unit_vectors(theta, phi))
    _, vectors, labels, ok = eigensystems(h)
    excited, _, _, found = lambda_excited_states(vectors, labels, params.tensor)
    beta_plus, _ = zeeman_states(theta, phi)
    op, om, _, _, legs = lambda_legs(vectors, labels, excited, beta_plus)
    ok &= found & legs & (theta >= 0.0) & (theta <= 180.0)
    hi = np.maximum(op, om)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(hi == 0, 1.0, np.minimum(op, om) / hi)
    out[ok] = ratio[ok]
    return out.reshape(shape)


def find_single_transition_axis(params: SystemParams, b: float):
    """Search the field orientation that kills one Lambda transition.

    Minimizes ``_amplitude_ratios`` over theta in [0, 90], phi in [-90, 90]
    by grid zoom: a 2 degree grid, then three 21 x 21 grids of +-2, +-0.2
    and +-0.02 degrees around the best point so far, clipped to the range;
    the last grid's spacing, 0.002 degree, is the final step. Ties go to
    the first minimum in theta-major order. Each grid runs as stacked
    eigensolves of at most 500 points.
    Returns (theta_deg, phi_deg, amplitude_ratio). Raises when the
    minimum ratio stays at or above 0.05.
    """
    if not (math.isfinite(b) and b > 0):
        raise ValueError("b must be finite and > 0")
    thetas = np.arange(0.0, 90.0 + 1e-9, 2.0)
    phis = np.arange(-90.0, 90.0 + 1e-9, 2.0)
    for span in (None, 2.0, 0.2, 0.02):
        if span is not None:
            offsets = np.linspace(-span, span, 21)
            thetas = np.clip(th + offsets, 0.0, 90.0)
            phis = np.clip(ph + offsets, -90.0, 90.0)
        # a few hundred points per stacked eigensolve: the whole 46 x 91
        # coarse grid at once raises peak memory ~10 %
        rows = 500 // len(phis)
        grid = np.concatenate([
            _amplitude_ratios(params, b, thetas[k : k + rows, None], phis)
            for k in range(0, len(thetas), rows)
        ])
        i, j = np.unravel_index(np.argmin(grid), grid.shape)
        th, ph, r = float(thetas[i]), float(phis[j]), float(grid[i, j])
    if not r < 0.05:
        raise ValueError("no single-transition axis in range (best ratio %.4f)" % r)
    return th, ph, r
