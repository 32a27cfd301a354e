"""Total detachment rates, inverse fringe fitting, and the Einstein line.

The golden-rule rate in normalized units is a pure function of xi = -E/eps_F:

    s wave:   J = Ai'(xi)^2 - xi Ai(xi)^2         ( -> sqrt(E/eps_F)/pi )
    z dipole: J = -[2 Ai Ai' + xi (Ai'^2 - xi Ai^2)] / 3

Both are smooth through threshold and decay as exp(-(4/3) xi^(3/2)) below
it. Multiply by m/(hbar^3 l_F) (times the suppressed dipole matrix element)
for a dimensional rate; all module outputs stay in the normalized units.

The inverse problem fits a measured radial profile with the simulator's own
pattern, A * j_model(rho; E), by damped Gauss-Newton (Levenberg style) over
(E, A). The start needs no model evaluation: in the far field each fringe
maximum sits where alpha_+ = -u + (R - d)/2 is a zero of Ai' (s wave) or
0 or a zero of Ai (pz), so the maxima of count_fringes, placed by 3-point
parabolas and matched to specfun.airy_zeros, each give one estimate of
u = E/eps_F; their median is the start, and one projection gives A.
A 49-candidate scan over energies, with A eliminated analytically, is the
fallback. It runs when the start is unsafe: d < _FAR_FIELD_MIN_D l_F (the
far-field identity fails), an undersampled profile, fewer than two
interior maxima, or estimates that spread by more than _START_SPREAD.
With at most two maxima counted, the scan reaches down to just above the
lowest energy that has fringes.

Within one fit the model is memoized by the exact float E, so every
distinct energy is evaluated once, and energies are evaluated in batches
of at most _BATCH_POINTS detector points per flux call (one energy per
call if a profile is longer): the scan takes a few calls, and each model
row is bit-identical to a one-energy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._quad import pairwise_sum
from .exceptions import FitConvergenceError, NumericsError
from .units import FieldScales
from .green import SourceModel, SourceKind, ldos_bracket_s, ldos_bracket_pz
from . import detector, specfun

__all__ = [
    "SweepPoint",
    "EinsteinFitResult",
    "golden_rule_current",
    "extract_energy",
    "run_sweep",
    "einstein_fit",
    "add_noise",
]

_MAX_ITER = 200
_STEP_TOL = 1e-8
_MIN_FIT_ENERGY = 0.5   # in units of eps_F; below this no fringes to fit
_BATCH_POINTS = 4096    # detector points per model flux call; bounds a fit's memory
_FAR_FIELD_MIN_D = 1e4  # in l_F; nearer planes break the Airy-zero start's identity
_MAX_SKIPPED_ZEROS = 2  # outermost zeros the fringe count may have missed
# largest relative spread (max - min) / median of the per-maximum energies;
# a wrong zero offset spread them by >= 2.9% on 1304 test profiles up to 40 eps_F
_START_SPREAD = 0.015
_SCAN_FLOOR = 1.01      # scan start over _MIN_FIT_ENERGY when <= 2 maxima are seen


@dataclass(frozen=True)
class SweepPoint:
    hnu: float            # photon energy, J
    E_true: float         # hnu - E0_true, J
    E_fit: float          # recovered electron energy, J (nan if fit skipped/failed)
    fit_residual: float   # normalized rms residual (nan if fit skipped/failed)

    @property
    def fitted(self) -> bool:
        return math.isfinite(self.E_fit)


@dataclass(frozen=True)
class EinsteinFitResult:
    slope: float
    E0_recovered: float   # J
    rms_residual: float   # J
    n_points: int


def golden_rule_current(E: float | np.ndarray, src: SourceModel,
                        scales: FieldScales) -> float | np.ndarray:
    """Total detachment rate, normalized units; valid for either sign of E.

    E is a float or an array of energies: a float gives a float, an array
    an array of the same shape, each element equal to its scalar call.
    """
    E = np.asarray(E, dtype=np.float64)
    if not np.all(np.isfinite(E)):
        raise ValueError("E must be finite")
    xi = -E / scales.energy_epsF
    if src.kind is SourceKind.S_WAVE:
        return ldos_bracket_s(xi) * src.strength**2
    return ldos_bracket_pz(xi) / 3.0 * src.strength**2


def _lm_fit(residual_fn, p0, scale, max_iter=_MAX_ITER, step_tol=_STEP_TOL):
    """Damped Gauss-Newton on residual_fn(p) with FD Jacobian.

    p0, scale: arrays; steps measured relative to `scale`. Returns the
    parameter vector; raises FitConvergenceError after max_iter.
    """
    p = np.asarray(p0, dtype=np.float64).copy()
    lam = 1e-3
    r = residual_fn(p)
    chi2 = float(pairwise_sum(r * r))
    for _ in range(max_iter):
        jac = np.empty((len(r), len(p)))
        for k in range(len(p)):
            dp = np.zeros_like(p)
            dp[k] = 1e-6 * scale[k]
            jac[:, k] = (residual_fn(p + dp) - residual_fn(p - dp)) / (2.0 * dp[k])
        jtj = jac.T @ jac
        g = jac.T @ r
        step = None
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + step
            r_new = residual_fn(p_new)
            chi2_new = float(pairwise_sum(r_new * r_new))
            if chi2_new <= chi2:
                lam = max(lam / 3.0, 1e-14)
                break
            lam *= 7.0
        else:
            raise FitConvergenceError("damping exhausted without a descent step")
        rel_step = float(np.max(np.abs(step) / scale))
        p, r, chi2 = p_new, r_new, chi2_new
        if rel_step < step_tol:
            return p
    raise FitConvergenceError(f"no convergence in {max_iter} iterations")


def _airy_zero_start(rho, data, maxima_rho, kind, d, l):
    """E / eps_F read off the fringe maxima, or None where that is unsafe.

    In the far field the maxima sit where alpha_+ = s - u, with
    s = rho^2 / (2 (R + d)) in field units, is a zero of Ai' (s wave) or 0
    or a zero of Ai (pz). The outermost maximum takes the largest zero, or
    one of the next _MAX_SKIPPED_ZEROS if the count missed the outermost
    fringes; each offset gives one estimate u_i = s_i - zero_i per maximum,
    and the offset whose estimates spread least wins. A maximum on a grid
    edge cannot be placed by a parabola and is left out.
    """
    i = np.searchsorted(rho, maxima_rho)
    i = i[(i > 0) & (i < len(rho) - 1)][::-1]       # interior, outermost first
    if len(i) < 2:
        return None
    curv = data[i - 1] - 2.0 * data[i] + data[i + 1]
    r = (rho[i] + 0.25 * (rho[i + 1] - rho[i - 1]) * (data[i - 1] - data[i + 1]) / curv) / l
    d = d / l
    s = r * r / (2.0 * (np.hypot(r, d) + d))
    ai_zeros, aip_zeros = specfun.airy_zeros(len(i) + _MAX_SKIPPED_ZEROS)
    zeros = aip_zeros if kind is SourceKind.S_WAVE else np.concatenate(([0.0], ai_zeros))
    best = None
    for k in range(_MAX_SKIPPED_ZEROS + 1):
        u = sorted((s - zeros[k:k + len(s)]).tolist())
        u0 = 0.5 * (u[(len(u) - 1) // 2] + u[len(u) // 2])     # median
        if u0 > _MIN_FIT_ENERGY:
            spread = (u[-1] - u[0]) / u0
            if best is None or spread < best[0]:
                best = (spread, u0)
    if best is None or best[0] > _START_SPREAD:
        return None
    return best[1]


def extract_energy(profile: detector.RadialProfile, scales: FieldScales, d: float):
    """Recover the electron energy from a fringe profile.

    Fits j_data ~= A * j_model(rho; E) with the simulator's own profile as
    the model, by damped least squares on (E, A) to relative step < 1e-8,
    started from the fringe maxima or, where that is unsafe, from the scan
    (see the module docstring). Returns (E_fit, normalized rms residual).
    """
    data = np.asarray(profile.j, dtype=np.float64)
    rho = np.asarray(profile.rho, dtype=np.float64)
    dmax = float(np.max(np.abs(data)))
    if not (dmax > 0.0) or float(np.std(data)) < 1e-12 * dmax:
        raise FitConvergenceError("degenerate flat profile")

    eps = scales.energy_epsF
    z = np.full_like(rho, -d)
    rows = {}   # exact E -> read-only normalized model row

    def evaluate(energies):
        todo = [E for E in dict.fromkeys(energies) if E not in rows]
        per_call = max(1, _BATCH_POINTS // len(rho))
        for i in range(0, len(todo), per_call):
            batch = np.array(todo[i:i + per_call], dtype=np.float64)
            shape = (len(batch), len(rho))
            # (k, n) broadcast views, not (n,) rows: np.size(rho) counts every point
            j = detector._flux_array(np.broadcast_to(rho, shape), np.broadcast_to(z, shape),
                                     batch[:, None], profile.source, scales)
            j = j / golden_rule_current(batch, profile.source, scales)[:, None]
            j.flags.writeable = False
            rows.update(zip(todo[i:i + per_call], j))

    def model(E):
        evaluate([E])
        return rows[E]

    def projection(E):
        """chi^2 and amplitude of the best A * model(E), or None if the row is 0."""
        mj = model(E)
        denom = float(pairwise_sum(mj * mj))
        if denom <= 0.0:
            return None
        amp = float(pairwise_sum(mj * data)) / denom
        resid = data - amp * mj
        return float(pairwise_sum(resid * resid)), amp

    try:
        report = detector.count_fringes(profile, None)
    except NumericsError:   # undersampled profile: let the scan find the basin
        report = None
    best = None
    if report is not None and d >= _FAR_FIELD_MIN_D * scales.length_lF:
        u0 = _airy_zero_start(rho, data, report.maxima_rho, profile.source.kind,
                              d, scales.length_lF)
        if u0 is not None and (fit := projection(u0 * eps)) is not None:
            best = (u0 * eps, fit[1])
    if best is None:
        # coarse scan around the fringe-count inversion (>= 2.8 eps_F); with
        # at most two maxima it reaches down to the lowest energy with fringes
        n_fr = max(report.n_fringes, 1) if report is not None else 1
        c = scales.constants
        e_guess = (2.0 * math.pi * n_fr * 3.0 * c.hbar * scales.force_F
                   / (4.0 * math.sqrt(2.0) * math.sqrt(c.m_e))) ** (2.0 / 3.0)
        lo = 0.5
        if report is not None and report.n_fringes <= 2:
            lo = _SCAN_FLOOR * _MIN_FIT_ENERGY * eps / e_guess
        # nodes 4^(1/48) = 2.9% apart, 49 of them over 0.5-2 e_guess: a
        # sparser scan lets a wide low-energy basin beat the true one
        n_nodes = 1 + math.ceil(48.0 * math.log(2.0 / lo, 4.0))
        candidates = (e_guess * np.geomspace(lo, 2.0, n_nodes)).tolist()
        evaluate(candidates)
        chi2_best = math.inf
        for E_try in candidates:
            fit = projection(E_try)
            if fit is not None and fit[0] < chi2_best:
                chi2_best, best = fit[0], (E_try, fit[1])
        if best is None:
            raise FitConvergenceError("no valid starting energy in scan range")
    e0, a0 = best
    if a0 == 0.0:
        a0 = dmax

    def residual_fn(p):
        return p[1] * model(p[0]) - data

    p = _lm_fit(residual_fn, np.array([e0, a0]), scale=np.array([e0, abs(a0)]))
    r = residual_fn(p)
    rms = math.sqrt(float(pairwise_sum(r * r)) / len(r)) / dmax
    return float(p[0]), rms


def run_sweep(hnu_list, E0_true: float, src: SourceModel, scales: FieldScales,
              plane: detector.DetectorPlane, n_samples: int = 600,
              noise_percent: float = 0.0, seed: int = 42):
    """Simulate and invert a photon-energy sweep.

    Points with E_true <= 0.5 eps_F are recorded without a fit (no fringe
    pattern exists to invert); per-point fit failures are recorded, not
    fatal. Noise, when requested, is multiplicative Gaussian with the given
    percent level; point i draws it from numpy's PCG64 seeded with
    SeedSequence(seed).spawn(n)[i], so each point has its own stream and
    its value does not depend on which process fits it.
    """
    return [_sweep_point(hnu, E0_true, src, scales, plane, n_samples, noise_percent, seed, i)
            for i, hnu in enumerate(hnu_list)]


def _point_seed(seed: int, index: int):
    """SeedSequence(seed).spawn(n)[index] for any n > index, built alone."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _sweep_point(hnu, E0_true: float, src: SourceModel, scales: FieldScales,
                 plane: detector.DetectorPlane, n_samples: int, noise_percent: float,
                 seed: int, index: int) -> SweepPoint:
    """Point `index` of run_sweep, on its own."""
    e_true = hnu - E0_true
    if e_true <= _MIN_FIT_ENERGY * scales.energy_epsF:
        return SweepPoint(hnu, e_true, math.nan, math.nan)
    profile = detector.radial_profile(e_true, src, scales, plane, n_samples)
    if noise_percent > 0.0:
        rng = np.random.default_rng(_point_seed(seed, index))
        profile = add_noise(profile, noise_percent, rng)
    try:
        e_fit, resid = extract_energy(profile, scales, plane.d)
    except FitConvergenceError:
        return SweepPoint(hnu, e_true, math.nan, math.nan)
    return SweepPoint(hnu, e_true, e_fit, resid)


def add_noise(profile: detector.RadialProfile, percent: float, rng) -> detector.RadialProfile:
    """Multiplicative Gaussian noise: j -> j (1 + percent/100 * N(0,1)).

    Every other field, the field scales included, carries over, so noisy
    profiles keep the flux reach check and the undersampling guard.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    factor = 1.0 + 0.01 * percent * rng.standard_normal(len(profile.j))
    return replace(profile, j=profile.j * factor)


def einstein_fit(points) -> EinsteinFitResult:
    """Ordinary least squares of E_fit against photon energy.

    slope should be 1 and -intercept the binding energy. Needs >= 2 fitted
    points and a non-degenerate photon-energy spread.
    """
    fitted = [p for p in points if p.fitted]
    if len(fitted) < 2:
        raise ValueError(f"einstein_fit needs >= 2 converged points, got {len(fitted)}")
    x = np.array([p.hnu for p in fitted])
    y = np.array([p.E_fit for p in fitted])
    xm = x.mean()
    var = float(np.sum((x - xm) ** 2))
    if var == 0.0:
        raise ValueError("singular design: all photon energies identical")
    slope = float(np.sum((x - xm) * (y - y.mean())) / var)
    intercept = float(y.mean() - slope * xm)
    resid = y - (slope * x + intercept)
    rms = math.sqrt(float(np.mean(resid**2)))
    return EinsteinFitResult(
        slope=slope,
        E0_recovered=-intercept,
        rms_residual=rms,
        n_points=len(fitted),
    )
