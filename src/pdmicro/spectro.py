"""Total detachment rates, inverse fringe fitting, and the Einstein line.

The golden-rule rate in normalized units is a pure function of xi = -E/eps_F:

    s wave:   J = Ai'(xi)^2 - xi Ai(xi)^2         ( -> sqrt(E/eps_F)/pi )
    z dipole: J = -[2 Ai Ai' + xi (Ai'^2 - xi Ai^2)] / 3

Both are smooth through threshold and decay as exp(-(4/3) xi^(3/2)) below
it. Multiply by m/(hbar^3 l_F) (times the suppressed dipole matrix element)
for a dimensional rate; all module outputs stay in the normalized units.

The inverse problem fits a measured radial profile with the simulator's own
pattern, A * j_model(rho; E), by damped Gauss-Newton (Levenberg style) over
(E, A) after a deterministic coarse scan locates the fringe-count basin.
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
from . import detector

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


def extract_energy(profile: detector.RadialProfile, scales: FieldScales, d: float):
    """Recover the electron energy from a fringe profile.

    Fits j_data ~= A * j_model(rho; E) with the simulator's own profile as
    the model. Initial E comes from inverting the fringe-count estimate,
    sharpened by a deterministic coarse scan; then damped least squares on
    (E, A) to relative step < 1e-8. Returns (E_fit, normalized rms
    residual).
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

    # fringe-count inversion for the starting energy
    try:
        report = detector.count_fringes(profile, None)
        n_fr = max(report.n_fringes, 1)
    except NumericsError:   # undersampled profile: let the scan find the basin
        n_fr = 1
    c = scales.constants
    e_guess = (2.0 * math.pi * n_fr * 3.0 * c.hbar * scales.force_F
               / (4.0 * math.sqrt(2.0) * math.sqrt(c.m_e))) ** (2.0 / 3.0)
    e_guess = max(e_guess, 1.1 * _MIN_FIT_ENERGY * eps)

    # coarse scan with the amplitude eliminated analytically
    candidates = e_guess * np.geomspace(0.5, 2.0, 49)
    candidates = candidates[candidates > _MIN_FIT_ENERGY * eps]
    evaluate(candidates.tolist())
    best = None
    for E_try in candidates:
        mj = model(float(E_try))
        denom = float(pairwise_sum(mj * mj))
        if denom <= 0.0:
            continue
        amp = float(pairwise_sum(mj * data)) / denom
        resid = data - amp * mj
        chi2 = float(pairwise_sum(resid * resid))
        if best is None or chi2 < best[0]:
            best = (chi2, float(E_try), amp)
    if best is None:
        raise FitConvergenceError("no valid starting energy in scan range")
    _, e0, a0 = best
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
    percent level from numpy's seeded PCG64 generator.
    """
    rng = np.random.default_rng(seed)
    out = []
    for hnu in hnu_list:
        e_true = hnu - E0_true
        if e_true <= _MIN_FIT_ENERGY * scales.energy_epsF:
            out.append(SweepPoint(hnu, e_true, math.nan, math.nan))
            continue
        profile = detector.radial_profile(e_true, src, scales, plane, n_samples)
        if noise_percent > 0.0:
            profile = add_noise(profile, noise_percent, rng)
        try:
            e_fit, resid = extract_energy(profile, scales, plane.d)
            out.append(SweepPoint(hnu, e_true, e_fit, resid))
        except FitConvergenceError:
            out.append(SweepPoint(hnu, e_true, math.nan, math.nan))
    return out


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
