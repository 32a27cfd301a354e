"""Classical two-path structure of the uniform-field electron fountain.

A monoenergetic point source in a constant downward force F reaches any
detector point inside the paraboloid of safety along exactly two
trajectories (early/direct and late/reflected). This module solves that
shooting problem in closed form, carries reduced actions and stability
amplitudes, and coherently sums the two paths into a semiclassical Green
function that the exact module can be checked against.

Launch angle theta is measured from +z (0 = straight up, against the force;
pi = straight down toward the detector).

Closed form. With zeta = E/F, T = tan(elevation) and kappa = g rho^2/(2 v0^2)
= rho^2/(4 zeta), a launch lands on (rho, -d) when
kappa T^2 - rho T + (kappa - d) = 0. Times 4 zeta, and in X = rho T (the
height of the launch line above the source at radius rho), this reads
X^2 - 4 zeta X + (rho^2 - 4 zeta d) = 0, with discriminant
4 (rho_max^2 - rho^2): it vanishes on the caustic, where it is clamped at 0.
The late root is X+ = 2 zeta + s, s = sqrt(rho_max^2 - rho^2), and the early
root comes from Vieta's formula, X- = (rho^2 - 4 zeta d)/(2 zeta + s), so
neither loses digits to cancellation, and the axis rho = 0 (straight down,
straight up) is the same formula. With h = hypot(rho, X) each path has

- flight time t = h/v0 and launch angle theta = atan2(rho, X);
- reduced action W = m v0 h (6 zeta + 2 d - X)/(6 zeta);
- flux-tube amplitude |A| = sqrt((v0/v_f) sin(theta) / (rho |d rho_f/d theta|
  cos(alpha_f))) / (4 pi) with the analytic Jacobian
  d rho_f/d theta = v0 t (cos theta - v0 sin^2 theta / sqrt(v_z0^2 + 2 g d)).
  On the roots this reduces to |A| = 1/(4 pi sqrt(2 s q)), q = 2 zeta + d +- s
  (early q = R^2/(2 zeta + d + s) by Vieta, R^2 = rho^2 + d^2), which is inf
  on the caustic, s = 0;
- Maslov index 1 for the late path, which has touched the caustic, 0 for the
  early one.

The two phases differ by (W+ - W-)/hbar = (4/3)(-alpha+)^{3/2}, with
alpha+ = -u + (R - d)/(2 l_F), u = E/eps_F and R - d = rho^2/(R + d); this
is taken from the identity rather than from the difference of two actions
of ~1e10 rad at macroscopic d.

Independent oracles: resimulate_endpoint re-integrates Newton's equations
(RK4) to the landing point, and action_quadrature integrates |p| dl along
the sampled path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .units import FieldScales
from .green import SpacePoint

__all__ = [
    "Trajectory",
    "TrajectorySet",
    "rho_max",
    "find_trajectories",
    "action_along",
    "action_quadrature",
    "central_phase_difference",
    "fringe_count_estimate",
    "semiclassical_profile",
    "semiclassical_wave",
    "resimulate_endpoint",
]

CAUSTIC_BAND = 0.02           # exclusion band around rho_max, fraction of rho_max


@dataclass(frozen=True)
class Trajectory:
    """One classical path from the source to a detector point."""

    t_flight: float          # s
    launch_angle: float      # rad from +z
    action_S: float          # reduced action W = Int p dl at fixed E, J s
    vanvleck_amp: float      # |A| in the (hbar^2/2m) G normalization, 1/m
    maslov: int


@dataclass(frozen=True)
class TrajectorySet:
    target: SpacePoint
    members: tuple
    caustic_flag: bool = False


def _zeta(E: float, scales: FieldScales) -> float:
    return E / scales.force_F


def rho_max(E: float, scales: FieldScales, d: float) -> float:
    """Radius of the classically allowed disk on the plane z = -d.

    Closed form 2 sqrt(d zeta + zeta^2), zeta = E/F, from the paraboloid of
    safety z = zeta - rho^2/(4 zeta).
    """
    if not E > 0.0:
        raise ValueError("rho_max requires E > 0 (no classically allowed region)")
    if not d > 0.0:
        raise ValueError("rho_max requires d > 0")
    z = _zeta(E, scales)
    return 2.0 * math.sqrt(d * z + z * z)


def _kinematics(E, scales):
    m = scales.constants.m_e
    v0 = math.sqrt(2.0 * E / m)
    g = scales.force_F / m
    return m, v0, g


class _Paths(NamedTuple):
    """Both paths to each of n radii; (2, n) fields, row 0 early, row 1 late.

    Column i describes n_paths[i] paths: 2 inside the disk, 1 (row 0, the
    degenerate root) on the caustic, 0 outside, where the column holds the
    caustic root and lands nowhere near the radius.
    """

    n_paths: np.ndarray       # (n,)
    t_flight: np.ndarray
    launch_angle: np.ndarray
    action_S: np.ndarray
    vanvleck_amp: np.ndarray
    maslov: np.ndarray
    dphi: np.ndarray          # (n,) (W_late - W_early)/hbar, 0 on the caustic


def _two_paths(rho, d: float, E: float, scales: FieldScales) -> _Paths:
    """Closed-form shooting to every radius of `rho` on the plane z = -d at once."""
    if not d > 0.0:
        raise ValueError("target must lie below the source (z < 0)")
    rm = rho_max(E, scales, d)                             # raises for E <= 0
    if not np.all((rho >= 0.0) & (rho < math.inf)):
        raise ValueError("radii must be finite and non-negative")
    m, v0, _ = _kinematics(E, scales)
    zeta = _zeta(E, scales)
    caustic = rho >= rm * (1.0 - 1e-9)
    n_paths = np.where(rho > rm * (1.0 + 1e-12), 0, np.where(caustic, 1, 2))
    # a quarter of the discriminant, clamped at 0 on the caustic and outside
    s = np.sqrt(np.where(caustic, 0.0, (rm - rho) * (rm + rho)))
    late = 2.0 * zeta + s
    x = np.stack([(rho * rho - 4.0 * zeta * d) / late, late])
    h = np.hypot(rho, x)                                   # v0 t
    q = 2.0 * zeta + d + s
    q = np.stack([(rho * rho + d * d) / q, q])
    with np.errstate(divide="ignore"):
        amp = 1.0 / (4.0 * math.pi * np.sqrt(2.0 * s * q))
    a = E / scales.energy_epsF - rho * rho / (2.0 * scales.length_lF * (np.hypot(rho, d) + d))
    a = np.where(caustic, 0.0, np.maximum(a, 0.0))         # -alpha+, 0 on the caustic
    return _Paths(
        n_paths=n_paths,
        t_flight=h / v0,
        launch_angle=np.arctan2(rho, x),
        action_S=m * v0 * h * (6.0 * zeta + 2.0 * d - x) / (6.0 * zeta),
        vanvleck_amp=amp,
        maslov=np.broadcast_to(np.array([[0], [1]]), x.shape),
        dphi=(4.0 / 3.0) * a * np.sqrt(a),
    )


def find_trajectories(target: SpacePoint, E: float, scales: FieldScales) -> TrajectorySet:
    """Solve the shooting problem to a detector point (z = -d < 0).

    Inside the allowed disk returns two members sorted by flight time;
    exactly one degenerate member on the caustic (rho >= rho_max (1 - 1e-9));
    none outside.
    """
    # a 1-element array, not a 0-d one, so the bits equal those of a batch call
    p = _two_paths(np.array([target.rho]), -target.z, E, scales)
    n = int(p.n_paths[0])
    members = tuple(
        Trajectory(
            t_flight=float(p.t_flight[k, 0]),
            launch_angle=float(p.launch_angle[k, 0]),
            action_S=float(p.action_S[k, 0]),
            vanvleck_amp=float(p.vanvleck_amp[k, 0]),
            maslov=int(p.maslov[k, 0]),
        )
        for k in range(n)
    )
    return TrajectorySet(target=target, members=members, caustic_flag=n == 1)


def action_along(traj: Trajectory, target: SpacePoint, E: float, scales: FieldScales) -> float:
    """Reduced action W = Int m v^2 dt of a trajectory, in closed form (cubic in t)."""
    d = -target.z
    if not d > 0.0:
        raise ValueError("target must lie below the source")
    m, v0, g = _kinematics(E, scales)
    # consistency: the trajectory must land on the target
    t = traj.t_flight
    z_end = v0 * math.cos(traj.launch_angle) * t - 0.5 * g * t * t
    rho_end = v0 * math.sin(traj.launch_angle) * t
    if abs(z_end + d) > 1e-6 * d or abs(rho_end - target.rho) > 1e-6 * max(d, target.rho):
        raise ValueError("trajectory does not land on the given target")
    F, vz0 = scales.force_F, v0 * math.cos(traj.launch_angle)
    return 2.0 * E * t - F * vz0 * t * t + (F * F / (3.0 * m)) * t**3


def action_quadrature(traj: Trajectory, target: SpacePoint, E: float, scales: FieldScales,
                      n_samples: int = 60001) -> float:
    """Independent check: W = Int |p| dl along the sampled geometric path.

    Chord-length sampling converges O(h^2); the default sampling puts the
    error near 1e-10 relative.
    """
    d = -target.z
    m, v0, g = _kinematics(E, scales)
    F = scales.force_F
    t = np.linspace(0.0, traj.t_flight, n_samples)
    z = v0 * math.cos(traj.launch_angle) * t - 0.5 * g * t * t
    rho = v0 * math.sin(traj.launch_angle) * t
    p = np.sqrt(2.0 * m * (E - F * z))
    dl = np.hypot(np.diff(rho), np.diff(z))
    return float(np.sum(0.5 * (p[1:] + p[:-1]) * dl))


def central_phase_difference(E: float, scales: FieldScales) -> float:
    """Phase offset of the two paths at the pattern center (independent of d).

    Delta Phi = (4 sqrt2 / 3) sqrt(m) E^{3/2} / (hbar F).
    """
    if not E > 0.0:
        raise ValueError("central_phase_difference requires E > 0")
    c = scales.constants
    return (4.0 * math.sqrt(2.0) / 3.0) * math.sqrt(c.m_e) * E**1.5 / (c.hbar * scales.force_F)


def fringe_count_estimate(E: float, scales: FieldScales) -> float:
    """Semiclassical fringe count Delta Phi / (2 pi)."""
    return central_phase_difference(E, scales) / (2.0 * math.pi)


def resimulate_endpoint(traj: Trajectory, E: float, scales: FieldScales, d: float,
                        n_steps: int = 2000):
    """Re-integrate Newton's equations (RK4) and return the landing point.

    RK4 is exact for constant acceleration up to roundoff, so this is a
    genuine independent check of the root solve, not of the integrator.
    """
    m, v0, g = _kinematics(E, scales)
    state = np.array([0.0, 0.0, v0 * math.sin(traj.launch_angle), v0 * math.cos(traj.launch_angle)])

    def deriv(s):
        return np.array([s[2], s[3], 0.0, -g])

    h = traj.t_flight / n_steps
    for _ in range(n_steps):
        k1 = deriv(state)
        k2 = deriv(state + 0.5 * h * k1)
        k3 = deriv(state + 0.5 * h * k2)
        k4 = deriv(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state[0], state[1]   # (rho, z) at t_flight


def semiclassical_profile(rho, d: float, E: float, scales: FieldScales) -> np.ndarray:
    """Coherent two-path sum G_sc = -Sum |A_i| e^{i(W_i/hbar - maslov_i pi/2)}
    at every radius of the 1-D array `rho` on the plane z = -d.

    Same (hbar^2/2m)-normalization as green_energy, so |G_sc|^2 compares
    directly with |green_energy(...).value|^2. The late path's phase is the
    early path's plus the closed-form phase difference. Raises ValueError,
    naming the first such radius, for radii outside the allowed disk or
    within the caustic exclusion band (2% of rho_max), where the
    stationary-phase amplitudes lose meaning.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1:
        raise ValueError("semiclassical_profile takes a 1-D array of radii")
    limit = (1.0 - CAUSTIC_BAND) * rho_max(E, scales, d)
    band = np.nonzero(rho > limit)[0]
    if band.size:
        raise ValueError(
            f"semiclassical wave: radius {rho[band[0]]:.4e} m is within the caustic "
            f"band or outside the disk (limit {limit:.4e} m)"
        )
    p = _two_paths(rho, d, E, scales)
    early = np.fmod(p.action_S[0] / scales.constants.hbar, 2.0 * math.pi)
    phase = np.stack([early, early + p.dphi]) - 0.5 * math.pi * p.maslov
    w = p.vanvleck_amp * np.exp(1j * phase)
    return -(w[0] + w[1])


def semiclassical_wave(target: SpacePoint, E: float, scales: FieldScales) -> complex:
    """semiclassical_profile at one detector point (z < 0)."""
    return complex(semiclassical_profile(np.array([target.rho]), -target.z, E, scales)[0])
