"""Exact quantum propagation of an electron in a uniform force field.

Geometry and conventions
------------------------
Cylindrical coordinates (rho, z) in a meridian plane; the potential is
V = +F z, so the force F points toward negative z and the detector sits at
z = -d below the source. Green-function values are stored in the
(2m/hbar^2)-normalized convention

    value = (hbar^2 / 2m) * G_physical        [units 1/m]

so the free-field limit is value -> -exp(ikR)/(4 pi R), and no hidden
constants enter the flux bookkeeping downstream.

Internally everything is dimensionless (lengths in l_F, energies in eps_F).
With u = E/eps_F, a = u - (z + z')/2 and b = R^2/4 (R the separation), the
energy Green function has two independent evaluation routes:

* `green_energy_quad`: the normative time integral
      ghat = (4 pi)^{-3/2} e^{-i 5 pi/4} Int_0^inf s^{-3/2} e^{i Phi(s)} ds,
      Phi = a s + b/s - s^3/12,
  integrated on a rotated ray s -> s e^{-i theta}. The rotation angle is
  budgeted against the exponential growth the rotation induces, so the
  oracle has a documented validity domain (separations up to a few hundred
  l_F in double precision; beyond that it raises rather than degrade).

* `green_energy`: the fast closed form
      ghat = [Ci(am) Ai'(ap) - Ci'(am) Ai(ap)] / (4 R),
      ap,am = -a +- R/2,  Ci = Bi + i Ai,
  calibrated against the oracle (the test suite pins the constant; its
  analytic value is 1, fixed by the Wronskian at coincidence). Evaluated in
  phase-factored / exponent-split form, it stays accurate from nanometer to
  meter separations.

The vectorized core `_closed_eval(..., want=...)` returns only the outputs
its caller names (the wave, its first partials, and the mixed second
partials a pz dipole needs) and computes only the partials of the bilinear
those need. Bi enters only through Ci(am), so Ai alone is evaluated at ap.
Leaving outputs out does not move a bit of the ones returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import specfun
from ._quad import adaptive_quad
from .exceptions import QuadratureError
from .units import FieldScales

__all__ = [
    "SpacePoint",
    "SourceKind",
    "SourceModel",
    "GreenEvaluation",
    "kernel",
    "green_energy",
    "green_energy_quad",
    "ldos_at_source",
    "source_wave",
    "free_green_value",
    "ldos_bracket_s",
    "ldos_bracket_pz",
]

_PREF = (4.0 * math.pi) ** -1.5 * np.exp(-1.25j * math.pi)
_THETA_MAX = math.pi / 6.0       # fixed contour rotation, see module docstring
_ETA_IMAG = 1e-12                # +i eta on u for E >= 0 (retarded prescription)
_GROWTH_BUDGET = 12.0            # max allowed ln of rotated-integrand growth
_THETA_MIN = 1e-4


@dataclass(frozen=True)
class SpacePoint:
    """Point in the meridian plane: cylindrical radius rho >= 0, height z (m)."""

    rho: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.rho) and math.isfinite(self.z)):
            raise ValueError("SpacePoint coordinates must be finite")
        if self.rho < 0.0:
            raise ValueError("rho must be non-negative")


class SourceKind(Enum):
    S_WAVE = "s"
    PZ_DIPOLE = "pz"


@dataclass(frozen=True)
class SourceModel:
    """Point-source reduction of the initial bound state.

    S_WAVE is a unit delta source; PZ_DIPOLE its z-derivative with the
    dipole length normalized to l_F (so both produce 1/m-normalized waves).
    """

    kind: SourceKind = SourceKind.S_WAVE
    strength: float = 1.0

    def __post_init__(self):
        if not self.strength > 0.0:
            raise ValueError("source strength must be positive")


@dataclass(frozen=True)
class GreenEvaluation:
    """Value and gradient of a propagated wave at a space point.

    value: (hbar^2/2m) G  [1/m];  grad_z, grad_rho: its spatial derivatives
    [1/m^2]. The overall phase at macroscopically separated points carries
    an O(|phase| * eps) wobble from reducing a huge action phase mod 2 pi;
    it is common to value and gradients, so fluxes and intensities are
    unaffected.
    """

    value: complex
    grad_z: complex
    grad_rho: complex


# ---------------------------------------------------------------------------
# Closed form (natural units).


def _bilinear(ap, am, order):
    """Stable evaluation of B = Ci(am)Ai'(ap) - Ci'(am)Ai(ap) and partials.

    Returns [B, Bp, Bm, Bpp, Bpm, Bmm], where p/m denote d/d(ap), d/d(am);
    entries past the derivative order (0, 1 or 2) are None. All outputs
    share one common factor already applied: the fast phase of Ci at large
    negative am and the decay exponent of Ai at positive ap, keeping every
    quadrant overflow- and cancellation-safe. Bi enters through Ci(am)
    only, so the ap side evaluates Ai alone.
    """
    ap = np.atleast_1d(np.asarray(ap, dtype=np.float64))
    am = np.atleast_1d(np.asarray(am, dtype=np.float64))
    shape = np.broadcast_shapes(ap.shape, am.shape)
    ap = np.broadcast_to(ap, shape).ravel()
    am = np.broadcast_to(am, shape).ravel()

    ai_p, aip_p, _, _, e_p = specfun.airy_scaled(ap, bi=False)

    out = [np.zeros(ap.shape, dtype=np.complex128) for _ in range((1, 3, 6)[order])]

    def linforms(mask, c0, c1):
        """The bilinear and its alpha-derivatives, linear in (Ci, Ci')."""
        apm = ap[mask]
        amm = am[mask]
        aim = ai_p[mask]
        aipm = aip_p[mask]
        vals = [c0 * aipm - c1 * aim]
        if order >= 1:
            bp = apm * c0 * aim - c1 * aipm
            bm = c1 * aipm - amm * c0 * aim
            vals += [bp, bm]
        if order >= 2:
            bpp = c0 * (aim + apm * aipm) - apm * c1 * aim
            bpm = apm * c1 * aim - amm * c0 * aipm
            bmm = amm * c0 * aipm - c0 * aim - amm * c1 * aim
            vals += [bpp, bpm, bmm]
        return vals

    m1 = am <= -12.0
    if m1.any():
        c0, c1, phase = specfun.ci_factored(am[m1])
        mult = np.exp(1j * phase - e_p[m1])
        for target, v in zip(out, linforms(m1, c0, c1)):
            target[m1] = v * mult

    m2 = ~m1
    if m2.any():
        ai_m, aip_m, bi_m, bip_m, e_m = specfun.airy_scaled(am[m2])
        # Ci split by exponent: the Bi part carries e^{+e_m}, the Ai part
        # e^{-e_m}; am < ap guarantees e_m <= e_p, so both combined factors
        # stay <= 1 and nothing overflows in the tunneling quadrants.
        e1 = np.exp(e_m - e_p[m2])
        e2 = np.exp(-e_m - e_p[m2])
        re_vals = linforms(m2, bi_m, bip_m)
        im_vals = linforms(m2, ai_m, aip_m)
        for target, vr, vi in zip(out, re_vals, im_vals):
            target[m2] = vr * e1 + 1j * vi * e2

    return [o.reshape(shape) for o in out] + [None] * (6 - len(out))


# _closed_eval keys: the wave g, its first partials by z, rho and the source
# height z_src, and the mixed second partials a pz dipole source needs.
_FIRST = {"g_z": "z", "g_rho": "rho", "g_zsrc": "zsrc"}
_SECOND = {"g_z_zsrc": "z", "g_rho_zsrc": "rho"}


def _closed_eval(rho, z, rho_src, z_src, u, *, want):
    """Closed-form ghat and the derivatives named in `want`, natural units.

    `want` is an iterable of keys among g, g_z, g_rho, g_zsrc, g_z_zsrc and
    g_rho_zsrc; the returned dict holds exactly those. Second partials of
    the bilinear are computed only when a *_zsrc second-order key is asked
    for, and its first partials only when any derivative is. Each entry is
    bit for bit the same whatever else is asked for.
    """
    want = set(want)
    unknown = want - {"g"} - _FIRST.keys() - _SECOND.keys()
    if unknown:
        raise ValueError(f"_closed_eval: unknown outputs {sorted(unknown)}")
    rho = np.asarray(rho, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    dr = rho - rho_src
    dz = z - z_src
    R = np.hypot(dr, dz)
    if np.any(R <= 0.0):
        raise ValueError("green_energy: coincident points; use ldos_at_source for the diagonal")
    a = u - 0.5 * (z + z_src)
    ap = -a + 0.5 * R
    am = -a - 0.5 * R

    nrho = dr / R
    nz = dz / R

    order = 2 if want & _SECOND.keys() else 1 if want - {"g"} else 0
    B, Bp, Bm, Bpp, Bpm, Bmm = _bilinear(ap, am, order)

    quarter_r = 1.0 / (4.0 * R)

    def slopes(c):
        """d alpha+/dc, d alpha-/dc and dR/dc for c in z, rho, zsrc."""
        if c == "z":
            return 0.5 * (1.0 + nz), 0.5 * (1.0 - nz), nz
        if c == "rho":
            return 0.5 * nrho, -0.5 * nrho, nrho
        return 0.5 * (1.0 - nz), 0.5 * (1.0 + nz), -nz

    def first(cp, cm, r_c):
        return (Bp * cp + Bm * cm) * quarter_r - B * r_c * quarter_r / R

    outd = {}
    if "g" in want:
        outd["g"] = B * quarter_r
    for key, c in _FIRST.items():
        if key in want:
            outd[key] = first(*slopes(c))
    if order == 2:
        ap_zs, am_zs, _ = slopes("zsrc")
        B_zs = Bp * ap_zs + Bm * am_zs

    for key, c in _SECOND.items():
        if key not in want:
            continue
        # d/d z_src of the first partial by c (B_c / 4R term structure)
        c1p, c1m, r_c1 = slopes(c)
        r_cross = (nz * nz - 1.0) / R if c == "z" else nrho * nz / R
        B_c1 = Bp * c1p + Bm * c1m
        B_c1zs = (Bpp * c1p * ap_zs + Bpm * (c1p * am_zs + c1m * ap_zs)
                  + Bmm * c1m * am_zs + Bp * (0.5 * r_cross) + Bm * (-0.5 * r_cross))
        outd[key] = (B_c1zs * quarter_r
                     - B_c1 * (-nz) * quarter_r / R
                     - B_zs * r_c1 * quarter_r / R
                     - B * (r_cross * quarter_r / R - 2.0 * r_c1 * (-nz) * quarter_r / (R * R)))
    return outd


# ---------------------------------------------------------------------------
# Quadrature oracle (natural units).


def _ray_exponent_profile(a_c, b, theta, n=1500):
    """Re i Phi on the rotated ray, on a deterministic log grid of sigma.

    The grid must straddle every scale of Phi: the b/s blow-up near the
    origin, the saddle zone around sqrt(a) and b^(1/4), and the cubic
    cut-off, otherwise the growth estimate undershoots.
    """
    s_ref = max(1.0, 2.0 * math.sqrt(abs(a_c.real)) + 1.0,
                (12.0 * 80.0) ** (1.0 / 3.0), 2.5 * b ** 0.25)
    s_small = min(max(b * math.sin(theta) / 80.0, 1e-12), 1e-3 * s_ref)
    grid = np.exp(np.linspace(math.log(s_small), math.log(s_ref * 40.0), n))
    s = grid * np.exp(-1j * theta)
    expo = (1j * (a_c * s + b / s - s**3 / 12.0)).real
    return grid, expo


def _choose_theta(a_c, b):
    """Largest angle <= pi/6 whose rotated-integrand growth stays bounded."""
    theta = _THETA_MAX
    for _ in range(12):
        _, expo = _ray_exponent_profile(a_c, b, theta)
        fmax = float(expo.max())
        if fmax <= _GROWTH_BUDGET:
            return theta, fmax
        theta = max(theta * min(0.7, _GROWTH_BUDGET / fmax), _THETA_MIN * 0.5)
        if theta < _THETA_MIN:
            break
    raise QuadratureError(
        "separation too large for the rotated-contour oracle in double precision",
        diagnostics={"a": complex(a_c), "b": float(b), "growth": float(fmax)},
    )


def _quad_green(rho, z, rho_src, z_src, u, powers=(-1.5,)):
    """Rotated-ray integrals Int_0^inf s^p e^{i Phi(s)} ds for each p.

    Scalar geometry; u may carry the +i eta prescription already.
    """
    dr = rho - rho_src
    dz = z - z_src
    R = math.hypot(dr, dz)
    if R <= 0.0:
        raise ValueError("coincident points in quadrature oracle")
    a_c = complex(u) - 0.5 * (z + z_src)
    b = 0.25 * R * R

    theta, fmax = _choose_theta(a_c, b)
    grid, expo = _ray_exponent_profile(a_c, b, theta)
    live = expo > expo.max() - 60.0
    slo = grid[live][0]
    shi = grid[live][-1] * 1.2
    rot = np.exp(-1j * theta)

    # phase range sets the initial panel count and the roundoff-noise floor
    # (values of e^{i Phi} carry ~eps * |Phi| of phase noise)
    s_live = grid[live] * rot
    phases = (1j * (a_c * s_live + b / s_live - s_live**3 / 12.0)).imag
    phase_range = float(phases.max() - phases.min())
    n0 = int(min(4096, max(32, phase_range / 2.5)))
    floor = 200.0 * (1.0 + phase_range)

    results = []
    for p in powers:
        def f(sig):
            s = sig * rot
            return sig**p * np.exp(1j * (a_c * s + b / s - s**3 / 12.0))

        val, err = adaptive_quad(f, slo, shi, epsrel=1e-10, n0=n0,
                                 max_panels=120000, floor_factor=floor,
                                 label=f"green ray p={p}")
        results.append(rot ** (p + 1.0) * val)
    return results


def _quad_eval(rho, z, rho_src, z_src, u, want_pz=False):
    """Oracle ghat and derivatives at one point, natural units."""
    powers = [-1.5, -0.5, -2.5]
    if want_pz:
        powers.append(0.5)
    ints = _quad_green(rho, z, rho_src, z_src, u, powers=powers)
    i_m32, i_m12, i_m52 = ints[:3]
    dr = rho - rho_src
    dz = z - z_src
    i_a = 1j * i_m12
    i_b = 1j * i_m52
    g = _PREF * i_m32
    g_z = _PREF * (-0.5 * i_a + 0.5 * dz * i_b)
    g_rho = _PREF * (0.5 * dr * i_b)
    g_zsrc = _PREF * (-0.5 * i_a - 0.5 * dz * i_b)
    out = {"g": g, "g_z": g_z, "g_rho": g_rho, "g_zsrc": g_zsrc}
    if want_pz:
        if abs(dz) > 1e-12 * max(1.0, abs(rho - rho_src)):
            raise ValueError("oracle double z-derivative implemented for z = z_src only")
        i_p12 = ints[3]
        i_aa = -i_p12
        out["g_z_zsrc"] = _PREF * (0.25 * i_aa - 0.5 * i_b)
    return out


# ---------------------------------------------------------------------------
# Public SI surface.


def kernel(r: SpacePoint, r_src: SpacePoint, t: float, scales: FieldScales) -> complex:
    """Time-domain propagator K(r, r'; t) of the uniform-force Hamiltonian.

    K = (m/(2 pi i hbar t))^{3/2} exp{(i/hbar)[m|r-r'|^2/(2t)
        - F t (z+z')/2 - F^2 t^3/(24 m)]},  SI units m^-3.
    """
    if not t > 0.0:
        raise ValueError("kernel requires t > 0")
    c = scales.constants
    m = c.m_e
    hbar = c.hbar
    F = scales.force_F
    R2 = (r.rho - r_src.rho) ** 2 + (r.z - r_src.z) ** 2
    amp = (m / (2.0 * math.pi * hbar * t)) ** 1.5 * np.exp(-0.75j * math.pi)
    phase = (m * R2 / (2.0 * t) - F * t * (r.z + r_src.z) / 2.0 - F**2 * t**3 / (24.0 * m)) / hbar
    return complex(amp * np.exp(1j * phase))


def _to_natural(r: SpacePoint, r_src: SpacePoint, E: float, scales: FieldScales):
    l = scales.length_lF
    return r.rho / l, r.z / l, r_src.rho / l, r_src.z / l, E / scales.energy_epsF



def _c1(x) -> complex:
    """First element as a Python complex (scalar-call convenience)."""
    return complex(np.asarray(x).reshape(-1)[0])

def green_energy(r: SpacePoint, r_src: SpacePoint, E: float, scales: FieldScales) -> GreenEvaluation:
    """Energy Green function by the calibrated Airy closed form."""
    rho, z, rho_s, z_s, u = _to_natural(r, r_src, E, scales)
    res = _closed_eval(np.float64(rho), np.float64(z), rho_s, z_s, u, want=("g", "g_z", "g_rho"))
    l = scales.length_lF
    return GreenEvaluation(
        value=_c1(res["g"]) / l,
        grad_z=_c1(res["g_z"]) / l**2,
        grad_rho=_c1(res["g_rho"]) / l**2,
    )


def green_energy_quad(r: SpacePoint, r_src: SpacePoint, E: float, scales: FieldScales) -> GreenEvaluation:
    """Energy Green function by the rotated-contour time integral (oracle).

    Slow; raises QuadratureError outside its double-precision validity
    domain (see module docstring).
    """
    rho, z, rho_s, z_s, u = _to_natural(r, r_src, E, scales)
    uc = u + 1j * _ETA_IMAG if u >= 0.0 else complex(u)
    res = _quad_eval(rho, z, rho_s, z_s, uc)
    l = scales.length_lF
    return GreenEvaluation(
        value=_c1(res["g"]) / l,
        grad_z=_c1(res["g_z"]) / l**2,
        grad_rho=_c1(res["g_rho"]) / l**2,
    )


def ldos_bracket_s(xi):
    """Ai'(xi)^2 - xi Ai(xi)^2 = Int_xi^inf Ai^2, the s-wave rate bracket."""
    xi_a = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    ai_s, aip_s, _, _, expo = specfun.airy_scaled(xi_a, bi=False)
    out = np.exp(-2.0 * expo) * (aip_s**2 - xi_a * ai_s**2)
    return float(out[0]) if np.isscalar(xi) or np.ndim(xi) == 0 else out


def ldos_bracket_pz(xi):
    """-[2 Ai Ai' + xi (Ai'^2 - xi Ai^2)], the z-dipole rate bracket (> 0)."""
    xi_a = np.atleast_1d(np.asarray(xi, dtype=np.float64))
    ai_s, aip_s, _, _, expo = specfun.airy_scaled(xi_a, bi=False)
    out = -np.exp(-2.0 * expo) * (2.0 * ai_s * aip_s + xi_a * (aip_s**2 - xi_a * ai_s**2))
    return float(out[0]) if np.isscalar(xi) or np.ndim(xi) == 0 else out


def ldos_at_source(E: float, scales: FieldScales) -> float:
    """Im value at coincidence for a unit s-wave source, units 1/m.

    Equals -(Ai'(xi)^2 - xi Ai(xi)^2)/(4 l_F) with xi = -E/eps_F; smooth
    through E = 0 and exponentially small for E < 0.
    """
    if not math.isfinite(E):
        raise ValueError("E must be finite")
    xi = -E / scales.energy_epsF
    return float(np.asarray(-ldos_bracket_s(xi)).reshape(-1)[0] / (4.0 * scales.length_lF))


_EXCLUSION = 1e-3  # source_wave exclusion ball, in units of l_F


def source_wave(r: SpacePoint, E: float, src: SourceModel, scales: FieldScales) -> GreenEvaluation:
    """Propagated wave of a point source at the origin.

    S_WAVE: strength * G(r, 0; E). PZ_DIPOLE: strength * l_F * dG/dz'
    at r' = 0 (dipole length normalized to l_F, so units stay 1/m).
    """
    rho, z, _, _, u = _to_natural(r, SpacePoint(0.0, 0.0), E, scales)
    if math.hypot(rho, z) < _EXCLUSION:
        raise ValueError(f"evaluation inside the source exclusion ball (r < {_EXCLUSION} l_F)")
    l = scales.length_lF
    if src.kind is SourceKind.S_WAVE:
        res = _closed_eval(np.float64(rho), np.float64(z), 0.0, 0.0, u, want=("g", "g_z", "g_rho"))
        return GreenEvaluation(
            value=src.strength * _c1(res["g"]) / l,
            grad_z=src.strength * _c1(res["g_z"]) / l**2,
            grad_rho=src.strength * _c1(res["g_rho"]) / l**2,
        )
    res = _closed_eval(np.float64(rho), np.float64(z), 0.0, 0.0, u,
                       want=("g_zsrc", "g_z_zsrc", "g_rho_zsrc"))
    return GreenEvaluation(
        value=src.strength * _c1(res["g_zsrc"]) / l,
        grad_z=src.strength * _c1(res["g_z_zsrc"]) / l**2,
        grad_rho=src.strength * _c1(res["g_rho_zsrc"]) / l**2,
    )


def free_green_value(R: float, E: float, scales: FieldScales) -> complex:
    """Zero-field reference: -(e^{ikR})/(4 pi R), same normalization."""
    k = math.sqrt(2.0 * scales.constants.m_e * E) / scales.constants.hbar
    return -np.exp(1j * k * R) / (4.0 * math.pi * R)
