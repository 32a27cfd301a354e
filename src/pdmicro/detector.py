"""Current density on the detector plane: maps, radial profiles, flux, fringes.

The local observable is the probability flux through the plane,

    j = -4 l_F^3 Im[conj(psi) d psi/dz]     (dimensionless)

with psi the (hbar^2/2m)-normalized source wave. In these units the total
flux 2 pi Int j rho drho equals the golden-rule rate of the spectro module
identically, so published maps are divided by that rate and flux
conservation reads total_flux = 1.

Pixel grids are node-registered: x_i = -extent + i * (2 extent / n). A map
at n is then an exact subsample of a map at 2n, and every pixel is a pure
function of its coordinates. Since the s-wave and pz-dipole currents depend
on rho alone, a map evaluates each distinct pixel radius once, so its cost
scales with the number of distinct radii, not with the number of pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import pairwise_sum
from .exceptions import NumericsError
from .units import FieldScales
from .green import SpacePoint, SourceModel, SourceKind, _closed_eval
from . import classical

__all__ = [
    "DetectorPlane",
    "CurrentMap",
    "RadialProfile",
    "FringeReport",
    "current_density",
    "radial_profile",
    "map_plane",
    "map_rows",
    "total_flux",
    "count_fringes",
    "total_rate",
]


@dataclass(frozen=True)
class DetectorPlane:
    """Plane z = -d with a square (2 extent)^2 map of n x n pixels."""

    d: float
    extent: float
    n: int

    def __post_init__(self):
        if not self.d > 0.0:
            raise ValueError("plane distance d must be positive")
        if not self.extent > 0.0:
            raise ValueError("plane extent must be positive")
        if self.n < 16:
            raise ValueError("plane needs at least 16 pixels per side")

    def axes(self):
        step = 2.0 * self.extent / self.n
        x = -self.extent + step * np.arange(self.n)
        return x, x.copy()


@dataclass(frozen=True)
class CurrentMap:
    plane: DetectorPlane
    j: np.ndarray          # (n, n), row-major from (-extent, -extent)
    E: float
    source: SourceModel


@dataclass(frozen=True)
class RadialProfile:
    rho: np.ndarray
    j: np.ndarray
    E: float
    d: float
    source: SourceModel
    scales: FieldScales | None = None   # field metadata, enables self-checks


@dataclass(frozen=True)
class FringeReport:
    n_fringes: int
    maxima_rho: tuple
    rho_max_classical: float


def total_rate(E: float, src: SourceModel, scales: FieldScales) -> float:
    """Golden-rule rate in the detector's normalized units (see spectro)."""
    from . import spectro
    return spectro.golden_rule_current(E, src, scales)


def _flux_array(rho, z, E, src, scales):
    """Downward flux through the plane per m^2, vectorized over SI points.

    Dimensionless natural flux divided by l_F^2: 2 pi Int j rho drho over
    meters then equals the golden-rule rate in its natural units.
    """
    l = scales.length_lF
    u = E / scales.energy_epsF
    want_pz = src.kind is SourceKind.PZ_DIPOLE
    res = _closed_eval(np.asarray(rho) / l, np.asarray(z) / l, 0.0, 0.0, u, want_pz=want_pz)
    if want_pz:
        psi = res["g_zsrc"]
        dpsi = res["g_z_zsrc"]
    else:
        psi = res["g"]
        dpsi = res["g_z"]
    return -4.0 * src.strength**2 * np.imag(np.conj(psi) * dpsi) / (l * l)


def current_density(point: SpacePoint, E: float, src: SourceModel, scales: FieldScales) -> float:
    """Downward probability flux through the plane at one point.

    Units: (golden-rule natural rate) per m^2, not yet divided by the total
    rate; divide by total_rate(E, src, scales) for the published
    normalization in which the plane integral is 1.
    """
    j = _flux_array(np.float64(point.rho), np.float64(point.z), E, src, scales)
    return float(np.asarray(j).reshape(-1)[0])


def radial_profile(E: float, src: SourceModel, scales: FieldScales, plane: DetectorPlane,
                   n_samples: int) -> RadialProfile:
    """Sample the normalized current on a uniform radial grid.

    The grid runs from 0 to min(1.2 rho_max, extent); n_samples >= 64.
    """
    if n_samples < 64:
        raise ValueError("radial_profile needs n_samples >= 64")
    if E > 0.0:
        r_edge = min(1.2 * classical.rho_max(E, scales, plane.d), plane.extent)
    else:
        r_edge = plane.extent
    rho = np.linspace(0.0, r_edge, n_samples)
    j = _flux_array(rho, np.full_like(rho, -plane.d), E, src, scales)
    j = j / total_rate(E, src, scales)
    return RadialProfile(rho=rho, j=j, E=E, d=plane.d, source=src, scales=scales)


def map_rows(rows, plane: DetectorPlane, E: float, src: SourceModel, scales: FieldScales,
             rate: float) -> np.ndarray:
    """Normalized current for the given row indices of the pixel grid.

    The current depends on rho only, so each distinct pixel radius is
    evaluated once and copied back to its pixels. Duplicates are removed by
    exact floating-point value (|x|, |y| and then their hypot), with no
    assumption that the grid is mirror symmetric: every pixel still gets
    the elementwise flux of its own exact rho = hypot(x, y), bit for bit.
    """
    x, y = plane.axes()
    ax, ix = np.unique(np.abs(x), return_inverse=True)
    ay, iy = np.unique(np.abs(y[np.asarray(rows, dtype=np.intp)]), return_inverse=True)
    rho, ir = np.unique(np.hypot(ax, ay[:, None]), return_inverse=True)
    j = _flux_array(rho, np.full_like(rho, -plane.d), E, src, scales) / rate
    return j[ir].reshape(len(ay), len(ax))[np.ix_(iy, ix)]


def map_plane(E: float, src: SourceModel, scales: FieldScales, plane: DetectorPlane) -> CurrentMap:
    """Normalized current-density map over the pixel grid (single process)."""
    rate = total_rate(E, src, scales)
    j = map_rows(range(plane.n), plane, E, src, scales, rate)
    return CurrentMap(plane=plane, j=j, E=E, source=src)


def total_flux(profile: RadialProfile) -> float:
    """2 pi Int j rho drho over the profile grid (composite Simpson).

    With normalized profiles this is the flux-conservation number (~1).
    Raises if the profile does not reach 1.2 rho_max (checkable whenever the
    profile carries its field scales). Quadrature accuracy requires the grid
    to resolve the fringes; with fewer than ~8 samples per fringe the
    oscillation aliases into percent-level flux errors.
    """
    rho = profile.rho
    if profile.scales is not None and profile.E > 0.0:
        rmax = classical.rho_max(profile.E, profile.scales, profile.d)
        if rho[-1] < 1.2 * rmax * (1.0 - 1e-9):
            raise ValueError(
                f"profile reaches {rho[-1]:.4e} m; flux needs >= 1.2 rho_max = {1.2 * rmax:.4e} m"
            )
    if len(rho) < 65:
        raise ValueError("profile too short for flux quadrature")
    h = rho[1] - rho[0]
    if not np.allclose(np.diff(rho), h, rtol=1e-9, atol=0.0):
        raise ValueError("total_flux expects a uniform radial grid")
    f = profile.j * rho
    n = len(rho)
    # composite Simpson; trapezoid correction on the last interval if even count
    m = n if n % 2 == 1 else n - 1
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    total = pairwise_sum(w * f[:m]) * h / 3.0
    if n % 2 == 0:
        total += 0.5 * h * (f[-2] + f[-1])
    return float(2.0 * math.pi * total)


def count_fringes(profile: RadialProfile, scales: FieldScales | None = None) -> FringeReport:
    """Count interference maxima with relative prominence >= 5%.

    The central maximum counts as a fringe. Guards against undersampling
    using the semiclassical fringe estimate when field scales are given.
    """
    j = np.asarray(profile.j, dtype=np.float64)
    rho = np.asarray(profile.rho)
    n = len(j)
    if scales is None:
        scales = profile.scales
    if scales is not None and profile.E > 0.0:
        n_est = classical.fringe_count_estimate(profile.E, scales) + 1.0
        rmax = classical.rho_max(profile.E, scales, profile.d)
        pts_in_disk = float(np.count_nonzero(rho <= rmax))
        if pts_in_disk < 8.0 * n_est:
            raise NumericsError(
                f"profile undersampled: {pts_in_disk:.0f} points inside rho_max for "
                f"~{n_est:.1f} expected fringes (need >= 8 per fringe)"
            )
    jmax = float(j.max())
    if not jmax > 0.0:
        return FringeReport(0, (), _rho_max_meta(profile, scales))

    # strict local maxima; a grid edge counts as lower ground beyond the grid
    edge = np.array([-math.inf])
    peaks = np.flatnonzero((j > np.concatenate((edge, j[:-1])))
                           & (j > np.concatenate((j[1:], edge))))
    # prominence: descent to the shallower col separating a peak from higher
    # ground; a grid edge does not constrain its side
    left = _col_floor(j, peaks)
    right = _col_floor(j[::-1], n - 1 - peaks)
    maxima = peaks[j[peaks] - np.maximum(left, right) >= 0.05 * jmax]
    maxima_rho = tuple(float(rho[i]) for i in maxima)
    return FringeReport(len(maxima), maxima_rho, _rho_max_meta(profile, scales))


def _col_floor(j, peaks):
    """Lowest j between each peak and the nearest higher sample to its left.

    Without a higher sample the floor is the minimum from the grid start; a
    peak on the first sample has no left side, so its floor is -inf. Sparse
    min/max tables over windows of 2^l samples make each query a few array
    operations: binary lifting finds the run of samples <= the peak that
    ends at it, and two overlapping windows give the minimum over that run.
    """
    n = len(j)
    levels = max(1, n.bit_length())
    wmax = np.full((levels, n), math.inf)   # wmax[l, i] = max j[i:i + 2^l]
    wmin = np.full((levels, n), math.inf)
    wmax[0] = wmin[0] = j
    for l in range(1, levels):
        w = 1 << (l - 1)
        wmax[l, :n - w] = np.maximum(wmax[l - 1, :n - w], wmax[l - 1, w:])
        wmin[l, :n - w] = np.minimum(wmin[l - 1, :n - w], wmin[l - 1, w:])
    height = j[peaks]
    start = peaks.copy()
    for l in range(levels - 1, -1, -1):
        s = start - (1 << l)
        ok = s >= 0
        ok[ok] = wmax[l, s[ok]] <= height[ok]
        start[ok] = s[ok]
    span = peaks - start + 1
    l = np.frexp(span)[1] - 1                # floor(log2(span))
    floor = np.minimum(wmin[l, start], wmin[l, peaks + 1 - (1 << l)])
    return np.where(peaks == 0, -math.inf, floor)


def _rho_max_meta(profile: RadialProfile, scales) -> float:
    if scales is not None and profile.E > 0.0:
        return classical.rho_max(profile.E, scales, profile.d)
    return math.nan
