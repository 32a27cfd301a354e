import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmicro import classical, detector, spectro, units
from pdmicro.detector import (
    DetectorPlane,
    RadialProfile,
    count_fringes,
    current_density,
    map_plane,
    map_rows,
    radial_profile,
    total_flux,
)
from pdmicro.exceptions import NumericsError
from pdmicro.green import SourceKind, SourceModel, SpacePoint

D = 0.5


def _per_pixel_map(plane, E, src, scales, rate):
    """Reference map: the flux of every pixel row evaluated on its own."""
    x, y = plane.axes()
    return np.vstack([
        detector._flux_array(np.hypot(x, yi), np.full_like(x, -plane.d), E, src, scales) / rate
        for yi in y
    ])


def _plane(E, scales, d=D, n=16, pad=1.25):
    rmax = classical.rho_max(E, scales, d)
    return DetectorPlane(d=d, extent=pad * rmax, n=n)


class TestCurrentDensity:
    def test_forbidden_region_decay(self, scales, E_r1, s_wave):
        rmax = classical.rho_max(E_r1, scales, D)
        j0 = current_density(SpacePoint(0.0, -D), E_r1, s_wave, scales)
        j_out = current_density(SpacePoint(1.6 * rmax, -D), E_r1, s_wave, scales)
        assert j_out < 1e-6 * j0

    def test_axis_extremum(self, scales, E_r1, s_wave):
        j0 = current_density(SpacePoint(0.0, -D), E_r1, s_wave, scales)
        h = 1e-7
        jp = current_density(SpacePoint(h, -D), E_r1, s_wave, scales)
        assert abs(jp - j0) <= 1e-4 * j0

    def test_strength_quadratic_scaling(self, scales, E_r1):
        p = SpacePoint(2e-4, -D)
        j1 = current_density(p, E_r1, SourceModel(SourceKind.S_WAVE, 1.0), scales)
        j2 = current_density(p, E_r1, SourceModel(SourceKind.S_WAVE, 1e-4), scales)
        assert_allclose(j2, 1e-8 * j1, rtol=1e-12)


def _loop_maxima(j):
    """Reference fringe maxima: the two-loop prominence search that
    count_fringes ran before it was vectorized, kept as it was."""
    n = len(j)
    jmax = float(j.max())
    if not jmax > 0.0:
        return ()
    peaks = []
    for i in range(n):
        left = j[i - 1] if i > 0 else -math.inf
        right = j[i + 1] if i < n - 1 else -math.inf
        if j[i] > left and j[i] > right:
            peaks.append(i)
    maxima = []
    for i in peaks:
        if i == 0:
            left_base = -math.inf
        else:
            lo = j[i]
            for k in range(i - 1, -1, -1):
                lo = min(lo, j[k])
                if j[k] > j[i]:
                    break
            left_base = lo
        if i == n - 1:
            right_base = -math.inf
        else:
            lo = j[i]
            for k in range(i + 1, n):
                lo = min(lo, j[k])
                if j[k] > j[i]:
                    break
            right_base = lo
        prominence = j[i] - max(left_base, right_base)
        if prominence >= 0.05 * jmax:
            maxima.append(i)
    return tuple(maxima)


class TestProfileAndFringes:
    def test_vectorized_count_equals_loop_reference(self, scales, s_wave, pz_dipole):
        profiles = []
        for src in (s_wave, pz_dipole):
            for ueV in (30.0, 120.0, 400.0):
                E = units.convert_energy(ueV, "ueV", "J")
                prof = radial_profile(E, src, scales, _plane(E, scales), 600)
                profiles.append(prof.j)
                for seed in range(3):
                    noise = np.random.default_rng(seed).standard_normal(600)
                    profiles.append(prof.j * (1.0 + 0.02 * noise))
                # reversed: the global maximum and a fringe on the last sample
                profiles.append(prof.j[::-1].copy())
                profiles.append(prof.j[::-1] * (1.0 + 0.02 * noise))
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 64, 333):
            profiles.append(rng.random(n))
            # plateaus: equal neighbours are not maxima and do not end a descent
            profiles.append(np.round(4.0 * rng.random(n)) / 4.0)
        profiles.append(np.array([1.0, 1.0, 0.0, 2.0, 2.0, 0.5, 3.0]))
        profiles.append(np.array([2.0, 1.0, 1.5, 1.0, 1.5, 1.0, 2.0]))    # both edges
        profiles.append(np.array([-1.0, 0.5, -2.0, 0.2, -0.5]))          # negative cols
        profiles.append(np.array([0.0, 2.0, 1.99, 2.0, 0.0]))   # an equal peak is not higher
        for j in profiles:
            rho = np.arange(len(j), dtype=np.float64)
            rep = count_fringes(RadialProfile(rho, j, 1.0, 1.0, s_wave))
            ref = _loop_maxima(j)
            assert rep.maxima_rho == tuple(float(i) for i in ref)
            assert rep.n_fringes == len(ref)


    def test_r1_count(self, scales, E_r1, s_wave):
        prof = radial_profile(E_r1, s_wave, scales, _plane(E_r1, scales), 1200)
        rep = count_fringes(prof, scales)
        assert rep.n_fringes in (7, 8, 9)
        n_est = classical.fringe_count_estimate(E_r1, scales)
        assert abs(rep.n_fringes - n_est) <= 1.0
        assert all(r < 1.05 * rep.rho_max_classical for r in rep.maxima_rho)
        assert list(rep.maxima_rho) == sorted(rep.maxima_rho)

    @pytest.mark.parametrize("ueV", [50.0, 100.0, 200.0, 400.0])
    def test_count_tracks_phase_estimate(self, scales, s_wave, ueV):
        # with the central maximum counted, the semiclassical model for the
        # count is dphi/2pi + 1 (one ring closes per full phase turn)
        E = units.convert_energy(ueV, "ueV", "J")
        prof = radial_profile(E, s_wave, scales, _plane(E, scales), 1600)
        rep = count_fringes(prof, scales)
        n_est = classical.fringe_count_estimate(E, scales)
        assert abs(rep.n_fringes - (n_est + 1.0)) <= 1.0
        if ueV > 50.0:
            assert abs(rep.n_fringes - n_est) <= 1.0

    def test_resolution_independence(self, scales, E_r1, s_wave):
        plane = _plane(E_r1, scales)
        p1 = radial_profile(E_r1, s_wave, scales, plane, 1200)
        p2 = radial_profile(E_r1, s_wave, scales, plane, 2400)
        r1 = count_fringes(p1, scales)
        r2 = count_fringes(p2, scales)
        assert r1.n_fringes == r2.n_fringes
        cell = p1.rho[1] - p1.rho[0]
        for a, b in zip(r1.maxima_rho, r2.maxima_rho):
            assert abs(a - b) <= cell

    def test_scale_invariance(self, scales, E_r1, s_wave):
        prof = radial_profile(E_r1, s_wave, scales, _plane(E_r1, scales), 1200)
        for c in (4.0, 3.0, 0.001):
            scaled = RadialProfile(prof.rho, prof.j * c, prof.E, prof.d, prof.source)
            assert count_fringes(scaled, scales) == count_fringes(prof, scales)

    def test_low_energy_single_lobe(self, scales, s_wave):
        E = 0.8 * scales.energy_epsF
        prof = radial_profile(E, s_wave, scales, _plane(E, scales), 400)
        rep = count_fringes(prof, scales)
        assert rep.n_fringes == 1

    def test_monotone_decay_past_caustic(self, scales, E_r1, s_wave):
        rmax = classical.rho_max(E_r1, scales, D)
        plane = DetectorPlane(d=D, extent=1.6 * rmax, n=16)
        prof = radial_profile(E_r1, s_wave, scales, plane, 2000)
        sel = prof.rho > 1.02 * rmax
        assert np.all(np.diff(prof.j[sel]) < 0.0)

    def test_undersampling_guard(self, scales, s_wave):
        E = units.convert_energy(400.0, "ueV", "J")
        with pytest.raises(NumericsError, match="undersampled"):
            prof = radial_profile(E, s_wave, scales, _plane(E, scales), 64)
            count_fringes(prof, scales)

    def test_pz_profile_differs_from_s(self, scales, E_r1, s_wave, pz_dipole):
        plane = _plane(E_r1, scales)
        ps = radial_profile(E_r1, s_wave, scales, plane, 900)
        pz = radial_profile(E_r1, pz_dipole, scales, plane, 900)
        # compare shapes normalized to their maxima, in the outer region
        js = ps.j / ps.j.max()
        jz = pz.j / pz.j.max()
        outer = ps.rho > 0.7 * classical.rho_max(E_r1, scales, D)
        assert np.max(np.abs(js[outer] - jz[outer])) > 0.05


class TestFlux:
    @pytest.mark.parametrize("kind", [SourceKind.S_WAVE, SourceKind.PZ_DIPOLE])
    def test_conservation_across_planes_and_golden_rule(self, scales, E_r1, kind):
        src = SourceModel(kind, 1.0)
        fluxes = []
        for d in (0.3, 0.5):
            prof = radial_profile(E_r1, src, scales, _plane(E_r1, scales, d=d), 2001)
            fluxes.append(total_flux(prof))
        # both equal the golden-rule rate (1 in normalized units) within 0.5%
        for f in fluxes:
            assert abs(f - 1.0) <= 5e-3
        assert abs(fluxes[0] - fluxes[1]) <= 5e-3 * fluxes[1]

    def test_flux_tracks_golden_rule_value(self, scales, E_r1, s_wave):
        # unnormalized flux integral reproduces the rate itself
        plane = _plane(E_r1, scales)
        prof = radial_profile(E_r1, s_wave, scales, plane, 2001)
        rate = spectro.golden_rule_current(E_r1, s_wave, scales)
        raw = RadialProfile(prof.rho, prof.j * rate, prof.E, prof.d, prof.source)
        assert_allclose(total_flux(raw), rate, rtol=5e-3)

    def test_insufficient_extent_rejected(self, scales, E_r1, s_wave):
        rmax = classical.rho_max(E_r1, scales, D)
        plane = DetectorPlane(d=D, extent=0.9 * rmax, n=16)
        prof = radial_profile(E_r1, s_wave, scales, plane, 512)
        with pytest.raises(ValueError, match="1.2 rho_max"):
            total_flux(prof)

    def test_nonuniform_grid_rejected(self, scales, E_r1, s_wave):
        prof = radial_profile(E_r1, s_wave, scales, _plane(E_r1, scales), 512)
        bad = RadialProfile(prof.rho**1.01, prof.j, prof.E, prof.d, prof.source)
        with pytest.raises(ValueError, match="uniform"):
            total_flux(bad)


class TestMaps:
    def test_subsampling_exact(self, scales, E_r1, s_wave):
        E = E_r1
        rmax = classical.rho_max(E, scales, D)
        p64 = DetectorPlane(d=D, extent=1.1 * rmax, n=64)
        p128 = DetectorPlane(d=D, extent=1.1 * rmax, n=128)
        m64 = map_plane(E, s_wave, scales, p64)
        m128 = map_plane(E, s_wave, scales, p128)
        assert np.array_equal(m64.j, m128.j[::2, ::2])

    def test_mirror_symmetry(self, scales, E_r1, s_wave):
        plane = DetectorPlane(d=D, extent=1.2e-3, n=32)
        m = map_plane(E_r1, s_wave, scales, plane).j
        inner = m[1:, 1:]
        assert np.max(np.abs(inner - inner[::-1, ::-1])) <= 1e-9 * m.max()

    def test_max_inside_classical_disk(self, scales, E_r1, s_wave):
        rmax = classical.rho_max(E_r1, scales, D)
        plane = DetectorPlane(d=D, extent=1.3 * rmax, n=64)
        m = map_plane(E_r1, s_wave, scales, plane)
        iy, ix = np.unravel_index(np.argmax(m.j), m.j.shape)
        x, y = plane.axes()
        assert math.hypot(x[ix], y[iy]) < rmax

    def test_row_chunking_identical(self, scales, E_r1, s_wave):
        plane = DetectorPlane(d=D, extent=1.0e-3, n=32)
        rate = detector.total_rate(E_r1, s_wave, scales)
        whole = map_rows(range(32), plane, E_r1, s_wave, scales, rate)
        parts = np.vstack([map_rows(r, plane, E_r1, s_wave, scales, rate)
                           for r in (range(0, 10), range(10, 25), range(25, 32))])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize("kind", [SourceKind.S_WAVE, SourceKind.PZ_DIPOLE])
    @pytest.mark.parametrize("n", [16, 17, 100, 128, 255])
    def test_map_equals_per_pixel_reference(self, scales, E_r1, kind, n):
        # distinct-radius evaluation must give every pixel the bits of its
        # own flux, also where the grid is not exactly mirror symmetric
        x, _ = DetectorPlane(d=D, extent=1.0e-3, n=n).axes()
        assert any(abs(x[i]) != abs(x[n - i]) for i in range(1, n))
        src = SourceModel(kind, 1.0)
        rate = detector.total_rate(E_r1, src, scales)
        rng = np.random.default_rng(n)
        for extent in (6.0e-4, 1.0e-3, 1.25e-3):
            plane = DetectorPlane(d=D, extent=extent, n=n)
            ref = _per_pixel_map(plane, E_r1, src, scales, rate)
            assert np.array_equal(map_plane(E_r1, src, scales, plane).j, ref)
            rows = np.sort(rng.choice(n, size=n // 3, replace=False))
            assert np.array_equal(map_rows(rows, plane, E_r1, src, scales, rate), ref[rows])

    @pytest.mark.parametrize("kind", [SourceKind.S_WAVE, SourceKind.PZ_DIPOLE])
    def test_map_below_threshold_equals_per_pixel_reference(self, scales, kind):
        src = SourceModel(kind, 1.0)
        E = units.convert_energy(-0.3, "ueV", "J")
        plane = DetectorPlane(d=D, extent=8.0e-4, n=100)
        rate = detector.total_rate(E, src, scales)
        ref = _per_pixel_map(plane, E, src, scales, rate)
        assert np.array_equal(map_plane(E, src, scales, plane).j, ref)

    def test_map_evaluates_each_distinct_radius_once(self, scales, E_r1, s_wave, monkeypatch):
        points = []
        flux = detector._flux_array

        def counting(rho, *args):
            points.append(np.size(rho))
            return flux(rho, *args)

        monkeypatch.setattr(detector, "_flux_array", counting)
        n = 128
        plane = DetectorPlane(d=D, extent=1.0e-3, n=n)
        map_plane(E_r1, s_wave, scales, plane)
        x, y = plane.axes()
        distinct = np.unique(np.hypot(x, y[:, None])).size
        assert sum(points) <= distinct < n * n // 3

    def test_repeat_determinism(self, scales, E_r1, s_wave):
        plane = DetectorPlane(d=D, extent=1.0e-3, n=32)
        a = map_plane(E_r1, s_wave, scales, plane).j
        b = map_plane(E_r1, s_wave, scales, plane).j
        assert np.array_equal(a, b)


def test_plane_validation():
    with pytest.raises(ValueError):
        DetectorPlane(d=0.0, extent=1e-3, n=32)
    with pytest.raises(ValueError):
        DetectorPlane(d=0.5, extent=-1e-3, n=32)
    with pytest.raises(ValueError):
        DetectorPlane(d=0.5, extent=1e-3, n=8)
