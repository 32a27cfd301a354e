import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmicro import classical, detector, spectro, units
from pdmicro.exceptions import FitConvergenceError, NumericsError
from pdmicro.green import SourceKind, SourceModel, _quad_eval
from pdmicro.spectro import (
    SweepPoint,
    add_noise,
    einstein_fit,
    extract_energy,
    golden_rule_current,
    run_sweep,
)

D = 0.5


def _plane(E_max, scales, d=D):
    rmax = classical.rho_max(E_max, scales, d)
    return detector.DetectorPlane(d=d, extent=1.25 * rmax, n=16)


class TestGoldenRule:
    def test_wigner_law_recovered_far_above_threshold(self, scales, s_wave):
        # J / sqrt(E) approaches a constant
        vals = []
        for u in (50.0, 75.0, 100.0):
            E = u * scales.energy_epsF
            vals.append(golden_rule_current(E, s_wave, scales) / math.sqrt(u))
        assert abs(vals[0] - vals[2]) <= 1e-2 * vals[2]
        assert abs(vals[1] - vals[2]) <= 1e-2 * vals[2]
        assert_allclose(vals[2], 1.0 / math.pi, rtol=1e-3)

    def test_threshold_not_zero(self, scales, s_wave, pz_dipole):
        assert golden_rule_current(0.0, s_wave, scales) > 0.0
        assert golden_rule_current(0.0, pz_dipole, scales) > 0.0

    def test_continuous_and_increasing_through_threshold(self, scales, s_wave, pz_dipole):
        es = np.linspace(-2.0, 2.0, 100) * scales.energy_epsF
        for src in (s_wave, pz_dipole):
            j = np.array([golden_rule_current(float(E), src, scales) for E in es])
            assert np.all(j > 0.0)
            assert np.all(np.diff(j) > 0.0)

    def test_subthreshold_tunneling_slope(self, scales, s_wave):
        # exponent of the tunneling tail: fit ln(J xi) = c + s eta + q / eta
        # (algebraic prefactor 1/xi and leading correction amplitude from the
        # Airy asymptotics; q left free). s must be -(4/3) eps_F^{-3/2} in
        # physical units, i.e. -4/3 per xi^{3/2}.
        xi = np.linspace(2.0, 5.0, 31)
        J = np.array([golden_rule_current(float(-x * scales.energy_epsF), s_wave, scales)
                      for x in xi])
        eta = xi**1.5
        design = np.vstack([np.ones_like(eta), eta, 1.0 / eta]).T
        coef, *_ = np.linalg.lstsq(design, np.log(J * xi), rcond=None)
        assert abs(coef[1] - (-4.0 / 3.0)) <= 0.01 * (4.0 / 3.0)

    def test_pz_rate_against_quadrature_oracle(self, scales, pz_dipole, E_r1):
        # Im of the doubly differentiated coincidence limit by the rotated
        # contour at two transverse separations, Richardson-extrapolated
        u = E_r1 / scales.energy_epsF
        vals = {}
        for Rt in (0.05, 0.1):
            res = _quad_eval(Rt, 0.0, 0.0, 0.0, u + 1e-12j, want_pz=True)
            vals[Rt] = res["g_z_zsrc"].imag
        rich = (4.0 * vals[0.05] - vals[0.1]) / 3.0   # O(R^2) eliminated
        oracle_rate = -4.0 * rich
        assert_allclose(golden_rule_current(E_r1, pz_dipole, scales), oracle_rate, rtol=1e-4)

    def test_array_energy_equals_scalar_calls(self, scales, s_wave, pz_dipole):
        es = np.concatenate([np.linspace(-3.0, 30.0, 67), [0.0, 0.37, 11.0 / 3.0]])
        es = es * scales.energy_epsF
        for src in (s_wave, pz_dipole):
            batch = golden_rule_current(es, src, scales)
            assert batch.shape == es.shape
            ref = [golden_rule_current(float(E), src, scales) for E in es]
            assert all(isinstance(j, float) for j in ref)
            assert batch.tolist() == ref
        with pytest.raises(ValueError, match="finite"):
            golden_rule_current(np.array([1e-23, math.nan]), s_wave, scales)

    def test_strength_scaling(self, scales, E_r1):
        j1 = golden_rule_current(E_r1, SourceModel(SourceKind.S_WAVE, 1.0), scales)
        j2 = golden_rule_current(E_r1, SourceModel(SourceKind.S_WAVE, 2.0), scales)
        assert_allclose(j2, 4.0 * j1, rtol=1e-14)


D_NEAR = 1e-4   # 2190 l_F at 400 V/m: below spectro._FAR_FIELD_MIN_D, so the scan starts


def _profile(scales, src, u, d=D):
    E = u * scales.energy_epsF
    return detector.radial_profile(E, src, scales, _plane(E, scales, d), 600)


def _fit_profiles(scales, src, d=D):
    """600-sample profiles at four energies, noiseless and with 1% noise."""
    for u in (3.0, 7.5, 12.0, 19.0):
        prof = _profile(scales, src, u, d)
        yield prof
        yield add_noise(prof, 1.0, np.random.default_rng(int(10 * u)))


def _assert_batching_invisible(scales, kind, d, monkeypatch):
    """Fits equal those from one model energy per flux and rate call."""
    src = SourceModel(kind, 1.0)
    profiles = list(_fit_profiles(scales, src, d))
    batched = [extract_energy(p, scales, d) for p in profiles]

    flux, rate = detector._flux_array, spectro.golden_rule_current

    def flux_per_energy(rho, z, E, src, scales):
        return np.array([flux(np.array(r), np.array(zz), float(e), src, scales)
                         for r, zz, e in zip(rho, z, np.ravel(E))])

    def rate_per_energy(E, src, scales):
        return np.array([rate(float(e), src, scales) for e in E])

    monkeypatch.setattr(detector, "_flux_array", flux_per_energy)
    monkeypatch.setattr(spectro, "golden_rule_current", rate_per_energy)
    reference = [extract_energy(p, scales, d) for p in profiles]
    assert batched == reference


class TestExtractEnergyBatching:
    @pytest.mark.parametrize("kind", [SourceKind.S_WAVE, SourceKind.PZ_DIPOLE])
    def test_equals_one_energy_per_call_reference(self, scales, kind, monkeypatch):
        _assert_batching_invisible(scales, kind, D, monkeypatch)

    @pytest.mark.parametrize("kind", [SourceKind.S_WAVE, SourceKind.PZ_DIPOLE])
    def test_scan_route_equals_one_energy_per_call_reference(self, scales, kind, monkeypatch):
        _assert_batching_invisible(scales, kind, D_NEAR, monkeypatch)

    @pytest.mark.parametrize("kind, cap", [(SourceKind.S_WAVE, None),
                                           (SourceKind.PZ_DIPOLE, None),
                                           (SourceKind.S_WAVE, 1500)])
    def test_each_energy_evaluated_once_within_the_point_cap(self, scales, kind, cap,
                                                             monkeypatch):
        assert spectro._BATCH_POINTS <= 4096    # bounds the benchmark's peak memory
        if cap is not None:
            monkeypatch.setattr(spectro, "_BATCH_POINTS", cap)
        src = SourceModel(kind, 1.0)
        flux = detector._flux_array
        calls = []

        def counting(rho, z, E, src, scales):
            calls.append((np.size(rho), np.ravel(E).tolist()))
            return flux(rho, z, E, src, scales)

        monkeypatch.setattr(detector, "_flux_array", counting)
        per_call = spectro._BATCH_POINTS // 600
        # the scan route, chosen by a plane nearer than _FAR_FIELD_MIN_D, and
        # the start route, taken by noiseless far-field profiles with >= 2
        # interior maxima
        near = list(_fit_profiles(scales, src, D_NEAR))
        far = [_profile(scales, src, u) for u in (7.5, 12.0, 19.0)]
        for prof, scan in [(p, True) for p in near] + [(p, False) for p in far]:
            calls.clear()
            extract_energy(prof, scales, prof.d)
            energies = [e for _, es in calls for e in es]
            assert len(energies) == len(set(energies))
            assert all(n <= spectro._BATCH_POINTS for n, _ in calls)
            assert sum(n for n, _ in calls) == 600 * len(energies)
            if scan:
                # the scan's nodes come first, evenly spaced in log E: 49 over 0.5-2
                # times the fringe-count guess, 2.9% apart, or with <= 2 maxima as
                # many as keep that spacing from 0.505 eps_F
                steps = np.diff(np.log(energies)) / (math.log(4.0) / 48.0)
                n_scan = 1 + int(np.argmax(np.abs(steps / steps[0] - 1.0) > 1e-6))
                assert steps[0] <= 1.0 + 1e-9
                if detector.count_fringes(prof).n_fringes > 2:
                    assert n_scan == 49 and steps[0] == pytest.approx(1.0, rel=1e-9)
                else:
                    assert steps[0] > 0.98 and n_scan > 49
                    assert energies[0] == pytest.approx(0.505 * scales.energy_epsF, rel=1e-12)
                # the scan takes ceil(n_scan / per_call) calls, the LM one each
                assert len(calls) == len(energies) - n_scan + math.ceil(n_scan / per_call)
            else:
                # one call for the start's amplitude, then one per LM energy
                assert len(calls) == len(energies) < 49


class TestExtractEnergy:
    def test_noiseless_self_consistency(self, scales, s_wave, E_r1):
        prof = detector.radial_profile(E_r1, s_wave, scales, _plane(E_r1, scales), 600)
        e_fit, resid = extract_energy(prof, scales, D)
        assert abs(e_fit - E_r1) / E_r1 <= 5e-4
        assert resid <= 1e-10

    def test_noisy_recovery_seed42(self, scales, s_wave, E_r1):
        prof = detector.radial_profile(E_r1, s_wave, scales, _plane(E_r1, scales), 600)
        noisy = add_noise(prof, 1.0, np.random.default_rng(42))
        e_fit, resid = extract_energy(noisy, scales, D)
        assert abs(e_fit - E_r1) / E_r1 <= 5e-3
        # achieved accuracy is far better; pin a regression bound
        assert abs(e_fit - E_r1) / E_r1 <= 1e-4
        assert 1e-4 < resid < 1e-2   # rms residual tracks the 1% noise level

    def test_noisy_profile_keeps_scales_and_guard(self, scales, s_wave):
        # 64 samples at 400 ueV undersample the fringes; the guard needs the
        # field scales, which the noisy copy must carry
        E = units.convert_energy(400.0, "ueV", "J")
        prof = detector.radial_profile(E, s_wave, scales, _plane(E, scales), 64)
        noisy = add_noise(prof, 1.0, np.random.default_rng(42))
        assert noisy.scales is scales
        with pytest.raises(NumericsError, match="undersampled"):
            detector.count_fringes(noisy)

    def test_only_numerics_errors_fall_back_to_the_scan(self, scales, s_wave, E_r1,
                                                        monkeypatch):
        prof = detector.radial_profile(E_r1, s_wave, scales, _plane(E_r1, scales), 600)

        def broken(profile, scales=None):
            raise TypeError("not a fringe-count failure")

        monkeypatch.setattr(detector, "count_fringes", broken)
        with pytest.raises(TypeError):
            extract_energy(prof, scales, D)

    def test_amplitude_scale_invariance(self, scales, s_wave, E_r1):
        prof = detector.radial_profile(E_r1, s_wave, scales, _plane(E_r1, scales), 400)
        e1, _ = extract_energy(prof, scales, D)
        scaled = detector.RadialProfile(prof.rho, prof.j * 3.0, prof.E, prof.d, prof.source)
        e3, _ = extract_energy(scaled, scales, D)
        # exactly invariant in exact arithmetic; float rounding only
        assert abs(e3 - e1) <= 1e-9 * e1

    def test_monotone_in_truth(self, scales, s_wave):
        fits = []
        for u in (4.0, 7.0, 11.0, 16.0):
            E = u * scales.energy_epsF
            prof = detector.radial_profile(E, s_wave, scales, _plane(E, scales), 500)
            fits.append(extract_energy(prof, scales, D)[0])
        assert all(a < b for a, b in zip(fits, fits[1:]))

    @pytest.mark.parametrize("kind, u", [(SourceKind.S_WAVE, 0.6), (SourceKind.S_WAVE, 0.94),
                                         (SourceKind.PZ_DIPOLE, 0.94),
                                         (SourceKind.PZ_DIPOLE, 1.29),
                                         (SourceKind.PZ_DIPOLE, 1.63)])
    def test_one_or_two_maxima_below_2_epsF(self, scales, kind, u):
        # the truth lies below half the fringe-count guess, out of reach of
        # a scan around that guess (which returned 2.4-5.6 times the truth)
        prof = _profile(scales, SourceModel(kind, 1.0), u)
        assert detector.count_fringes(prof).n_fringes <= 2
        E_fit, _ = extract_energy(prof, scales, D)
        assert abs(E_fit / prof.E - 1.0) <= 1e-8

    def test_two_noisy_rings_scan_keeps_its_node_spacing(self, scales, pz_dipole):
        # 1% noise hides the central maximum and spreads the two ring estimates
        # past _START_SPREAD, so the scan starts; at 6% node spacing it picks
        # a wide low-energy basin (0.38 E)
        prof = _profile(scales, pz_dipole, 3.7376161143350175)
        noisy = add_noise(prof, 1.0, np.random.default_rng(1012))
        assert detector.count_fringes(noisy).n_fringes == 2
        E_fit, _ = extract_energy(noisy, scales, D)
        assert abs(E_fit / prof.E - 1.0) <= 3e-3

    @pytest.mark.parametrize("kind", [SourceKind.S_WAVE, SourceKind.PZ_DIPOLE])
    def test_far_field_basin_60_to_400_ueV(self, scales, kind):
        # a 2.9%-spaced scan alone puts 7 of these pz fits in a neighbouring
        # basin, 3-8% off
        src = SourceModel(kind, 1.0)
        for k, ueV in enumerate(np.linspace(60.0, 400.0, 21)):
            prof = _profile(scales, src, units.convert_energy(ueV, "ueV", "J")
                            / scales.energy_epsF)
            E_fit, _ = extract_energy(prof, scales, D)
            assert abs(E_fit / prof.E - 1.0) <= 1e-8, ueV
            noisy = add_noise(prof, 1.0, np.random.default_rng(k))
            E_fit, _ = extract_energy(noisy, scales, D)
            assert abs(E_fit / prof.E - 1.0) <= 3e-3, ueV

    @pytest.mark.parametrize("kind", [SourceKind.S_WAVE, SourceKind.PZ_DIPOLE])
    def test_airy_zero_start_reads_the_energy_off_the_maxima(self, scales, kind):
        l = scales.length_lF
        for u in (4.0, 7.5, 12.0, 19.0):
            for d in (D, 1e-3):
                prof = _profile(scales, SourceModel(kind, 1.0), u, d)
                maxima = detector.count_fringes(prof).maxima_rho
                u0 = spectro._airy_zero_start(prof.rho, prof.j, maxima, kind, d, l)
                assert abs(u0 / u - 1.0) <= 1e-4, (u, d)
        # a spurious maximum between two fringes breaks the zero pattern
        prof = _profile(scales, SourceModel(kind, 1.0), 12.0)
        maxima = detector.count_fringes(prof).maxima_rho
        extra = tuple(sorted(maxima + (0.5 * (maxima[-2] + maxima[-3]),)))
        i = np.searchsorted(prof.rho, extra[-3])
        j = prof.j.copy()
        j[i] = 0.5 * (j[i - 1] + j[i + 1]) + 1e-3
        assert spectro._airy_zero_start(prof.rho, j, extra, kind, D, l) is None

    def test_flat_profile_rejected(self, scales, s_wave, E_r1):
        prof = detector.radial_profile(E_r1, s_wave, scales, _plane(E_r1, scales), 400)
        flat = detector.RadialProfile(prof.rho, np.full_like(prof.j, 0.7),
                                      prof.E, prof.d, prof.source)
        with pytest.raises(FitConvergenceError):
            extract_energy(flat, scales, D)
        zero = detector.RadialProfile(prof.rho, np.zeros_like(prof.j),
                                      prof.E, prof.d, prof.source)
        with pytest.raises(FitConvergenceError):
            extract_energy(zero, scales, D)


class TestSweepAndEinstein:
    def test_sweep_all_converge(self, scales, s_wave):
        E0 = 1.4612 * units.EV
        e_targets = np.linspace(2.0, 20.0, 10) * scales.energy_epsF
        hnus = E0 + e_targets
        pts = run_sweep(hnus, E0, s_wave, scales, _plane(float(e_targets[-1]), scales),
                        n_samples=500)
        assert len(pts) == 10
        assert all(p.fitted for p in pts)
        for p in pts:
            assert p.E_true == p.hnu - E0   # exact arithmetic
            assert abs(p.E_fit - p.E_true) / p.E_true <= 1e-6

    def test_each_point_has_its_own_noise_stream(self, scales, s_wave):
        E0 = 1.4612 * units.EV
        hnu = E0 + 7.0 * scales.energy_epsF
        plane = _plane(7.0 * scales.energy_epsF, scales)
        pts = run_sweep([hnu, hnu, hnu], E0, s_wave, scales, plane, n_samples=400,
                        noise_percent=1.0, seed=5)
        assert len({p.E_fit for p in pts}) == 3
        for i, (p, ss) in enumerate(zip(pts, np.random.SeedSequence(5).spawn(3))):
            assert spectro._sweep_point(hnu, E0, s_wave, scales, plane, 400, 1.0, 5, i) == p
            assert np.array_equal(spectro._point_seed(5, i).generate_state(4),
                                  ss.generate_state(4))
        # point i does not depend on how many points follow it
        assert run_sweep([hnu], E0, s_wave, scales, plane, n_samples=400,
                         noise_percent=1.0, seed=5) == pts[:1]

    def test_sweep_empty(self, scales, s_wave):
        assert run_sweep([], 1.0 * units.EV, s_wave, scales, _plane(1e-23, scales)) == []

    def test_sweep_subthreshold_points_recorded_not_fitted(self, scales, s_wave):
        E0 = 1.4612 * units.EV
        hnus = [E0 + 0.2 * scales.energy_epsF, E0 + 5.0 * scales.energy_epsF]
        pts = run_sweep(hnus, E0, s_wave, scales, _plane(5.0 * scales.energy_epsF, scales),
                        n_samples=400)
        assert not pts[0].fitted and math.isnan(pts[0].E_fit)
        assert pts[1].fitted

    def test_einstein_fit_exact_pairs(self, scales):
        # regression stage on exact synthetic data: machine-precision recovery
        E0 = 1.4612 * units.EV
        hnus = E0 + np.linspace(2.0, 20.0, 10) * scales.energy_epsF
        pts = [SweepPoint(float(h), float(h - E0), float(h - E0), 0.0) for h in hnus]
        fit = einstein_fit(pts)
        assert abs(fit.slope - 1.0) <= 1e-12
        assert abs(fit.E0_recovered - E0) <= 1e-12 * E0
        assert fit.rms_residual <= 1e-15 * E0   # pure float rounding of E0-scale values
        assert fit.n_points == 10

    def test_einstein_fit_full_noiseless_pipeline(self, scales, s_wave):
        E0 = 1.4612 * units.EV
        e_targets = np.linspace(2.0, 20.0, 10) * scales.energy_epsF
        pts = run_sweep(E0 + e_targets, E0, s_wave, scales,
                        _plane(float(e_targets[-1]), scales), n_samples=500)
        fit = einstein_fit(pts)
        # intercept extrapolation amplifies fit noise ~1e4x; pinned bound
        assert abs(fit.slope - 1.0) <= 1e-9
        assert abs(fit.E0_recovered - E0) / E0 <= 1e-9

    def test_einstein_fit_noisy_pipeline_seed42(self, scales, s_wave):
        E0 = 1.4612 * units.EV
        e_targets = np.linspace(2.0, 20.0, 10) * scales.energy_epsF
        pts = run_sweep(E0 + e_targets, E0, s_wave, scales,
                        _plane(float(e_targets[-1]), scales),
                        n_samples=500, noise_percent=1.0, seed=42)
        fit = einstein_fit(pts)
        assert abs(fit.slope - 1.0) <= 5e-3
        assert abs(fit.E0_recovered - E0) / E0 <= 2e-3

    def test_einstein_fit_degenerate_designs(self):
        pts = [SweepPoint(1.0, 0.5, 0.5, 0.0), SweepPoint(1.0, 0.5, 0.5, 0.0)]
        with pytest.raises(ValueError, match="singular"):
            einstein_fit(pts)
        with pytest.raises(ValueError, match=">= 2"):
            einstein_fit([SweepPoint(1.0, 0.5, 0.5, 0.0)])
        with pytest.raises(ValueError, match=">= 2"):
            einstein_fit([SweepPoint(1.0, 0.5, math.nan, math.nan)] * 3)
