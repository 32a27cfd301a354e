import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmicro import green, units
from pdmicro import classical
from pdmicro.classical import (
    Trajectory,
    action_along,
    action_quadrature,
    central_phase_difference,
    find_trajectories,
    fringe_count_estimate,
    resimulate_endpoint,
    rho_max,
    semiclassical_profile,
    semiclassical_wave,
)
from pdmicro.green import SpacePoint

D = 0.5


class TestRhoMax:
    def test_r1_values(self, scales, E_r1):
        zeta = E_r1 / scales.force_F
        assert_allclose(zeta, 5.000e-7, rtol=1e-6)
        assert_allclose(rho_max(E_r1, scales, D), 2.0 * math.sqrt(D * zeta + zeta**2), rtol=1e-14)
        assert_allclose(rho_max(E_r1, scales, D), 1.0000e-3, rtol=1e-4)

    def test_monte_carlo_envelope(self, scales, E_r1):
        # no random launch angle lands beyond the closed form, and the
        # supremum is approached
        m = scales.constants.m_e
        v0 = math.sqrt(2.0 * E_r1 / m)
        g = scales.force_F / m
        rng = np.random.default_rng(123)
        thetas = rng.uniform(0.0, math.pi, 20000)
        t = (v0 * np.cos(thetas) + np.sqrt((v0 * np.cos(thetas)) ** 2 + 2 * g * D)) / g
        rho_land = v0 * np.sin(thetas) * t
        rmax = rho_max(E_r1, scales, D)
        assert rho_land.max() <= rmax * (1.0 + 1e-12)
        assert rho_land.max() >= rmax * (1.0 - 1e-4)

    def test_leading_order_limit(self, scales, E_r1):
        zeta = E_r1 / scales.force_F
        assert_allclose(rho_max(E_r1, scales, D), 2.0 * math.sqrt(D * zeta), rtol=2e-6)

    def test_zero_energy_edge(self, scales):
        small = rho_max(1e-12 * scales.energy_epsF, scales, D)
        assert small < 1e-9
        with pytest.raises(ValueError):
            rho_max(0.0, scales, D)
        with pytest.raises(ValueError):
            rho_max(-1e-24, scales, D)


class TestShooting:
    def test_axis_target(self, scales, E_r1):
        ts = find_trajectories(SpacePoint(0.0, -D), E_r1, scales)
        assert len(ts.members) == 2 and not ts.caustic_flag
        down, up = ts.members
        assert down.launch_angle == math.pi and up.launch_angle == 0.0
        m = scales.constants.m_e
        v0 = math.sqrt(2.0 * E_r1 / m)
        g = scales.force_F / m
        t_dn = (-v0 + math.sqrt(v0**2 + 2 * g * D)) / g
        assert_allclose(down.t_flight, t_dn, rtol=1e-14)
        assert down.t_flight < up.t_flight
        assert (down.maslov, up.maslov) == (0, 1)

    def test_caustic_target(self, scales, E_r1):
        rmax = rho_max(E_r1, scales, D)
        ts = find_trajectories(SpacePoint(rmax, -D), E_r1, scales)
        assert len(ts.members) == 1 and ts.caustic_flag

    def test_outside_target(self, scales, E_r1):
        rmax = rho_max(E_r1, scales, D)
        ts = find_trajectories(SpacePoint(1.5 * rmax, -D), E_r1, scales)
        assert len(ts.members) == 0 and not ts.caustic_flag

    @pytest.mark.parametrize("frac", [0.15, 0.45, 0.75, 0.93])
    def test_resimulation_residual(self, scales, E_r1, frac):
        rmax = rho_max(E_r1, scales, D)
        target = SpacePoint(frac * rmax, -D)
        ts = find_trajectories(target, E_r1, scales)
        assert len(ts.members) == 2
        assert ts.members[0].t_flight < ts.members[1].t_flight
        for tr in ts.members:
            rho_end, z_end = resimulate_endpoint(tr, E_r1, scales, D)
            assert abs(rho_end - target.rho) <= 1e-9 * D
            assert abs(z_end + D) <= 1e-9 * D

    def test_envelope_flight_time_merge(self, scales, E_r1):
        # Delta t ~ sqrt(rho_max - rho) approaching the caustic
        rmax = rho_max(E_r1, scales, D)
        eps_fracs = np.array([3e-3, 1e-3, 3e-4, 1e-4])
        dts = []
        for f in eps_fracs:
            ts = find_trajectories(SpacePoint((1.0 - f) * rmax, -D), E_r1, scales)
            dts.append(ts.members[1].t_flight - ts.members[0].t_flight)
        slope = np.polyfit(np.log(eps_fracs), np.log(dts), 1)[0]
        assert abs(slope - 0.5) <= 0.05


class TestAction:
    def test_quadrature_cross_check(self, scales, E_r1):
        rmax = rho_max(E_r1, scales, D)
        target = SpacePoint(0.6 * rmax, -D)
        ts = find_trajectories(target, E_r1, scales)
        for tr in ts.members:
            w_closed = action_along(tr, target, E_r1, scales)
            w_quad = action_quadrature(tr, target, E_r1, scales)
            assert abs(w_quad - w_closed) <= 1e-8 * w_closed

    def test_direct_path_action_vanishes_with_distance(self, scales, E_r1):
        w = []
        for d in (1e-3, 1e-6, 1e-9):
            ts = find_trajectories(SpacePoint(0.0, -d), E_r1, scales)
            w.append(action_along(ts.members[0], SpacePoint(0.0, -d), E_r1, scales))
        assert w[0] > w[1] > w[2] > 0.0
        assert w[2] < 1e-4 * w[0]

    def test_mismatched_trajectory_rejected(self, scales, E_r1):
        ts = find_trajectories(SpacePoint(0.0, -D), E_r1, scales)
        with pytest.raises(ValueError):
            action_along(ts.members[0], SpacePoint(2e-4, -D), E_r1, scales)


class TestPhaseDifference:
    def test_r1_value(self, scales, E_r1):
        dphi = central_phase_difference(E_r1, scales)
        assert_allclose(dphi, 48.30168376246, rtol=1e-9)   # frozen regression value
        assert_allclose(dphi, 48.31, rtol=1e-3)
        assert_allclose(fringe_count_estimate(E_r1, scales), 7.687, rtol=1e-3)

    def test_quadrature_oracle(self, scales, E_r1):
        # 2/hbar * Int_0^{E/F} sqrt(2m(E - Fz)) dz on a fine Simpson grid
        c = scales.constants
        F = scales.force_F
        zta = E_r1 / F
        z = np.linspace(0.0, zta, 20001)
        p = np.sqrt(np.clip(2.0 * c.m_e * (E_r1 - F * z), 0.0, None))
        h = z[1] - z[0]
        w = np.ones(len(z)); w[1:-1:2] = 4.0; w[2:-1:2] = 2.0
        integral = np.sum(w * p) * h / 3.0
        oracle = 2.0 * integral / c.hbar
        assert_allclose(central_phase_difference(E_r1, scales), oracle, rtol=1e-7)

    def test_action_difference_identity(self, scales, E_r1):
        # at a microscopic distance the subtraction W_up - W_down retains
        # full precision; Delta Phi is distance-independent
        d = 1e-6
        ts = find_trajectories(SpacePoint(0.0, -d), E_r1, scales)
        dw = ts.members[1].action_S - ts.members[0].action_S
        dphi = central_phase_difference(E_r1, scales)
        assert abs(dw / scales.constants.hbar - dphi) <= 1e-10 * dphi

    def test_action_difference_macroscopic_rounding(self, scales, E_r1):
        # at d = 0.5 m the individual actions are ~5e8 times the difference,
        # so the subtraction keeps only ~8 digits; document that bound
        ts = find_trajectories(SpacePoint(0.0, -D), E_r1, scales)
        dw = ts.members[1].action_S - ts.members[0].action_S
        dphi = central_phase_difference(E_r1, scales)
        assert abs(dw / scales.constants.hbar - dphi) <= 1e-6 * dphi

    def test_scaling(self, scales, E_r1):
        assert_allclose(central_phase_difference(4.0 * E_r1, scales),
                        8.0 * central_phase_difference(E_r1, scales), rtol=1e-12)
        assert central_phase_difference(1e-8 * scales.energy_epsF, scales) < 1e-10


class TestSemiclassics:
    def test_matches_exact_at_anchor_point(self, scales):
        # criterion: <= 5% at rho = 0.4 rho_max for u >= 10
        for u in (10.0, 20.0, 40.0):
            E = u * scales.energy_epsF
            rm = rho_max(E, scales, D)
            p = SpacePoint(0.4 * rm, -D)
            gsc = semiclassical_wave(p, E, scales)
            gex = green.green_energy(p, SpacePoint(0.0, 0.0), E, scales)
            rel = abs(abs(gsc) ** 2 - abs(gex.value) ** 2) / abs(gex.value) ** 2
            assert rel <= 0.05

    def test_error_decreases_with_u(self, scales):
        # intensity-weighted rms over a window spanning the local fringes;
        # the pointwise error oscillates through zero and is not a usable
        # convergence measure
        def err_of(u):
            E = u * scales.energy_epsF
            rm = rho_max(E, scales, D)
            rhos = np.linspace(0.3 * rm, 0.5 * rm, 64)
            dif, ref = [], []
            for rho in rhos:
                p = SpacePoint(float(rho), -D)
                gsc = semiclassical_wave(p, E, scales)
                gex = green.green_energy(p, SpacePoint(0.0, 0.0), E, scales)
                dif.append(abs(gsc) ** 2 - abs(gex.value) ** 2)
                ref.append(abs(gex.value) ** 2)
            return math.sqrt(np.mean(np.array(dif) ** 2)) / np.mean(ref)

        errs = [err_of(u) for u in (5.0, 10.0, 20.0, 40.0)]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_complex_phase_validates_maslov(self, scales):
        # with the wrong Maslov assignment the complex ratio would sit a
        # quarter turn away from 1
        E = 10.0 * scales.energy_epsF
        rm = rho_max(E, scales, D)
        p = SpacePoint(0.5 * rm, -D)
        ratio = semiclassical_wave(p, E, scales) / green.green_energy(
            p, SpacePoint(0.0, 0.0), E, scales).value
        assert abs(ratio - 1.0) <= 0.05

    def test_fringe_positions_align(self, scales, E_r1):
        # maxima of |G_sc|^2 within 2% of the local fringe spacing, rho <= 0.8 rho_max
        rm = rho_max(E_r1, scales, D)
        rhos = np.linspace(0.05 * rm, 0.8 * rm, 900)
        j_sc, j_ex = [], []
        for rho in rhos:
            p = SpacePoint(float(rho), -D)
            j_sc.append(abs(semiclassical_wave(p, E_r1, scales)) ** 2)
            j_ex.append(abs(green.green_energy(p, SpacePoint(0.0, 0.0), E_r1, scales).value) ** 2)
        j_sc, j_ex = np.array(j_sc), np.array(j_ex)

        def maxima(j):
            idx = np.nonzero((j[1:-1] > j[:-2]) & (j[1:-1] > j[2:]))[0] + 1
            return rhos[idx]

        m_sc, m_ex = maxima(j_sc), maxima(j_ex)
        assert len(m_sc) == len(m_ex)
        spacing = np.diff(m_ex).mean()
        assert np.max(np.abs(m_sc - m_ex)) <= 0.02 * spacing

    @pytest.mark.parametrize("u", (10.0, 40.0))
    @pytest.mark.parametrize("frac", (0.2, 0.4, 0.6))
    def test_absolute_phase_against_quadrature_actions(self, scales, u, frac):
        # at microscopic d the two-path sum rebuilt from quadrature actions
        # pins the absolute phase, not only the phase difference
        E = u * scales.energy_epsF
        d = 1e-5
        p = SpacePoint(frac * rho_max(E, scales, d), -d)
        hbar = scales.constants.hbar
        g_quad = -sum(
            tr.vanvleck_amp * np.exp(1j * (action_quadrature(tr, p, E, scales) / hbar
                                           - 0.5 * math.pi * tr.maslov))
            for tr in find_trajectories(p, E, scales).members
        )
        assert abs(np.angle(semiclassical_wave(p, E, scales) / g_quad)) <= 1e-6

    @pytest.mark.parametrize("u", (10.0, 40.0))
    @pytest.mark.parametrize("frac", (0.2, 0.4, 0.6))
    def test_absolute_phase_against_exact_wave(self, scales, u, frac):
        E = u * scales.energy_epsF
        p = SpacePoint(frac * rho_max(E, scales, D), -D)
        g_exact = green.green_energy(p, SpacePoint(0.0, 0.0), E, scales).value
        assert abs(np.angle(semiclassical_wave(p, E, scales) / g_exact)) <= 1e-4

    def test_refuses_caustic_band_and_outside(self, scales, E_r1):
        rm = rho_max(E_r1, scales, D)
        with pytest.raises(ValueError):
            semiclassical_wave(SpacePoint(0.99 * rm, -D), E_r1, scales)
        with pytest.raises(ValueError):
            semiclassical_wave(SpacePoint(1.5 * rm, -D), E_r1, scales)

    def test_amplitude_against_stationary_phase_formula(self, scales, E_r1):
        # independent amplitude route: |A| = sqrt(m) / (4 pi T^{3/2} |S''|^{1/2})
        # from the stationary-phase reduction of the time integral
        rm = rho_max(E_r1, scales, D)
        target = SpacePoint(0.5 * rm, -D)
        ts = find_trajectories(target, E_r1, scales)
        m = scales.constants.m_e
        F = scales.force_F
        for tr in ts.members:
            T = tr.t_flight
            R2 = target.rho**2 + D**2
            s2 = m * R2 / T**3 - F**2 * T / (4.0 * m)
            amp_sp = math.sqrt(m) / (4.0 * math.pi * T**1.5 * math.sqrt(abs(s2)))
            assert_allclose(tr.vanvleck_amp, amp_sp, rtol=1e-5)


ORACLE_DS = (1e-5, 1e-3, 0.5)
ORACLE_UEV = (50.0, 200.0, 400.0)
FIELDS = ("t_flight", "launch_angle", "action_S", "vanvleck_amp", "maslov")


def _core(scales, d, ueV, n=50, top=0.999):
    E = units.convert_energy(ueV, "ueV", "J")
    rho = np.linspace(0.0, top, n) * rho_max(E, scales, d)
    return E, rho, classical._two_paths(rho, d, E, scales)


def _trajectory(paths, k, i):
    return Trajectory(*(getattr(paths, f)[k, i].item() for f in FIELDS))


class TestVectorizedCore:
    """The closed-form array core against the independent oracles."""

    @pytest.mark.parametrize("d", ORACLE_DS)
    @pytest.mark.parametrize("ueV", ORACLE_UEV)
    def test_oracles(self, scales, d, ueV):
        E, rho, p = _core(scales, d, ueV)
        assert np.all(p.n_paths == 2)
        m, F = scales.constants.m_e, scales.force_F
        for i, r in enumerate(rho):
            target = SpacePoint(float(r), -d)
            for k in range(2):
                tr = _trajectory(p, k, i)
                # RK4 is exact for constant acceleration, so few steps suffice
                rho_end, z_end = resimulate_endpoint(tr, E, scales, d, n_steps=64)
                assert abs(rho_end - r) <= 1e-9 * d and abs(z_end + d) <= 1e-9 * d
                w_quad = action_quadrature(tr, target, E, scales)
                assert abs(w_quad - tr.action_S) <= 1e-8 * tr.action_S
                T = tr.t_flight
                s2 = m * (r * r + d * d) / T**3 - F**2 * T / (4.0 * m)
                amp_sp = math.sqrt(m) / (4.0 * math.pi * T**1.5 * math.sqrt(abs(s2)))
                assert abs(tr.vanvleck_amp - amp_sp) <= 1e-8 * amp_sp

    @pytest.mark.parametrize("d", ORACLE_DS)
    def test_batch_equals_scalar_calls(self, scales, d):
        for ueV in ORACLE_UEV:
            E, rho, p = _core(scales, d, ueV)
            for i, r in enumerate(rho):
                ts = find_trajectories(SpacePoint(float(r), -d), E, scales)
                assert ts.members == tuple(_trajectory(p, k, i) for k in range(2))

    def test_axis_entry_equals_scalar_axis_result(self, scales, E_r1):
        rm = rho_max(E_r1, scales, D)
        p = classical._two_paths(np.array([0.3 * rm, 0.0, 0.6 * rm]), D, E_r1, scales)
        axis = find_trajectories(SpacePoint(0.0, -D), E_r1, scales)
        assert axis.members == (_trajectory(p, 0, 1), _trajectory(p, 1, 1))
        assert (axis.members[0].launch_angle, axis.members[1].launch_angle) == (math.pi, 0.0)

    def test_caustic_and_outside_entries(self, scales, E_r1):
        rm = rho_max(E_r1, scales, D)
        fracs = np.array([1.0 - 2e-9, 1.0 - 1e-9, 1.0 - 1e-10, 1.0, 1.0 + 1e-13, 1.0 + 1e-9, 1.5])
        with np.errstate(all="raise"):
            p = classical._two_paths(fracs * rm, D, E_r1, scales)
        assert p.n_paths.tolist() == [2, 1, 1, 1, 1, 0, 0]
        # no NaN from a negative discriminant, and the degenerate root has dphi = 0
        for f in p[1:]:
            assert not np.any(np.isnan(f))
        assert np.all(p.dphi[1:] == 0.0) and p.dphi[0] > 0.0
        for f, n in zip(fracs, p.n_paths):
            ts = find_trajectories(SpacePoint(float(f * rm), -D), E_r1, scales)
            assert len(ts.members) == n and ts.caustic_flag == (n == 1)

    def test_profile_refuses_caustic_band_naming_the_radius(self, scales, E_r1):
        rm = rho_max(E_r1, scales, D)
        rho = np.array([0.1, 0.5, 0.985, 0.99, 1.5]) * rm
        with pytest.raises(ValueError, match=f"radius {rho[2]:.4e} m"):
            semiclassical_profile(rho, D, E_r1, scales)
        with pytest.raises(ValueError, match=f"radius {rho[4]:.4e} m"):
            semiclassical_profile(rho[[0, 4]], D, E_r1, scales)
        with pytest.raises(ValueError):
            semiclassical_profile(np.array([0.1 * rm, np.nan]), D, E_r1, scales)
        with pytest.raises(ValueError):
            semiclassical_profile(np.array([-1e-6]), D, E_r1, scales)

    def test_profile_equals_scalar_waves(self, scales, E_r1):
        rm = rho_max(E_r1, scales, D)
        rho = np.linspace(0.0, 0.97, 101) * rm
        g = semiclassical_profile(rho, D, E_r1, scales)
        assert g.dtype == complex and g.shape == rho.shape
        assert g.tolist() == [semiclassical_wave(SpacePoint(float(r), -D), E_r1, scales)
                              for r in rho]

    @pytest.mark.parametrize("E_scale", [0.0, -1.0])
    def test_nonpositive_energy_rejected(self, scales, E_r1, E_scale):
        E = E_scale * E_r1
        with pytest.raises(ValueError):
            find_trajectories(SpacePoint(1e-4, -D), E, scales)
        with pytest.raises(ValueError):
            semiclassical_wave(SpacePoint(1e-4, -D), E, scales)
        with pytest.raises(ValueError):
            semiclassical_profile(np.array([1e-4]), D, E, scales)

    @pytest.mark.parametrize("z", [0.0, 1e-3])
    def test_target_not_below_source_rejected(self, scales, E_r1, z):
        with pytest.raises(ValueError):
            find_trajectories(SpacePoint(1e-4, z), E_r1, scales)
        with pytest.raises(ValueError):
            semiclassical_wave(SpacePoint(1e-4, z), E_r1, scales)
        with pytest.raises(ValueError):
            semiclassical_profile(np.array([1e-4]), -z, E_r1, scales)

    def test_phase_difference_on_axis_is_central_value(self, scales, E_r1):
        p = classical._two_paths(np.array([0.0]), D, E_r1, scales)
        dphi = central_phase_difference(E_r1, scales)
        assert abs(p.dphi[0] - dphi) <= 1e-12 * dphi

    @pytest.mark.parametrize("d", (1e-5, 1e-3))
    def test_phase_difference_matches_action_subtraction(self, scales, d):
        # at microscopic d the two actions subtract with full precision
        for ueV in ORACLE_UEV:
            _, _, p = _core(scales, d, ueV)
            dw = (p.action_S[1] - p.action_S[0]) / scales.constants.hbar
            assert np.max(np.abs(dw - p.dphi)) <= 1e-8 * np.max(p.dphi)
