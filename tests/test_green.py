import cmath
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmicro import units
from pdmicro.exceptions import QuadratureError
from pdmicro.green import (
    SourceKind,
    SourceModel,
    SpacePoint,
    free_green_value,
    green_energy,
    green_energy_quad,
    kernel,
    ldos_at_source,
    ldos_bracket_s,
    source_wave,
)


def _random_micro_points(scales, n, seed=7):
    """Point pairs within tens of l_F of the source (oracle validity domain)."""
    rng = np.random.default_rng(seed)
    l = scales.length_lF
    pairs = []
    for _ in range(n):
        r = SpacePoint(rng.uniform(0.2, 12.0) * l, rng.uniform(-25.0, 8.0) * l)
        rs = SpacePoint(rng.uniform(0.0, 3.0) * l, rng.uniform(-3.0, 3.0) * l)
        pairs.append((r, rs))
    return pairs


class TestKernel:
    def test_zero_field_limit(self, scales):
        # with a vanishing field the kernel reduces to the free propagator
        tiny = units.make_scales(1e-8)
        c = tiny.constants
        t = 1e-12
        r, rs = SpacePoint(2e-9, -3e-9), SpacePoint(0.0, 0.0)
        K = kernel(r, rs, t, tiny)
        R2 = r.rho**2 + r.z**2
        amp = (c.m_e / (2.0 * math.pi * c.hbar * t)) ** 1.5 * cmath.exp(-0.75j * math.pi)
        K_free = amp * cmath.exp(1j * c.m_e * R2 / (2.0 * c.hbar * t))
        assert abs(K - K_free) / abs(K_free) < 1e-8

    def test_symmetry_in_z_sum_and_distance(self, scales):
        t = 1e-10
        a = kernel(SpacePoint(1e-8, -4e-8), SpacePoint(0.0, 1e-8), t, scales)
        # swap endpoints: |r - r'| and z + z' unchanged
        b = kernel(SpacePoint(0.0, 1e-8), SpacePoint(1e-8, -4e-8), t, scales)
        assert a == b

    def test_stationary_phase_time_is_classical(self, scales, E_r1):
        from pdmicro import classical
        d = 0.5
        tset = classical.find_trajectories(SpacePoint(0.0, -d), E_r1, scales)
        t_cl = tset.members[0].t_flight
        c = scales.constants
        F = scales.force_F

        def dphase(t):
            # d/dt [E t + S_cl(r, r'; t)] for the straight-down geometry
            # (R = d, z + z' = -d)
            return (E_r1 - c.m_e * d * d / (2.0 * t * t)
                    + F * d / 2.0 - F**2 * t**2 / (8.0 * c.m_e))

        lo, hi = 0.5 * t_cl, 1.5 * t_cl
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dphase(lo) * dphase(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        t_stat = 0.5 * (lo + hi)
        assert abs(t_stat - t_cl) / t_cl < 1e-6

    def test_requires_positive_time(self, scales):
        with pytest.raises(ValueError):
            kernel(SpacePoint(0.0, -1e-8), SpacePoint(0.0, 0.0), 0.0, scales)


class TestOracleAndClosedForm:
    def test_calibration_20_points(self, scales, E_r1):
        # criterion: closed form within 1e-6 of the oracle, constant pinned at 1
        ratios = []
        for r, rs in _random_micro_points(scales, 20):
            gq = green_energy_quad(r, rs, E_r1, scales)
            gc = green_energy(r, rs, E_r1, scales)
            assert abs(gq.value - gc.value) / abs(gq.value) <= 1e-6
            ratios.append(gq.value / gc.value)
        const = np.mean(ratios)
        assert abs(const - 1.0) <= 1e-8

    def test_closed_form_below_threshold(self, scales):
        E = -2.0 * scales.energy_epsF
        for r, rs in _random_micro_points(scales, 4, seed=11):
            gq = green_energy_quad(r, rs, E, scales)
            gc = green_energy(r, rs, E, scales)
            assert abs(gq.value - gc.value) / abs(gq.value) <= 1e-6

    def test_reciprocity(self, scales, E_r1):
        l = scales.length_lF
        r, rs = SpacePoint(4.0 * l, -9.0 * l), SpacePoint(1.0 * l, 2.0 * l)
        a = green_energy(r, rs, E_r1, scales)
        b = green_energy(rs, r, E_r1, scales)
        assert a.value == b.value
        qa = green_energy_quad(r, rs, E_r1, scales)
        qb = green_energy_quad(rs, r, E_r1, scales)
        assert abs(qa.value - qb.value) <= 1e-8 * abs(qa.value)

    def test_quad_gradients_match_closed(self, scales, E_r1):
        l = scales.length_lF
        r, rs = SpacePoint(3.2 * l, -7.5 * l), SpacePoint(0.4 * l, 0.9 * l)
        gq = green_energy_quad(r, rs, E_r1, scales)
        gc = green_energy(r, rs, E_r1, scales)
        assert abs(gq.grad_z - gc.grad_z) / abs(gc.grad_z) < 1e-8
        assert abs(gq.grad_rho - gc.grad_rho) / abs(gc.grad_rho) < 1e-8

    def test_free_field_limit_quad(self, scales):
        # tiny field (u = 400): |G| approaches the free-space Green function
        E = units.convert_energy(200.0, "ueV", "J")
        u_now = E / scales.energy_epsF
        tiny = units.make_scales(400.0 * (u_now / 400.0) ** 1.5)
        k = math.sqrt(2.0 * tiny.constants.m_e * E) / tiny.constants.hbar
        R = 3.0 / k
        r = SpacePoint(0.6 * R, -0.8 * R)
        gq = green_energy_quad(r, SpacePoint(0.0, 0.0), E, tiny)
        assert abs(abs(gq.value) - abs(free_green_value(R, E, tiny))) \
            / abs(free_green_value(R, E, tiny)) < 1e-4

    def test_free_field_limit_closed_u1e4(self, scales):
        # criterion 3 at u = 10^4
        E = units.convert_energy(200.0, "ueV", "J")
        u_now = E / scales.energy_epsF
        field = 400.0 * (u_now / 1e4) ** 1.5
        sc = units.make_scales(field)
        assert_allclose(E / sc.energy_epsF, 1e4, rtol=1e-12)
        k = math.sqrt(2.0 * sc.constants.m_e * E) / sc.constants.hbar
        for kR in (1.0, 5.0, 20.0):
            R = kR / k
            r = SpacePoint(0.6 * R, -0.8 * R)
            g = green_energy(r, SpacePoint(0.0, 0.0), E, sc)
            assert abs(abs(g.value) - abs(free_green_value(R, E, sc))) \
                / abs(free_green_value(R, E, sc)) <= 1e-3

    def test_quad_domain_guard(self, scales, E_r1):
        with pytest.raises(QuadratureError):
            green_energy_quad(SpacePoint(0.0, -0.5), SpacePoint(0.0, 0.0), E_r1, scales)

    def test_coincidence_rejected(self, scales, E_r1):
        with pytest.raises(ValueError, match="ldos_at_source"):
            green_energy(SpacePoint(1e-9, 0.0), SpacePoint(1e-9, 0.0), E_r1, scales)


class TestGradientsAndPDE:
    def test_gradients_vs_finite_differences(self, scales, E_r1):
        l = scales.length_lF
        h = 1e-4 * l
        for r, rs in _random_micro_points(scales, 5, seed=3):
            g0 = green_energy(r, rs, E_r1, scales)
            gz = (green_energy(SpacePoint(r.rho, r.z + h), rs, E_r1, scales).value
                  - green_energy(SpacePoint(r.rho, r.z - h), rs, E_r1, scales).value) / (2 * h)
            gr = (green_energy(SpacePoint(r.rho + h, r.z), rs, E_r1, scales).value
                  - green_energy(SpacePoint(r.rho - h, r.z), rs, E_r1, scales).value) / (2 * h)
            assert abs(g0.grad_z - gz) / abs(gz) <= 1e-6
            assert abs(g0.grad_rho - gr) / abs(gr) <= 1e-6

    def test_schrodinger_residual(self, scales, E_r1):
        # [lap + (u - z)] ghat = 0 away from the source, in natural units
        from pdmicro.green import _closed_eval
        u = E_r1 / scales.energy_epsF
        rng = np.random.default_rng(5)
        h = 1e-3
        for _ in range(10):
            rho = rng.uniform(1.0, 8.0)
            z = rng.uniform(-12.0, -2.0)

            def g(p, q):
                return complex(_closed_eval(np.float64(p), np.float64(q), 0.0, 0.0, u,
                                            want=("g",))["g"].reshape(-1)[0])

            lap = ((g(rho + h, z) - 2 * g(rho, z) + g(rho - h, z)) / h**2
                   + (g(rho + h, z) - g(rho - h, z)) / (2 * h * rho)
                   + (g(rho, z + h) - 2 * g(rho, z) + g(rho, z - h)) / h**2)
            residual = lap + (u - z) * g(rho, z)
            assert abs(residual) <= 1e-4 * abs(lap)


class TestClosedEvalSubsets:
    KEYS = ("g", "g_z", "g_rho", "g_zsrc", "g_z_zsrc", "g_rho_zsrc")

    @pytest.mark.parametrize("where", ["far", "near"])
    def test_every_subset_is_bitwise_the_full_evaluation(self, scales, E_r1, where):
        # asking for fewer outputs must not move a bit of the ones returned
        from pdmicro.green import _closed_eval
        u = E_r1 / scales.energy_epsF
        if where == "far":
            d = 0.5 / scales.length_lF
            rho = np.linspace(0.0, 1.2 * 2.0 * math.sqrt(u * (u + d)), 301)
            z = np.full_like(rho, -d)
        else:
            # am = -u + (z + z_src)/2 - R/2 > -12 at every point, so the
            # alpha- side takes the Ai/Bi table, not the Ci phase form
            u = 3.0
            rng = np.random.default_rng(11)
            rho = rng.uniform(0.05, 4.0, 301)
            z = rng.uniform(-4.0, 3.0, 301)
            R = np.hypot(rho - 0.2, z - 0.5)
            assert np.all(-u + 0.5 * (z + 0.5) - 0.5 * R > -12.0)
        src = (0.0, 0.0) if where == "far" else (0.2, 0.5)
        full = _closed_eval(rho, z, *src, u, want=self.KEYS)
        assert set(full) == set(self.KEYS)
        for n in range(1, len(self.KEYS) + 1):
            for want in itertools.combinations(self.KEYS, n):
                got = _closed_eval(rho, z, *src, u, want=want)
                assert set(got) == set(want)
                for key in want:
                    assert np.array_equal(got[key], full[key]), (want, key)

    def test_unknown_output_rejected(self, scales, E_r1):
        from pdmicro.green import _closed_eval
        with pytest.raises(ValueError, match="g_zz"):
            _closed_eval(np.float64(1.0), np.float64(-2.0), 0.0, 0.0, 1.0, want=("g", "g_zz"))


class TestLdos:
    def test_free_limit(self, scales):
        E = 100.0 * scales.energy_epsF
        k = math.sqrt(2.0 * scales.constants.m_e * E) / scales.constants.hbar
        assert abs(ldos_at_source(E, scales) - (-k / (4.0 * math.pi))) \
            <= 1e-3 * k / (4.0 * math.pi)

    def test_threshold_value(self, scales):
        # bracket at xi = 0 is Ai'(0)^2
        aip0 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
        assert_allclose(float(ldos_bracket_s(0.0)), aip0**2, rtol=1e-12)
        assert_allclose(float(ldos_bracket_s(0.0)), 0.066987, rtol=1e-4)

    def test_negative_energy_tail(self, scales):
        # nonzero, negative ldos with the tunneling decay
        E = -3.0 * scales.energy_epsF
        v = ldos_at_source(E, scales)
        assert v < 0.0
        ratio = ldos_at_source(-4.0 * scales.energy_epsF, scales) / v
        expected = math.exp(-(4.0 / 3.0) * (4.0**1.5 - 3.0**1.5))
        assert_allclose(ratio, expected, rtol=0.25)

    def test_matches_small_separation_green(self, scales, E_r1):
        l = scales.length_lF
        g = green_energy(SpacePoint(1e-3 * l, 0.0), SpacePoint(0.0, 0.0), E_r1, scales)
        assert_allclose(g.value.imag, ldos_at_source(E_r1, scales), rtol=1e-4)

    def test_smooth_through_threshold(self, scales):
        es = np.linspace(-2.0, 2.0, 101) * scales.energy_epsF
        vals = np.array([ldos_at_source(float(e), scales) for e in es])
        assert np.all(np.isfinite(vals))
        assert np.all(vals < 0.0)
        assert np.all(np.diff(vals) < 0.0)   # more states as E grows -> more negative


class TestSourceWave:
    def test_s_wave_reproduces_green(self, scales, E_r1):
        l = scales.length_lF
        r = SpacePoint(2.0 * l, -6.0 * l)
        w = source_wave(r, E_r1, SourceModel(SourceKind.S_WAVE, 1.0), scales)
        g = green_energy(r, SpacePoint(0.0, 0.0), E_r1, scales)
        assert w.value == g.value and w.grad_z == g.grad_z

    def test_strength_scaling(self, scales, E_r1):
        l = scales.length_lF
        r = SpacePoint(2.0 * l, -6.0 * l)
        w1 = source_wave(r, E_r1, SourceModel(SourceKind.S_WAVE, 1.0), scales)
        w2 = source_wave(r, E_r1, SourceModel(SourceKind.S_WAVE, 0.5), scales)
        assert_allclose(w2.value, 0.5 * w1.value, rtol=1e-14)

    def test_pz_matches_finite_difference_oracle(self, scales, E_r1):
        # axial point: dipole wave against FD of the quadrature oracle
        l = scales.length_lF
        r = SpacePoint(0.0, -9.0 * l)
        w = source_wave(r, E_r1, SourceModel(SourceKind.PZ_DIPOLE, 1.0), scales)
        h = 1e-4 * l
        qp = green_energy_quad(r, SpacePoint(0.0, h), E_r1, scales).value
        qm = green_energy_quad(r, SpacePoint(0.0, -h), E_r1, scales).value
        fd = (qp - qm) / (2.0 * h) * l
        assert abs(w.value - fd) / abs(fd) <= 1e-4

    def test_pz_gradient_consistency(self, scales, E_r1):
        l = scales.length_lF
        r = SpacePoint(3.0 * l, -8.0 * l)
        src = SourceModel(SourceKind.PZ_DIPOLE, 1.0)
        w0 = source_wave(r, E_r1, src, scales)
        h = 1e-4 * l
        fz = (source_wave(SpacePoint(r.rho, r.z + h), E_r1, src, scales).value
              - source_wave(SpacePoint(r.rho, r.z - h), E_r1, src, scales).value) / (2 * h)
        fr = (source_wave(SpacePoint(r.rho + h, r.z), E_r1, src, scales).value
              - source_wave(SpacePoint(r.rho - h, r.z), E_r1, src, scales).value) / (2 * h)
        assert abs(w0.grad_z - fz) / abs(fz) <= 1e-5
        assert abs(w0.grad_rho - fr) / abs(fr) <= 1e-5

    def test_exclusion_ball(self, scales, E_r1):
        with pytest.raises(ValueError, match="exclusion"):
            source_wave(SpacePoint(1e-4 * scales.length_lF, 0.0), E_r1,
                        SourceModel(SourceKind.S_WAVE, 1.0), scales)


class TestDetectorScale:
    def test_interior_exterior_contrast(self, scales, E_r1):
        # |G|^2 at the pattern center dwarfs the classically forbidden exterior
        from pdmicro import classical
        d = 0.5
        rmax = classical.rho_max(E_r1, scales, d)
        g_in = green_energy(SpacePoint(1e-9, -d), SpacePoint(0.0, 0.0), E_r1, scales)
        g_out = green_energy(SpacePoint(1.2 * rmax, -d), SpacePoint(0.0, 0.0), E_r1, scales)
        assert abs(g_in.value) ** 2 / abs(g_out.value) ** 2 >= 1e3

    def test_caustic_neighborhood_stable(self, scales):
        # closed form against the oracle straddling a microscopic caustic
        l = scales.length_lF
        u = 3.0
        E = u * scales.energy_epsF
        z = -10.0 * l
        a = u + 5.0                      # u - z/(2 l)
        R_c = 2.0 * a * l                # caustic: alpha_plus = 0
        rho_c = math.sqrt(R_c**2 - z**2)
        for frac in (0.995, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.005):
            r = SpacePoint(rho_c * frac, z)
            gq = green_energy_quad(r, SpacePoint(0.0, 0.0), E, scales)
            gc = green_energy(r, SpacePoint(0.0, 0.0), E, scales)
            assert abs(gq.value - gc.value) / abs(gq.value) <= 1e-6
