import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmicro.specfun import airy, airy_oracle, airy_scaled, airy_zeros, ci_factored

AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
FIRST_AI_ZERO = -2.338107410459767


class TestFastPath:
    def test_origin_closed_forms(self):
        v = airy(0.0)
        assert v.ai == pytest.approx(AI0, rel=1e-15)
        assert v.aip == pytest.approx(AIP0, rel=1e-15)

    def test_wronskian_window(self):
        x = np.linspace(-12.0, 12.0, 1000)
        v = airy(x)
        assert np.max(np.abs(v.wronskian() - 1.0 / math.pi)) <= 1e-10 / math.pi

    def test_positive_axis_monotone(self):
        x = np.linspace(0.0, 40.0, 400)
        v = airy(x)
        assert np.all(v.ai > 0.0)
        assert np.all(np.diff(v.ai) < 0.0)

    def test_negative_axis_interleaved_zeros(self):
        # sign changes of Ai and Ai' alternate on a fine grid
        x = np.linspace(-12.0, 0.0, 6000)
        v = airy(x)
        zeros_ai = x[:-1][np.diff(np.sign(v.ai)) != 0]
        zeros_aip = x[:-1][np.diff(np.sign(v.aip)) != 0]
        merged = sorted([(z, "a") for z in zeros_ai] + [(z, "d") for z in zeros_aip])
        kinds = "".join(k for _, k in merged)
        assert "aa" not in kinds and "dd" not in kinds

    def test_first_zero_bracketing(self):
        lo = airy(FIRST_AI_ZERO - 1e-6).ai
        hi = airy(FIRST_AI_ZERO + 1e-6).ai
        assert lo * hi < 0.0

    def test_region_seams_accurate(self):
        # both sides of every region seam agree with the oracle
        for seam in (-12.0, -5.0, 2.5, 12.0):
            for x in (seam - 1e-9, seam + 1e-9):
                m = airy(x)
                o = airy_oracle(x)
                for name in ("ai", "aip", "bi", "bip"):
                    ref = getattr(o, name)
                    assert abs(getattr(m, name) - ref) <= 1e-10 * abs(ref)

    def test_bi_overflow_tagged(self):
        v = airy(110.0)
        assert v.bi_overflow
        assert v.bi == np.finfo(np.float64).max
        assert 0.0 < v.ai < 1e-300 or v.ai == 0.0

    def test_scaled_consistency(self):
        x = np.array([-8.0, -1.0, 3.0, 20.0, 35.0])
        plain = airy(x)
        ai_s, aip_s, bi_s, bip_s, expo = airy_scaled(x)
        assert_allclose(ai_s * np.exp(-expo), plain.ai, rtol=1e-12)
        assert_allclose(bi_s * np.exp(expo), plain.bi, rtol=1e-12)

    def test_ci_factored_matches_plain(self):
        x = np.array([-12.5, -20.0, -33.0])
        c0, c1, phase = ci_factored(x)
        plain = airy(x)
        assert_allclose((c0 * np.exp(1j * phase)).imag, plain.ai, rtol=0, atol=2e-13)
        assert_allclose((c0 * np.exp(1j * phase)).real, plain.bi, rtol=0, atol=2e-13)
        assert_allclose((c1 * np.exp(1j * phase)).imag, plain.aip, rtol=0, atol=5e-13)
        assert_allclose((c1 * np.exp(1j * phase)).real, plain.bip, rtol=0, atol=5e-13)

    def test_huge_negative_argument_amplitude(self):
        # phase-amplitude form keeps the modulus exact far outside +-40
        w = 1e7
        v = airy(-w)
        modulus = math.hypot(v.ai, v.bi)
        assert_allclose(modulus, 1.0 / (math.sqrt(math.pi) * w**0.25), rtol=1e-8)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            airy(math.nan)

    def test_dense_grid_against_scipy(self):
        # a third, independent oracle on the whole table range, plus both
        # sides of every half-node, where the Taylor step is longest
        special = pytest.importorskip("scipy.special")
        half = -12.0 + (np.arange(384) + 0.5) / 16.0
        x = np.concatenate([np.linspace(-12.0, 12.0, 400001), half - 1e-12, half + 1e-12])
        m = airy(x)
        ai, aip, bi, bip = special.airy(x)
        for got, ref, env in ((m.ai, ai, np.hypot(ai, bi)), (m.bi, bi, np.hypot(ai, bi)),
                              (m.aip, aip, np.hypot(aip, bip)), (m.bip, bip, np.hypot(aip, bip))):
            # envelope-relative on x < 0, where Ai and Bi have zeros; relative on x >= 0
            scale = np.where(x < 0.0, env, np.abs(ref))
            assert np.max(np.abs(got - ref) / scale) <= 2e-13

    def test_ai_only_is_bitwise_the_full_evaluation(self):
        # bi=False must not move a bit of Ai, Ai' or the exponent: all three
        # regions, the seams at +-12 and both sides of every half-node,
        # where the table index rounds the other way
        half = -12.0 + (np.arange(384) + 0.5) / 16.0
        seams = np.array([-12.0, 12.0])
        x = np.concatenate([np.linspace(-60.0, 150.0, 20001), half - 1e-12, half + 1e-12,
                            seams, np.nextafter(seams, -np.inf), np.nextafter(seams, np.inf)])
        full = airy_scaled(x)
        ai_s, aip_s, bi_s, bip_s, expo = airy_scaled(x, bi=False)
        assert bi_s is None and bip_s is None
        for got, ref in zip((ai_s, aip_s, expo), (full[0], full[1], full[4])):
            assert np.array_equal(got, ref)

    def test_airy_undoes_the_exponent_split(self):
        # airy is airy_scaled with e^-+expo applied; Bi saturates only past ~104
        x = np.array([-30.0, -12.0, 0.0, 11.9, 12.0, 40.0, 103.0, 110.0])
        v = airy(x)
        ai_s, aip_s, bi_s, bip_s, expo = airy_scaled(x)
        assert np.array_equal(v.ai, ai_s * np.exp(-expo))
        assert np.array_equal(v.aip, aip_s * np.exp(-expo))
        assert np.array_equal(v.bi[:-1], bi_s[:-1] * np.exp(expo[:-1]))
        assert v.bi_overflow.tolist() == [False] * 7 + [True]

    def test_scaled_nonfinite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                airy_scaled(np.array([0.0, bad]), bi=False)


class TestOracle:
    def test_origin_closed_forms(self):
        v = airy_oracle(0.0)
        assert v.ai == pytest.approx(AI0, rel=1e-11)
        assert v.aip == pytest.approx(AIP0, rel=1e-11)

    def test_spec_values(self):
        assert airy_oracle(5.0).ai == pytest.approx(1.0834e-4, rel=1e-4)
        near = airy_oracle(FIRST_AI_ZERO).ai
        assert abs(near) < 1e-14
        v10 = airy_oracle(10.0)
        assert 0.0 < v10.ai < 1e-9

    def test_asymptotic_decay_bound(self):
        v = airy_oracle(10.0)
        bound = math.exp(-(2.0 / 3.0) * 10.0**1.5)
        assert v.ai < bound

    def test_window_guard(self):
        with pytest.raises(ValueError):
            airy_oracle(41.0)

    def test_oracle_wronskian(self):
        for x in (-17.3, -6.1, 0.7, 6.4):
            v = airy_oracle(x)
            assert v.wronskian() == pytest.approx(1.0 / math.pi, rel=1e-11)


class TestZeros:
    def test_oracle_vanishes_at_the_zeros(self):
        # one Newton step on the independent quadrature oracle: how far its
        # zero lies from each returned zero, relative to the zero
        a, ap = airy_zeros(60)
        for k in [*range(12), *range(14, 60, 5)]:
            if abs(ap[k]) > 40.0:
                break
            o = airy_oracle(float(a[k]))
            assert abs(o.ai / o.aip) <= 1e-14 * abs(a[k]), k
            o = airy_oracle(float(ap[k]))
            assert abs(o.aip / (ap[k] * o.ai)) <= 1e-14 * abs(ap[k]), k

    def test_ordered_interleaved_and_prefix_stable(self):
        a, ap = airy_zeros(200)
        assert a[0] == pytest.approx(FIRST_AI_ZERO, rel=1e-15)
        assert np.all(np.diff(a) < 0.0) and np.all(np.diff(ap) < 0.0)
        # 0 > a'_1 > a_1 > a'_2 > a_2 > ...
        assert np.all(ap > a) and np.all(ap[1:] < a[:-1]) and ap[0] < 0.0
        a5, ap5 = airy_zeros(5)
        assert np.array_equal(a5, a[:5]) and np.array_equal(ap5, ap[:5])
        with pytest.raises(ValueError):
            airy_zeros(0)

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        a, ap = airy_zeros(100)
        ref_a, ref_ap, _, _ = special.ai_zeros(100)
        # scipy's a_5 is itself 1.02e-12 off the 30-digit value (mpmath's
        # airyaizero), where scipy.special.airy gives Ai = 7.6e-12; every
        # other scipy zero agrees with ours to 2.6e-13
        assert np.max(np.abs(a / ref_a - 1.0)) <= 2e-12
        assert np.max(np.abs(ap / ref_ap - 1.0)) <= 1e-12


def test_fast_vs_oracle_200_points():
    # the module-level accuracy contract on the comparison window
    xs = np.linspace(-30.0, 8.0, 200)
    worst = 0.0
    for x in xs:
        o = airy_oracle(float(x))
        m = airy(float(x))
        for name in ("ai", "aip", "bi", "bip"):
            ref = getattr(o, name)
            worst = max(worst, abs(getattr(m, name) - ref) / abs(ref))
    assert worst <= 1e-10
