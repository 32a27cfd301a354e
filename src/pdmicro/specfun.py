"""Real-argument Airy functions Ai, Bi, their derivatives, and Ci = Bi + i*Ai.

The fast evaluator `airy_scaled` is built from scratch in three regions:

  x < -12           trigonometric (phase-amplitude) asymptotic series
  -12 <= x < 12     one 11-term Taylor step, for Ai and Bi together, from the
                    nearest node of a table at spacing 1/16; the table is
                    marched at import from the closed forms at x = 0 and the
                    asymptotic Ai at x = 12, each function in a direction in
                    which it does not decay (no power series about 0, which
                    cancels catastrophically for Ai at positive x)
  x >= 12           exponential asymptotic series, exponent-scaled

`airy_scaled(x, bi=False)` evaluates Ai and Ai' alone (the table steps only
its Ai row), bit for bit equal to the full evaluation. `airy` wraps
`airy_scaled`: it undoes the exponent split, so there is one region
dispatch.

`airy_oracle` is an independent validation path: it evaluates the integral
representations by contour-stabilized quadrature (saddle-point contours in
double precision) and shares no code with `airy` beyond elementary
functions.

Bi overflows past x ~ 104; `airy` then reports a tagged saturation instead
of infinity. `airy_scaled` never overflows and is what the Green-function
module consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_quad

__all__ = ["AiryValues", "airy", "airy_oracle", "airy_scaled", "airy_zeros", "ci_factored"]

_SQRT_PI = math.sqrt(math.pi)
_SQRT3 = math.sqrt(3.0)
# Ai(0) and -Ai'(0) from the Gamma-function closed forms.
_C1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_C2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)

_X_NEG_ASY = -12.0
_X_POS_ASY = 12.0
_LADDER_STEP = 0.5
_TABLE_STEP = 1.0 / 16.0
_TAYLOR_TERMS = 30     # steps of up to 0.5 (ladders, table build)
_TABLE_TERMS = 11      # steps of up to 1/32 from a table node
_ASY_TERMS = 13
_ZERO_NEWTON_MAX = 10  # Newton steps of airy_zeros; it takes at most 4
# Bi ~ e^(2/3 x^(3/2))/(sqrt(pi) x^(1/4)) exceeds double range past this x.
_X_BI_OVERFLOW = (1.5 * 700.0) ** (2.0 / 3.0)
_BI_SATURATION = np.finfo(np.float64).max


def _asy_coefficients(n):
    """u_k, v_k of the Airy asymptotic expansions, by exact recurrence."""
    u = [1.0]
    v = [1.0]
    for k in range(1, n):
        uk = u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1))
        u.append(uk)
        v.append(uk * (6 * k + 1) / (1 - 6 * k))
    return np.array(u), np.array(v)


_UK, _VK = _asy_coefficients(_ASY_TERMS)


@dataclass(frozen=True)
class AiryValues:
    """Ai, Ai', Bi, Bi' at one point or an array of points.

    bi_overflow marks entries where Bi saturated; ai/aip stay valid there.
    """

    ai: np.ndarray | float
    aip: np.ndarray | float
    bi: np.ndarray | float
    bip: np.ndarray | float
    bi_overflow: np.ndarray | bool = False

    def wronskian(self):
        """Ai*Bi' - Ai'*Bi, identically 1/pi."""
        return self.ai * self.bip - self.aip * self.bi


# ---------------------------------------------------------------------------
# Taylor marching (y'' = x y advanced by local power series).


def _taylor_step(x0, h, y, yp, n_terms=_TAYLOR_TERMS):
    """Advance a solution pair of y'' = x y from x0 to x0 + h."""
    x0 = np.asarray(x0, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    c_km2 = np.asarray(y, dtype=np.float64)    # c_{k-2}
    c_km1 = np.asarray(yp, dtype=np.float64)   # c_{k-1}
    c_km3 = np.zeros_like(c_km2 + h)
    val = c_km2 + c_km1 * h
    der = c_km1 + np.zeros_like(h)
    hkm1 = h.copy() if isinstance(h, np.ndarray) else h  # h^{k-1}
    for k in range(2, n_terms):
        ck = (x0 * c_km2 + c_km3) / (k * (k - 1))
        val = val + ck * hkm1 * h
        der = der + k * ck * hkm1
        c_km3, c_km2, c_km1 = c_km2, c_km1, ck
        hkm1 = hkm1 * h
    return val, der


# ---------------------------------------------------------------------------
# Asymptotic expansions.


def _asy_pos_scaled(x, bi=True):
    """Scaled asymptotics for x >= ~9: returns values with e^{±zeta} removed.

    ai = ai_s e^{-zeta}, aip = aip_s e^{-zeta}, bi = bi_s e^{+zeta}, ...
    Without bi, bi_s and bip_s come back as None.
    """
    x = np.asarray(x, dtype=np.float64)
    zeta = (2.0 / 3.0) * x ** 1.5
    zi = 1.0 / zeta
    su_m = np.zeros_like(x)
    sv_m = np.zeros_like(x)
    su_p = np.zeros_like(x)
    sv_p = np.zeros_like(x)
    zk = np.ones_like(x)
    for k in range(_ASY_TERMS):
        sgn = -1.0 if k % 2 else 1.0
        su_m = su_m + sgn * _UK[k] * zk
        sv_m = sv_m + sgn * _VK[k] * zk
        if bi:
            su_p = su_p + _UK[k] * zk
            sv_p = sv_p + _VK[k] * zk
        zk = zk * zi
    x4 = x ** 0.25
    ai_s = su_m / (2.0 * _SQRT_PI * x4)
    aip_s = -x4 * sv_m / (2.0 * _SQRT_PI)
    if not bi:
        return ai_s, aip_s, None, None, zeta
    bi_s = su_p / (_SQRT_PI * x4)
    bip_s = x4 * sv_p / _SQRT_PI
    return ai_s, aip_s, bi_s, bip_s, zeta


def _asy_neg_sums(w):
    """Even/odd asymptotic sums at x = -w, w >= ~9."""
    zeta = (2.0 / 3.0) * w ** 1.5
    zi2 = 1.0 / (zeta * zeta)
    sa = np.zeros_like(w)
    sve = np.zeros_like(w)
    zk = np.ones_like(w)
    for k in range(0, _ASY_TERMS, 2):
        sgn = -1.0 if (k // 2) % 2 else 1.0
        sa = sa + sgn * _UK[k] * zk
        sve = sve + sgn * _VK[k] * zk
        zk = zk * zi2
    sb = np.zeros_like(w)
    svo = np.zeros_like(w)
    zk = 1.0 / zeta
    for k in range(1, _ASY_TERMS, 2):
        sgn = -1.0 if ((k - 1) // 2) % 2 else 1.0
        sb = sb + sgn * _UK[k] * zk
        svo = svo + sgn * _VK[k] * zk
        zk = zk * zi2
    return zeta, sa, sb, sve, svo


def _asy_neg(x, bi=True):
    """Trigonometric asymptotics for x <= ~-9: (Ai, Ai'[, Bi, Bi'])."""
    w = -np.asarray(x, dtype=np.float64)
    zeta, sa, sb, sve, svo = _asy_neg_sums(w)
    phi = zeta - 0.25 * math.pi
    c = np.cos(phi)
    s = np.sin(phi)
    w4 = w ** 0.25
    ai = (c * sa + s * sb) / (_SQRT_PI * w4)
    aip = w4 * (s * sve - c * svo) / _SQRT_PI
    if not bi:
        return ai, aip
    bi = (-s * sa + c * sb) / (_SQRT_PI * w4)
    bip = w4 * (c * sve + s * svo) / _SQRT_PI
    return ai, aip, bi, bip


# ---------------------------------------------------------------------------
# Node table (module load time: 24 Taylor steps of four ladders at once, then
# one vectorized step to every node).


def _build_table():
    """Ai, Bi (rows) and their derivatives at the nodes -12 + k/16, k = 0..384.

    Four ladders at spacing 0.5 march together, each in a direction in which
    its function dominates or neither does: Ai and Bi down from the closed
    forms at 0, Bi up from 0, and Ai down from the asymptotic anchor at 12.
    Each node then takes one step from its nearest ladder node; the node at
    0 keeps the closed forms exactly.
    """
    ai_s, aip_s, _, _, zeta = _asy_pos_scaled(np.float64(_X_POS_ASY), bi=False)
    down = math.exp(-float(zeta))
    h = np.array([-_LADDER_STEP, -_LADDER_STEP, _LADDER_STEP, -_LADDER_STEP])
    x = np.array([0.0, 0.0, 0.0, _X_POS_ASY])
    y = np.array([_C1, _SQRT3 * _C1, _SQRT3 * _C1, float(ai_s) * down])
    yp = np.array([-_C2, _SQRT3 * _C2, _SQRT3 * _C2, float(aip_s) * down])
    ys, yps = [y], [yp]
    for _ in range(int(_X_POS_ASY / _LADDER_STEP)):
        y, yp = _taylor_step(x, h, y, yp)
        x = x + h
        ys.append(y)
        yps.append(yp)
    ys, yps = np.array(ys), np.array(yps)     # (25, 4): step, ladder

    def rows(c):   # (2, 49): Ai and Bi on the ladder nodes -12, -11.5, ..., 12
        return np.stack([np.concatenate([c[::-1, 0], c[-2::-1, 3]]),
                         np.concatenate([c[::-1, 1], c[1:, 2]])])

    x_nodes = _X_NEG_ASY + _TABLE_STEP * np.arange(int(2 * _X_POS_ASY / _TABLE_STEP) + 1)
    nearest = np.rint((x_nodes - _X_NEG_ASY) / _LADDER_STEP).astype(np.intp)
    x_ladder = _X_NEG_ASY + _LADDER_STEP * nearest
    y, yp = rows(ys), rows(yps)
    return _taylor_step(x_ladder, x_nodes - x_ladder, y[:, nearest], yp[:, nearest])


_TABLE_Y, _TABLE_YP = _build_table()


def _table_eval(x, bi=True):
    """(Ai, Ai'[, Bi, Bi']) for -12 <= x < 12.

    One Taylor step from the nearest table node, so each value depends on
    its own x only. Without bi only the Ai row is stepped; the row's
    arithmetic is elementwise, so Ai and Ai' come out bit for bit the same.
    """
    idx = np.rint((x - _X_NEG_ASY) * (1.0 / _TABLE_STEP)).astype(np.intp)
    x0 = _X_NEG_ASY + _TABLE_STEP * idx
    rows = slice(None) if bi else slice(1)
    y, yp = _taylor_step(x0, x - x0, _TABLE_Y[rows, idx], _TABLE_YP[rows, idx], _TABLE_TERMS)
    return tuple(v for pair in zip(y, yp) for v in pair)


# ---------------------------------------------------------------------------
# Public fast path.


def airy_scaled(x, bi=True):
    """(ai_s, aip_s, bi_s, bip_s, expo) with ai = ai_s e^-expo, bi = bi_s e^+expo.

    expo = (2/3) x^(3/2) for x >= 12 (the exponential asymptotic region), 0
    elsewhere. Never overflows; meant for exponent-split products in the
    Green function. With bi=False, Bi and Bi' are not evaluated and bi_s,
    bip_s are None; ai_s, aip_s and expo are bit for bit those of bi=True.
    This is the one region dispatch: `airy` undoes the exponent split.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(xa)):
        raise ValueError("airy: non-finite argument")
    vals = [np.empty_like(xa) for _ in range(4 if bi else 2)]
    expo = np.zeros_like(xa)
    neg = xa < _X_NEG_ASY
    pos = xa >= _X_POS_ASY
    mid = ~(neg | pos)
    for m, region in ((neg, _asy_neg), (mid, _table_eval)):
        if m.any():
            for v, r in zip(vals, region(xa[m], bi)):
                v[m] = r
    if pos.any():
        *rs, expo[pos] = _asy_pos_scaled(xa[pos], bi)
        for v, r in zip(vals, rs):
            v[pos] = r
    if not bi:
        vals += [None, None]
    return (*vals, expo)


def airy(x):
    """Ai, Ai', Bi, Bi' for real x (scalar or array).

    Accuracy target: relative error <= 1e-10 against the quadrature oracle
    on [-40, 40] (validated in the test suite on [-30, 8] plus the
    Wronskian on [-12, 12]). Bi saturates with a tag past x ~ 104.
    """
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    ai_s, aip_s, bi_s, bip_s, expo = airy_scaled(xa)
    down = np.exp(-expo)
    overflow = xa > _X_BI_OVERFLOW
    up = np.exp(np.where(overflow, 0.0, expo))
    ai = ai_s * down
    aip = aip_s * down
    bi = np.where(overflow, _BI_SATURATION, bi_s * up)
    bip = np.where(overflow, _BI_SATURATION, bip_s * up)
    if scalar:
        return AiryValues(float(ai[0]), float(aip[0]), float(bi[0]), float(bip[0]), bool(overflow[0]))
    return AiryValues(ai, aip, bi, bip, overflow)


def airy_zeros(n: int):
    """The first n zeros of Ai and of Ai', each as an array going away from 0.

    Newton's method on `airy`, started from the leading terms of the
    asymptotic series (A&S 10.4.94-95); Ai'' = x Ai gives the Newton step
    for the zeros of Ai'. Computed per call: no table is kept.
    """
    if n < 1:
        raise ValueError("airy_zeros needs n >= 1")
    k = np.arange(1, n + 1, dtype=np.float64)
    t = np.concatenate([3.0 * math.pi * (4.0 * k - 1.0) / 8.0,    # Ai
                        3.0 * math.pi * (4.0 * k - 3.0) / 8.0])   # Ai'
    c2 = np.repeat([5.0 / 48.0, -7.0 / 48.0], n)
    c4 = np.repeat([-5.0 / 36.0, 35.0 / 288.0], n)
    x = -t ** (2.0 / 3.0) * (1.0 + c2 / t**2 + c4 / t**4)
    # Newton converges quadratically: after a step below 1e-8 |x| the
    # error left is at rounding level, so that zero is done
    todo = np.arange(2 * n)
    for _ in range(_ZERO_NEWTON_MAX):
        v = airy(x[todo])
        is_ai = todo < n
        step = np.empty_like(v.ai)
        step[is_ai] = v.ai[is_ai] / v.aip[is_ai]
        step[~is_ai] = v.aip[~is_ai] / (x[todo][~is_ai] * v.ai[~is_ai])
        x[todo] -= step
        todo = todo[np.abs(step) > 1e-8 * np.abs(x[todo])]
        if not todo.size:
            break
    return x[:n], x[n:]


def ci_factored(x):
    """Ci = Bi + i*Ai and Ci' at x <= -12, with the fast phase factored out.

    Returns (c0, c1, phase) with Ci(x) = c0 * e^{i*phase}, Ci'(x) = c1 *
    e^{i*phase} and phase reduced modulo 2*pi. The factored form keeps the
    huge-argument oscillation exactly common between value and derivative,
    which is what flux expressions rely on.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(xa > _X_NEG_ASY):
        raise ValueError("ci_factored requires x <= -12")
    w = -xa
    zeta, sa, sb, sve, svo = _asy_neg_sums(w)
    w4 = w ** 0.25
    c0 = (sb + 1j * sa) / (_SQRT_PI * w4)
    c1 = w4 * (sve - 1j * svo) / _SQRT_PI
    phase = np.mod(zeta - 0.25 * math.pi, 2.0 * math.pi)
    return c0, c1, phase


# ---------------------------------------------------------------------------
# Quadrature oracle. Independent code path: integral representations
#   Ai(x) = (1/pi) Int_0^inf cos(t^3/3 + x t) dt
#   Bi(x) = (1/pi) Int_0^inf [exp(-t^3/3 + x t) + sin(t^3/3 + x t)] dt
# evaluated on saddle-point-stabilized contours.


def _osc_integrals(x, epsrel):
    """I0 = Int e^{i phi} dt and I1 = Int i t e^{i phi} dt, phi = t^3/3 + x t.

    The contour is chosen per sign of x so the integrand never exceeds O(1):
    through the complex saddle i*sqrt(x) for x > 1, a short rotated ray for
    |x| <= 1, and along the real axis past the saddle sqrt(-x) with a
    rotated tail for x < -1.
    """
    if x > 1.0:
        a = math.sqrt(x)
        zeta = (2.0 / 3.0) * x ** 1.5
        scale = math.exp(-zeta)

        # Vertical piece t = i u, u in [0, a]. exponent u^3/3 - x u runs from
        # 0 down to -zeta, so the integrand is bounded by 1.
        def f_v(u):
            return np.exp(u ** 3 / 3.0 - x * u)

        iv, _ = adaptive_quad(f_v, 0.0, a, epsrel=epsrel, label="airy vertical")
        iv0 = 1j * iv

        def f_v1(u):
            return u * np.exp(u ** 3 / 3.0 - x * u)

        iv1r, _ = adaptive_quad(f_v1, 0.0, a, epsrel=epsrel, label="airy vertical'")
        iv1 = -1j * iv1r  # i * (i u) * (i du) = -i u du

        # Horizontal piece t = i a + s: h = -zeta - a s^2 + i s^3/3.
        smax = math.sqrt(50.0 / a) + 2.0

        def f_h(s):
            return np.exp(-a * s * s + 1j * s ** 3 / 3.0)

        def f_h1(s):
            return 1j * (1j * a + s) * np.exp(-a * s * s + 1j * s ** 3 / 3.0)

        ih0, _ = adaptive_quad(f_h, 0.0, smax, epsrel=epsrel, label="airy horizontal")
        ih1, _ = adaptive_quad(f_h1, 0.0, smax, epsrel=epsrel, label="airy horizontal'")
        return iv0 + scale * ih0, iv1 + scale * ih1

    if x >= -1.0:
        # Rotated ray t = s e^{i pi/6}: i phi = -s^3/3 + i x s e^{i pi/6} ...
        rot = np.exp(1j * math.pi / 6.0)
        smax = (3.0 * 50.0) ** (1.0 / 3.0) + abs(x) + 2.0

        def f_r(s):
            t = s * rot
            return np.exp(1j * (t ** 3 / 3.0 + x * t))

        def f_r1(s):
            t = s * rot
            return 1j * t * np.exp(1j * (t ** 3 / 3.0 + x * t))

        i0, _ = adaptive_quad(f_r, 0.0, smax, epsrel=epsrel, label="airy ray")
        i1, _ = adaptive_quad(f_r1, 0.0, smax, epsrel=epsrel, label="airy ray'")
        return rot * i0, rot * i1

    # x < -1: real segment through the saddle, then a rotated tail.
    y = -x
    a = math.sqrt(y)
    T = a + 1.0

    def f_real(t):
        return np.exp(1j * (t ** 3 / 3.0 - y * t))

    def f_real1(t):
        return 1j * t * np.exp(1j * (t ** 3 / 3.0 - y * t))

    i0r, _ = adaptive_quad(f_real, 0.0, T, epsrel=epsrel, label="airy real segment")
    i1r, _ = adaptive_quad(f_real1, 0.0, T, epsrel=epsrel, label="airy real segment'")

    rot = np.exp(1j * math.pi / 6.0)
    # Re h = -(T^2-y)s/2 - (sqrt3/2) T s^2 - s^3/3, all decaying
    smax = 6.0

    def f_tail(s):
        t = T + s * rot
        return np.exp(1j * (t ** 3 / 3.0 - y * t))

    def f_tail1(s):
        t = T + s * rot
        return 1j * t * np.exp(1j * (t ** 3 / 3.0 - y * t))

    i0t, _ = adaptive_quad(f_tail, 0.0, smax, epsrel=epsrel, label="airy tail")
    i1t, _ = adaptive_quad(f_tail1, 0.0, smax, epsrel=epsrel, label="airy tail'")
    return i0r + rot * i0t, i1r + rot * i1t


def _bi_exp_integrals(x, epsrel):
    """Int e^{-t^3/3 + x t} dt and Int t e^{-t^3/3 + x t} dt, scaled safely."""
    if x > 0.0:
        a = math.sqrt(x)
        zeta = (2.0 / 3.0) * x ** 1.5
        T = a + math.sqrt(60.0 / max(a, 0.3)) + 3.0

        def f0(t):
            return np.exp(x * t - t ** 3 / 3.0 - zeta)

        def f1(t):
            return t * np.exp(x * t - t ** 3 / 3.0 - zeta)

        i0, _ = adaptive_quad(f0, 0.0, T, epsrel=epsrel, label="bi exp")
        i1, _ = adaptive_quad(f1, 0.0, T, epsrel=epsrel, label="bi exp'")
        return i0, i1, zeta
    T = 1.0 + 50.0 / max(-x, 1.0)

    def f0(t):
        return np.exp(x * t - t ** 3 / 3.0)

    def f1(t):
        return t * np.exp(x * t - t ** 3 / 3.0)

    i0, _ = adaptive_quad(f0, 0.0, max(T, 4.5), epsrel=epsrel, label="bi exp")
    i1, _ = adaptive_quad(f1, 0.0, max(T, 4.5), epsrel=epsrel, label="bi exp'")
    return i0, i1, 0.0


def airy_oracle(x, epsrel=1e-13):
    """Quadrature evaluation of Ai, Ai', Bi, Bi' for scalar x, |x| <= 40.

    Documented accuracy ~1e-11 relative (to amplitude) or better across the
    window; raises QuadratureError if the panels do not converge.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("airy_oracle: non-finite argument")
    if abs(x) > 40.0:
        raise ValueError("airy_oracle window is |x| <= 40")
    i0, i1 = _osc_integrals(x, epsrel)
    ai = i0.real / math.pi
    aip = i1.real / math.pi
    e0, e1, zeta = _bi_exp_integrals(x, epsrel)
    bi = (math.exp(zeta) * e0 + i0.imag) / math.pi
    bip = (math.exp(zeta) * e1 + i1.imag) / math.pi
    return AiryValues(ai, aip, bi, bip, False)
