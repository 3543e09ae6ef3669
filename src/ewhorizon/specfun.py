"""Special functions needed by the closed-form solution families.

Three ingredients, each implemented from scratch on top of plain floats and
the jet types, with well-documented classical algorithms:

* Jacobi sn/cn/dn for real modulus k in [0, 1] by the arithmetic-geometric
  mean and the descending amplitude recurrence (DLMF 22.20.3-22.20.4), and
  the complete elliptic integral K(k) = pi / (2 AGM(1, k')).
* Weierstrass ``wp`` with invariants (g2, g3) = (0, b), real arguments only.
  By homogeneity wp(z; 0, b) = s^2 wp(s z; 0, g3n) with s = |b|^(1/6) and
  g3n = sign(b).  With e2 = g3n 4^(-1/3), H2 = sqrt(3) |e2|,
  k^2 = 1/2 - 3 e2 / (4 H2) and phi = am(2 sqrt(H2) z, k) (DLMF 23.6(ii)),
      wp  = e2 + H2 w^2,  w = cot(phi/2),
      wp' = -2 H2^(3/2) dn w (1 + w^2),
  and the real period is 2 K(k) / sqrt(H2) in closed form.  Near the half
  period this keeps wp' to absolute roundoff, where the equivalent
  (1 + cn)^2 / sn^2 form loses digits.  Jets take orders 2..4 from
  wp'' = 6 wp^2.
* The Gauss hypergeometric 2F1 for |z| < 1: the series in z, summed with
  Kahan compensation to machine precision, or for z > 1/2 the connection
  to 1 - z (DLMF 15.8.4) where c - a - b is not an integer.

Everything is deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import AccuracyError, DomainError, PoleProximityError
from .jets import Jet1, _any, each, one_pass, rounded

# --- Jacobi elliptic functions ----------------------------------------------

_AGM_TOL = 1e-16
_AGM_MAX = 40


def _agm_scheme(k: float):
    """AGM arrays (a_n, c_n) for modulus k, per DLMF 22.20.1."""
    a = [1.0]
    c = [k]
    bb = math.sqrt(1.0 - k * k)
    while abs(c[-1]) > _AGM_TOL * a[-1] and len(a) < _AGM_MAX:
        a.append(0.5 * (a[-1] + bb))
        c.append(0.5 * (a[-2] - bb))
        bb = math.sqrt(a[-2] * bb)
    return a, c


def _max(a, v):
    """max(a, v) for a number a: v where v > a, else a (so a NaN v gives
    a, as the builtin does), at a number v or at each entry of an array."""
    return np.where(v > a, v, a) if isinstance(v, np.ndarray) else max(a, v)


def _min(a, v):
    """min(a, v), as `_max`: v where v < a, else a."""
    return np.where(v < a, v, a) if isinstance(v, np.ndarray) else min(a, v)


def _amplitude(u, scheme):
    """am(u, k) for 0 < k < 1 from the AGM scheme of k (`_agm_scheme`),
    at a number u or at each entry of an array: the descending
    recurrence phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n))/2 (DLMF
    22.20.3-4), the asin argument clipped to [-1, 1] by max and min."""
    a, c = scheme
    n = len(a) - 1
    phi = (2.0**n) * a[n] * u
    for i in range(n, 0, -1):
        s = _max(-1.0, _min(1.0, c[i] / a[i] * each(math.sin, phi)))
        phi = 0.5 * (phi + each(math.asin, s))
    return phi


def jacobi_sn_cn_dn(u: float, k: float):
    """(sn, cn, dn)(u, k) for real u and modulus k in [0, 1].

    sn and cn are sin and cos of the amplitude; dn comes from the exact
    relation dn^2 = 1 - k^2 sn^2 (dn > 0 throughout), which stays stable
    at the quarter periods where the quotient form of DLMF 22.20.5
    degenerates to 0/0.
    """
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus k={k!r} outside [0, 1]")
    if k < 1e-12:
        return math.sin(u), math.cos(u), 1.0
    if 1.0 - k < 1e-12:
        sech = 1.0 / math.cosh(u)
        return math.tanh(u), sech, sech
    return _sn_cn_dn(u, k, _agm_scheme(k))


def _sn_cn_dn(u, k: float, scheme):
    """`jacobi_sn_cn_dn` for 0 < k < 1 from the AGM scheme of k, at a
    number u or at each entry of an array."""
    phi = _amplitude(u, scheme)
    sn = each(math.sin, phi)
    cn = each(math.cos, phi)
    dn = each(math.sqrt, _max(0.0, 1.0 - each(pow, k * sn, 2)))
    return sn, cn, dn


def complete_elliptic_k(k: float) -> float:
    """Complete elliptic integral K(k) = pi / (2 AGM(1, k')) for k in [0, 1)."""
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus k={k!r} outside [0, 1)")
    a, bb = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(_AGM_MAX):
        if abs(a - bb) < _AGM_TOL * a:
            break
        a, bb = 0.5 * (a + bb), math.sqrt(a * bb)
    return math.pi / (2.0 * a)


_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2
_INV_SQRT2_SCHEME = _agm_scheme(_INV_SQRT2)  # sn(., i)'s, built once


@one_pass
def sn_imaginary_modulus_jet(u) -> Jet1:
    """Jet (order 4) of sn(., i) at u, or at each u of an array (one
    batched jet, each column with the bits of the jet at its u).

    sn(u, i) = sd(u*sqrt2, 1/sqrt2)/sqrt2 (DLMF 22.17.1 with k = 1) is
    real-analytic on all of R because dn(., 1/sqrt2) >= 1/sqrt2; it
    satisfies w'' = -2 w^3 with w(0) = 0, w'(0) = 1, first integral
    w'^2 = 1 - w^4.  Value and first derivative come from the AGM
    evaluation (d/du sd(u*sqrt2, 1/sqrt2)/sqrt2 = cn/dn^2 at u*sqrt2);
    derivatives 2..4 follow from the defining equation w'' = -2 w^3.
    """
    sn, cn, dn = _sn_cn_dn(_SQRT2 * u, _INV_SQRT2, _INV_SQRT2_SCHEME)
    if _any(dn == 0.0):  # at a NaN u, where a float NaN / 0 raises too
        raise ZeroDivisionError("float division by zero")
    w = sn / dn * _INV_SQRT2
    w1 = cn / (dn * dn)
    w2 = -2.0 * each(pow, w, 3)
    w3 = -6.0 * w * w * w1
    w4 = -12.0 * w * w1 * w1 + 12.0 * each(pow, w, 5)
    return Jet1.from_derivatives([w, w1, w2, w3, w4])


# --- Weierstrass elliptic function, g2 = 0 ---------------------------------

_POLE_DELTA = 1e-3  # least distance of a wp argument from a real pole


def _lattice(g3n: float) -> tuple:
    """(e2, H2, k, real period, AGM scheme of k) of wp(.; 0, g3n),
    g3n = +/-1."""
    e2 = g3n * 4.0 ** (-1.0 / 3.0)
    h2 = math.sqrt(3.0) * abs(e2)
    k = math.sqrt(0.5 - 0.75 * e2 / h2)  # (2 -+ sqrt 3) / 4 under the root
    return (e2, h2, k, 2.0 * complete_elliptic_k(k) / math.sqrt(h2),
            _agm_scheme(k))


_LATTICE = {1.0: _lattice(1.0), -1.0: _lattice(-1.0)}


def real_period(b: float) -> float:
    """Spacing of the real poles of wp(z; 0, b), b != 0: 2 K(k) / sqrt(H2)
    for the normalized function, scaled by |b|^(-1/6)."""
    if b == 0.0:
        raise DomainError("g3 = 0 has a single pole at the origin, no period")
    return _LATTICE[math.copysign(1.0, b)][3] / abs(b) ** (1.0 / 6.0)


def _pole_free_cell(a: float, b: float, margin: float) -> tuple:
    """The interval of u with u + a in the pole-free cell [kT, (k+1)T]
    of wp(.; 0, b) that holds a, inset by `margin` from both poles."""
    T = real_period(b)
    k = math.floor(a / T)
    lo, hi = k * T - a + margin, (k + 1) * T - a - margin
    if not lo < hi:
        raise DomainError(f"empty pole-free window for a={a!r}, b={b!r}, "
                          f"margin={margin!r}")
    return lo, hi


@one_pass
def wp(z, b: float):
    """Weierstrass (wp(z; 0, b), wp'(z; 0, b)) for real z, or at each z
    of an array (then a pair of arrays).

    Satisfies wp'^2 = 4 wp^3 - b and wp'' = 6 wp^2.  Arguments closer than
    _POLE_DELTA to a real pole raise PoleProximityError carrying the pole.
    """
    if b == 0.0:
        if _any(abs(z) < _POLE_DELTA):
            raise PoleProximityError(
                f"wp argument {z!r} within {_POLE_DELTA} of the pole at 0",
                nearest_pole=0.0)
        return 1.0 / each(pow, z, 2), -2.0 / each(pow, z, 3)
    e2, h2, k, t, scheme = _LATTICE[math.copysign(1.0, b)]
    scale = abs(b) ** (1.0 / 6.0)
    zs = z * scale
    m = rounded(zs / t)
    zf = zs - m * t  # folded into [-t/2, t/2], the pole at 0
    if _any(abs(zf) / scale < _POLE_DELTA):
        raise PoleProximityError(
            f"wp argument {z!r} within {_POLE_DELTA} of a pole",
            nearest_pole=m * t / scale)
    sqrt_h2 = math.sqrt(h2)
    phi = _amplitude(2.0 * sqrt_h2 * zf, scheme)
    w = each(math.cos, 0.5 * phi) / each(math.sin, 0.5 * phi)
    dn = each(math.sqrt, 1.0 - each(pow, k * each(math.sin, phi), 2))
    p = e2 + h2 * w * w
    q = -2.0 * h2 * sqrt_h2 * dn * w * (1.0 + w * w)
    return p * scale**2, q * scale**3


@one_pass
def wp_jet(z: Jet1, b: float):
    """Jet version of `wp`: jets of wp and wp' in the variable of `z`
    (a batched z gives batched jets, its table taken in one pass), from
    wp, its slope and, by wp'' = 6 wp^2 (g2 = 0), four more derivatives."""
    p, q = wp(z.value, b)
    t = (p, q, 6.0 * p * p, 12.0 * p * q,
         12.0 * q * q + 72.0 * each(pow, p, 3), 360.0 * p * p * q)
    return z._compose(t[:5]), z._compose(t[1:])


# --- Gauss hypergeometric function ------------------------------------------

_HYP_RTOL = sys.float_info.epsilon
_HYP_MAX_TERMS = 10_000
# The largest integer |c - a - b| summed by DLMF 15.8.10, whose finite
# part takes that many terms; past it the series in z is used, as c then
# exceeds a + b by enough for it to converge fast up to z near 1.
_HYP_DEGENERATE_MAX = 20
# Below this z an integer c - a - b also takes the series in z: DLMF
# 15.8.10's finite sum and log series cancel toward z = 1/2 (7e-14
# relative at 2F1(2.5, 1.5; 5; 0.50001)), and the series in z, at most
# a few hundred terms there, stays within 2e-15.
_HYP_DEGENERATE_Z = 0.85


def _nonpositive_integer(v: float) -> bool:
    return v <= 0.0 and v == round(v)


def _hyp_small(term, total, small, n):
    """The count `small` of consecutive 2F1 terms below machine precision
    relative to the sum, carried past the term n.  A jet's size is its
    largest |coefficient|, as those grow ~ n^k over the value term.
    AccuracyError when the last term allowed leaves fewer than three."""
    if isinstance(term, float):
        tval, sval = abs(term), abs(total)
    else:
        tval = float(np.max(np.abs(term.coeffs)))
        sval = float(np.max(np.abs(total.coeffs)))
    small = small + 1 if tval <= _HYP_RTOL * max(sval, 1e-300) else 0
    if small < 3 and n == _HYP_MAX_TERMS - 1:
        raise AccuracyError(
            f"2F1 series did not converge in {_HYP_MAX_TERMS} terms",
            error_bound=tval,
            estimate=total if isinstance(total, float) else total.value)
    return small


def _hyp_series(a, b, c, z):
    """The 2F1 series in the arithmetic of z (float or Jet1), summed until
    `_hyp_small` counts three terms below machine precision relative."""
    total = z * 0.0 + 1.0  # one, in the arithmetic of z
    term = total
    lost = z * 0.0  # Kahan compensation: the many small terms near
    small = 0       # |z| = 1/2 would otherwise round away ~1e-15
    for n in range(_HYP_MAX_TERMS):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
        y = term - lost
        t = total + y
        lost = (t - total) - y
        total = t
        small = _hyp_small(term, total, small, n)
        if small >= 3:
            return total


def _digamma(x: float) -> float:
    """psi(x) for real x not a non-positive integer: x is shifted past 10
    by psi(x) = psi(x + 1) - 1/x, then the asymptotic series DLMF 5.11.2
    is summed through x^-14 (the next term is below 5e-17 there)."""
    shift = 0.0
    while x < 10.0:
        shift -= 1.0 / x
        x += 1.0
    x2 = 1.0 / (x * x)
    tail = x2 * (1 / 12 - x2 * (1 / 120 - x2 * (1 / 252 - x2 * (
        1 / 240 - x2 * (1 / 132 - x2 * (691 / 32760 - x2 / 12))))))
    return shift + math.log(x) - 0.5 / x - tail


def _hyp_degenerate(a, b, m, w):
    """2F1(a, b; a + b + m; 1 - w) for an integer m >= 0, in the
    arithmetic of w (float or Jet1), by the connection formula DLMF
    15.8.10 (Abramowitz & Stegun 15.3.10-11): a finite sum of m terms,
    and a series in w with ln w and digamma factors, summed as
    `_hyp_series` is.  Neither a nor b may be a non-positive integer."""
    g = math.gamma
    c = a + b + m
    log_w = math.log(w) if isinstance(w, float) else w.log()
    # sum_{n<m} (a)_n (b)_n / (n! (1 - m)_n) w^n
    head = w * 0.0
    if m:
        head = term = head + 1.0
        for n in range(1, m):
            term = term * ((a + n - 1) * (b + n - 1) / (n * (n - m))) * w
            head = head + term
        head = head * (g(m) * g(c) / (g(a + m) * g(b + m)))
    # sum_n (a+m)_n (b+m)_n / (n! (n+m)!) w^n
    #       (ln w - psi(n+1) - psi(n+m+1) + psi(a+n+m) + psi(b+n+m))
    psi = (_digamma(1.0), _digamma(m + 1.0), _digamma(a + m), _digamma(b + m))
    coef = 1.0 / math.factorial(m)
    power = w * 0.0 + 1.0
    total = w * 0.0
    small = 0
    for n in range(_HYP_MAX_TERMS):
        term = coef * power * (log_w + (psi[2] + psi[3] - psi[0] - psi[1]))
        total = total + term
        small = _hyp_small(term, total, small, n)
        if small >= 3:
            break
        coef *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0))
        power = power * w
        psi = (psi[0] + 1.0 / (n + 1.0), psi[1] + 1.0 / (n + m + 1.0),
               psi[2] + 1.0 / (a + n + m), psi[3] + 1.0 / (b + n + m))
    return head - (-1.0) ** m * g(c) / (g(a) * g(b)) * w ** m * total


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss 2F1(a, b; c; z) for |z| < 1.

    `z` may be a float or a Jet1 (the sums run in jet arithmetic, giving
    derivatives with respect to z).  For z <= 1/2, or a or b a
    non-positive integer, the series in z is summed directly (hard cap
    10^4 terms).  For z > 1/2 with c - a or c - b a non-positive integer,
    Euler's transformation (DLMF 15.8.1) makes it a terminating series;
    otherwise a connection formula sums series in 1 - z: DLMF 15.8.4
    when c - a - b is not an integer, DLMF 15.8.10 when it is an integer
    m (or one up to rounding) with 0 <= m <= 20, after Euler's
    transformation when -20 <= m < 0, for z > 0.85: nearer z = 1/2 its
    finite sum and log series cancel, and the series in z is summed up
    to z = 0.85 instead.  A larger |m| takes the series in z.
    """
    if _nonpositive_integer(c):
        raise DomainError(f"2F1 parameter c={c!r} is a non-positive integer")
    zval = z if isinstance(z, (int, float)) else z.value
    if abs(zval) >= 1.0:
        raise DomainError(f"2F1 series needs |z| < 1, got z={zval!r}")
    s = c - a - b
    if zval <= 0.5 or _nonpositive_integer(a) or _nonpositive_integer(b):
        return _hyp_series(a, b, c, z)
    w = 1.0 - z
    if _nonpositive_integer(c - a) or _nonpositive_integer(c - b):
        # Euler's transformation to a terminating series
        return w ** s * _hyp_series(c - a, c - b, c, z)
    m = round(s)
    if abs(s - m) <= 8.0 * _HYP_RTOL * max(abs(a), abs(b), abs(c), 1.0):
        # an integer, or one up to the rounding of c - a - b, where the
        # gamma factors of DLMF 15.8.4 cancel catastrophically
        if abs(m) > _HYP_DEGENERATE_MAX or zval <= _HYP_DEGENERATE_Z:
            return _hyp_series(a, b, c, z)
        if m < 0:
            return w ** s * _hyp_degenerate(c - a, c - b, -m, w)
        return _hyp_degenerate(a, b, m, w)
    g = math.gamma
    return (g(c) * g(s) / (g(c - a) * g(c - b)) * _hyp_series(a, b, 1.0 - s, w)
            + g(c) * g(-s) / (g(a) * g(b)) * w ** s
            * _hyp_series(c - a, c - b, 1.0 + s, w))
