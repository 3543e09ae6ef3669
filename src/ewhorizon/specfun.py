"""Special functions needed by the closed-form solution families.

Three ingredients, each implemented from scratch on top of plain floats and
the jet types, with well-documented classical algorithms:

* Weierstrass ``wp`` with invariants (g2, g3) = (0, b): Laurent series near
  the origin plus the algebraic duplication formula, after rescaling to
  g3 = +/-1 by homogeneity.  Real arguments only; real poles are located
  once per sign of g3 and cached.  Jets take orders 2..4 from wp'' = 6 wp^2.
* Jacobi sn/cn/dn for real modulus k in [0, 1] by the arithmetic-geometric
  mean and the descending amplitude recurrence (DLMF 22.20.3-22.20.5).
* The Gauss hypergeometric series 2F1 for |z| < 1 by direct term recursion.

Everything is deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError, PoleProximityError
from .jets import Jet1

# --- Weierstrass elliptic function, g2 = 0 ---------------------------------
#
# Laurent expansion about the origin (DLMF 23.9): with g2 = 0 the recursion
# c_k = 3/((2k+1)(k-3)) * sum c_m c_{k-m} leaves only every third coefficient
# nonzero: c3 = g3/28, c6 = c3^2/13, c9 = c3*c6/19, the next term being
# O(z^22).  For |z| <= 0.55 the truncation error is below 1e-16 relative.
#
# Larger arguments are reduced by the duplication formula applied to the
# pair (P, Q) = (wp, wp'), using wp'' = 6 wp^2 when g2 = 0:
#     wp(2z)  = 9 P^4 / Q^2 - 2 P
#     wp'(2z) = 18 P^3 / Q - 54 P^6 / Q^3 - Q

_SERIES_RADIUS = 0.55
_DEFAULT_DELTA = 1e-3

_period_cache: dict[float, float] = {}


def _series_pair(w, g3n):
    """(wp, wp') of the normalized function (g3 = g3n = +/-1) for |w| small."""
    c3 = g3n / 28.0
    c6 = c3 * c3 / 13.0
    c9 = c3 * c6 / 19.0
    w2 = w * w
    w3 = w2 * w
    w4 = w2 * w2
    w10 = w4 * w4 * w2
    w16 = w10 * w4 * w2
    p = 1.0 / w2 + c3 * w4 + c6 * w10 + c9 * w16
    q = -2.0 / w3 + 4.0 * c3 * w3 + 10.0 * c6 * (w4 * w4 * w) + 16.0 * c9 * (w10 * w4 * w)
    return p, q


def _dup_pair(p, q):
    """One duplication step on the pair (wp, wp'), g2 = 0."""
    p2 = p * p
    p3 = p2 * p
    p4 = p2 * p2
    pnew = 9.0 * p4 / (q * q) - 2.0 * p
    qnew = 18.0 * p3 / q - 54.0 * (p3 * p3) / (q * q * q) - q
    return pnew, qnew


def _eval_normalized(w, g3n):
    """(wp, wp') at any real w != 0 for normalized g3n, no pole folding."""
    aw = abs(w)
    n = 0
    if aw > _SERIES_RADIUS:
        n = math.ceil(math.log2(aw / _SERIES_RADIUS))
    p, q = _series_pair(w / (2.0**n) if n else w, g3n)
    for _ in range(n):
        p, q = _dup_pair(p, q)
    return p, q


def real_period(b: float) -> float:
    """Spacing of the real poles of wp(z; 0, b), b != 0.

    wp restricted to the real axis is periodic with one pole per period;
    the period of the normalized (g3 = +/-1) function is found once by
    bisection on the sign change of wp' (which vanishes exactly at the
    half-period) and cached.
    """
    if b == 0.0:
        raise DomainError("g3 = 0 has a single pole at the origin, no period")
    g3n = 1.0 if b > 0 else -1.0
    t = _period_cache.get(g3n)
    if t is None:
        lo = 0.2
        qlo = _eval_normalized(lo, g3n)[1]
        hi = lo
        while True:
            hi += 0.2
            if hi > 40.0:
                raise AccuracyError("no real half-period found below 40")
            qhi = _eval_normalized(hi, g3n)[1]
            if qlo * qhi <= 0.0:
                break
            lo, qlo = hi, qhi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            qm = _eval_normalized(mid, g3n)[1]
            if qlo * qm <= 0.0:
                hi = mid
            else:
                lo, qlo = mid, qm
            if hi - lo < 1e-15 * hi:
                break
        t = lo + hi  # twice the half-period
        _period_cache[g3n] = t
    return t / abs(b) ** (1.0 / 6.0)


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


def _fold(z: float, b: float, delta: float):
    """Scale to g3 = +/-1, fold by the real period, apply the pole guard.

    Returns (zf, g3n, scale) with zf the folded normalized argument and
    scale = |b|^{1/6}.
    """
    g3n = 1.0 if b > 0 else -1.0
    scale = abs(b) ** (1.0 / 6.0)
    t = real_period(b) * scale  # normalized period
    zs = z * scale
    m = round(zs / t)
    zf = zs - m * t
    if abs(zf) / scale < delta:
        raise PoleProximityError(
            f"wp argument {z!r} within {delta} of a pole",
            nearest_pole=m * t / scale)
    return zf, g3n, scale


def wp(z: float, b: float, delta: float = _DEFAULT_DELTA):
    """Weierstrass (wp(z; 0, b), wp'(z; 0, b)) for real z.

    Satisfies wp'^2 = 4 wp^3 - b and wp'' = 6 wp^2.  Arguments closer than
    `delta` to a real pole raise PoleProximityError carrying the pole.
    """
    if b == 0.0:
        if abs(z) < delta:
            raise PoleProximityError(
                f"wp argument {z!r} within {delta} of the pole at 0", nearest_pole=0.0
            )
        return 1.0 / z**2, -2.0 / z**3
    zf, g3n, scale = _fold(z, b, delta)
    p, q = _eval_normalized(zf, g3n)
    return p * scale**2, q * scale**3


def wp_jet(z: Jet1, b: float, delta: float = _DEFAULT_DELTA):
    """Jet version of `wp`: jets of wp and wp' in the variable of `z`.

    Value and slope come from the float `wp`; derivatives 2..4 of wp, and
    4 of wp', follow from wp'' = 6 wp^2 (g2 = 0).
    """
    p, q = wp(z.value, b, delta)
    d2, d3, d4 = 6.0 * p * p, 12.0 * p * q, 12.0 * q * q + 72.0 * p ** 3
    return (z._compose((p, q, d2, d3, d4)),
            z._compose((q, d2, d3, d4, 360.0 * p * p * q)))


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


def jacobi_sn_cn_dn(u: float, k: float):
    """(sn, cn, dn)(u, k) for real u and modulus k in [0, 1].

    AGM plus the descending amplitude recurrence phi_{n-1} =
    (phi_n + asin((c_n/a_n) sin phi_n))/2 (DLMF 22.20.3-22.20.4);
    dn from the exact relation dn^2 = 1 - k^2 sn^2 (dn > 0 throughout),
    which stays stable at the quarter periods where the quotient form
    of DLMF 22.20.5 degenerates to 0/0.
    """
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"modulus k={k!r} outside [0, 1]")
    if k < 1e-12:
        return math.sin(u), math.cos(u), 1.0
    if 1.0 - k < 1e-12:
        sech = 1.0 / math.cosh(u)
        return math.tanh(u), sech, sech
    a, c = _agm_scheme(k)
    n = len(a) - 1
    phi = (2.0**n) * a[n] * u
    for i in range(n, 0, -1):
        s = max(-1.0, min(1.0, c[i] / a[i] * math.sin(phi)))
        phi = 0.5 * (phi + math.asin(s))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt(max(0.0, 1.0 - (k * sn) ** 2))
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


def sn_imaginary_modulus(u: float) -> float:
    """sn(u, i): real-valued via sn(u, i) = sd(u*sqrt2, 1/sqrt2)/sqrt2.

    (DLMF 22.17.1 with k = 1.)  Real-analytic on all of R because
    dn(., 1/sqrt2) >= 1/sqrt2; satisfies w'' = -2 w^3 with w(0) = 0,
    w'(0) = 1, first integral w'^2 = 1 - w^4.
    """
    sn, _, dn = jacobi_sn_cn_dn(_SQRT2 * u, _INV_SQRT2)
    return sn / dn * _INV_SQRT2


def sn_imaginary_modulus_jet(u: float) -> Jet1:
    """Jet (order 4) of sn(., i) at u.

    Value and first derivative come from the AGM evaluation
    (d/du sd(u*sqrt2, 1/sqrt2)/sqrt2 = cn/dn^2 at u*sqrt2); derivatives
    2..4 follow from the defining equation w'' = -2 w^3.
    """
    sn, cn, dn = jacobi_sn_cn_dn(_SQRT2 * u, _INV_SQRT2)
    w = sn / dn * _INV_SQRT2
    w1 = cn / (dn * dn)
    w2 = -2.0 * w**3
    w3 = -6.0 * w * w * w1
    w4 = -12.0 * w * w1 * w1 + 12.0 * w**5
    return Jet1.from_derivatives([w, w1, w2, w3, w4])


# --- Gauss hypergeometric series --------------------------------------------

_HYP_RTOL = 1e-12
_HYP_MAX_TERMS = 10_000


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss 2F1(a, b; c; z) by direct series, |z| < 1.

    `z` may be a float or a Jet1 (the series is summed in jet arithmetic,
    giving derivatives with respect to z).  Stops when three consecutive
    terms fall below 1e-12 relative; hard cap 10^4 terms.
    """
    if c <= 0.0 and c == round(c):
        raise DomainError(f"2F1 parameter c={c!r} is a non-positive integer")
    zval = z if isinstance(z, (int, float)) else z.value
    if abs(zval) >= 1.0:
        raise DomainError(f"2F1 series needs |z| < 1, got z={zval!r}")
    total = z * 0.0 + 1.0  # one, in the arithmetic of z
    term = z * 0.0 + 1.0
    small = 0
    for n in range(_HYP_MAX_TERMS):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
        total = total + term
        if isinstance(term, float):
            tval, sval = abs(term), abs(total)
        else:
            # jet coefficients pick up factors ~ n^k over the value term,
            # so convergence must be judged on the whole coefficient vector
            tval = float(np.max(np.abs(term.coeffs)))
            sval = float(np.max(np.abs(total.coeffs)))
        if tval <= _HYP_RTOL * max(sval, 1e-300):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise AccuracyError(
        f"2F1 series did not converge in {_HYP_MAX_TERMS} terms",
        estimate=total if isinstance(total, float) else total.value,
        error_bound=tval,
    )
