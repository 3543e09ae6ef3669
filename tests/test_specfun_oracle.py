"""Special functions against mpmath at 40 digits on fixed argument grids.

The wp oracle does not go through Jacobi functions.  With t = e2 + s^2,
where e2 is the real root of 4t^3 - b, the real-axis inversion integral
z = int_{wp(z)}^inf dt / sqrt(4t^3 - b) becomes, for 0 < z <= T/2,

    z = T/2 - int_0^sigma ds / sqrt(q(s)),   wp = e2 + sigma^2,
    q(s) = s^4 + 3 e2 s^2 + 3 e2^2,          wp' = -2 sigma sqrt(q(sigma)),

with a smooth integrand; the real period T is twice the integral over
[0, inf).  One Newton step on sigma, started from the float wp, lands far
below double precision.
"""

import numpy as np
import pytest

from ewhorizon.jets import Jet1
from ewhorizon.specfun import (complete_elliptic_k, hyp2f1, jacobi_sn_cn_dn,
                               real_period, wp)

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40

B_VALUES = (1.0, -1.0, 0.35, 2.7, -2.7)


def _lattice(b):
    """(e2, quartic under the root, real period) for wp(.; 0, b)."""
    b = mp.mpf(b)
    e2 = mp.sign(b) * mp.cbrt(abs(b) / 4)

    def quartic(s):
        return s**4 + 3 * e2 * s**2 + 3 * e2**2

    period = 2 * mp.quad(lambda s: 1 / mp.sqrt(quartic(s)), [0, 1, mp.inf])
    return e2, quartic, period


def _mp_wp(z, b, lattice):
    e2, quartic, period = lattice
    z = mp.mpf(z)
    z -= period * mp.floor(z / period)
    sign = 1
    if z > period / 2:
        z, sign = period - z, -1
    sigma = mp.sqrt(max(mp.mpf(wp(float(z), b)[0]) - e2, 0))
    rest = period / 2 - mp.quad(lambda s: 1 / mp.sqrt(quartic(s)),
                                [0, sigma]) - z
    sigma += rest * mp.sqrt(quartic(sigma))
    return e2 + sigma**2, -2 * sign * sigma * mp.sqrt(quartic(sigma))


@pytest.mark.parametrize("b", B_VALUES)
def test_real_period_against_quadrature(b):
    T = _lattice(b)[2]
    assert abs(real_period(b) - T) <= 1e-15 * T


@pytest.mark.parametrize("b", B_VALUES)
def test_wp_against_quadrature_inversion(b):
    lattice = _lattice(b)
    T = real_period(b)
    for frac in np.linspace(0.05, 0.95, 13):
        z = float(frac) * T
        P, Q = _mp_wp(z, b, lattice)
        p, q = wp(z, b)
        assert abs(p - P) <= 5e-14 * max(1, abs(P)), z
        assert abs(q - Q) <= 5e-14 * max(1, abs(Q)), z


@pytest.mark.parametrize("b", B_VALUES)
def test_wp_slope_near_the_half_period(b):
    # wp' vanishes at T/2, where dkp's default shift puts its middle x
    lattice = _lattice(b)
    T = real_period(b)
    for d in (1e-9, 1e-7, 1e-5, 1e-4):
        for z in (0.5 * T - d, 0.5 * T + d):
            P, Q = _mp_wp(z, b, lattice)
            p, q = wp(z, b)
            assert abs(q - Q) <= 1e-14, (z, d)
            assert abs(p - P) <= 1e-14 * max(1, abs(P)), (z, d)


def test_hyp2f1_float_against_mpmath():
    for z in list(np.linspace(0.0, 0.99, 100)) + [0.995, 0.999, 0.9999]:
        z = float(z)
        ref = mp.hyp2f1(0.5, 0.75, 1.5, z)
        assert abs(hyp2f1(0.5, 0.75, 1.5, z) - ref) <= 2e-15 * abs(ref), z


@pytest.mark.parametrize("a, b, c", [(0.3, 1.7, 2.2), (1.0, 1.0, 2.0),
                                     (-2.0, 0.5, 1.5)])
def test_hyp2f1_other_parameters_against_mpmath(a, b, c):
    # connection (c - a - b = 0.2), integer c - a - b, terminating series
    for z in (-0.6, 0.2, 0.5, 0.7, 0.9):
        ref = mp.hyp2f1(a, b, c, z)
        assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-14 * abs(ref), z


_Z_TO_ONE = [float(z) for z in np.linspace(0.5, 0.9999, 41)] + [0.999]


@pytest.mark.parametrize("a, b, c", [(1.0, 1.0, 2.0), (0.5, 0.5, 1.0),
                                     (0.25, 0.75, 2.0), (0.3, 0.7, 3.0),
                                     (0.5, 1.5, 1.0), (0.3, 1.7, 3.0)])
def test_hyp2f1_integer_c_minus_a_minus_b_against_mpmath(a, b, c):
    # c - a - b = 0, 0, 1, 2, -1 and 1 up to rounding: the degenerate
    # connection formula (DLMF 15.8.10) towards z = 1, where the series
    # in z would need far more than its 10^4 terms
    for z in _Z_TO_ONE:
        ref = mp.hyp2f1(a, b, c, z)
        assert abs(hyp2f1(a, b, c, z) - ref) <= 4e-15 * abs(ref), z


@pytest.mark.parametrize("a, b, c", [(2.5, 1.5, 5.0), (1.5, 0.5, 3.0),
                                     (0.25, 0.75, 2.0), (1.0, 2.0, 4.0)])
def test_hyp2f1_integer_c_minus_a_minus_b_near_one_half(a, b, c):
    # c - a - b = 1: just past z = 1/2 the finite sum and the log series
    # of DLMF 15.8.10 cancel (7e-14 relative at (2.5, 1.5; 5)), so the
    # series in z is summed there
    for z in np.linspace(0.50001, 0.95, 91).tolist():
        ref = mp.hyp2f1(a, b, c, z)
        assert abs(hyp2f1(a, b, c, z) - ref) <= 3e-15 * abs(ref), z


@pytest.mark.parametrize("a, b, c", [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0)])
def test_hyp2f1_euler_terminating_against_mpmath(a, b, c):
    # c - a or c - b a non-positive integer: (1 - z)^(c-a-b) times a
    # polynomial, which the series in z reaches only slowly near z = 1
    for z in _Z_TO_ONE:
        ref = mp.hyp2f1(a, b, c, z)
        assert abs(hyp2f1(a, b, c, z) - ref) <= 4e-15 * abs(ref), z


@pytest.mark.parametrize("a, b, c", [(1.0, 1.0, 2.0), (0.5, 0.5, 1.0)])
def test_hyp2f1_jet_at_integer_c_minus_a_minus_b_against_mpmath(a, b, c):
    for z in (0.55, 0.9, 0.999, 0.9999):
        jet = hyp2f1(a, b, c, Jet1.variable(z))
        for k in range(5):
            ref = (mp.rf(a, k) * mp.rf(b, k) / mp.rf(c, k)
                   * mp.hyp2f1(a + k, b + k, c + k, z))
            assert abs(jet.derivative(k) - ref) <= 1e-14 * abs(ref), (z, k)


def test_hyp2f1_jet_against_mpmath():
    # d^k/dz^k 2F1(a, b; c; z) = (a)_k (b)_k / (c)_k 2F1(a+k, b+k; c+k; z)
    a, b, c = 0.5, 0.75, 1.5
    for z in (0.1, 0.45, 0.55, 0.9, 0.99, 0.999):
        jet = hyp2f1(a, b, c, Jet1.variable(z))
        for k in range(5):
            ref = (mp.rf(a, k) * mp.rf(b, k) / mp.rf(c, k)
                   * mp.hyp2f1(a + k, b + k, c + k, z))
            assert abs(jet.derivative(k) - ref) <= 1e-14 * abs(ref), (z, k)


def test_jacobi_sn_cn_dn_against_mpmath():
    for k in np.linspace(0.1, 0.99, 12):
        k = float(k)
        for u in np.linspace(-6.0, 6.0, 25):
            u = float(u)
            got = jacobi_sn_cn_dn(u, k)
            for name, value in zip(("sn", "cn", "dn"), got):
                ref = mp.ellipfun(name, u, m=k * k)
                assert abs(value - ref) <= 4e-15, (name, u, k)


def test_complete_elliptic_k_against_mpmath():
    for k in list(np.linspace(0.0, 0.99, 34)) + [0.999, 0.99999]:
        k = float(k)
        ref = mp.ellipk(k * k)
        assert abs(complete_elliptic_k(k) - ref) <= 4e-16 * ref, k
