"""Special functions against frozen constants and defining equations.

The frozen constants below were produced by independent quadrature of
the defining period/elliptic integrals (composite Gauss on the real
branch cuts), not by the implementations under test.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewhorizon.errors import DomainError, PoleProximityError
from ewhorizon.jets import Jet1, Point, fd_oracle
from ewhorizon.specfun import (complete_elliptic_k, hyp2f1,
                               jacobi_sn_cn_dn, real_period,
                               sn_imaginary_modulus,
                               sn_imaginary_modulus_jet, wp, wp_jet)

# integral of dt / sqrt(4 t^3 - b) from the real root to infinity, doubled
REAL_PERIOD_B_PLUS_1 = 3.0599080741143857
REAL_PERIOD_B_MINUS_1 = 5.2999162508563499
# complete elliptic integral K(1/sqrt(2))
K_HALF_SQRT2 = 1.8540746773013717
# sn(1; k = i), from integrating the degree-4 pendulum ODE
SN_I_AT_1 = 0.9076832214049455


def test_real_period_frozen_values():
    assert abs(real_period(1.0) - REAL_PERIOD_B_PLUS_1) < 1e-12
    assert abs(real_period(-1.0) - REAL_PERIOD_B_MINUS_1) < 1e-12


def test_real_period_scaling_law():
    # wp(lambda z; 0, lambda^-6 b) = lambda^-2 wp(z; 0, b) maps the
    # lattice by z -> lambda z, so T(b) = T(1) b^(-1/6) for b > 0.
    for b in (0.5, 2.0, 7.3):
        assert_allclose(real_period(b), real_period(1.0) * b ** (-1 / 6),
                        rtol=1e-12)
    for b in (-0.5, -3.1):
        assert_allclose(real_period(b),
                        real_period(-1.0) * abs(b) ** (-1 / 6), rtol=1e-12)


def test_real_period_rejects_zero():
    with pytest.raises(DomainError):
        real_period(0.0)


@pytest.mark.parametrize("b", [1.0, -1.0, 0.35, -2.7])
@pytest.mark.parametrize("zfrac", [0.21, 0.5, 0.83])
def test_wp_satisfies_its_differential_equation(b, zfrac):
    z = zfrac * real_period(b)
    P, dP = wp_jet(Jet1.variable(z), b)
    # first-order form: (wp')^2 = 4 wp^3 - b
    lhs = dP.value ** 2
    rhs = 4.0 * P.value ** 3 - b
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
    # second-order form on the jet: wp'' = 6 wp^2
    assert abs(P.derivative(2) - 6.0 * P.value ** 2) \
        <= 1e-9 * max(1.0, P.value ** 2)
    # the returned derivative jet agrees with the jet's own slope
    # (absolute floor: wp' vanishes at the half period)
    assert abs(dP.value - P.derivative(1)) \
        <= 1e-9 * max(1.0, abs(P.value))


def _wp_jet_against_finite_differences(b, nonlinear, stencils, bound):
    """Orders 1..4 of both wp jets against central differences of the
    float wp, along z itself or along a nonlinear inner function of t."""
    z0 = 1.3 if b == 0.0 else 0.4 * real_period(b)
    if nonlinear:
        def inner(t):
            return 0.3 * math.sin(t) + z0
        t0 = 0.7
        zj = 0.3 * Jet1.variable(t0).sin() + z0
    else:
        def inner(t):
            return t
        t0 = z0
        zj = Jet1.variable(z0)
    jets = wp_jet(zj, b)
    for part in (0, 1):
        def f(p):
            return wp(inner(p.x), b)[part]
        at = Point(0.0, 0.0, t0)
        for k, step in stencils:
            expect = fd_oracle(f, at, (0, 0, k), step=step)
            assert abs(jets[part].derivative(k) - expect) \
                <= bound * max(1.0, abs(expect)), (part, k)


@pytest.mark.parametrize("b", [1.0, -1.0, 0.35, -2.7, 0.0])
@pytest.mark.parametrize("nonlinear", [False, True])
def test_wp_jet_matches_finite_differences_of_wp(b, nonlinear):
    # wide stencils and a loose bound
    _wp_jet_against_finite_differences(
        b, nonlinear, ((1, 0.01), (2, 0.01), (3, 0.02), (4, 0.05)), 1e-4)


@pytest.mark.parametrize("b", [1.0, -1.0, 0.35, -2.7, 0.0])
@pytest.mark.parametrize("nonlinear", [False, True])
def test_wp_jet_matches_tight_finite_differences_of_wp(b, nonlinear):
    # the float wp is good to a few ulps, so stencils whose 1/step^k
    # roundoff gain would expose 1e-12 noise in wp still agree closely
    _wp_jet_against_finite_differences(
        b, nonlinear, ((1, 0.002), (2, 0.004), (3, 0.008), (4, 0.02)), 1e-5)


def test_wp_periodicity_on_real_axis():
    b = 1.3
    T = real_period(b)
    for z in (0.4, 1.1):
        assert_allclose(wp(z + T, b)[0], wp(z, b)[0], rtol=1e-10)
        assert_allclose(wp(z + T, b)[1], wp(z, b)[1], rtol=1e-10,
                        atol=1e-10)


def test_wp_pole_behaviour_near_origin():
    # wp(z; 0, b) = z^-2 + (b/28) z^4 + O(z^10) near the pole
    for b in (1.0, -1.0):
        for z in (1e-2, 3e-2):
            assert abs(wp(z, b)[0] - 1.0 / z**2 - b * z**4 / 28.0) \
                < 1e-10 / z**2


def test_wp_degenerate_b_zero_is_inverse_square():
    for z in (0.3, 1.7, -2.2):
        P, dP = wp(z, 0.0)
        assert_allclose(P, 1.0 / z**2, rtol=1e-12)
        assert_allclose(dP, -2.0 / z**3, rtol=1e-12)


def test_wp_evenness():
    assert_allclose(wp(0.7, 2.0)[0], wp(-0.7, 2.0)[0], rtol=1e-12)
    assert_allclose(wp(0.7, 2.0)[1], -wp(-0.7, 2.0)[1], rtol=1e-12)


def test_wp_pole_guard():
    with pytest.raises(PoleProximityError):
        wp(1e-9, 1.0)
    T = real_period(1.0)
    with pytest.raises(PoleProximityError):
        wp(T + 1e-9, 1.0)


def test_complete_elliptic_k_frozen_value():
    assert abs(complete_elliptic_k(1.0 / math.sqrt(2.0)) - K_HALF_SQRT2) \
        < 1e-13


def test_jacobi_identities_and_special_values():
    k = 0.6
    for u in (0.0, 0.31, 1.2, 2.7):
        sn, cn, dn = jacobi_sn_cn_dn(u, k)
        assert abs(sn * sn + cn * cn - 1.0) < 1e-12
        assert abs(dn * dn + k * k * sn * sn - 1.0) < 1e-12
    K = complete_elliptic_k(k)
    sn, cn, dn = jacobi_sn_cn_dn(K, k)
    assert abs(sn - 1.0) < 1e-10 and abs(cn) < 1e-10
    # k = 0 degenerates to circular functions
    sn, cn, dn = jacobi_sn_cn_dn(0.9, 0.0)
    assert_allclose([sn, cn, dn], [math.sin(0.9), math.cos(0.9), 1.0],
                    rtol=1e-12, atol=1e-12)


def test_sn_imaginary_modulus_frozen_value_and_oddness():
    assert abs(sn_imaginary_modulus(1.0) - SN_I_AT_1) < 1e-12
    assert_allclose(sn_imaginary_modulus(-0.8),
                    -sn_imaginary_modulus(0.8), rtol=1e-12)
    assert sn_imaginary_modulus(0.0) == 0.0


def test_sn_imaginary_modulus_zero_locus():
    # first positive zero at sqrt(2) K(1/sqrt(2))
    z0 = math.sqrt(2.0) * K_HALF_SQRT2
    assert abs(sn_imaginary_modulus(z0)) < 1e-10


@pytest.mark.parametrize("u", [0.2, 0.9, 1.8, 2.4])
def test_sn_imaginary_modulus_differential_equation(u):
    # y = sn(u; i) satisfies (y')^2 = 1 - y^4 and y'' = -2 y^3
    j = sn_imaginary_modulus_jet(u)
    y, y1, y2 = j.value, j.derivative(1), j.derivative(2)
    assert abs(y1 * y1 - (1.0 - y**4)) < 1e-10
    assert abs(y2 + 2.0 * y**3) < 1e-9


def test_hyp2f1_at_origin_and_simple_closed_forms():
    assert hyp2f1(0.5, 0.75, 1.5, 0.0) == 1.0
    # 2F1(1, 1; 2; z) = -log(1 - z)/z
    for z in (0.1, 0.45, 0.8):
        assert_allclose(hyp2f1(1.0, 1.0, 2.0, z), -math.log1p(-z) / z,
                        rtol=1e-9)
    # 2F1(a, b; b; z) = (1 - z)^(-a)
    for z in (0.2, 0.65):
        assert_allclose(hyp2f1(0.7, 2.0, 2.0, z), (1.0 - z) ** -0.7,
                        rtol=1e-9)


def test_hyp2f1_jet_derivative_contiguity():
    # d/dz 2F1(a, b; c; z) = (a b / c) 2F1(a+1, b+1; c+1; z)
    a, b, c = 0.5, 0.75, 1.5
    for z in (0.15, 0.5, 0.85):
        j = hyp2f1(a, b, c, Jet1.variable(z))
        expect = (a * b / c) * hyp2f1(a + 1, b + 1, c + 1, z)
        assert abs(j.derivative(1) - expect) <= 1e-9 * max(1.0, abs(expect))


def test_hyp2f1_jet_higher_coefficients_converged():
    # the z = 0.9 tail is the slowest case used by the parametric family
    j = hyp2f1(0.5, 0.75, 1.5, Jet1.variable(0.9))
    step = 1e-5
    up = hyp2f1(0.5, 0.75, 1.5, 0.9 + step)
    dn = hyp2f1(0.5, 0.75, 1.5, 0.9 - step)
    fd2 = (up - 2.0 * hyp2f1(0.5, 0.75, 1.5, 0.9) + dn) / step**2
    assert abs(j.derivative(2) - fd2) <= 1e-5 * max(1.0, abs(fd2))


def test_hyp2f1_domain_guard():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.75, 1.5, 1.2)
