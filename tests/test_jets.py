"""Truncated Taylor arithmetic against finite differences and closed forms."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewhorizon.errors import SingularJetError
from ewhorizon.jets import ORDER, Jet1, Jet3, Point, fd_oracle


def jet1_of(fn, x):
    """Jet of a scalar function built from jet arithmetic."""
    return fn(Jet1.variable(x))


def test_variable_jet_coefficients():
    j = Jet1.variable(1.7)
    assert_allclose(j.coeffs, [1.7, 1.0, 0.0, 0.0, 0.0])
    assert j.value == 1.7
    assert j.derivative(1) == 1.0
    assert j.derivative(4) == 0.0


def test_polynomial_arithmetic_exact():
    x = 0.3
    j = Jet1.variable(x)
    p = 2.0 * j**3 - j * j + 4.0 * j - 7.0
    # derivatives of 2x^3 - x^2 + 4x - 7
    assert_allclose(p.derivatives(),
                    [2 * x**3 - x**2 + 4 * x - 7,
                     6 * x**2 - 2 * x + 4, 12 * x - 2, 12.0, 0.0],
                    rtol=0, atol=1e-15)


def test_division_roundtrip():
    j = jet1_of(lambda t: t.sin() + 2.0, 0.9)
    k = jet1_of(lambda t: t.exp() - 0.5, 0.9)
    assert_allclose(((j / k) * k).coeffs, j.coeffs, rtol=1e-14)
    assert_allclose((1.0 / (1.0 / j)).coeffs, j.coeffs, rtol=1e-14)


@pytest.mark.parametrize("fn, x", [
    (lambda t: t.exp(), 0.4),
    (lambda t: t.log(), 1.7),
    (lambda t: t.sin(), 2.1),
    (lambda t: t.cos(), -0.8),
    (lambda t: t.tan(), 0.5),
    (lambda t: t.tanh(), -1.2),
    (lambda t: t.sqrt(), 2.3),
    (lambda t: t.atan(), 0.7),
    (lambda t: (t.sin() + 2.0).powr(1.5), 1.1),
    (lambda t: (t * t + 1.0).log().exp() - t.cos() / (t + 3.0), 0.6),
])
def test_elementary_jets_match_finite_differences(fn, x):
    j = jet1_of(fn, x)

    def scalar(p):
        return fn(Jet1.variable(p.x)).value

    p0 = Point(0.0, 0.0, x)
    for k in range(1, ORDER + 1):
        ref = fd_oracle(scalar, p0, (0, 0, k))
        assert abs(j.derivative(k) - ref) <= 1e-5 * max(1.0, abs(ref))


def test_trig_pythagoras_identity():
    j = Jet1.variable(0.77)
    s, c = j.sin(), j.cos()
    assert_allclose((s * s + c * c).coeffs, [1, 0, 0, 0, 0], atol=1e-15)


def test_exp_log_inverse_pair():
    j = jet1_of(lambda t: t * t + 0.5, 1.3)
    assert_allclose(j.log().exp().coeffs, j.coeffs, rtol=1e-14, atol=1e-14)
    assert_allclose(j.exp().log().coeffs, j.coeffs, rtol=1e-14, atol=1e-14)


def test_tanh_against_exponentials():
    j = Jet1.variable(0.35)
    e2 = (2.0 * j).exp()
    assert_allclose(j.tanh().coeffs, ((e2 - 1.0) / (e2 + 1.0)).coeffs,
                    rtol=1e-13)


def test_powr_against_exp_log():
    j = jet1_of(lambda t: t.cos() + 1.5, 0.2)
    assert_allclose(j.powr(2.5).coeffs, (2.5 * j.log()).exp().coeffs,
                    rtol=1e-13)


def test_atan_derivative_relation():
    j = Jet1.variable(0.9)
    lhs = j.atan().d()
    rhs = 1.0 / (1.0 + j * j)
    assert_allclose(lhs.coeffs[:ORDER], rhs.coeffs[:ORDER], rtol=1e-13)


def test_d_shifts_coefficients():
    j = jet1_of(lambda t: t.exp() * t.sin(), 0.6)
    dj = j.d()
    for k in range(ORDER):
        assert_allclose(dj.derivative(k), j.derivative(k + 1), rtol=1e-14)
    assert dj.coeffs[ORDER] == 0.0


def test_from_derivatives_roundtrip():
    vals = [2.0, -1.0, 3.0, 0.5, -4.0]
    assert_allclose(Jet1.from_derivatives(vals).derivatives(), vals,
                    rtol=1e-15)


def test_singular_reciprocal_raises():
    j = Jet1.variable(0.0)  # value 0
    with pytest.raises(SingularJetError):
        1.0 / j
    with pytest.raises(SingularJetError):
        j.log()


# ---------------------------------------------------------------------------
# three-variable jets
# ---------------------------------------------------------------------------

def test_jet3_variable_partials():
    p = Point(0.3, 1.1, -0.4)
    for axis in range(3):
        j = Jet3.variable(p, axis)
        assert j.value == p[axis]
        mi = [0, 0, 0]
        mi[axis] = 1
        assert j.partial(tuple(mi)) == 1.0


def test_jet3_product_partials_match_fd():
    p = Point(0.4, 0.9, -0.2)

    def field(q):
        return math.exp(q.nu) * math.sin(q.r + 2.0 * q.x) + q.r * q.x**2

    def jets(q):
        nu, r, x = (Jet3.variable(q, 0), Jet3.variable(q, 1),
                    Jet3.variable(q, 2))
        return nu.exp() * (r + 2.0 * x).sin() + r * x * x

    j = jets(p)
    for mi in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
               (2, 0, 0), (0, 0, 2), (1, 1, 1), (2, 2, 0), (0, 2, 2),
               (1, 0, 3), (4, 0, 0), (0, 0, 4)]:
        ref = fd_oracle(field, p, mi)
        assert abs(j.partial(mi) - ref) <= 1e-5 * max(1.0, abs(ref)), mi


def test_jet3_from_axis_jet_embeds_univariate():
    p = Point(0.5, -0.3, 1.2)
    hx = Jet1.variable(p.x).sin()
    j = Jet3.from_axis_jet(hx, 2)
    assert j.value == hx.value
    assert j.partial((0, 0, 1)) == hx.derivative(1)
    assert j.partial((0, 0, 3)) == hx.derivative(3)
    assert j.partial((1, 0, 0)) == 0.0
    assert j.partial((0, 1, 1)) == 0.0


def test_jet3_directional_derivative_helper():
    p = Point(0.2, 0.7, -0.5)
    r, x = Jet3.variable(p, 1), Jet3.variable(p, 2)
    j = (r * r * x).exp()
    dr = j.d(1)
    # d/dr exp(r^2 x) = 2 r x exp(r^2 x)
    expect = (2.0 * r * x * (r * r * x).exp())
    assert_allclose(dr.value, expect.value, rtol=1e-14)
    assert_allclose(dr.partial((0, 0, 1)), expect.partial((0, 0, 1)),
                    rtol=1e-13)


def test_point_shift_and_indexing():
    p = Point(1.0, 2.0, 3.0)
    assert (p[0], p[1], p[2]) == (1.0, 2.0, 3.0)
    q = p.shifted(1, -0.25)
    assert (q.nu, q.r, q.x) == (1.0, 1.75, 3.0)


def test_fd_oracle_on_known_derivative():
    # d^2/dnu dr of nu^2 r^3 is 2 * 3 r^2 * nu -> at (0.7, 1.2): 6.048
    def f(p):
        return p.nu**2 * p.r**3

    got = fd_oracle(f, Point(0.7, 1.2, 0.0), (1, 1, 0))
    assert abs(got - 6.0 * 0.7 * 1.2**2) < 1e-8


def test_fd_oracle_validates_multi_index():
    f = lambda p: p.x
    with pytest.raises(ValueError):
        fd_oracle(f, Point(0, 0, 0), (1, 2, 3))  # order 6 > 4
    with pytest.raises(ValueError):
        fd_oracle(f, Point(0, 0, 0), (1, -1, 0))
