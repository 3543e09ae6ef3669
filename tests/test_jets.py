"""Truncated Taylor arithmetic against finite differences and closed forms."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewhorizon import jets, specfun
from ewhorizon.errors import EwhError, SingularJetError, WindowError
from ewhorizon.jets import (_COUNT, _MUL_A, _MUL_B, _MUL_T, N3, ORDER, Jet1,
                            Jet3, Point, PointBatch, fd_oracle, rounded,
                            stacked_partials)
from ewhorizon.nearhorizon import (antiderivative, build_family, field_sin,
                                   named_h_field, ode2_jet, thm1_F_field)
from ewhorizon.odesolve import IvpSpec, integrate
from ewhorizon.specfun import (real_period, sn_imaginary_modulus_jet, wp,
                               wp_jet)


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
    assert_allclose([p.derivative(k) for k in range(ORDER + 1)],
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
    j = Jet1.from_derivatives(vals)
    assert_allclose([j.derivative(k) for k in range(ORDER + 1)], vals,
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


# ---------------------------------------------------------------------------
# batches: every column is the single-point jet, bit for bit
# ---------------------------------------------------------------------------

BATCH_SIZES = (1, 7, 25)


def _batch(size, seed=0, x=0.37):
    rng = np.random.default_rng(seed)
    return PointBatch(rng.uniform(-1.5, 1.5, size),
                      rng.uniform(-1.5, 1.5, size), x)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _assert_columns(fn, batch):
    """fn(batch) stacks fn(point) over the batch's points along its last
    axis, bit for bit (signed zeros included)."""
    got = fn(batch)
    want = np.stack([np.asarray(fn(p), dtype=float)
                     for p in batch.points()], axis=-1)
    assert np.shape(got) == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def _vars(p):
    return (Jet3.variable(p, 0), Jet3.variable(p, 1), Jet3.variable(p, 2))


_RING = {
    "add-sub": lambda nu, r, x: nu + r - x - nu,
    "mul": lambda nu, r, x: nu * r * (r + x),
    "div": lambda nu, r, x: (nu + 2.0 * x) / (r * r + 0.5),
    "pow-int": lambda nu, r, x: (nu + r) ** 3 + (r + 2.0) ** -2,
    "pow-real": lambda nu, r, x: (nu * nu + 1.0 + x) ** 1.5,
    "scalar-mix": lambda nu, r, x: (2.5 - nu) * 0.3 + 1 - r / 4.0
    + 3.0 / (nu + 2.0) - 2 * r,
}


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(_RING))
def test_batch_ring_operations_match_columns(size, name):
    _assert_columns(lambda p: _RING[name](*_vars(p)).coeffs, _batch(size))


_ELEMENTARY = {
    "exp": lambda nu, r, x: (nu * r + x).exp(),
    "tanh": lambda nu, r, x: (0.7 * nu - r + x).tanh(),
    "powr": lambda nu, r, x: (r * r + nu * x + 2.0).powr(-0.75),
    "reciprocal": lambda nu, r, x: (nu - 2.0 * r + 4.0)._reciprocal(),
}


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(_ELEMENTARY))
def test_batch_elementary_functions_match_columns(size, name):
    _assert_columns(lambda p: _ELEMENTARY[name](*_vars(p)).coeffs,
                    _batch(size, seed=1))


def _field(p):
    nu, r, x = _vars(p)
    return (nu * r * r + x).sin() * (r - nu * x).exp()


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_batch_derivatives_match_columns(size):
    batch = _batch(size, seed=2)
    for axis in range(3):
        _assert_columns(lambda p: _field(p).d(axis).coeffs, batch)
    for mi in [(0, 0, 0), (1, 0, 0), (0, 2, 1), (1, 1, 1), (0, 0, 4)]:
        _assert_columns(lambda p: _field(p).partial(mi), batch)
    for order in range(ORDER + 1):
        _assert_columns(
            lambda p: stacked_partials(_field(p).coeffs, order), batch)


@pytest.mark.parametrize("size", BATCH_SIZES)
def test_scalar_jet_times_batched_jet(size):
    batch = _batch(size, seed=3)
    hx = Jet3.from_axis_jet(Jet1.variable(batch.x).sin(), 2)
    assert hx.coeffs.shape == (Jet3._N,)  # x alone stays unbatched
    _assert_columns(lambda p: (hx * Jet3.variable(p, 1)).coeffs, batch)
    _assert_columns(lambda p: (Jet3.variable(p, 0) * hx + hx).coeffs, batch)
    # with a batch of numbers, one per point
    _assert_columns(lambda p: (hx * p.r - p.nu).coeffs, batch)
    _assert_columns(lambda p: (p.nu - hx / p.r).coeffs, batch)


def _x_batch(size, seed=4):
    """A batch whose points each have their own x, some x repeated."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.9, 0.9, 7)
    return PointBatch(rng.uniform(-1.5, 1.5, size),
                      rng.uniform(-1.5, 1.5, size), xs[np.arange(size) % 7])


@pytest.mark.parametrize("size", (1, 7, 25))
def test_x_spanning_batch_matches_columns(size):
    batch = _x_batch(size)
    assert Jet3.variable(batch, 2).coeffs.shape == (Jet3._N, size)
    for fn in list(_RING.values()) + list(_ELEMENTARY.values()):
        _assert_columns(lambda p: fn(*_vars(p)).coeffs, batch)
    for axis in range(3):
        _assert_columns(lambda p: _field(p).d(axis).coeffs, batch)
    for order in range(ORDER + 1):
        _assert_columns(
            lambda p: stacked_partials(_field(p).coeffs, order), batch)


def _profile(x):
    return (Jet1.variable(x).sin() * 2.0 + 0.5).exp()


def test_stacked_jet1_lifts_and_differentiates_column_for_column():
    batch = _x_batch(25)
    hs = [_profile(x) for x in batch.x.tolist()]
    stacked = Jet1._raw(np.stack([h.coeffs for h in hs], axis=1))
    assert stacked.coeffs.shape == (ORDER + 1, 25)
    assert np.array_equal(_bits(stacked.value), _bits([h.value for h in hs]))
    assert np.array_equal(_bits(stacked.d().coeffs),
                          _bits(np.stack([h.d().coeffs for h in hs], -1)))

    def lifted(p):
        # at the batch, the stacked jets; at a point, that x's own jet
        h = stacked if p is batch else _profile(p.x)
        h3, hp3 = Jet3.from_axis_jet(h, 2), Jet3.from_axis_jet(h.d(), 2)
        return h3, hp3, h3 * Jet3.variable(p, 1) + hp3 * hp3

    for k in range(3):
        _assert_columns(lambda p: lifted(p)[k].coeffs, batch)
        _assert_columns(lambda p: lifted(p)[k].d(2).coeffs, batch)


def test_batch_value_and_partial_types():
    batch, point = _batch(4), Point(0.1, 0.2, 0.3)
    assert isinstance(Jet3.variable(point, 1).value, float)
    assert isinstance(Jet3.variable(point, 1).partial((0, 1, 0)), float)
    v = Jet3.variable(batch, 1)
    assert v.coeffs.shape == (Jet3._N, 4)
    assert np.array_equal(v.value, batch.r)
    assert np.array_equal(v.partial((0, 1, 0)), np.ones(4))


def test_batch_raises_at_its_first_failing_column():
    batch = PointBatch(np.zeros(3), np.array([1.0, -2.0, -3.0]), 0.0)
    with pytest.raises(SingularJetError, match="-2.0"):
        Jet3.variable(batch, 1).log()


def test_point_batch_validation():
    with pytest.raises(ValueError):
        PointBatch(np.zeros(2), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        PointBatch(np.array([0.0, np.nan]), np.zeros(2), 0.0)
    assert [p.r for p in _batch(3).points()] == _batch(3).r.tolist()
    with pytest.raises(ValueError):
        PointBatch(np.zeros(2), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        PointBatch(np.zeros(2), np.zeros(2), np.array([0.0, np.inf]))
    batch = _x_batch(9)
    assert [p.x for p in batch.points()] == batch.x.tolist()
    assert _batch(3).x == 0.37  # a shared x stays one number


@pytest.mark.parametrize("fn, v", [
    (lambda j: j.exp(), 800.0),
    (lambda j: j.powr(3.5), 1e200),
    (lambda j: 1.0 / j, 1e-200),
    (lambda j: j.sqrt(), 1e-300),
])
def test_overflowing_derivative_table_is_a_singular_jet(fn, v):
    for jet in (Jet1.variable(v),
                Jet3.variable(PointBatch(np.array([1.0, v]), np.zeros(2),
                                         0.0), 0)):
        with pytest.raises(SingularJetError, match=re.escape(repr(v))):
            fn(jet)


# ---------------------------------------------------------------------------
# batched Jet1: every column is the scalar jet, bit for bit
# ---------------------------------------------------------------------------

# ±0, subnormals, values whose products overflow, and ordinary numbers
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.7e-315,
                     1e300, -1e300, 1.0, -1.0])


def _mixed_columns(rng, n):
    """(5, n) coefficients: normal values over 20 decades, about a third
    of the entries replaced by special ones."""
    c = rng.standard_normal((ORDER + 1, n)) * 10.0 ** rng.integers(
        -10, 10, (ORDER + 1, n))
    special = rng.random(c.shape) < 0.35
    c[special] = rng.choice(_SPECIAL, int(special.sum()))
    return c


# one recipe at any width, down to one column
@pytest.mark.parametrize("size", (1, 2, 3, 4, 5, 64, 65))
def test_batched_jet1_product_is_np_convolve_bit_for_bit(size):
    rng = np.random.default_rng(size)
    n = 20_000 // size * size + size  # over 20 000 columns in all
    a, b = _mixed_columns(rng, n), _mixed_columns(rng, n)
    want = np.stack([np.convolve(a[:, k], b[:, k])[:ORDER + 1]
                     for k in range(n)], axis=1)
    assert np.isinf(want).any() and np.isnan(want).any()
    got = np.concatenate(
        [(Jet1(a[:, i:i + size]) * Jet1(b[:, i:i + size])).coeffs
         for i in range(0, n, size)], axis=1)
    assert np.array_equal(_bits(got), _bits(want))
    # one single-column factor broadcasts against a batch
    got = (Jet1(a[:, :1]) * Jet1(b[:, :size])).coeffs
    want = np.stack([np.convolve(a[:, 0], b[:, k])[:ORDER + 1]
                     for k in range(size)], axis=1)
    assert np.array_equal(_bits(got), _bits(want))


def _bincount_product(a, b):
    """The Jet3 product of coefficients a and b by its definition: the
    table's products gathered into fresh arrays, summed per target."""
    p = a[_MUL_A] * b[_MUL_B]
    n = p[0].size
    t = (_MUL_T[:, None] * n + np.arange(n)).ravel()
    return np.bincount(t, weights=p.ravel(),
                       minlength=N3 * n).reshape((N3,) + p.shape[1:])


# the product gathers into a workspace of 128 columns it reuses (fresh
# gathers past that): bit for bit the bincount of the gathered products,
# at a Point, at batches, and with one factor broadcast
@pytest.mark.parametrize("size", (None, 1, 25, 64, 125, 128, 129))
def test_jet3_product_is_the_bincount_of_the_table_products(size):
    rng = np.random.default_rng(size or 0)
    shape = (N3,) if size is None else (N3, size)
    a, b = (rng.standard_normal(shape) * 10.0 ** rng.integers(-160, 160,
                                                             shape)
            for _ in range(2))
    specials = np.array([np.nan, np.inf, -np.inf, -0.0])
    for c in (a, b):
        c[rng.random(shape) < 0.05] = -0.0
        c.flat[rng.choice(c.size, 4, replace=False)] = specials
    pairs = [(a, b), (b, a)]
    if size is not None:
        pairs += [(a[:, :1], b), (a, b[:, -1:])]
    with np.errstate(over="ignore", invalid="ignore"):
        got = [(Jet3(x) * Jet3(y)).coeffs for x, y in pairs]
        want = [_bincount_product(x, y) for x, y in pairs]
    # each product is its own array: a later one leaves it as it was
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(_bits(g), _bits(w))


def _operand_pairs(size, seed):
    """Coefficient pairs of order 4 with every kind of entry (normal
    numbers over 320 decades, NaN, +-inf and -0.0), at a Point (size
    None) or a batch, with one factor broadcast at a batch."""
    rng = np.random.default_rng(seed)
    shape = (N3,) if size is None else (N3, size)
    a, b = (rng.standard_normal(shape) * 10.0 ** rng.integers(-160, 160,
                                                             shape)
            for _ in range(2))
    specials = np.array([np.nan, np.inf, -np.inf, -0.0])
    for c in (a, b):
        c[rng.random(shape) < 0.05] = -0.0
        # the specials land in the leading rows, which every order reads
        c.flat[rng.choice(_COUNT[2] * (c.size // N3), 4, replace=False)] \
            = specials
    pairs = [(a, b), (b, a)]
    if size is not None:
        pairs += [(a[:, :1], b), (a, b[:, -1:])]
    return pairs


# a product of jets of order k (their first _COUNT[k] coefficients) is the
# leading rows of the order-4 product, bit for bit: each target sums the
# same pairs in the same order
@pytest.mark.parametrize("size", (None, 1, 125, 128, 129))
def test_lower_order_products_are_the_leading_rows_of_order_4(size):
    for a, b in _operand_pairs(size, 11 + (size or 0)):
        with np.errstate(over="ignore", invalid="ignore"):
            full = (Jet3(a) * Jet3(b)).coeffs
            for k in range(ORDER):
                n = _COUNT[k]
                got = (Jet3._raw(a[:n]) * Jet3._raw(b[:n])).coeffs
                assert got.shape == (n,) + full.shape[1:]
                assert np.array_equal(_bits(got), _bits(full[:n]))


_MIXED = {
    "add": lambda u, v: u + v,
    "sub": lambda u, v: u - v,
    "mul": lambda u, v: u * v,
    "div": lambda u, v: u / v,
}


# an operation on jets of two orders is the one on both cut to the lower
@pytest.mark.parametrize("name", sorted(_MIXED))
@pytest.mark.parametrize("batched", (False, True))
def test_mixed_order_operations_truncate_to_the_lower_order(name, batched):
    op = _MIXED[name]
    p = _batch(7) if batched else Point(0.3, -0.8, 0.45)
    for lo, hi in ((1, 4), (2, 3), (2, 4), (3, 4), (0, 2)):
        n = _COUNT[lo]
        u = (Jet3.variable(p.at_order(hi), 1) + 2.0).exp()
        v = Jet3.variable(p.at_order(lo), 2) * 0.5 - 1.5
        cut = Jet3._raw(u.coeffs[:n])
        assert np.array_equal(_bits(op(u, v).coeffs), _bits(op(cut, v).coeffs))
        assert np.array_equal(_bits(op(v, u).coeffs), _bits(op(v, cut).coeffs))
        # which is the leading rows of the operation at order 4
        u4 = (Jet3.variable(p, 1) + 2.0).exp()
        v4 = Jet3.variable(p, 2) * 0.5 - 1.5
        assert op(u, v).coeffs.shape == (n,) + op(u4, v4).coeffs.shape[1:]
        assert np.array_equal(_bits(op(u, v).coeffs),
                              _bits(op(u4, v4).coeffs[:n]))


def test_a_users_jet3_keeps_order_4():
    p, batch = Point(0.2, 0.7, -0.5), _batch(5)
    assert p.order == batch.order == ORDER
    for j in (Jet3(np.ones(N3)), Jet3(np.ones((N3, 3))),
              Jet3.constant(2.0), Jet3.constant(np.ones(4)),
              Jet3.variable(p, 1), Jet3.variable(batch, 2),
              Jet3.from_axis_jet(Jet1.variable(0.3).sin(), 2),
              Jet3.variable(p, 1).d(1), Jet3.variable(batch, 0).d(2),
              Jet3.variable(p, 0) * Jet3.constant(3.0)):
        assert j.coeffs.shape[0] == N3
    with pytest.raises(ValueError, match="needs 35 coefficients"):
        Jet3(np.ones(10))
    # order travels with the points, and is checked
    assert p.at_order(2).shifted(1, 0.1).order == 2
    assert {q.order for q in batch.at_order(3).points()} == {3}
    assert p.at_order(ORDER) is p
    for bad in (-1, 5, 2.5):
        with pytest.raises(ValueError, match="jet order"):
            Point(0.0, 0.0, 0.0, bad)


def test_lower_order_jets_hold_the_leading_coefficients():
    p, batch = Point(0.2, 0.7, -0.5), _batch(6)
    hx = Jet1.variable(0.3).sin()
    for k in range(ORDER + 1):
        n = _COUNT[k]
        for q in (p, batch):
            for axis in range(3):
                got = Jet3.variable(q.at_order(k), axis).coeffs
                assert np.array_equal(got, Jet3.variable(q, axis).coeffs[:n])
        got = Jet3.from_axis_jet(hx, 1, k).coeffs
        assert np.array_equal(got, Jet3.from_axis_jet(hx, 1).coeffs[:n])
    # d drops an order below 4, and keeps every order it keeps exact
    j4 = (Jet3.variable(batch, 0) * Jet3.variable(batch, 2)).sin()
    for k in range(1, ORDER):
        jk = (Jet3.variable(batch.at_order(k), 0)
              * Jet3.variable(batch.at_order(k), 2)).sin()
        for axis in range(3):
            got = jk.d(axis).coeffs
            assert got.shape[0] == _COUNT[k - 1]
            assert np.array_equal(_bits(got),
                                  _bits(j4.d(axis).coeffs[:_COUNT[k - 1]]))
    with pytest.raises(ValueError, match="order-0"):
        Jet3.variable(p.at_order(0), 1).d(1)


_JET1_FNS = {
    "ring": lambda j: (j * j - 2.0 * j + 1.5) * (j + 0.25) - j / 3.0,
    "scalar-left": lambda j: 2.0 - j + 0.5 * j - 1,
    "pow-int": lambda j: j ** 3 + (j + 4.0) ** -2,
    "reciprocal": lambda j: (j + 4.0)._reciprocal(),
    "quotient": lambda j: (j * j + 1.0) / (j - 5.0),
    "exp": lambda j: (0.8 * j).exp(),
    "sin": lambda j: (j * j).sin(),
    "tanh": lambda j: (1.3 * j - 0.2).tanh(),
    "powr": lambda j: (j * j + 2.0).powr(-0.75),
    "d": lambda j: (j.sin() * j).d().d(),
}


@pytest.mark.parametrize("size", (1, 2, 3, 64, 65))
@pytest.mark.parametrize("name", sorted(_JET1_FNS))
def test_batched_jet1_operations_match_columns(size, name):
    fn = _JET1_FNS[name]
    xs = np.random.default_rng(7).uniform(-1.5, 1.5, size)
    xs[0] = -0.0  # a signed zero keeps its bits
    got = fn(Jet1.variable(xs)).coeffs
    want = np.stack([fn(Jet1.variable(x)).coeffs for x in xs.tolist()],
                    axis=1)
    assert got.shape == (ORDER + 1, size)
    assert np.array_equal(_bits(got), _bits(want))


def test_jet1_batch_parity_with_jet3():
    xs = np.array([0.5, -1.0, 2.0])
    j = Jet1(np.zeros((ORDER + 1, 3)))
    assert j.coeffs.shape == (ORDER + 1, 3)
    assert Jet1.constant(xs).coeffs.shape == (ORDER + 1, 3)
    assert np.array_equal(Jet1.constant(xs).value, xs)
    v = Jet1.variable(xs)
    assert np.array_equal(v.coeffs[:2], [xs, np.ones(3)])
    assert np.array_equal(v.derivative(1), np.ones(3))
    assert np.array_equal(v.exp().derivative(2),
                          [math.exp(x) for x in xs.tolist()])
    assert isinstance(Jet1.variable(0.5).derivative(1), float)
    assert np.array_equal(Jet1.from_derivatives(
        [v.derivative(k) for k in range(ORDER + 1)]).coeffs, v.coeffs)
    with pytest.raises(ValueError, match=r"\(4, 3\)"):
        Jet1(np.zeros((4, 3)))
    with pytest.raises(ValueError):
        Jet1(np.zeros((ORDER + 1, 3, 2)))


def test_batched_jet1_raises_at_its_first_failing_column():
    with pytest.raises(SingularJetError, match="-2.0"):
        Jet1.variable(np.array([1.0, -2.0, -3.0])).log()


def test_a_batch_matches_its_points_in_nan_but_not_in_its_sign():
    # the one exception to a batch's bit parity, stated in the jets
    # docstring: a NaN coefficient is NaN in both, its sign not pinned
    xs = np.array([3.0, math.nan])
    got = Jet1.variable(xs).exp().coeffs
    want = np.stack([Jet1.variable(x).exp().coeffs for x in xs.tolist()],
                    axis=1)
    nan = np.isnan(want)
    assert nan[:, 1].all() and not nan[:, 0].any()
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(_bits(got[~nan]), _bits(want[~nan]))


# ---------------------------------------------------------------------------
# one pass at a batch of x: every entry is the float evaluation, bit for bit
# ---------------------------------------------------------------------------

_PASS_SIZES = (1, 5, 128, 201)
_ERRORS = (ArithmeticError, ValueError, EwhError)
# NaN, infinities, signed zeros, subnormals, and numbers whose powers
# overflow or underflow to zero
_EDGES = np.concatenate([_SPECIAL, [np.nan, np.inf, -np.inf, 1e160, -1e160,
                                    1e200, 1e-160, -1e-200, 1e-300]])


def _as_array(out):
    """An evaluation's numbers in one array: a jet's coefficients, and a
    tuple's entries stacked along a first axis."""
    if isinstance(out, (Jet1, Jet3)):
        return out.coeffs
    if isinstance(out, tuple):
        return np.stack([_as_array(o) for o in out])
    return np.asarray(out, dtype=float)


def _outcome(fn, point):
    try:
        return _as_array(fn(*point))
    except _ERRORS as e:
        return e


def _assert_one_pass(fn, *args):
    """fn at 1-D arrays among its arguments (entry k of each making up
    point k): where no point fails alone, the floats' evaluations
    stacked along a last axis, bit for bit; else what the first point to
    fail raises alone: its type, its text and a PoleProximityError's
    pole."""
    size = next(a.size for a in args if isinstance(a, np.ndarray))
    columns = [a.tolist() if isinstance(a, np.ndarray) else [a] * size
               for a in args]
    outcomes = [_outcome(fn, p) for p in zip(*columns)]
    failed = [o for o in outcomes if isinstance(o, Exception)]
    if failed:
        with pytest.raises(type(failed[0])) as info:
            fn(*args)
        assert str(info.value) == str(failed[0])
        assert repr(getattr(info.value, "nearest_pole", None)) \
            == repr(getattr(failed[0], "nearest_pole", None))
        return
    got = _as_array(fn(*args))
    want = np.stack(outcomes, axis=-1)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def _pools(fn, xs, args=()):
    """The xs at which fn(x, *args) evaluates, and those where it raises."""
    ok = [not isinstance(_outcome(fn, (x, *args)), Exception)
          for x in xs.tolist()]
    return xs[np.array(ok)], xs[~np.array(ok)]


def _check_batches(fn, xs, args=(), seed=0):
    """`_assert_one_pass` of fn(x, *args) at batches of each size drawn
    from xs: one of points that evaluate, and, where some x fails, the
    same with a failing x or two put in."""
    rng = np.random.default_rng(seed)
    good, bad = _pools(fn, xs, args)
    assert good.size
    for size in _PASS_SIZES:
        batch = rng.choice(good, size)
        _assert_one_pass(fn, batch, *args)
        if bad.size:
            at = rng.choice(size, min(size, 2), replace=False)
            batch[at] = rng.choice(bad, at.size)
            _assert_one_pass(fn, batch, *args)


def _xs(lo, hi, seed=0, edges=True):
    """Numbers on [lo, hi], with the _EDGES among them."""
    xs = np.random.default_rng(seed).uniform(lo, hi, 300)
    return np.concatenate([xs, _EDGES]) if edges else xs


# table -> the range its ordinary values are drawn from
_TABLES = {
    "_dt_exp": (-30.0, 30.0), "_dt_log": (1e-3, 50.0),
    "_dt_sin": (-20.0, 20.0), "_dt_cos": (-20.0, 20.0),
    "_dt_tan": (-1.5, 1.5), "_dt_tanh": (-5.0, 5.0),
    "_dt_sqrt": (1e-3, 50.0), "_dt_atan": (-20.0, 20.0),
    "_dt_recip": (-10.0, 10.0),
}


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_derivative_tables_take_a_batch_in_one_pass(name):
    xs = _xs(*_TABLES[name])
    if name == "_dt_tan":  # within 1e-12 of a pole: a SingularJetError
        xs = np.append(xs, [0.5 * math.pi, -0.5 * math.pi])
    _check_batches(getattr(jets, name), xs)


@pytest.mark.parametrize("p", (3.5, -0.75, 2.0, -3.0))
def test_power_table_and_powr_take_a_batch_in_one_pass(p):
    xs = _xs(1e-3, 50.0)
    _check_batches(jets._dt_pow, xs, (p,))
    # the composed jet at finite values: a jet at an infinity composes
    # with inf - inf, and at a NaN the batched product's NaNs need not
    # have np.convolve's sign (CHANGES.md)
    finite = xs[np.isfinite(xs)]
    _check_batches(lambda v: Jet1.variable(v).powr(p), finite)
    _check_batches(lambda v: (Jet1.variable(v) * 0.5 + 2.0).powr(p), finite)


def test_table_errors_name_the_first_failing_value():
    # an overflow (exp), a division by an underflowed power (recip, log)
    for dt, bad in ((jets._dt_exp, 800.0), (jets._dt_recip, 1e-200),
                    (jets._dt_log, 1e-170), (jets._dt_log, -2.0)):
        with pytest.raises(SingularJetError) as alone:
            dt(bad)
        assert repr(bad) in str(alone.value)
        with pytest.raises(SingularJetError) as batch:
            dt(np.array([0.5, bad, 2.0 * bad, bad / 3.0]))
        assert str(batch.value) == str(alone.value)


def _near_poles(b):
    """z within 1e-4 of poles of wp(.; 0, b), on either side."""
    T = 0.0 if b == 0.0 else real_period(b)
    return np.array([k * T + e for k in (-1, 0, 1) for e in (-1e-4, 0.0,
                                                             1e-4)])


@pytest.mark.parametrize("b", (1.0, -3.0, 0.0))
def test_wp_and_wp_jet_take_a_batch_in_one_pass(b):
    xs = np.concatenate([_xs(-3.0, 3.0, seed=1), _near_poles(b),
                         [-0.5 * real_period(1.0), -0.0]])
    _check_batches(wp, xs, (b,))
    finite = xs[np.isfinite(xs)]  # as for powr
    _check_batches(lambda z: wp_jet(Jet1.variable(z), b), finite)
    _check_batches(lambda z: wp_jet(Jet1.variable(z) * 0.5 + 1.25, b),
                   finite, seed=1)


def test_sn_jet_takes_a_batch_in_one_pass():
    # a NaN u divides NaN by dn = 0, which raises as a float division
    _check_batches(sn_imaginary_modulus_jet, _xs(-6.0, 6.0, seed=2))
    with pytest.raises(ZeroDivisionError):
        sn_imaginary_modulus_jet(np.array([0.3, np.nan]))


def test_ode2_jet_takes_a_batch_in_one_pass():
    rng = np.random.default_rng(3)
    values, slopes = _xs(-5.0, 5.0, seed=3), _xs(-5.0, 5.0, seed=4)
    for size in _PASS_SIZES:
        _assert_one_pass(ode2_jet, rng.choice(values, size),
                         rng.choice(slopes, size), 0.7, -1.3)
        _assert_one_pass(ode2_jet, rng.uniform(-5.0, 5.0, size),
                         rng.uniform(-5.0, 5.0, size), 0.7, -1.3)


@pytest.mark.parametrize("name", ("zero", "one", "sin", "linear"))
def test_named_h_integrals_take_a_batch_in_one_pass(name):
    h = named_h_field(name)
    _check_batches(lambda x: antiderivative(h, 0.3, x), _xs(-9.0, 9.0))


@pytest.mark.parametrize("x_end", (4.0, -4.0))
def test_trajectory_dense_reads_take_a_batch_in_one_pass(x_end):
    traj = integrate(IvpSpec(lambda x, y: (y[1], -y[0] * (1.0 + 0.1 * x)),
                             0.5, [0.2, 1.0]), x_end)
    lo, hi = sorted((0.5, x_end))
    xs = np.concatenate([_xs(lo, hi, seed=5, edges=False), traj.xs,
                         [lo, hi, lo - 1e-3, hi + 1e-3, np.nan, np.inf,
                          -np.inf]])
    _check_batches(traj, xs)
    # a read forms each step it touches once, as reads one by one do
    fresh = integrate(IvpSpec(traj._rhs, 0.5, [0.2, 1.0]), x_end)
    inside = xs[(lo <= xs) & (xs <= hi)]
    fresh(inside)
    assert fresh.rhs_calls == traj.rhs_calls


def test_profile_readers_take_a_batch_in_one_pass():
    # thm1's G, the hypergeometric z(x) and the numeric family's sides
    num = build_family("numeric", alpha=0.5, c=0.3, h0=1.0, h1=0.4)
    hyp = build_family("hypergeometric")
    thm1 = thm1_F_field(field_sin(), 0.4, 1.0)
    for fld in (num.field, hyp.field, thm1):
        lo, hi = fld.window
        lo, hi = max(lo, -6.0), min(hi, 6.0)
        xs = _xs(lo, hi, seed=6, edges=False)
        _check_batches(fld.evaluator, xs)


def test_a_batch_outside_the_window_raises_the_first_x_outside():
    fld = build_family("jacobi").field
    lo, hi = fld.window
    xs = np.array([0.5 * (lo + hi), hi + 1.0, lo - 2.0])
    with pytest.raises(WindowError) as alone:
        fld(hi + 1.0)
    with pytest.raises(WindowError) as batch:
        fld.at(xs)
    assert str(batch.value) == str(alone.value)
    # and a pole inside a profile's evaluator: the first x near it
    rat = build_family("rational", b=0.0).field
    _assert_one_pass(rat.evaluator, np.array([0.5, 1e-8, 2.0, -1e-9]))
    jac = build_family("jacobi").field
    _assert_one_pass(jac.evaluator, np.array([0.3, hi, lo, 0.7]))


def test_python_max_and_min_keep_a_nan_out():
    # max(-1.0, min(1.0, nan)) is 1.0, where np.clip gives NaN: the asin
    # argument of the amplitude recurrence is clipped as the builtins do
    assert max(-1.0, min(1.0, math.nan)) == 1.0
    assert np.isnan(np.clip(np.nan, -1.0, 1.0))
    got = specfun._max(-1.0, specfun._min(1.0, np.array(
        [math.nan, -0.0, 2.0, -3.0, 0.25])))
    want = [max(-1.0, min(1.0, v)) for v in (math.nan, -0.0, 2.0, -3.0,
                                              0.25)]
    assert np.array_equal(_bits(got), _bits(want))
    assert specfun._max(0.0, np.array([math.nan])).tolist() == [0.0]


def test_round_of_a_batch_is_python_round():
    # round(-0.5) is 0, where np.round gives -0.0
    assert round(-0.5) == 0 and math.copysign(1.0, float(round(-0.5))) > 0
    assert math.copysign(1.0, np.round(-0.5)) < 0
    vs = [-0.5, 0.5, 1.5, 2.5, -2.5, -0.4, -0.0, 1e300, -1e17 - 2.0]
    assert np.array_equal(_bits(rounded(np.array(vs))),
                          _bits([float(round(v)) for v in vs]))
    for bad, error in ((math.nan, ValueError), (math.inf, OverflowError)):
        with pytest.raises(error):
            round(bad)
        with pytest.raises(ValueError):
            rounded(np.array([1.0, bad]))


# every kind of number a jet meets takes one path through the ring
# operations: each result has the bits of its coefficient arithmetic
_NUMBERS = {
    "int": 3,
    "float": 0.7,
    "float64": np.float64(-1.3),
    "0-d": np.array(2.9),
    "1-d": np.array([0.3, -2.2, 5.1]),  # one per column of a 3-batch
}

# op name -> (the operation, its column's coefficients from the jet's
# column c and the number v, both in Python floats)
_NUMBER_OPS = {
    "add": (lambda j, v: j + v, lambda c, v: [c[0] + v, *c[1:]]),
    "radd": (lambda j, v: v + j, lambda c, v: [v + c[0], *c[1:]]),
    "sub": (lambda j, v: j - v, lambda c, v: [c[0] - v, *c[1:]]),
    "rsub": (lambda j, v: v - j,
             lambda c, v: [v - c[0], *(-a for a in c[1:])]),
    "mul": (lambda j, v: j * v, lambda c, v: [a * v for a in c]),
    "rmul": (lambda j, v: v * j, lambda c, v: [v * a for a in c]),
    "div": (lambda j, v: j / v, lambda c, v: [a / v for a in c]),
    # v / j is v times the reciprocal jet, whose columns c are then
    "rdiv": (lambda j, v: v / j, lambda c, v: [a * v for a in c]),
}


def _number_jets():
    """A Jet1 and a Jet3, each at one point and at a batch of 3."""
    xs = np.array([0.4, -0.8, 1.9])

    def jet3(p):
        nu, r, x = _vars(p)
        return (nu * r + x).exp()

    return [Jet1.variable(0.4).sin(), Jet1.variable(xs).sin(),
            jet3(Point(0.2, -0.5, 0.4)),
            jet3(PointBatch(np.array([0.2, 1.1, -0.6]),
                            np.array([-0.5, 0.3, 0.9]), xs))]


@pytest.mark.parametrize("number", sorted(_NUMBERS))
@pytest.mark.parametrize("op", sorted(_NUMBER_OPS))
def test_ring_operations_take_every_number_on_one_path(op, number):
    (fn, coeffs), v = _NUMBER_OPS[op], _NUMBERS[number]
    vs = np.broadcast_to(v, 3).tolist()
    for j in _number_jets():
        got = fn(j, v)
        assert type(got) is type(j)
        base = (j._reciprocal() if op == "rdiv" else j).coeffs
        columns = base.reshape(len(base), -1).T.tolist()
        if len(columns) == 1 and np.ndim(v):
            columns *= len(vs)  # a batch of numbers lifts the jet
        want = np.array([coeffs(c, float(w))
                         for c, w in zip(columns, vs)]).T
        if np.ndim(v) == 0 and base.ndim == 1:
            want = want[:, 0]
        assert np.array_equal(_bits(got.coeffs), _bits(want))
