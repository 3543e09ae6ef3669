"""Near-horizon structures: metric assembly, residual factorizations,
scalar reductions, and the Weierstrass construction.

The closed-form component identities asserted here (which metric slots
vanish identically, and what the surviving slots factor into) were
derived independently with symbolic jet algebra and are frozen as
oracles; the geometry code must reproduce them, not the other way
around.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewhorizon.curvature import cotton, ew_residual
from ewhorizon.errors import (DomainError, EwhError, PoleProximityError,
                              WindowError)
from ewhorizon.jets import Jet1, Point
from ewhorizon import nearhorizon, pdeverify
from ewhorizon.nearhorizon import (F_flat_from_h, F_from_h, F_from_h_field,
                                   F_ode_residual_chalf, NearHorizonData,
                                   ScalarField1D, antiderivative,
                                   field_linear, field_one, field_sin,
                                   field_zero, flatness_defect,
                                   named_h_field, nh_metric, nlode_residual,
                                   ode2_jet, ode2_residual,
                                   ode3_first_integral, ode4_monomials,
                                   ode4_residual,
                                   reduction_consistency, thm1_F_field,
                                   thm1_structure, weyl_oneform_generic)
from ewhorizon.report import _sweep_window
from ewhorizon.specfun import _pole_free_cell, real_period, wp

RNG = np.random.default_rng(20240917)


def germ(jet):
    """Field returning a fixed local germ; valid at a single x."""
    return ScalarField1D(lambda x, j=jet: j, label="germ")


def grid(xlo, xhi, n=4):
    return [Point(float(nu), float(r), float(x))
            for nu in np.linspace(-1.0, 1.0, n)
            for r in np.linspace(-1.0, 1.0, n)
            for x in np.linspace(xlo, xhi, n)]


def ew_max(d, pts, X=None):
    g = nh_metric(d)
    X = X if X is not None else weyl_oneform_generic(d)
    return max(float(np.max(np.abs(ew_residual(g, X, p)))) for p in pts)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_named_fields_and_windows():
    hs = field_sin()
    assert abs(hs(1.0).value - math.sin(1.0)) < 1e-15
    assert abs(hs(1.0).derivative(3) + math.cos(1.0)) < 1e-12
    assert hs.period == 2.0 * math.pi
    assert named_h_field("zero")(5.0).value == 0.0
    assert named_h_field("one")(5.0).value == 1.0
    assert named_h_field("linear")(2.0).value == 2.0
    with pytest.raises(DomainError):
        named_h_field("cosh")


def test_window_enforced():
    f = ScalarField1D(lambda x: Jet1.constant(0.0), window=(0.0, 1.0))
    assert f(0.5).value == 0.0
    with pytest.raises(WindowError):
        f(2.0)


def test_antiderivative_exact_and_quadrature():
    assert abs(antiderivative(field_sin(), 0.0, 2.0)
               - (1.0 - math.cos(2.0))) < 1e-14
    assert abs(antiderivative(field_linear(2.0, 1.0), 0.0, 3.0)
               - 12.0) < 1e-14
    # no closed form attached: falls back to quadrature
    f = ScalarField1D(lambda x: Jet1.variable(x).exp())
    assert abs(antiderivative(f, 0.0, 1.0) - (math.e - 1.0)) < 1e-10


# ---------------------------------------------------------------------------
# metric assembly
# ---------------------------------------------------------------------------

def test_nh_metric_components_and_determinant():
    h, F = field_sin(), field_one()
    d = NearHorizonData(h=h, F=F, c=-0.5)
    p = Point(0.7, 1.2, 0.4)
    gj = nh_metric(d).jets(p)
    gval = np.array([[j.value for j in row] for row in gj])
    hv = math.sin(0.4)
    expect = np.array([[1.2**2 * 1.0, 1.0, 1.2 * hv],
                       [1.0, 0.0, 0.0],
                       [1.2 * hv, 0.0, 1.0]])
    assert_allclose(gval, expect, rtol=1e-14, atol=1e-15)
    assert_allclose(np.linalg.det(gval), -1.0, rtol=1e-13)


def test_weyl_oneform_generic_components():
    h, F = field_sin(), field_one()
    c = 0.8
    d = NearHorizonData(h=h, F=F, c=c)
    p = Point(0.1, 0.9, 0.4)
    Xj = weyl_oneform_generic(d).jets(p)
    hv, hp = math.sin(0.4), math.cos(0.4)
    expect_nu = 0.9 * ((2 * c + 1) * hp + c * (2 * c + 1) * hv**2 - 2.0)
    assert_allclose(Xj[0].value, expect_nu, rtol=1e-14)
    assert Xj[1].value == 0.0
    assert_allclose(Xj[2].value, c * hv, rtol=1e-15)


# ---------------------------------------------------------------------------
# frozen component identities
# ---------------------------------------------------------------------------

def test_identity_generic_ansatz_nux_slot():
    # E_nux = (r/2)(2c+1)(h'' - 2 h F + 4 c h h' + 2 c^2 h^3); the rr,
    # rx, nur, xx slots vanish identically for the generic ansatz.
    for _ in range(6):
        c = float(RNG.uniform(-2, 2))
        hj = Jet1(RNG.normal(size=5))
        Fj = Jet1(RNG.normal(size=5))
        d = NearHorizonData(h=germ(hj), F=germ(Fj), c=c)
        p = Point(float(RNG.normal()), float(RNG.normal()), 0.0)
        E = ew_residual(nh_metric(d), weyl_oneform_generic(d), p)
        pred = 0.5 * p.r * (2 * c + 1) * (
            hj.derivative(2) - 2 * hj.value * Fj.value
            + 4 * c * hj.value * hj.derivative(1)
            + 2 * c**2 * hj.value**3)
        assert abs(E[0, 2] - pred) < 1e-9 * (1.0 + abs(pred))
        for slot in ((1, 1), (1, 2), (0, 1), (2, 2)):
            assert abs(E[slot]) < 1e-10


def test_identity_algebraic_F_reduces_to_quartic():
    # with F = F_from_h(h, c) the only surviving slot is
    # E_nunu = (r^2 / h^3) * ode4_residual(h, c)
    for _ in range(6):
        c = float(RNG.uniform(-2, 2))
        hj = Jet1(RNG.normal(size=5) + np.array([2.5, 0, 0, 0, 0]))
        hf = germ(hj)
        d = NearHorizonData(h=hf, F=F_from_h_field(hf, c), c=c)
        p = Point(0.3, float(RNG.normal()), 0.0)
        E = ew_residual(nh_metric(d), weyl_oneform_generic(d), p)
        pred = p.r**2 / hj.value**3 * ode4_residual(hj, c)
        assert abs(E[0, 0] - pred) < 1e-8 * (1.0 + abs(pred))
        assert abs(E[0, 2]) < 1e-9


def test_identity_chalf_reduces_to_F_equation():
    # at c = -1/2 the system collapses to
    # E_nunu = (r^2 / 4) * F_ode_residual_chalf(F, h) for any (h, F)
    for _ in range(6):
        hj = Jet1(RNG.normal(size=5))
        Fj = Jet1(RNG.normal(size=5))
        d = NearHorizonData(h=germ(hj), F=germ(Fj), c=-0.5)
        p = Point(-0.2, 0.7, 0.0)
        E = ew_residual(nh_metric(d), weyl_oneform_generic(d), p)
        pred = 0.25 * p.r**2 * F_ode_residual_chalf(Fj, hj)
        assert abs(E[0, 0] - pred) < 1e-9 * (1.0 + abs(pred))
        assert abs(E[0, 2]) < 1e-10


def test_F_from_h_closed_form_and_guard():
    hj = field_sin()(1.0)
    c = 0.7
    expect = (hj.derivative(2) + 4 * c * hj.value * hj.derivative(1)
              + 2 * c**2 * hj.value**3) / (2.0 * hj.value)
    assert abs(F_from_h(field_sin(), c, 1.0) - expect) < 1e-14
    with pytest.raises(DomainError):
        F_from_h(field_sin(), c, 0.0)  # h(0) = 0


# ---------------------------------------------------------------------------
# conformal flatness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_h", [field_one, field_sin,
                                    lambda: field_linear(1.0, 0.0)])
def test_flat_F_gives_zero_cotton(make_h):
    h = make_h()
    d = NearHorizonData(h=h, F=F_flat_from_h(h), c=-0.5)
    g = nh_metric(d)
    worst = max(float(np.max(np.abs(cotton(g, p))))
                for p in grid(-1.2, 1.2, 3))
    assert worst < 1e-9
    assert max(abs(flatness_defect(d, x)) for x in (-1.0, 0.3, 1.1)) < 1e-12


def test_non_flat_pair_has_nonzero_cotton():
    d = NearHorizonData(h=field_one(), F=field_one(), c=-0.5)
    g = nh_metric(d)
    worst = max(float(np.max(np.abs(cotton(g, p))))
                for p in grid(-1.2, 1.2, 3))
    assert worst > 1e-4
    assert abs(flatness_defect(d, 0.3) - (0.0 - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# scalar reductions
# ---------------------------------------------------------------------------

def test_reduction_consistency_formula():
    for alpha, c in ((0.0, 0.0), (1.0, 2.0), (-0.7, -1.3)):
        expect = 2.0 * (c - 1) ** 2 + 3.0 * alpha * (c - 1) + alpha**2
        assert abs(reduction_consistency(alpha, c) - expect) < 1e-15


def test_ode2_jet_and_quartic_factorization():
    worst = 0.0
    for _ in range(200):
        alpha = float(RNG.uniform(-3, 3))
        c = float(RNG.uniform(-3, 3))
        beta = reduction_consistency(alpha, c)
        hj = ode2_jet(float(RNG.uniform(-2, 2)), float(RNG.uniform(-2, 2)),
                      alpha, beta)
        assert abs(ode2_residual(hj, alpha, beta)) < 1e-12
        worst = max(worst, abs(ode4_residual(hj, c)))
    assert worst < 1e-9


def test_ode4_monomials_keep_the_literal_formula_bit_for_bit():
    # the monomials share their repeated powers; written out term by term
    # they must give the same bits, in floats and in numpy scalars
    rng = np.random.default_rng(20261018)
    for _ in range(3000):
        c = float(rng.uniform(-3.0, 3.0))
        y = rng.standard_normal(4) * 10.0 ** rng.uniform(-6, 6, 4)
        for h0, h1, h2, h3 in (y.tolist(), tuple(y)):
            cm = c - 1.0
            want = (h0 ** 3 * h1 ** 2 * cm ** 2,
                    -0.5 * cm ** 2 * h0 ** 4 * h2,
                    2.25 * cm * h0 ** 2 * h1 * h2,
                    -0.75 * cm * h0 ** 3 * h3,
                    -0.5 * h1 ** 2 * h2,
                    0.5 * h0 * h1 * h3,
                    h0 * h2 ** 2)
            got = ode4_monomials(h0, h1, h2, h3, c)
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_quartic_detects_non_solutions():
    # a generic jet does not satisfy the quartic
    hj = Jet1.from_derivatives([1.0, 1.0, 1.0, 1.0, 1.0])
    assert abs(ode4_residual(hj, 1.5)) > 1e-3


def test_first_integral_values():
    lin = field_linear(2.0, 0.5)
    for x in (-1.0, 0.0, 2.0):
        assert abs(ode3_first_integral(lin(x)) + 0.5 * 8.0) < 1e-12


def test_first_integral_exponential_identity():
    # FI(e^f) = -(e^{3f}/4) * nlode(f)
    for _ in range(6):
        fj = Jet1(RNG.normal(size=5))
        lhs = ode3_first_integral(fj.exp())
        rhs = -math.exp(3.0 * fj.value) / 4.0 * nlode_residual(fj)
        assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(rhs))


def test_nlode_solved_by_log_powers():
    # f = p log(x) solves f''' = f' f'' + (f')^3 for p in {2, -1},
    # matching the zero-first-integral profiles h = x^2 and h = 1/x
    for p in (2.0, -1.0):
        for x in (0.5, 1.0, 2.5):
            fj = p * Jet1.variable(x).log()
            assert abs(nlode_residual(fj)) < 1e-12


def test_chalf_F_equation_form():
    Fj = Jet1(RNG.normal(size=5))
    hj = Jet1(RNG.normal(size=5))
    expect = (-3.0 * Fj.value * hj.value**2
              + 5.0 * hj.value * Fj.derivative(1)
              + 2.0 * Fj.value * hj.derivative(1)
              + 12.0 * Fj.value**2 - 2.0 * Fj.derivative(2))
    assert abs(F_ode_residual_chalf(Fj, hj) - expect) < 1e-13


# ---------------------------------------------------------------------------
# Weierstrass construction
# ---------------------------------------------------------------------------

def test_thm1_zero_profile_reproduces_wp():
    T = real_period(1.0)
    d = thm1_structure(field_zero(), a=0.5 * T, b=1.0)
    # with h = 0: H = 0, G = x, so F(x) = wp(x + a; 0, b)
    assert abs(d.F(0.0).value - wp(0.5 * T, 1.0)[0]) < 1e-12
    assert abs(d.F(0.3).value - wp(0.3 + 0.5 * T, 1.0)[0]) < 1e-12


def test_thm1_zero_profile_is_einstein_weyl():
    T = real_period(1.0)
    d = thm1_structure(field_zero(), a=0.5 * T, b=1.0)
    lo, hi = d.window
    assert lo < hi
    pts = grid(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 4)
    assert ew_max(d, pts) < 1e-8


def test_thm1_sin_profile_is_einstein_weyl():
    d = thm1_structure(field_sin(), a=0.5 * real_period(1.0), b=1.0)
    lo, hi = d.window
    pts = grid(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 4)
    assert ew_max(d, pts) < 1e-5


def test_thm1_negative_b_branch():
    d = thm1_structure(field_zero(), a=0.5 * real_period(-1.0), b=-1.0)
    lo, hi = d.window
    pts = grid(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 3)
    assert ew_max(d, pts) < 1e-8


def test_thm1_wrong_c_detected():
    d = thm1_structure(field_sin(), a=0.5 * real_period(1.0), b=1.0)
    lo, hi = d.window
    pts = grid(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 3)
    X_bad = weyl_oneform_generic(
        NearHorizonData(h=d.h, F=d.F, c=-0.495))
    assert ew_max(d, pts, X=X_bad) > 1e-4


def test_thm1_F_solves_chalf_equation_for_any_h():
    F = thm1_F_field(field_sin(), a=1.0, b=1.0)
    h = field_sin()
    lo, hi = F.window
    for x in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 9):
        assert abs(F_ode_residual_chalf(F(float(x)), h(float(x)))) < 1e-9


def test_thm1_window_shifts_when_a_is_near_a_pole():
    # a inside the margin: the admissible window sits to one side of x0
    F = thm1_F_field(field_zero(), a=0.1, b=1.0)
    lo, hi = F.window
    assert lo > 0.0 and hi > lo
    # with h = 0, G = x: window should be [margin - a, T - margin - a]
    T = real_period(1.0)
    assert abs(lo - (0.3 - 0.1)) < 1e-8
    assert abs(hi - (T - 0.3 - 0.1)) < 1e-8
    with pytest.raises(WindowError):
        F(-0.5)


def test_thm1_b_zero_single_pole_window():
    F = thm1_F_field(field_zero(), a=1.0, b=0.0)
    # pure 1/z^2 potential: F(x) = (x + 1)^-2, window avoids x = -1
    assert abs(F(0.5).value - 1.5**-2) < 1e-12
    lo, hi = F.window
    assert hi == math.inf and lo <= 0.5
    # the edge sits at G + a = margin, G = x: lo = 0.3 - 1
    assert abs(lo + 0.7) < 1e-8


@pytest.mark.parametrize("h, a, b, window", [
    ("sin", 0.1, 1.0, (0.19933926655458584, 1.98281686926205)),
    ("one", 0.1, 1.0, (0.19062035960865026, 1.691697081596287)),
    ("linear", 0.7, 0.0, (-0.3948110289479103, math.inf)),
    ("sin", 0.5, -1.0, (-0.1993392665545859, 2.7662510551598887)),
    ("one", 3.0, 1.0, (-math.inf, -0.255771206981556)),
    ("sin", 2.3, 2.0, (-1.6265851840244356, 0.12590180651395289)),
])
def test_thm1_window_edges_are_pinned(h, a, b, window):
    # reports print the window edges in full, so the march and the
    # bisection that find them must keep every bit
    assert thm1_F_field(named_h_field(h), a, b).window == window


def test_thm1_unreached_edges_cost_a_bounded_march(monkeypatch):
    # h = 1, b = 0, a = 3: G = 2 (e^{x/2} - 1) never reaches -2.7, so
    # the march runs its full 1000 units
    evals, quad = [0], nearhorizon.quad

    def counting(f, a, b):
        def g(t):
            evals[0] += 1
            return f(t)
        return quad(g, a, b)

    monkeypatch.setattr(nearhorizon, "quad", counting)
    F = thm1_F_field(field_one(), a=3.0, b=0.0)
    assert F.window == (-math.inf, math.inf)
    assert evals[0] <= 50_000


def test_field_jets_are_shared_and_read_only():
    h = field_sin()
    j = h(0.3)
    assert h(0.3) is j
    with pytest.raises(ValueError):
        j.coeffs[0] = 1.0
    k = j + 1.0  # arithmetic still makes fresh jets
    k.coeffs[0] = 0.0
    assert j.value == math.sin(0.3)

def test_data_window_intersection():
    h = ScalarField1D(lambda x: Jet1.constant(1.0), window=(-2.0, 5.0))
    F = ScalarField1D(lambda x: Jet1.constant(1.0), window=(1.0, 9.0))
    d = NearHorizonData(h=h, F=F, c=0.0)
    assert d.window == (1.0, 5.0)


# ---------------------------------------------------------------------------
# a field at an array of x: one evaluator call, the scalar jets bit for bit


def _family_h(tag):
    return lambda: nearhorizon.build_family(tag).field


def _family_F(tag):
    def make():
        fam = nearhorizon.build_family(tag)
        return F_from_h_field(fam.field, fam.c)

    return make


def _dkp_wp():
    return pdeverify.wp_field(0.5 * real_period(1.0), 1.0)


# name -> (field factory, the window its export-plot sweep spans)
_BATCH_FIELDS = {
    **{f"family:{t}": (_family_h(t), None) for t in nearhorizon.FAMILY_TAGS},
    **{f"named:{n}": (lambda n=n: named_h_field(n), None)
       for n in ("zero", "one", "sin", "linear")},
    **{f"F_from_h:{t}": (_family_F(t), None)
       for t in nearhorizon.FAMILY_TAGS if t != "Weierstrass"},  # h ones
    **{f"flat:{n}": (lambda n=n: F_flat_from_h(named_h_field(n)), None)
       for n in ("zero", "one", "sin", "linear")},
    **{f"thm1:{n}": (lambda n=n: thm1_F_field(named_h_field(n), 0.1, 1.0),
                     None) for n in ("zero", "sin")},
    "dkp-wp": (_dkp_wp,
               _pole_free_cell(0.5 * real_period(1.0), 1.0, 0.3)),
}


def _sweep_xs(name, samples=200):
    make, window = _BATCH_FIELDS[name]
    a, b, _ = _sweep_window(window or make().window)
    return np.linspace(a, b, samples)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _first_scalar_error(make, xs):
    """The error of the first failing scalar call over xs, or None."""
    f = make()
    for x in xs.tolist():
        try:
            f(x)
        except EwhError as e:
            return e
    return None


@pytest.mark.parametrize("name", sorted(_BATCH_FIELDS))
def test_field_at_an_array_is_the_stack_of_scalar_calls(name):
    make = _BATCH_FIELDS[name][0]
    xs = _sweep_xs(name)
    ref, f = make(), make()
    want = np.stack([ref(x).coeffs for x in xs.tolist()], axis=1)
    runs = []
    ev = f.evaluator
    object.__setattr__(f, "evaluator", lambda x: runs.append(x) or ev(x))
    got = f.at(xs)
    assert len(runs) == 1 and runs[0] is xs  # one call for the array
    assert np.array_equal(_bits(got.coeffs), _bits(want))
    assert f.at(xs.copy()) is got  # the memo answers an equal array
    for k in (0, 57, 199):  # and a float call at any of its x
        assert np.array_equal(_bits(f(xs[k].item()).coeffs),
                              _bits(want[:, k]))
    assert len(runs) == 1
    # repeated x, as in a slice of whole (nu, r) planes: the evaluator
    # sees each distinct x once, in order of first appearance
    pick = [3, 3, 150, 3, 0, 150, 199, 0, 150]
    f = make()
    runs = []
    ev = f.evaluator
    object.__setattr__(f, "evaluator", lambda x: runs.append(x) or ev(x))
    got = f.at(xs[pick])
    assert len(runs) == 1
    assert runs[0].tolist() == xs[[3, 150, 0, 199]].tolist()
    assert np.array_equal(_bits(got.coeffs), _bits(want[:, pick]))
    # the memo answers a float call or a sub-array at the x it holds
    assert np.array_equal(_bits(f(xs[150].item()).coeffs),
                          _bits(want[:, 150]))
    sub = f.at(xs[[199, 199, 3]])
    assert np.array_equal(_bits(sub.coeffs), _bits(want[:, [199, 199, 3]]))
    assert len(runs) == 1


@pytest.mark.parametrize("name", ["family:TanhHyperCR", "F_from_h:NumericODE",
                                  "thm1:sin", "dkp-wp"])
def test_repeated_array_is_answered_by_identity(name):
    # a slice's x repeats each grid x once per (nu, r) point; asked for
    # the same array again, the field returns the same jet, evaluated once
    make = _BATCH_FIELDS[name][0]
    xs = _sweep_xs(name)[[5, 5, 90, 5, 90, 140, 140, 5]]
    f, runs = make(), []
    ev = f.evaluator
    object.__setattr__(f, "evaluator", lambda x: runs.append(x) or ev(x))
    got = f.at(xs)
    assert f.at(xs) is got
    assert len(runs) == 1
    for k in (0, 2, 5):  # a later float call: the same bits, no evaluation
        assert np.array_equal(_bits(f(xs[k].item()).coeffs),
                              _bits(got.coeffs[:, k]))
    assert len(runs) == 1
    assert np.array_equal(_bits(got.coeffs),
                          _bits(np.stack([make()(x).coeffs
                                          for x in xs.tolist()], axis=1)))


def _with(xs, k, x):
    """xs with x inserted before position k."""
    return np.insert(xs, k, x)


def _bad_batches():
    """(field name, batch) pairs whose scalar calls fail: an x beyond
    each finite window end, and x at the poles of the jacobi, rational
    and tan profiles."""
    out = []
    for name, (make, _) in sorted(_BATCH_FIELDS.items()):
        xs = _sweep_xs(name)
        lo, hi = make().window
        if math.isfinite(hi):
            out.append((name, _with(xs, 120, hi + 0.5)))
        if math.isfinite(lo):
            # two failures: the first one in the batch is raised
            out.append((name, _with(_with(xs, 150, lo - 0.5), 40,
                                    lo - 0.25)))
    jac = nearhorizon.build_family("jacobi").field.window
    for name in ("family:JacobiReduction", "F_from_h:JacobiReduction"):
        out.append((name, _with(_sweep_xs(name), 10, jac[0])))
        out.append((name, _with(_sweep_xs(name), 190, jac[1])))
    for name in ("family:RationalPole", "F_from_h:RationalPole"):
        out.append((name, _with(_sweep_xs(name), 70, 0.0)))
    tan = nearhorizon.build_family("tan").field.window
    out.append(("family:TanFamily", _with(_sweep_xs("family:TanFamily"),
                                          5, tan[1])))
    # h = tan(0) = 0: F_from_h's floor
    out.append(("F_from_h:TanFamily",
                _with(_sweep_xs("F_from_h:TanFamily"), 30, 0.0)))
    # the floor at x = 0 comes first, but the batch meets the pole of h
    # at a later x first (h is evaluated before F's floor is checked)
    out.append(("F_from_h:TanFamily", np.array([0.5, 0.0, 0.75, tan[1]])))
    return out


@pytest.mark.parametrize("name, xs", _bad_batches(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_field_at_an_array_raises_the_first_scalar_error(name, xs):
    make = _BATCH_FIELDS[name][0]
    want = _first_scalar_error(make, xs)
    assert want is not None
    with pytest.raises(EwhError) as got:
        make().at(xs)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)


_JACOBI_POLE = "x = 0.0 near a pole of the Jacobi profile"


@pytest.mark.parametrize("name, xs, error, text", [
    # x = 0 is on the closed window edge and at a pole: the window admits
    # it, the evaluator's guard rejects it
    ("family:JacobiReduction", [0.5, 0.25, 0.0, 0.75, 0.0],
     PoleProximityError, _JACOBI_POLE),
    ("F_from_h:JacobiReduction", [0.5, 0.0, 0.75], PoleProximityError,
     _JACOBI_POLE),
    ("family:RationalPole", [2.0, 0.0, 1e-7], PoleProximityError,
     "x = 0.0 within 1e-06 of the pole at 0.0"),
    ("F_from_h:TanFamily", [0.5, -0.25, 0.0, 1e-11], DomainError,
     "h(0.0) = -0.0: F_from_h needs |h| > 1e-10"),
])
def test_evaluator_raises_the_first_scalar_error_of_its_batch(name, xs,
                                                              error, text):
    make, xs = _BATCH_FIELDS[name][0], np.array(xs)
    want = _first_scalar_error(make, xs)
    assert type(want) is error and str(want) == text
    with pytest.raises(error) as got:
        make().evaluator(xs)
    assert str(got.value) == text
