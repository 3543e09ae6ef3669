"""Solution-family catalog and the Abel-equation parametrization."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewhorizon import nearhorizon
from ewhorizon.errors import DomainError, PathBranchError, WindowError
from ewhorizon.jets import Jet1, Point
from ewhorizon.curvature import ew_residual
from ewhorizon.nearhorizon import (FAMILY_TAGS, F_from_h_field,
                                   NearHorizonData, abel_parametric,
                                   abel_rhs, build_family, canonical_tag,
                                   detect_period, family_catalog,
                                   field_sin, nh_metric, ode2_residual,
                                   ode3_first_integral, ode4_residual,
                                   periodicity_check, reduction_consistency,
                                   weyl_oneform_generic)
from ewhorizon.nearhorizon import abel_parametric_jets
from ewhorizon.odesolve import IvpSpec, integrate
from ewhorizon.report import GridSpec, _knot_return, run_check
from ewhorizon.specfun import hyp2f1, real_period, wp

SQRT2_K = 2.6220575542921196  # sqrt(2) K(1/sqrt(2)): jacobi window width


def window_samples(fam, n=9, inset=0.12):
    lo, hi = fam.window
    if not math.isfinite(lo):
        lo = -2.0
    if not math.isfinite(hi):
        hi = lo + 4.0
    span = hi - lo
    return np.linspace(lo + inset * span, hi - inset * span, n)


def max_ode4(fam, n=9):
    return max(abs(ode4_residual(fam.field(float(x)), fam.c))
               for x in window_samples(fam, n))


CATALOG_CASES = [
    ("linear", dict(ell=1.0, b=0.0)),
    ("linear", dict(ell=-2.0, b=1.0)),
    ("quadratic", dict(b=0.0)),
    ("quadratic", dict(b=-1.5)),
    ("rational", dict(gamma=1.0, b=0.0)),
    ("rational", dict(gamma=2.0, b=0.0, alpha=1.0)),
    ("rational", dict(gamma=-1.0, b=0.0, alpha=1.0)),
    ("tan", dict(alpha=-1.0, ell=-0.5, b=0.0)),
    ("tan", dict(alpha=1.0, ell=1.0, b=0.3)),
    ("tanh", dict(c=-1.0, ell=-1.0, b=0.0)),
    ("jacobi", dict(m=1.0, c=0.0, b=0.0)),
    ("jacobi", dict(m=1.3, c=-0.5, b=0.2)),
    ("hypergeometric", dict(gamma=1.0, beta=2.0)),
    ("numeric", dict(alpha=-1.0, c=2.0, x0=1.0, h0=-math.tan(0.5),
                     h1=-0.5 / math.cos(0.5) ** 2, span=1.8)),
    ("hypergeometric", dict(gamma=-1.3, beta=0.5, b=0.2)),
    ("hypergeometric", dict(gamma=2.0, beta=8.0, z_lo=0.1, z_hi=0.95)),
]


@pytest.mark.parametrize("tag, params", CATALOG_CASES,
                         ids=[f"{t}-{i}" for i, (t, _)
                              in enumerate(CATALOG_CASES)])
def test_catalog_profiles_solve_the_quartic(tag, params):
    fam = build_family(tag, **params)
    assert fam.role == "h"
    assert max_ode4(fam) < 1e-9


def test_family_catalog_tuple_interface():
    fld, c, window = family_catalog("linear", ell=1.0, b=0.0)
    assert abs(fld(2.0).value - 2.0) < 1e-15 and c == 1.0
    fld, c, window = family_catalog("rational", gamma=2.0, b=0.0, alpha=1.0)
    assert abs(fld(3.0).value - 2.0 / 3.0) < 1e-15 and c == 1.0
    assert window[0] == 0.0
    # alpha = 0 rational picks the smaller consistency root
    _, c, _ = family_catalog("rational", gamma=1.0, b=0.0)
    assert c == 0.0


def test_canonical_tags_and_aliases():
    assert canonical_tag("tan") == "TanFamily"
    assert canonical_tag("Weierstrass") == "Weierstrass"
    assert set(FAMILY_TAGS) == {
        "Weierstrass", "JacobiReduction", "HypergeometricParametric",
        "TanFamily", "TanhHyperCR", "Linear", "RationalPole",
        "Quadratic", "NumericODE"}
    with pytest.raises(DomainError):
        canonical_tag("cubic")


def test_family_beta_consistency_is_validated():
    for tag, params in CATALOG_CASES:
        fam = build_family(tag, **params)
        alpha = fam.info.get("alpha", 0.0)
        beta = fam.info.get("beta")
        if beta is None:
            continue
        assert abs(reduction_consistency(alpha, fam.c) - beta) < 1e-9


def test_tanh_family_requires_its_reduction_parameters():
    with pytest.raises(DomainError):
        build_family("tanh", c=-0.5, ell=-1.0)  # only c = -1 is cataloged
    with pytest.raises(DomainError):
        build_family("tanh", c=-1.0, ell=1.0)  # needs c*ell > 0


def test_tanh_family_profile_shape():
    fam = build_family("tanh", c=-1.0, ell=-1.0, b=0.0)
    # h = -tanh(x): bounded, solves h'' = 2 h h'
    assert abs(fam.field(0.7).value + math.tanh(0.7)) < 1e-14
    assert abs(fam.field(100.0).value) <= 1.0
    assert abs(ode2_residual(fam.field(0.7), 2.0, 0.0)) < 1e-12


def test_tan_family_profile_and_period():
    fam = build_family("tan", alpha=-1.0, ell=-0.5, b=0.0)
    assert fam.c == 2.0
    assert abs(fam.field(0.8).value + math.tan(0.4)) < 1e-13
    s = math.sqrt(2.0 * (-0.5) * (-1.0))
    assert_allclose(fam.field.period, 2.0 * math.pi / s, rtol=1e-14)
    with pytest.raises(DomainError):
        build_family("tan", alpha=1.0, ell=-1.0)  # needs ell * alpha > 0


def test_weierstrass_family_is_an_F_profile():
    fam = build_family("weierstrass", a=1.5, b=1.0)
    assert fam.role == "F" and fam.c == -0.5
    assert abs(fam.field(0.3).value - wp(1.8, 1.0)[0]) < 1e-12
    with pytest.raises(DomainError):
        build_family("weierstrass", a=1.0, b=0.0)
    # the pole margin is a catalog constant, not a parameter
    with pytest.raises(DomainError, match="margin"):
        build_family("weierstrass", margin=0.1)


def test_jacobi_family_solves_its_real_ode():
    fam = build_family("jacobi", m=1.3, c=-0.5, b=0.2)
    beta = 2.0 * (fam.c - 1.0) ** 2
    for x in window_samples(fam, 9, inset=0.1):
        assert abs(ode2_residual(fam.field(float(x)), 0.0, beta)) < 1e-9
    lo, hi = fam.window
    s = abs(fam.c - 1.0) * 1.3
    assert_allclose(hi - lo, SQRT2_K / s, rtol=1e-12)


def test_numeric_family_records_guard_stops():
    # beta = 2(c-1)^2 = 8: h'' = 8 h^3 blows up well before the span
    fam = build_family("numeric", alpha=0.0, c=3.0, x0=0.0, h0=1.0,
                       h1=1.0, span=6.0)
    lo, hi = fam.window
    assert hi < 6.0
    assert fam.info["status_forward"] == "guard"
    # the trajectory is still a valid quartic solution inside the window
    assert abs(ode4_residual(fam.field(0.5 * hi), fam.c)) < 1e-8


def test_numeric_rhs_is_the_numpy_scalar_form_bit_for_bit():
    # the numeric family's rhs multiplies Python floats; it must keep the
    # exact bits of the numpy-scalar form it replaced
    rng = np.random.default_rng(20261019)
    for _ in range(3000):
        alpha, beta = (float(v) for v in rng.uniform(-10.0, 10.0, 2))
        y = rng.standard_normal(2) * 10.0 ** rng.uniform(-6, 6, 2)
        want = np.array([y[1], alpha * y[0] * y[1] + beta * y[0] ** 3])
        got = np.array(nearhorizon._ode2_rhs(alpha, beta)(0.0, y.tolist()))
        assert got.tobytes() == want.tobytes()


def test_catalog_families_induce_einstein_weyl_structures():
    for tag, params, xwin in [
            ("tan", dict(alpha=-1.0, ell=-0.5, b=0.0), (0.4, 2.6)),
            ("tanh", dict(c=-1.0, ell=-1.0, b=0.0), (0.3, 2.0)),
            ("rational", dict(gamma=1.0, b=0.0), (0.5, 3.0)),
            ("linear", dict(ell=1.0, b=0.0), (0.5, 2.5))]:
        fam = build_family(tag, **params)
        d = NearHorizonData(h=fam.field, F=F_from_h_field(fam.field, fam.c),
                            c=fam.c)
        g, X = nh_metric(d), weyl_oneform_generic(d)
        worst = max(float(np.max(np.abs(ew_residual(g, X, Point(nu, r, x)))))
                    for nu in (-1.0, 0.5) for r in (-0.7, 1.0)
                    for x in np.linspace(*xwin, 4))
        assert worst < 1e-7, tag


# ---------------------------------------------------------------------------
# first integrals on the cubic-degeneration families
# ---------------------------------------------------------------------------

def test_first_integrals_on_catalog():
    lin = build_family("linear", ell=1.0, b=0.0)
    for x in (0.5, 1.5, 3.0):
        assert abs(ode3_first_integral(lin.field(x)) + 0.5) < 1e-12
    for fam in (build_family("quadratic"),
                build_family("rational", gamma=1.0, b=0.0)):
        for x in (0.5, 1.5, 3.0):
            assert abs(ode3_first_integral(fam.field(x))) < 1e-12


# ---------------------------------------------------------------------------
# periodicity detection
# ---------------------------------------------------------------------------

def test_periodicity_check_accepts_and_rejects():
    assert periodicity_check(field_sin(), 2.0 * math.pi)
    assert not periodicity_check(field_sin(), 2.0)
    fam = build_family("tanh", c=-1.0, ell=-1.0)
    assert not periodicity_check(fam.field, 3.0)
    # over a few T at roundoff distance neither h nor h' moves by tol,
    # so |h(x + T) - h(x)| < tol shows nothing
    assert not periodicity_check(field_sin(), 1e-9)
    assert not periodicity_check(fam.field, 1.7e-11)


def test_periodicity_check_on_windowed_field():
    fam = build_family("jacobi", m=1.0, c=0.0, b=0.0)
    T = fam.field.period
    assert T is not None
    assert periodicity_check(fam.field, T)


def test_hypergeometric_evaluator_stops_at_its_window():
    # the parametric profile exists only between x(z_lo) and x(z_hi);
    # beyond them it must refuse, not repeat the edge value
    fam = build_family("hypergeometric")
    lo, hi = fam.window
    with pytest.raises(WindowError):
        fam.field.evaluator(hi + 1.0)
    assert not periodicity_check(fam.field, 100.0 * (hi - lo))


def test_hypergeometric_window_reaches_toward_z_one():
    # near z = 1 the direct 2F1 series needs more than 10^4 terms; the
    # connection to 1 - z keeps the profile buildable and certified
    fam = build_family("hypergeometric", z_hi=0.999)
    assert fam.window[1] > build_family("hypergeometric").window[1]
    assert run_check("family:hypergeometric", {"z_hi": 0.999}).passed


def test_hypergeometric_profile_work_per_evaluation(monkeypatch):
    # the z(x) solve makes one float 2F1 call per Newton step
    calls = []
    series = nearhorizon.hyp2f1

    def counted(a, b, c, z):
        calls.append(z)
        return series(a, b, c, z)

    monkeypatch.setattr(nearhorizon, "hyp2f1", counted)
    fam = build_family("hypergeometric")
    lo, hi, n = GridSpec().resolve_x(fam.window, count=33)
    for x in list(np.linspace(lo, hi, n)) + list(fam.window):
        calls.clear()
        fam.field(float(x))
        assert 1 <= len(calls) <= 8
        assert not any(isinstance(z, Jet1) for z in calls)


def test_detect_period_on_sin():
    f = field_sin()
    bounded = type(f)(evaluator=f.evaluator, label=f.label,
                      period=None, window=(-20.0, 20.0), integral=None)
    T = detect_period(bounded, 0.3)
    assert T is not None
    assert abs(T - 2.0 * math.pi) < 1e-6


def _oscillator_from(x0, span):
    # y'' = -y through (sin x0, cos x0): the forward trajectory of sin
    spec = IvpSpec(dim=2, rhs=lambda x, y: np.array([y[1], -y[0]]),
                   x0=x0, y0=[math.sin(x0), math.cos(x0)])
    return integrate(spec, x0 + span)


def test_first_return_on_trajectory_knots():
    # scan-c's period rule: bracket on the knots, refine on the dense
    # output of the bracketing step
    T = _knot_return(_oscillator_from(0.3, 20.0))
    assert T is not None
    assert abs(T - 2.0 * math.pi) < 1e-8
    f = field_sin()
    bounded = type(f)(evaluator=f.evaluator, label=f.label,
                      period=None, window=(-20.0, 20.0), integral=None)
    assert abs(T - detect_period(bounded, 0.3)) < 1e-8
    # shorter than one period: no return to find
    assert _knot_return(_oscillator_from(0.3, 6.0)) is None


def test_detect_period_none_for_monotone():
    fam = build_family("tanh", c=-1.0, ell=-1.0)
    bounded = type(fam.field)(evaluator=fam.field.evaluator, label="t",
                              period=None, window=(-8.0, 8.0), integral=None)
    assert detect_period(bounded, 0.5) is None


# ---------------------------------------------------------------------------
# Abel parametrization
# ---------------------------------------------------------------------------

def test_abel_rhs_form_and_guard():
    # dy/dh = (1/h)(-beta y^3 - alpha y^2 + 2 y) along y = h^2/h'
    alpha, beta = 0.7, -1.2
    y, h = 1.3, 2.0
    expect = (-beta * y**3 - alpha * y**2 + 2.0 * y) / h
    assert abs(abel_rhs(y, h, alpha, beta) - expect) < 1e-14
    with pytest.raises(DomainError):
        abel_rhs(1.0, 0.0, alpha, beta)


def test_abel_consistency_with_profile_solutions():
    # along any ode2 solution, y = h^2/h' obeys the Abel equation
    from ewhorizon.nearhorizon import ode2_jet
    rngl = np.random.default_rng(7)
    for _ in range(8):
        alpha = float(rngl.uniform(-1.5, 1.5))
        beta = float(rngl.uniform(-2.0, 2.0))
        h0 = float(rngl.uniform(0.6, 2.0))
        h1 = float(rngl.uniform(0.4, 1.5))
        hj = ode2_jet(h0, h1, alpha, beta)
        yj = hj * hj / hj.d()
        # dy/dh = (dy/dx) / (dh/dx) versus the Abel right-hand side
        got = yj.derivative(1) / hj.derivative(1)
        expect = abel_rhs(yj.value, hj.value, alpha, beta)
        assert abs(got - expect) < 1e-10 * (1.0 + abs(expect))


def test_abel_parametric_matches_hypergeometric_closed_form():
    beta = 2.0
    zs = np.linspace(0.05, 0.6, 9)
    ys = np.sqrt(2.0 / (beta * zs))
    pref = math.sqrt(2.0) / (2.0 * beta**0.25)
    xs_ab, hs_ab, xs_hg, hs_hg = [], [], [], []
    for z, y in zip(zs, ys):
        h, x = abel_parametric(float(y), 0.0, beta, 1.0)
        xs_ab.append(x)
        hs_ab.append(h)
        xs_hg.append(pref * math.sqrt(z) * hyp2f1(0.5, 0.75, 1.5, float(z)))
        hs_hg.append(beta**-0.25 * (1.0 - z) ** -0.25)
    dx_ab = np.array(xs_ab) - xs_ab[0]
    dx_hg = np.array(xs_hg) - xs_hg[0]
    assert np.max(np.abs(dx_ab - dx_hg)) < 1e-7
    assert np.max(np.abs(np.array(hs_ab) - hs_hg)) < 1e-10


@pytest.mark.parametrize("alpha, beta, ylo, yhi", [
    (0.0, 2.0, 1.5, 3.5),     # disc > 0, outer branch
    (1.0, 1.0, 1.5, 3.5),     # disc > 0, generic alpha
    (1.0, -2.0, 1.5, 3.5),    # disc < 0: arctangent branch
    (-0.7, -1.1, 1.5, 3.5),   # disc < 0, negative alpha
    (0.0, 2.0, 0.3, 0.8),     # disc > 0, inner (Q < 0) branch
])
def test_abel_parametric_curves_solve_ode2(alpha, beta, ylo, yhi):
    worst = 0.0
    for y in np.linspace(ylo, yhi, 7):
        hj, xd = abel_parametric_jets(float(y), alpha, beta, 1.0)
        hy, hyy = hj.derivative(1), hj.derivative(2)
        xy, xyy = xd.value, xd.derivative(1)
        h1 = hy / xy
        h2 = (hyy * xy - hy * xyy) / xy**3
        worst = max(worst, abs(h2 - alpha * hj.value * h1
                               - beta * hj.value**3))
    assert worst < 1e-6


def test_abel_parametric_inner_branch_slope():
    h1, x1 = abel_parametric(0.4, 0.0, 2.0, 1.0, y_ref=0.5)
    h2, x2 = abel_parametric(0.6, 0.0, 2.0, 1.0, y_ref=0.5)
    _, xd = abel_parametric_jets(0.5, 0.0, 2.0, 1.0)
    slope_fd = (x2 - x1) / 0.2
    assert abs(slope_fd - xd.value) < 2e-2 * abs(xd.value)


def test_abel_path_branch_errors():
    with pytest.raises(PathBranchError):
        # path from y_ref = 2 down to 0.5 crosses the root of Q at y = 1
        abel_parametric(0.5, 0.0, 2.0, 1.0)
    with pytest.raises(PathBranchError):
        # confluent case disc = alpha^2 + 8 beta = 0
        abel_parametric(2.0, math.sqrt(8.0), -1.0, 1.0)


def test_real_period_feeds_weierstrass_window():
    fam = build_family("weierstrass", a=0.5 * real_period(1.0), b=1.0)
    lo, hi = fam.window
    assert lo < 0.0 < hi
    assert hi - lo < real_period(1.0)
