"""Near-horizon Einstein-Weyl structures in 2+1 dimensions.

The metric family

    g = r^2 F(x) dnu^2 + 2 dnu dr + 2 r h(x) dnu dx + dx^2

with det g = -1 identically, the one-parameter Weyl 1-form ansatz

    X = c h dx + r ((2c+1) h' + c (2c+1) h^2 - 2 F) dnu,

and everything the Einstein-Weyl condition reduces to on this ansatz:
the algebraic F(x) determined by h for c != -1/2, the second-order F
equation at c = -1/2, the quartic ODE for h, its factorization through
h'' = alpha h h' + beta h^3, the Abel equation and its parametric
solution, and a catalog of closed-form solution families.

Scalar profiles are ScalarField1D objects: an evaluator producing Jet1
values (derivatives to order 4), an admissible window, an optional
declared period, and an optional exact antiderivative.  Every evaluator
takes a float x or a 1-D array of x (then one batched Jet1, column k at
x[k]); the closed forms run their jet algebra once per array, and only
quadratures and special-function values go one x at a time (`per_x`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _dcfield
from functools import partial, reduce
from operator import add

import numpy as np

from .curvature import MetricField, OneFormField
from .errors import (AccuracyError, DomainError, EwhError, PathBranchError,
                     PoleProximityError, WindowError)
from .jets import _D1_FAC, Jet1, Jet3, _along_orders, per_x
from .odesolve import IvpSpec, integrate, quad
from .specfun import (_pole_free_cell, complete_elliptic_k, hyp2f1,
                      real_period, sn_imaginary_modulus_jet, wp_jet)

_NU, _R, _X = 0, 1, 2
_H_FLOOR = 1e-10         # F_from_h division guard
_POLE_TOL = 1e-6         # closed-form field pole guards, in x units
_THM1_MARGIN = 0.3       # thm1 window inset from the wp poles, in G units
_PERIOD_TOL = 1e-8       # periodicity_check match (and least move) of h, h'
_SN_ZERO = math.sqrt(2.0) * complete_elliptic_k(1.0 / math.sqrt(2.0))


# --------------------------------------------------------------------------
# scalar fields on the x-line
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField1D:
    """A profile function of x carrying derivatives to order 4.

    `evaluator(x)` returns the Jet1 of the profile at x, a float; given
    a 1-D array of x it returns one Jet1 with a trailing batch axis whose
    column k equals, bit for bit, the jet at x[k].  `window` is the
    admissible open interval (evaluation outside raises WindowError);
    `period`, when set, is a declared exact period; `integral`, when
    set, maps (x0, x1) to the exact definite integral.

    A call takes one float x; `at` also an array of x, one per point of
    a PointBatch.  One memo serves both: the last evaluation as one
    (5, n) jet with the column of each x it holds, and the last query
    with its jet.  A query whose x it all holds is answered from it (the
    same array by identity), so every residual at one x shares one
    evaluation.  Returned jets are shared and read-only.
    """

    evaluator: object
    label: str = ""
    period: object = None
    window: tuple = (-math.inf, math.inf)
    integral: object = None
    # [{x: column}, the (5, n) jet, the last query, its jet]
    _memo: list = _dcfield(default_factory=lambda: [{}, None, None, None],
                           init=False, repr=False, compare=False)

    def __call__(self, x) -> Jet1:
        columns, held, key, jet = self._memo
        if x is key or type(key) is float and x == key:  # the last query
            return jet
        if x in columns:
            jet = Jet1._raw(held.coeffs[:, columns[x]])  # a read-only view
        else:
            lo, hi = self.window
            if not lo <= x <= hi:
                raise WindowError(
                    f"x={x!r} outside window [{lo!r}, {hi!r}] of field "
                    f"{self.label!r}")
            jet = self.evaluator(x)
            jet.coeffs.flags.writeable = False
            columns, held = {x: 0}, Jet1._raw(jet.coeffs[:, None])
        self._memo[:] = columns, held, x, jet
        return jet

    def at(self, x) -> Jet1:
        """The jet at x, a float; or at every x of a 1-D array, as one
        Jet1 with a trailing batch axis whose column k is the jet at x[k]:
        from the memo, or from one evaluator call at the array's distinct
        x, else x by x (where that raises EwhError, or an x lies outside
        the window), so the error raised is that of the first failing x."""
        if not isinstance(x, np.ndarray):
            return self(x)
        columns, held, key, jet = self._memo
        if x is key:
            return jet
        xs = x.tolist()
        if not columns.keys() >= set(xs):
            distinct = list(dict.fromkeys(xs))
            xd = x if len(distinct) == len(xs) else np.array(distinct)
            lo, hi = self.window
            held = None
            if np.all((lo <= xd) & (xd <= hi)):
                try:
                    held = self.evaluator(xd)
                except EwhError:
                    pass
            if held is None:
                held = per_x(self, xd)
            elif held.coeffs.shape != (5, len(distinct)):
                raise ValueError(
                    f"evaluator of field {self.label!r} gave jets of shape "
                    f"{held.coeffs.shape} at {len(distinct)} x")
            held.coeffs.flags.writeable = False
            columns = {v: k for k, v in enumerate(distinct)}
        jet = held
        if xs != list(columns):  # not the memo's own x, in order
            jet = Jet1._raw(held.coeffs[:, [columns[v] for v in xs]])
            jet.coeffs.flags.writeable = False
        self._memo[:] = columns, held, x, jet
        return jet


def field_const(k: float, label: str = "") -> ScalarField1D:
    k = float(k)

    def ev(x):
        return Jet1.constant(np.full(np.shape(x), k))

    return ScalarField1D(ev, label=label or f"const({k:g})",
                         integral=lambda x0, x1: k * (x1 - x0))


def field_zero() -> ScalarField1D:
    return field_const(0.0, "zero")


def field_one() -> ScalarField1D:
    return field_const(1.0, "one")


def field_sin() -> ScalarField1D:
    def ev(x):
        return Jet1.variable(x).sin()

    return ScalarField1D(ev, label="sin", period=2.0 * math.pi,
                         integral=lambda x0, x1: math.cos(x0) - math.cos(x1))


def field_linear(ell: float, b: float = 0.0) -> ScalarField1D:
    ell, b = float(ell), float(b)

    def ev(x):
        j = Jet1.constant(ell * x + b)
        j.coeffs[1] = ell
        return j

    def integ(x0, x1):
        return 0.5 * ell * (x1 * x1 - x0 * x0) + b * (x1 - x0)

    return ScalarField1D(ev, label="linear", integral=integ)


def tanh_profile(c: float, ell: float, b: float = 0.0) -> ScalarField1D:
    """h = (sqrt(c l)/c) tanh(sqrt(c l)(x + b)): the profile with
    h'' = -2 c h h', defined for c l > 0."""
    if c == 0.0:
        raise DomainError("tanh_profile needs c != 0")
    if c * ell <= 0.0:
        raise DomainError(
            f"c*ell = {c * ell!r} <= 0: the tanh profile is not real there")
    s = math.sqrt(c * ell)

    def ev(x):
        return (s / c) * (s * (Jet1.variable(x) + b)).tanh()

    return ScalarField1D(ev, label=f"tanh[c={c:g},ell={ell:g}]")


_NAMED_H = {
    "zero": field_zero,
    "one": field_one,
    "sin": field_sin,
    "linear": lambda: field_linear(1.0),
}


def named_h_field(name: str) -> ScalarField1D:
    """The named h profiles used by the command-line checks."""
    try:
        ctor = _NAMED_H[name]
    except KeyError:
        raise DomainError(
            f"unknown h field {name!r}; choose from {sorted(_NAMED_H)}")
    return ctor()


def antiderivative(h: ScalarField1D, x0: float, x1: float) -> float:
    """Definite integral of h, exact when the field provides one."""
    if h.integral is not None:
        return float(h.integral(x0, x1))
    return quad(lambda t: h(t).value, x0, x1)


def _integral_jet(value, deriv_jet: Jet1) -> Jet1:
    """Jet of an antiderivative with the given value (a number, or an
    array over a batch), its derivative coefficients shifted up from the
    integrand's jet."""
    d = deriv_jet.coeffs
    c = np.empty(d.shape)
    c[0] = value
    c[1:] = d[:4] / _along_orders(_D1_FAC, d.ndim)
    return Jet1._raw(c)


def F_flat_from_h(h: ScalarField1D, x0: float = 0.0) -> ScalarField1D:
    """The conformally flat profile F = exp(int_{x0}^x h).

    With this F the metric's Cotton tensor vanishes (F' = F h).
    """

    def ev(x):
        H = per_x(lambda t: antiderivative(h, x0, t), x)
        return _integral_jet(H, h.at(x)).exp()

    return ScalarField1D(ev, label=f"flat[{h.label}]", window=h.window)


# --------------------------------------------------------------------------
# near-horizon data, metric, Weyl form
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NearHorizonData:
    """A metric datum (h, F) together with the ansatz constant c."""

    h: ScalarField1D
    F: ScalarField1D
    c: float = -0.5

    @property
    def window(self):
        return (max(self.h.window[0], self.F.window[0]),
                min(self.h.window[1], self.F.window[1]))


def nh_metric(d: NearHorizonData) -> MetricField:
    """The metric g = r^2 F dnu^2 + 2 dnu dr + 2 r h dnu dx + dx^2."""

    def comp(p):
        rj = Jet3.variable(p, _R)
        h3 = Jet3.from_axis_jet(d.h.at(p.x), _X)
        F3 = Jet3.from_axis_jet(d.F.at(p.x), _X)
        one, zero = Jet3.constant(1.0), Jet3.constant(0.0)
        gnx = rj * h3
        return [[rj * rj * F3, one, gnx],
                [one, zero, zero],
                [gnx, zero, one]]

    return MetricField(comp, label=f"nh[{d.h.label};{d.F.label}]")


def weyl_oneform_generic(d: NearHorizonData) -> OneFormField:
    """X = c h dx + r ((2c+1) h' + c (2c+1) h^2 - 2F) dnu.

    At r = 0 this restricts to c h dx; at c = -1/2 it is the
    Weierstrass-family form -h/2 dx - 2 r F dnu.
    """
    c = d.c

    def comp(p):
        rj = Jet3.variable(p, _R)
        hj = d.h.at(p.x)
        h3 = Jet3.from_axis_jet(hj, _X)
        hp3 = Jet3.from_axis_jet(hj.d(), _X)
        F3 = Jet3.from_axis_jet(d.F.at(p.x), _X)
        xnu = rj * ((2 * c + 1) * hp3 + c * (2 * c + 1) * h3 * h3 - 2.0 * F3)
        return [xnu, Jet3.constant(0.0), c * h3]

    return OneFormField(comp, label=f"weyl[c={c:g}]")


def flatness_defect(d: NearHorizonData, x: float) -> float:
    """F'(x) - F(x) h(x); identically zero iff the metric is
    conformally flat on the window."""
    hj = d.h(x)
    Fj = d.F(x)
    return Fj.derivative(1) - Fj.value * hj.value


def _check_h_floor(x, v):
    """DomainError at the first x (a number, or an entry of an array)
    where the value v of h lies within _H_FLOOR of 0."""
    for xk, vk in zip(np.atleast_1d(x).tolist(), np.atleast_1d(v).tolist()):
        if abs(vk) <= _H_FLOOR:
            raise DomainError(f"h({xk!r}) = {vk!r}: F_from_h needs "
                              f"|h| > {_H_FLOOR}")


def F_from_h(h: ScalarField1D, c: float, x: float) -> float:
    """F = (h'' + 4 c h h' + 2 c^2 h^3) / (2 h) at x.

    The unique F that kills the dx dnu component of the Einstein-Weyl
    equations for c != -1/2.
    """
    hj = h(x)
    _check_h_floor(x, hj.value)
    return ((hj.derivative(2) + 4.0 * c * hj.value * hj.derivative(1)
             + 2.0 * c * c * hj.value ** 3) / (2.0 * hj.value))


def F_from_h_field(h: ScalarField1D, c: float) -> ScalarField1D:
    """F_from_h as a field.

    The jet is exact to order 2 (orders 3 and 4 would need h beyond
    order 4 and are set to 0); second metric derivatives are all the
    Einstein-Weyl residual needs, but the Cotton tensor of data built
    this way is not meaningful.
    """

    def ev(x):
        hj = h.at(x)
        _check_h_floor(x, hj.value)
        hp = hj.d()
        Fj = (hp.d() + 4.0 * c * hj * hp + 2.0 * c * c * hj * hj * hj) \
            / (2.0 * hj)
        Fj.coeffs[3:] = 0.0
        return Fj

    return ScalarField1D(ev, label=f"F_from_h[{h.label};c={c:g}]",
                         window=h.window, period=h.period)


# --------------------------------------------------------------------------
# reduction ODE residuals
# --------------------------------------------------------------------------

def ode4_monomials(h0, h1, h2, h3, c):
    """The signed monomials of the quartic reduction ODE for h at fixed
    c, in order, except the last one, -1/4 h^2 h'''':

    h^3 h'^2 (c-1)^2 - 1/2 (c-1)^2 h^4 h'' + 9/4 (c-1) h^2 h' h''
    - 3/4 (c-1) h^3 h''' - 1/2 h'^2 h'' + 1/2 h h' h''' + h h''^2
    - 1/4 h^2 h'''' = 0

    So h'''' = 4 (their sum) / h^2.
    """
    cm = c - 1.0
    # each repeated power once: the same pow calls, so the same bits
    cm2, h0_3, h1_2 = cm ** 2, h0 ** 3, h1 ** 2
    return (h0_3 * h1_2 * cm2,
            -0.5 * cm2 * h0 ** 4 * h2,
            2.25 * cm * h0 ** 2 * h1 * h2,
            -0.75 * cm * h0_3 * h3,
            -0.5 * h1_2 * h2,
            0.5 * h0 * h1 * h3,
            h0 * h2 ** 2)


def _ode4_terms(h: Jet1, c: float) -> tuple:
    h0, h1, h2, h3, h4 = (h.derivative(k) for k in range(5))
    return ode4_monomials(h0, h1, h2, h3, c) + (-0.25 * h0 ** 2 * h4,)


def ode4_residual(h: Jet1, c: float) -> float:
    """The quartic reduction ODE for h at fixed c: the sum, left to
    right, of its signed monomials (see ode4_monomials)."""
    return reduce(add, _ode4_terms(h, c))


def ode4_condition(h: Jet1, c: float) -> float:
    """Magnitude scale of the quartic residual: the sum of the absolute
    values of its monomials.

    Near profile poles the monomials grow like high powers of h and the
    residual of a true solution is their cancellation noise, so the
    meaningful certified quantity is ode4_residual relative to this
    scale.
    """
    return reduce(add, map(abs, _ode4_terms(h, c)))


def ode2_residual(h: Jet1, alpha: float, beta: float) -> float:
    """h'' - alpha h h' - beta h^3."""
    return (h.derivative(2) - alpha * h.value * h.derivative(1)
            - beta * h.value ** 3)


def reduction_consistency(alpha: float, c: float) -> float:
    """beta = 2 (c-1)^2 + 3 alpha (c-1) + alpha^2.

    Any solution of h'' = alpha h h' + beta h^3 with this beta solves
    the quartic ODE at c: the quartic factors through the quadratic
    one.
    """
    cm = c - 1.0
    return 2.0 * cm * cm + 3.0 * alpha * cm + alpha * alpha


def F_ode_residual_chalf(F: Jet1, h: Jet1) -> float:
    """-3 F h^2 + 5 h F' + 2 F h' + 12 F^2 - 2 F'': the single
    remaining Einstein-Weyl equation at c = -1/2."""
    return (-3.0 * F.value * h.value ** 2
            + 5.0 * h.value * F.derivative(1)
            + 2.0 * F.value * h.derivative(1)
            + 12.0 * F.value ** 2
            - 2.0 * F.derivative(2))


def ode3_first_integral(h: Jet1) -> float:
    """-1/4 h^2 h''' + h h' h'' - 1/2 h'^3: a first integral of the
    quartic ODE at c = 1 (its x-derivative is the c = 1 quartic)."""
    h0, h1, h2, h3 = (h.derivative(k) for k in range(4))
    return -0.25 * h0 * h0 * h3 + h0 * h1 * h2 - 0.5 * h1 ** 3


def nlode_residual(f: Jet1) -> float:
    """f''' - f' f'' - f'^3: the c = 1 equation under h = e^f."""
    f1, f2, f3 = (f.derivative(k) for k in (1, 2, 3))
    return f3 - f1 * f2 - f1 ** 3


def ode2_jet(value: float, slope: float, alpha: float, beta: float) -> Jet1:
    """The jet of a solution of h'' = alpha h h' + beta h^3 through
    (h, h') = (value, slope), with higher orders from the ODE."""
    h0, h1 = float(value), float(slope)
    h2 = alpha * h0 * h1 + beta * h0 ** 3
    h3 = alpha * (h1 * h1 + h0 * h2) + 3.0 * beta * h0 * h0 * h1
    h4 = (alpha * (3.0 * h1 * h2 + h0 * h3)
          + 3.0 * beta * (2.0 * h0 * h1 * h1 + h0 * h0 * h2))
    return Jet1.from_derivatives([h0, h1, h2, h3, h4])


def _ode2_rhs(alpha: float, beta: float):
    """The rhs of h'' = alpha h h' + beta h^3 as the system in (h, h'),
    for `integrate`: Python floats, with the bits of numpy's scalar form."""
    def rhs(x, y):
        h, dh = y
        return dh, alpha * h * dh + beta * h ** 3

    return rhs


# --------------------------------------------------------------------------
# Abel equation and its parametric solution
# --------------------------------------------------------------------------

def abel_rhs(y: float, h: float, alpha: float, beta: float) -> float:
    """dy/dh-side right-hand side (1/h)(-beta y^3 - alpha y^2 + 2 y)."""
    if h == 0.0:
        raise DomainError("h = 0 in the Abel right-hand side")
    return (-beta * y ** 3 - alpha * y ** 2 + 2.0 * y) / h


def _abel_exponent(y, alpha, beta):
    """A(y) with dA/dy = -alpha / (4 Q), Q = beta y^2 + alpha y - 2.

    Generic over float or Jet1 y.  The expression branches on the sign
    of alpha^2 + 8 beta; the discriminant-zero case is a confluent
    branch the closed form does not cover.
    """
    disc = alpha * alpha + 8.0 * beta
    if abs(disc) < 1e-14:
        raise PathBranchError(
            "alpha^2 + 8 beta = 0: confluent branch not covered by the "
            "closed form")
    w = 2.0 * beta * y + alpha
    if disc > 0.0:
        d = math.sqrt(disc)
        ratio = w / d
        rv = ratio.value if isinstance(ratio, Jet1) else ratio
        if abs(rv) < 1.0:
            arg = ratio
        elif abs(rv) > 1.0:
            arg = d / w
        else:
            raise PathBranchError("evaluation at a branch point of the "
                                  "Abel exponent")
        at = 0.5 * ((1.0 + arg).log() - (1.0 - arg).log()) \
            if isinstance(arg, Jet1) else math.atanh(arg)
        return (alpha / (2.0 * d)) * at
    d = math.sqrt(-disc)
    arg = w / d
    at = arg.atan() if isinstance(arg, Jet1) else math.atan(arg)
    return -(alpha / (2.0 * d)) * at


def _abel_q(y, alpha, beta):
    return beta * y * y + alpha * y - 2.0


def _abel_q_roots(alpha, beta):
    """Real roots of Q, ascending."""
    if beta == 0.0:
        return [] if alpha == 0.0 else [2.0 / alpha]
    disc = alpha * alpha + 8.0 * beta
    if disc < 0.0:
        return []
    d = math.sqrt(disc)
    return sorted([(-alpha - d) / (2.0 * beta), (-alpha + d) / (2.0 * beta)])


def abel_parametric(y: float, alpha: float, beta: float, gamma: float,
                    y_ref: float = 2.0):
    """The parametric solution (h(y), x(y)) of the Abel reduction.

        h(y) = gamma sqrt(y) exp(A(y)) / |Q(y)|^(1/4)
        x(y) = -(1/gamma) * int_{y_ref}^{y} exp(-A) / (sqrt(t) |Q|^(3/4)) dt

    with Q = beta y^2 + alpha y - 2 and A the branch-resolved exponent
    (d ln h / dy = -1/(y Q) on every branch).  x carries the arbitrary
    constant of the quadrature through the basepoint y_ref; differences
    of x values are basepoint-free.
    """
    if y <= 0.0 or y_ref <= 0.0:
        raise DomainError("abel_parametric needs y > 0 and y_ref > 0")
    if gamma == 0.0:
        raise DomainError("gamma must be nonzero")
    q = _abel_q(y, alpha, beta)
    if abs(q) < 1e-12 * (1.0 + y * y):
        raise PathBranchError(f"Q({y!r}) = 0: branch point of the "
                              "parametric solution")
    lo, hi = min(y, y_ref), max(y, y_ref)
    for root in _abel_q_roots(alpha, beta):
        if lo < root < hi:
            raise PathBranchError(
                f"quadrature path [{lo!r}, {hi!r}] crosses the branch "
                f"point y = {root!r}")
    a_val = _abel_exponent(y, alpha, beta)
    h = gamma * math.sqrt(y) * math.exp(a_val) * abs(q) ** -0.25

    # dx/dy = -(1/gamma) e^{-A} |Q|^{1/4} / (sqrt(y) Q): on branches with
    # Q < 0 the signed power flips the orientation of the quadrature.
    sign = 1.0 if _abel_q(y_ref, alpha, beta) > 0.0 else -1.0

    def integrand(t):
        return (math.exp(-_abel_exponent(t, alpha, beta))
                / (math.sqrt(t) * abs(_abel_q(t, alpha, beta)) ** 0.75))

    x = -sign * quad(integrand, y_ref, y) / gamma
    return h, x


def abel_parametric_jets(y: float, alpha: float, beta: float, gamma: float):
    """Jets in y of the parametric pair: (jet of h(y), jet of dx/dy).

    dx/dy is closed-form, so implicit derivatives of h along x
    (h' = h_y / x_y and so on) come out of plain jet arithmetic.
    """
    if y <= 0.0:
        raise DomainError("abel_parametric_jets needs y > 0")
    yj = Jet1.variable(y)
    qj = _abel_q(yj, alpha, beta)
    if abs(qj.value) < 1e-12 * (1.0 + y * y):
        raise PathBranchError(f"Q({y!r}) = 0: branch point")
    absq = qj if qj.value > 0.0 else -qj
    aj = _abel_exponent(yj, alpha, beta)
    hj = gamma * yj.sqrt() * aj.exp() * absq.powr(-0.25)
    xdot = -((-aj).exp() * absq.powr(0.25) / (yj.sqrt() * qj)) / gamma
    return hj, xdot


# --------------------------------------------------------------------------
# the Weierstrass construction of F (arbitrary h)
# --------------------------------------------------------------------------

def thm1_F_field(h: ScalarField1D, a: float, b: float,
                 x0: float = 0.0) -> ScalarField1D:
    """F(x) = e^{H} wp(G + a; 0, b), H = int_{x0}^x h, G = int_{x0}^x e^{H/2}.

    Together with X = -h/2 dx - 2 r F dnu this turns any h into an
    Einstein-Weyl structure.  The returned field's window is the
    largest x-interval with G + a inside the pole-free cell of the wp
    lattice containing a, inset by _THM1_MARGIN (for b = 0, the single
    pole at G + a = 0); an edge G never reaches is infinite.  The
    interval need not contain the basepoint: for a near a pole it sits
    to one side.
    """

    def dG(t):
        return math.exp(0.5 * antiderivative(h, x0, t))

    def ev(x):
        Hj = _integral_jet(per_x(lambda t: antiderivative(h, x0, t), x),
                           h.at(x))
        Gj = _integral_jet(per_x(lambda t: quad(dG, x0, t), x),
                           (0.5 * Hj).exp())
        Pj, _ = wp_jet(Gj + a, b)
        return Hj.exp() * Pj

    cell = (_THM1_MARGIN - a, math.inf) if b == 0.0 else \
        _pole_free_cell(a, b, _THM1_MARGIN)
    return ScalarField1D(ev, label=f"thm1[{h.label};a={a:g},b={b:g}]",
                         window=tuple(_solve_g(dG, g, x0) for g in cell))


def _solve_g(dG, target, x0):
    """Solve G(x) = target for G = int_{x0}^x dG, dG > 0; -inf or inf
    when G does not reach the target within 1000 of x0.  The march sums
    G one 0.5-wide step at a time; the bisection evaluates G from x0."""
    if target == 0.0 or math.isinf(target):  # at x0, or never reached
        return x0 if target == 0.0 else target
    step = 0.5 if target > 0.0 else -0.5
    x1, g1 = x0, 0.0
    for _ in range(2000):
        x2 = x1 + step
        g1 += quad(dG, x1, x2)
        if (g1 - target) * step >= 0.0:
            break
        x1 = x2
    else:
        return math.copysign(math.inf, target)
    lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if quad(dG, x0, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def thm1_structure(h: ScalarField1D, a: float, b: float,
                   x0: float = 0.0) -> NearHorizonData:
    """NearHorizonData for the Weierstrass family over the profile h."""
    return NearHorizonData(h=h, F=thm1_F_field(h, a, b, x0=x0), c=-0.5)


# --------------------------------------------------------------------------
# solution families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionFamily:
    """A cataloged solution: profile field, ansatz constant, window.

    `role` says whether the field is the profile h (every family except
    Weierstrass) or directly the metric coefficient F (Weierstrass,
    where h = 0).  `info` carries construction byproducts such as the
    (alpha, beta) of the quadratic reduction or integration status.
    """

    tag: str
    parameters: dict
    field: ScalarField1D
    c: float
    window: tuple
    role: str = "h"
    info: dict = _dcfield(default_factory=dict)

    def __post_init__(self):
        alpha = self.info.get("alpha")
        beta = self.info.get("beta")
        if alpha is not None and beta is not None:
            expect = reduction_consistency(alpha, self.c)
            if abs(expect - beta) > 1e-9:
                raise ValueError(
                    f"{self.tag}: (alpha={alpha!r}, c={self.c!r}) demands "
                    f"beta={expect!r}, got {beta!r}")


def _c_from_alpha_beta(alpha, beta):
    """A root c of the consistency relation, chosen deterministically:
    the one nearest 1 when alpha != 0 (matching the cubic-degeneration
    families that live at c = 1), the smaller one when alpha = 0."""
    disc = alpha * alpha + 8.0 * beta
    if disc < 0.0:
        raise DomainError(
            f"no real c for (alpha, beta) = ({alpha!r}, {beta!r})")
    d = math.sqrt(disc)
    roots = (1.0 + (-3.0 * alpha - d) / 4.0, 1.0 + (-3.0 * alpha + d) / 4.0)
    if alpha == 0.0:
        return min(roots)
    return min(roots, key=lambda c: (abs(c - 1.0), c))


# Each family builder takes its catalog parameters as floats and returns
# (field, c, info), plus the role "F" for the Weierstrass profile.

def _family_linear(ell, b):
    return field_linear(ell, b), 1.0, {"first_integral": -0.5 * ell ** 3}


def _family_quadratic(b):
    def ev(x):
        w = x - b
        # from_derivatives([w^2, 2 w, 2, 0, 0]): coefficients w^2, 2 w, 1
        j = Jet1.constant(w * w)
        j.coeffs[1] = 2.0 * w
        j.coeffs[2] = 1.0
        return j

    return ScalarField1D(ev, label="quadratic"), 1.0, {"first_integral": 0.0}


def _family_rational(gamma, b, alpha, c):
    if gamma == 0.0:
        raise DomainError("RationalPole needs gamma != 0")
    beta = (2.0 + alpha * gamma) / (gamma * gamma)

    def off_pole(x):
        if abs(x - b) < _POLE_TOL:
            raise PoleProximityError(
                f"x = {x!r} within {_POLE_TOL} of the pole at {b!r}",
                nearest_pole=b)

    def ev(x):
        per_x(off_pole, x)
        return gamma / (Jet1.variable(x) - b)

    return (ScalarField1D(ev, label="rational", window=(b, math.inf)),
            _c_from_alpha_beta(alpha, beta) if c is None else c,
            {"alpha": alpha, "beta": beta})


def _family_tan(alpha, ell, b):
    if 2.0 * ell * alpha <= 0.0:
        raise DomainError("TanFamily needs ell * alpha > 0")
    s = math.sqrt(2.0 * ell * alpha)

    def off_pole(x):
        u = 0.5 * s * (x + b)
        if abs(math.cos(u)) < _POLE_TOL:
            k = round((u - 0.5 * math.pi) / math.pi)
            pole = (2.0 * (0.5 * math.pi + k * math.pi)) / s - b
            raise PoleProximityError(
                f"x = {x!r} near a tan pole", nearest_pole=pole)

    def ev(x):
        per_x(off_pole, x)
        return (s / alpha) * (0.5 * s * (Jet1.variable(x) + b)).tan()

    fld = ScalarField1D(ev, label="tan", period=2.0 * math.pi / s,
                        window=(-b - math.pi / s, -b + math.pi / s))
    return fld, 1.0 - alpha, {"alpha": alpha, "beta": 0.0}


def _family_tanh(c, ell, b):
    if c != -1.0:
        raise DomainError(
            "TanhHyperCR solves the quartic reduction only at c = -1 "
            "(alpha = -2c must equal 1 - c); other c values live on the "
            "hyper-CR side")
    return tanh_profile(c, ell, b), c, {"alpha": -2.0 * c, "beta": 0.0}


def _family_jacobi(m, c, b):
    if m == 0.0 or c == 1.0:
        raise DomainError("JacobiReduction needs m != 0 and c != 1")
    s = abs(c - 1.0) * abs(m)

    def sn_jet(x):
        u = s * (x + b)
        u_mod = u - round(u / _SN_ZERO) * _SN_ZERO
        if abs(u_mod) < _POLE_TOL * s:
            raise PoleProximityError(
                f"x = {x!r} near a pole of the Jacobi profile",
                nearest_pole=round(u / _SN_ZERO) * _SN_ZERO / s - b)
        return sn_imaginary_modulus_jet(u)

    def ev(x):
        w = per_x(sn_jet, x).coeffs.copy()
        for k in range(1, 5):
            w[k:] *= s  # chain rule for w(s (x + b)): coefficient k gains s^k
        return m / Jet1(w)

    fld = ScalarField1D(ev, label="jacobi", period=2.0 * _SN_ZERO / s,
                        window=(-b, -b + _SN_ZERO / s))
    return fld, c, {"alpha": 0.0, "beta": 2.0 * (c - 1.0) ** 2}


def _family_weierstrass(a, b):
    if b == 0.0:
        raise DomainError("Weierstrass family needs b != 0 here; the "
                          "b = 0 profile is the rational 1/(x+a)^2")

    def ev(x):
        Pj, _ = wp_jet(Jet1.variable(x) + a, b)
        return Pj

    fld = ScalarField1D(ev, label="weierstrass", period=real_period(b),
                        window=_pole_free_cell(a, b, 0.05))
    return fld, -0.5, {}, "F"


def _family_hypergeometric(gamma, beta, b, z_lo, z_hi):
    if beta <= 0.0 or gamma == 0.0:
        raise DomainError("HypergeometricParametric needs beta > 0 and "
                          "gamma != 0")
    if not 0.0 < z_lo < z_hi < 1.0:
        raise DomainError("need 0 < z_lo < z_hi < 1")
    broot = beta ** 0.25
    pref = math.sqrt(2.0) / (2.0 * gamma * broot)

    def x_of_z(z):
        return pref * math.sqrt(z) * hyp2f1(0.5, 0.75, 1.5, z) + b

    def dz_dx(z):
        """1 / (dx/dz), dx/dz = pref (1 - z)^(-3/4) / (2 sqrt z), for a
        float or a Jet1 z."""
        return 2.0 * z ** 0.5 * (1.0 - z) ** 0.75 / pref

    x_lo, x_hi = x_of_z(z_lo), x_of_z(z_hi)
    ends = (min(x_lo, x_hi), max(x_lo, x_hi))

    def z_of_x(x):
        """Newton on x(z) = x inside the shrinking bracket [lo, hi],
        started by linear interpolation between the window ends."""
        lo, hi = z_lo, z_hi
        z = z_lo + (x - x_lo) / (x_hi - x_lo) * (z_hi - z_lo)
        for _ in range(100):
            r = x_of_z(z) - x
            if (r > 0.0) == (pref > 0.0):
                hi = z
            else:
                lo = z
            z_new = z - r * dz_dx(z)
            if not lo <= z_new <= hi:
                z_new = 0.5 * (lo + hi)
            if abs(z_new - z) < 1e-14 * z:
                return z_new
            z = z_new
        raise AccuracyError(f"no convergence of z(x) at x={x!r}",
                            estimate=z, error_bound=hi - lo)

    def z_in_window(x):
        if not ends[0] <= x <= ends[1]:
            raise WindowError(f"x={x!r} outside the parametric window "
                              f"[{ends[0]!r}, {ends[1]!r}]")
        return z_of_x(x)

    def ev(x):
        # z per x (Newton on hyp2f1); the jet algebra once per array
        z = per_x(z_in_window, x)
        # z(x) solves dz/dx = dz_dx(z): each pass is exact to one more order
        zj = Jet1.constant(z)
        for _ in range(4):
            zj = _integral_jet(z, dz_dx(zj))
        return (gamma / broot) * (1.0 - zj).powr(-0.25)

    return (ScalarField1D(ev, label="hypergeometric", window=ends),
            1.0 - math.sqrt(beta / 2.0), {"alpha": 0.0, "beta": beta})


def _family_numeric(alpha, c, x0, h0, h1, span):
    beta = reduction_consistency(alpha, c)

    def guard(x, y):
        return abs(y[0]) < 1e6 and abs(y[1]) < 1e8

    spec = IvpSpec(dim=2, rhs=_ode2_rhs(alpha, beta), x0=x0, y0=[h0, h1],
                   guard=guard, rtol=1e-11, atol=1e-12)
    fwd = integrate(spec, x0 + span)
    bwd = integrate(spec, x0 - span)

    def ev(x):
        traj = fwd if x >= x0 else bwd
        v = traj(x)
        return ode2_jet(v[0], v[1], alpha, beta)

    fld = ScalarField1D(partial(per_x, ev), label="numeric",
                        window=(bwd.x_end, fwd.x_end))
    return fld, c, {"alpha": alpha, "beta": beta,
                    "status_forward": fwd.status,
                    "status_backward": bwd.status}


# The family catalog: alias -> (canonical tag, parameter defaults, builder).
# A default of None leaves the parameter out unless it is given.  A family
# that does not take c has its c fixed by the catalog.
_FAMILIES = {
    "weierstrass": ("Weierstrass", {"a": 1.5, "b": 1.0},
                    _family_weierstrass),
    "jacobi": ("JacobiReduction", {"m": 1.0, "c": 0.0, "b": 0.0},
               _family_jacobi),
    "hypergeometric": ("HypergeometricParametric",
                       {"gamma": 1.0, "beta": 2.0, "b": 0.0, "z_lo": 0.02,
                        "z_hi": 0.9}, _family_hypergeometric),
    "tan": ("TanFamily", {"alpha": -1.0, "ell": -0.5, "b": 0.0}, _family_tan),
    "tanh": ("TanhHyperCR", {"c": -1.0, "ell": -1.0, "b": 0.0}, _family_tanh),
    "linear": ("Linear", {"ell": 1.0, "b": 0.0}, _family_linear),
    "rational": ("RationalPole",
                 {"gamma": 1.0, "b": 0.0, "alpha": 0.0, "c": None},
                 _family_rational),
    "quadratic": ("Quadratic", {"b": 0.0}, _family_quadratic),
    "numeric": ("NumericODE", {"alpha": 0.0, "c": 0.0, "x0": 0.0, "h0": 1.0,
                               "h1": 0.0, "span": 6.0}, _family_numeric),
}

FAMILY_TAGS = tuple(tag for tag, _, _ in _FAMILIES.values())


def _family_row(tag: str) -> tuple:
    """The catalog row of an alias (any case) or a canonical tag."""
    for alias, row in _FAMILIES.items():
        if tag.lower() == alias or tag == row[0]:
            return row
    raise DomainError(f"unknown family tag {tag!r}; "
                      f"choose from {sorted(_FAMILIES)}")


def canonical_tag(tag: str) -> str:
    return _family_row(tag)[0]


def build_family(tag: str, **params) -> SolutionFamily:
    """Construct the full SolutionFamily record for a catalog tag.

    Parameters the catalog row does not declare raise DomainError; the
    rest default from the row and are recorded as `parameters`.  A c
    given to a family that does not take c is a claim, checked against
    the cataloged c.
    """
    tag, defaults, builder = _family_row(tag)
    c_claim = None if "c" in defaults else params.pop("c", None)
    extra = set(params) - set(defaults)
    if extra:
        raise DomainError(
            f"family {tag} does not accept parameter(s) {sorted(extra)}; "
            f"allowed: {sorted(set(defaults) | {'c'})}")
    p = {k: None if v is None else float(v)
         for k, v in {**defaults, **params}.items()}
    fld, c, info, *role = builder(**p)
    if c_claim is not None and abs(float(c_claim) - c) > 1e-12:
        raise DomainError(
            f"family {tag} has associated c = {c!r}, not {c_claim!r}")
    return SolutionFamily(
        tag, {k: v for k, v in p.items() if v is not None}, fld, c,
        fld.window, *role, info=info)


def family_catalog(tag: str, **params):
    """(profile field, associated c, admissible window) for a tag."""
    fam = build_family(tag, **params)
    return fam.field, fam.c, fam.window


# --------------------------------------------------------------------------
# periodicity
# --------------------------------------------------------------------------

def periodicity_check(h: ScalarField1D, T: float) -> bool:
    """True iff h and h' return to themselves under x -> x + T.

    64 samples spanning two alleged periods from the window's edge;
    samples where either endpoint cannot be evaluated (poles, ends of a
    numeric trajectory) are skipped, and at least 8 surviving samples
    are required for a positive verdict, as is a move of h or h' by at
    least _PERIOD_TOL across the samples: where neither moves (T at
    roundoff distance, a constant h) the comparison shows nothing.
    """
    if T <= 0.0:
        raise DomainError("periodicity_check needs T > 0")
    lo = h.window[0]
    base = lo if math.isfinite(lo) else 0.0
    offsets = np.linspace(T / 64.0, 2.0 * T, 64)
    seen = []
    worst = 0.0
    for dx in offsets:
        x = base + float(dx)
        try:
            j0 = h.evaluator(x)
            j1 = h.evaluator(x + T)
        except (EwhError, ValueError):
            continue
        seen.append((j0.value, j0.derivative(1)))
        worst = max(worst, abs(j1.value - j0.value),
                    abs(j1.derivative(1) - j0.derivative(1)))
    return (len(seen) >= 8 and worst < _PERIOD_TOL
            and max(np.ptp(seen, axis=0).tolist()) >= _PERIOD_TOL)


def first_return(samples, at, x_min: float):
    """First return of a profile to its anchor's (h, h').

    `samples` yields (x, h, h') at increasing x, the anchor first, and
    `at(x)` gives (h, h') at any x they span.  A bracket of consecutive
    samples, cut to its part beyond `x_min`, holds a candidate return
    when h - h(anchor) changes sign across it and h' at its right end
    has the sign of h'(anchor).  The first candidate is bisected on h;
    it is accepted when h and h' there match the anchor's to 1e-7 and
    1e-6 (relative), else the search goes on.  Returns the distance
    from the anchor, or None when the samples end without a return.
    """
    samples = iter(samples)
    x_anchor, v0, s0 = next(samples)
    x_prev, f_prev = x_anchor, 0.0
    for x, v, s in samples:
        f = v - v0
        if x > x_min and s * s0 > 0.0:
            if x_prev < x_min:
                # From the anchor itself h - h(anchor) starts at 0: only
                # the part of the bracket beyond x_min may hold a return.
                x_prev, f_prev = x_min, at(x_min)[0] - v0
            if f_prev * f <= 0.0:
                a, b = x_prev, x
                for _ in range(80):
                    mid = 0.5 * (a + b)
                    if (at(mid)[0] - v0) * f <= 0.0:
                        a = mid
                    else:
                        b = mid
                x_ret = 0.5 * (a + b)
                v_ret, s_ret = at(x_ret)[:2]
                if (abs(v_ret - v0) < 1e-7
                        and abs(s_ret - s0) < 1e-6 * (1.0 + abs(s0))):
                    return x_ret - x_anchor
        x_prev, f_prev = x, f
    return None


def detect_period(h: ScalarField1D, x_anchor: float):
    """Estimate a period of h by first return to the anchor's (h, h').

    Runs `first_return` on 2048 uniform samples from the anchor to the
    window's end, skipping returns within the first four; sampling stops
    at the first x that cannot be evaluated.  Returns the candidate T,
    or None when no return happens inside the window; candidates should
    be confirmed with periodicity_check.
    """
    lo, hi = h.window
    if not (math.isfinite(hi) and lo <= x_anchor < hi):
        return None
    n = 2048
    dx = (hi - x_anchor) / n

    def at(x):
        j = h.evaluator(x)
        return j.value, j.derivative(1)

    def samples():
        yield (x_anchor, *at(x_anchor))
        for i in range(1, n):
            x = x_anchor + i * dx
            try:
                v, s = at(x)
            except (EwhError, ValueError):
                return
            yield x, v, s

    return first_return(samples(), at, x_anchor + 4 * dx)
