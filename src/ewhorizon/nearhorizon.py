"""Near-horizon Einstein-Weyl structures in 2+1 dimensions.

The metric family

    g = r^2 F(x) dnu^2 + 2 dnu dr + 2 r h(x) dnu dx + dx^2

with det g = -1 identically, the one-parameter Weyl 1-form ansatz

    X = c h dx + r ((2c+1) h' + c (2c+1) h^2 - 2 F) dnu,

and everything the Einstein-Weyl condition reduces to on this ansatz:
the algebraic F(x) determined by h for c != -1/2, the second-order F
equation at c = -1/2, the quartic ODE for h, its factorization through
h'' = alpha h h' + beta h^3, the Abel equation and its parametric
solution, and a catalog of solution families (closed forms and one
numeric integration), each built from its tag by `build_family`.

Scalar profiles are ScalarField1D objects: an evaluator producing Jet1
values (derivatives to order 4), an admissible window and an optional
exact antiderivative.  Every evaluator takes a float x or a 1-D array
of x (then one batched Jet1, column k at x[k]) and runs once per array:
its `math` calls mapped over the array, + - * / in numpy in the float
order (the bit rule of `jets`), special functions and dense-output reads
in one pass, as do the residual formulas (`ode4_residual`, ...) at
batched jets.  Only a quadrature goes one x at a time (`per_x`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as _dcfield
from functools import cache, partial, reduce
from operator import add

import numpy as np

from .curvature import MetricField, OneFormField
from .errors import (DomainError, EwhError, PathBranchError,
                     PoleProximityError, StiffnessError, WindowError)
from .jets import (_D1_FAC, _WORK_COLS, Jet1, Jet3, _along_orders, _any,
                   each, one_pass, per_x, rounded)
from .odesolve import IvpSpec, integrate, quad
from .specfun import (_pole_free_cell, complete_elliptic_k, hyp2f1,
                      sn_imaginary_modulus_jet, wp_jet)

_NU, _R, _X = 0, 1, 2
_H_FLOOR = 1e-10         # F_from_h division guard
_POLE_TOL = 1e-6         # closed-form field pole guards, in x units
_THM1_MARGIN = 0.3       # thm1 window inset from the wp poles, in G units
_PERIOD_TOL = 1e-8       # periodicity_check match (and least move) of h, h'
_H_CAP = 1e6             # numeric sides: |h| < _H_CAP and |h'| < _DH_CAP,
_DH_CAP = 1e8            # else the numeric window (or a scan side) ends
_H_SWITCH = 10.0         # numeric sides: |h| where a pole tail may begin
_TAIL_S = 1e3            # numeric sides: the pole tail's range in s
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
    `integral`, when set, maps (x0, x1) to the exact definite integral.

    A call takes one float x, as the grid walker's x-by-x path does;
    `at` also an array of x, one per point of a PointBatch.  One memo
    serves both: one (5, n) jet with the column of each x it holds, and
    the last query with its jet.  A call at a new x appends its column,
    and a memo of `jets._WORK_COLS` columns (a walker's batch) starts
    afresh; an array evaluation holds the array's distinct x alone.  A
    query whose x it all holds is answered from it (the same array by
    identity), so every residual at one x shares one evaluation, and a
    walk x by x leaves its jets for a later `at` on those x.  Jets are
    shared and read-only.
    """

    evaluator: object
    label: str = ""
    window: tuple = (-math.inf, math.inf)
    integral: object = None
    # [{x: column}, the (5, n) jet, the last query, its jet]; a fresh
    # memo holds a (read-only) jet of no columns for an empty array
    _memo: list = _dcfield(default_factory=lambda: [
        {}, Jet1._raw(np.broadcast_to(0.0, (5, 0))), None, None],
        init=False, repr=False, compare=False)

    def __call__(self, x) -> Jet1:
        columns, held, key, jet = self._memo
        if x is key or type(key) is float and x == key:  # the last query
            return jet
        if x in columns:
            jet = Jet1._raw(held.coeffs[:, columns[x]])  # a read-only view
        else:
            self._check_window([x])
            jet = self.evaluator(x)
            jet.coeffs.flags.writeable = False
            if len(columns) >= _WORK_COLS:  # a full memo starts afresh
                columns, held = {}, Jet1._raw(held.coeffs[:, :0])
            columns[x] = len(columns)
            held = Jet1._raw(np.concatenate(
                (held.coeffs, jet.coeffs[:, None]), axis=1))
            held.coeffs.flags.writeable = False
        self._memo[:] = columns, held, x, jet
        return jet

    def at(self, x) -> Jet1:
        """The jet at x, a float; or at every x of a 1-D array, as one
        Jet1 with a trailing batch axis whose column k is the jet at x[k],
        from the memo or from one evaluator call at the array's distinct
        x.  WindowError at the first x outside the window, before the
        evaluator runs; any other error is the evaluator's, which need not
        be the first failing x's (the grid walker finds that one).  An
        empty array gives a jet with no columns."""
        if not isinstance(x, np.ndarray):
            return self(x)
        columns, held, key, jet = self._memo
        if x is key:
            return jet
        xs = x.tolist()
        if not columns.keys() >= set(xs):
            distinct = list(dict.fromkeys(xs))
            self._check_window(distinct)
            held = self.evaluator(x if len(distinct) == len(xs)
                                  else np.array(distinct))
            if held.coeffs.shape != (5, len(distinct)):
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

    def _check_window(self, xs):
        """WindowError at the first of the floats xs outside the window."""
        lo, hi = self.window
        for x in xs:
            if not lo <= x <= hi:
                raise WindowError(
                    f"x={x!r} outside window [{lo!r}, {hi!r}] of field "
                    f"{self.label!r}")


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

    return ScalarField1D(
        ev, label="sin",
        integral=lambda x0, x1: math.cos(x0) - each(math.cos, x1))


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


@one_pass
def antiderivative(h: ScalarField1D, x0: float, x1):
    """Definite integral of h from x0 to x1, a float, or to each x1 of an
    array: exact when the field provides one (at an array in one pass),
    else by quadrature, one x1 at a time."""
    if h.integral is None:
        return per_x(lambda t: quad(lambda s: h(s).value, x0, t), x1)
    return h.integral(x0, x1)


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
        return _integral_jet(antiderivative(h, x0, x), h.at(x)).exp()

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
        h3 = Jet3.from_axis_jet(d.h.at(p.x), _X, p.order)
        F3 = Jet3.from_axis_jet(d.F.at(p.x), _X, p.order)
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
        h3 = Jet3.from_axis_jet(hj, _X, p.order)
        hp3 = Jet3.from_axis_jet(hj.d(), _X, p.order)
        F3 = Jet3.from_axis_jet(d.F.at(p.x), _X, p.order)
        xnu = rj * ((2 * c + 1) * hp3 + c * (2 * c + 1) * h3 * h3 - 2.0 * F3)
        return [xnu, Jet3.constant(0.0), c * h3]

    return OneFormField(comp, label=f"weyl[c={c:g}]")


@one_pass
def flatness_defect(h: Jet1, F: Jet1):
    """F' - F h from the jets of h and F at one x; identically zero iff
    the metric is conformally flat on the window."""
    return F.derivative(1) - F.value * h.value


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
                         window=h.window)


# --------------------------------------------------------------------------
# reduction ODE residuals
# --------------------------------------------------------------------------

# The monomials of the quartic reduction ODE (see ode4_monomials), written
# once, as float expressions in h0..h3 = h, h', h'', h''', cm = c - 1 and
# the powers cm2 = cm ** 2, h0_3 = h0 ** 3 and h1_2 = h1 ** 2, each taken
# once (the same pow calls, so the same bits), compiled into ode4_rhs and,
# with each `a ** n` as each(pow, a, n) for arrays, into ode4_monomials.
_ODE4_TERMS = (
    "h0_3 * h1_2 * cm2",
    "-0.5 * cm2 * h0 ** 4 * h2",
    "2.25 * cm * h0 ** 2 * h1 * h2",
    "-0.75 * cm * h0_3 * h3",
    "-0.5 * h1_2 * h2",
    "0.5 * h0 * h1 * h3",
    "h0 * h2 ** 2",
)
_ode4 = {"each": each}
exec(compile(re.sub(r"(\w+) \*\* (\d)", r"each(pow, \1, \2)", f"""
def monomials(h0, h1, h2, h3, cm, cm2):
    h0_3, h1_2 = h0 ** 3, h1 ** 2
    return ({", ".join(_ODE4_TERMS)})
""") + f"""

def rhs_at(cm, cm2):
    def rhs(x, y):
        h0, h1, h2, h3 = y
        h0_3, h1_2 = h0 ** 3, h1 ** 2
        return h1, h2, h3, 4.0 * ({" + ".join(_ODE4_TERMS)}) / (h0 * h0)

    return rhs
""", "<quartic reduction ODE>", "exec"), _ode4)


def ode4_monomials(h0, h1, h2, h3, c):
    """The signed monomials of the quartic reduction ODE for h at fixed
    c, in order, except the last one, -1/4 h^2 h'''':

    h^3 h'^2 (c-1)^2 - 1/2 (c-1)^2 h^4 h'' + 9/4 (c-1) h^2 h' h''
    - 3/4 (c-1) h^3 h''' - 1/2 h'^2 h'' + 1/2 h h' h''' + h h''^2
    - 1/4 h^2 h'''' = 0

    So h'''' = 4 (their sum) / h^2.
    """
    cm = c - 1.0
    return _ode4["monomials"](h0, h1, h2, h3, cm, cm ** 2)


def ode4_rhs(c):
    """The quartic at fixed c as the system y' = rhs(x, y) in
    y = (h, h', h'', h''') of Python floats: h'''' is 4 times the sum,
    left to right, of ode4_monomials over h^2.  c - 1 and its square are
    taken once, here, and the sum is one expression, with no tuple."""
    cm = c - 1.0
    return _ode4["rhs_at"](cm, cm ** 2)


@one_pass
def _ode4_terms(h: Jet1, c: float) -> tuple:
    h0, h1, h2, h3, h4 = (h.derivative(k) for k in range(5))
    return (*ode4_monomials(h0, h1, h2, h3, c), -0.25 * each(pow, h0, 2) * h4)


@one_pass
def ode4_residual(h: Jet1, c: float):
    """The quartic reduction ODE for h at fixed c: the sum, left to
    right, of its signed monomials (see ode4_monomials)."""
    return reduce(add, _ode4_terms(h, c))


@one_pass
def ode4_condition(h: Jet1, c: float):
    """Magnitude scale of the quartic residual: the sum of the absolute
    values of its monomials.

    Near profile poles the monomials grow like high powers of h and the
    residual of a true solution is their cancellation noise, so the
    meaningful certified quantity is ode4_residual relative to this
    scale.
    """
    return reduce(add, map(abs, _ode4_terms(h, c)))


@one_pass
def ode2_residual(h: Jet1, alpha: float, beta: float):
    """h'' - alpha h h' - beta h^3."""
    return (h.derivative(2) - alpha * h.value * h.derivative(1)
            - beta * each(pow, h.value, 3))


def reduction_consistency(alpha: float, c: float) -> float:
    """beta = 2 (c-1)^2 + 3 alpha (c-1) + alpha^2.

    Any solution of h'' = alpha h h' + beta h^3 with this beta solves
    the quartic ODE at c: the quartic factors through the quadratic
    one.
    """
    cm = c - 1.0
    return 2.0 * cm * cm + 3.0 * alpha * cm + alpha * alpha


@one_pass
def F_ode_residual_chalf(F: Jet1, h: Jet1):
    """-3 F h^2 + 5 h F' + 2 F h' + 12 F^2 - 2 F'': the single
    remaining Einstein-Weyl equation at c = -1/2."""
    return (-3.0 * F.value * each(pow, h.value, 2)
            + 5.0 * h.value * F.derivative(1)
            + 2.0 * F.value * h.derivative(1)
            + 12.0 * each(pow, F.value, 2)
            - 2.0 * F.derivative(2))


@one_pass
def ode3_first_integral(h: Jet1):
    """-1/4 h^2 h''' + h h' h'' - 1/2 h'^3: a first integral of the
    quartic ODE at c = 1 (its x-derivative is the c = 1 quartic)."""
    h0, h1, h2, h3 = (h.derivative(k) for k in range(4))
    return -0.25 * h0 * h0 * h3 + h0 * h1 * h2 - 0.5 * each(pow, h1, 3)


@one_pass
def ode2_jet(value, slope, alpha: float, beta: float) -> Jet1:
    """The jet of a solution of h'' = alpha h h' + beta h^3 through
    (h, h') = (value, slope), with higher orders from the ODE: at
    numbers (taken as Python floats), or at arrays of them, one batched
    jet."""
    h0, h1 = (v if isinstance(v, np.ndarray) else float(v)
              for v in (value, slope))
    h2 = alpha * h0 * h1 + beta * each(pow, h0, 3)
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


# --------------------------------------------------------------------------
# profiles defined by an integral: one dense solve
# --------------------------------------------------------------------------

def _split(x, first, read_first, read_rest):
    """read_first(x) where the condition `first` holds at x, else
    read_rest(x): at a float x one of them; at an array, each on its
    part of x, into one array whose last axis runs over x."""
    if not isinstance(x, np.ndarray):
        return read_first(x) if first else read_rest(x)
    if first.all() or not first.any():
        return (read_first if first.all() else read_rest)(x)
    a, b = read_first(x[first]), read_rest(x[~first])
    out = np.empty(a.shape[:-1] + x.shape)
    out[..., first], out[..., ~first] = a, b
    return out


class _DenseSolve:
    """y(x) of a scalar profile ODE y' = rhs(x, [y]), y(x0) = y0, read
    from the dense output of `integrate` (DOP853, rtol 1e-13, atol 1e-15)
    on each side of x0, in pieces each from the last one's end: `run`
    adds one to x_end (to a guard stop, with a guard); a read
    past a side's end adds pieces ending at x0 +- 2^k, k = 0, 1, ...,
    until x is covered, so a read does not depend on the reads before."""

    def __init__(self, rhs, x0, y0):
        self.rhs, self.x0 = rhs, x0
        self.pieces = {1.0: [], -1.0: []}
        self.ends = {1.0: (x0, [y0]), -1.0: (x0, [y0])}  # (x, [y]) at each

    def run(self, x_end, guard=None):
        d = 1.0 if x_end >= self.x0 else -1.0
        piece = integrate(IvpSpec(self.rhs, *self.ends[d], rtol=1e-13,
                                  atol=1e-15, guard=guard), x_end)
        self.pieces[d].append(piece)
        self.ends[d] = piece.x_end, piece.y_end

    @one_pass
    def __call__(self, x):
        """y at x, a float; or at each x of an array in one pass (an
        array, entry k with the bits of y at x[k])."""
        return _split(x, x >= self.x0, partial(self._side, 1.0),
                      partial(self._side, -1.0))

    def _side(self, d, x):
        """y at x (a float or an array) on side d of x0, each x read from
        the first piece that ends at or past it (none: x0 before any
        piece, or a NaN x, reads y at the side's end)."""
        reach = 1.0
        while _any((x - self.ends[d][0]) * d > 0.0):
            while (self.x0 + d * reach - self.ends[d][0]) * d <= 0.0:
                reach *= 2.0
            self.run(self.x0 + d * reach)
        end = float(self.ends[d][1][0])
        if not isinstance(x, np.ndarray):
            covering = [p for p in self.pieces[d] if (p.x_end - x) * d >= 0.0]
            return float(covering[0](x)[0]) if covering else end
        y, left = np.full(len(x), end), np.ones(len(x), bool)
        for p in self.pieces[d]:
            on = left & ((p.x_end - x) * d >= 0.0)
            if on.any():
                y[on], left = p(x[on])[0], left & ~on
        return y


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
    pole at G + a = 0); it need not contain x0.  G is one dense solve of
    G' = e^{H/2} (`_DenseSolve`), run on a side of x0 with a finite edge
    to a guard one G unit past its farthest edge; an edge is the root of
    G = its target, by Newton on the dense output from the knot before
    it, or infinite where G does not reach it within 1000 of x0.
    """
    # H(x0, x) at each stage: h's exact integral itself where it has one
    H = h.integral or partial(antiderivative, h)
    solve = _DenseSolve(lambda x, y: (math.exp(0.5 * H(x0, x)),), x0, 0.0)
    cell = (_THM1_MARGIN - a, math.inf) if b == 0.0 else \
        _pole_free_cell(a, b, _THM1_MARGIN)
    for d in (1.0, -1.0):  # G is monotone: run one G unit past the farthest
        ends = [g * d for g in cell if g * d > 0.0 and math.isfinite(g)]
        if ends:
            solve.run(x0 + 1000.0 * d,
                      lambda x, y, s=max(ends) + 1.0, d=d: y[0] * d < s)

    def edge(g):
        if g == 0.0 or math.isinf(g):  # at x0, or never reached
            return x0 if g == 0.0 else g
        d = math.copysign(1.0, g)
        piece = solve.pieces[d][0]  # the side's one piece so far
        past = np.flatnonzero(piece.ys[:, 0] * d >= g * d)
        if past.size == 0:
            return d * math.inf
        x = piece.xs[past[0] - 1].item()  # Newton from the knot before it
        for _ in range(8):
            x -= (solve(x) - g) / solve.rhs(x, [g])[0]
        return x

    def ev(x):
        Hj = _integral_jet(antiderivative(h, x0, x), h.at(x))
        Gj = _integral_jet(solve(x), (0.5 * Hj).exp())
        Pj, _ = wp_jet(Gj + a, b)
        return Hj.exp() * Pj

    return ScalarField1D(ev, label=f"thm1[{h.label};a={a:g},b={b:g}]",
                         window=tuple(map(edge, cell)))


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

    @one_pass
    def off_pole(x):
        if _any(abs(x - b) < _POLE_TOL):
            raise PoleProximityError(
                f"x = {x!r} within {_POLE_TOL} of the pole at {b!r}",
                nearest_pole=b)

    def ev(x):
        off_pole(x)
        return gamma / (Jet1.variable(x) - b)

    return (ScalarField1D(ev, label="rational", window=(b, math.inf)),
            _c_from_alpha_beta(alpha, beta) if c is None else c,
            {"alpha": alpha, "beta": beta})


def _family_tan(alpha, ell, b):
    if 2.0 * ell * alpha <= 0.0:
        raise DomainError("TanFamily needs ell * alpha > 0")
    s = math.sqrt(2.0 * ell * alpha)

    @one_pass
    def off_pole(x):
        u = 0.5 * s * (x + b)
        if _any(abs(each(math.cos, u)) < _POLE_TOL):
            k = rounded((u - 0.5 * math.pi) / math.pi)
            pole = (2.0 * (0.5 * math.pi + k * math.pi)) / s - b
            raise PoleProximityError(
                f"x = {x!r} near a tan pole", nearest_pole=pole)

    def ev(x):
        off_pole(x)
        return (s / alpha) * (0.5 * s * (Jet1.variable(x) + b)).tan()

    fld = ScalarField1D(ev, label="tan",
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

    @one_pass
    def sn_jet(x):
        u = s * (x + b)
        u_mod = u - rounded(u / _SN_ZERO) * _SN_ZERO
        if _any(abs(u_mod) < _POLE_TOL * s):
            raise PoleProximityError(
                f"x = {x!r} near a pole of the Jacobi profile",
                nearest_pole=rounded(u / _SN_ZERO) * _SN_ZERO / s - b)
        return sn_imaginary_modulus_jet(u)

    def ev(x):
        w = sn_jet(x).coeffs.copy()
        for k in range(1, 5):
            w[k:] *= s  # chain rule for w(s (x + b)): coefficient k gains s^k
        return m / Jet1(w)

    fld = ScalarField1D(ev, label="jacobi",
                        window=(-b, -b + _SN_ZERO / s))
    return fld, c, {"alpha": 0.0, "beta": 2.0 * (c - 1.0) ** 2}


def _family_weierstrass(a, b):
    if b == 0.0:
        raise DomainError("Weierstrass family needs b != 0 here; the "
                          "b = 0 profile is the rational 1/(x+a)^2")

    def ev(x):
        Pj, _ = wp_jet(Jet1.variable(x) + a, b)
        return Pj

    fld = ScalarField1D(ev, label="weierstrass",
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

    def dz_dx(z):  # 1 / (dx/dz) at a float or a Jet1 z
        return 2.0 * z ** 0.5 * (1.0 - z) ** 0.75 / pref

    x_lo, x_hi = (pref * math.sqrt(z) * hyp2f1(0.5, 0.75, 1.5, z) + b
                  for z in (z_lo, z_hi))
    ends = (min(x_lo, x_hi), max(x_lo, x_hi))
    solve = _DenseSolve(lambda x, y: (dz_dx(y[0]),), x_lo, z_lo)  # z(x)
    solve.run(x_hi)

    def ev(x):
        fld._check_window(np.atleast_1d(x).tolist())  # as a direct call too
        z = solve(x)
        # z(x) solves dz/dx = dz_dx(z): each pass is exact to one more order
        zj = Jet1.constant(z)
        for _ in range(4):
            zj = _integral_jet(z, dz_dx(zj))
        return (gamma / broot) * (1.0 - zj).powr(-0.25)

    fld = ScalarField1D(ev, label="hypergeometric", window=ends)
    return fld, 1.0 - math.sqrt(beta / 2.0), {"alpha": 0.0, "beta": beta}


def _tail_rhs(rhs, order: int):
    """The profile ODE y' = rhs(x, y), y = (h, ..., h^(order-1)), in
    u = 1/h, p_k = h^(k)/h^(k+1) and s with ds = h dx, as the system in
    (x, u, p_1, ...) for `integrate`: dx/ds = u, du/ds = -p_1 u and
    dp_k/ds = p_(k+1) - (k+1) p_1 p_k.  Both reductions have every term
    of weight order + 1 (h and d/dx of weight 1), so p_order is rhs at
    h = 1; on h'' = alpha h h' + beta h^3 that is alpha p + beta."""
    return _tail_binder(order)(rhs)


@cache
def _tail_binder(order):
    # `_tail_rhs` for one order in straight-line code, built on first use
    ps = ", ".join(f"p{k}" for k in range(1, order))
    dps = ", ".join(f"at_one[{k}] - {k + 1}.0 * p1 * p{k}"
                    for k in range(1, order))
    scope = {}
    exec(f"def bind(rhs):\n    def tail(s, y):\n        x, u, {ps} = y\n"
         f"        at_one = rhs(x, [1.0, {ps}])\n"
         f"        return u, -p1 * u, {dps}\n    return tail\n", scope)
    return scope["bind"]


def _pole_tail(rhs, x, y, x_end):
    """The tail system (`_tail_rhs`) of y' = rhs from the knot (x, y)
    towards a pole, where it is regular, if it ends at its guard short of
    the span end x_end, else None.  The guard is the caps |h| < _H_CAP,
    |h'| < _DH_CAP as |u| > 1/_H_CAP, |p_1| < _DH_CAP u^2, with x short
    of x_end and |h| not below the lesser of _H_SWITCH and its start;
    the tail is kept where the state it rejected (`Trajectory.rejected`)
    is in reach, so a cap stopped it.  atol, below rtol times the least
    |u| admitted, lets x or a p_k start at 0."""
    direction = 1.0 if x_end > x else -1.0
    h, power, ps = y[0], y[0], []
    for v in y[1:]:  # powers as products, so p_1 = h' / (h * h)
        power *= h
        ps.append(v / power)
    level = max(1.0 / abs(h), 1.0 / _H_SWITCH)

    def in_reach(z):  # short of x_end, |h| not below the level
        return (x_end - z[0]) * direction > 0.0 and abs(z[1]) <= level

    def guard(s, z):
        u, p1 = z[1], z[2]
        return (in_reach(z) and abs(u) > 1.0 / _H_CAP
                and abs(p1) < _DH_CAP * u * u)

    try:
        tail = integrate(IvpSpec(rhs=_tail_rhs(rhs, len(y)), x0=0.0,
                                 y0=[x, 1.0 / h, *ps], guard=guard, rtol=1e-8,
                                 atol=1e-14),
                         math.copysign(_TAIL_S, h) * direction)
    except StiffnessError:
        return None
    # kept where a cap, not x_end or the level, stopped it
    return tail if tail.status == "guard" and in_reach(tail.rejected[1]) \
        else None


class _NumericSide:
    """One side of a profile ODE y' = rhs(x, y), y = (h, h', ...), from
    (x0, y0) towards x_end, within the caps |h| < _H_CAP, |h'| < _DH_CAP
    and, where a `floor` is given (None for none), with h above it on
    the sign of h(x0): floor < sign(h(x0)) h, so that a step that carries
    h across zero is seen to cross the floor.  It marches in x while
    also |h| < _H_SWITCH; where only that bound rejected the state that
    stopped it, a kept `_pole_tail` gives the `edge` and the estimate
    x + u/p_1 of the `pole` beyond it, else the march goes on from the
    switch knot (`rest`).  `status` is that of the integration ending at
    the edge, and `outcome` is "blowup" for a kept tail or a state
    rejected past a cap, "ok" at x_end, else "guard" (the floor).
    Calling it at x up to the edge gives y, past the switch knot from
    the march resumed there (to a kept tail's edge, built on the first
    such call)."""

    def __init__(self, rhs, x0, y0, x_end, floor, rtol, atol):
        self.direction = 1.0 if x_end >= x0 else -1.0
        lo = -math.inf if floor is None else floor
        sign = math.copysign(1.0, y0[0])

        def marching(x, y):
            h = y[0]
            return (lo < sign * h and abs(h) < _H_SWITCH
                    and abs(y[1]) < _DH_CAP)

        def guard(x, y):
            h = y[0]
            return lo < sign * h and abs(h) < _H_CAP and abs(y[1]) < _DH_CAP

        def march(x, y, end, stop):
            return integrate(IvpSpec(rhs=rhs, x0=x, y0=y, guard=stop,
                                     rtol=rtol, atol=atol), end)

        head = march(x0, y0, x_end, marching)
        self.head, self.tail, self.rest, self.pole = head, None, None, None
        self.edge, self.status, self._resume = head.x_end, head.status, None
        rejected = head.rejected
        # the switch: only |h| >= _H_SWITCH rejected the head's last trial
        if head.status == "guard" and guard(*rejected):
            x = head.x_end
            self.tail = _pole_tail(rhs, x, head.y_end.tolist(), x_end)
            if self.tail is None:
                self.rest = march(x, head.y_end, x_end, guard)
                self.edge, self.status = self.rest.x_end, self.rest.status
                rejected = self.rest.rejected
            else:
                self.edge, u, p = self.tail.y_end.tolist()[:3]
                self.pole = self.edge + u / p
                # the edge lies short of the pole: this march needs no guard
                self._resume = partial(march, x, head.y_end, self.edge, None)
        # a guard stop inside the caps is the floor's
        capped = self.status == "ok" or (abs(rejected[1][0]) < _H_CAP
                                         and abs(rejected[1][1]) < _DH_CAP)
        self.outcome = self.status if capped and self.pole is None \
            else "blowup"

    def period(self):
        """First return of a forward side to its start's (h, h')
        (`first_return`): the knots of the x-march and of its fallback
        march bracket it and their dense output refines it, so nothing
        is integrated (a tail's knots are not read).  Returns within the
        first 4/2048 of the span are skipped, as detect_period skips its
        first four samples."""
        head, rest = self.head, self.rest
        x0 = float(head.xs[0])
        if not self.edge > x0:
            return None
        rows = [np.column_stack([head.xs, head.ys[:, :2]])]
        if rest is not None:
            rows.append(np.column_stack([rest.xs, rest.ys[:, :2]])[1:])
        return first_return(iter(np.concatenate(rows).tolist()), self,
                            x0 + 4 * ((self.edge - x0) / 2048))

    @one_pass
    def __call__(self, x):
        """y at x, a float; or at each x of an array in one pass (an
        array of shape (dim, B), column k with the bits of y at x[k])."""
        return _split(x, (x - self.head.x_end) * self.direction <= 0.0,
                      self.head, self._past_head)

    def _past_head(self, x):
        if self._resume is not None:  # once: a failed march stays failed
            resume, self._resume = self._resume, None
            self.rest = resume()
        return (self.head if self.rest is None else self.rest)(x)


def _family_numeric(alpha, c, x0, h0, h1, span):
    """The profile that integrates h'' = alpha h h' + beta h^3 from
    (h, h')(x0) = (h0, h1), on the window where |h| < 1e6 and
    |h'| < 1e8 (the caps), within x0 +- span.  Past |h| = 10
    each side (`_NumericSide`) locates those unchanged caps in the
    regular (x, u, p; s) of `_pole_tail`, to about 1e-11; where that
    tail does not end at them, the march goes on in x, so an edge at
    x0 +- span stays exactly there.
    """
    beta = reduction_consistency(alpha, c)
    rhs = _ode2_rhs(alpha, beta)
    fwd, bwd = (_NumericSide(rhs, x0, [h0, h1], x0 + s * span, None,
                             rtol=1e-11, atol=1e-12)
                for s in (1.0, -1.0))

    @one_pass
    def ev(x):
        h, dh = _split(x, x >= x0, fwd, bwd)
        return ode2_jet(h, dh, alpha, beta)

    fld = ScalarField1D(ev, label="numeric",
                        window=(bwd.edge, fwd.edge))
    return fld, c, {"alpha": alpha, "beta": beta,
                    "status_forward": fwd.status,
                    "status_backward": bwd.status,
                    "pole_forward": fwd.pole, "pole_backward": bwd.pole}


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


def _family_row(tag: str) -> tuple:
    """The catalog row of an alias (any case) or a canonical tag."""
    for alias, row in _FAMILIES.items():
        if tag.lower() == alias or tag == row[0]:
            return row
    raise DomainError(f"unknown family tag {tag!r}; "
                      f"choose from {sorted(_FAMILIES)}")


def build_family(tag: str, **params) -> SolutionFamily:
    """Construct the full SolutionFamily record for a catalog tag.

    Parameters the catalog row does not declare raise DomainError; the
    rest default from the row and are recorded as `parameters`.  A c
    given to a family that does not take c is a claim, checked against
    the cataloged c.  A parameter (or claim) that is not a finite number
    raises DomainError.
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
    for k, v in {"c": c_claim, **p}.items():
        if v is not None and not math.isfinite(float(v)):
            raise DomainError(f"family {tag}: {k} must be finite, got {v!r}")
    fld, c, info, *role = builder(**p)
    if c_claim is not None and abs(float(c_claim) - c) > 1e-12:
        raise DomainError(
            f"family {tag} has associated c = {c!r}, not {c_claim!r}")
    return SolutionFamily(
        tag, {k: v for k, v in p.items() if v is not None}, fld, c,
        fld.window, *role, info=info)


# --------------------------------------------------------------------------
# periodicity
# --------------------------------------------------------------------------

def _h_dh(h: ScalarField1D):
    """The (h, h') reader of a profile: at(x) from its evaluator."""
    def at(x):
        j = h.evaluator(x)
        return j.value, j.derivative(1)
    return at


def periodicity_check(h: ScalarField1D, T: float) -> bool:
    """True iff h and h' return to themselves under x -> x + T: the
    check `_period_holds` on h's (h, h') reader from its window's edge."""
    return _period_holds(_h_dh(h), h.window[0], T)


def _period_holds(at, lo: float, T: float) -> bool:
    """True iff the (h, h') that `at(x)` reads return to themselves under
    x -> x + T.

    64 samples spanning two alleged periods from lo (from 0 where lo is
    not finite); samples where either endpoint cannot be read (poles,
    ends of a numeric trajectory) are skipped, and at least 8 surviving
    samples are required for a positive verdict, as is a move of h or h'
    by at least _PERIOD_TOL across the samples: where neither moves (T
    at roundoff distance, a constant h) the comparison shows nothing.
    """
    if T <= 0.0:
        raise DomainError("periodicity_check needs T > 0")
    base = lo if math.isfinite(lo) else 0.0
    offsets = np.linspace(T / 64.0, 2.0 * T, 64)
    seen = []
    worst = 0.0
    for dx in offsets:
        x = base + float(dx)
        try:
            v0, s0 = at(x)
            v1, s1 = at(x + T)
        except (EwhError, ValueError):
            continue
        seen.append((v0, s0))
        worst = max(worst, abs(v1 - v0), abs(s1 - s0))
    return (len(seen) >= 8 and worst < _PERIOD_TOL
            and max(np.ptp(seen, axis=0).tolist()) >= _PERIOD_TOL)


def first_return(samples, at, x_min: float):
    """First return of a profile to its anchor's (h, h').

    `samples` yields (x, h, h') at increasing x, the anchor first, and
    `at(x)` gives (h, h') at any x they span (a profile's reader in
    detect_period, a side's dense output in `_NumericSide.period`).  A
    bracket of consecutive samples, cut to its part beyond `x_min`,
    holds a candidate return when h - h(anchor) changes sign across it
    and h' at its right end has the sign of h'(anchor).  The first
    candidate is bisected on h; it is accepted when h and h' there match
    the anchor's to 1e-7 and 1e-6 (relative), else the search goes on.
    Returns the distance from the anchor, or None when the samples end
    without a return.
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
    at = _h_dh(h)

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
