"""Truncated Taylor (jet) arithmetic in one and three variables.

A jet stores the value of a smooth function together with every derivative
up to total order 4, as Taylor coefficients.  Sums, products, quotients and
elementary-function composition are exact truncated power-series algebra,
so derivative extraction is exact up to floating point roundoff.  Jets are
the derivative engine behind the curvature and residual modules; the
finite-difference oracle at the bottom of this file is the independent
cross-check.

Coordinates are always ordered (nu, r, x) = (0, 1, 2).

A Jet3 is taken either at one Point (coefficients of shape (N3,)) or at a
PointBatch of B points (shape (N3, B), one column per point).  Each point
may have its own x (as in every batch `report` walks), and then a Jet1 of
x carries a trailing batch axis too (shape (5, B)); or the points share
one x, and then a jet of x alone stays unbatched and broadcasts.  Every
column is computed with the same floating-point operations, in the same
order, as the jet at that single point, so a batch equals the stack of
its points bit for bit, with one exception: where a coefficient is NaN,
the batch's is NaN too, but not always of the same sign (the NaN column
of `Jet1.variable(np.array([3.0, nan])).exp()` is +NaN in orders 1-4,
the jet at nan alone -NaN).  The Jet3 product and `d` take one batched
form, a Point's jet being a batch of one to them.

A Point or PointBatch carries `order`, the total order k to which the
Jet3s taken at it are built: ORDER unless a consumer that reads fewer
asks for them (`at_order`).  A Jet3 of order k holds the first
_COUNT[k] coefficients (1, 4, 10, 20 or 35), bit for bit those of the
order-4 jet, and its product takes only the pairs that land at orders
up to k; an operation on jets of two orders truncates to the lower.
The constructor and `constant` build order 4.

A Jet1 has coefficients of shape (5,) at one x or (5, B) at B of them.
The scalar Jet1 product is `np.convolve`; the batched one reproduces it
column for column (recipe in `_convolve_columns`, pinned by
`test_batched_jet1_product_is_np_convolve_bit_for_bit`).  The
derivative tables of the elementary functions, and the special
functions, dense-output reads, profiles and residual formulas of
`specfun`, `odesolve` and `nearhorizon`, take a float or a 1-D array of
them in one pass (`one_pass`), by the bit rule (stated above `each`).
Only a quadrature goes one x at a time (`per_x`).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import EwhError, SingularJetError

ORDER = 4

_FACT = np.array([1.0, 1.0, 2.0, 6.0, 24.0])

AXES = ("nu", "r", "x")


def _check_order(order):
    if order not in range(ORDER + 1):
        raise ValueError(f"jet order must be an integer from 0 to {ORDER}, "
                         f"got {order!r}")


class _Points:
    """What Point and PointBatch share: `order`, the total order to which
    the jets taken at them are built."""

    def __getitem__(self, axis):
        return (self.nu, self.r, self.x)[axis]

    def at_order(self, order):
        """The same points, their jets built to total order `order`."""
        return self if order == self.order else replace(self, order=order)


@dataclass(frozen=True)
class Point(_Points):
    """Coordinate triple (nu, r, x); jets taken at it are built to total
    order `order` (ORDER unless a consumer asks for fewer)."""

    nu: float
    r: float
    x: float
    order: int = ORDER

    def __post_init__(self):
        for name in ("nu", "r", "x"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {name}={v!r}")
        _check_order(self.order)

    def shifted(self, axis, dt):
        c = [self.nu, self.r, self.x]
        c[axis] += dt
        return Point(*c, self.order)


@dataclass(frozen=True)
class PointBatch(_Points):
    """B points (nu[k], r[k], x[k]); nu and r are arrays of shape (B,),
    and x is either one float the points share or an array of shape
    (B,).  Jets taken at a batch carry a trailing batch axis, and are
    built to total order `order`, as at a Point."""

    nu: np.ndarray
    r: np.ndarray
    x: object
    order: int = ORDER

    def __post_init__(self):
        nu, r, x = (np.asarray(v, dtype=float)
                    for v in (self.nu, self.r, self.x))
        if nu.ndim != 1 or nu.shape != r.shape or x.ndim and \
                x.shape != nu.shape:
            raise ValueError(f"nu and r must be 1-D of one length, and x a "
                             f"number or of their length, got shapes "
                             f"{nu.shape}, {r.shape} and {x.shape}")
        for name, v in (("nu", nu), ("r", r), ("x", x)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"non-finite coordinate {name}={v!r}")
        _check_order(self.order)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "r", r)
        if x.ndim:
            object.__setattr__(self, "x", x)

    @property
    def size(self) -> int:
        return len(self.nu)

    def points(self):
        """The batch's points, in column order."""
        x = self.x
        xs = x.tolist() if isinstance(x, np.ndarray) else [x] * self.size
        return [Point(nu, r, x, self.order)
                for nu, r, x in zip(self.nu.tolist(), self.r.tolist(), xs)]


def _build_multi_indices():
    out = []
    for total in range(ORDER + 1):
        for i in range(total, -1, -1):
            for j in range(total - i, -1, -1):
                out.append((i, j, total - i - j))
    return tuple(out)


MULTI_INDICES = _build_multi_indices()
INDEX3 = {mi: n for n, mi in enumerate(MULTI_INDICES)}
N3 = len(MULTI_INDICES)
# _COUNT[k]: coefficients of the orders up to k, which MULTI_INDICES
# lists first (1, 4, 10, 20, 35); a jet built to order k has _COUNT[k]
_COUNT = tuple(sum(sum(mi) <= k for mi in MULTI_INDICES)
               for k in range(ORDER + 1))


def _build_mul_table():
    """The pairs (a, b) of coefficients whose product lands at a target t
    of total order <= ORDER, listed by the order of t and within it in
    (a, b) order: the pairs of an order-k product are the table's first
    _PAIRS[_COUNT[k]], and each target's pairs come in the same order
    at every k."""
    by_order = [[] for _ in range(ORDER + 1)]
    for na, a in enumerate(MULTI_INDICES):
        for nb, b in enumerate(MULTI_INDICES):
            t = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            if sum(t) <= ORDER:
                by_order[sum(t)].append((na, nb, INDEX3[t]))
    table, ends = [], {}
    for total, rows in enumerate(by_order):
        table += rows
        ends[_COUNT[total]] = len(table)
    ia, ib, it = np.asarray(table).T.copy()
    return ia, ib, it, ends


# _PAIRS[n]: how many pairs the product of n-coefficient jets takes
# (1, 7, 28, 84, 210)
_MUL_A, _MUL_B, _MUL_T, _PAIRS = _build_mul_table()


def _build_deriv_tables():
    src = np.zeros((3, N3), dtype=np.intp)
    fac = np.zeros((3, N3))
    for axis in range(3):
        for n, mi in enumerate(MULTI_INDICES):
            up = list(mi)
            up[axis] += 1
            up = tuple(up)
            if sum(up) <= ORDER:
                src[axis, n] = INDEX3[up]
                fac[axis, n] = up[axis]
    return src, fac


_D_SRC, _D_FAC = _build_deriv_tables()

# _AXIS_POS[axis][k]: coefficient position of d^k along one axis
_AXIS_POS = tuple(np.array([INDEX3[tuple(k if a == axis else 0
                                         for a in range(3))]
                            for k in range(ORDER + 1)])
                  for axis in range(3))
_UNIT_POS = tuple(int(pos[1]) for pos in _AXIS_POS)

_D1_FAC = np.arange(1.0, ORDER + 1)  # d/dx of the orders 1..4


def _along_orders(fac, ndim):
    """Per-order factors `fac`, shaped to scale the first axis of an
    ndim-dimensional coefficient array."""
    return fac if ndim == 1 else fac.reshape(fac.shape + (1,) * (ndim - 1))


_PARTIAL_FAC = np.array([_FACT[i] * _FACT[j] * _FACT[k] for (i, j, k) in MULTI_INDICES])


def _build_partial_tables():
    """Per order k, the coefficient position and factorial factor of
    d_a1 ... d_ak, as arrays indexed by the k axes (a1, ..., ak)."""
    tables = []
    for k in range(ORDER + 1):
        pos = np.empty((3,) * k, dtype=np.intp)
        for axes in np.ndindex(pos.shape):
            pos[axes] = INDEX3[tuple(axes.count(a) for a in range(3))]
        tables.append((pos, _PARTIAL_FAC[pos]))
    return tables


_PARTIAL_TABLES = _build_partial_tables()


def stacked_partials(coeffs, order, out=None, first=0):
    """Every partial of total `order` of jets whose coefficients, from
    the `first`, are stacked along the first axis of `coeffs`:
    out[a1, ..., ak, *rest] = d_a1 ... d_ak of the jet at coeffs[:, *rest],
    in a fresh array or in `out`.  Entry for entry, the same product as
    Jet3.partial."""
    pos, fac = _PARTIAL_TABLES[order]
    out = np.take(coeffs, pos - first, axis=0, out=out, mode="clip")
    out *= _along_orders(fac, coeffs.ndim)
    return out


class _OrderSpent(ValueError):
    """A derivative of a jet of order 0, which carries none."""


def jets_to(evaluate, p, order):
    """evaluate(q), a list of Jet3, at the points of p with their jets
    built to total order `order`: the order a consumer reads.  Where a
    jet comes back below it, or the evaluation differentiates a jet of
    order 0 (an evaluator that differentiates the jets of the order it
    is given), the list is evaluated again at order ORDER, where
    differentiating keeps the order."""
    try:
        jets = evaluate(p.at_order(order))
        if all(len(j.coeffs) >= _COUNT[order] for j in jets):
            return jets
    except _OrderSpent:
        pass
    return evaluate(p.at_order(ORDER))


# The bit rule.  A batch of numbers (a 1-D array) takes one pass, and
# entry k keeps the bits of the float evaluation at its k-th number:
# every call the float path makes to `math`, or to builtin pow for **,
# is that call mapped over the batch's list (`each`), and the rest is the
# same + - * / in numpy, in the same order, under the error state of
# Python floats (`one_pass`).  numpy's own exp, tanh, asin, power and the
# like round differently (tests/test_bit_rule.py), and so does ** on an
# array: the residual formulas of `nearhorizon` (flatness_defect,
# ode2_residual, F_ode_residual_chalf, ode3_first_integral, ode4_residual,
# ode4_condition) write each(pow, a, n), and
# test_residual_formulas_keep_the_float_bits_per_column pins their bits.


def each(fn, v, *args):
    """fn(v, *args), fn a `math` function or pow: at a number, the call
    itself; at an array, the call at each entry, mapped over its list."""
    if isinstance(v, np.ndarray):
        return np.fromiter(map(fn, v.tolist(), *map(repeat, args)), float,
                           v.size)
    return fn(v, *args)


def _any(holds):
    """A condition at a number, or whether it holds at any entry."""
    return holds.any() if isinstance(holds, np.ndarray) else holds


def rounded(v):
    """round(v), to the nearest integer and half to even: at a number
    the int that round returns; at an array, as floats, with +0.0 where
    round gives 0 (np.rint(-0.5) is -0.0).  A NaN or an infinity raises
    (at an array a ValueError, which `one_pass` replays as round's
    ValueError or OverflowError at the number)."""
    if not isinstance(v, np.ndarray):
        return round(v)
    if not np.isfinite(v).all():
        raise ValueError(f"cannot round the non-finite entries of {v!r}")
    return np.rint(v) + 0.0


def _batched(a):
    return isinstance(a, np.ndarray) and a.ndim == 1 or \
        isinstance(a, _JetBase) and a.coeffs.ndim == 2


def _points(a):
    """A batched argument's entries (a jet's columns), else a at each."""
    if isinstance(a, np.ndarray):
        return a.tolist()
    if _batched(a):
        return [type(a)._raw(c) for c in a.coeffs.T]
    return repeat(a)


def one_pass(fn):
    """fn, written once for numbers and for batches (1-D arrays of
    numbers, or jets with a batch axis; entry k of each argument makes
    up point k).  At numbers, fn itself.  At a batch, fn in one pass
    under numpy's error state for Python float arithmetic: an overflow
    or an invalid result goes on silently, a division by zero raises
    (numpy raises only where the numerator is finite and nonzero, Python
    at any, so fn checks a denominator that can meet a 0, an infinity or
    a NaN itself).  Where the pass raises, fn runs at each point in
    turn, so that the batch raises what its first failing point raises
    alone."""
    @functools.wraps(fn)
    def wrapped(*args):
        for a in args:  # a loop of isinstance: the cheapest test at numbers
            if isinstance(a, (np.ndarray, _JetBase)) and _batched(a):
                break
        else:
            return fn(*args)
        try:
            with np.errstate(over="ignore", invalid="ignore",
                             divide="raise"):
                return fn(*args)
        except (ArithmeticError, ValueError, EwhError):
            for point in zip(*map(_points, args)):
                fn(*point)
            raise

    return wrapped


def _derivative_table(dt):
    """The derivative table dt(v, *args), (f, f', f'', f''', f'''') at
    a value v, taken at a number or in one pass at an array of them
    (`one_pass`).  A float overflow in it (or a division by an
    underflowed power) is a SingularJetError naming the function and the
    value."""
    name = dt.__name__[4:]

    @one_pass
    @functools.wraps(dt)
    def table(v, *args):
        try:
            return dt(v, *args)
        except (OverflowError, ZeroDivisionError):
            raise SingularJetError(f"{name} jet overflows at value "
                                   f"{v!r}") from None

    return table


@_derivative_table
def _dt_exp(v):
    e = each(math.exp, v)
    return (e, e, e, e, e)


@_derivative_table
def _dt_log(v):
    if _any(v <= 0.0):
        raise SingularJetError(f"log needs a positive value part, got {v}")
    return (each(math.log, v), 1.0 / v, -1.0 / each(pow, v, 2),
            2.0 / each(pow, v, 3), -6.0 / each(pow, v, 4))


@_derivative_table
def _dt_sin(v):
    s, c = each(math.sin, v), each(math.cos, v)
    return (s, c, -s, -c, s)


@_derivative_table
def _dt_cos(v):
    s, c = each(math.sin, v), each(math.cos, v)
    return (c, -s, -c, s, c)


@_derivative_table
def _dt_tan(v):
    if _any(abs(each(math.cos, v)) < 1e-12):
        raise SingularJetError(f"tan evaluated too close to a pole, argument {v}")
    t = each(math.tan, v)
    u = 1.0 + t * t
    return (t, u, 2 * t * u, 2 * u * u + 4 * t * t * u,
            16 * t * u * u + 8 * each(pow, t, 3) * u)


@_derivative_table
def _dt_tanh(v):
    t = each(math.tanh, v)
    s = 1.0 - t * t
    return (t, s, -2 * t * s, -2 * s * s + 4 * t * t * s,
            16 * t * s * s - 8 * each(pow, t, 3) * s)


@_derivative_table
def _dt_sqrt(v):
    if _any(v <= 0.0):
        raise SingularJetError(f"sqrt needs a positive value part, got {v}")
    rv = each(math.sqrt, v)
    return (rv, 0.5 / rv, -0.25 / (rv * v), 0.375 / (rv * v * v),
            -0.9375 / (rv * each(pow, v, 3)))


@_derivative_table
def _dt_atan(v):
    w = 1.0 + v * v
    return (each(math.atan, v), 1.0 / w, -2.0 * v / each(pow, w, 2),
            (6 * v * v - 2) / each(pow, w, 3),
            (24 * v - 24 * each(pow, v, 3)) / each(pow, w, 4))


@_derivative_table
def _dt_pow(v, p):
    if _any(v <= 0.0):
        raise SingularJetError(f"pow_real needs a positive value part, got {v}")
    d = [each(pow, v, p)]
    fac = 1.0
    for k in range(4):
        fac *= p - k
        d.append(fac * each(pow, v, p - k - 1))
    return tuple(d)


@_derivative_table
def _dt_recip(v):
    if _any(v == 0.0):
        raise SingularJetError("division by a jet with zero value part")
    return (1.0 / v, -1.0 / each(pow, v, 2), 2.0 / each(pow, v, 3),
            -6.0 / each(pow, v, 4), 24.0 / each(pow, v, 5))


def per_x(fn, x, *args):
    """fn(x, *args) at a number x.  At a 1-D array of numbers, fn at each
    in turn, the numbers it returns stacked into an array; the first x
    at which fn raises raises.  For what has no one-pass form (a
    quadrature)."""
    if not isinstance(x, np.ndarray):
        return fn(x, *args)
    return np.array([fn(v, *args) for v in x.tolist()])


def _operands(a, b):
    """Coefficient arrays `a` and `b` on one layout: the longer cut to the
    orders of the other, and, where one has a batch axis and the other
    none, the other given a trailing batch axis of length 1."""
    if len(a) != len(b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
    if a.ndim != b.ndim:
        return (a[:, None], b) if a.ndim < b.ndim else (a, b[:, None])
    return a, b


def _lifted(c, v):
    """Coefficients `c`, given a trailing batch axis when they have none
    and meet a batch of numbers `v`."""
    return c[:, None] if isinstance(v, np.ndarray) and v.ndim \
        and c.ndim == 1 else c


class _JetBase:
    """Shared arithmetic for Jet1 and Jet3 (dense coefficient arrays,
    shape (_N,) at one point or (_N, B) over a batch)."""

    __slots__ = ("coeffs",)

    # numpy arrays and scalars defer to the jet's own (reflected)
    # operators, so a batch of numbers on the left acts per column
    __array_ufunc__ = None

    # Subclasses set _N (coefficient count) and implement _mul_coeffs.

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.shape[0] != self._N:
            raise ValueError(f"{type(self).__name__} needs {self._N} "
                             f"coefficients (per column), got shape "
                             f"{c.shape}")
        self.coeffs = c.copy()

    @classmethod
    def _raw(cls, coeffs):
        j = object.__new__(cls)
        j.coeffs = coeffs
        return j

    @classmethod
    def constant(cls, v):
        """The constant jet v; a batch of numbers gives a batched jet."""
        c = np.zeros((cls._N,) + v.shape if isinstance(v, np.ndarray)
                     else cls._N)
        c[0] = v
        return cls._raw(c)

    @property
    def value(self):
        """f itself: a float, or an array over a batch."""
        c = self.coeffs
        return float(c[0]) if c.ndim == 1 else c[0].copy()

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs.tolist()})"

    # Ring operations.  A number is an int, a float or an ndarray: a
    # batch of numbers (one per column) or a 0-d one, all on one path.

    def _offset(self, c, v):
        """The jet with coefficients `c` and the number `v` added to its
        value."""
        if isinstance(v, np.ndarray) and v.ndim and c.ndim == 1:
            c = np.repeat(c[:, None], len(v), axis=1)  # v lifts the jet
        else:
            c = c.copy()
        c[0] += v
        return type(self)._raw(c)

    def __add__(self, other):
        if isinstance(other, type(self)):
            a, b = self.coeffs, other.coeffs
            if a.shape != b.shape:
                a, b = _operands(a, b)
            return type(self)._raw(a + b)
        if isinstance(other, (int, float, np.ndarray)):
            return self._offset(self.coeffs, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return type(self)._raw(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, type(self)):
            a, b = self.coeffs, other.coeffs
            if a.shape != b.shape:
                a, b = _operands(a, b)
            return type(self)._raw(a - b)
        if isinstance(other, (int, float, np.ndarray)):
            return self._offset(self.coeffs, -other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float, np.ndarray)):
            return self._offset(-self.coeffs, other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, type(self)):
            a, b = self.coeffs, other.coeffs
            if a.shape != b.shape:
                a, b = _operands(a, b)
            return type(self)._raw(self._mul_coeffs(a, b))
        if isinstance(other, (int, float, np.ndarray)):
            return type(self)._raw(_lifted(self.coeffs, other) * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.ndarray)):
            return type(self)._raw(_lifted(self.coeffs, other) / other)
        if isinstance(other, type(self)):
            return self * other._reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float, np.ndarray)):
            return self._reciprocal() * other
        return NotImplemented

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and float(p).is_integer()):
            n = int(p)
            if n < 0:
                return self._reciprocal() ** (-n)
            out = type(self).constant(1.0)
            base = self
            while n:
                if n & 1:
                    out = out * base
                base = base * base
                n >>= 1
            return out
        return self.powr(float(p))

    def _reciprocal(self):
        return self._apply(_dt_recip)

    def _apply(self, dt, *args):
        """Compose with the function whose derivative table at the value
        is dt(value, *args): a batch takes its table in one pass, each
        column with the bits of the table at its value."""
        return self._compose(dt(self.value, *args))

    def _compose(self, derivs):
        """Compose with a function given its derivatives at value(self):
        numbers, or arrays with one entry per column of a batch."""
        ghat = self - self.value
        acc = type(self).constant(derivs[4] / 24.0)
        for k in (3, 2, 1, 0):
            acc = acc * ghat + derivs[k] / _FACT[k]
        return acc

    # Elementary functions.

    def exp(self):
        return self._apply(_dt_exp)

    def log(self):
        return self._apply(_dt_log)

    def sin(self):
        return self._apply(_dt_sin)

    def cos(self):
        return self._apply(_dt_cos)

    def tan(self):
        return self._apply(_dt_tan)

    def tanh(self):
        return self._apply(_dt_tanh)

    def sqrt(self):
        return self._apply(_dt_sqrt)

    def atan(self):
        return self._apply(_dt_atan)

    def powr(self, p):
        return self._apply(_dt_pow, p)


def _convolve_columns(a, b):
    """np.convolve(a[:, k], b[:, k])[:5] for every column k of (5, B)
    coefficient arrays (one of them may have a single column, which is
    broadcast), bit for bit.  np.convolve takes orders 1..3 as BLAS dot
    products, which np.matmul repeats with the same dot; it sums orders
    0 and 4 left to right from +0.0, each product rounded on its own.
    Like np.convolve, it warns of no overflow."""
    at = np.ascontiguousarray(a.T)
    bt = np.ascontiguousarray(b[::-1].T)  # bt[:, i] holds b[4 - i]
    out = np.empty((ORDER + 1, max(len(at), len(bt))))
    with np.errstate(over="ignore", invalid="ignore"):
        out[0] = 0.0 + a[0] * b[0]
        for k in (1, 2, 3):
            out[k] = np.matmul(at[:, None, :k + 1],
                               bt[:, ORDER - k:, None])[:, 0, 0]
        p = at * bt
        top = 0.0 + p[:, 0]
        for i in range(1, ORDER + 1):
            top = top + p[:, i]
        out[ORDER] = top
    return out


class Jet1(_JetBase):
    """One-variable jet: Taylor coefficients of f at a point, orders 0..4,
    shape (5,); a stack of jets at B points has shape (5, B)."""

    __slots__ = ()
    _N = ORDER + 1

    @classmethod
    def variable(cls, x):
        """Jet of the coordinate itself: value x, first derivative 1
        (batched when x is an array)."""
        j = cls.constant(x)
        j.coeffs[1] = 1.0
        return j

    @classmethod
    def from_derivatives(cls, derivs):
        """Build a jet from raw derivative values f, f', ..., f'''' (or
        arrays of them over a batch)."""
        d = np.asarray(derivs, dtype=float)
        return cls._raw(d / _along_orders(_FACT, d.ndim))

    @staticmethod
    def _mul_coeffs(a, b):
        if a.ndim == 1:
            return np.convolve(a, b)[: ORDER + 1]
        return _convolve_columns(a, b)

    def derivative(self, k):
        """k-th derivative value, d^k f / dx^k: a float, or an array over
        a batch."""
        v = self.coeffs[k] * _FACT[k]
        return v if v.ndim else float(v)

    def d(self):
        """Jet of f'.  The top coefficient is out of range and set to 0."""
        a = self.coeffs
        c = np.zeros(a.shape)
        c[:ORDER] = a[1:] * _along_orders(_D1_FAC, a.ndim)
        return Jet1._raw(c)


@lru_cache(maxsize=8)
def _mul_targets(batch):
    """Flat bincount targets of the product table over a batch of
    `batch` columns: each column sums its own bins in table order.
    Shared by every product, and only np.bincount reads them; they stay
    writeable, since np.bincount copies a read-only array on each call
    (215 KB at 128 columns)."""
    return (_MUL_T[:, None] * batch + np.arange(batch)).ravel()


# Columns of the Jet3 product's workspace, and the most x a profile's
# memo holds: a grid walker's batch (at most report._PLANE_SLICE
# points) fits it.  Its two (210, 128) gathers
# are 430 KB, allocated once per thread; fresh gathers that size would
# each pass glibc's 128 KiB mmap threshold and be mapped and
# page-faulted anew on every product.
_WORK_COLS = 128
_threads = threading.local()


def _workspace(batch):
    """Two flat buffers, each for a gather of the product table over
    `batch` columns: the thread's own up to _WORK_COLS columns, fresh
    ones past it."""
    if batch > _WORK_COLS:
        return np.empty((2, _MUL_A.size * batch))
    work = getattr(_threads, "work", None)
    if work is None:
        work = _threads.work = np.empty((2, _MUL_A.size * _WORK_COLS))
    return work


def _gather(c, idx, buf):
    """c[idx] along the first axis, written into the flat buffer `buf`
    (np.take's default mode "raise" would gather into a temporary)."""
    out = buf[:idx.size * c[0].size].reshape(idx.shape + c.shape[1:])
    return np.take(c, idx, axis=0, out=out, mode="clip")


class Jet3(_JetBase):
    """Three-variable jet over (nu, r, x): dense multi-index coefficients,
    shape (N3,) at a Point or (N3, B) at a PointBatch."""

    __slots__ = ()
    _N = N3

    @classmethod
    def variable(cls, p, axis):
        """Jet of the coordinate function p[axis] (batched when p[axis]
        is an array), built to the order of p."""
        v, n = p[axis], _COUNT[p.order]
        c = np.zeros((n,) + v.shape if isinstance(v, np.ndarray) else n)
        c[0] = v
        if n > 1:
            c[_UNIT_POS[axis]] = 1.0
        return cls._raw(c)

    @classmethod
    def from_axis_jet(cls, jet1, axis, order=ORDER):
        """Lift a Jet1 (or a stack of them) to a Jet3 of total order
        `order` that depends on a single coordinate."""
        a = jet1.coeffs
        c = np.zeros((_COUNT[order],) + a.shape[1:])
        c[_AXIS_POS[axis][:order + 1]] = a[:order + 1]
        return cls._raw(c)

    @staticmethod
    def _mul_coeffs(a, b):
        """np.bincount(targets, a[_MUL_A] * b[_MUL_B]) over the table's
        pairs of the operands' order (their coefficient count), with the
        gathered operands in the thread's workspace (`_workspace`), not
        in fresh arrays; the product is formed in place in the wider
        one.  A product is not re-entrant on one thread, and calls
        nothing that could re-enter it; the package starts no threads."""
        # np.bincount adds each bin's weights in table order, so a batch
        # column sums exactly as the single jet (a batch of one) does,
        # and a jet of a lower order sums each of its targets exactly as
        # the order-4 product does
        n, batch = len(a), max(a[0].size, b[0].size)
        pairs = _PAIRS[n]
        wa, wb = _workspace(batch)
        ga = _gather(a, _MUL_A[:pairs], wa)
        gb = _gather(b, _MUL_B[:pairs], wb)
        p = np.multiply(ga, gb, out=gb if gb[0].size == batch else ga)
        return np.bincount(_mul_targets(batch)[:pairs * batch],
                           weights=p.ravel(), minlength=n * batch
                           ).reshape((n,) + p.shape[1:])

    def partial(self, i, j=None, k=None):
        """Partial derivative value for the multi-index (i, j, k): a
        float, or an array over a batch."""
        mi = tuple(i) if j is None else (i, j, k)
        pos = INDEX3[mi]
        v = self.coeffs[pos] * _PARTIAL_FAC[pos]
        return v if v.ndim else float(v)

    def d(self, axis):
        """Jet of the partial derivative along `axis`.

        The result's top order would need one order more than the jet
        carries: at order 4 its coefficients are set to 0, and a jet of
        a lower order k gives one of order k - 1.  Every order kept is
        exact.
        """
        c = self.coeffs
        n = len(c)
        if n < N3:
            if n == 1:
                raise _OrderSpent("an order-0 jet has no derivative")
            n = _COUNT[_COUNT.index(n) - 1]
        return Jet3._raw(c[_D_SRC[axis][:n]]
                         * _along_orders(_D_FAC[axis][:n], c.ndim))


# Finite-difference oracle.  Central stencils of O(step^2) accuracy with one
# Richardson level, so the leading error is O(step^4).  The default step
# grows with the total derivative order to balance truncation against the
# 1/step^order roundoff amplification of high-order stencils.

_FD_STEPS = {1: 1e-3, 2: 1e-3, 3: 5e-3, 4: 1e-2}


def _fd_1d(g, order, h):
    if order == 1:
        return (g(h) - g(-h)) / (2 * h)
    if order == 2:
        return (g(h) - 2 * g(0.0) + g(-h)) / h**2
    if order == 3:
        return (g(2 * h) - 2 * g(h) + 2 * g(-h) - g(-2 * h)) / (2 * h**3)
    return (g(2 * h) - 4 * g(h) + 6 * g(0.0) - 4 * g(-h) + g(-2 * h)) / h**4


def _fd_nested(f, p, mi, h):
    for axis in range(3):
        if mi[axis]:
            break
    else:
        return f(p)
    rest = list(mi)
    rest[axis] = 0
    rest = tuple(rest)

    def g(t):
        return _fd_nested(f, p.shifted(axis, t), rest, h)

    return _fd_1d(g, mi[axis], h)


def fd_oracle(f, p, multi_index, step=None):
    """Mixed partial derivative of f at p by central differences.

    `f` maps Point -> float and `multi_index` is (i, j, k) with total order
    at most 4.  One Richardson extrapolation level is applied, giving
    O(step^4) truncation error.
    """
    mi = tuple(int(m) for m in multi_index)
    if len(mi) != 3 or any(m < 0 for m in mi):
        raise ValueError(f"bad multi-index {multi_index!r}")
    total = sum(mi)
    if total > ORDER:
        raise ValueError(f"total derivative order {total} exceeds {ORDER}")
    if total == 0:
        return f(p)
    h = float(step) if step is not None else _FD_STEPS[total]
    coarse = _fd_nested(f, p, mi, h)
    fine = _fd_nested(f, p, mi, h / 2)
    return (4.0 * fine - coarse) / 3.0
