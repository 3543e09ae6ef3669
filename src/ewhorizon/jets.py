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
PointBatch of points that share one x (shape (N3, B), one column per
point).  A jet of x alone stays unbatched and broadcasts against batched
ones.  Every column is computed with the same floating-point operations,
in the same order, as the jet at that single point, so a batch equals the
stack of its points bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularJetError

ORDER = 4

_FACT = np.array([1.0, 1.0, 2.0, 6.0, 24.0])

AXES = ("nu", "r", "x")


@dataclass(frozen=True)
class Point:
    """Coordinate triple (nu, r, x)."""

    nu: float
    r: float
    x: float

    def __post_init__(self):
        for name in ("nu", "r", "x"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {name}={v!r}")

    def __getitem__(self, axis):
        return (self.nu, self.r, self.x)[axis]

    def shifted(self, axis, dt):
        c = [self.nu, self.r, self.x]
        c[axis] += dt
        return Point(*c)


@dataclass(frozen=True)
class PointBatch:
    """B points (nu[k], r[k], x) that share one x; nu and r are arrays
    of shape (B,).  Jets taken at a batch carry a trailing batch axis."""

    nu: np.ndarray
    r: np.ndarray
    x: float

    def __post_init__(self):
        nu, r = (np.asarray(v, dtype=float) for v in (self.nu, self.r))
        if nu.ndim != 1 or nu.shape != r.shape:
            raise ValueError(f"nu and r must be 1-D of one length, got "
                             f"shapes {nu.shape} and {r.shape}")
        for name, v in (("nu", nu), ("r", r), ("x", self.x)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"non-finite coordinate {name}={v!r}")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "r", r)

    @property
    def size(self) -> int:
        return len(self.nu)

    def __getitem__(self, axis):
        return (self.nu, self.r, self.x)[axis]

    def points(self):
        """The batch's points, in column order."""
        return [Point(nu, r, self.x)
                for nu, r in zip(self.nu.tolist(), self.r.tolist())]


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


def _build_mul_table():
    ia, ib, it = [], [], []
    for na, a in enumerate(MULTI_INDICES):
        for nb, b in enumerate(MULTI_INDICES):
            t = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            if sum(t) <= ORDER:
                ia.append(na)
                ib.append(nb)
                it.append(INDEX3[t])
    return np.asarray(ia), np.asarray(ib), np.asarray(it)


_MUL_A, _MUL_B, _MUL_T = _build_mul_table()


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


def stacked_partials(coeffs, order):
    """Every partial of total `order` of jets whose coefficients are
    stacked along the first axis of `coeffs`:
    out[a1, ..., ak, *rest] = d_a1 ... d_ak of the jet at coeffs[:, *rest].
    Entry for entry, the same product as Jet3.partial."""
    pos, fac = _PARTIAL_TABLES[order]
    return coeffs[pos] * fac.reshape(fac.shape + (1,) * (coeffs.ndim - 1))


# Derivative tables for elementary functions: (f, f', f'', f''', f'''') at v.

def _dt_exp(v):
    e = math.exp(v)
    return (e, e, e, e, e)


def _dt_log(v):
    if v <= 0.0:
        raise SingularJetError(f"log needs a positive value part, got {v}")
    return (math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4)


def _dt_sin(v):
    s, c = math.sin(v), math.cos(v)
    return (s, c, -s, -c, s)


def _dt_cos(v):
    s, c = math.sin(v), math.cos(v)
    return (c, -s, -c, s, c)


def _dt_tan(v):
    if abs(math.cos(v)) < 1e-12:
        raise SingularJetError(f"tan evaluated too close to a pole, argument {v}")
    t = math.tan(v)
    u = 1.0 + t * t
    return (t, u, 2 * t * u, 2 * u * u + 4 * t * t * u, 16 * t * u * u + 8 * t**3 * u)


def _dt_tanh(v):
    t = math.tanh(v)
    s = 1.0 - t * t
    return (t, s, -2 * t * s, -2 * s * s + 4 * t * t * s, 16 * t * s * s - 8 * t**3 * s)


def _dt_sqrt(v):
    if v <= 0.0:
        raise SingularJetError(f"sqrt needs a positive value part, got {v}")
    rv = math.sqrt(v)
    return (rv, 0.5 / rv, -0.25 / (rv * v), 0.375 / (rv * v * v), -0.9375 / (rv * v**3))


def _dt_atan(v):
    w = 1.0 + v * v
    return (math.atan(v), 1.0 / w, -2.0 * v / w**2, (6 * v * v - 2) / w**3,
            (24 * v - 24 * v**3) / w**4)


def _dt_pow(v, p):
    if v <= 0.0:
        raise SingularJetError(f"pow_real needs a positive value part, got {v}")
    d = [v**p]
    fac = 1.0
    for k in range(4):
        fac *= p - k
        d.append(fac * v ** (p - k - 1))
    return tuple(d)


def _dt_recip(v):
    if v == 0.0:
        raise SingularJetError("division by a jet with zero value part")
    return (1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4, 24.0 / v**5)


def _table(dt, v, *args):
    """The derivative table dt(v, *args); a float overflow in it (or a
    division by an underflowed power) is a SingularJetError naming the
    function and the value."""
    try:
        return dt(v, *args)
    except (OverflowError, ZeroDivisionError):
        raise SingularJetError(f"{dt.__name__[4:]} jet overflows at value "
                               f"{v!r}") from None


def _lift(a, b):
    """Coefficient arrays `a` and `b` of which one has a batch axis, the
    other given a trailing batch axis of length 1."""
    return (a[:, None], b) if a.ndim < b.ndim else (a, b[:, None])


def _lifted(c, v):
    """Coefficients `c`, given a trailing batch axis when they have none
    and meet the batch of numbers `v`."""
    return c[:, None] if v.ndim and c.ndim == 1 else c


class _JetBase:
    """Shared arithmetic for Jet1 and Jet3 (dense coefficient arrays)."""

    __slots__ = ("coeffs",)

    # numpy arrays and scalars defer to the jet's own (reflected)
    # operators, so a batch of numbers on the left acts per column
    __array_ufunc__ = None

    # Subclasses set _N (coefficient count) and implement _mul_coeffs.

    @classmethod
    def _raw(cls, coeffs):
        j = object.__new__(cls)
        j.coeffs = coeffs
        return j

    @classmethod
    def constant(cls, v):
        c = np.zeros(cls._N)
        c[0] = v
        return cls._raw(c)

    @property
    def value(self):
        return float(self.coeffs[0])

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs.tolist()})"

    # Ring operations.  A number may be a batch of numbers (an ndarray,
    # one per column); plain numbers take the short path.

    def _offset(self, c, v):
        """The jet with coefficients `c` and the batch of numbers `v`
        added to its value."""
        if v.ndim and c.ndim == 1:  # v lifts an unbatched jet
            c = np.repeat(c[:, None], len(v), axis=1)
        else:
            c = c.copy()
        c[0] += v
        return type(self)._raw(c)

    def __add__(self, other):
        if isinstance(other, type(self)):
            a, b = self.coeffs, other.coeffs
            if a.ndim != b.ndim:
                a, b = _lift(a, b)
            return type(self)._raw(a + b)
        if isinstance(other, (int, float)):
            c = self.coeffs.copy()
            c[0] += other
            return type(self)._raw(c)
        if isinstance(other, np.ndarray):
            return self._offset(self.coeffs, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return type(self)._raw(-self.coeffs)

    def __sub__(self, other):
        if isinstance(other, type(self)):
            a, b = self.coeffs, other.coeffs
            if a.ndim != b.ndim:
                a, b = _lift(a, b)
            return type(self)._raw(a - b)
        if isinstance(other, (int, float)):
            c = self.coeffs.copy()
            c[0] -= other
            return type(self)._raw(c)
        if isinstance(other, np.ndarray):
            return self._offset(self.coeffs, -other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            c = -self.coeffs
            c[0] += other
            return type(self)._raw(c)
        if isinstance(other, np.ndarray):
            return self._offset(-self.coeffs, other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, type(self)):
            a, b = self.coeffs, other.coeffs
            if a.ndim != b.ndim:
                a, b = _lift(a, b)
            return type(self)._raw(self._mul_coeffs(a, b))
        if isinstance(other, (int, float)):
            return type(self)._raw(self.coeffs * other)
        if isinstance(other, np.ndarray):
            return type(self)._raw(_lifted(self.coeffs, other) * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return type(self)._raw(self.coeffs / other)
        if isinstance(other, np.ndarray):
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
        is dt(value, *args).  A batch takes its table column by column,
        from the same scalar math as a single jet."""
        v = self.value
        if isinstance(v, float):
            return self._compose(_table(dt, v, *args))
        return self._compose(
            np.array([_table(dt, u, *args) for u in v.tolist()]).T)

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


class Jet1(_JetBase):
    """One-variable jet: Taylor coefficients of f at a point, orders 0..4."""

    __slots__ = ()
    _N = ORDER + 1

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self._N,):
            raise ValueError(f"Jet1 needs {self._N} coefficients, got shape {c.shape}")
        self.coeffs = c.copy()

    @classmethod
    def variable(cls, x):
        """Jet of the coordinate itself: value x, first derivative 1."""
        return cls._raw(np.array([x, 1.0] + [0.0] * (ORDER - 1)))

    @classmethod
    def from_derivatives(cls, derivs):
        """Build a jet from raw derivative values f, f', ..., f''''."""
        return cls._raw(np.asarray(derivs, dtype=float) / _FACT)

    @staticmethod
    def _mul_coeffs(a, b):
        return np.convolve(a, b)[: ORDER + 1]

    def derivative(self, k):
        """k-th derivative value, d^k f / dx^k."""
        return float(self.coeffs[k] * _FACT[k])

    def derivatives(self):
        """All derivative values as an array of length 5."""
        return self.coeffs * _FACT

    def d(self):
        """Jet of f'.  The top coefficient is out of range and set to 0."""
        c = np.zeros(self._N)
        c[:ORDER] = self.coeffs[1:] * np.arange(1, ORDER + 1)
        return Jet1._raw(c)


@lru_cache(maxsize=8)
def _mul_targets(batch):
    """Flat bincount targets of the product table over a batch of
    `batch` columns: each column sums its own bins in table order."""
    t = (_MUL_T[:, None] * batch + np.arange(batch)).ravel()
    t.flags.writeable = False
    return t


class Jet3(_JetBase):
    """Three-variable jet over (nu, r, x): dense multi-index coefficients,
    shape (N3,) at a Point or (N3, B) at a PointBatch."""

    __slots__ = ()
    _N = N3

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.shape[0] != N3:
            raise ValueError(f"Jet3 needs {N3} coefficients (per column), "
                             f"got shape {c.shape}")
        self.coeffs = c.copy()

    @classmethod
    def constant(cls, v):
        """The constant jet v; a batch of numbers gives a batched jet."""
        c = np.zeros((N3,) + v.shape if isinstance(v, np.ndarray) else N3)
        c[0] = v
        return cls._raw(c)

    @property
    def value(self):
        """f itself: a float, or an array over a batch."""
        c = self.coeffs
        return float(c[0]) if c.ndim == 1 else c[0].copy()

    @classmethod
    def variable(cls, p, axis):
        """Jet of the coordinate function p[axis] (batched when p[axis]
        is an array)."""
        v = p[axis]
        c = np.zeros((N3,) + v.shape if isinstance(v, np.ndarray) else N3)
        c[0] = v
        c[_UNIT_POS[axis]] = 1.0
        return cls._raw(c)

    @classmethod
    def from_axis_jet(cls, jet1, axis):
        """Lift a Jet1 to a Jet3 that depends on a single coordinate."""
        c = np.zeros(N3)
        c[_AXIS_POS[axis]] = jet1.coeffs
        return cls._raw(c)

    @staticmethod
    def _mul_coeffs(a, b):
        # np.bincount adds each bin's weights in table order, so a batch
        # column sums exactly as the single jet does
        p = a[_MUL_A] * b[_MUL_B]
        if p.ndim == 1:
            return np.bincount(_MUL_T, weights=p, minlength=N3)
        batch = p.shape[1]
        return np.bincount(_mul_targets(batch), weights=p.ravel(),
                           minlength=N3 * batch).reshape(N3, batch)

    def partial(self, i, j=None, k=None):
        """Partial derivative value for the multi-index (i, j, k): a
        float, or an array over a batch."""
        mi = tuple(i) if j is None else (i, j, k)
        pos = INDEX3[mi]
        v = self.coeffs[pos] * _PARTIAL_FAC[pos]
        return v if v.ndim else float(v)

    def d(self, axis):
        """Jet of the partial derivative along `axis`.

        Coefficients of total order 4 in the result would need order-5
        information and are set to 0; lower orders are exact.
        """
        c = self.coeffs
        fac = _D_FAC[axis] if c.ndim == 1 else _D_FAC[axis][:, None]
        return Jet3._raw(c[_D_SRC[axis]] * fac)


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
