"""Adaptive ODE integration and quadrature.

`integrate` is an embedded Dormand-Prince 5(4) Runge-Kutta pair with a
proportional-integral step controller and quartic dense output, suitable
for the smooth reduction ODEs handled here.  A user-supplied guard
predicate stops the integration cleanly ahead of singular loci (the
solved-for forms divide by powers of the solution).

Its step is the plain numpy form of the method, bit for bit, at fewer
numpy calls.  The tableau sums (stages, solution, error estimate and
dense-output coefficients) are BLAS `ndarray.dot` calls over the (7, dim)
array of stage slopes; a float sum of the tableau rows would round
differently, so those stay in BLAS.  Everything else runs in Python
floats: the state y, each stage point and the new solution are lists of
floats, and a stage point y + hs * d is `a + hs * b` per entry, the same
two roundings numpy's `y + hs * d` makes, since a float product and sum
round on their own as a ufunc does.  The error norm with its scale
atol + rtol * max(|y|, |y_new|) runs in numpy's order, a NaN on either
side of the max kept, as np.maximum keeps it.

`quad` is adaptive Gauss-Kronrod (G7, K15) with deterministic bisection.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, StiffnessError

# Dormand-Prince RK5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
])
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# Difference between the 5th- and embedded 4th-order weights.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# Quartic dense-output coefficients: y(x0 + t*h) = y0 + h * (K^T P) . [t, t^2, t^3, t^4].
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# Per-stage views of the tableau, sliced once: stage i sums k[:i] against
# _A_ROWS[i], and the stage abscissae are plain floats.
_A_ROWS = [_A[i, :i] for i in range(6)]
_B_ROW = _B[:6]  # the b row has zero weight on k7
_C_STEP = _C.tolist()
_STAGES = list(zip(range(1, 6), _A_ROWS[1:], _C_STEP[1:6]))  # (i, row, c)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXP = 1.0 / 5.0
# attempted steps (accepted, rejected, guard-shortened) integrate may take:
# a solution that needs more is too stiff for an explicit method
_MAX_STEPS = 100_000
# progress floor: after every _FLOOR_EVERY attempted steps the average
# pace must be at least _FLOOR_PACE of the pace that ends the span within
# _MAX_STEPS; slower, the budget would run out before a tenth of the span.
# The floor is that loose because many solutions start slowly and then
# speed up: at large |c| the c scan has sides that reach their end from
# below a sixth of that pace.  The first check comes after 2 000 steps,
# so a guard that stops a crawling solution sooner still gets to stop it.
_FLOOR_EVERY = 2_000
_FLOOR_PACE = 0.1


@dataclass
class IvpSpec:
    """An initial value problem y' = rhs(x, y) with solver settings.

    `rhs(x, y)` receives y as a list of dim Python floats and returns a
    sequence of dim floats (a tuple, a list or an array): the step loop
    holds its states as floats, so an rhs that unpacks y and does float
    arithmetic avoids numpy's per-call cost, with numpy scalars' bits.
    `guard(x, y)` receives the same list and returns False to stop.
    """

    dim: int
    rhs: object  # callable (x, y: list of floats) -> sequence of floats
    x0: float
    y0: object  # array-like, length dim
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = math.inf
    guard: object = None  # callable (x, y) -> bool; False stops integration

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape != (self.dim,):
            raise ValueError(f"y0 must have shape ({self.dim},)")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")


@dataclass
class Trajectory:
    """Accepted knots plus dense output between them.

    status is "ok" (reached the requested endpoint) or "guard" (the guard
    predicate stopped the integration; xs/ys hold the partial trajectory).
    """

    xs: np.ndarray
    ys: np.ndarray
    status: str
    reason: str = ""
    _segs: list = field(default_factory=list, repr=False)  # (x0, h, Q) per step

    def __post_init__(self):
        # Ascending search keys for the knots: a backward trajectory
        # searches -xs for -x.  Built once, not on every dense evaluation.
        xs = self.xs
        self._ascending = bool(xs[0] <= xs[-1])
        self._keys = (xs if self._ascending else -xs).tolist()
        self._span = (float(min(xs[0], xs[-1])), float(max(xs[0], xs[-1])))

    @property
    def x_end(self):
        return float(self.xs[-1])

    @property
    def y_end(self):
        return self.ys[-1].copy()

    def __call__(self, x):
        """Dense evaluation at a scalar x inside the covered span."""
        lo, hi = self._span
        if not lo - 1e-12 * (1 + abs(lo)) <= x <= hi + 1e-12 * (1 + abs(hi)):
            raise ValueError(f"x={x!r} outside trajectory span [{lo}, {hi}]")
        if len(self._segs) == 0:
            return self.ys[0].copy()
        # Find the step whose interval contains x (knots are monotone).
        idx = bisect_left(self._keys, x if self._ascending else -x)
        idx = min(max(idx - 1, 0), len(self._segs) - 1)
        x0, h, q = self._segs[idx]  # the step from knot idx
        t = (x - x0) / h
        tv = np.array([t, t * t, t**3, t**4])
        return self.ys[idx] + h * q.dot(tv)


def _rms_norm(e, scale):
    # A left-to-right float sum: numpy's pairwise sum runs in order below
    # 8 entries, so for the short states integrated here these are the
    # bits of np.mean, without its per-call overhead.
    total = 0.0
    for v in (e / scale).tolist():
        total += v * v
    return math.sqrt(total / len(e))


def _initial_step(rhs, x0, y0, f0, direction, rtol, atol, max_step):
    """Hairer-Norsett-Wanner starting step selection."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0, scale)
    d1 = _rms_norm(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:  # an infinite (or NaN) starting slope
        raise StiffnessError(
            f"no starting step at x={x0!r}: slope norm {d1!r}")
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(x0 + h0 * direction, y1.tolist()), dtype=float)
    d2 = _rms_norm(f1 - f0, scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, max_step)


def integrate(spec: IvpSpec, x_end: float) -> Trajectory:
    """Integrate spec.rhs from spec.x0 to x_end with dense output.

    Raises StiffnessError when error control forces the step below the
    resolution floor, when the starting slope is too steep for any
    starting step, after _MAX_STEPS attempted steps, or earlier when its
    pace falls below the progress floor; a failing guard
    instead ends the trajectory early with status "guard".  A step
    whose error estimate is not finite (a NaN or an overflow in the rhs)
    is rejected like any other, since a smaller one may avoid it; if the
    step size then underflows, the error names the component and the
    step where the estimate first went non-finite.
    """
    rhs, guard, max_step = spec.rhs, spec.guard, spec.max_step
    atol, rtol = spec.atol, spec.rtol
    x = x0 = float(spec.x0)
    y = spec.y0.tolist()
    span = x_end - x
    if span == 0.0:
        return Trajectory(np.array([x]), np.array([y]), "ok")
    direction = 1.0 if span > 0 else -1.0
    if guard is not None and not guard(x, y):
        return Trajectory(np.array([x]), np.array([y]), "guard",
                          reason="guard failed at the initial point")

    k = np.empty((7, spec.dim))
    k[0] = rhs(x, y)  # FSAL: row 0 always holds rhs at the current point
    h = _initial_step(rhs, x, spec.y0, k[0], direction, rtol, atol,
                      min(max_step, abs(span)))
    h_floor = 1e-14 * max(abs(x), abs(x_end), 1.0)

    xs = [x]
    ys = y[:]  # the knots' entries, one after another
    segs = []
    err_prev = 1.0
    k_heads = [k[:i].T for i in range(7)]
    k_t = k.T
    y_abs = [abs(v) for v in y]
    status, reason = "ok", ""
    attempts = 0
    nonfinite = ""  # names the first non-finite estimate since the last knot

    while (x_end - x) * direction > 0:
        if attempts == _MAX_STEPS:
            raise StiffnessError(f"step budget of {_MAX_STEPS} attempted "
                                 f"steps spent at x={x!r}; problem too stiff")
        if attempts % _FLOOR_EVERY == 0 and abs(x - x0) < \
                _FLOOR_PACE * abs(span) * (attempts / _MAX_STEPS):
            raise StiffnessError(
                f"{attempts} attempted steps covered {abs(x - x0)!r} of the "
                f"span {abs(span)!r} at x={x!r}: at that pace {_MAX_STEPS} "
                f"would not cover a tenth of it; problem too stiff")
        attempts += 1
        h = min(h, abs(x_end - x))
        if not h >= h_floor:  # a NaN step fails this too
            raise StiffnessError(f"step size underflow at x={x!r} (h={h!r})"
                                 + (nonfinite or "; problem too stiff"))
        hs = h * direction
        # y + hs * (k^T a) in floats: the same two roundings per entry
        for i, row, c in _STAGES:
            k[i] = rhs(x + c * hs, [a + hs * b for a, b in
                                    zip(y, k_heads[i].dot(row).tolist())])
        y_new = [a + hs * b for a, b in
                 zip(y, k_heads[6].dot(_B_ROW).tolist())]
        k[6] = rhs(x + hs, y_new)
        # _rms_norm of the error against atol + rtol * max(|y|, |y_new|),
        # in floats; the max keeps a NaN from either side, as np.maximum.
        new_abs = [abs(v) for v in y_new]
        total = 0.0
        for a, b, e in zip(y_abs, new_abs, k_t.dot(_E).tolist()):
            q = hs * e / (atol + rtol * (a if a >= b or a != a else b))
            total += q * q
        err = math.sqrt(total / spec.dim)

        if err <= 1.0:
            if guard is not None and not guard(x + hs, y_new):
                # Shrink toward the guard boundary instead of stepping past it.
                if h <= 64 * h_floor:
                    status, reason = "guard", f"guard stopped integration at x={x!r}"
                    break
                h *= 0.5
                continue
            segs.append((x, hs, k_t.dot(_P)))
            x += hs
            y, y_abs = y_new, new_abs
            k[0] = k[6]  # FSAL: the last stage is rhs at the new point
            xs.append(x)
            ys += y
            nonfinite = ""
            factor = _SAFETY * (err + 1e-300) ** (-0.7 / 5) * err_prev ** (0.4 / 5)
            err_prev = max(err, 1e-10)
            h = min(h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor)), max_step)
        else:
            if not nonfinite and not err < math.inf:
                i = _first_nonfinite(y_abs, new_abs, k_t.dot(_E), hs, atol,
                                     rtol)
                nonfinite = (f": component {i} of the error estimate first "
                             f"went non-finite on the step of h={hs!r} from "
                             f"x={x!r}")
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-_ORDER_EXP))

    return Trajectory(np.array(xs), np.array(ys).reshape(-1, spec.dim),
                      status, reason, segs)


def _first_nonfinite(y_abs, new_abs, e, hs, atol, rtol):
    """The component at which the error norm's running sum of squares
    first stops being finite, summed as `integrate` sums it."""
    total = 0.0
    for i, (a, b, v) in enumerate(zip(y_abs, new_abs, e.tolist())):
        q = hs * v / (atol + rtol * (a if a >= b or a != a else b))
        total += q * q
        if not total < math.inf:
            break
    return i


# --- adaptive Gauss-Kronrod quadrature --------------------------------------

_QUAD_TOL = 1e-10  # quad's absolute (split between halves) and relative
_QUAD_DEPTH = 50

# 15-point Kronrod extension of 7-point Gauss on [-1, 1], as Python
# floats: the rule's sums are then float arithmetic, the same IEEE
# operations in the same order as on numpy scalars, at less cost.
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
)


def _gk15(f, a, b):
    """(Kronrod 15, |K15 - G7|) on [a, b]."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fc = f(c)
    gauss = _WG[3] * fc
    kron = _WGK[7] * fc
    for j in range(7):
        x = hw * _XGK[j]
        fsum = f(c - x) + f(c + x)
        kron += _WGK[j] * fsum
        if j % 2 == 1:  # odd Kronrod indices are the Gauss nodes
            gauss += _WG[(j - 1) // 2] * fsum
    kron *= hw
    gauss *= hw
    return kron, abs(kron - gauss)


def quad(f, a: float, b: float) -> float:
    """Integral of f over [a, b], adaptive bisection on Gauss-Kronrod 15.

    Deterministic subdivision (always left half first, absolute tolerance
    split evenly); intervals still failing at _QUAD_DEPTH raise
    AccuracyError carrying the best estimate and its error bound.  Meant
    for smooth integrands; endpoint singularities need a substitution by
    the caller and otherwise surface as AccuracyError.
    """
    if a == b:
        return 0.0
    total = 0.0
    bad_err = 0.0
    failed = False
    stack = [(float(a), float(b), _QUAD_TOL, 0)]
    while stack:
        lo, hi, tol, depth = stack.pop()
        val, err = _gk15(f, lo, hi)
        if err <= max(tol, _QUAD_TOL * abs(val)):
            total += val
        elif depth >= _QUAD_DEPTH:
            total += val
            bad_err += err
            failed = True
        else:
            mid = 0.5 * (lo + hi)
            # LIFO stack: push right first so the left half is processed next.
            stack.append((mid, hi, 0.5 * tol, depth + 1))
            stack.append((lo, mid, 0.5 * tol, depth + 1))
    if failed:
        raise AccuracyError(
            f"quadrature on [{a}, {b}] did not converge at depth {_QUAD_DEPTH}",
            estimate=total, error_bound=bad_err)
    return total
