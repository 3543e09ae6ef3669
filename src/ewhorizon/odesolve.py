"""Adaptive ODE integration and quadrature.

`integrate` is an embedded Dormand-Prince 5(4) Runge-Kutta pair with a
proportional-integral step controller and quartic dense output, suitable
for the smooth reduction ODEs handled here.  A user-supplied guard
predicate stops the integration cleanly ahead of singular loci (the
solved-for forms divide by powers of the solution): where a step passes
its error test but the guard rejects its new state, the crossing is
located by bisection on that step's dense output, at no rhs call, and
the step retried short of it, until the crossing lies within 64 least
steps of the last knot (event location, Hairer, Norsett & Wanner,
Solving ODEs I, II.6).  The guard is therefore called at interpolated
states too, and must be a pure predicate.

The trial step runs in Python floats, in a step kernel generated for the
state's dimension on the first integration at that dim (`_step_kernel`):
straight-line code with one name per stage slope entry and no loop.
Every tableau sum (a stage point's increment, y_new's and the error
estimate's) is a literal sum of weight * slope, one term per nonzero
weight, taken left to right over the stages and started from its first
term; a stage point is then y_j + hs * (that sum) per entry j.  The error
norm is the root mean square of hs * e_j / (atol + rtol * max(|y_j|,
|y_new_j|)), a NaN on either side of the max kept, its squares summed
left to right.  Python float operations are correctly rounded IEEE-754
operations, so a trajectory has the same bits on any IEEE-754 host,
whatever its BLAS.  The kernel uses no `**`, so an overflow gives inf
(and a rejected step), never an OverflowError.

An accepted step stores only its step size and its seven stage slopes,
in one flat array of floats; the dense-output coefficients K^T P of a
step are formed when the trajectory is first read on it, in the same
left-to-right order, and evaluated by Horner's rule in t.

`quad` is adaptive Gauss-Kronrod (G7, K15) with deterministic bisection.
"""

from __future__ import annotations

import functools
import math
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, StiffnessError

# Dormand-Prince RK5(4) tableau, stages 1..7 (stage 1 is the slope at the
# knot, stage 7 the slope at y_new, which is stage 1 of the next step).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# Difference between the 5th- and embedded 4th-order weights.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)
# Quartic dense-output coefficients, one row per stage:
# y(x0 + t*h) = y0 + h * (K^T P) . [t, t^2, t^3, t^4].
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

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
    does its tableau sums in Python floats, left to right over the
    stages (see the module docstring), so an rhs that unpacks y and does
    float arithmetic avoids numpy's per-call cost.  numpy scalars keep
    the same bits, at numpy's cost per operation.
    `guard(x, y)` receives the same list and returns False to stop.
    It is also called at states on a trial step's dense output, while
    `integrate` locates where it starts to fail, so it must be a pure
    predicate of (x, y); a caller tells which of its bounds stopped the
    integration from `Trajectory.rejected`.
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
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
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
    On a "guard" stop, `rejected` is a state (x, y), y a list of floats,
    that the guard rejected within 64 least steps (64 * 1e-14 * max(|x0|,
    |x_end|, 1)) of the last knot, for the caller to tell which of its
    bounds stopped the integration.

    `_segs` holds, per accepted step, its signed size and then its seven
    stage slopes, stage by stage (1 + 7 * dim floats).  `attempts` counts
    the attempted steps (accepted, rejected and guard-shortened), and
    `rhs_calls` the rhs evaluations: two to choose the first step, then
    six per attempted step (the first stage is the last one's slope).
    """

    xs: np.ndarray
    ys: np.ndarray
    status: str
    reason: str = ""
    _segs: array = field(default_factory=lambda: array("d"), repr=False)
    rejected: tuple = None  # (x, y) the guard rejected, on a "guard" stop
    attempts: int = 0
    rhs_calls: int = 0

    def __post_init__(self):
        # Ascending search keys for the knots: a backward trajectory
        # searches -xs for -x.  Built once, not on every dense evaluation.
        xs = self.xs
        self._ascending = bool(xs[0] <= xs[-1])
        self._knots = xs.tolist()
        self._keys = self._knots if self._ascending else (-xs).tolist()
        self._span = (float(min(xs[0], xs[-1])), float(max(xs[0], xs[-1])))
        self._stride = 1 + 7 * self.ys.shape[1]

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
        idx = min(max(idx - 1, 0), len(self._knots) - 2)
        record = self._segs[idx * self._stride:(idx + 1) * self._stride]
        hs, q = record[0], _step_kernel(self.ys.shape[1])[1](record)
        return np.array(_dense_value(self.ys[idx].tolist(), hs, q,
                                     (x - self._knots[idx]) / hs))


def _dense_value(y, hs, q, t):
    """y + hs * (q_1 t + q_2 t^2 + q_3 t^3 + q_4 t^4) per entry, by
    Horner's rule, for a step's dense-output coefficients q (one
    (q_1, ..., q_4) per entry)."""
    return [v + hs * ((((q4 * t + q3) * t + q2) * t + q1) * t)
            for v, (q1, q2, q3, q4) in zip(y, q)]


def _rms_norm(e, scale):
    # A left-to-right float sum: numpy's pairwise sum runs in order below
    # 8 entries, so for the short states integrated here these are the
    # bits of np.mean, without its per-call overhead.
    total = 0.0
    for v in (e / scale).tolist():
        total += v * v
    return math.sqrt(total / len(e))


def _weighted_sum(weights, names):
    """A tableau sum as source: weight * name per nonzero weight, left to
    right, started from its first term.  A weight of 1 is the name, and a
    negative weight's term is subtracted, which rounds as adding it."""
    out = ""
    for w, n in zip(weights, names):
        if w != 0.0:
            term = n if abs(w) == 1.0 else f"{abs(w)!r} * {n}"
            out = (f"{out} {'-' if w < 0 else '+'} {term}" if out
                   else f"-{term}" if w < 0 else term)
    return out


@functools.cache
def _step_kernel(dim):
    """(`bind`, `dense`) for states of dim entries, built on the first
    integration at dim as straight-line float code.

    `bind(rhs, atol, rtol)` returns `step(x, hs, y, y_abs, k1)`: the
    trial step of size hs from (x, y), |y| = y_abs and the slope k1 at
    the knot.  It returns y_new (a list), |y_new| (a list), the error
    norm, the slope at y_new (a tuple) and the step's record: hs and
    then its seven stage slopes, stage by stage, as the packed bytes of
    1 + 7 * dim doubles.  `dense(record)` takes a record (as a sequence
    of floats) and returns the step's dense-output coefficients K^T P,
    one (q_1, ..., q_4) per entry.
    """
    def stages(j, n=7):  # entry j of the first n stage slopes
        return [f"k{i}_{j}" for i in range(1, n + 1)]

    def each(fmt, sep=", "):
        return sep.join(fmt.format(j=j) for j in range(dim))

    def names(fmt):  # an unpacking target, one name per entry
        return each(fmt + ",", " ")

    lines = [
        "def bind(rhs, atol, rtol):",
        "    def step(x, hs, y, y_abs, k1):",
        f"        {names('y{j}')} = y",
        f"        {names('k1_{j}')} = k1",
    ]
    for i in range(1, 6):  # stages 2..6
        point = ", ".join(
            f"y{j} + hs * ({_weighted_sum(_A[i], stages(j, i))})"
            for j in range(dim))
        at = "x + hs" if _C[i] == 1.0 else f"x + {_C[i]!r} * hs"
        slope = names(f"k{i + 1}_{{j}}")
        lines.append(f"        {slope} = rhs({at}, [{point}])")
    lines += [
        "        y_new = [" + ", ".join(
            f"y{j} + hs * ({_weighted_sum(_B, stages(j))})"
            for j in range(dim)) + "]",
        f"        {names('k7_{j}')} = rhs(x + hs, y_new)",
        f"        {names('u{j}')} = y_abs",
        f"        {names('v{j}')} = new_abs = "
        f"[{each('abs(y_new[{j}])')}]",
    ]
    lines += [f"        q{j} = hs * ({_weighted_sum(_E, stages(j))}) / (atol + "
              f"rtol * (u{j} if u{j} >= v{j} or u{j} != u{j} else v{j}))"
              for j in range(dim)]
    slopes = ", ".join(f"k{i}_{j}" for i in range(1, 8) for j in range(dim))
    coeffs = ", ".join(
        "(" + ", ".join(_weighted_sum([row[m] for row in _P], stages(j))
                        for m in range(4)) + ")"
        for j in range(dim))
    lines += [
        f"        return (y_new, new_abs, sqrt(({each('q{j} * q{j}', ' + ')})"
        f" / {dim}), ({each('k7_{j}')},), pack(hs, {slopes}))",
        "",
        "    return step",
        "",
        "",
        "def dense(record):",
        f"    _, {slopes}, = record",
        f"    return [{coeffs}]",
    ]
    namespace = {"sqrt": math.sqrt,
                 "pack": struct.Struct(f"{1 + 7 * dim}d").pack}
    exec(compile("\n".join(lines) + "\n", f"<integrate step, dim {dim}>",
                 "exec"), namespace)
    return namespace["bind"], namespace["dense"]


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
    instead ends the trajectory early with status "guard", within 64
    least steps (64 * h_floor) of a state it rejects (`_locate`).  A step
    whose error estimate is not finite (a NaN or an overflow in the rhs)
    is rejected like any other, since a smaller one may avoid it; if the
    step size then underflows, the error names the stage and the rhs
    component that first returned a non-finite slope, and the step.
    """
    rhs, guard, max_step = spec.rhs, spec.guard, spec.max_step
    atol, rtol, dim = spec.atol, spec.rtol, spec.dim
    x = x0 = float(spec.x0)
    y = spec.y0.tolist()
    span = x_end - x
    if span == 0.0:
        return Trajectory(np.array([x]), np.array([y]), "ok")
    direction = 1.0 if span > 0 else -1.0
    if guard is not None and not guard(x, y):
        return Trajectory(np.array([x]), np.array([y]), "guard",
                          reason="guard failed at the initial point",
                          rejected=(x, y))

    k1 = rhs(x, y)  # FSAL: the slope at the current knot
    h = _initial_step(rhs, x, spec.y0, np.asarray(k1, dtype=float),
                      direction, rtol, atol, min(max_step, abs(span)))
    h_floor = 1e-14 * max(abs(x), abs(x_end), 1.0)

    xs = [x]
    ys = y[:]  # the knots' entries, one after another
    segs = array("d")
    err_prev = 1.0
    bind, dense = _step_kernel(dim)
    step = bind(rhs, atol, rtol)
    y_abs = [abs(v) for v in y]
    status, reason, rejected = "ok", "", None
    attempts = 0
    nonfinite = ""  # names the first non-finite slope since the last knot

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
        y_new, new_abs, err, k7, record = step(x, hs, y, y_abs, k1)

        if err <= 1.0:
            if guard is not None and not guard(x + hs, y_new):
                lo, hi, state = _locate(guard, x, hs, y,
                                        dense(array("d", record)),
                                        64 * h_floor, (x + hs, y_new))
                if hi * h <= 64 * h_floor:
                    status, reason = "guard", f"guard stopped integration at x={x!r}"
                    rejected = state
                    break
                # lo > 0, and lo * h is at least the bracket's width, which
                # its last halving left above 32 * h_floor: no underflow
                h *= lo
                continue
            segs.frombytes(record)
            x += hs
            y, y_abs, k1 = y_new, new_abs, k7  # FSAL: k7 is the new knot's
            xs.append(x)
            ys += y
            nonfinite = ""
            factor = _SAFETY * (err + 1e-300) ** (-0.7 / 5) * err_prev ** (0.4 / 5)
            err_prev = max(err, 1e-10)
            h = min(h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor)), max_step)
        else:
            if not nonfinite and not err < math.inf:
                nonfinite = _first_nonfinite(record, dim, x)
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-_ORDER_EXP))

    return Trajectory(np.array(xs), np.array(ys).reshape(-1, dim), status,
                      reason, segs, rejected, attempts, 2 + 6 * attempts)


def _locate(guard, x, hs, y, q, reach, rejected):
    """Bracket the guard's crossing on a trial step's dense output
    (`_dense_value` of y, hs and its coefficients q), at no rhs call:
    the guard passes the knot at t = 0 and rejects the `rejected` state
    (x, y) at t = 1.  Bisects [lo, hi] until its fail end lies within
    `reach` of the knot or it is at most `reach` wide, and returns lo,
    hi and the state the guard rejected at hi."""
    lo, hi = 0.0, 1.0
    h = abs(hs)
    while hi * h > reach and (hi - lo) * h > reach:
        t = 0.5 * (lo + hi)
        state = (x + t * hs, _dense_value(y, hs, q, t))
        if guard(*state):
            lo = t
        else:
            hi, rejected = t, state
    return lo, hi, rejected


def _first_nonfinite(record, dim, x):
    """Name, for a StiffnessError, the first stage slope of a trial step
    from x (its record, as `step` packs it) that the rhs returned
    non-finite, in the order the rhs was called; "" if none did."""
    hs, *slopes = array("d", record)
    for n, v in enumerate(slopes):
        if not abs(v) < math.inf:
            return (f": the rhs first returned a non-finite component "
                    f"{n % dim} at stage {n // dim + 1} of the step of "
                    f"h={hs!r} from x={x!r}")
    return ""


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
    AccuracyError carrying the best estimate and its error bound, and so
    does, at once, an interval whose estimate is not finite (bisecting a
    NaN integrand would run to that depth on every branch).  Meant
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
        elif not err < math.inf:  # a NaN or infinite estimate
            raise AccuracyError(
                f"quadrature on [{a}, {b}]: non-finite Gauss-Kronrod "
                f"estimate on [{lo}, {hi}]", estimate=val, error_bound=err)
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
