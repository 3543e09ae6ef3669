"""Runge-Kutta integration and adaptive quadrature against closed forms."""

import bisect
import hashlib
import math
import os
import subprocess
import sys
from array import array

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewhorizon import nearhorizon, odesolve, report
from ewhorizon.errors import AccuracyError, StiffnessError
from ewhorizon.nearhorizon import build_family, ode4_rhs
from ewhorizon.odesolve import (IvpSpec, Trajectory, _rms_norm,
                                integrate, quad)


def test_exponential_growth():
    spec = IvpSpec(rhs=lambda x, y: y, x0=0.0, y0=[1.0])
    traj = integrate(spec, 2.0)
    assert traj.status == "ok"
    assert_allclose(traj.y_end[0], math.e**2, rtol=1e-9)


def test_backward_integration():
    spec = IvpSpec(rhs=lambda x, y: y, x0=0.0, y0=[1.0])
    traj = integrate(spec, -1.5)
    assert traj.status == "ok"
    assert traj.x_end == -1.5
    assert_allclose(traj.y_end[0], math.exp(-1.5), rtol=1e-9)


def test_harmonic_oscillator_dense_output():
    spec = IvpSpec(rhs=lambda x, y: np.array([y[1], -y[0]]),
                   x0=0.0, y0=[1.0, 0.0])
    traj = integrate(spec, 10.0)
    for x in np.linspace(0.0, 10.0, 57):
        y = traj(float(x))
        assert abs(y[0] - math.cos(x)) < 1e-8
        assert abs(y[1] + math.sin(x)) < 1e-8


def test_dense_output_matches_knots():
    spec = IvpSpec(rhs=lambda x, y: np.array([math.cos(x)]),
                   x0=0.0, y0=[0.0])
    traj = integrate(spec, 3.0)
    for xk, yk in zip(traj.xs, traj.ys):
        assert_allclose(traj(float(xk))[0], yk[0], rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        traj(3.5)


def test_backward_dense_output_matches_knots():
    # descending knots: the step lookup searches the negated knots
    spec = IvpSpec(rhs=lambda x, y: np.array([math.cos(x)]),
                   x0=0.0, y0=[0.0])
    traj = integrate(spec, -3.0)
    for xk, yk in zip(traj.xs, traj.ys):
        assert_allclose(traj(float(xk))[0], yk[0], rtol=1e-12, atol=1e-12)
    assert_allclose(traj(-2.0)[0], math.sin(-2.0), rtol=1e-9)
    with pytest.raises(ValueError):
        traj(-3.5)


def test_tolerance_scaling():
    def run(rtol):
        spec = IvpSpec(rhs=lambda x, y: np.array([y[1], -y[0]]),
                       x0=0.0, y0=[0.0, 1.0], rtol=rtol, atol=1e-14)
        return abs(integrate(spec, 6.0).y_end[0] - math.sin(6.0))

    assert run(1e-11) < run(1e-5) < 1e-4
    assert run(1e-11) < 1e-9


def test_nonautonomous_rhs():
    # y' = 2 x y  ->  y = exp(x^2)
    spec = IvpSpec(rhs=lambda x, y: [2.0 * x * y[0]], x0=0.0,
                   y0=[1.0])
    assert_allclose(integrate(spec, 1.5).y_end[0], math.exp(2.25),
                    rtol=1e-9)


def test_guard_stops_integration():
    # y' = -y crosses 0.1 at x = ln(10)
    spec = IvpSpec(rhs=lambda x, y: [-y[0]], x0=0.0, y0=[1.0],
                   guard=lambda x, y: y[0] > 0.1)
    traj = integrate(spec, 10.0)
    assert traj.status == "guard"
    assert traj.x_end < 10.0
    # stopped close to (never after a long way past) the crossing
    assert traj.y_end[0] <= 0.1 + 1e-12
    assert abs(traj.x_end - math.log(10.0)) < 0.5
    # located on the dense output: within 64 least steps of a state the
    # guard rejects, so at the crossing to the solution's accuracy
    x, y = traj.rejected
    assert not spec.guard(x, y)
    assert 0.0 < x - traj.x_end <= 64 * 1e-14 * 10.0
    assert abs(traj.x_end - math.log(10.0)) < 1e-9
    # a guard that fails at the start rejects the initial state
    start = integrate(IvpSpec(rhs=lambda x, y: [-y[0]], x0=0.0,
                              y0=[0.05], guard=spec.guard), 10.0)
    assert (start.status, start.reason, start.rejected) == (
        "guard", "guard failed at the initial point", (0.0, [0.05]))


def test_guard_never_tripped_is_ok():
    spec = IvpSpec(rhs=lambda x, y: [-y[0]], x0=0.0, y0=[1.0],
                   guard=lambda x, y: y[0] > 0.1)
    assert integrate(spec, 1.0).status == "ok"


def test_blowup_raises_stiffness():
    # y' = y^2 from y(0) = 1 has a pole at x = 1
    spec = IvpSpec(rhs=lambda x, y: [y[0] * y[0]], x0=0.0,
                   y0=[1.0])
    with pytest.raises(StiffnessError, match="problem too stiff"):
        integrate(spec, 2.0)


def test_a_nan_trial_step_is_retried_and_not_blamed_once_passed():
    # a NaN from the rhs fails one trial step, and a smaller step gets
    # past it; a later stiff underflow is not blamed on that NaN
    calls = [0]

    def rhs(x, y):
        calls[0] += 1
        return [math.nan if calls[0] == 20 else y[0] * y[0]]

    spec = IvpSpec(rhs=rhs, x0=0.0, y0=[1.0])
    assert_allclose(integrate(spec, 0.5).y_end[0], 2.0, rtol=1e-9)
    calls[0] = 0
    with pytest.raises(StiffnessError,
                       match=r"^step size underflow at x=\S+ \(h=.*\); "
                             r"problem too stiff$") as err:
        integrate(spec, 2.0)
    # at the computed pole, which the tolerance keeps within 1e-10 of 1
    assert abs(float(str(err.value).split()[4][2:]) - 1.0) < 1e-10


def test_a_nan_slope_at_y_new_fails_its_step():
    # call 14 is the first step's slope at y_new: the error estimate does
    # not use it, but the next step would start from it, so the step is
    # rejected and a smaller one, whose slope is finite, is taken
    calls = [0]

    def rhs(x, y):
        calls[0] += 1
        return [math.nan if calls[0] == 14 else y[0] * y[0]]

    traj = integrate(IvpSpec(rhs=rhs, x0=0.0, y0=[1.0]), 0.5)
    assert_allclose(traj.y_end[0], 2.0, rtol=1e-9)
    assert np.isfinite(traj._segs).all()


@pytest.mark.parametrize("y0, rhs", [
    ([math.nan, 0.0], lambda x, y: np.array([y[1], -y[0]])),
    ([1.0, 0.0], lambda x, y: np.full(2, math.nan)),
], ids=["nan-y0", "nan-rhs"])
def test_nan_step_raises_stiffness(y0, rhs):
    # a NaN step size compares false against the floor; it must stop the
    # integration rather than spin without advancing x
    spec = IvpSpec(rhs=rhs, x0=0.0, y0=y0)
    with pytest.raises(StiffnessError):
        integrate(spec, 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_infinite_starting_slope_raises_stiffness():
    # |f| / scale overflows to inf, so the starting step would be 0; this
    # must stop the integration, not divide by that step
    spec = IvpSpec(rhs=lambda x, y: np.array([1e300]), x0=0.0,
                   y0=[1.0])
    with pytest.raises(StiffnessError, match="no starting step"):
        integrate(spec, 1.0)


def _fast_oscillator(w):
    # y'' = -w^2 y from (1, 0): the error control keeps every step near a
    # fixed fraction of 1/w, so crossing [0, 10] takes about 40 w steps
    return IvpSpec(rhs=lambda x, y: [y[1], -w * w * y[0]], x0=0.0,
                   y0=[1.0, 0.0])


def test_step_budget_raises_stiffness(monkeypatch):
    # at w = 2, 87 steps cross [0, 10]
    spec = _fast_oscillator(2.0)
    monkeypatch.setattr(odesolve, "_MAX_STEPS", 50)
    with pytest.raises(StiffnessError,
                       match="step budget of 50 attempted steps spent at x="):
        integrate(spec, 10.0)
    monkeypatch.setattr(odesolve, "_MAX_STEPS", 100)
    assert integrate(spec, 10.0).x_end == 10.0


def test_progress_floor_stops_an_integration_behind_its_pace(monkeypatch):
    # the steps grow from 1e-4 / w to their pace; a check every 20
    # attempted steps wants a tenth of the pace that would cross [0, 10]
    # within the budget of 200 steps: 0.1 more of the span each time
    monkeypatch.setattr(odesolve, "_MAX_STEPS", 200)
    monkeypatch.setattr(odesolve, "_FLOOR_EVERY", 20)
    with pytest.raises(StiffnessError,
                       match=r"^20 attempted steps covered 0\.0381777365"):
        integrate(_fast_oscillator(50.0), 10.0)
    # above the floor, too slow for the budget: the budget stops it
    with pytest.raises(StiffnessError, match="step budget of 200"):
        integrate(_fast_oscillator(10.0), 10.0)
    traj = integrate(_fast_oscillator(4.0), 10.0)
    assert (traj.x_end, traj.attempts) == (10.0, 168)


def test_rms_norm_is_the_numpy_mean_bit_for_bit():
    # the step controller's error norm sums in Python floats; it must
    # keep the exact bits of the numpy form it replaced
    rng = np.random.default_rng(20261018)
    for dim in (1, 2, 4, 7):
        for _ in range(3000):
            e = rng.standard_normal(dim) * 10.0 ** rng.uniform(-14, 4, dim)
            scale = 1e-12 + 1e-10 * np.abs(
                rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 6, dim))
            want = float(np.sqrt(np.mean((e / scale) ** 2)))
            assert _rms_norm(e, scale) == want


# ---------------------------------------------------------------------------
# bit oracle: the step loop as a plain float loop


def _tableau_sum(row, k, j):
    """sum_i row[i] * k[i - 1][j] over the stages i of `row` ({stage:
    weight}) with a nonzero weight, in stage order, started from its
    first term: the order of the step kernel's sums."""
    total = None
    for i, w in sorted(row.items()):
        if w != 0.0:
            term = w * k[i - 1][j]
            total = term if total is None else total + term
    return total


def _float_coeffs(rhs, x, y, y_new, hs, k):
    """A step's dense-output coefficients F_0..F_6 per entry, from its 13
    slopes k: stages 14..16 first (3 rhs calls), then F_0 = y_new - y,
    F_1 = hs k_1 - F_0, F_2 = 2 F_0 - hs (k_13 + k_1) and
    F_(3+m) = hs * (row m of D) . k."""
    k = list(k)
    for i in (14, 15, 16):
        point = [y[j] + hs * _tableau_sum(odesolve._A[i - 1], k, j)
                 for j in range(len(y))]
        k.append(rhs(x + odesolve._C[i - 1] * hs, point))
    out = []
    for j in range(len(y)):
        d = y_new[j] - y[j]
        out.append([d, hs * k[0][j] - d, 2.0 * d - hs * (k[12][j] + k[0][j])]
                   + [hs * _tableau_sum(row, k, j) for row in odesolve._D])
    return out


def _float_dense(y, q, t):
    """y + t (F_0 + s (F_1 + t (F_2 + ... + s (F_5 + t F_6)))) per entry,
    s = 1 - t, innermost first."""
    s = 1.0 - t
    out = []
    for v, f in zip(y, q):
        acc = f[6]
        for m in range(5, -1, -1):
            acc = f[m] + (t if m % 2 else s) * acc
        out.append(v + t * acc)
    return out


def _float_integrate(spec, x_end):
    """The DOP853 step loop in Python floats, one stage and one entry at
    a time, without the step budget and the progress floor.  The rhs and
    the guard receive each state as a list of floats.  A trial step the
    guard rejects is bisected on its dense output for the crossing.
    Returns (xs, ys, status, reason, segs: (x0, hs, y0, y1, slopes) per
    accepted step, rejected steps, steps retried short of a located
    crossing, the state the guard rejected where it stopped the loop,
    rhs calls)."""
    dim, atol, rtol = len(spec.y0), spec.atol, spec.rtol
    calls = [0]

    def rhs(x, y):
        calls[0] += 1
        return list(spec.rhs(x, y))

    x = float(spec.x0)
    y = spec.y0.tolist()
    direction = 1.0 if x_end > x else -1.0
    f = rhs(x, y)
    h = odesolve._initial_step(rhs, x, spec.y0, np.array(f), direction,
                               rtol, atol, abs(x_end - x))
    h_floor = 1e-14 * max(abs(x), abs(x_end), 1.0)
    xs, ys, segs = [x], [y], []
    err_prev = 1.0
    status, reason, stop = "ok", "", None
    rejected = located = 0
    nonfinite = None  # the text naming the first non-finite slope
    while (x_end - x) * direction > 0:
        h = min(h, abs(x_end - x))
        if not h >= h_floor:
            raise StiffnessError(f"step size underflow at x={x!r} (h={h!r})"
                                 + (nonfinite or "; problem too stiff"))
        hs = h * direction
        k = [f]
        for i in range(2, 13):
            point = [y[j] + hs * _tableau_sum(odesolve._A[i - 1], k, j)
                     for j in range(dim)]
            k.append(rhs(x + odesolve._C[i - 1] * hs, point))
        y_new = [y[j] + hs * _tableau_sum(odesolve._B, k, j)
                 for j in range(dim)]
        k.append(rhs(x + hs, y_new))
        e5 = e3 = 0.0
        for j in range(dim):
            scale = atol + rtol * float(np.maximum(abs(y[j]), abs(y_new[j])))
            a = _tableau_sum(odesolve._E5, k, j) / scale
            b = _tableau_sum(odesolve._E3, k, j) / scale
            e5, e3 = (a * a, b * b) if j == 0 else (e5 + a * a, e3 + b * b)
        den = (e5 + 0.01 * e3) * dim
        if not all(math.isfinite(v) for v in k[12]):
            err = math.inf
        elif den == 0.0:
            err = 0.0
        elif 0.0 < den < math.inf:
            err = abs(hs) * e5 / math.sqrt(den)
        else:
            err = math.inf
        if err <= 1.0:
            if spec.guard is not None and not spec.guard(x + hs, y_new):
                reach = 64 * h_floor
                q = _float_coeffs(rhs, x, y, y_new, hs, k)
                lo, hi, state = 0.0, 1.0, (x + hs, y_new)
                while hi * h > reach and (hi - lo) * h > reach:
                    t = 0.5 * (lo + hi)
                    yt = _float_dense(y, q, t)
                    if spec.guard(x + t * hs, yt):
                        lo = t
                    else:
                        hi, state = t, (x + t * hs, yt)
                if hi * h <= reach:
                    status, stop = "guard", state
                    reason = f"guard stopped integration at x={x!r}"
                    break
                h *= lo
                located += 1
                continue
            segs.append((x, hs, y, y_new, k))
            x += hs
            y = y_new
            f = k[12]
            xs.append(x)
            ys.append(y)
            nonfinite = None
            factor = 0.9 * (err + 1e-300) ** (-0.7 / 8) * err_prev ** (0.4 / 8)
            err_prev = max(err, 1e-10)
            h *= min(10.0, max(0.2, factor))
        else:
            if nonfinite is None and not err < math.inf:
                # the first slope the rhs returned non-finite, in call order
                bad = [(i, j) for i in range(13) for j in range(dim)
                       if not math.isfinite(k[i][j])]
                if bad:
                    nonfinite = (
                        f": the rhs first returned a non-finite component "
                        f"{bad[0][1]} at stage {bad[0][0] + 1} of the step "
                        f"of h={hs!r} from x={x!r}")
            h *= max(0.2, 0.9 * err ** (-1 / 8))
            rejected += 1
    return (np.asarray(xs), np.asarray(ys), status, reason, segs,
            rejected, located, stop, calls[0])


def _float_dense_at(rhs, segs, x):
    """The dense output of `segs` at x, the step's coefficients formed
    with `rhs`."""
    starts = [s[0] for s in segs]
    ascending = segs[0][1] > 0
    idx = bisect.bisect_left(starts if ascending else [-v for v in starts],
                             x if ascending else -x)
    x0, hs, y0, y1, k = segs[min(max(idx - 1, 0), len(segs) - 1)]
    return np.array(_float_dense(
        y0, _float_coeffs(lambda *a: list(rhs(*a)), x0, y0, y1, hs, k),
        (x - x0) / hs))


def _segs_layout(segs):
    """The oracle's segments in `Trajectory._segs`' layout: per step its
    size, then its 13 slopes stage by stage."""
    return array("d", [v for _, hs, _, _, k in segs
                       for v in [hs] + [e for slope in k for e in slope]])


def _quartic_spec(seed, params):
    # the scan's integration at c = -1 from x0 = 1, with its guard
    jet = build_family(seed, **params).field(1.0)
    return IvpSpec(rhs=ode4_rhs(-1.0), x0=1.0,
                   y0=[jet.derivative(k) for k in range(4)],
                   guard=lambda x, y: 1e-6 < abs(y[0]) < 1e6
                   and abs(y[1]) < 1e8)


def _oscillator():
    return IvpSpec(rhs=lambda x, y: np.array([y[1], -y[0]]), x0=0.0,
                   y0=[1.0, 0.0])


def _growth():
    # dim 1: y' = cos(x) y, y = exp(sin x)
    return IvpSpec(rhs=lambda x, y: [math.cos(x) * y[0]], x0=0.0,
                   y0=[1.0])


def _rotation():
    # dim 3: y' = w x y, a rotation about the axis w
    w0, w1, w2 = 0.3, -1.2, 0.8
    return IvpSpec(rhs=lambda x, y: [w1 * y[2] - w2 * y[1],
                                             w2 * y[0] - w0 * y[2],
                                             w0 * y[1] - w1 * y[0]],
                   x0=0.0, y0=[1.0, 0.5, -0.25])


def _coupled_oscillators():
    # dim 6: two oscillators (q1, p1), (q2, p2) coupled by a spring, one
    # of them stiffened by a cubic term, driven by the harmonic (u, v)
    def rhs(x, y):
        q1, q2, p1, p2, u, v = y
        spring = 0.4 * (q2 - q1)
        return (p1, p2, -q1 - 0.5 * q1 ** 3 + spring + 0.2 * u,
                -2.0 * q2 - spring, v, -u)

    return IvpSpec(rhs=rhs, x0=0.0,
                   y0=[1.0, -0.5, 0.0, 0.3, 1.0, 0.0])


_ORACLE_CASES = [
    ("growth-dim1", _growth, 8.0),
    ("rotation-dim3", _rotation, -12.0),
    ("coupled-oscillators-dim6", _coupled_oscillators, 15.0),
    ("oscillator-forward", _oscillator, 10.0),
    ("oscillator-backward", _oscillator, -10.0),
    ("quartic-quadratic-fwd", lambda: _quartic_spec("quadratic", {}), 7.0),
    ("quartic-quadratic-bwd", lambda: _quartic_spec("quadratic", {}), -5.0),
    ("quartic-tanh-b6-fwd", lambda: _quartic_spec("tanh", {"b": 6.0}), 7.0),
    ("quartic-tanh-b6-bwd", lambda: _quartic_spec("tanh", {"b": 6.0}), -5.0),
]


def test_integrate_is_the_numpy_step_loop_bit_for_bit():
    # the step kernel's straight-line sums against the plain float loop:
    # every knot, segment, status, work counter and dense value keeps its
    # bits, on smooth, capped, guarded and rejected steps
    rejected = located = 0
    for name, make, x_end in _ORACLE_CASES:
        xs, ys, status, reason, segs, rej, loc, stop, calls = \
            _float_integrate(make(), x_end)
        rejected, located = rejected + rej, located + loc
        traj = integrate(make(), x_end)
        assert traj.xs.tobytes() == xs.tobytes(), name
        assert traj.ys.tobytes() == ys.tobytes(), name
        assert (traj.status, traj.reason, traj.rejected) == (
            status, reason, stop), name
        assert traj._segs.tobytes() == _segs_layout(segs).tobytes(), name
        assert (traj.attempts, traj.rhs_calls) == (
            len(segs) + rej + loc + (status == "guard"), calls), name
        for x0, hs, *_ in segs[::7]:
            for t in (0.125, 0.5, 0.8):
                x = x0 + t * hs
                assert traj(x).tobytes() == \
                    _float_dense_at(make().rhs, segs, x).tobytes()
    # the cases do take the rejection and guard-location branches
    assert rejected > 0 and located > 0


@pytest.mark.parametrize("name, make, x_end", _ORACLE_CASES,
                         ids=[case[0] for case in _ORACLE_CASES])
def test_integrate_calls_the_rhs_as_the_numpy_step_loop(name, make, x_end):
    # every dim the step kernel is built for: the same rhs calls, in
    # order, at the same bits of x and y
    def run(fn):
        spec, calls = make(), []
        rhs = spec.rhs

        def recording(x, y):
            calls.append((x.hex(), [v.hex() for v in y]))
            return rhs(x, y)

        spec.rhs = recording
        fn(spec, x_end)
        return calls

    calls = run(integrate)
    assert calls == run(_float_integrate)
    assert {len(y) for _, y in calls} == {len(make().y0)}


def test_step_kernel_is_built_once_per_dim_on_first_use():
    # importing the package builds no kernel and no dense former
    src = os.path.dirname(os.path.dirname(odesolve.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import ewhorizon, ewhorizon.cli; "
         "o = ewhorizon.odesolve; print(o._step_kernel.cache_info().currsize,"
         " o._dense_former.cache_info().currsize)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True)
    assert out.stdout == "0 0\n"
    # each integration at a dim reuses the kernel the first one built
    odesolve._step_kernel.cache_clear()
    odesolve._dense_former.cache_clear()
    trajs = [integrate(make(), x_end)
             for make, x_end in ((_oscillator, 1.0), (_rotation, 1.0),
                                 (_oscillator, -1.0), (_growth, 1.0))]
    info = odesolve._step_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 3)
    # without a guard stop, the dense former waits for the first read
    assert odesolve._dense_former.cache_info().currsize == 0
    trajs[0](0.5), trajs[2](-0.5), trajs[3](0.5)
    info = odesolve._dense_former.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_reading_a_step_forms_its_dense_output_once():
    # a step's dense output needs 3 more stages: the first read of the
    # step forms them (3 rhs calls) and later reads reuse them
    calls = [0]

    def rhs(x, y):
        calls[0] += 1
        return [y[1], -y[0]]

    traj = integrate(IvpSpec(rhs=rhs, x0=0.0, y0=[1.0, 0.0]), 10.0)
    # 2 to choose the first step, 12 per attempted step, no guard
    assert traj.rhs_calls == calls[0] == 2 + 12 * traj.attempts
    x0, x1 = traj.xs[3], traj.xs[4]
    values = [traj(x0 + t * (x1 - x0)) for t in np.linspace(0.05, 0.95, 9)]
    assert traj.rhs_calls == calls[0] == 2 + 12 * traj.attempts + 3
    assert [v.tobytes() for v in values] == [
        traj(x0 + t * (x1 - x0)).tobytes() for t in np.linspace(0.05, 0.95, 9)]
    assert traj.rhs_calls == calls[0] == 2 + 12 * traj.attempts + 3
    # a second step: 3 calls more
    traj(0.5 * (traj.xs[7] + traj.xs[8]))
    assert traj.rhs_calls == calls[0] == 2 + 12 * traj.attempts + 6


def _oracle_matches(spec, x_end, traj):
    """Assert that `traj`, integrated from `spec` to x_end, keeps every
    bit of the float step loop's run, and its work counters."""
    xs, ys, status, reason, segs, rejected, located, stop, calls = \
        _float_integrate(spec, x_end)
    # attempted steps: accepted, rejected, retried short of a located
    # guard crossing, or stopped by the guard
    attempts = len(xs) - 1 + rejected + located + (status == "guard")
    assert traj.xs.tobytes() == xs.tobytes()
    assert traj.ys.tobytes() == ys.tobytes()
    assert (traj.status, traj.reason, traj.rejected) == (status, reason, stop)
    # less the 3 rhs calls of each step whose dense output a read formed
    assert (traj.attempts, traj.rhs_calls - 3 * len(traj._formed)) == (
        attempts, calls)
    # a segment starts at its knot, whose bits the ys compare covers
    assert traj._segs.tobytes() == _segs_layout(segs).tobytes()


def _recording(monkeypatch, module):
    """Patch module's integrate to record (spec, x_end, trajectory, guard
    crossings located on a trial step's dense output) of each run."""
    runs, located, locate = [], [0], odesolve._locate

    def counted_locate(*args):
        located[0] += 1
        return locate(*args)

    def recording(spec, x_end):
        located[0] = 0
        traj = integrate(spec, x_end)
        runs.append((spec, x_end, traj, located[0]))
        return traj

    monkeypatch.setattr(odesolve, "_locate", counted_locate)
    monkeypatch.setattr(module, "integrate", recording)
    return runs


def _stops_by_a_rejected_state(spec, x_end, traj):
    """A guard-stopped trajectory ends within 64 least steps of a state
    its guard rejects, the resolution a guard stop is defined to."""
    if traj.status == "guard":
        x, y = traj.rejected
        assert not spec.guard(x, y)
        h_floor = 1e-14 * max(abs(spec.x0), abs(x_end), 1.0)
        assert abs(x - traj.x_end) <= 64 * h_floor


# the scan-c benchmark's (seed, c): 13 values of c per seed
_SCAN_VALUES = [(seed, lo + (hi - lo) * i / 12)
                for seed, lo, hi in (("quadratic", -1.0, 2.0),
                                     ("tanh", -2.0, 1.0))
                for i in range(13)]
# scan_rows_csv of their 26 rows, as recorded when the step became
# DOP853's: every row kept its status and periodic flag, and each edge
# is checked against its mpmath reference in tests/test_references.py
_SCAN_VALUES_SHA256 = (
    "00989eb1fb8ead96807a19c82a558279b65920f5886f1718b0ea67a29e3b3b9f")


def test_scan_c_benchmark_integrations_are_the_numpy_step_loop(monkeypatch):
    # both sides of every scan-c benchmark op, with scan_c's own guard:
    # 52 x-marches, 22 tails in (x, u, p_1, p_2, p_3; s) and one march
    # resumed where a tail reached the span end, each with the float
    # loop's bits, and each guard stop by a state the guard rejects; the
    # CSV of the 26 rows is pinned by its sha256
    runs = _recording(monkeypatch, nearhorizon)
    rows = [row for seed, c in _SCAN_VALUES
            for row in report.scan_c(c, c, 1, seed=seed)]
    assert [len(spec.y0) for spec, *_ in runs].count(5) == 22
    assert len(runs) == 75
    for spec, x_end, traj, _ in runs:
        _oracle_matches(spec, x_end, traj)
        _stops_by_a_rejected_state(spec, x_end, traj)
    # each of the 64 guard stops takes 2 to 4 locations, 3 rhs calls each
    located = [n for *_, n in runs]
    assert (max(located), sum(located)) == (4, 144)
    assert hashlib.sha256(report.scan_rows_csv(rows).encode()).hexdigest() \
        == _SCAN_VALUES_SHA256


def test_numeric_family_integrations_are_the_numpy_step_loop(monkeypatch):
    # each side marches in x to |h| = 10, then the (u, p; s) tail runs to
    # the guard in s; the first x past the switch point resumes the
    # x-march there, to the edge.  At span 1.25 the tail would cross the
    # span end, and each side's march resumes at once, to the span end.
    # Each run has the float loop's bits, and each guard stop lies by a
    # state the guard rejects
    runs = _recording(monkeypatch, nearhorizon)
    fam = build_family("numeric")
    lo, hi = fam.window
    fam.field(hi), fam.field(lo)
    build_family("numeric", span=1.25)
    s = nearhorizon._TAIL_S
    assert [x_end for _, x_end, *_ in runs] == [
        6.0, s, -6.0, -s, hi, lo, 1.25, s, 1.25, -1.25, -s, -1.25]
    assert [len(spec.y0) for spec, *_ in runs] == [2, 3, 2, 3, 2, 2,
                                                   2, 3, 2, 2, 3, 2]
    for spec, x_end, traj, _ in runs:
        _oracle_matches(spec, x_end, traj)
        _stops_by_a_rejected_state(spec, x_end, traj)
    # the default family's attempted steps: each side's x-march to
    # |h| = 10 and its tail, then the marches resumed to the edges read.
    # Halving trial steps toward each guard took 370 and 165 per side,
    # and the DOPRI5 step 298 and 92, then 729 per resumed march
    assert [traj.attempts for _, _, traj, _ in runs[:6]] == [
        47, 22, 47, 22, 108, 108]
    assert max(n for *_, n in runs) == 2


def test_integrate_nan_in_one_component_fails_as_the_numpy_loop():
    # past x = 0.5 the second slope is NaN: every step that reaches there
    # is rejected until the step size underflows just short of 0.5; both
    # loops must evaluate the rhs at the same bits and fail with one text,
    # which names the stage and the rhs component that first went NaN
    def run(fn):
        calls = []

        def rhs(x, y):
            calls.append((x, [v.hex() for v in y]))
            return y[1], -y[0] if x <= 0.5 else math.nan

        with pytest.raises(StiffnessError) as err:
            fn(IvpSpec(rhs=rhs, x0=0.0, y0=[1.0, 0.0]), 1.0)
        return str(err.value), calls

    text, calls = run(integrate)
    assert (text, calls) == run(_float_integrate)
    assert text == (
        "step size underflow at x=0.49999999999998884 "
        "(h=5.963866867766913e-15): the rhs first returned a non-finite "
        "component 1 at stage 3 of the step of h=1.4909667169417282e-13 "
        "from x=0.49999999999998884")
    assert len(calls) == 1166 and any(x > 0.5 for x, _ in calls)


@pytest.mark.parametrize("bad, named", [
    (lambda x, y: (y[1], -y[0] if x <= 0.5 else math.nan), "component 1"),
    (lambda x, y: (y[1] if x <= 0.5 else math.inf, -y[0]), "component 0"),
], ids=["nan-component-1", "inf-component-0"])
def test_a_non_finite_slope_is_named_by_its_rhs_component(bad, named):
    # the underflow names the component of the rhs that went non-finite
    # first, not a component of the error estimate that it spoiled
    spec = IvpSpec(rhs=bad, x0=0.0, y0=[1.0, 0.0])
    with pytest.raises(StiffnessError,
                       match=rf": the rhs first returned a non-finite "
                             rf"{named} at stage \d of the step of h="):
        integrate(spec, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="y0 must be a 1-D state"):
        IvpSpec(rhs=lambda x, y: y, x0=0.0, y0=[[1.0]])
    with pytest.raises(ValueError):
        IvpSpec(rhs=lambda x, y: y, x0=0.0, y0=[1.0], rtol=0.0)


def test_spec_needs_a_state():
    with pytest.raises(ValueError, match="y0 must be a 1-D state of at "
                                         "least one entry"):
        IvpSpec(rhs=lambda x, y: y, x0=0.0, y0=[])


@pytest.mark.parametrize("tol", ["rtol", "atol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_spec_rejects_a_tolerance_that_is_not_finite(tol, value):
    # a NaN passed `<= 0` and failed later as "no starting step"
    with pytest.raises(ValueError, match="positive and finite"):
        IvpSpec(rhs=lambda x, y: y, x0=0.0, y0=[1.0], **{tol: value})


@pytest.mark.parametrize("x0, x_end", [(math.nan, 1.0), (0.0, math.nan),
                                       (0.0, math.inf), (-math.inf, 0.0)])
def test_integrate_rejects_an_end_that_is_not_finite(x0, x_end):
    # a NaN end compared false in the step loop, so it returned status
    # "ok" with only its start knot
    spec = IvpSpec(rhs=lambda x, y: [y[0]], x0=x0, y0=[1.0])
    with pytest.raises(ValueError, match="finite x0 and x_end"):
        integrate(spec, x_end)


def test_zero_length_target():
    spec = IvpSpec(rhs=lambda x, y: y, x0=0.5, y0=[2.0])
    traj = integrate(spec, 0.5)
    assert traj.status == "ok"
    assert traj.y_end[0] == 2.0


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quad_polynomial_exact():
    assert_allclose(quad(lambda t: 3.0 * t * t, 0.0, 2.0), 8.0, rtol=1e-13)


def test_quad_known_integrals():
    assert_allclose(quad(math.exp, 0.0, 1.0), math.e - 1.0, rtol=1e-12)
    assert_allclose(quad(lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0),
                    math.pi / 4.0, rtol=1e-12)
    assert_allclose(quad(math.sin, 0.0, math.pi), 2.0, rtol=1e-12)


def test_quad_orientation_and_degenerate():
    assert quad(math.exp, 1.0, 1.0) == 0.0
    assert_allclose(quad(math.exp, 1.0, 0.0), 1.0 - math.e, rtol=1e-12)


def test_quad_oscillatory():
    # int_0^10 sin(7 t) dt
    assert_allclose(quad(lambda t: math.sin(7.0 * t), 0.0, 10.0),
                    (1.0 - math.cos(70.0)) / 7.0, rtol=1e-10)


def test_quad_sharp_peak():
    # narrow Lorentzian, adaptive refinement required
    f = lambda t: 1.0 / ((t - 0.3) ** 2 + 1e-4)
    exact = (math.atan(0.7 / 1e-2) - math.atan(-1.3 / 1e-2)) / 1e-2
    assert_allclose(quad(f, -1.0, 1.0), exact, rtol=1e-9)


def test_quad_endpoint_singularity_raises():
    with pytest.raises(AccuracyError):
        quad(lambda t: t ** -0.5, 0.0, 1.0)


def test_quad_raises_at_once_on_a_non_finite_estimate():
    # a NaN estimate fails every convergence test, so bisecting on it
    # would take about 2^50 rule evaluations: run it in a subprocess, so
    # that a regression fails here instead of hanging the suite
    src = os.path.dirname(os.path.dirname(odesolve.__file__))
    code = ("import math\n"
            "from ewhorizon.errors import AccuracyError\n"
            "from ewhorizon.odesolve import quad\n"
            "for f in (lambda t: math.nan, lambda t: math.inf,\n"
            "          lambda t: math.nan if t > 0.7 else 1.0):\n"
            "    try:\n"
            "        quad(f, 0.0, 1.0)\n"
            "    except AccuracyError as e:\n"
            "        print(e)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=10,
                         check=True)
    lines = out.stdout.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("quadrature on [0.0, 1.0]: non-finite "
                               "Gauss-Kronrod estimate on [")
               for line in lines)


# the Gauss-Kronrod rule as it was written on numpy arrays, so every
# weight and node product was numpy-scalar arithmetic
_NP_XGK = np.array(odesolve._XGK)
_NP_WGK = np.array(odesolve._WGK)
_NP_WG = np.array(odesolve._WG)


def _numpy_gk15(f, a, b):
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fc = f(c)
    gauss = _NP_WG[3] * fc
    kron = _NP_WGK[7] * fc
    for j in range(7):
        x = hw * _NP_XGK[j]
        fsum = f(c - x) + f(c + x)
        kron += _NP_WGK[j] * fsum
        if j % 2 == 1:
            gauss += _NP_WG[(j - 1) // 2] * fsum
    kron *= hw
    gauss *= hw
    return kron, abs(kron - gauss)


def _quad_outcome(f, a, b):
    """quad's value, or the text, estimate and bound of its AccuracyError,
    as bit patterns."""
    try:
        v = quad(f, a, b)
        return type(v), float(v).hex()
    except AccuracyError as e:
        return str(e), float(e.estimate).hex(), float(e.error_bound).hex()


def test_quad_is_the_numpy_scalar_rule_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(18)
    fields = (nearhorizon.field_sin(), build_family("tanh").field)
    integrands = [math.exp, lambda t: 1.0 / (1.0 + t * t),
                  lambda t: math.sin(7.0 * t) * math.exp(-0.3 * t),
                  lambda t: fields[0](t).value * fields[1](t).value]
    cases = [(f, *rng.uniform(-3.0, 3.0, 2).tolist())
             for f in integrands for _ in range(12)]
    cases += [(lambda t: t ** -0.5, 0.0, 1.0)]  # raises AccuracyError
    got = [_quad_outcome(*case) for case in cases]
    assert all(g[0] is float for g in got[:-1])
    assert got[-1][0].startswith("quadrature on [0.0, 1.0] did not converge")
    monkeypatch.setattr(odesolve, "_gk15", _numpy_gk15)
    want = [_quad_outcome(*case) for case in cases]
    assert [g[1:] for g in got] == [w[1:] for w in want]
    assert got[-1] == want[-1]
