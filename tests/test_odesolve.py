"""Runge-Kutta integration and adaptive quadrature against closed forms."""

import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewhorizon import nearhorizon, odesolve, report
from ewhorizon.errors import AccuracyError, StiffnessError
from ewhorizon.nearhorizon import build_family
from ewhorizon.odesolve import (IvpSpec, Trajectory, _rms_norm,
                                integrate, quad)


def test_exponential_growth():
    spec = IvpSpec(dim=1, rhs=lambda x, y: y, x0=0.0, y0=[1.0])
    traj = integrate(spec, 2.0)
    assert traj.status == "ok"
    assert_allclose(traj.y_end[0], math.e**2, rtol=1e-9)


def test_backward_integration():
    spec = IvpSpec(dim=1, rhs=lambda x, y: y, x0=0.0, y0=[1.0])
    traj = integrate(spec, -1.5)
    assert traj.status == "ok"
    assert traj.x_end == -1.5
    assert_allclose(traj.y_end[0], math.exp(-1.5), rtol=1e-9)


def test_harmonic_oscillator_dense_output():
    spec = IvpSpec(dim=2, rhs=lambda x, y: np.array([y[1], -y[0]]),
                   x0=0.0, y0=[1.0, 0.0])
    traj = integrate(spec, 10.0)
    for x in np.linspace(0.0, 10.0, 57):
        y = traj(float(x))
        assert abs(y[0] - math.cos(x)) < 1e-8
        assert abs(y[1] + math.sin(x)) < 1e-8


def test_dense_output_matches_knots():
    spec = IvpSpec(dim=1, rhs=lambda x, y: np.array([math.cos(x)]),
                   x0=0.0, y0=[0.0])
    traj = integrate(spec, 3.0)
    for xk, yk in zip(traj.xs, traj.ys):
        assert_allclose(traj(float(xk))[0], yk[0], rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        traj(3.5)


def test_backward_dense_output_matches_knots():
    # descending knots: the step lookup searches the negated knots
    spec = IvpSpec(dim=1, rhs=lambda x, y: np.array([math.cos(x)]),
                   x0=0.0, y0=[0.0])
    traj = integrate(spec, -3.0)
    for xk, yk in zip(traj.xs, traj.ys):
        assert_allclose(traj(float(xk))[0], yk[0], rtol=1e-12, atol=1e-12)
    assert_allclose(traj(-2.0)[0], math.sin(-2.0), rtol=1e-9)
    with pytest.raises(ValueError):
        traj(-3.5)


def test_tolerance_scaling():
    def run(rtol):
        spec = IvpSpec(dim=2, rhs=lambda x, y: np.array([y[1], -y[0]]),
                       x0=0.0, y0=[0.0, 1.0], rtol=rtol, atol=1e-14)
        return abs(integrate(spec, 6.0).y_end[0] - math.sin(6.0))

    assert run(1e-11) < run(1e-5) < 1e-4
    assert run(1e-11) < 1e-9


def test_nonautonomous_rhs():
    # y' = 2 x y  ->  y = exp(x^2)
    spec = IvpSpec(dim=1, rhs=lambda x, y: [2.0 * x * y[0]], x0=0.0,
                   y0=[1.0])
    assert_allclose(integrate(spec, 1.5).y_end[0], math.exp(2.25),
                    rtol=1e-9)


def test_guard_stops_integration():
    # y' = -y crosses 0.1 at x = ln(10)
    spec = IvpSpec(dim=1, rhs=lambda x, y: [-y[0]], x0=0.0, y0=[1.0],
                   guard=lambda x, y: y[0] > 0.1)
    traj = integrate(spec, 10.0)
    assert traj.status == "guard"
    assert traj.x_end < 10.0
    # stopped close to (never after a long way past) the crossing
    assert traj.y_end[0] <= 0.1 + 1e-12
    assert abs(traj.x_end - math.log(10.0)) < 0.5


def test_guard_never_tripped_is_ok():
    spec = IvpSpec(dim=1, rhs=lambda x, y: [-y[0]], x0=0.0, y0=[1.0],
                   guard=lambda x, y: y[0] > 0.1)
    assert integrate(spec, 1.0).status == "ok"


def test_blowup_raises_stiffness():
    # y' = y^2 from y(0) = 1 has a pole at x = 1
    spec = IvpSpec(dim=1, rhs=lambda x, y: [y[0] * y[0]], x0=0.0,
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

    spec = IvpSpec(dim=1, rhs=rhs, x0=0.0, y0=[1.0])
    assert_allclose(integrate(spec, 0.5).y_end[0], 2.0, rtol=1e-9)
    calls[0] = 0
    with pytest.raises(StiffnessError,
                       match=r"^step size underflow at x=0\.9999.*\); "
                             r"problem too stiff$"):
        integrate(spec, 2.0)


@pytest.mark.parametrize("y0, rhs", [
    ([math.nan, 0.0], lambda x, y: np.array([y[1], -y[0]])),
    ([1.0, 0.0], lambda x, y: np.full(2, math.nan)),
], ids=["nan-y0", "nan-rhs"])
def test_nan_step_raises_stiffness(y0, rhs):
    # a NaN step size compares false against the floor; it must stop the
    # integration rather than spin without advancing x
    spec = IvpSpec(dim=2, rhs=rhs, x0=0.0, y0=y0)
    with pytest.raises(StiffnessError):
        integrate(spec, 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_infinite_starting_slope_raises_stiffness():
    # |f| / scale overflows to inf, so the starting step would be 0; this
    # must stop the integration, not divide by that step
    spec = IvpSpec(dim=1, rhs=lambda x, y: np.array([1e300]), x0=0.0,
                   y0=[1.0])
    with pytest.raises(StiffnessError, match="no starting step"):
        integrate(spec, 1.0)


def test_step_budget_raises_stiffness(monkeypatch):
    # steps of at most 0.125 need more than 80 of them to cross [0, 10]
    spec = IvpSpec(dim=1, rhs=lambda x, y: np.array([1.0]), x0=0.0,
                   y0=[0.0], max_step=0.125)
    monkeypatch.setattr(odesolve, "_MAX_STEPS", 50)
    with pytest.raises(StiffnessError,
                       match="step budget of 50 attempted steps spent at x="):
        integrate(spec, 10.0)
    monkeypatch.setattr(odesolve, "_MAX_STEPS", 100)
    assert integrate(spec, 10.0).x_end == 10.0


def test_progress_floor_stops_an_integration_behind_its_pace(monkeypatch):
    # the steps grow tenfold from 1e-4 up to max_step; a check every 20
    # attempted steps wants a tenth of the pace that would cross [0, 10]
    # within the budget of 200 steps: 0.1 more of the span each time
    monkeypatch.setattr(odesolve, "_MAX_STEPS", 200)
    monkeypatch.setattr(odesolve, "_FLOOR_EVERY", 20)
    spec = IvpSpec(dim=1, rhs=lambda x, y: np.array([1.0]), x0=0.0,
                   y0=[0.0], max_step=0.004)
    with pytest.raises(StiffnessError,
                       match="20 attempted steps covered 0.0731"):
        integrate(spec, 10.0)
    # above the floor, too slow for the budget: the budget stops it
    spec.max_step = 0.045
    with pytest.raises(StiffnessError, match="step budget of 200"):
        integrate(spec, 10.0)
    spec.max_step = 0.06  # 170 steps
    assert integrate(spec, 10.0).x_end == 10.0


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
# bit oracle: the numpy form of the step loop


def _numpy_integrate(spec, x_end):
    """The DOPRI step loop in its numpy form (`@` sums, np.maximum in the
    scale, _rms_norm), without the step budget and the progress floor.
    The rhs and the guard receive each state as a list of floats.
    Returns (xs, ys, status, reason, segs, rejected, guard_halvings)."""
    rhs = spec.rhs
    x = float(spec.x0)
    y = spec.y0.copy()
    direction = 1.0 if x_end > x else -1.0
    f = np.asarray(rhs(x, y.tolist()), dtype=float)
    h = odesolve._initial_step(rhs, x, y, f, direction, spec.rtol,
                               spec.atol, min(spec.max_step, abs(x_end - x)))
    h_floor = 1e-14 * max(abs(x), abs(x_end), 1.0)
    xs, ys, segs = [x], [y.copy()], []
    err_prev = 1.0
    k = np.empty((7, spec.dim))
    k[0] = f
    status, reason = "ok", ""
    rejected = halvings = 0
    nonfinite = None  # (component, x, h) of the first non-finite estimate
    while (x_end - x) * direction > 0:
        h = min(h, abs(x_end - x))
        if not h >= h_floor:
            text = f"step size underflow at x={x!r} (h={h!r})"
            if nonfinite is None:
                raise StiffnessError(text + "; problem too stiff")
            i, x_bad, h_bad = nonfinite
            raise StiffnessError(
                text + f": component {i} of the error estimate first went "
                f"non-finite on the step of h={h_bad!r} from x={x_bad!r}")
        hs = h * direction
        for i in range(1, 6):
            yi = y + hs * (k[:i].T @ odesolve._A_ROWS[i])
            k[i] = rhs(x + odesolve._C_STEP[i] * hs, yi.tolist())
        y_new = y + hs * (k[:6].T @ odesolve._B_ROW)
        k[6] = rhs(x + hs, y_new.tolist())
        err_vec = hs * (k.T @ odesolve._E)
        scale = spec.atol + spec.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms_norm(err_vec, scale)
        if err <= 1.0:
            if spec.guard is not None and not spec.guard(x + hs,
                                                         y_new.tolist()):
                if h <= 64 * h_floor:
                    status = "guard"
                    reason = f"guard stopped integration at x={x!r}"
                    break
                h *= 0.5
                halvings += 1
                continue
            segs.append((x, hs, y, k.T @ odesolve._P))
            x += hs
            y = y_new
            k[0] = k[6]
            xs.append(x)
            ys.append(y)
            nonfinite = None
            factor = 0.9 * (err + 1e-300) ** (-0.7 / 5) * err_prev ** (0.4 / 5)
            err_prev = max(err, 1e-10)
            h = min(h * min(10.0, max(0.2, factor)), spec.max_step)
        else:
            if nonfinite is None and not np.isfinite(err):
                # where the left-to-right sum of squares stops being finite
                sums = np.cumsum((err_vec / scale) ** 2)
                nonfinite = (int(np.flatnonzero(~np.isfinite(sums))[0]), x,
                             hs)
            h *= max(0.2, 0.9 * err ** (-0.2))
            rejected += 1
    return (np.asarray(xs), np.asarray(ys), status, reason, segs,
            rejected, halvings)


def _numpy_dense(segs, x):
    """The dense output of `segs` at x, in its numpy form."""
    keys = np.array([s[0] for s in segs] + [segs[-1][0] + segs[-1][1]])
    ascending = segs[0][1] > 0
    idx = np.searchsorted(keys if ascending else -keys,
                          x if ascending else -x)
    x0, h, y0, q = segs[min(max(int(idx) - 1, 0), len(segs) - 1)]
    t = (x - x0) / h
    return y0 + h * (q @ np.array([t, t * t, t**3, t**4]))


def _quartic_spec(seed, params):
    # the scan's integration at c = -1 from x0 = 1, with its guard
    jet = build_family(seed, **params).field(1.0)
    return IvpSpec(dim=4, rhs=report._quartic_rhs_factory(-1.0), x0=1.0,
                   y0=[jet.derivative(k) for k in range(4)],
                   guard=lambda x, y: 1e-6 < abs(y[0]) < 1e6
                   and abs(y[1]) < 1e8)


def _oscillator(**kw):
    return IvpSpec(dim=2, rhs=lambda x, y: np.array([y[1], -y[0]]),
                   x0=0.0, y0=[1.0, 0.0], **kw)


_ORACLE_CASES = [
    ("oscillator-forward", _oscillator, 10.0),
    ("oscillator-backward", _oscillator, -10.0),
    ("oscillator-max-step", lambda: _oscillator(max_step=0.3), 10.0),
    ("quartic-quadratic-fwd", lambda: _quartic_spec("quadratic", {}), 7.0),
    ("quartic-quadratic-bwd", lambda: _quartic_spec("quadratic", {}), -5.0),
    ("quartic-tanh-b6-fwd", lambda: _quartic_spec("tanh", {"b": 6.0}), 7.0),
    ("quartic-tanh-b6-bwd", lambda: _quartic_spec("tanh", {"b": 6.0}), -5.0),
]


def test_integrate_is_the_numpy_step_loop_bit_for_bit():
    # the step loop sums the tableau with ndarray.dot and does the rest in
    # floats; every knot, segment, status and dense value must keep the
    # bits of the numpy form, on smooth, capped, guarded and rejected steps
    rejected = halvings = 0
    for name, make, x_end in _ORACLE_CASES:
        xs, ys, status, reason, segs, rej, hal = _numpy_integrate(make(),
                                                                  x_end)
        rejected, halvings = rejected + rej, halvings + hal
        traj = integrate(make(), x_end)
        assert traj.xs.tobytes() == xs.tobytes(), name
        assert traj.ys.tobytes() == ys.tobytes(), name
        assert (traj.status, traj.reason) == (status, reason), name
        assert len(traj._segs) == len(segs), name
        for (x0, h, q), (rx0, rh, _, rq) in zip(traj._segs, segs):
            assert (x0, h, q.tobytes()) == (rx0, rh, rq.tobytes()), name
        for x0, h, _, _ in segs[::7]:
            for t in (0.125, 0.5, 0.8):
                x = x0 + t * h
                assert traj(x).tobytes() == _numpy_dense(segs, x).tobytes()
    # the cases do take the rejection and guard-halving branches
    assert rejected > 0 and halvings > 0


def _oracle_matches(spec, x_end, traj, rhs_calls):
    """Assert that `traj`, integrated from `spec` to x_end with rhs_calls
    rhs calls, keeps every bit of the numpy step loop's run."""
    xs, ys, status, reason, segs, rejected, halvings = _numpy_integrate(
        spec, x_end)
    # two rhs calls choose the first step, then six per attempted step:
    # accepted, rejected, halved toward the guard, or stopped by it
    attempts = len(xs) - 1 + rejected + halvings + (status == "guard")
    assert traj.xs.tobytes() == xs.tobytes()
    assert traj.ys.tobytes() == ys.tobytes()
    assert (traj.status, traj.reason, rhs_calls) == (status, reason,
                                                     2 + 6 * attempts)
    # a segment starts at its knot, whose bits the ys compare covers
    assert [(x0, h, q.tobytes()) for x0, h, q in traj._segs] \
        == [(x0, h, q.tobytes()) for x0, h, _, q in segs]


def _recording(monkeypatch, module):
    """Patch module's integrate to record (spec, x_end, trajectory, rhs
    calls) of each run."""
    runs = []

    def recording(spec, x_end):
        calls, rhs = [0], spec.rhs

        def counted(x, y):
            calls[0] += 1
            return rhs(x, y)

        spec.rhs = counted
        try:
            traj = integrate(spec, x_end)
        finally:
            spec.rhs = rhs
        runs.append((spec, x_end, traj, calls[0]))
        return traj

    monkeypatch.setattr(module, "integrate", recording)
    return runs


# the scan-c benchmark's (seed, c): 13 values of c per seed
_SCAN_VALUES = [(seed, lo + (hi - lo) * i / 12)
                for seed, lo, hi in (("quadratic", -1.0, 2.0),
                                     ("tanh", -2.0, 1.0))
                for i in range(13)]
# scan_rows_csv of their 26 rows, as first recorded
_SCAN_VALUES_SHA256 = (
    "4c0b6ee44a8599b714829c044bb7562eb7a593bff53bf08bc529ffc8250fdd15")


def test_scan_c_benchmark_integrations_are_the_numpy_step_loop(monkeypatch):
    # both sides of every scan-c benchmark op, with scan_c's own guard:
    # 52 integrations, each with the numpy loop's bits; the CSV of the
    # 26 rows is pinned by its sha256
    runs = _recording(monkeypatch, report)
    rows = [row for seed, c in _SCAN_VALUES
            for row in report.scan_c(c, c, 1, seed=seed)]
    assert len(runs) == 52
    for spec, x_end, traj, calls in runs:
        _oracle_matches(spec, x_end, traj, calls)
    assert hashlib.sha256(report.scan_rows_csv(rows).encode()).hexdigest() \
        == _SCAN_VALUES_SHA256


def test_numeric_family_integrations_are_the_numpy_step_loop(monkeypatch):
    runs = _recording(monkeypatch, nearhorizon)
    build_family("numeric")
    assert [x_end for _, x_end, _, _ in runs] == [6.0, -6.0]
    for spec, x_end, traj, calls in runs:
        _oracle_matches(spec, x_end, traj, calls)


def test_integrate_nan_in_one_component_fails_as_the_numpy_loop():
    # past x = 0.5 the second slope is NaN: every step that reaches there
    # is rejected until the step size underflows just short of 0.5; both
    # loops must evaluate the rhs at the same bits and fail with one text
    def run(fn):
        calls = []

        def rhs(x, y):
            calls.append((x, [v.hex() for v in y]))
            return y[1], -y[0] if x <= 0.5 else math.nan

        with pytest.raises(StiffnessError) as err:
            fn(IvpSpec(dim=2, rhs=rhs, x0=0.0, y0=[1.0, 0.0]), 1.0)
        return str(err.value), calls

    text, calls = run(integrate)
    assert (text, calls) == run(_numpy_integrate)
    assert text == (
        "step size underflow at x=0.49999999999998446 "
        "(h=6.637692571157556e-15): component 0 of the error estimate first "
        "went non-finite on the step of h=1.659423142789389e-13 from "
        "x=0.49999999999998446")
    assert len(calls) == 692 and any(x > 0.5 for x, _ in calls)


def test_max_step_is_respected():
    spec = IvpSpec(dim=1, rhs=lambda x, y: np.array([1.0]), x0=0.0,
                   y0=[0.0], max_step=0.125)
    traj = integrate(spec, 1.0)
    assert np.max(np.abs(np.diff(traj.xs))) <= 0.125 + 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        IvpSpec(dim=2, rhs=lambda x, y: y, x0=0.0, y0=[1.0])
    with pytest.raises(ValueError):
        IvpSpec(dim=1, rhs=lambda x, y: y, x0=0.0, y0=[1.0], rtol=0.0)
    with pytest.raises(ValueError):
        IvpSpec(dim=1, rhs=lambda x, y: y, x0=0.0, y0=[1.0], max_step=-1.0)


def test_zero_length_target():
    spec = IvpSpec(dim=1, rhs=lambda x, y: y, x0=0.5, y0=[2.0])
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
