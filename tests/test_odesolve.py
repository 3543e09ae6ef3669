"""Runge-Kutta integration and adaptive quadrature against closed forms."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewhorizon import odesolve
from ewhorizon.errors import AccuracyError, StiffnessError
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
    spec = IvpSpec(dim=1, rhs=lambda x, y: 2.0 * x * y, x0=0.0, y0=[1.0])
    assert_allclose(integrate(spec, 1.5).y_end[0], math.exp(2.25),
                    rtol=1e-9)


def test_guard_stops_integration():
    # y' = -y crosses 0.1 at x = ln(10)
    spec = IvpSpec(dim=1, rhs=lambda x, y: -y, x0=0.0, y0=[1.0],
                   guard=lambda x, y: y[0] > 0.1)
    traj = integrate(spec, 10.0)
    assert traj.status == "guard"
    assert traj.x_end < 10.0
    # stopped close to (never after a long way past) the crossing
    assert traj.y_end[0] <= 0.1 + 1e-12
    assert abs(traj.x_end - math.log(10.0)) < 0.5


def test_guard_never_tripped_is_ok():
    spec = IvpSpec(dim=1, rhs=lambda x, y: -y, x0=0.0, y0=[1.0],
                   guard=lambda x, y: y[0] > 0.1)
    assert integrate(spec, 1.0).status == "ok"


def test_blowup_raises_stiffness():
    # y' = y^2 from y(0) = 1 has a pole at x = 1
    spec = IvpSpec(dim=1, rhs=lambda x, y: y * y, x0=0.0, y0=[1.0])
    with pytest.raises(StiffnessError):
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
