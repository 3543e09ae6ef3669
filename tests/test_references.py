"""ODE edges and poles against high-precision references.

`tests/reference/ode_references.json` holds, for the 26 scan-c benchmark
rows and for the numeric family at three parameter sets, each side's
edge and the bound that ends it, and the numeric family's poles, found
on mpmath `odefun` solutions at 30 digits, or from closed forms, by
`tests/reference/record_references.py` (which these tests do not run).
These tests check the integrator's accuracy, where the bit pins of
`tests/test_odesolve.py` only check that it is unchanged.

The bounds follow from the integrations' tolerances (rtol 1e-10 and
atol 1e-12 for the scan-c x-march, rtol 1e-11 for the numeric family's,
rtol 1e-8 for the pole tails in s):

- an edge where a cap trips (|h| = 1e6 or |h'| = 1e8) lies within 1e-10
  of its reference, relative: the scan's rtol;
- an edge where |h| falls to the floor 1e-6 is placed by the error in h
  there, and x moves by that error over the slope h': the bound is
  |x - x_ref| * |h'| <= 1e-11, ten times the scan's atol, as the
  global error of h may reach a few times atol;
- a pole lies within 1e-10 of its reference, relative, as its estimate
  x + u/p is taken at the edge, in reach of the tail's rtol;
- an edge at x0 +- span is that value exactly.

Measured when these tests were added, with the DOPRI5 step's tableau
sums in BLAS and then in Python floats, the worst errors were: 3.9e-11
relative for a cap edge (quadratic c = 1.25, backward, at x = 0.075,
located by its pole tail), 3.5e-12 and then 4.0e-12 in h for a floor
edge (tanh c = -0.25), 1.0e-12 relative for a numeric-family edge and
9.3e-13 for a pole.  With the DOP853 step they are 1.5e-11 for that cap
edge, 2.2e-12 in h for a floor edge (tanh c = -0.5), 1.6e-13 for a
numeric-family edge and 1.7e-13 for a pole (alpha = 0.5, h1 = 0.3,
forward).
"""

import json
import os

import pytest

from ewhorizon.nearhorizon import build_family
from ewhorizon.report import scan_c

with open(os.path.join(os.path.dirname(__file__), "reference",
                       "ode_references.json")) as _f:
    _REF = json.load(_f)

_CAP_RTOL = 1e-10
_FLOOR_H = 1e-11
_POLE_RTOL = 1e-10


def _assert_edge(got, ref, end, where):
    """got against the reference side `ref`, whose span ends at end."""
    want = float(ref["edge"])
    if ref["bound"] == "span":
        assert got == want == end, where
    elif ref["bound"] == "floor":
        assert abs(got - want) * abs(float(ref["slope"])) <= _FLOOR_H, \
            (where, got, want)
    else:
        assert abs(got - want) <= _CAP_RTOL * abs(want), (where, got, want)


def _status(sides):
    """A scan row's status from the bounds that end its sides."""
    bounds = {side["bound"] for side in sides.values()}
    return ("blowup" if "cap" in bounds
            else "guard" if "floor" in bounds else "ok")


@pytest.mark.parametrize("row", _REF["scan"], ids=[
    f"{r['seed']}-c{r['c']!r}" for r in _REF["scan"]])
def test_scan_c_benchmark_edges_match_the_references(row):
    (got,) = scan_c(row["c"], row["c"], 1, seed=row["seed"])
    c, status, x_start, x_end, periodic, period = got
    sides = row["sides"]
    assert (status, periodic, period) == (_status(sides), False, None)
    # x0 = 1 and span 6
    _assert_edge(x_end, sides["forward"], 7.0, "forward")
    _assert_edge(x_start, sides["backward"], -5.0, "backward")


@pytest.mark.parametrize("case", _REF["numeric"], ids=[
    json.dumps(c["params"]) for c in _REF["numeric"]])
def test_numeric_family_edges_and_poles_match_the_references(case):
    fam = build_family("numeric", **case["params"])
    p = fam.parameters
    for name, edge, end in (("forward", fam.window[1], p["x0"] + p["span"]),
                            ("backward", fam.window[0],
                             p["x0"] - p["span"])):
        ref = case["sides"][name]
        _assert_edge(edge, ref, end, name)
        status = "ok" if ref["bound"] == "span" else "guard"
        assert fam.info[f"status_{name}"] == status
        pole = fam.info[f"pole_{name}"]
        if "pole" in ref:
            want = float(ref["pole"])
            assert abs(pole - want) <= _POLE_RTOL * abs(want), (name, pole)
        else:
            assert pole is None
