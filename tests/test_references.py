"""ODE edges and poles, and the integral-defined profiles, against
high-precision references.

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

`tests/reference/profile_references.json` holds, from the same script's
`--profiles` section (which runs in seconds, and which CI re-records and
compares), the thm1 window edges and the hypergeometric family's z(x)
at its window edges and at 5 x inside, at 30 digits.  Both profiles come
from one DOP853 solve at rtol 1e-13: G' = e^{H/2} for thm1 and
dz/dx = 2 sqrt(z) (1 - z)^(3/4) / pref for the hypergeometric family.

- a window edge lies within 1e-12 max(1, |x|) of its reference (the thm1
  edges are checked by `test_thm1_window_edges_are_pinned` in
  tests/test_nearhorizon.py);
- z lies within 1e-13 of its reference, read back from the profile
  h = (gamma / beta^(1/4)) (1 - z)^(-1/4).

Measured when these were added: 2.8e-15 for a thm1 edge, 4.4e-16 for a
hypergeometric edge and 9.4e-15 for z.
"""

import json
import os

import pytest

from ewhorizon.nearhorizon import build_family
from ewhorizon.report import scan_c

with open(os.path.join(os.path.dirname(__file__), "reference",
                       "ode_references.json")) as _f:
    _REF = json.load(_f)

with open(os.path.join(os.path.dirname(__file__), "reference",
                       "profile_references.json")) as _f:
    _PROFILE_REF = json.load(_f)

_CAP_RTOL = 1e-10
_FLOOR_H = 1e-11
_POLE_RTOL = 1e-10
_EDGE_TOL = 1e-12  # times max(1, |x|)
_Z_TOL = 1e-13


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


@pytest.mark.parametrize("case", _PROFILE_REF["hypergeometric"], ids=[
    json.dumps(c["params"]) for c in _PROFILE_REF["hypergeometric"]])
def test_hypergeometric_z_matches_the_references(case):
    fam = build_family("hypergeometric", **case["params"])
    p = fam.parameters
    scale = p["gamma"] / p["beta"] ** 0.25
    edges = [fam.window[0 if p["gamma"] > 0.0 else 1],
             fam.window[1 if p["gamma"] > 0.0 else 0]]  # x(z_lo), x(z_hi)
    for got, ref in zip(edges, case["edges"]):
        want = float(ref["x"])
        assert abs(got - want) <= _EDGE_TOL * max(1.0, abs(want)), \
            (got, ref)
    for x, ref in zip(edges + [float(q["x"]) for q in case["points"]],
                      case["edges"] + case["points"]):
        z = 1.0 - (scale / fam.field(x).value) ** 4
        assert abs(z - float(ref["z"])) <= _Z_TOL, (x, z, ref)
