"""Record high-precision references for the ODE edges and poles.

The scan-c benchmark rows (`ewh scan-c`, one c each: the quadratic seed
at 13 c on [-1, 2], the tanh seed at 13 c on [-2, 1], x0 = 1, span 6)
and the numeric family (at its defaults and at two other (alpha, c))
end each side where the integrated profile leaves its bounds.  This
script finds those edges, and the numeric family's poles, on solutions
computed by mpmath's Taylor-series solver `odefun` at 30 significant
digits, independently of `ewhorizon.odesolve`.  Only the initial data
come from the package: the seed family's float jet at x0, taken as
exact.

- A scan side runs the quartic in y = (h, h', h'', h''') and ends where
  1e-6 < |h| < 1e6 and |h'| < 1e8 first fails ("floor" for the first
  bound, "cap" for the others), or at x0 +- span.
- Each edge is recorded with h' there ("slope"), which scales the error
  in x that an error in h makes.
- A numeric-family side runs h'' = alpha h h' + beta h^3 and ends where
  |h| < 1e6 and |h'| < 1e8 first fails, or at x0 +- span.  Its pole is
  where h = 1/u reaches u = 0, found in the regular variables
  (x, u, p = h'/h^2; s) with ds = h dx, which stay polynomial there:
  dx/ds = u, du/ds = -p u, dp/ds = alpha p + beta - 2 p^2.

A side walks towards its end in steps of at most half the local scales
|h/h'| and |h/h''|^(1/2) (so it never steps past a pole or a zero of h),
and the crossing is then located on the solver's series by a bracketed
root.

Where a closed form exists it is recorded instead, and the solver's
value is checked against it (to 1e-15: the seed's float jet is the
closed form's only to rounding): h = x^2 solves the quartic at c = 1, so
quadratic c = 1 falls to the floor at x = 1e-3; h = -tanh x solves it at
c = -1, so that tanh row falls to it at atanh(1e-6); and at the numeric
family's defaults h'^2 = h^4 - 1, so its poles lie at +-B(1/4, 1/2)/4.

Run from the repository root (about nine minutes on one core):

    PYTHONPATH=src python tests/reference/record_references.py

It writes tests/reference/ode_references.json, which
tests/test_references.py reads.
"""

import json
import os
import sys
import time

import mpmath as mp

from ewhorizon.nearhorizon import build_family, reduction_consistency

mp.mp.dps = 30

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "ode_references.json")
X0, SPAN = 1.0, 6.0
FLOOR, H_CAP, DH_CAP = mp.mpf("1e-6"), mp.mpf("1e6"), mp.mpf("1e8")


def scan_values():
    """The scan-c benchmark's (seed, c), c as the benchmark forms it."""
    return [(seed, lo + (hi - lo) * i / 12)
            for seed, lo, hi in (("quadratic", -1.0, 2.0),
                                 ("tanh", -2.0, 1.0))
            for i in range(13)]


def quartic(c):
    """The quartic reduction ODE at c as y' = F(y), y = (h, ..., h''')."""
    cm = mp.mpf(c) - 1

    def rhs(y):
        h0, h1, h2, h3 = y
        top = (h0 ** 3 * h1 ** 2 * cm ** 2 - cm ** 2 * h0 ** 4 * h2 / 2
               + 9 * cm * h0 ** 2 * h1 * h2 / 4 - 3 * cm * h0 ** 3 * h3 / 4
               - h1 ** 2 * h2 / 2 + h0 * h1 * h3 / 2 + h0 * h2 ** 2)
        return [h1, h2, h3, 4 * top / h0 ** 2]

    return rhs


def reduction(alpha, beta):
    """h'' = alpha h h' + beta h^3 as y' = F(y), y = (h, h')."""
    alpha, beta = mp.mpf(alpha), mp.mpf(beta)
    return lambda y: [y[1], alpha * y[0] * y[1] + beta * y[0] ** 3]


def failing(y, floor):
    """The bounds the state y = (h, h', ...) breaks, by name."""
    h, dh = abs(y[0]), abs(y[1])
    return ([] if floor is None or h > floor else ["floor"]) + \
        (["cap"] if h >= H_CAP or dh >= DH_CAP else [])


def margin(y, name, floor):
    """Positive while the bound `name` holds, 0 on it."""
    h, dh = abs(y[0]), abs(y[1])
    if name == "floor":
        return mp.log(h / floor)
    return min(mp.log(H_CAP / h), mp.log(DH_CAP / dh))


def side(rhs, x0, y0, x_end, floor):
    """Walk y' = rhs(y) from (x0, y0) towards x_end.  Returns
    (edge, bound that ends it: "floor", "cap" or "span", the solution as
    a function of the distance t = |x - x0|)."""
    d = 1 if x_end > x0 else -1
    sol = mp.odefun(lambda t, y: [d * v for v in rhs(y)], 0,
                    [mp.mpf(v) for v in y0])
    total = mp.mpf(abs(x_end - x0))
    t = mp.mpf(0)
    while True:
        y = sol(t)
        h, dh = y[0], y[1]
        d2 = rhs(y)[1]
        step = min(mp.mpf("0.05"), total - t,
                   abs(h / dh) / 2 if dh else mp.inf,
                   mp.sqrt(abs(h / d2)) / 2 if d2 else mp.inf)
        t_next = t + step
        broken = failing(sol(t_next), floor)
        if broken:
            roots = [mp.findroot(lambda s, n=n: margin(sol(s), n, floor),
                                 (t, t_next), solver="anderson")
                     for n in broken]
            t_edge, name = min(zip(roots, broken))
            return x0 + d * t_edge, name, sol
        if t_next >= total:
            return mp.mpf(x_end), "span", sol
        t = t_next


def pole(alpha, beta, x, y, d):
    """The pole beyond the state (x, (h, h')), |h| large, in the
    direction d of x: integrate the regular (x, u, p; s) system until
    |u| < 1e-32, where the pole lies within about |u| of x + u/p."""
    alpha, beta = mp.mpf(alpha), mp.mpf(beta)
    h, dh = y
    sgn = d * mp.sign(h)  # ds = h dx, so s runs with the sign of d h

    def rhs(s, z):
        x_, u, p = z
        return [sgn * u, -sgn * p * u, sgn * (alpha * p + beta - 2 * p * p)]

    sol = mp.odefun(rhs, 0, [mp.mpf(x), 1 / mp.mpf(h), mp.mpf(dh) / h ** 2])
    s = mp.mpf(0)
    while True:
        s += 1
        xs, u, p = sol(s)
        if abs(u) < mp.mpf("1e-32"):
            return xs + u / p


def scan_rows():
    rows = []
    for seed, c in scan_values():
        jet = build_family(seed).field(X0)
        y0 = [jet.derivative(k) for k in range(4)]
        row = {"seed": seed, "c": c, "sides": {}}
        for name, x_end in (("forward", X0 + SPAN), ("backward", X0 - SPAN)):
            t0 = time.time()
            edge, bound, sol = side(quartic(c), X0, y0, x_end, FLOOR)
            entry = {"edge": mp.nstr(edge, 25), "bound": bound,
                     "slope": mp.nstr(sol(abs(edge - X0))[1], 10)}
            closed = closed_form(seed, c, name)
            if closed is not None:
                # the seed's float data solve the closed form's equation to
                # about 1e-16, which moves the edge by about as much
                assert abs(edge - closed) <= mp.mpf("1e-15"), \
                    (seed, c, name, edge, closed)
                entry.update(edge=mp.nstr(closed, 25), closed_form=True)
            row["sides"][name] = entry
            print(f"{seed} c={c!r} {name}: {entry} "
                  f"({time.time() - t0:.1f} s)", file=sys.stderr)
        rows.append(row)
    return rows


def closed_form(seed, c, side_name):
    if (seed, c, side_name) == ("quadratic", 1.0, "backward"):
        return mp.mpf("1e-3")  # h = x^2 reaches 1e-6
    if (seed, c, side_name) == ("tanh", -1.0, "backward"):
        return mp.atanh(mp.mpf("1e-6"))  # h = -tanh x reaches -1e-6
    return None


# the numeric family's defaults and two more parameter sets with a pole
# on each side
NUMERIC_CASES = [{}, {"c": 3.0, "h1": 1.0}, {"alpha": 0.5, "h1": 0.3}]


def numeric_family():
    out = []
    for params in NUMERIC_CASES:
        p = build_family("numeric", **params).parameters
        alpha, c, x0 = p["alpha"], p["c"], p["x0"]
        beta = reduction_consistency(alpha, c)
        case = {"params": params, "sides": {}}
        for name, x_end in (("forward", x0 + p["span"]),
                            ("backward", x0 - p["span"])):
            t0 = time.time()
            edge, bound, sol = side(reduction(alpha, beta), x0,
                                    [p["h0"], p["h1"]], x_end, None)
            entry = {"edge": mp.nstr(edge, 25), "bound": bound,
                     "slope": mp.nstr(sol(abs(edge - x0))[1], 10)}
            if bound == "cap":
                x_pole = pole(alpha, beta, edge, sol(abs(edge - x0)),
                              1 if x_end > x0 else -1)
                if not params:
                    # h'^2 = h^4 - 1: the poles at +-B(1/4, 1/2)/4
                    closed = mp.beta(0.25, 0.5) / 4 * (1 if x_end > x0
                                                       else -1)
                    assert abs(x_pole - closed) <= mp.mpf("1e-20"), \
                        (x_pole, closed)
                    x_pole = closed
                entry["pole"] = mp.nstr(x_pole, 25)
            case["sides"][name] = entry
            print(f"numeric {params} {name}: {entry} "
                  f"({time.time() - t0:.1f} s)", file=sys.stderr)
        out.append(case)
    return out


def main():
    data = {
        "about": ("mpmath odefun references at 30 digits for the scan-c "
                  "benchmark rows and the numeric family; written by "
                  "tests/reference/record_references.py"),
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "numeric": numeric_family(),
        "scan": scan_rows(),
    }
    with open(OUT, "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
