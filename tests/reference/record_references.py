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

A second section, run by itself in seconds, records the profiles that
`ewhorizon` defines through an integral and solves by one dense
integration:

- the window edges of the Weierstrass construction F = e^H wp(G + a; 0, b)
  (`thm1_F_field`, x0 = 0) at six (h, a, b): the x where
  G = int_0^x e^{H/2} reaches an end of the pole-free cell of wp that
  holds a, inset by 0.3, or "inf" / "-inf" where G does not reach it
  within 1000 of x0.  The real period of wp(.; 0, b) is
  2 int_0^inf ds / sqrt(s^4 + 3 e s^2 + 3 e^2), e^3 = b/4, and G is in
  closed form for h = 0, 1 and x (through erfi) and a quadrature for
  h = sin;
- the hypergeometric family's z(x), the inverse of
  x(z) = pref sqrt(z) 2F1(1/2, 3/4; 3/2; z) + b, at its window edges
  x(z_lo) and x(z_hi) and at 5 x inside, for each parameter set of
  tests/test_families_abel.py.

    PYTHONPATH=src python tests/reference/record_references.py --profiles

writes tests/reference/profile_references.json (`--out` names another
file).
"""

import argparse
import json
import os
import sys
import time

import mpmath as mp

from ewhorizon.nearhorizon import build_family, reduction_consistency

mp.mp.dps = 30

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "ode_references.json")
PROFILES_OUT = os.path.join(HERE, "profile_references.json")
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


# (h, a, b) of the thm1 windows: both edges reached, b = 0 (an infinite
# edge), b < 0, one edge never reached (h = 1 backward: G > -2), and a
# cell to one side of a
THM1_CASES = [("sin", 0.1, 1.0), ("one", 0.1, 1.0), ("linear", 0.7, 0.0),
              ("sin", 0.5, -1.0), ("one", 3.0, 1.0), ("sin", 2.3, 2.0)]
THM1_MARGIN, THM1_REACH = mp.mpf(0.3), 1000


def wp_real_period(b):
    e = mp.sign(b) * mp.cbrt(abs(b) / 4)
    return 2 * mp.quad(lambda s: 1 / mp.sqrt(s ** 4 + 3 * e * s * s
                                             + 3 * e * e),
                       [0, 0.5, 1, 2, 4, mp.inf])


def thm1_G(h):
    """G(x) = int_0^x e^{H/2}, H = int_0^x h."""
    if h == "zero":
        return lambda x: x
    if h == "one":
        return lambda x: 2 * (mp.exp(x / 2) - 1)
    if h == "linear":
        return lambda x: mp.sqrt(mp.pi) * mp.erfi(x / 2)
    return lambda x: mp.quad(lambda t: mp.exp((1 - mp.cos(t)) / 2), [0, x])


def thm1_edge(G, target):
    """The x where G reaches target, or +-inf beyond x0 +- 1000."""
    d = 1 if target > 0 else -1
    x = mp.mpf(0)
    while abs(x) < THM1_REACH:
        x_next = x + d * mp.mpf(0.5)
        if (G(x_next) - target) * d >= 0:
            return mp.findroot(lambda t: G(t) - target, (x, x_next),
                               solver="anderson")
        x = x_next
    return d * mp.inf


def thm1_windows():
    out = []
    for h, a, b in THM1_CASES:
        a_mp, b_mp = mp.mpf(a), mp.mpf(b)
        if b == 0.0:
            cell = (THM1_MARGIN - a_mp, mp.inf)
        else:
            T = wp_real_period(b_mp)
            k = mp.floor(a_mp / T)
            cell = (k * T - a_mp + THM1_MARGIN,
                    (k + 1) * T - a_mp - THM1_MARGIN)
        G = thm1_G(h)
        window = [str(g) if mp.isinf(g) else
                  mp.nstr(thm1_edge(G, g), 25) for g in cell]
        window = [{"+inf": "inf"}.get(e, e) for e in window]
        print(f"thm1 h={h} a={a} b={b}: {window}", file=sys.stderr)
        out.append({"h": h, "a": a, "b": b, "x0": 0.0, "window": window})
    return out


# the parameter sets of tests/test_families_abel.py
HYPERGEOMETRIC_CASES = [{}, {"gamma": -1.3, "beta": 0.5, "b": 0.2},
                        {"gamma": 2.0, "beta": 8.0, "z_lo": 0.1,
                         "z_hi": 0.95}, {"z_hi": 0.999}]
HYPERGEOMETRIC_AT = (0.1, 0.3, 0.5, 0.7, 0.9)  # of the window, from x_lo


def hypergeometric_z():
    out = []
    for params in HYPERGEOMETRIC_CASES:
        p = {k: mp.mpf(v) for k, v in
             build_family("hypergeometric", **params).parameters.items()}
        pref = mp.sqrt(2) / (2 * p["gamma"] * p["beta"] ** mp.mpf(0.25))

        def x_of_z(z):
            return pref * mp.sqrt(z) * mp.hyp2f1(0.5, 0.75, 1.5, z) + p["b"]

        x_lo, x_hi = x_of_z(p["z_lo"]), x_of_z(p["z_hi"])
        points = []
        for f in HYPERGEOMETRIC_AT:
            x = float(x_lo + (x_hi - x_lo) * f)  # a float the test reads at
            z = mp.findroot(lambda t: x_of_z(t) - x, (p["z_lo"], p["z_hi"]),
                            solver="anderson")
            points.append({"x": repr(x), "z": mp.nstr(z, 25)})
        case = {"params": params,
                "edges": [{"x": mp.nstr(x_lo, 25), "z": repr(float(p["z_lo"]))},
                          {"x": mp.nstr(x_hi, 25), "z": repr(float(p["z_hi"]))}],
                "points": points}
        print(f"hypergeometric {params}: {case}", file=sys.stderr)
        out.append(case)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--profiles", action="store_true",
                    help="record the integral-defined profiles' section")
    ap.add_argument("--out", help="the file to write")
    args = ap.parse_args()
    if args.profiles:
        data = {
            "about": ("mpmath references at 30 digits for the thm1 window "
                      "edges and the hypergeometric family's z(x); written "
                      "by tests/reference/record_references.py --profiles"),
            "mpmath": mp.__version__,
            "dps": mp.mp.dps,
            "thm1": thm1_windows(),
            "hypergeometric": hypergeometric_z(),
        }
    else:
        data = {
            "about": ("mpmath odefun references at 30 digits for the scan-c "
                      "benchmark rows and the numeric family; written by "
                      "tests/reference/record_references.py"),
            "mpmath": mp.__version__,
            "dps": mp.mp.dps,
            "numeric": numeric_family(),
            "scan": scan_rows(),
        }
    with open(args.out or (PROFILES_OUT if args.profiles else OUT), "w") as f:
        json.dump(data, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
