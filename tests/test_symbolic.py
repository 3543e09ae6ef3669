"""The Einstein-Weyl reduction the code certifies, derived symbolically.

sympy derives the trace-free Einstein-Weyl tensor E of the near-horizon
ansatz

    g = r^2 F dnu^2 + 2 dnu dr + 2 r h dnu dx + dx^2,
    X = c h dx + r ((2c+1) h' + c (2c+1) h^2 - 2F) dnu,

in the conventions of curvature.py, with h(x), F(x) and c symbolic.  The
package's own formulas, evaluated on sympy symbols, must match it:

* only E_nunu and E_nux are nonzero;
* E_nux = r (2c+1) (h'' + 4c h h' + 2c^2 h^3 - 2F h) / 2, and F_from_h is
  the one F that kills it (c != -1/2);
* with that F, E_nunu = r^2 Q / h^3, where Q is the quartic: the sum of
  ode4_monomials plus -h^2 h''''/4;
* at c = -1/2, E_nux vanishes identically and E_nunu is r^2/4 times
  F_ode_residual_chalf.

It also derives both reductions, h'' = alpha h h' + beta h^3 and the
quartic, in the scaling variables u = 1/h, p_k = h^(k)/h^(k+1) and s
with ds = h dx, in which the numeric family and scan-c integrate toward
a pole (`_tail_rhs`): every monomial of the quartic has weight 7, so
the generic tail, built from the x-rhs at h = 1, is each one's
polynomial p-system.  The self-similar pole h = a0/(x - x*) is an
equilibrium of the reduction's p equation.
"""

import pytest

from ewhorizon.nearhorizon import (_ODE4_TERMS, F_from_h,
                                   F_ode_residual_chalf, _ode2_rhs,
                                   _tail_rhs, ode4_monomials, ode4_residual,
                                   ode4_rhs, ode2_residual)

sp = pytest.importorskip("sympy")

nu, r, x, c = sp.symbols("nu r x c")
h = sp.Function("h")(x)
F = sp.Function("F")(x)
COORDS = (nu, r, x)
NU, X_ = 0, 2


class _SymJet:
    """A profile jet whose value and derivatives are sympy expressions in
    x: what the package's jet readers (value, derivative(k)) see."""

    def __init__(self, f):
        self.value = f

    def derivative(self, k):
        return self.value.diff(x, k)


def _exact(expr):
    """The package writes its constants as floats (0.5, 2.25, ...); they
    are exact binary fractions, so they convert to rationals exactly."""
    return sp.nsimplify(expr, rational=True)


def _zero(expr) -> bool:
    return sp.simplify(sp.expand(expr)) == 0


@pytest.fixture(scope="module")
def E():
    """The trace-free part of nabla_(a X_b) + X_a X_b + P_ab."""
    g = sp.Matrix([[r**2 * F, 1, r * h], [1, 0, 0], [r * h, 0, 1]])
    gi = g.inv()
    one_form = [r * ((2 * c + 1) * h.diff(x) + c * (2 * c + 1) * h**2
                     - 2 * F), sp.S(0), c * h]
    n = range(3)
    gam = [[[sum(gi[a, d] * (g[d, k].diff(COORDS[b])
                             + g[d, b].diff(COORDS[k])
                             - g[b, k].diff(COORDS[d])) for d in n) / 2
             for k in n] for b in n] for a in n]
    ric = sp.Matrix(3, 3, lambda b, d: (
        sum(gam[a][d][b].diff(COORDS[a]) - gam[a][a][b].diff(COORDS[d])
            for a in n)
        + sum(gam[a][a][e] * gam[e][d][b] - gam[a][d][e] * gam[e][a][b]
              for a in n for e in n)))
    scalar = sum(gi[a, b] * ric[a, b] for a in n for b in n)
    t = sp.Matrix(3, 3, lambda a, b: (
        (one_form[b].diff(COORDS[a]) + one_form[a].diff(COORDS[b])) / 2
        - sum(gam[e][a][b] * one_form[e] for e in n)
        + one_form[a] * one_form[b] + ric[a, b] - scalar / 4 * g[a, b]))
    trace = sum(gi[a, b] * t[a, b] for a in n for b in n)
    return (t - trace / 3 * g).applyfunc(sp.expand)


def _package_F():
    """F_from_h on a symbolic h.  Its |h| floor must decide on symbols,
    so it sees h = 1 + s with s > 0, and s = h - 1 is put back after: an
    identity of rational functions of (h, h', h'') on h > 1 holds
    everywhere."""
    s = sp.Function("s", positive=True)(x)
    Fs = F_from_h(lambda _: _SymJet(1 + s), c, x)
    return _exact(Fs).subs(s, h - 1).doit()


def test_only_the_nunu_and_nux_components_are_nonzero(E):
    for a in range(3):
        for b in range(3):
            nonzero = {a, b} in ({NU}, {NU, X_})
            assert (E[a, b] != 0) == nonzero, (a, b)
    assert E == E.T


def test_F_from_h_is_the_F_that_kills_E_nux(E):
    h1, h2 = h.diff(x), h.diff(x, 2)
    assert _zero(E[NU, X_] - r * (2 * c + 1) * (
        h2 + 4 * c * h * h1 + 2 * c**2 * h**3 - 2 * F * h) / 2)
    assert _zero(E[NU, X_].subs(F, _package_F()))
    # linear in F with coefficient -r (2c+1) h: for c != -1/2 the root
    # is unique
    assert _zero(E[NU, X_].diff(F) + r * (2 * c + 1) * h)


def test_E_nunu_with_F_from_h_is_the_quartic(E):
    d = [h.diff(x, k) for k in range(5)]
    quartic = _exact(sum(ode4_monomials(*d[:4], c))) - d[0]**2 * d[4] / 4
    assert _zero(_exact(ode4_residual(_SymJet(h), c)) - quartic)
    e_nunu = E[NU, NU].subs(F, _package_F()).doit()
    assert _zero(e_nunu * h**3 / r**2 - quartic)


def test_c_minus_half_leaves_only_the_F_equation(E):
    half = sp.Rational(-1, 2)
    assert _zero(E[NU, X_].subs(c, half))
    chalf = _exact(F_ode_residual_chalf(_SymJet(F), _SymJet(h)))
    assert _zero(E[NU, NU].subs(c, half) - r**2 / 4 * chalf)


alpha, beta, a0, x_pole = sp.symbols("alpha beta a0 x_pole")


def _on_reduction(expr):
    """expr with h'' replaced through h'' = alpha h h' + beta h^3."""
    h2 = _exact(-ode2_residual(_SymJet(h), alpha, beta)) + h.diff(x, 2)
    return expr.subs(h.diff(x, 2), h2)


def test_the_tail_system_follows_from_the_reduction():
    u, p = 1 / h, h.diff(x) / h**2
    d_ds = lambda f: f.diff(x) / h  # ds = h dx
    tail = _tail_rhs(_ode2_rhs(alpha, beta), 2)
    want = [_exact(v) for v in tail(None, [x, u, p])]
    got = [d_ds(x), d_ds(u), _on_reduction(d_ds(p))]
    for g, w in zip(got, want):
        assert _zero(g - w)


def test_the_self_similar_pole_is_an_equilibrium_of_p():
    # h = a0/(x - x*) solves the reduction where beta a0^2 - alpha a0 = 2;
    # there p = -1/a0 is constant, a root of 2 p^2 - alpha p - beta, and
    # x + u/p is the pole itself
    pole = a0 / (x - x_pole)
    condition = beta * a0**2 - alpha * a0 - 2
    on_it = {beta: sp.solve(condition, beta)[0]}
    residual = pole.diff(x, 2) - alpha * pole * pole.diff(x) - beta * pole**3
    assert _zero(residual * (x - x_pole)**3 / a0 + condition)
    u, p = 1 / pole, sp.simplify(pole.diff(x) / pole**2)
    assert p == -1 / a0
    dp = _exact(_tail_rhs(_ode2_rhs(alpha, beta), 2)(None, [x, u, p])[2])
    assert _zero(dp.subs(on_it))
    assert _zero((2 * p**2 - alpha * p - beta).subs(on_it))
    assert _zero(x + u / p - x_pole)


def test_every_quartic_monomial_has_weight_7():
    # h and d/dx of weight 1: h^(k) has weight k + 1, and each monomial
    # scales by lam^7 under h^(k) -> lam^(k+1) h^(k)
    lam, cm = sp.symbols("lam cm")
    hs = sp.symbols("h0:4")

    def term(expr, scale):
        d = {f"h{k}": scale ** (k + 1) * hs[k] for k in range(4)}
        d.update(cm=cm, cm2=cm**2, h0_3=d["h0"]**3, h1_2=d["h1"]**2)
        return _exact(eval(expr, {}, d))

    assert len(_ODE4_TERMS) == 7
    for expr in _ODE4_TERMS:
        assert _zero(term(expr, lam) - lam**7 * term(expr, 1)), expr


def _on_quartic(expr):
    """expr with h replaced through the quartic, h = 4 (the sum
    of ode4_monomials) / h^2."""
    d = [h.diff(x, k) for k in range(4)]
    h4 = 4 * _exact(sum(ode4_monomials(*d, c))) / h**2
    return expr.subs(h.diff(x, 4), h4)


def test_the_quartic_tail_system_follows_from_the_quartic():
    u = 1 / h
    ps = [h.diff(x, k) / h**(k + 1) for k in (1, 2, 3)]
    d_ds = lambda f: f.diff(x) / h  # ds = h dx
    want = [_exact(v) for v in _tail_rhs(ode4_rhs(c), 4)(None, [x, u, *ps])]
    got = [d_ds(x), d_ds(u), *(_on_quartic(d_ds(p)) for p in ps)]
    for g, w in zip(got, want):
        assert _zero(g - w)


def test_the_generic_tail_is_both_p_systems():
    # the tail built from each x-rhs at h = 1 is the polynomial system:
    # dp/ds = beta + alpha p - 2 p^2 on the reduction; dp_k/ds =
    # p_(k+1) - (k+1) p_1 p_k with p_4 the quartic at h = 1
    u, p1, p2, p3 = sp.symbols("u p1 p2 p3")
    reduction = [_exact(v) for v in
                 _tail_rhs(_ode2_rhs(alpha, beta), 2)(None, [x, u, p1])]
    assert reduction == [u, -p1 * u, sp.expand(beta + alpha * p1
                                               - 2 * p1**2)]
    cm = c - 1
    p4 = (4 * cm**2 * p1**2 - 2 * cm**2 * p2 + 9 * cm * p1 * p2
          - 3 * cm * p3 - 2 * p1**2 * p2 + 2 * p1 * p3 + 4 * p2**2)
    quartic = [_exact(v) for v in
               _tail_rhs(ode4_rhs(c), 4)(None, [x, u, p1, p2, p3])]
    want = [u, -p1 * u, p2 - 2 * p1**2, p3 - 3 * p1 * p2, p4 - 4 * p1 * p3]
    for g, w in zip(quartic, want):
        assert _zero(g - w)
