"""Dispersionless-integrable side of the construction.

Two scalar PDEs certify the same geometry from the potential side:

* the dKP equation 2 (u_nu - u u_r)_r = u_xx, solved by
  u = -(r^2/2) wp(x + a; 0, b);
* the hyperCR equation H_x H_rr - H_r H_xr - H_xx + H_rnu = 0, with the
  six-parameter tanh^3 family and the quadratic potentials H = c h(x) r^2,
  whose Einstein-Weyl structures align with the tan-form metrics of the
  tanh profile h = (sqrt(c l)/c) tanh(sqrt(c l)(x + b)).

Every potential, structure and residual here also takes a PointBatch in
place of a Point, its points at one x or each at its own (as the grid
walker of `report` sends them), and then gives one value per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import MetricField, OneFormField
from .errors import DomainError
from .jets import ORDER, Jet1, Jet3, Point, jets_to
from .nearhorizon import ScalarField1D, tanh_profile
from .specfun import wp_jet

_NU, _R, _X = 0, 1, 2


@dataclass(frozen=True)
class PotentialField:
    """A scalar potential on (nu, r, x): evaluator Point -> Jet3."""

    evaluator: object
    label: str = ""

    def jets(self, p: Point) -> Jet3:
        return self.evaluator(p)


@dataclass(frozen=True)
class HyperCRParams:
    """Constants (a, b, e, j, k, l) of the tanh^3 hyperCR family."""

    a: float
    b: float
    e: float = 0.0
    j: float = 0.0
    k: float = 0.0
    l: float = 0.0

    def __post_init__(self):
        if self.b == 0.0:
            raise DomainError("HyperCRParams needs b != 0 "
                              "(a^2/b multiplies r in the phase)")


# --------------------------------------------------------------------------
# residuals
# --------------------------------------------------------------------------

def dkp_residual(u: PotentialField, p: Point) -> float:
    """2 (u_nu - u u_r)_r - u_xx, expanded by the product rule."""
    j = jets_to(lambda q: [u.jets(q)], p, 2)[0]
    # u_r * u_r, not u_r ** 2: a float's ** 2 is libm pow, which can
    # differ in the last bit from the square an array's ** 2 takes
    u_r = j.partial((0, 1, 0))
    return (2.0 * j.partial((1, 1, 0))
            - 2.0 * (u_r * u_r + j.value * j.partial((0, 2, 0)))
            - j.partial((0, 0, 2)))


def hypercr_residual(H: PotentialField, p: Point) -> float:
    """H_x H_rr - H_r H_xr - H_xx + H_rnu."""
    j = jets_to(lambda q: [H.jets(q)], p, 2)[0]
    return (j.partial((0, 0, 1)) * j.partial((0, 2, 0))
            - j.partial((0, 1, 0)) * j.partial((0, 1, 1))
            - j.partial((0, 0, 2)) + j.partial((1, 1, 0)))


# --------------------------------------------------------------------------
# solution families
# --------------------------------------------------------------------------

def wp_field(a: float, b: float) -> ScalarField1D:
    """The profile wp(x + a; 0, b) of x."""
    return ScalarField1D(lambda x: wp_jet(Jet1.variable(x) + a, b)[0],
                         label=f"wp[a={a:g},b={b:g}]")


def dkp_wp_potential(a: float, b: float) -> PotentialField:
    """u = -(r^2/2) wp(x + a; 0, b), the dKP solution behind the h = 0
    Einstein-Weyl structures."""
    wp = wp_field(a, b)

    def ev(p):
        rj = Jet3.variable(p, _R)
        return -0.5 * rj * rj * Jet3.from_axis_jet(wp.at(p.x), _X, p.order)

    return PotentialField(ev, label=f"dkp-wp[a={a:g},b={b:g}]")


def hypercr_tanh_family(params: HyperCRParams) -> PotentialField:
    """H = j tanh^3(w) + k tanh(w) + l on the phase
    w = (a^2/b) r + b nu + a x + e."""
    a, b, e = params.a, params.b, params.e
    cj, ck, cl = params.j, params.k, params.l

    def ev(p):
        w = ((a * a / b) * Jet3.variable(p, _R)
             + b * Jet3.variable(p, _NU)
             + a * Jet3.variable(p, _X) + e)
        t = w.tanh()
        return cj * t * t * t + ck * t + cl

    return PotentialField(ev, label="hypercr-tanh3")


def hr2_potential(c: float, h: ScalarField1D) -> PotentialField:
    """H = c h(x) r^2: the quadratic-in-r potentials whose hyperCR
    geometry restricts to X = c h dx on the r = 0 slice."""

    def ev(p):
        rj = Jet3.variable(p, _R)
        return c * Jet3.from_axis_jet(h.at(p.x), _X, p.order) * rj * rj

    return PotentialField(ev, label=f"hr2[{h.label};c={c:g}]")


# --------------------------------------------------------------------------
# geometric structures
# --------------------------------------------------------------------------

def hypercr_structures(H: PotentialField):
    """The pair (g, X) attached to a hyperCR potential:

        g = (dx + H_r dnu)^2 - 4 (dr - H_x dnu) dnu
        X = 1/2 H_rr dx + (1/2 H_r H_rr + H_xr) dnu

    Einstein-Weyl holds exactly when H solves the hyperCR equation.
    g reads H to one order more than its jets are asked for, and X to
    two more.
    """

    def gcomp(p):
        j = H.jets(p.at_order(min(p.order + 1, ORDER)))
        hr = j.d(_R)
        hx = j.d(_X)
        one, zero, mtwo = (Jet3.constant(v) for v in (1.0, 0.0, -2.0))
        return [[hr * hr + 4.0 * hx, mtwo, hr],
                [mtwo, zero, zero],
                [hr, zero, one]]

    def xcomp(p):
        j = H.jets(p.at_order(min(p.order + 2, ORDER)))
        hr = j.d(_R)
        hrr = hr.d(_R)
        return [0.5 * hr * hrr + j.d(_X).d(_R),
                Jet3.constant(0.0),
                0.5 * hrr]

    return (MetricField(gcomp, label=f"hypercr[{H.label}]"),
            OneFormField(xcomp, label=f"hypercr-X[{H.label}]"))


def prop4_structures(c: float, ell: float, b: float = 0.0):
    """The tan-form hyperCR Einstein-Weyl pair over the tanh profile:

        g = 2 dnu (dr - c h r dx + (r^2/2)(c h' + c^2 h^2) dnu) + dx^2
        X = c h dx - c r (c h^2 + h') dnu

    At c = -1 this is exactly the near-horizon metric with the same h
    and F = -h' + h^2.
    """
    h = tanh_profile(c, ell, b)

    def jets(p):
        """The jets of r, h and h' at p."""
        hj1 = h.at(p.x)
        return (Jet3.variable(p, _R), Jet3.from_axis_jet(hj1, _X, p.order),
                Jet3.from_axis_jet(hj1.d(), _X, p.order))

    def gcomp(p):
        rj, h3, hp3 = jets(p)
        one, zero = Jet3.constant(1.0), Jet3.constant(0.0)
        gnx = -c * h3 * rj
        return [[rj * rj * (c * hp3 + c * c * h3 * h3), one, gnx],
                [one, zero, zero],
                [gnx, zero, one]]

    def xcomp(p):
        rj, h3, hp3 = jets(p)
        return [-c * rj * (c * h3 * h3 + hp3),
                Jet3.constant(0.0),
                c * h3]

    lbl = f"prop4[c={c:g},ell={ell:g},b={b:g}]"
    return (MetricField(gcomp, label=lbl),
            OneFormField(xcomp, label=lbl + "-X"))


def alignment(c: float, ell: float, b: float):
    """alignment_defect(c, ell, b, .) as a function of the point (a
    Point, or a PointBatch for one defect per point), with both pairs
    built once."""
    g4, x4 = prop4_structures(c, ell, b)
    gh, xh = hypercr_structures(hr2_potential(c, tanh_profile(c, ell, b)))
    # the pullback r_old = -r/2 scales each r index by -1/2, exactly
    jac = (1.0, -0.5, 1.0)

    def defect(p):
        # it reads values only: jets of order 0
        p = p.at_order(0)
        q = type(p)(p.nu, -0.5 * p.r, p.x, 0)
        gq, gp, xq, xp = gh.jets(q), g4.jets(p), xh.jets(q), x4.jets(p)
        diffs = [jac[i] * gq[i][k].value * jac[k] - gp[i][k].value
                 for i in range(3) for k in range(3)]
        diffs += [jac[i] * xq[i].value - xp[i].value for i in range(3)]
        worst = np.max(np.abs(np.broadcast_arrays(*diffs)), axis=0)
        return worst if worst.ndim else float(worst)

    return defect


def alignment_defect(c: float, ell: float, b: float, p: Point) -> float:
    """Componentwise mismatch at p between the tan-form pair and the
    hyperCR pair of H = c h r^2 pulled back through r -> -r/2.

    The relabeling r_old = -r/2 carries (g, X) of hypercr_structures
    onto prop4_structures exactly; the defect is the max abs difference
    over all metric and 1-form components.
    """
    return alignment(c, ell, b)(p)
