"""Curvature and Einstein-Weyl residuals for 3-metrics in (nu, r, x).

Metric and 1-form components are supplied as functions of a Point
returning Jet3 values; the jets carry exact partial derivatives to
order 4, and everything here (Christoffel symbols, Ricci, Schouten,
Cotton, the trace-free Einstein-Weyl residual) is assembled from those
numeric partials with plain numpy contractions.

Conventions, fixed once and validated end-to-end by the closed-form
structure checks:

    Gamma^a_bc = 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
    R_bd       = d_a Gamma^a_db - d_d Gamma^a_ab
                 + Gamma^a_ae Gamma^e_db - Gamma^a_de Gamma^e_ab
    P_ab       = R_ab - (R/4) g_ab          (Schouten, 3 dimensions)
    C_abc      = nabla_c P_ab - nabla_b P_ac (Cotton, all indices down)

The Einstein-Weyl equation nabla_(a X_b) + X_a X_b + P_ab = Lambda g_ab
is tested through its trace-free part, which eliminates Lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetricError
from .jets import AXES, stacked_partials

_DET_FLOOR = 1e-12

@dataclass(frozen=True)
class MetricField:
    """A metric whose components evaluate to Jet3 values at a Point.

    `components(p)` must return a 3x3 nested sequence of Jet3, exactly
    symmetric, ordered (nu, r, x).
    """

    components: object  # callable Point -> 3x3 of Jet3
    label: str = ""

    def jets(self, p):
        m = self.components(p)
        out = [[m[a][b] for b in range(3)] for a in range(3)]
        for a in range(3):
            for b in range(a + 1, 3):
                if not np.array_equal(out[a][b].coeffs, out[b][a].coeffs):
                    raise ValueError(
                        f"metric {self.label!r} not symmetric in "
                        f"({AXES[a]}, {AXES[b]}) at {p}")
        return out


@dataclass(frozen=True)
class OneFormField:
    """A 1-form whose components evaluate to Jet3 values at a Point."""

    components: object  # callable Point -> 3-sequence of Jet3
    label: str = ""

    def jets(self, p):
        return list(self.components(p))


@dataclass(frozen=True)
class CurvaturePack:
    """All curvature data of a metric at one point, as numeric arrays."""

    christoffel: np.ndarray  # Gamma^a_bc, shape (3,3,3)
    ricci: np.ndarray        # R_ab
    scalar: float            # R
    schouten: np.ndarray     # P_ab
    cotton: np.ndarray       # C_abc, antisymmetric in (b,c)


class _Assembly:
    """Partial-derivative arrays of one metric evaluation, with curvature."""

    __slots__ = ("g0", "g1", "g2", "ginv0", "ginv1", "s0", "s1", "gamma0",
                 "gamma1", "ric0", "scal0", "p0", "_coeffs")

    def __init__(self, g_jets, label=""):
        # Taylor coefficients stacked as (N3, 3, 3); gN[d1..dN, a, b] is
        # d_d1 ... d_dN g_ab
        self._coeffs = np.moveaxis(
            np.array([[g.coeffs for g in row] for row in g_jets]), -1, 0)
        self.g0 = stacked_partials(self._coeffs, 0)
        det = np.linalg.det(self.g0)
        if abs(det) <= _DET_FLOOR:
            raise DegenerateMetricError(
                f"metric {label!r} degenerate: |det g| = {abs(det)!r}")
        self.g1 = stacked_partials(self._coeffs, 1)
        self.g2 = stacked_partials(self._coeffs, 2)
        self.ginv0 = np.linalg.inv(self.g0)
        self.ginv1 = -np.einsum("ae,deh,hb->dab", self.ginv0, self.g1,
                                self.ginv0)

        # S0[d,b,c] = d_b g_dc + d_c g_db - d_d g_bc  (symmetric in b,c)
        self.s0 = (np.einsum("bdc->dbc", self.g1)
                   + np.einsum("cdb->dbc", self.g1) - self.g1)
        # S1[e,d,b,c] = d_e S0[d,b,c]
        self.s1 = (np.einsum("ebdc->edbc", self.g2)
                   + np.einsum("ecdb->edbc", self.g2) - self.g2)
        self.gamma0 = 0.5 * np.einsum("ad,dbc->abc", self.ginv0, self.s0)
        self.gamma1 = 0.5 * (np.einsum("ead,dbc->eabc", self.ginv1, self.s0)
                             + np.einsum("ad,edbc->eabc", self.ginv0, self.s1))

        self.ric0 = (np.einsum("aadb->bd", self.gamma1)
                     - np.einsum("daab->bd", self.gamma1)
                     + np.einsum("aae,edb->bd", self.gamma0, self.gamma0)
                     - np.einsum("ade,eab->bd", self.gamma0, self.gamma0))
        self.scal0 = float(np.einsum("bd,bd->", self.ginv0, self.ric0))
        self.p0 = self.ric0 - 0.25 * self.scal0 * self.g0

    def cotton(self):
        """C_abc; needs third metric partials, extracted on demand."""
        g3 = stacked_partials(self._coeffs, 3)
        ginv2 = -(np.einsum("cae,deh,hb->cdab", self.ginv1, self.g1, self.ginv0)
                  + np.einsum("ae,cdeh,hb->cdab", self.ginv0, self.g2,
                              self.ginv0)
                  + np.einsum("ae,deh,chb->cdab", self.ginv0, self.g1,
                              self.ginv1))

        s2 = (np.einsum("febdc->fedbc", g3) + np.einsum("fecdb->fedbc", g3)
              - g3)
        gamma2 = 0.5 * (np.einsum("fead,dbc->feabc", ginv2, self.s0)
                        + np.einsum("ead,fdbc->feabc", self.ginv1, self.s1)
                        + np.einsum("fad,edbc->feabc", self.ginv1, self.s1)
                        + np.einsum("ad,fedbc->feabc", self.ginv0, s2))

        ric1 = (np.einsum("caadb->cbd", gamma2)
                - np.einsum("cdaab->cbd", gamma2)
                + np.einsum("caae,edb->cbd", self.gamma1, self.gamma0)
                + np.einsum("aae,cedb->cbd", self.gamma0, self.gamma1)
                - np.einsum("cade,eab->cbd", self.gamma1, self.gamma0)
                - np.einsum("ade,ceab->cbd", self.gamma0, self.gamma1))
        scal1 = (np.einsum("cbd,bd->c", self.ginv1, self.ric0)
                 + np.einsum("bd,cbd->c", self.ginv0, ric1))
        p1 = (ric1 - 0.25 * np.einsum("c,ab->cab", scal1, self.g0)
              - 0.25 * self.scal0 * self.g1)

        return (np.einsum("cab->abc", p1) - np.einsum("bac->abc", p1)
                - np.einsum("eca,eb->abc", self.gamma0, self.p0)
                + np.einsum("eba,ec->abc", self.gamma0, self.p0))


def christoffel(g: MetricField, p) -> np.ndarray:
    """Gamma^a_bc of g at p, shape (3,3,3), symmetric in (b,c)."""
    return _Assembly(g.jets(p), g.label).gamma0


def ricci_scalar_schouten(g: MetricField, p):
    """(R_ab, R, P_ab) of g at p."""
    asm = _Assembly(g.jets(p), g.label)
    return asm.ric0, asm.scal0, asm.p0


def cotton(g: MetricField, p) -> np.ndarray:
    """Cotton tensor C_abc = nabla_c P_ab - nabla_b P_ac at p."""
    return _Assembly(g.jets(p), g.label).cotton()


def curvature_pack(g: MetricField, p) -> CurvaturePack:
    """Every curvature quantity of g at p in one evaluation."""
    asm = _Assembly(g.jets(p), g.label)
    return CurvaturePack(christoffel=asm.gamma0, ricci=asm.ric0,
                         scalar=asm.scal0, schouten=asm.p0,
                         cotton=asm.cotton())


def _oneform_partials(x_jets):
    coeffs = np.array([x.coeffs for x in x_jets]).T
    # x1[a,b] = d_a X_b
    return stacked_partials(coeffs, 0), stacked_partials(coeffs, 1)


def ew_residual(g: MetricField, X: OneFormField, p) -> np.ndarray:
    """Trace-free part of nabla_(a X_b) + X_a X_b + P_ab at p.

    The zero locus of the returned symmetric 3x3 array is exactly the
    Einstein-Weyl condition; projecting out the g-trace removes the
    Lambda term.
    """
    asm = _Assembly(g.jets(p), g.label)
    x0, x1 = _oneform_partials(X.jets(p))
    covsym = 0.5 * (x1 + x1.T) - np.einsum("eab,e->ab", asm.gamma0, x0)
    t = covsym + np.outer(x0, x0) + asm.p0
    trace = float(np.einsum("ab,ab->", asm.ginv0, t))
    return t - (trace / 3.0) * asm.g0


def faraday(X: OneFormField, p) -> np.ndarray:
    """(dX)_ab = d_a X_b - d_b X_a at p, antisymmetric 3x3."""
    _, x1 = _oneform_partials(X.jets(p))
    return x1 - x1.T


def conformal_rescale(g: MetricField, X: OneFormField, ln_omega):
    """Gauge transform (g, X) -> (Omega^2 g, X + d ln Omega).

    `ln_omega` is a callable Point -> Jet3 of the smooth function
    ln Omega; the Weyl structure represented by the pair is unchanged.
    """

    def new_metric(p):
        w = (2.0 * ln_omega(p)).exp()
        m = g.jets(p)
        out = [[None] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(a, 3):
                out[a][b] = out[b][a] = w * m[a][b]
        return out

    def new_oneform(p):
        u = ln_omega(p)
        x = X.jets(p)
        return [x[a] + u.d(a) for a in range(3)]

    return (MetricField(new_metric, label=f"rescaled({g.label})"),
            OneFormField(new_oneform, label=f"rescaled({X.label})"))
