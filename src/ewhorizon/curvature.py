"""Curvature and Einstein-Weyl residuals for 3-metrics in (nu, r, x).

Metric and 1-form components are supplied as functions of a Point
returning Jet3 values; the jets carry exact partial derivatives to
order 4, and everything here (Christoffel symbols, Ricci, Schouten,
Cotton, the trace-free Einstein-Weyl residual) is assembled from those
numeric partials with plain numpy contractions.

Every function takes either one Point or a PointBatch of B points, at
one x or each at its own, and assembles in one layout: a leading batch
axis on every array and every contraction, with a Point a batch of one.
Over a batch, results carry a trailing batch axis: a (3, 3) tensor at a
Point is (3, 3, B) over a batch, column k equal bit for bit to the
tensor at point k; a Point gets its one column.  `report` assembles
once per slice: three times (50, 50, 25 points) on the default grid.

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
from .jets import AXES, PointBatch, stacked_partials

_DET_FLOOR = 1e-12

@dataclass(frozen=True)
class MetricField:
    """A metric whose components evaluate to Jet3 values at a Point, or
    at a PointBatch.

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
    """A 1-form whose components evaluate to Jet3 values at a Point, or
    at a PointBatch."""

    components: object  # callable Point -> 3-sequence of Jet3
    label: str = ""

    def jets(self, p):
        return list(self.components(p))


@dataclass(frozen=True)
class CurvaturePack:
    """All curvature data of a metric at a point (or a batch, with a
    trailing batch axis), as numeric arrays."""

    christoffel: np.ndarray  # Gamma^a_bc, shape (3,3,3)
    ricci: np.ndarray        # R_ab
    scalar: float            # R
    schouten: np.ndarray     # P_ab
    cotton: np.ndarray       # C_abc, antisymmetric in (b,c)


def _batch_shape(p):
    """(B,) for a PointBatch of B points, (1,) for a Point."""
    return (p.size,) if isinstance(p, PointBatch) else (1,)


def _coeffs(jets, shape, batch):
    """Taylor coefficients of `jets`, a flat list in the C order of
    `shape`, as one (N3, *shape, *batch) array; unbatched jets (a
    Point's, or x-only ones over a batch) are repeated for every point."""
    c = np.broadcast_arrays(*[j.coeffs if j.coeffs.ndim > 1
                              else j.coeffs[:, None] for j in jets])
    c = np.array(c).reshape(shape + (-1,) + batch)
    k = len(shape)
    return c.transpose((k,) + tuple(range(k)) + tuple(range(k + 1, c.ndim)))


def _partials(coeffs, order):
    """stacked_partials of `coeffs`, with the batch axis moved first and
    C-ordered.  Each point's slab then has one layout, and the einsums
    below sum it in one order whatever the batch size (the tests check
    this bit for bit; _sum_bd is the one exception)."""
    return np.ascontiguousarray(np.moveaxis(stacked_partials(coeffs, order),
                                            -1, 0))


def _result(a, p):
    """Per-point values, batch axis first, as p takes them: the batch
    axis moved last over a PointBatch (the layout of batched jets and
    residuals), the one point's value at a Point (a float for R)."""
    if isinstance(p, PointBatch):
        return np.moveaxis(a, 0, -1)
    return a[0] if a.ndim > 1 else float(a[0])


def _sum_bd(u, v):
    """sum_b sum_d u[..., b, d] v[..., b, d], each inner sum over d
    taken first.  That is the order np.einsum takes for one unbatched
    pair laid out (b, d) in opposite orders (the Ricci arrays are
    transposed), in which the pinned per-point bits were computed; with
    a batch axis np.einsum may take another, so it is written out."""
    w = u * v
    s = w[..., 0] + w[..., 1] + w[..., 2]
    return s[..., 0] + s[..., 1] + s[..., 2]


class _Assembly:
    """Partial-derivative arrays of one metric evaluation, with curvature.

    Every array carries the batch axis first (length 1 for a Point),
    and every einsum runs over it with '...'.
    """

    __slots__ = ("batch", "g0", "g1", "g2", "ginv0", "ginv1", "s0", "s1",
                 "gamma0", "gamma1", "ric0", "scal0", "p0", "_coeffs")

    def __init__(self, g_jets, batch, label=""):
        self.batch = batch
        # gN[..., d1..dN, a, b] is d_d1 ... d_dN g_ab
        self._coeffs = _coeffs([g for row in g_jets for g in row], (3, 3),
                               batch)
        self.g0 = _partials(self._coeffs, 0)
        for d in np.linalg.det(self.g0).tolist():
            if abs(d) <= _DET_FLOOR:
                raise DegenerateMetricError(
                    f"metric {label!r} degenerate: |det g| = {abs(d)!r}")
        self.g1 = _partials(self._coeffs, 1)
        self.g2 = _partials(self._coeffs, 2)
        self.ginv0 = np.linalg.inv(self.g0)
        self.ginv1 = -np.einsum("...ae,...deh,...hb->...dab", self.ginv0,
                                self.g1, self.ginv0)

        # S0[d,b,c] = d_b g_dc + d_c g_db - d_d g_bc  (symmetric in b,c)
        self.s0 = (np.einsum("...bdc->...dbc", self.g1)
                   + np.einsum("...cdb->...dbc", self.g1) - self.g1)
        # S1[e,d,b,c] = d_e S0[d,b,c]
        self.s1 = (np.einsum("...ebdc->...edbc", self.g2)
                   + np.einsum("...ecdb->...edbc", self.g2) - self.g2)
        self.gamma0 = 0.5 * np.einsum("...ad,...dbc->...abc", self.ginv0,
                                      self.s0)
        self.gamma1 = 0.5 * (
            np.einsum("...ead,...dbc->...eabc", self.ginv1, self.s0)
            + np.einsum("...ad,...edbc->...eabc", self.ginv0, self.s1))

        self.ric0 = (np.einsum("...aadb->...bd", self.gamma1)
                     - np.einsum("...daab->...bd", self.gamma1)
                     + np.einsum("...aae,...edb->...bd", self.gamma0,
                                 self.gamma0)
                     - np.einsum("...ade,...eab->...bd", self.gamma0,
                                 self.gamma0))
        self.scal0 = np.einsum("...bd,...bd->...", self.ginv0, self.ric0)
        self.p0 = self.ric0 - 0.25 * self.scal0[:, None, None] * self.g0

    def cotton(self):
        """C_abc; needs third metric partials, extracted on demand."""
        g3 = _partials(self._coeffs, 3)
        ginv2 = -(np.einsum("...cae,...deh,...hb->...cdab", self.ginv1,
                            self.g1, self.ginv0)
                  + np.einsum("...ae,...cdeh,...hb->...cdab", self.ginv0,
                              self.g2, self.ginv0)
                  + np.einsum("...ae,...deh,...chb->...cdab", self.ginv0,
                              self.g1, self.ginv1))

        s2 = (np.einsum("...febdc->...fedbc", g3)
              + np.einsum("...fecdb->...fedbc", g3) - g3)
        gamma2 = 0.5 * (
            np.einsum("...fead,...dbc->...feabc", ginv2, self.s0)
            + np.einsum("...ead,...fdbc->...feabc", self.ginv1, self.s1)
            + np.einsum("...fad,...edbc->...feabc", self.ginv1, self.s1)
            + np.einsum("...ad,...fedbc->...feabc", self.ginv0, s2))

        ric1 = (np.einsum("...caadb->...cbd", gamma2)
                - np.einsum("...cdaab->...cbd", gamma2)
                + np.einsum("...caae,...edb->...cbd", self.gamma1,
                            self.gamma0)
                + np.einsum("...aae,...cedb->...cbd", self.gamma0,
                            self.gamma1)
                - np.einsum("...cade,...eab->...cbd", self.gamma1,
                            self.gamma0)
                - np.einsum("...ade,...ceab->...cbd", self.gamma0,
                            self.gamma1))
        scal1 = (_sum_bd(self.ginv1, self.ric0[..., None, :, :])
                 + _sum_bd(self.ginv0[..., None, :, :], ric1))
        p1 = (ric1 - 0.25 * np.einsum("...c,...ab->...cab", scal1, self.g0)
              - 0.25 * self.scal0[:, None, None, None] * self.g1)

        return (np.einsum("...cab->...abc", p1)
                - np.einsum("...bac->...abc", p1)
                - np.einsum("...eca,...eb->...abc", self.gamma0, self.p0)
                + np.einsum("...eba,...ec->...abc", self.gamma0, self.p0))


def _assemble(g: MetricField, p) -> _Assembly:
    return _Assembly(g.jets(p), _batch_shape(p), g.label)


def christoffel(g: MetricField, p) -> np.ndarray:
    """Gamma^a_bc of g at p, shape (3,3,3), symmetric in (b,c)."""
    return _result(_assemble(g, p).gamma0, p)


def ricci_scalar_schouten(g: MetricField, p):
    """(R_ab, R, P_ab) of g at p."""
    asm = _assemble(g, p)
    return (_result(asm.ric0, p), _result(asm.scal0, p),
            _result(asm.p0, p))


def cotton(g: MetricField, p) -> np.ndarray:
    """Cotton tensor C_abc = nabla_c P_ab - nabla_b P_ac at p."""
    return _result(_assemble(g, p).cotton(), p)


def curvature_pack(g: MetricField, p) -> CurvaturePack:
    """Every curvature quantity of g at p in one evaluation."""
    asm = _assemble(g, p)
    return CurvaturePack(christoffel=_result(asm.gamma0, p),
                         ricci=_result(asm.ric0, p),
                         scalar=_result(asm.scal0, p),
                         schouten=_result(asm.p0, p),
                         cotton=_result(asm.cotton(), p))


def _oneform_partials(x_jets, batch):
    coeffs = _coeffs(x_jets, (3,), batch)
    # x1[..., a, b] = d_a X_b
    return _partials(coeffs, 0), _partials(coeffs, 1)


def ew_residual(g: MetricField, X: OneFormField, p) -> np.ndarray:
    """Trace-free part of nabla_(a X_b) + X_a X_b + P_ab at p.

    The zero locus of the returned symmetric 3x3 array is exactly the
    Einstein-Weyl condition; projecting out the g-trace removes the
    Lambda term.
    """
    asm = _assemble(g, p)
    x0, x1 = _oneform_partials(X.jets(p), asm.batch)
    covsym = (0.5 * (x1 + x1.swapaxes(-1, -2))
              - np.einsum("...eab,...e->...ab", asm.gamma0, x0))
    t = covsym + x0[..., :, None] * x0[..., None, :] + asm.p0
    trace = np.einsum("...ab,...ab->...", asm.ginv0, t)
    return _result(t - (trace / 3.0)[:, None, None] * asm.g0, p)


def faraday(X: OneFormField, p) -> np.ndarray:
    """(dX)_ab = d_a X_b - d_b X_a at p, antisymmetric 3x3."""
    _, x1 = _oneform_partials(X.jets(p), _batch_shape(p))
    return _result(x1 - x1.swapaxes(-1, -2), p)


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
