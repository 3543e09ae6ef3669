"""Curvature and Einstein-Weyl residuals for 3-metrics in (nu, r, x).

Metric and 1-form components are supplied as functions of a Point
returning Jet3 values; the jets carry exact partial derivatives to
order 4, and everything here (Christoffel symbols, Ricci, Schouten,
Cotton, the trace-free Einstein-Weyl residual) is assembled from those
numeric partials with plain numpy contractions.

Every function takes either one Point or a PointBatch of B points, at
one x or each at its own, and assembles in one layout: a trailing batch
axis on every array, the layout of batched Jet3 coefficients, with a
Point a batch of one.  A (3, 3) tensor at a Point is (3, 3, B) over a
batch, column k equal bit for bit to the tensor at point k; a Point
gets its one column.  `report` assembles once per slice: once, over
all 125 points, on the default grid.

Each contraction is an explicit sum in one fixed order (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 4), the order
np.einsum took on the earlier batch-first layout, so every bit of every
residual is kept: each term multiplies its operands left to right, and
the terms are added from +0.0, the summed indices looped in order of
first appearance, outer to inner (`_contract`).  The two scalar sums,
R = g^bd R_bd and the trace of the EW residual, keep the orders np.einsum
took for their layouts (`_sum_bd`, `_trace`).

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

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateMetricError
from .jets import AXES, PointBatch, stacked_partials

_DET_FLOOR = 1e-12

@dataclass(frozen=True)
class MetricField:
    """A metric whose components evaluate to Jet3 values at a Point, or
    at a PointBatch.

    `components(p)` must return a 3x3 nested sequence of Jet3, exactly
    symmetric, ordered (nu, r, x).  A NaN entry is symmetric to itself:
    it is left to make the residual NaN, which fails the check.
    """

    components: object  # callable Point -> 3x3 of Jet3
    label: str = ""

    def jets(self, p):
        m = self.components(p)
        out = [[m[a][b] for b in range(3)] for a in range(3)]
        for a in range(3):
            for b in range(a + 1, 3):
                u, v = out[a][b], out[b][a]
                if u is not v and not np.array_equal(u.coeffs, v.coeffs,
                                                      equal_nan=True):
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


def _coeffs(jets, shape, batch, order):
    """Taylor coefficients of `jets` up to total order `order`, a flat
    list in the C order of `shape`, as one (n, *shape, *batch) array;
    unbatched jets (a Point's, or x-only ones over a batch) are repeated
    for every point."""
    # MULTI_INDICES lists the orders up to `order` first, n of them
    n = (order + 1) * (order + 2) * (order + 3) // 6
    c = np.broadcast_arrays(*[j.coeffs[:n] if j.coeffs.ndim > 1
                              else j.coeffs[:n, None] for j in jets])
    c = np.array(c).reshape(shape + (-1,) + batch)
    k = len(shape)
    return c.transpose((k,) + tuple(range(k)) + tuple(range(k + 1, c.ndim)))


def _result(a, p):
    """Per-point values as p takes them: the batch-last array over a
    PointBatch, the one point's value at a Point."""
    return a if isinstance(p, PointBatch) else a[..., 0]


def _transposed(spec, a):
    """np.einsum(spec, a) for a pure transposition such as 'bdc->dbc',
    as a view of the batch-last array a."""
    src, dst = spec.split("->")
    return a.transpose([src.index(c) for c in dst] + [len(src)])


# The most products per point a contraction forms at once: the size of
# gamma2, the largest array the assembly keeps.  A smaller cap means more
# chunks: 81 made Cotton about 40% slower at B = 50 on a 2-vCPU Xeon.
_TERMS_CAP = 3 ** 5


@lru_cache(maxsize=None)
def _plan(spec):
    """How _contract takes `spec`.  Each operand is viewed with axes
    (split, summed, free), then the batch axis: `split` the first output
    indices, fixed per chunk of the output so that a chunk's products
    stay within _TERMS_CAP numbers per point; `summed` the summed
    indices in order of first appearance (a repeated one on the
    diagonal); `free` the other output indices; an index the operand
    lacks is a new axis.  Returns per operand the diagonals to take and
    the transposition and expansion of that view; per chunk, each
    operand's index into it; the shape of a chunk's products before the
    batch axis; and the number of output indices."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    summed = [c for c in dict.fromkeys("".join(ins)) if c not in out]
    n_terms = 3 ** len(summed)
    split = 0
    while n_terms * 3 ** (len(out) - split) > _TERMS_CAP:
        split += 1
    order = list(out[:split]) + summed + list(out[split:])
    views = []
    for s in ins:
        axes, diagonals = list(s) + [None], []
        for c in summed:
            if s.count(c) == 2:
                i, j = (k for k, x in enumerate(axes) if x == c)
                diagonals.append((i, j))
                axes = [x for x in axes if x != c] + [c]
        perm = tuple(axes.index(c) for c in order if c in axes)
        expand = tuple(slice(None) if c in axes else None for c in order)
        views.append((tuple(diagonals), perm + (axes.index(None),),
                      expand + (slice(None),)))
    chunks = [tuple(tuple(v[k] if c in s else 0 for k, c in
                          enumerate(out[:split])) for s in ins)
              for v in itertools.product(range(3), repeat=split)]
    return tuple(views), tuple(chunks), (3,) * (len(order) - split), len(out)


def _contract(spec, *ops):
    """np.einsum(spec, *ops) for batch-last operands (spec names their
    other axes), bit for bit, in the module's summation order.  The
    terms of a chunk of the output are formed as one C-ordered product,
    its leading axes the summed indices, and np.add.reduce adds its rows
    one after another from +0.0 (so -0.0 terms sum to +0.0, as in
    np.einsum, even a lone one).  Like np.einsum, it warns of no
    overflow or invalid value."""
    views, chunks, chunk_shape, n_out = _plan(spec)
    prepared = []
    for op, (diagonals, perm, expand) in zip(ops, views):
        for i, j in diagonals:
            op = op.diagonal(0, i, j)
        prepared.append(op.transpose(perm)[expand])
    batch = ops[0].shape[-1:]
    acc = np.empty((3,) * n_out + batch)
    rows = acc.reshape(len(chunks), -1)
    terms = np.empty(chunk_shape + batch)
    flat = terms.reshape(-1, rows.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for row, idx in zip(rows, chunks):
            t = prepared[0][idx[0]]
            for v, i in zip(prepared[1:-1], idx[1:-1]):
                t = t * v[i]
            if len(prepared) == 1:
                np.copyto(terms, t)
            else:
                np.multiply(t, prepared[-1][idx[-1]], out=terms)
            np.add.reduce(flat, axis=0, initial=0.0, out=row)
    return acc


def _sum_bd(u, v):
    """sum_b sum_d u[..., b, d, :] v[..., b, d, :] as np.einsum takes it
    for one point whose (b, d) slabs are laid out in opposite orders (the
    Ricci arrays were): each inner sum over d first, then their sum over
    b from +0.0."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = u * v
        s = w[..., 0, :] + w[..., 1, :] + w[..., 2, :]
        return 0.0 + s[..., 0, :] + s[..., 1, :] + s[..., 2, :]


def _trace(u, v):
    """sum_ab u[a, b, :] v[a, b, :] as np.einsum takes it for two
    C-ordered 3x3 operands per point: the nine products w_0..w_8 summed
    in two vector lanes, (w_6, w_4, w_2, w_0, w_8) and (w_7, w_5, w_3,
    w_1), and the lanes added; from +0.0, so -0.0 terms sum to +0.0."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = (u * v).reshape(9, -1)
        return ((0.0 + w[6] + w[4] + w[2] + w[0] + w[8])
                + (w[7] + w[5] + w[3] + w[1]))


class _Assembly:
    """Partial-derivative arrays of one metric evaluation, with curvature.

    Every array carries the batch axis last (length 1 for a Point), and
    every contraction is an explicit sum over it (_contract, _sum_bd).
    """

    __slots__ = ("batch", "g0", "g1", "g2", "ginv0", "ginv1", "s0", "s1",
                 "gamma0", "gamma1", "ric0", "scal0", "p0", "_coeffs")

    def __init__(self, g_jets, batch, label=""):
        self.batch = batch
        # gN[d1..dN, a, b, :] is d_d1 ... d_dN g_ab; Cotton reads N <= 3
        self._coeffs = _coeffs([g for row in g_jets for g in row], (3, 3),
                               batch, 3)
        self.g0 = stacked_partials(self._coeffs, 0)
        # a NaN entry makes det and inverse NaN (and the residual NaN,
        # which fails the check), not a warning
        with np.errstate(invalid="ignore"):
            by_point = self.g0.transpose(2, 0, 1)
            for d in np.linalg.det(by_point).tolist():
                if abs(d) <= _DET_FLOOR:
                    raise DegenerateMetricError(
                        f"metric {label!r} degenerate: |det g| = {abs(d)!r}")
            self.ginv0 = np.ascontiguousarray(
                np.linalg.inv(by_point).transpose(1, 2, 0))
        self.g1 = stacked_partials(self._coeffs, 1)
        self.g2 = stacked_partials(self._coeffs, 2)
        self.ginv1 = -_contract("ae,deh,hb->dab", self.ginv0, self.g1,
                                self.ginv0)

        # S0[d,b,c] = d_b g_dc + d_c g_db - d_d g_bc  (symmetric in b,c)
        self.s0 = (_transposed("bdc->dbc", self.g1)
                   + _transposed("cdb->dbc", self.g1) - self.g1)
        # S1[e,d,b,c] = d_e S0[d,b,c]
        self.s1 = (_transposed("ebdc->edbc", self.g2)
                   + _transposed("ecdb->edbc", self.g2) - self.g2)
        self.gamma0 = 0.5 * _contract("ad,dbc->abc", self.ginv0, self.s0)
        self.gamma1 = 0.5 * (
            _contract("ead,dbc->eabc", self.ginv1, self.s0)
            + _contract("ad,edbc->eabc", self.ginv0, self.s1))

        self.ric0 = (_contract("aadb->bd", self.gamma1)
                     - _contract("daab->bd", self.gamma1)
                     + _contract("aae,edb->bd", self.gamma0, self.gamma0)
                     - _contract("ade,eab->bd", self.gamma0, self.gamma0))
        self.scal0 = _sum_bd(self.ginv0, self.ric0)
        self.p0 = self.ric0 - 0.25 * self.scal0 * self.g0

    def cotton(self):
        """C_abc; needs third metric partials, extracted on demand.
        gamma2, the largest array, is summed in place (+= then *= 0.5
        rounds as 0.5 * (A + B + C + D) does), and the arrays only it
        reads are dropped once read."""
        ginv2 = -(_contract("cae,deh,hb->cdab", self.ginv1, self.g1,
                            self.ginv0)
                  + _contract("ae,cdeh,hb->cdab", self.ginv0, self.g2,
                              self.ginv0)
                  + _contract("ae,deh,chb->cdab", self.ginv0, self.g1,
                              self.ginv1))
        gamma2 = _contract("fead,dbc->feabc", ginv2, self.s0)
        del ginv2
        gamma2 += _contract("ead,fdbc->feabc", self.ginv1, self.s1)
        gamma2 += _contract("fad,edbc->feabc", self.ginv1, self.s1)
        g3 = stacked_partials(self._coeffs, 3)
        s2 = _transposed("febdc->fedbc", g3) + _transposed("fecdb->fedbc",
                                                           g3)
        s2 -= g3
        del g3
        gamma2 += _contract("ad,fedbc->feabc", self.ginv0, s2)
        del s2
        gamma2 *= 0.5

        ric1 = (_contract("caadb->cbd", gamma2)
                - _contract("cdaab->cbd", gamma2)
                + _contract("caae,edb->cbd", self.gamma1, self.gamma0)
                + _contract("aae,cedb->cbd", self.gamma0, self.gamma1)
                - _contract("cade,eab->cbd", self.gamma1, self.gamma0)
                - _contract("ade,ceab->cbd", self.gamma0, self.gamma1))
        scal1 = (_sum_bd(self.ginv1, self.ric0[None])
                 + _sum_bd(self.ginv0[None], ric1))
        p1 = (ric1 - 0.25 * _contract("c,ab->cab", scal1, self.g0)
              - 0.25 * self.scal0 * self.g1)

        return (_transposed("cab->abc", p1)
                - _transposed("bac->abc", p1)
                - _contract("eca,eb->abc", self.gamma0, self.p0)
                + _contract("eba,ec->abc", self.gamma0, self.p0))


def _assemble(g: MetricField, p) -> _Assembly:
    batch = (p.size,) if isinstance(p, PointBatch) else (1,)
    return _Assembly(g.jets(p), batch, g.label)


def cotton(g: MetricField, p) -> np.ndarray:
    """Cotton tensor C_abc = nabla_c P_ab - nabla_b P_ac at p."""
    return _result(_assemble(g, p).cotton(), p)


def ew_residual(g: MetricField, X: OneFormField, p) -> np.ndarray:
    """Trace-free part of nabla_(a X_b) + X_a X_b + P_ab at p.

    The zero locus of the returned symmetric 3x3 array is exactly the
    Einstein-Weyl condition; projecting out the g-trace removes the
    Lambda term.
    """
    asm = _assemble(g, p)
    coeffs = _coeffs(X.jets(p), (3,), asm.batch, 1)
    # x1[a, b, :] = d_a X_b
    x0, x1 = stacked_partials(coeffs, 0), stacked_partials(coeffs, 1)
    covsym = (0.5 * (x1 + x1.swapaxes(0, 1))
              - _contract("eab,e->ab", asm.gamma0, x0))
    t = covsym + x0[:, None] * x0[None, :] + asm.p0
    trace = _trace(asm.ginv0, t)
    return _result(t - (trace / 3.0) * asm.g0, p)


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
