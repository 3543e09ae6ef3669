"""Curvature and Einstein-Weyl residuals for 3-metrics in (nu, r, x).

Metric and 1-form components are supplied as functions of a Point
returning Jet3 values; the jets carry exact partial derivatives to the
order of the point they are taken at, and everything here (Christoffel
symbols, Ricci, Schouten, Cotton, the trace-free Einstein-Weyl residual)
is assembled from those numeric partials with plain numpy contractions.
Each residual asks for the orders it reads: the Einstein-Weyl residual
for the metric at order 2 and the 1-form at order 1, Cotton for the
metric at order 3.  Jets of a higher order are cut to it, bit for bit
the same, and a field that gives fewer is evaluated again at order 4
(`jets.jets_to`).

Every function takes either one Point or a PointBatch of B points, at
one x or each at its own, and assembles in one layout: a trailing batch
axis on every array, the layout of batched Jet3 coefficients, with a
Point a batch of one.  A (3, 3) tensor at a Point is (3, 3, B) over a
batch, column k equal bit for bit to the tensor at point k; a Point
gets its one column.  `report` assembles once per slice: once, over
all 125 points, on the default grid.

Each contraction is one np.einsum call on the batch-last layout, the
batch index appended to every operand and to the output (`_contract`).
Its sums come out in the order np.einsum took on the earlier batch-first
layout, so every bit of every residual is kept (a sum's bits depend on
its order: Higham, Accuracy and Stability of Numerical Algorithms,
ch. 4); tests/test_curvature.py holds each contraction to that order
under numpy 2.4.6, with which the pins were recorded.  The two scalar
sums, R = g^bd R_bd and the trace of the EW residual, are written out
in the orders np.einsum took for their old layouts (`_sum_bd`,
`_trace`): np.einsum on the batch-last layout sums them in another
order.

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

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError
from .jets import (_COUNT, _WORK_COLS, AXES, ORDER, PointBatch, jets_to,
                   stacked_partials)

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


def _coeffs(jets, shape, batch, order, lowest=0):
    """Taylor coefficients of `jets` of total orders `lowest` to `order`,
    a flat list in the C order of `shape`, as one (n, *shape, *batch)
    array; unbatched jets (a Point's, or x-only ones over a batch) are
    repeated for every point, and jets of a higher order cut to `order`."""
    # MULTI_INDICES lists the coefficients by total order
    first, n = _COUNT[lowest - 1] if lowest else 0, _COUNT[order]
    c = np.broadcast_arrays(*[j.coeffs[first:n] if j.coeffs.ndim > 1
                              else j.coeffs[first:n, None] for j in jets])
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


# The numbers per point in each slot of the workspace (`_scratch`): the
# size of a 5-index array, gamma2, the largest the assembly keeps.
_SLOT = 3 ** 5
_threads = threading.local()


def _scratch(slot, shape):
    """An array of `shape`, the batch axis last and at most _SLOT numbers
    per point, in slot `slot` of the thread's workspace: 0 for the sums
    a contraction adds into an array (`_contract`), and then for Cotton's
    g3; 1 and 2 for the two 5-index arrays Cotton sums (gamma2 and s2).
    Each slot holds up to jets._WORK_COLS points (a grid walker's batch);
    past that the array is fresh.  The workspace is 746 KB, allocated
    once per thread: arrays that size, fresh, pass glibc's 128 KiB mmap
    threshold, and Cotton took hundreds of page faults per assembly."""
    if shape[-1] > _WORK_COLS:
        return np.empty(shape)
    work = getattr(_threads, "work", None)
    if work is None:
        work = _threads.work = np.empty((3, _SLOT * _WORK_COLS))
    return work[slot, :math.prod(shape)].reshape(shape)


def _contract(spec, *ops, out=None, add=False):
    """np.einsum(spec, *ops) for batch-last operands (spec names their
    other axes), the batch index appended to every operand and to the
    output: into the C-ordered array `out` if given, added to it in place
    with `add` (rounded as out + np.einsum(spec, *ops), the sums formed
    in slot 0 of the workspace, `_scratch`).  Like np.einsum, it warns of
    no overflow or invalid value.  A contraction calls nothing that could
    re-enter it."""
    ins, res = spec.split("->")
    spec = ",".join(s + "z" for s in ins.split(",")) + "->" + res + "z"
    with np.errstate(over="ignore", invalid="ignore"):
        if not add:
            return np.einsum(spec, *ops, out=out)
        out += np.einsum(spec, *ops, out=_scratch(0, out.shape))
    return out


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
    every contraction keeps it (_contract, _sum_bd).
    The metric's jets are built to total order 2 for the Einstein-Weyl
    residual and 3 for Cotton, which reads the third order on demand.
    """

    __slots__ = ("batch", "g0", "g1", "g2", "ginv0", "ginv1", "s0", "s1",
                 "gamma0", "gamma1", "ric0", "scal0", "p0", "_coeffs", "_jets")

    def __init__(self, g_jets, batch, label=""):
        self.batch = batch
        # gN[d1..dN, a, b, :] is d_d1 ... d_dN g_ab; N = 3 is read from
        # the jets apart, as two arrays of 90 numbers per point stay
        # below glibc's 128 KiB mmap threshold at a walker's batch where
        # one of 180 would pass it (and be page-faulted in on every Cotton)
        self._jets = g_jets
        self._coeffs = _coeffs(g_jets, (3, 3), batch, 2)
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
        reads are dropped once read; gamma2, s2 and g3 live in the
        workspace (`_scratch`), so nothing returned may view them."""
        ginv2 = -(_contract("cae,deh,hb->cdab", self.ginv1, self.g1,
                            self.ginv0)
                  + _contract("ae,cdeh,hb->cdab", self.ginv0, self.g2,
                              self.ginv0)
                  + _contract("ae,deh,chb->cdab", self.ginv0, self.g1,
                              self.ginv1))
        five = (3,) * 5 + self.batch
        gamma2 = _contract("fead,dbc->feabc", ginv2, self.s0,
                           out=_scratch(1, five))
        del ginv2
        _contract("ead,fdbc->feabc", self.ginv1, self.s1, out=gamma2,
                  add=True)
        _contract("fad,edbc->feabc", self.ginv1, self.s1, out=gamma2,
                  add=True)
        # g3 borrows slot 0, which holds an added contraction's sums
        # only while it is added
        g3 = stacked_partials(_coeffs(self._jets, (3, 3), self.batch, 3, 3),
                              3, out=_scratch(0, five), first=_COUNT[2])
        s2 = np.add(_transposed("febdc->fedbc", g3),
                    _transposed("fecdb->fedbc", g3), out=_scratch(2, five))
        s2 -= g3
        del g3
        _contract("ad,fedbc->feabc", self.ginv0, s2, out=gamma2, add=True)
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


def _assemble(g: MetricField, p, order) -> _Assembly:
    """The assembly of g at p, its jets built to total order `order`."""
    batch = (p.size,) if isinstance(p, PointBatch) else (1,)
    jets = jets_to(lambda q: [c for row in g.jets(q) for c in row], p,
                   order)
    return _Assembly(jets, batch, g.label)


def cotton(g: MetricField, p) -> np.ndarray:
    """Cotton tensor C_abc = nabla_c P_ab - nabla_b P_ac at p."""
    return _result(_assemble(g, p, 3).cotton(), p)


def ew_residual(g: MetricField, X: OneFormField, p) -> np.ndarray:
    """Trace-free part of nabla_(a X_b) + X_a X_b + P_ab at p.

    The zero locus of the returned symmetric 3x3 array is exactly the
    Einstein-Weyl condition; projecting out the g-trace removes the
    Lambda term.
    """
    asm = _assemble(g, p, 2)
    coeffs = _coeffs(jets_to(X.jets, p, 1), (3,), asm.batch, 1)
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
        u = ln_omega(p.at_order(min(p.order + 1, ORDER)))  # u.d spends one
        x = X.jets(p)
        return [x[a] + u.d(a) for a in range(3)]

    return (MetricField(new_metric, label=f"rescaled({g.label})"),
            OneFormField(new_oneform, label=f"rescaled({X.label})"))
