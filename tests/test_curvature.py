"""Curvature operators on metrics with known geometry.

Reference values come from closed-form geometry (flat space in shaped
coordinates, hyperbolic half-space, conformally flat metrics), never
from the implementation itself.
"""

import ast
import inspect
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewhorizon import curvature
from ewhorizon.curvature import (MetricField, OneFormField,
                                 conformal_rescale, cotton, ew_residual)
from ewhorizon.errors import DegenerateMetricError
from ewhorizon.jets import Jet3, Point

PT = Point(0.4, 0.7, -0.3)


def coords(p):
    return Jet3.variable(p, 0), Jet3.variable(p, 1), Jet3.variable(p, 2)


def const(v):
    return Jet3.constant(float(v))


def diag_metric(f_nu, f_r, f_x):
    def comp(p):
        nu, r, x = coords(p)
        zero = const(0.0)
        return [[f_nu(nu, r, x), zero, zero],
                [zero, f_r(nu, r, x), zero],
                [zero, zero, f_x(nu, r, x)]]

    return MetricField(comp, label="diag")


def euclidean():
    one = lambda nu, r, x: const(1.0)
    return diag_metric(one, one, one)


def assembled(g, p):
    """(Gamma^a_bc, R_ab, R, P_ab) of g at the Point p, as the assembly
    every residual reads holds them, without its batch axis of one."""
    asm = curvature._assemble(g, p, 2)
    return (asm.gamma0[..., 0], asm.ric0[..., 0], float(asm.scal0[0]),
            asm.p0[..., 0])


def test_flat_metric_has_zero_curvature():
    gamma, ric, scal, schout = assembled(euclidean(), PT)
    assert np.max(np.abs(gamma)) == 0.0
    assert np.max(np.abs(ric)) == 0.0
    assert scal == 0.0
    assert np.max(np.abs(schout)) == 0.0
    assert np.max(np.abs(cotton(euclidean(), PT))) == 0.0


def test_constant_anisotropic_metric_is_flat():
    g = diag_metric(lambda nu, r, x: const(4.0),
                    lambda nu, r, x: const(9.0),
                    lambda nu, r, x: const(0.25))
    assert np.max(np.abs(assembled(g, PT)[1])) == 0.0
    assert np.max(np.abs(cotton(g, PT))) == 0.0


def test_polar_style_coordinates_are_flat():
    # ds^2 = dnu^2 + dr^2 + r^2 dx^2: flat, but with nonzero symbols
    g = diag_metric(lambda nu, r, x: const(1.0),
                    lambda nu, r, x: const(1.0),
                    lambda nu, r, x: r * r)
    p = Point(0.0, 1.3, 0.2)
    gamma, ric, scal, _ = assembled(g, p)
    assert_allclose(gamma[2, 1, 2], 1.0 / 1.3, rtol=1e-12)  # x_{r x}
    assert_allclose(gamma[1, 2, 2], -1.3, rtol=1e-12)       # r_{x x}
    assert np.max(np.abs(ric)) < 1e-12
    assert abs(scal) < 1e-12
    assert np.max(np.abs(cotton(g, p))) < 1e-11


def test_hyperbolic_half_space():
    # g = r^-2 (dnu^2 + dr^2 + dx^2) on r > 0: Ric = -2 g, R = -6
    inv2 = lambda nu, r, x: 1.0 / (r * r)
    g = diag_metric(inv2, inv2, inv2)
    p = Point(0.2, 0.8, -0.5)
    _, ric, scal, schout = assembled(g, p)
    assert_allclose(scal, -6.0, rtol=1e-11)
    gval = np.diag([0.8**-2] * 3)
    assert_allclose(ric, -2.0 * gval, rtol=1e-11, atol=1e-12)
    # P = Ric - (R/4) g = -2g + 1.5g = -g/2
    assert_allclose(schout, -0.5 * gval, rtol=1e-11, atol=1e-12)
    assert np.max(np.abs(cotton(g, p))) < 1e-10


def test_conformally_flat_metric_has_zero_cotton():
    def comp(p):
        nu, r, x = coords(p)
        w = (0.4 * (nu + 0.3 * x).sin() + 0.2 * r).exp()
        zero = const(0.0)
        return [[w, zero, zero], [zero, w, zero], [zero, zero, w]]

    g = MetricField(comp)
    for p in (PT, Point(-0.6, 0.1, 0.9)):
        assert np.max(np.abs(cotton(g, p))) < 1e-9


def test_generic_metric_has_nonzero_cotton():
    def comp(p):
        nu, r, x = coords(p)
        zero = const(0.0)
        return [[1.0 + 0.5 * (nu * x).sin(), zero, zero],
                [zero, const(1.0), zero],
                [zero, zero, 1.0 + 0.5 * r * r]]

    assert np.max(np.abs(cotton(MetricField(comp), PT))) > 1e-4


def sample_structure():
    def gcomp(p):
        nu, r, x = coords(p)
        one, zero = const(1.0), const(0.0)
        off = 0.1 * nu * x
        return [[(0.3 * nu).exp(), off, zero],
                [off, one + 0.1 * r * r, zero],
                [zero, zero, 1.0 + 0.2 * r.sin()]]

    def xcomp(p):
        nu, r, x = coords(p)
        return [0.2 * x.sin(), 0.1 * nu, 0.3 * r]

    return MetricField(gcomp), OneFormField(xcomp)


def test_cotton_antisymmetry_and_traces():
    g, _ = sample_structure()
    C = cotton(g, PT)
    assert_allclose(C, -np.transpose(C, (0, 2, 1)), atol=1e-14)
    ginv = np.linalg.inv(np.array(
        [[j.value for j in row] for row in g.components(PT)]))
    # contracted Bianchi: g^{ab} C_abc = 0
    assert np.max(np.abs(np.einsum("ab,abc->c", ginv, C))) < 1e-12
    assert_allclose(curvature._assemble(g, PT, 3).cotton()[..., 0], C,
                    rtol=1e-13, atol=1e-15)


def test_ew_residual_is_symmetric_and_trace_free():
    g, X = sample_structure()
    E = ew_residual(g, X, PT)
    assert_allclose(E, E.T, atol=1e-15)
    gval = np.array([[j.value for j in row] for row in g.components(PT)])
    assert abs(np.einsum("ab,ab->", np.linalg.inv(gval), E)) < 1e-13
    assert np.max(np.abs(E)) > 1e-3  # this (g, X) is not a solution


def lnw(p):
    nu, r, x = coords(p)
    return 0.2 * (nu + 0.5 * x).sin() + 0.1 * r


def test_conformal_rescale_component_action():
    g, X = sample_structure()
    g2, X2 = conformal_rescale(g, X, lnw)
    w = lnw(PT)
    scale = math.exp(2.0 * w.value)
    gv = np.array([[j.value for j in row] for row in g.components(PT)])
    gv2 = np.array([[j.value for j in row] for row in g2.components(PT)])
    assert_allclose(gv2, scale * gv, rtol=1e-13)
    xv = np.array([j.value for j in X.jets(PT)])
    xv2 = np.array([j.value for j in X2.jets(PT)])
    grad = np.array([w.partial((1, 0, 0)), w.partial((0, 1, 0)),
                     w.partial((0, 0, 1))])
    assert_allclose(xv2, xv + grad, rtol=1e-13)


def test_ew_residual_exactly_conformally_invariant():
    # the trace-free residual has conformal weight zero, even off-shell
    g, X = sample_structure()
    g2, X2 = conformal_rescale(g, X, lnw)
    for p in (PT, Point(-0.2, 1.1, 0.6)):
        assert_allclose(ew_residual(g2, X2, p), ew_residual(g, X, p),
                        atol=1e-13)


def test_cotton_conformally_invariant():
    # in three dimensions the Cotton tensor is conformally invariant
    g, _ = sample_structure()
    g2, _ = conformal_rescale(g, OneFormField(lambda p: [const(0.0)] * 3),
                              lnw)
    assert_allclose(cotton(g2, PT), cotton(g, PT), atol=1e-12)


def test_degenerate_metric_raises():
    def comp(p):
        nu, r, x = coords(p)
        zero = const(0.0)
        row = [const(1.0), const(1.0), zero]
        return [row, row, [zero, zero, const(1.0)]]  # rank 2

    with pytest.raises(DegenerateMetricError):
        cotton(MetricField(comp), PT)


def test_metric_symmetry_enforced():
    def comp(p):
        nu, r, x = coords(p)
        zero = const(0.0)
        return [[const(1.0), nu, zero],
                [2.0 * nu, const(1.0), zero],
                [zero, zero, const(1.0)]]

    with pytest.raises(ValueError):
        cotton(MetricField(comp), PT)


def test_nan_metric_entry_gives_nan_curvature_without_a_warning():
    # a NaN pair, one jet (as every metric here builds it) or two equal
    # ones, is symmetric: the residuals come out NaN instead of raising
    def comp(p, same):
        nu, r, x = coords(p)
        zero = const(0.0)
        off = [Jet3.constant(math.nan) for _ in range(2)]
        off[1] = off[0] if same else off[1]
        return [[const(1.0), off[0], zero],
                [off[1], const(1.0), zero],
                [zero, zero, const(1.0)]]

    X = OneFormField(lambda p: [const(0.1), const(0.0), const(0.0)])
    for same in (True, False):
        g = MetricField(lambda p: comp(p, same))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isnan(ew_residual(g, X, PT)))
            assert np.all(np.isnan(cotton(g, PT)))


# --- the contractions against np.einsum on the batch-first layout ----------
#
# The residual pins were recorded with the assembly's sums in the order
# np.einsum took on the old batch-first layout.  _contract calls np.einsum
# on the batch-last layout, and _sum_bd and _trace write their sums out;
# with seeded inputs that hold exact zeros, -0.0, infinities and NaN, each
# agrees with the batch-first einsum in every bit (a NaN only in being
# NaN), and none warns.  A numpy whose einsum sums in another order fails
# here.

_TREE = ast.parse(inspect.getsource(curvature))
_CALLS = [n for n in ast.walk(_TREE) if isinstance(n, ast.Call)]
_SPECS = sorted({n.args[0].value for n in _CALLS
                 if getattr(n.func, "id", None) == "_contract"})
_BATCHES = (1, 2, 7, 25, 50, 64)
_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _operand(rng, shape):
    """Batch-last random array, about one entry in twelve special."""
    a = rng.standard_normal(shape)
    hit = rng.random(shape) < 1 / 12
    a[hit] = rng.choice(_SPECIAL, hit.sum())
    return a


def _batch_first(a):
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64),
                          want[~nan].view(np.uint64))


def test_every_contraction_of_the_module_is_covered():
    # every contraction goes through _contract with a literal spec, so
    # _SPECS, which the bit test takes, holds each of the module's 25;
    # and np.einsum is called in _contract alone
    assert all(isinstance(n.args[0], ast.Constant) for n in _CALLS
               if getattr(n.func, "id", None) == "_contract")
    assert len(_SPECS) == 25
    contract = next(f for f in ast.walk(_TREE)
                    if getattr(f, "name", None) == "_contract")
    inside = set(map(id, ast.walk(contract)))
    einsums = [n for n in _CALLS if "einsum" in (getattr(n.func, "attr", None),
                                                 getattr(n.func, "id", None))]
    assert einsums and all(id(n) in inside for n in einsums)


@pytest.mark.parametrize("spec", _SPECS)
def test_contraction_equals_einsum_bit_for_bit(spec):
    rng = np.random.default_rng(len(spec) * 1009 + sum(map(ord, spec)))
    ins, out = spec.split("->")
    for B in _BATCHES:
        ops = [_operand(rng, (3,) * len(s) + (B,)) for s in ins.split(",")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = curvature._contract(spec, *ops)
        want = np.einsum("..." + ins.replace(",", ",...") + "->..." + out,
                         *map(_batch_first, ops))
        _assert_same_bits(got, np.moveaxis(want, 0, -1))


@pytest.mark.parametrize("B", _BATCHES)
def test_scalar_sums_equal_einsum_bit_for_bit(B):
    rng = np.random.default_rng(B)
    u, v = _operand(rng, (3, 3, B)), _operand(rng, (3, 3, B))
    # the last point's nine products are all -0.0, which sum to +0.0
    u[..., -1], v[..., -1] = -0.0, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bd, tr = curvature._sum_bd(u, v), curvature._trace(u, v)
    # R = g^bd R_bd: the Ricci array was laid out (d, b) per point
    ric = np.moveaxis(v, -1, 0).swapaxes(1, 2).copy().swapaxes(1, 2)
    _assert_same_bits(bd, np.einsum("...bd,...bd->...", _batch_first(u),
                                    ric))
    # the EW trace: both operands C-ordered per point
    _assert_same_bits(tr, np.einsum("...ab,...ab->...", _batch_first(u),
                                    _batch_first(v)))


@pytest.mark.parametrize("spec", ["fead,dbc->feabc", "ead,fdbc->feabc",
                                  "ad,fedbc->feabc", "ae,deh,hb->dab"])
@pytest.mark.parametrize("B", (7, 125, 129))
def test_contraction_into_an_array_and_added_to_it(spec, B):
    # with `out`, into that array; with `add`, rounded as out + einsum;
    # up to _WORK_COLS points the products use the workspace, past it a
    # fresh array
    rng = np.random.default_rng(B)
    ops = [_operand(rng, (3,) * len(s) + (B,))
           for s in spec.split("->")[0].split(",")]
    base = _operand(rng, (3,) * len(spec.split("->")[1]) + (B,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = curvature._contract(spec, *ops)
        out = np.empty_like(base)
        assert curvature._contract(spec, *ops, out=out) is out
        _assert_same_bits(out, want)
        out = base.copy()
        assert curvature._contract(spec, *ops, out=out, add=True) is out
        with np.errstate(invalid="ignore"):
            _assert_same_bits(out, base + want)


# --- the orders an assembly reads ------------------------------------------
#
# ew_residual builds the metric to order 2 and the one-form to order 1,
# cotton the metric to order 3.  A field that ignores the order it is
# asked for, or differentiates the jets of that order (so returns fewer),
# gives the same bits as one that builds exactly what is read.


def _package_pairs():
    from ewhorizon.nearhorizon import (NearHorizonData, field_one,
                                       named_h_field, nh_metric,
                                       weyl_oneform_generic)
    from ewhorizon.pdeverify import (HyperCRParams, hypercr_structures,
                                     hypercr_tanh_family, prop4_structures)
    d = NearHorizonData(h=named_h_field("sin"), F=field_one(), c=-0.3)
    return [(nh_metric(d), weyl_oneform_generic(d)),
            hypercr_structures(hypercr_tanh_family(
                HyperCRParams(1.0, 2.0, 0.3, 0.5, -1.0, 2.0))),
            prop4_structures(-1.0, -1.0, 0.0)]


def _at_order_4(field):
    return type(field)(lambda p: field.components(p.at_order(4)),
                       label=field.label)


def _points():
    from ewhorizon.jets import PointBatch
    rng = np.random.default_rng(5)
    return [PT, PointBatch(rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 9),
                           rng.uniform(-0.5, 0.5, 9))]


@pytest.mark.parametrize("pair", range(3))
def test_fields_that_ignore_the_order_give_the_same_bits(pair):
    g, X = _package_pairs()[pair]
    ug, uX = _at_order_4(g), _at_order_4(X)
    for p in _points():
        _assert_same_bits(ew_residual(ug, uX, p), ew_residual(g, X, p))
        _assert_same_bits(ew_residual(g, uX, p), ew_residual(g, X, p))
        _assert_same_bits(cotton(ug, p), cotton(g, p))


def test_a_field_that_differentiates_its_jets_is_read_at_order_4():
    # g and X of hypercr_structures, written as a user would: H built at
    # the order the point asks for, then differentiated
    def potential(p):
        nu, r, x = coords(p)
        return (0.5 * r + 2.0 * nu + x + 0.3).tanh() * r

    def gcomp(p):
        H = potential(p)
        hr, hx = H.d(1), H.d(2)
        one, zero, mtwo = const(1.0), const(0.0), const(-2.0)
        return [[hr * hr + 4.0 * hx, mtwo, hr], [mtwo, zero, zero],
                [hr, zero, one]]

    def xcomp(p):
        H = potential(p)
        hr = H.d(1)
        return [0.5 * hr * hr.d(1) + H.d(2).d(1), const(0.0),
                0.5 * hr.d(1)]

    g, X = MetricField(gcomp, "user"), OneFormField(xcomp, "user-X")
    for p in _points():
        _assert_same_bits(ew_residual(g, X, p),
                          ew_residual(_at_order_4(g), _at_order_4(X), p))
        _assert_same_bits(cotton(g, p), cotton(_at_order_4(g), p))
