"""Check pipelines, residual reports, and plot/scan data assembly.

Every check is one entry of the CHECKS registry; the CLI derives its
parameter flags from the entries.  One grid walker (`_rows`) evaluates
a check's residuals in PointBatch slices of whole (nu, r) planes: for
run_check a plane at each grid x (a one-point plane for a check with
no per-point residual), for export_plot a one-point plane at each
sample x (or one plane of samples at one x).  Per-x residuals are
formulas of their profiles' jets (`flatness_defect`, `ode2_residual`,
`F_ode_residual_chalf`, `ode3_first_integral`, the quartic's relative
residual), each profile evaluated once on a slice's x, then each formula
once on the slice's batched jets, with the bits of a float x in every
column (the bit rule of `jets`).  Errors come slice by slice, per-point
residuals first.  run_check wraps the per-component maxima in a
ResidualReport, whose flat, versioned JSON has a fixed key order and
17-significant-digit floats: identical invocations give identical bytes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .curvature import OneFormField, cotton, ew_residual
from .errors import DomainError, EwhError, StiffnessError
from .jets import Jet1, PointBatch
from .nearhorizon import (F_flat_from_h, F_from_h_field, F_ode_residual_chalf,
                          _FAMILIES, _NumericSide, _period_holds,
                          NearHorizonData, ScalarField1D, build_family,
                          field_one, flatness_defect, named_h_field,
                          nh_metric, ode2_residual, ode3_first_integral,
                          ode4_condition, ode4_residual, ode4_rhs,
                          tanh_profile, thm1_F_field, weyl_oneform_generic)
from .pdeverify import (HyperCRParams, alignment, dkp_residual,
                        dkp_wp_potential, hypercr_residual,
                        hypercr_structures, hypercr_tanh_family,
                        prop4_structures)
from .specfun import _pole_free_cell, real_period

_AXIS_NAMES = ("nu", "r", "x")
_EW_NAMES = ("nunu", "nur", "nux", "rr", "rx", "xx")
_EW_IDX = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
# C_abc is antisymmetric in (b, c): the components are b < c
_COTTON_IDX = tuple((a, b, c) for a in range(3)
                    for b, c in ((0, 1), (0, 2), (1, 2)))
_COTTON_NAMES = tuple(f"{_AXIS_NAMES[a]}.{_AXIS_NAMES[b]}_{_AXIS_NAMES[c]}"
                      for a, b, c in _COTTON_IDX)

# fixed off-axis slice for 1D plot sweeps, and the x range they ask for
_PLOT_NU = 0.3
_PLOT_R = 0.7
_PLOT_X = (-3.0, 3.0)

# points per PointBatch of the grid walker, at most.  Its curvature
# assembly takes about 13 KB per point (Cotton's, traced).  128 takes the
# default 125-point grid in one batch, and fits the Jet3 product's
# workspace (jets._WORK_COLS)
_PLANE_SLICE = 128


def thread_count() -> int:
    """Worker count of the grid reduction, which is serial.  perfbench
    still records it."""
    return 1


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Per-axis (min, max, count) sampling; x = None defers to the
    check's admissible window."""

    nu: tuple = (-1.0, 1.0, 5)
    r: tuple = (-1.0, 1.0, 5)
    x: tuple = None

    def __post_init__(self):
        for name, axis in (("nu", self.nu), ("r", self.r), ("x", self.x)):
            if axis is None:
                continue
            lo, hi, n = axis
            if n < 2:
                raise DomainError(f"grid axis {name}: count {n} < 2")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise DomainError(f"grid axis {name}: bounds must be "
                                  f"finite, got [{lo!r}, {hi!r}]")
            if not lo < hi:
                raise DomainError(f"grid axis {name}: need min < max, "
                                  f"got [{lo!r}, {hi!r}]")

    def resolve_x(self, window, count: int = 5) -> tuple:
        """The x axis: explicit spec, else the window shrunk 5 percent
        per side (finite), or a 3-unit span at a finite edge, or
        [-1, 1] when the window is the whole line."""
        if self.x is not None:
            return self.x
        lo, hi = window
        if math.isfinite(lo) and math.isfinite(hi):
            span = hi - lo
            return (lo + 0.05 * span, hi - 0.05 * span, count)
        if math.isfinite(lo):
            return (lo + 0.3, lo + 3.3, count)
        if math.isfinite(hi):
            return (hi - 3.3, hi - 0.3, count)
        return (-1.0, 1.0, count)


def _axis_values(axis):
    lo, hi, n = axis
    return [float(v) for v in np.linspace(lo, hi, int(n))]


def _nonzero_x_interval(h: ScalarField1D, base: tuple) -> tuple:
    """Longest contiguous sub-interval of `base` with |h| > 1e-3,
    shrunk 10 percent per side; used where F = (...)/2h divides by h."""
    lo, hi, n = base
    grid = np.linspace(lo, hi, 201)
    xs = grid.tolist()
    try:
        good = (np.abs(h.at(grid).value) > 1e-3).tolist()
    except EwhError:  # x by x: an x that raises is not good
        good = [bool(_skipping(lambda x: abs(h(x).value) > 1e-3, x, True))
                for x in xs]
    best, start = (0, 0), 0  # first longest run of good samples
    for i, g in enumerate(good + [False]):
        if not g:
            if i - 1 - start > best[1] - best[0]:
                best = (start, i - 1)
            start = i + 1
    if best[1] <= best[0]:
        raise DomainError("no sub-interval with |h| > 1e-3 in the window")
    a, b = xs[best[0]], xs[best[1]]
    pad = 0.1 * (b - a)
    return (a + pad, b - pad, n)


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

def _fmt_float(v: float) -> str:
    return f"{v:.17g}"


def _fmt_json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        # JSON has no NaN or infinity
        return _fmt_float(float(v)) if math.isfinite(v) else "null"
    return json.dumps(str(v))


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one verification check.

    `components` maps residual names to max-abs values over the grid;
    `overall_max` is their maximum and `status` compares it against
    `tolerance`.  JSON serialization is deterministic (fixed key order,
    fixed float format) and excludes the wall time.
    """

    check: str
    claim: str
    grid: dict
    components: dict
    tolerance: float
    expect_fail: bool
    params: dict
    version: str
    wall_time_s: float

    @property
    def overall_max(self) -> float:
        # np.max, unlike the builtin, propagates NaN: a NaN fails
        return float(np.max(list(self.components.values())))

    @property
    def passed(self) -> bool:
        return self.overall_max < self.tolerance

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def json_items(self):
        items = [("schema", 1), ("tool", "ewh"), ("version", self.version),
                 ("check", self.check), ("claim", self.claim),
                 ("status", self.status), ("expect_fail", self.expect_fail),
                 ("tolerance", float(self.tolerance)),
                 ("overall_max", float(self.overall_max))]
        for axis in _AXIS_NAMES:
            if axis not in self.grid:
                continue
            lo, hi, n = self.grid[axis]
            items.append((f"grid.{axis}.min", float(lo)))
            items.append((f"grid.{axis}.max", float(hi)))
            items.append((f"grid.{axis}.count", int(n)))
        for name, v in self.components.items():
            items.append((f"component.{name}", float(v)))
        for name in sorted(self.params):
            items.append((f"param.{name}", self.params[name]))
        return items

    def to_json(self) -> str:
        body = ",\n".join(f'  "{k}": {_fmt_json_value(v)}'
                          for k, v in self.json_items())
        return "{\n" + body + "\n}\n"

    def to_csv(self) -> str:
        lines = ["component,value"]
        lines += [f"{k},{_fmt_float(float(v))}"
                  for k, v in self.components.items()]
        return "\n".join(lines) + "\n"

    def human(self) -> str:
        width = max(len(k) for k in self.components)
        lines = [f"check     : {self.check}",
                 f"claim     : {self.claim}",
                 f"status    : {self.status.upper()}"
                 + (" (expected fail)" if self.expect_fail else ""),
                 f"tolerance : {self.tolerance:.3e}",
                 f"overall   : {self.overall_max:.6e}"]
        for axis in _AXIS_NAMES:
            if axis in self.grid:
                lo, hi, n = self.grid[axis]
                lines.append(f"grid {axis:4s} : [{lo:g}, {hi:g}] x {n}")
        for k, v in self.components.items():
            lines.append(f"  {k:<{width}s} = {v:.6e}")
        if self.params:
            ptxt = " ".join(f"{k}={self.params[k]}"
                            for k in sorted(self.params))
            lines.append(f"params    : {ptxt}")
        lines.append(f"wall time : {self.wall_time_s:.3f} s")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# the check registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Residual:
    """One residual evaluator of a check.

    Per point (no `fields`), `fn` maps a grid point or a PointBatch to a
    residual value or array (per point along a trailing batch axis).
    Per x, `fn` is a formula of the Jet1s of its `fields` (profiles):
    one value at one x, an array (one pass) over batched jets.  Component
    `names[k]` is |entry `index[k]`| of the value, or |value| if `index`
    is None.
    """

    names: tuple
    fn: object
    index: tuple = None
    fields: tuple = ()

    def values(self, q) -> list:
        """The components at q: a point or a PointBatch, or for a per-x
        residual an x or an array of x, where each field is evaluated
        once with `at` and `fn` runs once on their jets, at an array in
        one pass (`test_a_per_x_residual_runs_its_formula_once_per_array`)
        with the bits of the float path in each column."""
        args = [f.at(q) for f in self.fields] or [q]  # per x, or per point
        vals = np.abs(np.asarray(self.fn(*args), dtype=float))
        return [vals] if self.index is None else [vals[i] for i in self.index]


@dataclass(frozen=True)
class Setup:
    """A check built for one parameter set.

    `residuals[0]` is the evaluator export-plot sweeps.  `profiles` is
    the (h or None, F) pair a profile sweep tabulates beside it;
    `narrow`, when set, shrinks the default x axis (never an explicit
    one).
    """

    claim: str
    window: tuple
    tolerance: float
    params: dict
    residuals: tuple
    profiles: tuple = None
    narrow: object = None


@dataclass(frozen=True)
class Check:
    """A registry entry: parameters with their defaults (None: absent
    unless given) and `build(params) -> Setup`.  With `skip`, grid
    points whose evaluation raises EwhError are skipped rather than
    failing the check."""

    params: dict
    build: object
    skip: bool = False


def _ew(g, X, prefix=""):
    return Residual(tuple(prefix + n for n in _EW_NAMES),
                    lambda q: ew_residual(g, X, q), _EW_IDX)


def _ode4_relative(hj, c):
    """Quartic residual relative to its monomial scale floored at 1 (a
    NaN one too), so the absolute residual on order-unity data."""
    with np.errstate(invalid="ignore"):  # inf / inf is NaN, as in floats
        return abs(ode4_residual(hj, c)) / np.fmax(1.0, ode4_condition(hj, c))


def _build_thm1(p):
    h = named_h_field(p["h"])
    F = thm1_F_field(h, p["a"], p["b"], x0=p["x0"])
    d = NearHorizonData(h=h, F=F, c=-0.5)
    X = weyl_oneform_generic(d)
    if "perturb" in p:  # a scaled one-form: the claim's negative control
        k, X0 = p["perturb"], X
        X = OneFormField(lambda q: [k * c for c in X0.components(q)],
                         label=f"{X0.label}*{k:g}")
    return Setup(
        claim=("the weierstrass-profile structure (h, F, c = -1/2) is "
               "einstein-weyl on its pole-free window"),
        window=d.window, tolerance=1e-8 if p["h"] == "zero" else 1e-5,
        params=p, residuals=(_ew(nh_metric(d), X),), profiles=(h, F))


# every parameter of any cataloged family, and c, which each one takes
# (build_family rejects the ones a given family does not declare)
_FAMILY_PARAMS = dict.fromkeys(["c"] + [k for _, defaults, _ in
                                        _FAMILIES.values() for k in defaults])


def _build_thm2(p):
    fam = build_family(p.pop("family"), **p)
    if fam.role != "h":
        raise DomainError("thm2-ode needs a profile (h) family")
    h = fam.field
    F = F_from_h_field(h, fam.c)
    d = NearHorizonData(h=h, F=F, c=fam.c)
    return Setup(
        claim=("profiles solving the quartic reduction give einstein-weyl "
               "data through the algebraic F"),
        window=fam.window,
        tolerance=1e-5 if fam.tag in ("NumericODE",
                                      "HypergeometricParametric") else 1e-8,
        params={"family": fam.tag, "c": fam.c, **fam.parameters},
        residuals=(_ew(nh_metric(d), weyl_oneform_generic(d)),
                   Residual(("ode4",), lambda hj: _ode4_relative(hj, fam.c),
                            fields=(h,))),
        profiles=(h, F),
        narrow=lambda axis: _nonzero_x_interval(h, axis))


def _build_prop1(p):
    h = named_h_field(p["h"])
    if p["F"] == "flat":
        F = F_flat_from_h(h, x0=p["x0"])
    elif p["F"] == "one":
        F = field_one()
    else:
        raise DomainError(f"prop1-iff F must be 'flat' or 'one', "
                          f"got {p['F']!r}")
    d = NearHorizonData(h=h, F=F, c=-0.5)
    g = nh_metric(d)
    residuals = (Residual(_COTTON_NAMES, lambda q: cotton(g, q), _COTTON_IDX),)
    # F = one reports Cotton only: its defect is the input, not a residual
    if p["F"] == "flat":
        residuals += (Residual(("defect",), flatness_defect, fields=(h, F)),)
    return Setup(
        claim=("the near-horizon metric is conformally flat exactly when "
               "F' = F h"),
        window=d.window, tolerance=1e-9, params=p, residuals=residuals,
        profiles=(h, F))


def _build_dkp(p):
    b = p["b"]
    T = real_period(b)
    a = p.get("a", 0.5 * T)
    u = dkp_wp_potential(a, b)
    return Setup(
        claim="u = -(r^2/2) wp(x + a; 0, b) solves the dkp equation",
        window=_pole_free_cell(a, b, 0.3), tolerance=1e-8,
        params={"a": a, "b": b},
        residuals=(Residual(("residual",), lambda q: dkp_residual(u, q)),))


def _build_hypercr(p):
    H = hypercr_tanh_family(HyperCRParams(**p))
    g, X = hypercr_structures(H)
    return Setup(
        claim=("the tanh^3 six-parameter potential family solves the "
               "hypercr equation and is einstein-weyl"),
        window=(-math.inf, math.inf), tolerance=1e-8, params=p,
        residuals=(Residual(("residual",), lambda q: hypercr_residual(H, q)),
                   _ew(g, X, prefix="ew.")))


def _build_prop4(p):
    c, ell, b = p["c"], p["ell"], p["b"]
    g, X = prop4_structures(c, ell, b)
    h = tanh_profile(c, ell, b)
    align = alignment(c, ell, b)
    return Setup(
        claim=("the tan-form tanh-profile structures are hypercr "
               "einstein-weyl and align with the near-horizon metric"),
        window=(-math.inf, math.inf), tolerance=1e-8, params=p,
        residuals=(_ew(g, X),
                   Residual(("alignment",), align),
                   Residual(("ode2",),
                            lambda hj: ode2_residual(hj, -2.0 * c, 0.0),
                            fields=(h,))))


def _build_chalf(p):
    h = named_h_field(p["h"])
    F = thm1_F_field(h, p["a"], p["b"], x0=p["x0"])
    return Setup(
        claim=("at c = -1/2 the einstein-weyl system collapses to one "
               "second-order equation for F"),
        window=F.window, tolerance=1e-8 if p["h"] == "zero" else 1e-5,
        params=p,
        residuals=(Residual(("residual",), F_ode_residual_chalf,
                            fields=(F, h)),),
        profiles=(h, F))


def _build_family(p, tag):
    fam = build_family(tag, **p)
    f = fam.field
    if fam.role == "h":
        residuals = (Residual(("ode4",),
                              lambda hj: _ode4_relative(hj, fam.c),
                              fields=(f,)),)
        fi = fam.info.get("first_integral")
        if fi is not None:
            residuals += (Residual(("first_integral",),
                                   lambda hj: ode3_first_integral(hj) - fi,
                                   fields=(f,)),)
        claim = (f"the {fam.tag} profile solves the quartic reduction "
                 f"with its cataloged c")
        profiles = (f, F_from_h_field(f, fam.c))
    else:
        zero = Jet1.constant(0.0)
        residuals = (Residual(("fode",),
                              lambda Fj: F_ode_residual_chalf(Fj, zero),
                              fields=(f,)),)
        claim = ("the weierstrass profile F satisfies 2 F'' = 12 F^2, "
                 "the h = 0 reduction at c = -1/2")
        profiles = (None, f)
    return Setup(claim=claim, window=fam.window,
                 tolerance=1e-5 if fam.tag == "NumericODE" else 1e-8,
                 params={"family": fam.tag, "c": fam.c, **fam.parameters},
                 residuals=residuals, profiles=profiles)


# A name ending in ":" is a prefix: "family:" matches "family:<tag>", and
# its build also receives the tag.
CHECKS = {
    "thm1": Check({"h": "zero", "a": 0.1, "b": 1.0, "x0": 0.0,
                   "perturb": None}, _build_thm1),
    "thm2-ode": Check({"family": "tanh", **_FAMILY_PARAMS}, _build_thm2),
    "prop1-iff": Check({"h": "one", "F": "flat", "x0": 0.0}, _build_prop1),
    "dkp": Check({"a": None, "b": 1.0}, _build_dkp),
    "hypercr-family": Check({"a": 1.0, "b": 2.0, "e": 0.3, "j": 0.5,
                             "k": -1.0, "l": 2.0}, _build_hypercr),
    "prop4": Check({"c": -1.0, "ell": -1.0, "b": 0.0}, _build_prop4),
    "chalf-Fode": Check({"h": "sin", "a": 0.1, "b": 1.0, "x0": 0.0},
                        _build_chalf),
    # off-window x are skipped: a catalog window is where the closed form
    # is defined, and an explicit --grid may reach past it
    "family:": Check(_FAMILY_PARAMS, _build_family, skip=True),
}


def _require_finite(values: dict):
    """Reject a non-finite number among `values` (name -> value)."""
    for name, v in values.items():
        if isinstance(v, (int, float)) and not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")


def _setup(check_id, params):
    """The registry entry of `check_id` and its Setup for `params`:
    defaults filled in (None ones left out), numbers as floats."""
    name, colon, tag = check_id.partition(":")
    check = CHECKS.get(name + colon)
    if check is None:
        known = ", ".join(n + "<tag>" if n.endswith(":") else n
                          for n in CHECKS)
        raise DomainError(f"unknown check {check_id!r}; known: {known}")
    params = dict(params or {})
    extra = set(params) - set(check.params)
    if extra:
        raise DomainError(
            f"check {check_id!r} does not accept parameter(s) "
            f"{sorted(extra)}; allowed: {sorted(check.params)}")
    p = {}
    for k, default in check.params.items():
        v = params.get(k, default)
        if v is not None:
            p[k] = v if isinstance(default, str) else float(v)
    _require_finite(p)
    return check, (check.build(p, tag) if colon else check.build(p))


def _values(group, q):
    """The components of the residuals of `group` at q: a point or an x,
    or a PointBatch or an array of x, and then each an array over them."""
    return [v for r in group for v in r.values(q)]


def _skipping(fn, q, skip):
    """fn(q), or None where it raises EwhError and `skip` is set."""
    try:
        return fn(q)
    except EwhError:
        if not skip:
            raise
        return None


def _batch_rows(group, batch, skip):
    """The _values at each point of `batch`, a PointBatch or an array of
    x, as one batch, else one by one: the first failing point (or x)
    raises, or with skip each one is None.  Going x by x, each field's
    memo keeps the jets of its float calls, so a sweep's profile cells
    read them there instead of evaluating them again."""
    try:
        return np.moveaxis(np.array(_values(group, batch)), -1, 0)
    except EwhError:
        qs = batch.points() if isinstance(batch, PointBatch) \
            else batch.tolist()
        return [_skipping(partial(_values, group), q, skip) for q in qs]


def _rows(residuals, nus, rs, xs, skip):
    """Walk the plane (nus[k], rs[k]) at each x of `xs`, x outermost, in
    slices of as many whole planes as fit in _PLANE_SLICE points (or one
    plane in PointBatches of that size).  Per slice, yield its x, the
    blocks of rows of the per-point residuals (one per PointBatch), then
    the block of the per-x residuals on the array of its x, each block
    one batch (`_batch_rows`): each profile is evaluated once per slice,
    and errors come slice by slice, per-point residuals first."""
    point_rs = [r for r in residuals if not r.fields]
    x_rs = [r for r in residuals if r.fields]
    n = len(nus)
    points = (np.tile(nus, len(xs)), np.tile(rs, len(xs)), np.repeat(xs, n))
    per = max(1, _PLANE_SLICE // n)
    for i in range(0, len(xs), per):
        xi = xs[i:i + per]
        end = (i + len(xi)) * n if point_rs else i * n
        point_blocks = [_batch_rows(point_rs, PointBatch(
            *(c[j:end][:_PLANE_SLICE] for c in points)), skip)
            for j in range(i * n, end, _PLANE_SLICE)]
        yield xi, point_blocks, \
            [_batch_rows(x_rs, np.array(xi), skip)] if x_rs else []


def _reduce(setup, grid, x_axis, skip):
    """Max |component| over the grid walked by `_rows`; NaN propagates.
    With `skip`, points raising EwhError are left out (DomainError if all).
    A check without per-point residuals walks a one-point plane, so its
    x axis (up to _PLANE_SLICE x) is one slice."""
    nu_axis, r_axis = _axis_values(grid.nu), _axis_values(grid.r)
    nus, rs = np.repeat(nu_axis, len(r_axis)), np.tile(r_axis, len(nu_axis))
    if all(r.fields for r in setup.residuals):
        nus, rs = nus[:1], rs[:1]
    slices = list(_rows(setup.residuals, nus, rs, _axis_values(x_axis),
                        skip))
    comps = {}
    # every check declares its per-point residuals first, so this keeps
    # the declared component order
    for k, per_x in ((1, False), (2, True)):
        names = [n for r in setup.residuals if bool(r.fields) == per_x
                 for n in r.names]
        rows = [row for s in slices for block in s[k] for row in block
                if row is not None]
        if names and not rows:
            raise DomainError(f"no grid point could be evaluated "
                              f"(window {setup.window!r})")
        if names:
            comps.update(zip(names, map(float, np.max(rows, axis=0))))
    return comps


def run_check(check_id: str, params: dict = None, grid: GridSpec = None,
              tolerance: float = None,
              expect_fail: bool = False) -> ResidualReport:
    """Run one named verification and wrap it in a ResidualReport."""
    grid = grid or GridSpec()
    t0 = time.perf_counter()
    _require_finite({"tolerance": tolerance})
    check, s = _setup(check_id, params)
    # checks without per-point residuals grid x only, and more densely
    x_only = all(r.fields for r in s.residuals)
    x_axis = grid.resolve_x(s.window, count=33 if x_only else 5)
    if grid.x is None and s.narrow is not None:
        x_axis = s.narrow(x_axis)
    comps = _reduce(s, grid, x_axis, check.skip)
    gridrec = {"x": x_axis} if x_only else \
        {"nu": grid.nu, "r": grid.r, "x": x_axis}
    return ResidualReport(
        check=check_id, claim=s.claim, grid=gridrec, components=comps,
        tolerance=float(tolerance) if tolerance is not None
        else s.tolerance,
        expect_fail=expect_fail, params=s.params, version=__version__,
        wall_time_s=time.perf_counter() - t0)


# --------------------------------------------------------------------------
# c-scan
# --------------------------------------------------------------------------

def scan_c(c_from: float, c_to: float, steps: int, seed: str = "quadratic",
           seed_params: dict = None, x0: float = 1.0,
           span: float = 6.0) -> list:
    """March c over [c_from, c_to] integrating the quartic profile ODE
    from a family seed jet; one row of
    (c, status, x_start, x_end, periodic, period) per value.

    Each side is a `_NumericSide` with h above the floor 1e-6 on the
    seed's sign (so a step that carries h across zero stops it): past
    |h| = 10 its tail in the regular (x, u, p_1, p_2, p_3; s) locates
    the unchanged caps, so x_end is still where |h| = 1e6 or |h'| = 1e8
    trips, to about 1e-11.  Each integration stops within 64 least steps
    (64e-14 * max(|x0|, |x0 +- span|, 1)) of a state its guard rejects,
    located on a trial step's dense output.

    Statuses: ok (full span), blowup (|h| or |h'| exceeded caps: a kept
    tail, or a rejected state past them), guard (h fell to the division
    floor on its seed's sign, or the step size collapsed, or its budget
    ran out, or its pace fell below the progress floor), singular-start (seed
    |h| <= 1e-6, nothing integrated); a row is the worst of its sides'
    `outcome`s.  A blowup row's profile leaves the caps inside the span,
    so it is not searched for a period; otherwise the forward side's
    knots bracket a first return (`_NumericSide.period`), confirmed on
    the two sides' dense output over two periods.  Only the two sides
    integrate: no read of them marches on.
    """
    if steps < 1:
        raise DomainError("scan-c needs steps >= 1")
    _require_finite({"c_from": c_from, "c_to": c_to, "x0": x0, "span": span,
                     **(seed_params or {})})
    fam = build_family(seed, **(seed_params or {}))
    if fam.role != "h":
        raise DomainError("scan-c seed must be a profile (h) family")
    lo, hi = fam.window
    if not lo <= x0 <= hi:
        raise DomainError(f"x0 = {x0!r} outside the seed window "
                          f"[{lo!r}, {hi!r}]")
    seed_jet = fam.field(x0)
    y0 = [seed_jet.derivative(k) for k in range(4)]
    cs = [float(v) for v in np.linspace(c_from, c_to, steps)] \
        if steps > 1 else [float(c_from)]
    rows = []
    for c in cs:
        if abs(y0[0]) <= 1e-6:
            rows.append((c, "singular-start", x0, x0, False, None))
            continue
        rhs, sides = ode4_rhs(c), []
        for target in (x0 + span, x0 - span):
            try:
                sides.append(_NumericSide(rhs, x0, y0, target, 1e-6,
                                          rtol=1e-10, atol=1e-12))
            except StiffnessError:
                sides.append(None)
        fwd, bwd = sides
        x_end, x_start = (x0 if s is None else s.edge for s in sides)
        flags = {"guard" if s is None else s.outcome for s in sides}
        status = ("blowup" if "blowup" in flags
                  else "guard" if "guard" in flags else "ok")
        period = None if fwd is None or status == "blowup" else fwd.period()
        periodic = period is not None and _period_holds(
            lambda x: (fwd if x >= x0 else bwd)(x)[:2].tolist(), x_start,
            period)
        if not periodic:
            period = None
        rows.append((c, status, x_start, x_end, periodic, period))
    return rows


def scan_rows_csv(rows) -> str:
    lines = ["c,status,x_start,x_end,periodic,period"]
    for c, status, x_start, x_end, periodic, period in rows:
        ptxt = "" if period is None else f"{period:.12g}"
        lines.append(f"{c:.12g},{status},{x_start:.12g},{x_end:.12g},"
                     f"{'true' if periodic else 'false'},{ptxt}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# plot export
# --------------------------------------------------------------------------

def _sweep_window(window):
    """Intersect the x range of a sweep with the admissible window;
    report whether clipping happened."""
    lo, hi = _PLOT_X
    wlo, whi = window
    # 2% of the window in from each finite end; a half-open window takes
    # 2% of the sweep's length inside it, so no sample sits on its edge
    if math.isfinite(wlo) and math.isfinite(whi):
        pad = 0.02 * (whi - wlo)
    else:
        pad = 0.02 * (min(hi, whi) - max(lo, wlo))
    a, b = max(lo, wlo + pad), min(hi, whi - pad)
    clipped = a > lo or b < hi
    if not a < b:
        raise DomainError(f"empty sweep range inside window {window!r}")
    return a, b, clipped


def _profile_cells(profiles, xs):
    """The (h, F) cells of the kept sweep samples at xs ("" for an absent
    h), one `at` per field: the walker has evaluated both on the slice,
    a per-point residual on its PointBatch and a per-x sweep through its
    fields, so this only formats them."""
    x = np.array(xs)
    return list(zip(*[[""] * len(xs) if f is None else
                      [f"{v:.12g}" for v in f.at(x).value.tolist()]
                      for f in profiles]))


def _worst_entries(block):
    """The largest component of each `_batch_rows` row (None if skipped)."""
    if isinstance(block, np.ndarray):
        return np.max(block, axis=1).tolist()
    return [None if row is None else float(np.max(row)) for row in block]


def export_plot(check_id: str, params: dict = None, axis: str = "x",
                samples: int = 200) -> list:
    """CSV lines for a 1D sweep of a check's first residual.

    Profile checks emit (x, h, F, residual) along x; PDE checks emit
    (axis, residual) along any axis; the residual cell is the largest of
    the components `run_check` reports for that residual.
    `_rows` walks a one-point plane (nu = 0.3, r = 0.7) at each sample
    x, or one plane of the samples at the window's middle x (or 0).  A
    sample whose evaluation raises EwhError is dropped where the check
    skips points; elsewhere the first failing sample's error propagates.
    A trailing `# window-clipped` comment marks sweeps truncated by the
    admissible window.
    """
    if samples < 2:
        raise DomainError("export-plot needs samples >= 2")
    if axis not in _AXIS_NAMES:
        raise DomainError(f"axis must be one of {_AXIS_NAMES}, got {axis!r}")
    check, s = _setup(check_id, params)
    if s.profiles and axis != "x":
        raise DomainError(f"check {check_id!r} sweeps x only")
    # a per-x sweep also reads the profiles of its cells, so a sample
    # whose cells fail is dropped (or raises) with its row
    sweep = r0 = s.residuals[0]
    if r0.fields:
        sweep = Residual(r0.names, lambda *j: r0.fn(*j[:len(r0.fields)]),
                         r0.index, r0.fields + tuple(
                             f for f in s.profiles or () if f is not None))
    a, b, clipped = _sweep_window(s.window) if axis == "x" \
        else (-1.0, 1.0, False)
    vs = [float(v) for v in np.linspace(a, b, samples)]
    plane, xs = [[_PLOT_NU], [_PLOT_R]], vs
    if axis != "x":
        plane = [[_PLOT_NU] * samples, [_PLOT_R] * samples]
        plane[_AXIS_NAMES.index(axis)] = vs
        xs = [0.5 * sum(s.window) if all(map(math.isfinite, s.window))
              else 0.0]
    worst, cells = [], []
    for xi, point_blocks, x_blocks in _rows((sweep,), *plane, xs,
                                            check.skip):
        slice_worst = [w for b in (*point_blocks, *x_blocks)
                       for w in _worst_entries(b)]
        worst += slice_worst
        if s.profiles:
            cells += _profile_cells(s.profiles, [
                x for x, w in zip(xi, slice_worst) if w is not None])
    kept = [(v, w) for v, w in zip(vs, worst) if w is not None]
    lines = ["x,h,F,residual" if s.profiles else f"{axis},residual"]
    lines += [",".join([f"{v:.12g}", *c, f"{w:.12g}"])
              for (v, w), c in zip(kept, cells or [()] * len(kept))]
    if clipped:
        lines.append("# window-clipped")
    return lines
