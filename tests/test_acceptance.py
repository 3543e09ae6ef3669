"""Acceptance gate: twelve pinned criteria, one test and one printed
PASS/FAIL line per criterion.

Each criterion states a numerical threshold and a desk-scale runtime
budget; both are asserted.  The thresholds are frozen and must not be
loosened to accommodate implementation changes.
"""

import json
import math
import time

import numpy as np

from ewhorizon import cli
from ewhorizon.curvature import conformal_rescale, cotton, ew_residual
from ewhorizon.jets import Jet1, Jet3, Point, fd_oracle
from ewhorizon.nearhorizon import (F_from_h_field, NearHorizonData,
                                   ScalarField1D, abel_parametric,
                                   build_family, named_h_field, nh_metric,
                                   ode2_jet, ode3_first_integral,
                                   ode4_residual, reduction_consistency,
                                   thm1_structure, weyl_oneform_generic)
from ewhorizon.pdeverify import (HyperCRParams, alignment_defect,
                                 dkp_residual, dkp_wp_potential,
                                 hypercr_residual, hypercr_structures,
                                 hypercr_tanh_family, prop4_structures)
from ewhorizon.report import run_check
from ewhorizon.specfun import hyp2f1, real_period

from abel_reference import abel_parametric_jets

RNG_SEED = 20240919


def _line(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _grid_points(xs):
    return [Point(float(nu), float(r), float(x))
            for nu in np.linspace(-1.0, 1.0, 5)
            for r in np.linspace(-1.0, 1.0, 5)
            for x in xs]


def _ew_max(g, X, pts):
    return max(float(np.max(np.abs(ew_residual(g, X, p)))) for p in pts)


# ---------------------------------------------------------------------------


def test_criterion_01_weierstrass_family_positive():
    t0 = time.perf_counter()
    rep_zero = run_check("thm1", {"h": "zero"})
    t_zero = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep_sin = run_check("thm1", {"h": "sin"})
    t_sin = time.perf_counter() - t0
    ok = (rep_zero.overall_max < 1e-8 and rep_sin.overall_max < 1e-5
          and t_zero < 2.0 and t_sin < 2.0)
    _line(1, ok, f"h=0 max {rep_zero.overall_max:.3e} ({t_zero:.2f}s), "
                 f"h=sin max {rep_sin.overall_max:.3e} ({t_sin:.2f}s)")


def test_criterion_02_weierstrass_negative_control():
    t0 = time.perf_counter()
    rep = run_check("thm1", {"h": "zero", "perturb": 1.01},
                    expect_fail=True)
    dt = time.perf_counter() - t0
    ok = rep.overall_max > 1e-4 and dt < 2.0
    _line(2, ok, f"1.01 X max {rep.overall_max:.3e} ({dt:.2f}s)")


def test_criterion_03_conformal_flatness_both_directions():
    worst_pos, t_max = 0.0, 0.0
    for hname in ("one", "sin", "linear"):
        t0 = time.perf_counter()
        rep = run_check("prop1-iff", {"h": hname})
        t_max = max(t_max, time.perf_counter() - t0)
        worst_pos = max(worst_pos, rep.overall_max)
    t0 = time.perf_counter()
    bad = run_check("prop1-iff", {"h": "one", "F": "one"},
                    expect_fail=True)
    t_max = max(t_max, time.perf_counter() - t0)
    ok = worst_pos < 1e-9 and bad.overall_max > 1e-4 and t_max < 2.0
    _line(3, ok, f"flat-F Cotton max {worst_pos:.3e}, "
                 f"(1,1) Cotton max {bad.overall_max:.3e} "
                 f"(slowest {t_max:.2f}s)")


def test_criterion_04_quartic_families_across_c():
    cases = {
        -1.0: ("tanh", {}, np.linspace(0.5, 2.5, 5)),
        0.0: ("rational", {"gamma": 1.0, "b": 0.0},
              np.linspace(0.7, 2.7, 5)),
        1.0: ("linear", {}, np.linspace(0.5, 2.5, 5)),
        2.0: ("jacobi", {"m": 1.0, "c": 2.0}, None),
    }
    details = []
    ok = True
    for c, (tag, kwargs, xs) in cases.items():
        t0 = time.perf_counter()
        fam = build_family(tag, **kwargs)
        if xs is None:
            lo, hi = fam.window
            span = hi - lo
            xs = np.linspace(lo + 0.2 * span, hi - 0.2 * span, 5)
        h = fam.field
        assert max(abs(ode4_residual(h(float(x)), c)) for x in xs) < 1e-9
        d = NearHorizonData(h=h, F=F_from_h_field(h, c), c=c)
        pts = _grid_points(xs)
        worst = _ew_max(nh_metric(d), weyl_oneform_generic(d), pts)

        hbad = ScalarField1D(
            lambda x, hh=h: hh.evaluator(x)
            + 1e-2 * Jet1.variable(x).sin(),
            label="perturbed")
        dbad = NearHorizonData(h=hbad, F=F_from_h_field(hbad, c), c=c)
        broken = _ew_max(nh_metric(dbad), weyl_oneform_generic(dbad), pts)
        dt = time.perf_counter() - t0
        ok = ok and worst < 1e-7 and broken > 1e-5 and dt < 5.0
        details.append(f"c={c:g}: {worst:.1e}/{broken:.1e} ({dt:.2f}s)")
    _line(4, ok, "EW/broken " + ", ".join(details))


def test_criterion_05_factorization_through_second_order():
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        alpha = float(rng.uniform(-3, 3))
        c = float(rng.uniform(-3, 3))
        beta = reduction_consistency(alpha, c)
        hj = ode2_jet(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)),
                      alpha, beta)
        worst = max(worst, abs(ode4_residual(hj, c)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 1.0
    _line(5, ok, f"200 draws, worst quartic residual {worst:.3e} "
                 f"({dt:.2f}s)")


def test_criterion_06_catalog_profiles_and_first_integrals():
    t0 = time.perf_counter()
    entries = [("linear", dict(ell=1.0, b=0.0)),
               ("quadratic", dict(b=0.0)),
               ("rational", dict(gamma=1.0, b=0.0)),
               ("rational", dict(gamma=2.0, b=0.0, alpha=1.0)),
               ("rational", dict(gamma=-1.0, b=0.0, alpha=1.0)),
               ("tan", dict(alpha=-1.0, ell=-0.5, b=0.0)),
               ("tanh", dict(c=-1.0, ell=-1.0, b=0.0))]
    worst = 0.0
    for tag, kwargs in entries:
        fam = build_family(tag, **kwargs)
        lo, hi = fam.window
        lo = lo if math.isfinite(lo) else -2.0
        hi = hi if math.isfinite(hi) else lo + 4.0
        span = hi - lo
        for x in np.linspace(lo + 0.12 * span, hi - 0.12 * span, 7):
            worst = max(worst, abs(ode4_residual(fam.field(float(x)),
                                                 fam.c)))
    lin = build_family("linear", ell=1.0, b=0.0)
    fi_lin = max(abs(ode3_first_integral(lin.field(x)) + 0.5)
                 for x in (0.5, 1.5, 3.0))
    fi_zero = max(abs(ode3_first_integral(fam.field(x)))
                  for fam in (build_family("quadratic", b=0.0),
                              build_family("rational", gamma=1.0, b=0.0))
                  for x in (0.5, 1.5, 3.0))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and fi_lin < 1e-12 and fi_zero < 1e-12 and dt < 1.0
    _line(6, ok, f"quartic worst {worst:.3e}, first integrals "
                 f"{fi_lin:.1e}/{fi_zero:.1e} ({dt:.2f}s)")


def test_criterion_07_abel_hypergeometric_cross_check():
    t0 = time.perf_counter()
    beta = 2.0
    zs = np.linspace(0.05, 0.6, 12)
    pref = math.sqrt(2.0) / (2.0 * beta ** 0.25)
    xs_ab, xs_hg, hs_err = [], [], 0.0
    for z in zs:
        y = math.sqrt(2.0 / (beta * z))
        h, x = abel_parametric(y, 0.0, beta, 1.0)
        xs_ab.append(x)
        xs_hg.append(pref * math.sqrt(z) * hyp2f1(0.5, 0.75, 1.5, float(z)))
        hs_err = max(hs_err,
                     abs(h - beta ** -0.25 * (1.0 - z) ** -0.25))
    dx = np.abs((np.array(xs_ab) - xs_ab[0])
                - (np.array(xs_hg) - xs_hg[0]))
    closed_form = float(np.max(dx))

    implicit = 0.0
    for y in np.linspace(1.5, 3.5, 7):
        hj, xd = abel_parametric_jets(float(y), 0.0, beta, 1.0)
        hy, hyy = hj.derivative(1), hj.derivative(2)
        xy, xyy = xd.value, xd.derivative(1)
        h1 = hy / xy
        h2 = (hyy * xy - hy * xyy) / xy ** 3
        implicit = max(implicit, abs(h2 - beta * hj.value ** 3))
    dt = time.perf_counter() - t0
    ok = closed_form < 1e-7 and hs_err < 1e-10 and implicit < 1e-6 \
        and dt < 2.0
    _line(7, ok, f"closed form dx {closed_form:.3e}, "
                 f"implicit ode2 {implicit:.3e} ({dt:.2f}s)")


def test_criterion_08_dkp_identity():
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    pts = _grid_points(np.linspace(-0.5, 0.5, 5))
    worst = 0.0
    for _ in range(10):
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        a = float(rng.uniform(0.35, 0.65)) * real_period(b)
        u = dkp_wp_potential(a, b)
        worst = max(worst, max(abs(dkp_residual(u, p)) for p in pts))
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 2.0
    _line(8, ok, f"10 random (a, b), worst dKP residual {worst:.3e} "
                 f"({dt:.2f}s)")


def test_criterion_09_hypercr_family_and_structures():
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    pts = _grid_points(np.linspace(-1.0, 1.0, 5))
    worst_res, worst_ew = 0.0, 0.0
    for _ in range(10):
        pr = HyperCRParams(a=float(rng.uniform(-2, 2)),
                           b=float(rng.choice([-1, 1])
                                   * rng.uniform(0.4, 2.0)),
                           e=float(rng.uniform(-1, 1)),
                           j=float(rng.uniform(-2, 2)),
                           k=float(rng.uniform(-2, 2)),
                           l=float(rng.uniform(-2, 2)))
        H = hypercr_tanh_family(pr)
        worst_res = max(worst_res,
                        max(abs(hypercr_residual(H, p)) for p in pts))
        g, X = hypercr_structures(H)
        worst_ew = max(worst_ew, _ew_max(g, X, pts[::5]))
    g4, x4 = prop4_structures(-1.0, -1.0, 0.0)
    prop4_ew = _ew_max(g4, x4, pts)
    align = max(alignment_defect(-1.0, -1.0, 0.0, p) for p in pts)
    dt = time.perf_counter() - t0
    ok = (worst_res < 1e-8 and worst_ew < 1e-8 and prop4_ew < 1e-8
          and align < 1e-12 and dt < 3.0)
    _line(9, ok, f"residual {worst_res:.1e}, EW {worst_ew:.1e}, "
                 f"prop4 EW {prop4_ew:.1e}, alignment {align:.1e} "
                 f"({dt:.2f}s)")


def test_criterion_10_jet_versus_finite_differences():
    rng = np.random.default_rng(RNG_SEED)
    indices = [(i, j, k)
               for i in range(4) for j in range(4) for k in range(4)
               if 1 <= i + j + k <= 3]
    t0 = time.perf_counter()
    worst, count = 0.0, 0
    while count < 1000:
        a = rng.uniform(-1.2, 1.2, size=6)
        kind = int(rng.integers(0, 5))

        def expr(p):
            nu = Jet3.variable(p, 0)
            r = Jet3.variable(p, 1)
            x = Jet3.variable(p, 2)
            t = a[0] * nu + a[1] * r + a[2] * x
            u = a[3] * nu * r + a[4] * x * x + a[5]
            if kind == 0:
                return t.sin() * u.cos()
            if kind == 1:
                return (0.5 * t.sin() + 0.3 * u).exp()
            if kind == 2:
                return t.tanh() + (u + 3.5).log()
            if kind == 3:
                return (1.0 + t * t).sqrt() * u.atan()
            return (2.0 + t.sin()).powr(1.7)

        p = Point(*(float(v) for v in rng.uniform(-0.8, 0.8, size=3)))
        jet = expr(p)
        for mi in rng.permutation(len(indices))[:4]:
            mi = indices[int(mi)]
            got = jet.partial(mi)
            ref = fd_oracle(lambda q: expr(q).value, p, mi)
            rel = abs(got - ref) / max(abs(ref), 1e-2)
            worst = max(worst, rel)
            count += 1
    dt = time.perf_counter() - t0
    ok = worst < 1e-5 and dt < 5.0
    _line(10, ok, f"{count} comparisons, worst relative error "
                  f"{worst:.3e} ({dt:.2f}s)")


def test_criterion_11_conformal_gauge_invariance():
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(3):
        cfs = rng.uniform(-0.6, 0.6, size=4)

        def ln_omega(p, cf=cfs):
            nu = Jet3.variable(p, 0)
            r = Jet3.variable(p, 1)
            x = Jet3.variable(p, 2)
            return 0.5 * (cf[0] * nu + cf[1] * r + cf[2] * x
                          + cf[3]).sin()

        d = thm1_structure(named_h_field("sin"), 0.1, 1.0)
        lo, hi = d.window
        span = hi - lo
        xs = np.linspace(lo + 0.1 * span, hi - 0.1 * span, 5)
        g, X = conformal_rescale(nh_metric(d), weyl_oneform_generic(d),
                                 ln_omega)
        worst = max(worst, _ew_max(g, X, _grid_points(xs)[::5]))

        g4, x4 = prop4_structures(-1.0, -1.0, 0.0)
        g4r, x4r = conformal_rescale(g4, x4, ln_omega)
        worst = max(worst,
                    _ew_max(g4r, x4r,
                            _grid_points(np.linspace(-1, 1, 5))[::5]))
    dt = time.perf_counter() - t0
    ok = worst < 1e-7 and dt < 2.0
    _line(11, ok, f"rescaled EW max {worst:.3e} ({dt:.2f}s)")


def test_criterion_12_deterministic_reports(tmp_path, capsys):
    stable = True
    for tag, argv in (("thm1", ["verify", "thm1", "--h", "sin"]),
                      ("hypercr", ["verify", "hypercr-family"])):
        paths = [tmp_path / f"{tag}-{i}.json" for i in (0, 1)]
        for p in paths:
            code = cli.main(argv + ["--quiet", "--json", str(p)])
            assert code == 0
        blobs = [p.read_bytes() for p in paths]
        stable = stable and blobs[0] == blobs[1]
        assert json.loads(blobs[0])["schema"] == 1
    capsys.readouterr()
    _line(12, stable, "verify JSON byte-identical across repeated runs")
