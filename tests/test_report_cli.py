"""Reporting layer and command line: deterministic serialization, grid
resolution, the exit-code contract, the c-scan, and plot export.

Exit codes are part of the public interface (0 verified, 2 not
verified, 1 usage or runtime error) and are asserted by driving
``cli.main`` in process.
"""

import json
import math
from collections import Counter
from functools import reduce
from operator import add

import numpy as np
import pytest

from ewhorizon import cli, curvature, odesolve, pdeverify, report
from ewhorizon.errors import DomainError, SingularJetError
from ewhorizon.jets import PointBatch
from ewhorizon.nearhorizon import ode4_monomials
from ewhorizon.odesolve import integrate
from ewhorizon.report import (GridSpec, ResidualReport, export_plot,
                              run_check, scan_c, scan_rows_csv, thread_count)

# ---------------------------------------------------------------------------
# worker-count policy


def test_thread_count_default(monkeypatch):
    monkeypatch.delenv("EWH_THREADS", raising=False)
    assert 1 <= thread_count() <= 4


# ---------------------------------------------------------------------------
# grid specification


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(nu=(-1.0, 1.0, 1))
    with pytest.raises(DomainError):
        GridSpec(r=(1.0, -1.0, 5))
    with pytest.raises(DomainError, match="grid axis nu"):
        GridSpec(nu=(-math.inf, 1.0, 5))
    with pytest.raises(DomainError, match="grid axis x"):
        GridSpec(x=(0.0, math.inf, 5))


def test_gridspec_resolve_x_branches():
    explicit = GridSpec(x=(0.0, 2.0, 7))
    assert explicit.resolve_x((-10.0, 10.0)) == (0.0, 2.0, 7)

    default = GridSpec()
    lo, hi, n = default.resolve_x((0.0, 2.0))
    assert (lo, hi, n) == (0.1, 1.9, 5)
    assert default.resolve_x((1.0, math.inf)) == (1.3, 4.3, 5)
    assert default.resolve_x((-math.inf, 1.0)) == (-2.3, 0.7, 5)
    assert default.resolve_x((-math.inf, math.inf), count=9) == (-1.0, 1.0, 9)


# ---------------------------------------------------------------------------
# report objects


def test_run_check_report_shape():
    rep = run_check("thm1", {})
    assert rep.check == "thm1"
    assert rep.status == "pass"
    assert set(rep.components) == {"nunu", "nur", "nux", "rr", "rx", "xx"}
    assert rep.overall_max == max(rep.components.values())
    assert rep.overall_max < rep.tolerance
    assert rep.wall_time_s >= 0.0


def test_run_check_unknown_check_and_param():
    with pytest.raises(DomainError):
        run_check("nope", {})
    with pytest.raises(DomainError):
        run_check("thm1", {"gamma": 2.0})


def test_json_fixed_key_order():
    rep = run_check("thm1", {"h": "sin"})
    keys = list(json.loads(rep.to_json()))
    head = ["schema", "tool", "version", "check", "claim", "status",
            "expect_fail", "tolerance", "overall_max"]
    assert keys[:9] == head
    grid_keys = [k for k in keys if k.startswith("grid.")]
    assert grid_keys == ["grid.nu.min", "grid.nu.max", "grid.nu.count",
                         "grid.r.min", "grid.r.max", "grid.r.count",
                         "grid.x.min", "grid.x.max", "grid.x.count"]
    comp_keys = [k for k in keys if k.startswith("component.")]
    assert comp_keys == ["component.nunu", "component.nur", "component.nux",
                         "component.rr", "component.rx", "component.xx"]
    param_keys = [k for k in keys if k.startswith("param.")]
    assert param_keys == sorted(param_keys)
    assert "wall_time_s" not in keys


def test_json_deterministic_across_runs_and_threads():
    first = run_check("thm1", {}).to_json()
    second = run_check("thm1", {}).to_json()
    assert first == second

    doc = json.loads(first)
    assert doc["schema"] == 1
    assert doc["tool"] == "ewh"
    assert doc["status"] == "pass"
    # 17 significant digits round-trip every double exactly.
    rep = run_check("thm1", {})
    assert doc["overall_max"] == rep.overall_max


def test_report_csv_shape():
    rep = run_check("thm1", {})
    lines = rep.to_csv().splitlines()
    assert lines[0] == "component,value"
    assert len(lines) == 1 + len(rep.components)
    name, val = lines[1].split(",")
    assert name == "nunu"
    assert float(val) == rep.components["nunu"]


def test_family_check_near_pole_conditioning():
    # The jacobi profile has poles at both window edges; close to them
    # the quartic monomials reach ~1e8 and a true solution's residual is
    # their cancellation noise.  The reported component is relative to
    # the monomial scale, so the check must still verify.
    rep = run_check("family:jacobi", {"m": 1.3, "c": -0.5, "b": 0.2})
    assert rep.passed
    assert rep.components["ode4"] < 1e-10


def test_thm1_b_zero_grid_stays_on_the_pole_side_of_its_window():
    # G = x and a = 0.7: wp = 1/(x + 0.7)^2 has its pole at x = -0.7,
    # so the default x axis must start right of it
    rep = run_check("thm1", {"b": 0.0, "a": 0.7})
    assert rep.grid["x"][0] > -0.7
    assert rep.passed


def test_thm2_hypergeometric_profile_verifies():
    rep = run_check("thm2-ode", {"family": "hypergeometric"})
    assert rep.passed


def test_nan_component_fails_the_check():
    # The builtin max drops a NaN that is not first; the verdict must not.
    rep = ResidualReport(check="x", claim="", grid={},
                         components={"a": 1e-20, "b": math.nan,
                                     "c": math.inf},
                         tolerance=1e-8, expect_fail=False, params={},
                         version="0", wall_time_s=0.0)
    assert math.isnan(rep.overall_max)
    assert rep.status == "fail"
    # JSON has no NaN or infinity: they are written as null
    doc = json.loads(rep.to_json())
    assert doc["status"] == "fail"
    assert doc["overall_max"] is None
    assert doc["component.a"] == 1e-20
    assert doc["component.b"] is None and doc["component.c"] is None


def test_expect_fail_flips_status_label():
    rep = run_check("prop1-iff", {"F": "one"}, expect_fail=True)
    assert not rep.passed
    assert rep.status == "fail"


# ---------------------------------------------------------------------------
# exit-code contract


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_verify_pass(capsys):
    code, out, err = run_cli(["verify", "thm1", "--quiet"], capsys)
    assert code == 0
    assert err == ""


def test_cli_verify_unexpected_pass(capsys):
    code, _, _ = run_cli(["verify", "thm1", "--quiet", "--expect-fail"],
                         capsys)
    assert code == 2


def test_cli_verify_fail(capsys):
    code, out, _ = run_cli(["verify", "prop1-iff", "--F", "one"], capsys)
    assert code == 2
    assert "FAIL" in out


def test_cli_verify_expected_fail(capsys):
    code, _, _ = run_cli(["verify", "prop1-iff", "--F", "one",
                          "--expect-fail", "--quiet"], capsys)
    assert code == 0


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["verify", "nope"],
    ["verify", "thm1", "--gamma", "2"],
    ["verify", "thm1", "--grid", "nu=1:-1:5"],
    ["verify", "thm1", "--grid", "bogus"],
    ["scan-c", "--from", "0", "--to", "1", "--steps", "0"],
    ["export-plot", "thm1", "--axis", "r"],
    # no x of this grid lies in the tan window: not a vacuous PASS
    ["verify", "family:tan", "--grid", "x=50:60:5"],
    # non-finite numbers from outside are rejected, not evaluated
    ["verify", "thm1", "--a", "inf"],
    ["export-plot", "dkp", "--b", "inf"],
    ["scan-c", "--from", "0", "--to", "1", "--seed", "tanh", "--b", "inf"],
    ["verify", "prop1-iff", "--F", "one", "--tol", "inf"],
    # a family rejects the parameters of other families, and a wrong c
    # claim on a family whose c is cataloged
    ["verify", "family:linear", "--gamma", "5"],
    ["verify", "thm2-ode", "--family", "tanh", "--m", "7"],
    ["scan-c", "--from", "0", "--to", "0", "--steps", "1", "--seed", "tanh",
     "--gamma", "9"],
    ["verify", "family:linear", "--c", "2"],
    # --x0 and --span are the scan's own; the numeric seed takes both too
    ["scan-c", "--from", "0", "--to", "0", "--steps", "1", "--seed",
     "numeric", "--x0", "0.5", "--span", "1"],
    # F = exp(x^2/2) overflows a float there: an error, not a traceback
    ["verify", "prop1-iff", "--h", "linear", "--grid", "x=40:45:5"],
])
def test_cli_usage_errors(capsys, argv):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("ewh: error:")


def test_cli_json_output_is_byte_stable(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run_cli(["verify", "thm1", "--h", "sin", "--quiet",
                              "--json", str(p)], capsys)
        assert code == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["schema"] == 1 and doc["check"] == "thm1"
    assert doc["param.h"] == "sin"


def test_cli_hypercr_l_flag(tmp_path, capsys):
    # --l sets hyperCR's l; --ell is a separate flag (prop4's ell).
    out = tmp_path / "h.json"
    code, _, _ = run_cli(["verify", "hypercr-family", "--l", "2.5",
                          "--quiet", "--json", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["param.l"] == 2.5


def test_cli_csv_output(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, _ = run_cli(["verify", "thm1", "--quiet", "--csv", str(out)],
                         capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "component,value"
    assert len(lines) == 7


def test_cli_human_report_fields(capsys):
    code, out, _ = run_cli(["verify", "thm1"], capsys)
    assert code == 0
    assert "check     : thm1" in out
    assert "status    : PASS" in out
    assert "overall" in out


# ---------------------------------------------------------------------------
# the c scan


def test_scan_c_ok_full_span():
    # A profile whose zero lies outside the marched range integrates
    # cleanly across the whole span.
    rows = scan_c(-1.0, -1.0, 1, seed="tanh", seed_params={"b": 6.0})
    assert len(rows) == 1
    c, status, x_start, x_end, periodic, period = rows[0]
    assert (c, status) == (-1.0, "ok")
    assert (x_start, x_end) == (-5.0, 7.0)
    assert periodic is False and period is None


def test_scan_c_stops_at_profile_zero():
    # The same profile centered at the origin dies where h crosses zero:
    # stop and report rather than step across the singular locus.
    rows = scan_c(-1.0, -1.0, 1, seed="tanh", seed_params={})
    c, status, x_start, x_end, _, _ = rows[0]
    assert status == "guard"
    assert 0.0 <= x_start <= 1e-3
    assert x_end == 7.0


# (seed, seed params) at c = -1: the scan_rows_csv line, then the
# accepted knots and rhs calls of the forward and backward integrations,
# as first recorded.  Guards the DOPRI step against any change of bits.
_SCAN_PINS = [
    ("quadratic", {}, "-1,blowup,0.327461248874,1.95141343416,false,",
     (1455, 221), (8906, 1616)),
    ("tanh", {}, "-1,guard,1.00000506372e-06,7,false,",
     (299, 160), (1790, 1286)),
    ("tanh", {"b": 6.0}, "-1,ok,-5,7,false,", (49, 284), (290, 1700)),
]


@pytest.mark.parametrize("seed, params, line, knots, rhs_calls", _SCAN_PINS,
                         ids=["quadratic", "tanh", "tanh-b6"])
def test_scan_c_is_deterministic(monkeypatch, seed, params, line, knots,
                                 rhs_calls):
    runs = []

    def counting(spec, x_end):
        calls, rhs = [0], spec.rhs

        def counted(x, y):
            calls[0] += 1
            return rhs(x, y)

        spec.rhs = counted
        try:
            traj = integrate(spec, x_end)
        finally:
            spec.rhs = rhs
        runs.append((len(traj.xs), calls[0]))
        return traj

    monkeypatch.setattr(report, "integrate", counting)
    rows = scan_c(-1.0, -1.0, 1, seed=seed, seed_params=params)
    assert scan_rows_csv(rows).splitlines()[1] == line
    assert tuple(n for n, _ in runs) == knots
    assert tuple(r for _, r in runs) == rhs_calls


def test_scan_c_reports_a_spent_step_budget_as_guard(monkeypatch):
    # at c = 1e6 the tanh seed's steps shrink to ~5e-7: the budget, not
    # the span, ends both sides, long before any blowup
    monkeypatch.setattr(odesolve, "_MAX_STEPS", 1000)
    assert scan_c(1e6, 1e6, 1, seed="tanh") == [
        (1e6, "guard", 1.0, 1.0, False, None)]


def test_quartic_rhs_is_the_numpy_scalar_form_bit_for_bit():
    # scan-c's rhs multiplies Python floats; it must keep the exact bits
    # of the numpy-scalar form it replaced
    rng = np.random.default_rng(20261018)
    for _ in range(3000):
        c = float(rng.uniform(-3.0, 3.0))
        y = rng.standard_normal(4) * 10.0 ** rng.uniform(-6, 6, 4)
        h0, h1, h2, h3 = y
        top = reduce(add, ode4_monomials(h0, h1, h2, h3, c))
        want = np.array([h1, h2, h3, 4.0 * top / (h0 * h0)])
        got = report._quartic_rhs_factory(c)(0.0, y)
        assert got.tobytes() == want.tobytes()


def test_scan_c_singular_start():
    rows = scan_c(0.0, 1.0, 3, seed="quadratic", seed_params={"b": 1.0})
    assert [r[1] for r in rows] == ["singular-start"] * 3
    assert all(r[2] == r[3] == 1.0 for r in rows)


def test_scan_c_statuses_form_known_set():
    rows = scan_c(-1.0, 2.0, 7, seed="quadratic", seed_params={})
    assert len(rows) == 7
    allowed = {"ok", "guard", "blowup", "singular-start"}
    assert {r[1] for r in rows} <= allowed
    cs = [r[0] for r in rows]
    assert cs == sorted(cs)
    assert cs[0] == -1.0 and cs[-1] == 2.0


def test_scan_c_rejects_bad_input():
    with pytest.raises(DomainError):
        scan_c(0.0, 1.0, 0, seed="quadratic", seed_params={})
    with pytest.raises(DomainError):
        scan_c(0.0, 1.0, 2, seed="weierstrass", seed_params={})
    with pytest.raises(DomainError):
        scan_c(0.0, 1.0, 2, seed="tan", seed_params={}, x0=50.0,
               span=1.0)


def test_scan_c_infinite_starting_slope_is_a_guard_stop(capsys):
    # at c = 1e100 the seed's fourth derivative overflows the step-size
    # norm: a step-size collapse, reported as guard, not a traceback
    rows = scan_c(1e100, 1e100, 1)
    assert scan_rows_csv(rows).splitlines()[1] == "1e+100,guard,1,1,false,"
    code, out, _ = run_cli(["scan-c", "--from", "1e100", "--to", "1e100",
                            "--steps", "1"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "1e+100,guard,1,1,false,"

def test_scan_rows_csv_format():
    rows = [(0.5, "ok", -5.0, 7.0, True, 3.25),
            (1.0, "guard", 0.001, 7.0, False, None)]
    text = scan_rows_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "c,status,x_start,x_end,periodic,period"
    assert lines[1] == "0.5,ok,-5,7,true,3.25"
    assert lines[2] == "1,guard,0.001,7,false,"
    assert text.endswith("\n")


def test_cli_scan_c_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(["scan-c", "--from", "-1", "--to", "-1",
                          "--steps", "1", "--seed", "tanh", "--b", "6",
                          "--csv", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,status,x_start,x_end,periodic,period"
    assert lines[1].split(",")[1] == "ok"


# ---------------------------------------------------------------------------
# plot export


def test_export_plot_profile_rows():
    lines = export_plot("thm1", {}, samples=50)
    assert lines[0] == "x,h,F,residual"
    data = [ln for ln in lines if not ln.startswith(("x,", "#"))]
    assert len(data) == 50
    # Default window sits inside [-3, 3], so the sweep is clipped.
    assert lines[-1] == "# window-clipped"
    x0, h0, F0, r0 = data[0].split(",")
    assert float(h0) == 0.0
    assert float(r0) < 1e-8


def test_export_plot_family_columns():
    lines = export_plot("family:linear", {"ell": 2.0}, samples=10)
    data = [ln for ln in lines if not ln.startswith(("x,", "#"))]
    row = data[0].split(",")
    x, h = float(row[0]), float(row[1])
    assert abs(h - 2.0 * x) < 1e-12
    assert float(row[3]) < 1e-12


def test_export_plot_pde_axis_sweep():
    lines = export_plot("dkp", {}, axis="r", samples=40)
    assert lines[0] == "r,residual"
    data = [ln for ln in lines if "," in ln and not ln.startswith("r,")]
    assert len(data) == 40
    assert lines[-1] != "# window-clipped"
    assert all(float(ln.split(",")[1]) < 1e-8 for ln in data)
    vals = [float(ln.split(",")[0]) for ln in data]
    assert vals[0] == -1.0 and vals[-1] == 1.0


def test_export_plot_unbounded_window_not_clipped():
    lines = export_plot("prop4", {}, axis="x", samples=20)
    assert lines[0] == "x,residual"
    assert lines[-1] != "# window-clipped"
    data = lines[1:]
    assert len(data) == 20
    xs = [float(ln.split(",")[0]) for ln in data]
    assert xs[0] == -3.0 and xs[-1] == 3.0


def test_export_plot_validation():
    with pytest.raises(DomainError):
        export_plot("thm1", {}, samples=1)
    with pytest.raises(DomainError):
        export_plot("thm1", {}, axis="q")
    with pytest.raises(DomainError):
        export_plot("thm1", {}, axis="r")
    with pytest.raises(DomainError):
        export_plot("nope", {})
    with pytest.raises(DomainError, match="needs a profile"):
        export_plot("thm2-ode", {"family": "weierstrass"})
    with pytest.raises(DomainError):
        export_plot("prop1-iff", {"F": "bogus"})
    # h(0) = 0 divides F_from_h by zero at the middle sample; thm2-ode does
    # not skip points, so the sweep fails rather than dropping the row
    with pytest.raises(DomainError, match="F_from_h"):
        export_plot("thm2-ode", {"family": "tanh"}, samples=201)


def test_cli_export_plot_writes_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(["export-plot", "thm1", "--samples", "25",
                          "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,h,F,residual"
    assert len([ln for ln in lines if not ln.startswith(("x,", "#"))]) == 25


# ---------------------------------------------------------------------------
# profile evaluations


def _count_evaluations(setup, counts):
    """Wrap each profile field's evaluator to count its calls per x; one
    Counter per field is appended to `counts`."""
    for f in setup.profiles:
        if f is None:
            continue
        n, ev = Counter(), f.evaluator

        def counted(x, ev=ev, n=n):
            n[x] += 1
            return ev(x)

        counts.append(n)
        object.__setattr__(f, "evaluator", counted)


@pytest.mark.parametrize("check, params", [
    ("thm1", {"h": "sin"}),
    ("thm2-ode", {"family": "tanh"}),
    ("prop1-iff", {"h": "sin"}),
    ("chalf-Fode", {"h": "sin"}),
])
def test_run_check_evaluates_each_profile_once_per_grid_x(monkeypatch,
                                                          check, params):
    # counted from the grid reduction on, so thm2-ode's |h| probe, which
    # picks the x axis, is not counted
    counts, reduce_grid = [], report._reduce

    def counting(setup, *args):
        _count_evaluations(setup, counts)
        return reduce_grid(setup, *args)

    monkeypatch.setattr(report, "_reduce", counting)
    rep = run_check(check, params)
    xs = report._axis_values(rep.grid["x"])
    assert len(counts) == 2
    for n in counts:
        assert sorted(n) == xs
        assert set(n.values()) == {1}


def test_export_plot_evaluates_each_profile_once_per_sample(monkeypatch):
    counts, setup = [], report._setup

    def counting(*args):
        check, s = setup(*args)
        _count_evaluations(s, counts)
        return check, s

    monkeypatch.setattr(report, "_setup", counting)
    lines = export_plot("thm1", {"h": "sin"}, samples=200)
    xs = [float(ln.split(",")[0]) for ln in lines[1:] if ln[0] != "#"]
    assert len(counts) == 2
    for n in counts:
        assert sum(n.values()) == len(n) == 200
        assert [float(f"{x:.12g}") for x in n] == xs


def test_prop4_evaluates_each_tanh_profile_once_per_grid_x(monkeypatch):
    counts = []

    def counted_profile(*args, make=report.tanh_profile):
        f = make(*args)
        n, ev = Counter(), f.evaluator

        def counted(x):
            n[x] += 1
            return ev(x)

        counts.append(n)
        object.__setattr__(f, "evaluator", counted)
        return f

    for module in (report, pdeverify):
        monkeypatch.setattr(module, "tanh_profile", counted_profile)
    rep = run_check("prop4")
    assert counts
    for n in counts:
        assert sorted(n) == report._axis_values(rep.grid["x"])
        assert set(n.values()) == {1}


# ---------------------------------------------------------------------------
# one batch per (nu, r) plane

# every check with per-point residuals, with the parameter sets the
# benchmark verifies
_PLANE_CHECKS = [
    ("thm1", {"h": "zero"}), ("thm1", {"h": "sin"}),
    ("thm1", {"h": "sin", "perturb": 1.01}),
    *[("thm2-ode", {"family": f})
      for f in ("tanh", "rational", "jacobi", "tan", "numeric")],
    ("prop1-iff", {"h": "linear"}), ("prop1-iff", {"h": "sin"}),
    ("prop1-iff", {"F": "one"}), ("dkp", {}), ("hypercr-family", {}),
    ("prop4", {}),
]


def _plane(check, params, grid=GridSpec()):
    """The Setup of a check and the (nu, r) plane at its middle grid x."""
    _, s = report._setup(check, params)
    x_axis = grid.resolve_x(s.window)
    if s.narrow is not None:
        x_axis = s.narrow(x_axis)
    nus, rs = zip(*[(nu, r) for nu in report._axis_values(grid.nu)
                    for r in report._axis_values(grid.r)])
    return s, PointBatch(np.array(nus), np.array(rs),
                         report._axis_values(x_axis)[2])


def test_checks_have_per_point_residuals_listed():
    # the list above covers every registry entry with per-point residuals
    covered = {c for c, _ in _PLANE_CHECKS}
    for name in report.CHECKS:
        if name.endswith(":"):
            continue
        s = report._setup(name, {})[1]
        assert (name in covered) == any(not r.per_x for r in s.residuals)


@pytest.mark.parametrize("grid", [GridSpec(),
                                  GridSpec(nu=(-1.13, 0.91, 3),
                                           r=(-0.87, 1.19, 7)),
                                  GridSpec(nu=(-1.3, 0.7, 8),
                                           r=(-0.9, 1.1, 8))])
@pytest.mark.parametrize("check, params", _PLANE_CHECKS)
def test_plane_batch_equals_its_points_bit_for_bit(check, params, grid):
    s, batch = _plane(check, params, grid)
    for r in s.residuals:
        if r.per_x:
            continue
        got = np.asarray(r.fn(batch), dtype=float)
        want = np.stack([np.asarray(r.fn(q), dtype=float)
                         for q in batch.points()], axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("check", ["thm1", "prop1-iff", "prop4",
                                   "hypercr-family"])
def test_one_curvature_assembly_per_grid_x(monkeypatch, check):
    batches, init = [], curvature._Assembly.__init__

    def counting(self, g_jets, batch=(), label=""):
        batches.append(batch)
        init(self, g_jets, batch, label)

    monkeypatch.setattr(curvature._Assembly, "__init__", counting)
    run_check(check)
    # one geometric residual each (EW, or Cotton for prop1-iff), built
    # once per grid x over its 5 x 5 plane
    assert batches == [(25,)] * 5


def _failing_setup(bad):
    """A Setup whose one residual is 0, but raises at the points of
    `bad` (a set of (nu, r)), naming the point, and on a batch holding
    any of them, naming none."""

    def fn(q):
        if isinstance(q, PointBatch):
            if any((p.nu, p.r) in bad for p in q.points()):
                raise SingularJetError("somewhere in the batch")
            return np.zeros(q.size)
        if (q.nu, q.r) in bad:
            raise SingularJetError(f"bad point {q.nu} {q.r}")
        return 0.0

    return report.Setup(claim="", window=(-1.0, 1.0), tolerance=1.0,
                        params={}, residuals=(report.Residual(("v",), fn),))


def test_batch_error_is_that_of_the_first_failing_point():
    grid = GridSpec()
    s = _failing_setup({(0.5, -1.0), (-0.5, 0.5)})
    with pytest.raises(SingularJetError, match="bad point -0.5 0.5"):
        report._reduce(s, grid, (-1.0, 1.0, 2), skip=False)
    # with skip, a failing plane keeps its other points
    assert report._reduce(s, grid, (-1.0, 1.0, 2), skip=True) == {"v": 0.0}
    s = _failing_setup({(nu, r) for nu in report._axis_values(grid.nu)
                        for r in report._axis_values(grid.r)})
    with pytest.raises(DomainError, match="no grid point"):
        report._reduce(s, grid, (-1.0, 1.0, 2), skip=True)


@pytest.mark.parametrize("size", [1, 7])
def test_sliced_plane_error_is_that_of_the_first_failing_point(monkeypatch,
                                                               size):
    # the failing points lie in the second and third slice of 7
    monkeypatch.setattr(report, "_PLANE_SLICE", size)
    s = _failing_setup({(0.5, -1.0), (-0.5, 0.5)})
    with pytest.raises(SingularJetError, match="bad point -0.5 0.5"):
        report._reduce(s, GridSpec(), (-1.0, 1.0, 2), skip=False)
    assert report._reduce(s, GridSpec(), (-1.0, 1.0, 2), skip=True) == {
        "v": 0.0}


def test_plane_is_assembled_in_slices(monkeypatch):
    batches, init = [], curvature._Assembly.__init__

    def counting(self, g_jets, batch=(), label=""):
        batches.append(batch)
        init(self, g_jets, batch, label)

    monkeypatch.setattr(curvature._Assembly, "__init__", counting)
    monkeypatch.setattr(report, "_PLANE_SLICE", 7)
    run_check("thm1", grid=GridSpec(nu=(-1.0, 1.0, 9), r=(-1.0, 1.0, 9)))
    assert batches == ([(7,)] * 11 + [(4,)]) * 5


@pytest.mark.parametrize("check, params", _PLANE_CHECKS)
def test_reports_are_identical_across_plane_slices(monkeypatch, check,
                                                   params):
    grid = GridSpec(nu=(-1.0, 1.0, 9), r=(-1.0, 1.0, 9))
    texts = set()
    for size in (1, 7, 81):
        monkeypatch.setattr(report, "_PLANE_SLICE", size)
        texts.add(run_check(check, params, grid=grid).to_json())
    assert len(texts) == 1
