"""Reporting layer and command line: deterministic serialization, grid
resolution, the exit-code contract, the c-scan, and plot export.

Exit codes are part of the public interface (0 verified, 2 not
verified, 1 usage or runtime error) and are asserted by driving
``cli.main`` in process.
"""

import hashlib
import json
import math
import re
import time
import tracemalloc
import warnings
from collections import Counter
from functools import reduce
from operator import add

import numpy as np
import pytest

from ewhorizon import (cli, curvature, nearhorizon, odesolve, pdeverify,
                       report)
from ewhorizon.errors import (DomainError, EwhError, SingularJetError,
                              StiffnessError)
from ewhorizon.jets import N3, Jet1, Jet3, Point, PointBatch
from ewhorizon.nearhorizon import (ScalarField1D, field_const,
                                   ode4_monomials, ode4_rhs)
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


def test_nan_profile_fails_the_check_without_a_warning(monkeypatch):
    # a NaN entry of the metric (here r h, from h = NaN) is symmetric to
    # itself: the Cotton tensor comes out NaN, and the check fails
    nan_h = ScalarField1D(
        lambda x: Jet1(np.full((5,) + np.shape(x), math.nan)), label="nanh")
    monkeypatch.setitem(nearhorizon._NAMED_H, "nanh", lambda: nan_h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_check("prop1-iff", {"h": "nanh", "F": "one"})
    assert rep.status == "fail"
    assert math.isnan(rep.overall_max)
    assert all(math.isnan(v) for v in rep.components.values())


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
    # an axis given twice: neither spec is silently dropped
    ["verify", "thm1", "--grid", "nu=0:1:3,nu=0:2:3"],
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
# accepted knots and rhs calls of each integration (forward side first;
# the quadratic seed's forward x-march stops at |h| = 10 and its pole
# tail runs to the caps), as recorded when the step became DOP853's
# (the DOPRI5 step took 498, 83 and 217 knots, 299 and 154, and 49 and
# 284).  Guards the step against any change of bits.
_SCAN_PINS = [
    ("quadratic", {}, "-1,blowup,0.327461248875,1.95141343417,false,",
     (69, 20, 54), (848, 275, 1040)),
    ("tanh", {}, "-1,guard,1.00000042387e-06,7,false,", (49, 31), (578, 680)),
    ("tanh", {"b": 6.0}, "-1,ok,-5,7,false,", (18, 39), (206, 458)),
]


def _count_integrations(monkeypatch):
    """Patch the integrate of scan_c's sides to record (knots, rhs calls)
    per run, as the trajectory counts them."""
    runs = []

    def counting(spec, x_end):
        traj = integrate(spec, x_end)
        runs.append((len(traj.xs), traj.rhs_calls))
        return traj

    monkeypatch.setattr(nearhorizon, "integrate", counting)
    return runs


@pytest.mark.parametrize("seed, params, line, knots, rhs_calls", _SCAN_PINS,
                         ids=["quadratic", "tanh", "tanh-b6"])
def test_scan_c_is_deterministic(monkeypatch, seed, params, line, knots,
                                 rhs_calls):
    runs = _count_integrations(monkeypatch)
    rows = scan_c(-1.0, -1.0, 1, seed=seed, seed_params=params)
    assert scan_rows_csv(rows).splitlines()[1] == line
    assert tuple(n for n, _ in runs) == knots
    assert tuple(r for _, r in runs) == rhs_calls


def test_scan_c_benchmark_values_take_pinned_work(monkeypatch):
    # one scan per c, 13 per seed: the quadratic seed on [-1, 2], tanh on
    # [-2, 1]; 75 integrations (52 x-marches, 22 pole tails, one march
    # resumed at |h| = 10) whose knot and rhs totals are pinned.  Marching
    # into the caps in x they took 42 557 knots and 265 904 rhs calls,
    # halving trial steps toward each guard 27 044 and 184 140, with the
    # tableau summed by BLAS 26 451 and 161 178, and with the DOPRI5 step
    # summed in Python floats 26 447 and 161 148
    runs = _count_integrations(monkeypatch)
    for seed, lo, hi in (("quadratic", -1.0, 2.0), ("tanh", -2.0, 1.0)):
        for i in range(13):
            c = lo + (hi - lo) * i / 12
            scan_c(c, c, 1, seed=seed)
    assert len(runs) == 75
    assert sum(n for n, _ in runs) == 4916
    assert sum(r for _, r in runs) == 67794


def test_scan_c_reports_a_spent_step_budget_as_guard(monkeypatch):
    # at c = 1e6 the tanh seed's steps shrink to ~1e-7: the forward side
    # needs 179 attempted steps to reach |h| = 10, and the backward one
    # crawls, so a budget of 100, not the span, ends both sides, before
    # any blowup
    monkeypatch.setattr(odesolve, "_MAX_STEPS", 100)
    assert scan_c(1e6, 1e6, 1, seed="tanh") == [
        (1e6, "guard", 1.0, 1.0, False, None)]


def test_scan_c_stops_a_crawling_side_at_the_progress_floor(monkeypatch):
    # at c = 1e6 the tanh seed's steps shrink to ~1e-7 on both sides: the
    # forward side reaches |h| = 10 after 179 steps and its pole tail
    # runs to the caps in 4, and the first progress check stops the
    # backward side, long before its step budget
    work = []

    def counting(spec, x_end):
        try:
            traj = integrate(spec, x_end)
        except StiffnessError as e:
            work.append(str(e))
            raise
        work.append(traj.attempts)
        return traj

    monkeypatch.setattr(nearhorizon, "integrate", counting)
    t0 = time.perf_counter()
    assert scan_c(1e6, 1e6, 1, seed="tanh") == [
        (1e6, "blowup", 1.0, 1.000018804803085, False, None)]
    assert time.perf_counter() - t0 < 1.0
    assert work[:2] == [179, 4]
    assert work[2].startswith(
        f"{odesolve._FLOOR_EVERY} attempted steps covered ")


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
        got = np.array(ode4_rhs(c)(0.0, y.tolist()))
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


def test_scan_c_13_step_csv_bytes_are_pinned():
    # `ewh scan-c --from -1 --to 2 --steps 13`, as recorded when the step
    # became DOP853's
    text = scan_rows_csv(scan_c(-1.0, 2.0, 13))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2c4835f2a1742128fc944bd4955c0eefca585d1080216b8f7e7545f97f325d70")


# the scan-c benchmark's 26 rows as the x-march into the caps gave them,
# before the pole tails: statuses, periodic flags and periods must stay,
# and the edges within 1e-9 relative, or within the 64 least steps
# (64 * 1e-14 * max(|x0|, |x_end|, 1)) of its side to which a guard
# stop is defined, where that is wider (edges near x = 1e-3 and 1e-6)
_SCAN_BENCHMARK_ROWS = {
    "quadratic": [
        (-1.0, "blowup", 0.32746124887429484, 1.9514134341617002, False, None),
        (-0.75, "blowup", 0.3295474754714304, 2.0654380968725774, False, None),
        (-0.5, "blowup", 0.32961823245893584, 2.19708627369612, False, None),
        (-0.25, "blowup", 0.3271487599684064, 2.3415035985116535, False, None),
        (0.0, "blowup", 0.32125227709342424, 2.500320674115495, False, None),
        (0.25, "blowup", 0.31028493010701985, 2.6900707600647333, False, None),
        (0.5, "blowup", 0.2906838455712018, 2.9549908303253947, False, None),
        (0.75, "blowup", 0.2519402982933963, 3.4401147214532086, False, None),
        (1.0, "guard", 1e-3, 7.0, False, None),  # exact: h = x^2
        (1.25, "blowup", 0.07468529130269007, 2.461815415429398, False, None),
        (1.5, "blowup", 0.13914997298599344, 2.248003264969661, False, None),
        (1.75, "blowup", 0.19505824472103014, 2.1368757236183273, False, None),
        (2.0, "blowup", 0.24384843575139115, 2.063891979965484, False, None),
    ],
    "tanh": [
        (-2.0, "blowup", -0.24687216587195726, 7.0, False, None),
        (-1.75, "blowup", -0.4088107895511946, 7.0, False, None),
        (-1.5, "guard", -0.07454203085192013, 7.0, False, None),
        (-1.25, "guard", -0.022286770327219374, 7.0, False, None),
        (-1.0, "guard", math.atanh(1e-6), 7.0, False, None),  # exact
        (-0.75, "guard", 0.009341857637679354, 7.0, False, None),
        (-0.5, "guard", 0.011081357668609348, 7.0, False, None),
        (-0.25, "guard", 0.007566619407917197, 7.0, False, None),
        (0.0, "guard", 1.0000021773445301e-06, 7.0, False, None),
        (0.25, "guard", -0.010951229534964364, 7.0, False, None),
        (0.5, "blowup", -0.02491903747427281, 5.393118182596451, False, None),
        (0.75, "blowup", -0.041710110726366455, 4.062820517753858, False, None),
        (1.0, "blowup", -0.061252798077741, 3.40488865543298, False, None),
    ],
}


# quadratic c = 1 is h = x^2, which solves the quartic there: its
# backward edge is 1e-3 exactly, where h' = 2e-3.  The marched row's
# 0.0009999999806326449 was already 1.9e-11 from it, six times the bound
# below, so that edge is held to 1e-3 within the floor bound of
# tests/test_references.py instead: 1e-11 in h, so 5e-9 in x.  tanh
# c = -1 is h = -tanh x, whose backward edge is atanh(1e-6) exactly; the
# marched row's 1.0000050637201241e-06 was 5.1e-12 from it, so the table
# holds the exact edge, under the row's own bound
_EXACT_EDGE_BOUND = {("quadratic", 1.0, 1e-3): 1e-11 / 2e-3}


def test_scan_c_benchmark_rows_keep_the_marched_rows():
    for seed, (lo, hi) in (("quadratic", (-1.0, 2.0)), ("tanh", (-2.0, 1.0))):
        for i, want in enumerate(_SCAN_BENCHMARK_ROWS[seed]):
            c = lo + (hi - lo) * i / 12
            (got,) = scan_c(c, c, 1, seed=seed)
            assert (got[:2], got[4:]) == (want[:2], want[4:])
            # x0 = 1 and span 6: the sides end their spans at -5 and 7
            for g, w, end in zip(got[2:4], want[2:4], (5.0, 7.0)):
                bound = _EXACT_EDGE_BOUND.get(
                    (seed, c, w), max(1e-9 * abs(w), 64e-14 * end))
                assert abs(g - w) <= bound, (seed, c)


def _sides(monkeypatch):
    """Patch nearhorizon's _pole_tail to record whether each tail was
    kept, in the order scan_c's sides ran."""
    kept, tail = [], nearhorizon._pole_tail

    def recording(*args):
        t = tail(*args)
        kept.append(t is not None)
        return t

    monkeypatch.setattr(nearhorizon, "_pole_tail", recording)
    return kept


def test_scan_c_sides_whose_tail_falls_back_keep_the_marched_row(
        monkeypatch):
    kept = _sides(monkeypatch)
    # quadratic c = 1 is h = x^2: the forward side passes |h| = 10 at
    # x = sqrt(10), its tail would cross the span end, and the march
    # resumed there ends ok at x = 7 with h = 49
    assert scan_rows_csv(scan_c(1.0, 1.0, 1)).splitlines()[1] == \
        "1,guard,0.00100000006674,7,false,"
    assert kept == [False]
    # b = -3 puts h(x0) = 16: both tails start at x0.  The forward one
    # would cross the span end, the backward one falls back below
    # |h| = 10 towards the zero of h at x = -3; each side is then the
    # x-march from x0, and the row is the marched row to the bit
    kept.clear()
    assert scan_c(1.0, 1.0, 1, seed_params={"b": -3.0}) == [
        (1.0, "guard", -2.999000000360567, 7.0, False, None)]
    assert kept == [False, False]


def test_scan_c_tail_from_x0_keeps_the_marched_row(monkeypatch):
    # h(x0) = 16 at c = 0: the forward tail starts at x0 and is kept, so
    # the row is blowup and not searched for a period; the backward tail
    # falls back below |h| = 10, and that side marches to x0 - span
    kept = _sides(monkeypatch)
    ((c, status, x_start, x_end, periodic, period),) = scan_c(
        0.0, 0.0, 1, seed_params={"b": -3.0})
    assert kept == [True, False]
    assert (c, status, x_start, periodic, period) == (
        0.0, "blowup", -5.0, False, None)
    assert abs(x_end - 1.269117932387196) <= 1e-9 * 1.269117932387196


def test_scan_c_side_stiff_in_its_tail_keeps_the_marched_row(monkeypatch):
    # a tail that raises StiffnessError leaves the side to the march
    # resumed at |h| = 10, whose edge lies 9.6e-12 from the march's
    def stiff_tails(spec, x_end):
        if len(spec.y0) == 5:
            raise StiffnessError("stiff tail")
        return integrate(spec, x_end)

    monkeypatch.setattr(nearhorizon, "integrate", stiff_tails)
    ((c, status, x_start, x_end, periodic, period),) = scan_c(-1.0, -1.0, 1)
    assert scan_rows_csv([(c, status, x_start, x_end, periodic, period)]) \
        .splitlines()[1] == "-1,blowup,0.327461248875,1.95141343417,false,"
    assert x_start == 0.3274612488748864
    assert abs(x_end - 1.9514134341617002) <= 1e-9 * 1.9514134341617002


def test_scan_c_side_too_stiff_to_march_keeps_its_tail(monkeypatch):
    # at c = 40 with h(x0) = 16 the forward x-march needs 49 162 attempted
    # steps (about 1 s) to reach the caps at x = 3.0030, so a budget of
    # 20 000 would be spent at x = 2.9315; the tail from x0 reaches the
    # caps in 3 252, and the blowup row is not searched for a period, so
    # nothing marches past x0 in x (a period search that resumed the
    # march there took about 3 s)
    monkeypatch.setattr(odesolve, "_MAX_STEPS", 20_000)
    t0 = time.perf_counter()
    assert scan_c(40.0, 40.0, 1, seed_params={"b": -3.0}) == [
        (40.0, "blowup", 0.9872299374596115, 3.003031178268684, False, None)]
    assert time.perf_counter() - t0 < 1.0


def test_scan_c_integrates_only_while_building_its_sides(monkeypatch):
    # h(x0) = 16 on quadratic b = -3, so each forward tail starts at x0:
    # every integration runs while the two sides are built, and no read
    # of a side marches on past its switch knot
    building, calls = [False], []
    init = nearhorizon._NumericSide.__init__

    def building_side(self, *args, **kwargs):
        building[0] = True
        try:
            init(self, *args, **kwargs)
        finally:
            building[0] = False

    def recording(spec, x_end):
        calls.append(building[0])
        return integrate(spec, x_end)

    monkeypatch.setattr(nearhorizon._NumericSide, "__init__", building_side)
    monkeypatch.setattr(nearhorizon, "integrate", recording)
    rows = [row for c in (0.0, 40.0)
            for row in scan_c(c, c, 1, seed_params={"b": -3.0})]
    assert rows == [
        (0.0, "blowup", -5.0, 1.269117932315253, False, None),
        (40.0, "blowup", 0.9872299374596115, 3.003031178268684, False, None)]
    assert calls and all(calls)


def test_scan_c_quadratic_b_minus_3_csv_bytes_are_pinned():
    # h(x0) = 16: every side switches to its tail at x0.  Recorded when
    # the step became DOP853's
    cs = [float(c) for c in np.linspace(-3.0, 3.0, 25)] + [40.0, -40.0]
    text = scan_rows_csv([row for c in cs
                          for row in scan_c(c, c, 1, seed_params={"b": -3.0})])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fcc5edffb7064df96e6c154b9cadd471929827d90bc83c96116e74558f724e08")


def test_scan_c_does_not_search_a_blowup_row_for_a_period(monkeypatch):
    # a blowup row's profile leaves the caps inside the span: tanh c = -2
    # reaches the span end forward and blows up backward, quadratic c = -1
    # blows up forward; an ok row (tanh b = 6) is searched
    calls, first_return = [], nearhorizon.first_return

    def recording(*args):
        calls.append(args)
        return first_return(*args)

    monkeypatch.setattr(nearhorizon, "first_return", recording)
    assert [scan_c(-2.0, -2.0, 1, seed="tanh")[0][1],
            scan_c(-1.0, -1.0, 1)[0][1]] == ["blowup", "blowup"]
    assert calls == []
    assert scan_c(-1.0, -1.0, 1, seed="tanh",
                  seed_params={"b": 6.0})[0][1] == "ok"
    assert len(calls) == 1


def _linear_quartic(monkeypatch):
    # h'''' = -5 h'' - 4 (h - c) has only the frequencies 1 and 2, so
    # every solution is 2 pi periodic about h = c
    monkeypatch.setattr(report, "ode4_rhs", lambda c: lambda x, y: (
        y[1], y[2], y[3], -5.0 * y[2] - 4.0 * (y[0] - c)))


def test_scan_c_confirms_a_period_on_its_sides(monkeypatch):
    # at c = 4 the quadratic seed stays in [0.084, 8.69], between the
    # floor and |h| = 10, over a span of 20, and the forward side's first
    # return is confirmed over two periods on the dense output of both
    # sides (the check starts at x_start = -19)
    _linear_quartic(monkeypatch)
    sides, init = [], nearhorizon._NumericSide.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sides.append(self)

    monkeypatch.setattr(nearhorizon._NumericSide, "__init__", recording)
    ((c, status, x_start, x_end, periodic, period),) = scan_c(
        4.0, 4.0, 1, span=20.0)
    assert (c, status, x_start, x_end, periodic) == (
        4.0, "ok", -19.0, 21.0, True)
    assert abs(period - 2.0 * math.pi) < 1e-8
    # h stays well above the floor on both sides' dense output
    h = [side(x)[0] for side in sides
         for x in np.linspace(side.head.xs[0], side.edge, 801).tolist()]
    assert 0.08 < min(h) and max(h) < 8.7


def test_scan_c_stops_where_a_step_carries_h_across_zero(monkeypatch):
    # at c = 3 the same seed dips below h = 0 between knots (from
    # h = 2.8e-3 at x = 6.1164 to -6.6e-4 at x = 6.1272 under the DOPRI5
    # step); the floor is on the sign of h(x0), so the guard sees the
    # crossing and stops the forward side at the floor: a guard row, not
    # searched into a period across the zero of h
    _linear_quartic(monkeypatch)
    ((c, status, x_start, x_end, periodic, period),) = scan_c(
        3.0, 3.0, 1, span=20.0)
    assert (c, status, periodic, period) == (3.0, "guard", False, None)
    assert abs(x_end - 6.12507) < 1e-5
    assert 0.0 < x_start < 1.0


def test_scan_c_side_knots_read_the_tail_back_as_h():
    # the forward side at c = -1: 69 x-march knots, then the tail's,
    # read back as (x, 1/u, p_1/u^2), agree with the march resumed at the
    # switch knot, which the side's dense output reads
    jet = nearhorizon.build_family("quadratic").field(1.0)
    y0 = [jet.derivative(k) for k in range(4)]
    side = nearhorizon._NumericSide(ode4_rhs(-1.0), 1.0, y0, 7.0, 1e-6,
                                    rtol=1e-10, atol=1e-12)
    assert len(side.head.xs) == 69
    x, u, p = side.tail.ys[1:, :3].T
    assert np.all(np.diff(np.concatenate([side.head.xs, x])) > 0.0)
    assert x[-1] == side.edge
    for x, h, dh in np.column_stack([x, 1.0 / u, p / (u * u)])[::10].tolist():
        y = side(x)
        assert abs(h - y[0]) <= 1e-7 * abs(h)
        assert abs(dh - y[1]) <= 1e-7 * abs(dh)


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


# the check parameters that no scan-c seed family takes
_NO_SEED_FLAGS = {"--h", "--F", "--perturb", "--family", "--e", "--j", "--k",
                  "--l"}


def test_cli_scan_c_help_lists_only_seed_flags(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["scan-c", "--help"])
    assert done.value.code == 0
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert not flags & _NO_SEED_FLAGS
    assert {f"--{n.replace('_', '-')}" for n in report._FAMILY_PARAMS} <= flags


@pytest.mark.parametrize("flag", sorted(_NO_SEED_FLAGS))
def test_cli_scan_c_refuses_a_flag_no_seed_takes(capsys, flag):
    # linear takes ell: --e is refused, not read as an abbreviation of it
    code, out, err = run_cli(["scan-c", "--from", "0", "--to", "1",
                              "--seed", "linear", flag, "2"], capsys)
    assert (code, out) == (1, "")
    assert err == f"ewh: error: no scan-c seed takes {flag}\n"


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


def test_family_sweep_drops_exactly_the_samples_whose_cells_fail():
    # family:tanh's F = F_from_h divides by h, and h(0) = 0: the slice
    # holding x = 0 reads its h and F cells sample by sample, and the
    # check, which skips points, drops that sample alone; every other
    # row holds the cells the float calls give
    fam = report.build_family("tanh")
    h, F = fam.field, report.F_from_h_field(fam.field, fam.c)
    want = []
    for x in np.linspace(-3.0, 3.0, 201).tolist():
        try:
            want.append(f"{x:.12g},{h(x).value:.12g},{F(x).value:.12g}")
        except DomainError:
            assert x == 0.0
    lines = export_plot("family:tanh", samples=201)
    assert len(want) == 200 and lines[0] == "x,h,F,residual"
    assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == want


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


def test_export_plot_pads_the_finite_end_of_a_half_open_window():
    # the rational family's window is (0, inf) with its pole at 0: the
    # sweep starts 2% of its in-window length [0, 3] in, not on the pole
    for samples in (37, 200):
        lines = export_plot("thm2-ode", {"family": "rational"},
                            samples=samples)
        assert lines[0] == "x,h,F,residual"
        assert lines[-1] == "# window-clipped"
        data = [ln.split(",") for ln in lines[1:-1]]
        assert len(data) == samples
        assert float(data[0][0]) == 0.06 and float(data[-1][0]) == 3.0
        assert all(float(row[3]) < 1e-8 for row in data)


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


def _tally(n, x):
    """Count one evaluator run in `n.runs`, and each x it takes, a float
    or every entry of an array, in `n`."""
    n.runs = getattr(n, "runs", 0) + 1
    n.update(x.tolist() if isinstance(x, np.ndarray) else [x])


def _count_evaluations(setup, counts):
    """Wrap each profile field's evaluator to count its runs and its
    evaluations per x (`_tally`); one Counter per field is appended to
    `counts`."""
    for f in setup.profiles:
        if f is None:
            continue
        n, ev = Counter(), f.evaluator

        def counted(x, ev=ev, n=n):
            _tally(n, x)
            return ev(x)

        counts.append(n)
        object.__setattr__(f, "evaluator", counted)


@pytest.mark.parametrize("check, params", [
    ("thm1", {"h": "sin"}),
    ("thm2-ode", {"family": "tanh"}),
    ("prop1-iff", {"h": "sin"}),
    ("chalf-Fode", {"h": "sin"}),
    ("family:hypergeometric", {}),
    ("family:tanh", {}),
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
    # a family's F is only tabulated by export-plot: no residual reads it
    read = counts[:1] if check.startswith("family:") else counts
    for n in read:
        assert sorted(n) == xs
        assert set(n.values()) == {1}
        if list(rep.grid) == ["x"]:  # x only: the 33 x are one slice
            assert n.runs == 1
    assert not any(counts[len(read):])


# the export-plot sweeps of the sweep-1d benchmark workload
_SWEEP_1D = [("thm1", {"h": "zero"}), ("thm1", {"h": "sin"}),
             ("thm2-ode", {"family": "tanh"}),
             ("thm2-ode", {"family": "jacobi"}),
             ("prop1-iff", {"h": "linear"}), ("dkp", {}), ("prop4", {})]


def _counted_tanh_profiles(monkeypatch, counts):
    """Make every tanh_profile field count its evaluator runs and its
    evaluations per x (`_tally`), one Counter per field appended to
    `counts`."""

    def counted_profile(*args, make=report.tanh_profile):
        f = make(*args)
        n, ev = Counter(), f.evaluator

        def counted(x):
            _tally(n, x)
            return ev(x)

        counts.append(n)
        object.__setattr__(f, "evaluator", counted)
        return f

    for module in (report, pdeverify):
        monkeypatch.setattr(module, "tanh_profile", counted_profile)


def test_export_plot_evaluates_each_profile_once_per_sample(monkeypatch):
    # a profile of x is counted where its evaluator runs, once per slice
    # of the sweep: F's evaluator reads h from the slice's jets, and the
    # h and F cells of each row read both from there again
    counts, setup = [], report._setup

    def counting(*args):
        c, s = setup(*args)
        if s.profiles:
            _count_evaluations(s, counts)
        return c, s

    monkeypatch.setattr(report, "_setup", counting)
    _counted_tanh_profiles(monkeypatch, counts)
    wp_calls = Counter()

    def counted_wp(z, b, wp=pdeverify.wp_jet):
        _tally(wp_calls, z.value)
        return wp(z, b)

    monkeypatch.setattr(pdeverify, "wp_jet", counted_wp)
    for check, params in _SWEEP_1D:
        counts.clear()
        wp_calls.clear()
        wp_calls.runs = 0
        lines = export_plot(check, params, samples=200)
        xs = [float(ln.split(",")[0]) for ln in lines[1:] if ln[0] != "#"]
        assert len(xs) == 200
        # dkp's one profile is wp(x + a); prop4 sweeps one of its fields
        evaluated = [n for n in counts + [wp_calls] if n]
        assert len(evaluated) == {"dkp": 1, "prop4": 1}.get(check, 2)
        for n in evaluated:
            assert sum(n.values()) == len(n) == 200
            assert n.runs <= math.ceil(200 / report._PLANE_SLICE)
            if n is not wp_calls:
                assert [float(f"{x:.12g}") for x in n] == xs


@pytest.mark.parametrize("check, params", [("chalf-Fode", {"h": "sin"}),
                                           ("family:tanh", {})])
def test_per_x_sweep_evaluates_each_profile_once_per_slice(monkeypatch,
                                                           check, params):
    # a per-x sweep lists the profiles of its h and F cells among its
    # fields: the walker evaluates each once per slice, and the cells
    # read them from the memo
    counts, setup = [], report._setup

    def counting(*args):
        c, s = setup(*args)
        _count_evaluations(s, counts)
        return c, s

    monkeypatch.setattr(report, "_setup", counting)
    export_plot(check, params, samples=200)
    assert len(counts) == 2
    for n in counts:
        assert sum(n.values()) == len(n) == 200
        assert n.runs == math.ceil(200 / report._PLANE_SLICE)


def test_per_x_sweep_slice_gone_x_by_x_leaves_its_jets_to_the_cells(
        monkeypatch):
    # at 201 samples family:tanh samples x = 0, where its F raises: that
    # slice's batch fails and the walker goes x by x.  Its float calls
    # leave their jets as the fields' memo columns, so the cells of the
    # slice's other kept x read F there instead of evaluating it again
    counts, setup = [], report._setup

    def counting(*args):
        c, s = setup(*args)
        _count_evaluations(s, counts)
        return c, s

    monkeypatch.setattr(report, "_setup", counting)
    lines = export_plot("family:tanh", samples=201)
    assert len(lines) == 1 + 200  # the sample at x = 0 is skipped
    assert not any(ln.startswith("0,") for ln in lines)
    h, F = counts
    assert sum(h.values()) == len(h) == 201
    # the failing slice's x in its batch, then each x once
    assert (sum(F.values()), len(F)) == (201 + report._PLANE_SLICE, 201)
    assert F.runs == math.ceil(201 / report._PLANE_SLICE) \
        + report._PLANE_SLICE


def test_prop4_evaluates_each_tanh_profile_once_per_grid_x(monkeypatch):
    counts = []
    _counted_tanh_profiles(monkeypatch, counts)
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


def test_no_check_profile_calls_quad(monkeypatch):
    # the integral-defined profiles (thm1's G, the hypergeometric z) come
    # from a dense solve, and every named h has an exact integral: no
    # check the benchmark runs builds or reads a profile by quadrature
    def no_quad(f, a, b):
        raise AssertionError(f"quad on [{a!r}, {b!r}]")

    monkeypatch.setattr(nearhorizon, "quad", no_quad)
    for check, params in _PLANE_CHECKS + [
            *[(f"family:{tag}", {}) for tag in nearhorizon._FAMILIES],
            *[("chalf-Fode", {"h": h}) for h in ("zero", "sin", "linear")]]:
        run_check(check, params)
    for check, params in _SWEEP_1D:
        export_plot(check, params, samples=200)


def test_profiles_are_called_at_float_x_only(monkeypatch):
    # a field answers a call at one float x; an array goes through `at`.
    # Outside-in tracers count profile calls by x in a set, which an
    # array, being unhashable, would break
    call, xs = ScalarField1D.__call__, []

    def float_only(field, x):
        assert type(x) is float, f"{field.label} called at {x!r}"
        xs.append(x)
        return call(field, x)

    monkeypatch.setattr(ScalarField1D, "__call__", float_only)
    for check, params in _SWEEP_1D:
        export_plot(check, params, samples=200)
    for check, params in _PLANE_CHECKS:
        run_check(check, params)
    # the walker reads every profile through `at`, per-x residuals too
    # (their formulas take the profiles' jets), and so do the sweeps'
    # cells and thm2-ode's |h| probe: no batch fails, so none is called
    assert xs == []


def _narrowed_axes():
    """thm2-ode's narrowed x axis of every profile (h) family, with one
    batched `at` per family."""
    out = {}
    for tag, _, _ in nearhorizon._FAMILIES.values():
        try:
            _, s = report._setup("thm2-ode", {"family": tag})
        except DomainError:  # not a profile family
            continue
        out[tag] = s.narrow(GridSpec().resolve_x(s.window))
    return out


def test_thm2_narrowing_matches_its_x_by_x_fallback(monkeypatch):
    # one batched |h| probe finds the axis the x-by-x walk finds, which
    # is also what runs where the batch raises
    batched = _narrowed_axes()
    assert len(batched) == 8

    def failing(field, x):
        raise DomainError("no batch")

    monkeypatch.setattr(ScalarField1D, "at", failing)
    assert _narrowed_axes() == batched


def test_thm2_narrowing_skips_the_x_a_batch_cannot_take():
    # the batch raises at the x outside the window; x by x, those are
    # left out of the longest run of |h| > 1e-3
    h = ScalarField1D(field_const(1.0).evaluator, window=(0.0, 2.0))
    lo, hi, n = report._nonzero_x_interval(h, (-1.0, 1.0, 5))
    assert (lo, hi, n) == (0.1, 0.9, 5)


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
        assert (name in covered) == any(not r.fields for r in s.residuals)


@pytest.mark.parametrize("grid", [GridSpec(),
                                  GridSpec(nu=(-1.13, 0.91, 3),
                                           r=(-0.87, 1.19, 7)),
                                  GridSpec(nu=(-1.3, 0.7, 8),
                                           r=(-0.9, 1.1, 8))])
@pytest.mark.parametrize("check, params", _PLANE_CHECKS)
def test_plane_batch_equals_its_points_bit_for_bit(check, params, grid):
    s, batch = _plane(check, params, grid)
    for r in s.residuals:
        if r.fields:
            continue
        got = np.asarray(r.fn(batch), dtype=float)
        want = np.stack([np.asarray(r.fn(q), dtype=float)
                         for q in batch.points()], axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# sha256 of every per-point residual of a check, shape and bits, at 7 x of
# its default axis times 6 seeded (nu, r), recorded from a scalar per-Point
# assembly: these stored values are its reference now that a Point is
# assembled as a batch of one; thm2-ode numeric re-recorded when the
# numeric window edges came from the pole tail, which moved its x axis
# by about 6e-13, again when its guard stops came from the crossing
# located on a trial step's dense output (its edges moved by 1.5e-15),
# when the DOPRI step came to sum its tableau in Python floats, and when
# the step became DOP853's (its x axis moved by 9.2e-13, and its worst
# residual fell from 1.2e-13 to 2.8e-14); the three thm1 cases
# re-recorded when G came from one dense solve instead of a quadrature
# per x (their residuals moved by at most 8.9e-15 at h = 0, 2.6e-13 at
# h = sin and 2.7e-12 of 23.58 in the perturbed control)
_POINT_DIGESTS = [
    "6565bbb5d00324a8696e68ad544c0e456785f0e609e29d7370464011534de5ee",
    "0cba17f5acfcd1b8424f9a0166738da77da167137f13f960271fbe088340e3be",
    "34e9a92a52bc9c6e1aa76a26e498225ccb06cd34374aeab0343ef0d228c9e364",
    "6da2b91f53b4e3e0578d7a9c256880c9b35d9afbccd2c55405acabfdb0bc1361",
    "9af8df8cfa488e82fd46ccf42a16b77f26b45f9aeecbb8a7e10bd651fc5112c3",
    "96818e724abbc8b1b7451662f81029d06132413463081ea3d48c0d60da41886c",
    "7cc3702d3b2c58e60f5aef050d8a8cd6a41513d4c78c8d0d71cf236d2fb49771",
    "05ac2c17448db7ac35ce91204f7002860daa1a475f1216866be87f3e4916e5c8",
    "09b8d5db2e2cbe6cb91da5dd4ab4ffaa62ed95cf5749e72b332e074967731eb0",
    "1e4a17312513d0275acf63b42b02befe28d4132dbe440751a463f6ca5fe54551",
    "138a01fd393311c4cebdfee36920c51777159194534f28af4631328920c59271",
    "0b0002c3f07a34cb81d6701acdefe94cca7870ffdb9726d484019d278ca77232",
    "27e283e7345a46a26b2310e7e3ab2075b2631231d0fda22d32e9ead33732c304",
    "630cc86333307d9fa7115116e60493fa51ae9a6987ab0c7c4fbd69c58b509e3b",
]


@pytest.mark.parametrize("check, params, digest",
                         [(*c, d) for c, d in zip(_PLANE_CHECKS,
                                                  _POINT_DIGESTS)])
def test_per_point_residual_bits_are_pinned(check, params, digest):
    _, s = report._setup(check, params)
    x_axis = GridSpec().resolve_x(s.window)
    if s.narrow is not None:
        x_axis = s.narrow(x_axis)
    nu_r = np.random.default_rng(16).uniform(-1.2, 1.2, (6, 2)).tolist()
    h = hashlib.sha256()
    for r in s.residuals:
        if r.fields:
            continue
        for x in np.linspace(x_axis[0], x_axis[1], 7).tolist():
            for nu, rr in nu_r:
                v = np.asarray(r.fn(Point(nu, rr, x)), dtype=float)
                h.update(repr(v.shape).encode())
                h.update(v.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("check, params", _PLANE_CHECKS)
def test_x_spanning_batch_equals_its_points_bit_for_bit(check, params):
    # 7 distinct x of the check's default axis, some repeated, each with
    # its own nu and r; the points are evaluated on a second, fresh
    # Setup, so no jet of the batch is reused for them
    _, s = report._setup(check, params)
    x_axis = GridSpec().resolve_x(s.window)
    if s.narrow is not None:
        x_axis = s.narrow(x_axis)
    xs = np.linspace(x_axis[0], x_axis[1], 7)[[0, 3, 1, 6, 2, 2, 5, 4, 3, 0]]
    rng = np.random.default_rng(11)
    batch = PointBatch(rng.uniform(-1.2, 1.2, 30), rng.uniform(-1.2, 1.2, 30),
                       np.resize(xs, 30))
    assert len(set(batch.x.tolist())) == 7
    fresh = report._setup(check, params)[1]
    for r, r1 in zip(s.residuals, fresh.residuals):
        if r.fields:
            continue
        got = np.asarray(r.fn(batch), dtype=float)
        want = np.stack([np.asarray(r1.fn(q), dtype=float)
                         for q in batch.points()], axis=-1)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("check", ["thm1", "prop1-iff", "prop4",
                                   "hypercr-family"])
def test_one_curvature_assembly_per_slice(monkeypatch, check):
    batches, init = [], curvature._Assembly.__init__

    def counting(self, g_jets, batch, label=""):
        batches.append(batch)
        init(self, g_jets, batch, label)

    monkeypatch.setattr(curvature._Assembly, "__init__", counting)
    run_check(check)
    # one geometric residual each (EW, or Cotton for prop1-iff), built
    # once per slice of as many whole 5 x 5 planes as fit in
    # _PLANE_SLICE points: the 5 grid x take one slice
    per = report._PLANE_SLICE // 25 * 25
    assert batches == [(min(per, 125 - i),) for i in range(0, 125, per)] \
        == [(125,)]
    # and a Point (the fallback of a failing slice) as a batch of one
    s, plane = _plane(check, {})
    batches.clear()
    for r in s.residuals:
        if not r.fields:
            r.fn(plane.points()[7])
    assert batches == [(1,)]


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
    for size in (1, 7, 81, 128):
        monkeypatch.setattr(report, "_PLANE_SLICE", size)
        texts.add(run_check(check, params, grid=grid).to_json())
    assert len(texts) == 1


# ---------------------------------------------------------------------------
# export-plot sweeps as batches of samples


def _point_by_point(monkeypatch):
    """Make every PointBatch evaluation of the grid walker raise, so each
    slice goes point by point."""

    def values(group, q, values=report._values):
        if isinstance(q, PointBatch):
            raise SingularJetError("no batch: every slice goes point by "
                                   "point")
        return values(group, q)

    monkeypatch.setattr(report, "_values", values)


# every check with a per-point primary residual, along each axis it sweeps
_SWEEP_CASES = [(c, p, axis) for c, p in _PLANE_CHECKS
                for axis in (("x", "nu", "r")
                             if c in ("dkp", "hypercr-family", "prop4")
                             else ("x",))]


def _sweep_outcome(*args, **kwargs):
    """export_plot's lines, or the type and text of the error it raises."""
    try:
        return export_plot(*args, **kwargs)
    except EwhError as e:
        return type(e), str(e)


@pytest.mark.parametrize("check, params, axis", _SWEEP_CASES)
def test_batched_export_plot_equals_the_per_sample_path(monkeypatch, check,
                                                        params, axis):
    # 150 samples: a full slice and a short one; the rational family's
    # sweep meets its pole at x = 0 and raises on both paths
    batched = _sweep_outcome(check, params, axis=axis, samples=150)
    _point_by_point(monkeypatch)
    assert _sweep_outcome(check, params, axis=axis, samples=150) == batched


@pytest.mark.parametrize("grid", ["default", "9x9", "2x2x40"])
@pytest.mark.parametrize("check, params", _PLANE_CHECKS)
def test_batched_run_check_equals_the_per_point_path(monkeypatch, check,
                                                     params, grid):
    # 9 x 9: one slice of 81 points; 2 x 2 x 40: 32 planes of 4 points
    # per slice, over 40 x of the check's default x range
    _, s = report._setup(check, params)
    x_axis = GridSpec().resolve_x(s.window)
    if s.narrow is not None:
        x_axis = s.narrow(x_axis)
    grid = {"default": GridSpec(),
            "9x9": GridSpec(nu=(-1.0, 1.0, 9), r=(-1.0, 1.0, 9)),
            "2x2x40": GridSpec(nu=(-1.0, 1.0, 2), r=(-1.0, 1.0, 2),
                               x=x_axis[:2] + (40,))}[grid]
    batched = run_check(check, params, grid=grid).to_json()
    _point_by_point(monkeypatch)
    assert run_check(check, params, grid=grid).to_json() == batched


# sha256 of each sweep-1d CSV as `ewh export-plot` writes it, recorded
# before sweeps were batched; re-recorded when the residual cell became
# the largest reported component (80 cells of thm1 sin, both thm2-ode
# sweeps, prop1-iff and prop4 fell); both thm1 sweeps re-recorded when G
# came from one dense solve (the largest change in a printed number:
# 2.8e-14 at h = 0, and one unit in the 12th digit of an F cell at
# h = sin, 15.5256294243 to 15.5256294242)
_SWEEP_1D_SHA256 = [
    "effc03dfff29ee865ddfed1f302611c3a8bf78047600ba26e725137b279fe507",
    "929c956e0198546d01d17f75437c941feafcdb352a29a932a48a8d53f9852049",
    "265a37d403c740a51000aa8a7ebc45d08f94638068d7e5243615c712af0ed153",
    "5e571ad5688bd4d50817cf12e5a543581012b900608956442e03803c3fc997d8",
    "7e211d5def1f9beddddd552f9f79e4ac9b3491d46af06e5034bfb20a9adb6c32",
    "3a0fc24f8bc2cf01f88e1babb2b90701a7a8808cef0cd61e51a972140863dfcc",
    "4df421fb1fbc0dc1d3e1465fb56ecf2cc3056a4bdf1f9b3689a091a5741a78fe",
]


@pytest.mark.parametrize("spec, digest", zip(range(7), _SWEEP_1D_SHA256))
def test_sweep_1d_csv_bytes_are_pinned(spec, digest):
    check, params = _SWEEP_1D[spec]
    text = "\n".join(export_plot(check, params, samples=200)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _sampled_check(monkeypatch, bad, skip):
    """Register a check "sampled" whose one per-point residual is 1, but
    raises at the x of `bad`, naming the x, and on a batch holding any
    of them, naming none."""

    def fn(q):
        if isinstance(q, PointBatch):
            if bad & set(q.x.tolist()):
                raise SingularJetError("somewhere in the batch")
            return np.ones(q.size)
        if q.x in bad:
            raise SingularJetError(f"bad sample {q.x!r}")
        return 1.0

    setup = report.Setup(claim="", window=(-math.inf, math.inf),
                         tolerance=1.0, params={},
                         residuals=(report.Residual(("v",), fn),))
    monkeypatch.setitem(report.CHECKS, "sampled",
                        report.Check({}, lambda p: setup, skip=skip))


def test_sweep_batch_error_is_that_of_the_first_failing_sample(monkeypatch):
    xs = [float(v) for v in np.linspace(-3.0, 3.0, 150)]
    bad = {xs[100], xs[70]}  # both in the second slice
    _sampled_check(monkeypatch, bad, skip=False)
    with pytest.raises(SingularJetError, match=f"bad sample {xs[70]!r}"):
        export_plot("sampled", samples=150)
    _sampled_check(monkeypatch, bad, skip=True)
    lines = export_plot("sampled", samples=150)
    assert lines == ["x,residual"] + [f"{v:.12g},1" for v in xs
                                      if v not in bad]


def test_profile_cells_fail_as_their_float_calls(monkeypatch):
    # a profile that fails at two samples of the second slice, beside a
    # residual that reads another: its cells alone decide the outcome
    xs = [float(v) for v in np.linspace(-3.0, 3.0, 150)]
    bad = {xs[100], xs[70]}

    def ev(x):
        for v in np.atleast_1d(x).tolist():
            if v in bad:
                raise DomainError(f"no profile at {v!r}")
        return report.Jet1.variable(x)

    h = ScalarField1D(ev, label="holes")
    for skip in (False, True):
        setup = report.Setup(
            claim="", window=(-math.inf, math.inf), tolerance=1.0,
            params={}, profiles=(h, h),
            residuals=(report.Residual(("v",), lambda zero: zero.value,
                                       fields=(field_const(0.0),)),))
        monkeypatch.setitem(report.CHECKS, "holes",
                            report.Check({}, lambda p: setup, skip=skip))
        if not skip:
            with pytest.raises(DomainError, match=f"at {xs[70]!r}"):
                export_plot("holes", samples=150)
            continue
        assert export_plot("holes", samples=150) == ["x,h,F,residual"] + [
            f"{v:.12g},{v:.12g},{v:.12g},0" for v in xs if v not in bad]


# ---------------------------------------------------------------------------
# x-only checks: each profile once per slice, as one batched jet

_X41 = GridSpec(x=(-3.0, 3.0, 41))

# every x-only check of the profile-catalog benchmark workload, two more
# profiles, and explicit x axes that cross a window edge or a pole (the
# family checks skip those x; chalf-Fode raises at the first)
_X_ONLY_CASES = [
    *[(f"family:{tag}", {}, None)
      for tag in ("linear", "quadratic", "rational", "tan", "tanh", "jacobi",
                  "weierstrass", "hypergeometric", "numeric")],
    *[("chalf-Fode", {"h": h}, None)
      for h in ("zero", "sin", "linear", "one")],
    ("thm2-ode", {"family": "hypergeometric"}, None),
    *[(f"family:{tag}", {}, _X41)
      for tag in ("tan", "rational", "jacobi", "weierstrass",
                  "hypergeometric", "numeric")],
    ("family:tan", {}, GridSpec(x=(-4.0, 4.0, 41))),
    ("family:numeric", {}, GridSpec(x=(-9.0, 9.0, 41))),
    ("chalf-Fode", {"h": "sin"}, _X41),
    ("chalf-Fode", {"h": "sin"}, GridSpec(x=(0.5, 3.0, 41))),
]

# sha256 of each case's report JSON (or "<error type>: <text>"), recorded
# while x-only residuals were evaluated one float x at a time; default
# family:numeric re-recorded when its window edges came from the pole
# tail, which moved its x axis by about 7e-13, again when its guard
# stops came from the crossing located on a trial step's dense output
# (its edges moved by 1.5e-15), when the DOPRI step came to sum its
# tableau in Python floats, and when the step became DOP853's (cases 8,
# 19 and 21, the numeric family: the last moved its edges by 1.3e-12,
# and its ode4 residuals stay below 1.4e-16); the hypergeometric and
# chalf-Fode cases (7, 9-13, 18, 22 and 23) re-recorded when z(x) and
# thm1's G came from one dense solve each: the largest change in a
# printed number is 9.1e-13 (a chalf-Fode h = 1 residual), the window
# edges in the texts of cases 22 and 23 moved by 2.0e-15 and the
# hypergeometric residuals by at most 3.4e-14
_X_ONLY_SHA256 = [
    "0c3f8fd26c6ec90df49f6806414b8a2b4e68928956d0cf16fee4822dbe2d11da",
    "28be916c6e58ceb2718db493737cdfeed684b5552a3c611ba00797f760aa5b27",
    "d993c34373091cbcdfa6d77517d1bd23f166655b2786a7d33f3261c838992870",
    "86d886d8df6066148392f8e2568550e386b9fa926e3cc0ed82e680085af16071",
    "63de63d8fe29b3d7931c042ee94010ea58ed3e15f8333e46280cbc03dc699047",
    "2920d8bdbdac086a560b7daf3367d1f3554d2553ec34c7d0fa94d04055e9303d",
    "f1625f40de7d33c6bc908b913fb880bf2df0c86cf847175365509e0fcc93c4b9",
    "337157d85909a3b9b7653f5e973d50cf65440b8deb6d3c2f63f935ebec81429d",
    "b255d2a0d2d30045928fbb6407596e9a85041ddf05a8ebe80e05ad9fbc793da6",
    "6c4e40869e2d7f2dfd4c620d9b42b310d12de611bd1fc7fca65448bd0fadfabb",
    "13c8469e4ead1abf1ccc04ccd50189abd5f314b871ed648afc20008e782c4a90",
    "391644dc32b10a6c97af68d30e6a921bc5e729e390b01dfe4e7edba055512d09",
    "23d13d2edb3feffe2cbf8e20e7d74053124ddb48687f5feb0d19eb3b0c47ba39",
    "31d84e266498439238119dc7e3456ce9ddc6c6c1157ad9a15e863f572a3698ac",
    "75b2c6ce8ab85009738363ebab1a4d2c2339b1c27aa57cb68a62ef23af804e21",
    "efa9fadb835336c98cd873ffcad21f39d2b171146a9bcf73733c076e13c755c0",
    "19f711d7b41fd4f65d6e4a83456d7d77f266bab96d53695a6a3a4f77ac25854d",
    "c09f3af3b8e48576b0025ad08b0848e4382abdea5bbec8e9c2379bb99bdf9735",
    "d44ae8d4d332490273475d4153d2f5656a8261b9d399603292debb7d3e047f21",
    "73c8b0de1d95e51583d008e53476b60d37dd4184eeb48679d797287208504972",
    "f4318e86ef1ce9507c644f4bcf1f18a5e0233588391ee77f2b2574e5b62b4926",
    "eca4ad2ebe25714822058e28b00029d4e1546100a8fd57bf6f2edc848cf97b88",
    "94e07a8ee2a65da8b27dcb4faae04fe0a0de0c8ac3f8e305a244c71df727848a",
    "4435019967cb96cc18fe50ef536e7d241b6088fae9f0aed2ff6872b83c55b26d",
]

# the per-x sweeps, and the sha256 of the CSV each writes at 200 samples;
# chalf-Fode and family:hypergeometric re-recorded when thm1's G and z(x)
# came from one dense solve each (the largest change in a printed
# number: one unit in the 12th digit of an F cell, and 2.5e-15)
_X_SWEEPS = ["chalf-Fode", "family:tanh", "family:hypergeometric"]
_X_SWEEP_SHA256 = [
    "b6c5d6eb32d0af45ed1afba61441a8fd104b0d6af90a07fd133a05f6179c6af8",
    "d4b3e53927cd118e0d6115d619121334dcd7e9b81c4fc38ea89b42955d33e2d5",
    "09155c37b56106b7107ba474df06fa15deea408a1555c7d33f6c6171e834bd92",
]


def _x_only_outcome(check, params, grid):
    """run_check's report JSON, or the type and text of its error."""
    try:
        return run_check(check, params, grid=grid).to_json()
    except EwhError as e:
        return f"{type(e).__name__}: {e}"


def _x_sweep_csv(check):
    return "\n".join(export_plot(check, samples=200)) + "\n"


@pytest.mark.parametrize("case, digest", zip(_X_ONLY_CASES, _X_ONLY_SHA256))
def test_x_only_report_bytes_are_pinned(case, digest):
    text = _x_only_outcome(*case)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("check, digest", zip(_X_SWEEPS, _X_SWEEP_SHA256))
def test_x_sweep_csv_bytes_are_pinned(check, digest):
    text = _x_sweep_csv(check)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("check, params",
                         _SWEEP_1D + [(c, {}) for c in _X_SWEEPS])
def test_sweep_cell_is_the_largest_reported_component(check, params):
    # the cell is the largest of the components `verify` reports for the
    # check's first residual, at the sample's (nu, r) = (0.3, 0.7) or x
    lines = export_plot(check, params, samples=200)
    _, s = report._setup(check, params)
    r0 = s.residuals[0]
    a, b, _ = report._sweep_window(s.window)
    xs = np.linspace(a, b, 200).tolist()
    rows = [ln.split(",") for ln in lines[1:] if ln[0] != "#"]
    assert [row[0] for row in rows] == [f"{x:.12g}" for x in xs]
    for x, row in zip(xs, rows):
        q = Point(0.3, 0.7, x) if not r0.fields else x
        assert row[-1] == f"{max(map(float, r0.values(q))):.12g}"


def _x_by_x(monkeypatch):
    """Make every x-array evaluation of the grid walker raise, so each
    slice's per-x residuals go x by x."""

    def values(group, q, values=report._values):
        if isinstance(q, np.ndarray):
            raise SingularJetError("no batch: every slice goes x by x")
        return values(group, q)

    monkeypatch.setattr(report, "_values", values)


@pytest.mark.parametrize("case", _X_ONLY_CASES)
def test_x_only_run_check_equals_its_x_by_x_path(monkeypatch, case):
    batched = _x_only_outcome(*case)
    _x_by_x(monkeypatch)
    assert _x_only_outcome(*case) == batched


# every per-x sweep; at 201 samples family:tanh's F divides by h(0) = 0,
# so its slice holding x = 0 goes x by x on both paths and drops x = 0
@pytest.mark.parametrize("check, params, samples", [
    *[(f"family:{tag}", {}, 150)
      for tag in ("linear", "quadratic", "rational", "tan", "tanh", "jacobi",
                  "weierstrass", "hypergeometric", "numeric")],
    *[("chalf-Fode", {"h": h}, 150) for h in ("zero", "sin", "linear")],
    ("family:tanh", {}, 201),
])
def test_per_x_sweep_equals_its_x_by_x_path(monkeypatch, check, params,
                                            samples):
    batched = _sweep_outcome(check, params, samples=samples)
    _x_by_x(monkeypatch)
    assert _sweep_outcome(check, params, samples=samples) == batched


# each check's per-x residuals, by the formula each one runs
@pytest.mark.parametrize("check, params, formulas", [
    ("family:linear", {}, ["_ode4_relative", "ode3_first_integral"]),
    ("family:weierstrass", {}, ["F_ode_residual_chalf"]),
    ("chalf-Fode", {"h": "sin"}, ["F_ode_residual_chalf"]),
    ("thm2-ode", {"family": "tanh"}, ["_ode4_relative"]),
    ("prop1-iff", {}, ["flatness_defect"]),
    ("prop4", {}, ["ode2_residual"]),
])
def test_a_per_x_residual_runs_its_formula_once_per_array(
        monkeypatch, check, params, formulas):
    # at 33 x, Residual.values calls its formula once, on the fields'
    # batched jets, and builds no Jet1 of one column
    calls, built = [], []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for name in ("_ode4_relative", "ode3_first_integral", "flatness_defect",
                 "F_ode_residual_chalf", "ode2_residual"):
        monkeypatch.setattr(report, name, counted(name, getattr(report, name)))
    _, s = report._setup(check, params)
    x = np.array(report._axis_values(GridSpec().resolve_x(s.window, 33)))
    per_x = [r for r in s.residuals if r.fields]
    for f in {f for r in per_x for f in r.fields}:
        f.at(x)  # the profiles' own batched jets, before counting
    raw = Jet1._raw.__func__
    monkeypatch.setattr(Jet1, "_raw", classmethod(
        lambda cls, c: (built.append(c.shape), raw(cls, c))[1]))
    values = [v for r in per_x for v in r.values(x)]
    assert calls == formulas
    assert [v.shape for v in values] == [(33,)] * len(formulas)
    assert [shape for shape in built if len(shape) == 1] == []


# x = 0 is sample 100 of 201, in the slice that ends at sample
_ZERO_SLICE_END = (100 // report._PLANE_SLICE + 1) * report._PLANE_SLICE


@pytest.mark.parametrize("check, params, n_x, F_most", [
    ("family:tanh", {}, 201, 329),
    ("thm2-ode", {"family": "tanh"}, _ZERO_SLICE_END,
     101 + report._PLANE_SLICE)])
def test_a_failing_sweep_slice_evaluates_h_once_per_x(monkeypatch, check,
                                                      params, n_x, F_most):
    # at 201 samples F = F_from_h(h) divides by h(0) = 0 in the slice
    # holding x = 0, which goes x by x: family:tanh drops x = 0,
    # thm2-ode raises there, h evaluated at the slice's x.  h is
    # evaluated once at each x; F no more often than when `at` itself
    # went x by x for family:tanh, and for thm2-ode once at each x up
    # to 0 and once in the failing slice's batch (329 and 229 times at
    # 128-point slices, at most 2 times at one x)
    counts, setup = [], report._setup

    def counting(*args):
        c, s = setup(*args)
        _count_evaluations(s, counts)
        return c, s

    monkeypatch.setattr(report, "_setup", counting)
    out = _sweep_outcome(check, params, samples=201)
    # family:tanh: a header and the 200 rows other than x = 0
    assert (len(out) == 201) == (check == "family:tanh")
    h_count, F_count = counts
    assert len(h_count) == n_x and set(h_count.values()) == {1}
    assert sum(F_count.values()) <= F_most
    assert max(F_count.values()) <= 3


def test_a_failing_x_only_slice_evaluates_each_x_once(monkeypatch):
    # family:numeric's window ends inside [-1, 3], so `at` on the one
    # slice of 41 x raises before evaluating any; the walker then goes x
    # by x, evaluating each of the 24 x inside once
    counts, reduce_grid = [], report._reduce

    def counting(setup, *args):
        _count_evaluations(setup, counts)
        return reduce_grid(setup, *args)

    monkeypatch.setattr(report, "_reduce", counting)
    rep = run_check("family:numeric", grid=GridSpec(x=(-1.0, 3.0, 41)))
    n = counts[0]
    assert sorted(n) == report._axis_values(rep.grid["x"])[:24]
    assert set(n.values()) == {1}


def test_numeric_x_past_the_pole_switch_are_all_evaluated(monkeypatch):
    # past |h| = 10 (x = 1.211) the tail system located the window's edge
    # (1.3109); the x there come from the march resumed at the switch
    counts, reduce_grid = [], report._reduce

    def counting(setup, *args):
        _count_evaluations(setup, counts)
        return reduce_grid(setup, *args)

    monkeypatch.setattr(report, "_reduce", counting)
    rep = run_check("family:numeric", grid=GridSpec(x=(1.2, 1.31, 12)))
    assert rep.passed
    n = counts[0]
    assert sorted(n) == report._axis_values(rep.grid["x"])
    assert set(n.values()) == {1}


def test_x_by_x_path_is_taken_where_forced(monkeypatch):
    # the forced path evaluates each profile at each x alone, as a float
    counts, setup = [], report._setup

    def counting(*args):
        c, s = setup(*args)
        _count_evaluations(s, counts)
        return c, s

    monkeypatch.setattr(report, "_setup", counting)
    _x_by_x(monkeypatch)
    rep = run_check("family:tanh")
    f_count, F_count = counts
    assert f_count.runs == len(f_count) == 33 and not F_count
    assert sorted(f_count) == report._axis_values(rep.grid["x"])


# ---------------------------------------------------------------------------
# memory guards: tracemalloc's peak (numpy traces its buffers there),
# deterministic at the pinned numpy, after a warm-up call has filled the
# caches and the product's workspace


def _traced_peak(fn):
    """Bytes that fn() holds at its peak above what was held before it,
    after one untraced call."""
    fn()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_full_slice_jet3_product_allocates_only_its_result():
    # 36 752 B measured: the (35, 128) result and its bincount; fresh
    # gathers would add 430 KB, a read-only target copy 215 KB
    rng = np.random.default_rng(3)
    a, b = (Jet3(rng.standard_normal((N3, report._PLANE_SLICE)))
            for _ in range(2))
    assert _traced_peak(lambda: a * b) <= 36_752 * 1.25


def test_default_grid_cotton_check_peak_memory():
    # prop1-iff assembles Cotton, the largest default-grid assembly, over
    # the grid's 125 points in one batch: 1.597 MiB measured (0.91 MiB in
    # 64-point slices)
    peak = _traced_peak(lambda: run_check("prop1-iff", {"h": "linear"}))
    assert peak <= 1.597 * 1.25 * 2 ** 20


def _grid_batch(check, params):
    """The residual a check evaluates per point and its default grid's
    125 points, as one PointBatch (the batch the grid walker sends)."""
    s, plane = _plane(check, params)
    x_axis = GridSpec().resolve_x(s.window)
    if s.narrow is not None:
        x_axis = s.narrow(x_axis)
    xs = report._axis_values(x_axis)
    fn = next(r.fn for r in s.residuals if not r.fields)
    return fn, PointBatch(np.tile(plane.nu, len(xs)),
                          np.tile(plane.r, len(xs)),
                          np.repeat(xs, plane.size))


def test_a_warm_cotton_contraction_allocates_only_its_output(monkeypatch):
    # the sums a contraction adds into gamma2, and Cotton's 5-index
    # arrays gamma2, s2 and g3, live in the thread's bounded workspace:
    # past a warm-up, a contraction of the 125-point Cotton allocates only
    # its output (none where it writes or adds into gamma2)
    fn, batch = _grid_batch("prop1-iff", {"h": "linear"})
    assert batch.size == 125
    fn(batch)
    excess, contract = [], curvature._contract

    def traced(spec, *ops, out=None, add=False):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        acc = contract(spec, *ops, out=out, add=add)
        peak = tracemalloc.get_traced_memory()[1] - before
        own = acc.nbytes if out is None else 0
        excess.append((spec, peak - own))
        return acc

    monkeypatch.setattr(curvature, "_contract", traced)
    tracemalloc.start()
    try:
        fn(batch)
    finally:
        tracemalloc.stop()
    assert len(excess) > 20 and any(s.count(",") == 2 for s, _ in excess)
    # beyond that, np.einsum's iterator buffers of np.getbufsize()
    # numbers (64 KiB each, freed on return; 110 129 B measured on
    # "eca,eb->abc") and a few hundred bytes of views; a fresh 5-index
    # sum would add 243 000 B
    bound = 2 * np.getbufsize() * 8 + 2048
    assert max(e for _, e in excess) <= bound, max(excess, key=lambda e: e[1])


def test_a_warm_125_point_cotton_peak_memory():
    # 802 485 B measured: the assembly's own arrays (the coefficients to
    # order 2 and those of order 3, 90 000 B each, are the largest) and
    # its output; 1 660 535 B with order-4 jets, all 20 coefficients in
    # one array, and each contraction's products and gamma2, s2 and g3
    # fresh
    fn, batch = _grid_batch("prop1-iff", {"h": "linear"})
    assert _traced_peak(lambda: fn(batch)) <= 802_485 * 1.25


# the most coefficients (rows) a Jet3 product of each check takes: the EW
# residual reads the metric to order 2 (10 rows) and the one-form to
# order 1, Cotton the metric to order 3 (20), and hypercr's metric
# differentiates H once, so H is built to order 3
_PRODUCT_ROWS = {"prop1-iff": 20, "hypercr-family": 20}


@pytest.mark.parametrize("check, params", _PLANE_CHECKS)
def test_jet3_products_take_only_the_orders_their_check_reads(
        monkeypatch, check, params):
    rows, mul = [], Jet3._mul_coeffs

    def counting(a, b):
        rows.append(len(a))
        return mul(a, b)

    monkeypatch.setattr(Jet3, "_mul_coeffs", staticmethod(counting))
    run_check(check, dict(params))
    assert max(rows) == _PRODUCT_ROWS.get(check, 10)
