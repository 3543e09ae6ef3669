"""The benchmark's four workloads, their ops, and the correctness oracle.

An op is one call a user waits on: `run_check` followed by `to_json()`
and `human()` (what `ewh verify --json` does), one `export_plot` call, or
one `scan_c` call for a single c.  Each op knows how to run itself
against the `ewhorizon.report` module and how to judge its own output:
`judge` returns None when the output is correct and a one-line reason
otherwise.  Values are compared, never bytes, so a change that only
moves roundoff still passes.

The seed shuffles op order per pass (done by the caller) and, on
verify-grid only, moves the nu and r grid endpoints by up to 0.2.  Every
verify identity holds pointwise in nu and r (det g = -1 everywhere), so
the expected verdicts do not depend on the seed.  x axes and claim
parameters stay at their defaults.

Inputs none of these workloads send are not certified here.  In
particular `ewh verify family:tan --grid x=50:60:5` passes vacuously (every
point lies off the window and is mapped to a zero residual); this
benchmark only uses the default x axes, which lie inside the window.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("verify-grid", "sweep-1d", "profile-catalog", "scan-c")

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# x_start / x_end of a scan row must agree to this relative tolerance,
# with the scale floored at 1 so that edges near x = 0 are compared
# absolutely.
SCAN_RTOL = 1e-6

GRID_JITTER = 0.2


def _flags(params: dict) -> str:
    return "".join(f" --{k} {v}" for k, v in params.items())


@dataclass
class VerifyOp:
    check: str
    params: dict = field(default_factory=dict)
    expect_fail: bool = False
    grid: object = None  # a GridSpec, or None for the default grid

    @property
    def name(self) -> str:
        return ("verify " + self.check + _flags(self.params)
                + (" --expect-fail" if self.expect_fail else ""))

    def run(self, report):
        rep = report.run_check(self.check, params=dict(self.params),
                               grid=self.grid, expect_fail=self.expect_fail)
        return rep, rep.to_json(), rep.human()

    def judge(self, out):
        rep, text, human = out
        want = "fail" if self.expect_fail else "pass"
        if rep.status != want:
            return f"verdict {rep.status}, expected {want}"
        bad = [k for k, v in rep.components.items()
               if not math.isfinite(float(v))]
        if bad:
            return f"non-finite components {bad}"
        doc = json.loads(text)
        if doc["status"] != want or doc["overall_max"] != rep.overall_max:
            return "json report disagrees with the report object"
        if want.upper() not in human:
            return "human report does not state the verdict"
        return None


@dataclass
class SweepOp:
    check: str
    params: dict
    tolerance: float
    rows: int = None       # expected data rows (header and marker excluded)
    clipped: bool = None   # expected trailing "# window-clipped" marker
    samples: int = 200

    @property
    def name(self) -> str:
        return f"export-plot {self.check}{_flags(self.params)}"

    def run(self, report):
        return report.export_plot(self.check, params=dict(self.params),
                                  samples=self.samples)

    def judge(self, lines):
        clipped = bool(lines) and lines[-1] == "# window-clipped"
        data = lines[1:-1] if clipped else lines[1:]
        if clipped != self.clipped:
            return f"window-clipped {clipped}, expected {self.clipped}"
        if len(data) != self.rows:
            return f"{len(data)} rows, expected {self.rows}"
        for line in data:
            cells = line.split(",")
            try:
                vals = [float(c) for c in cells if c != ""]
            except ValueError:
                return f"unparsable row {line!r}"
            if not all(math.isfinite(v) for v in vals):
                return f"non-finite value in row {line!r}"
            if not abs(float(cells[-1])) < self.tolerance:
                return f"residual {cells[-1]} not below {self.tolerance:g}"
        return None


@dataclass
class ScanOp:
    seed: str
    c: float
    status: str = None
    periodic: bool = None
    x_start: float = None
    x_end: float = None

    @property
    def name(self) -> str:
        return f"scan-c --seed {self.seed} --from {self.c!r} --to {self.c!r}"

    def run(self, report):
        return report.scan_c(self.c, self.c, 1, seed=self.seed)

    def judge(self, rows):
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        c, status, x_start, x_end, periodic, _ = rows[0]
        if c != self.c:
            return f"row for c={c!r}, expected {self.c!r}"
        if status != self.status or periodic != self.periodic:
            return (f"({status}, periodic={periodic}), expected "
                    f"({self.status}, periodic={self.periodic})")
        for label, got, want in (("x_start", x_start, self.x_start),
                                 ("x_end", x_end, self.x_end)):
            if not abs(got - want) <= SCAN_RTOL * max(1.0, abs(want)):
                return f"{label} {got!r}, expected {want!r}"
        return None


def _verify_grid(rng: random.Random, report):
    def jitter(lo, hi):
        return (lo + rng.uniform(-GRID_JITTER, GRID_JITTER),
                hi + rng.uniform(-GRID_JITTER, GRID_JITTER), 5)

    grid = report.GridSpec(nu=jitter(-1.0, 1.0), r=jitter(-1.0, 1.0))
    specs = [("thm1", {"h": "zero"}, False),
             ("thm1", {"h": "sin"}, False),
             ("thm1", {"h": "sin", "perturb": 1.01}, True)]
    specs += [("thm2-ode", {"family": f}, False)
              for f in ("tanh", "rational", "jacobi", "tan", "numeric")]
    specs += [("prop1-iff", {"h": "linear"}, False),
              ("prop1-iff", {"h": "sin"}, False),
              ("prop1-iff", {"F": "one"}, True),
              ("dkp", {}, False), ("hypercr-family", {}, False),
              ("prop4", {}, False)]
    return [VerifyOp(c, p, ef, grid) for c, p, ef in specs]


def _profile_catalog():
    ops = [VerifyOp(f"family:{tag}")
           for tag in ("linear", "quadratic", "rational", "tan", "tanh",
                       "jacobi", "weierstrass", "hypergeometric",
                       "numeric")]
    ops += [VerifyOp("chalf-Fode", {"h": h})
            for h in ("zero", "sin", "linear")]
    return ops


def sweep_specs():
    """(check, params, tolerance) of each sweep; the tolerance is the
    check's own default in `run_check`."""
    return [("thm1", {"h": "zero"}, 1e-8),
            ("thm1", {"h": "sin"}, 1e-5),
            ("thm2-ode", {"family": "tanh"}, 1e-8),
            ("thm2-ode", {"family": "jacobi"}, 1e-8),
            ("prop1-iff", {"h": "linear"}, 1e-9),
            ("dkp", {}, 1e-8),
            ("prop4", {}, 1e-8)]


def scan_values():
    """(seed, c) of each scan op: 13 values of c per seed."""
    out = []
    for seed, lo, hi in (("quadratic", -1.0, 2.0), ("tanh", -2.0, 1.0)):
        out += [(seed, lo + (hi - lo) * i / 12) for i in range(13)]
    return out


def load_expected() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def _sweep_1d(expected):
    ops = []
    for check, params, tol in sweep_specs():
        op = SweepOp(check, params, tol)
        want = expected["sweep-1d"][op.name]
        op.rows, op.clipped = want["rows"], want["clipped"]
        ops.append(op)
    return ops


def _scan_c(expected):
    ops = []
    for seed, c in scan_values():
        op = ScanOp(seed, c)
        want = expected["scan-c"][op.name]
        op.status, op.periodic = want["status"], want["periodic"]
        op.x_start, op.x_end = want["x_start"], want["x_end"]
        ops.append(op)
    return ops


def build(workload: str, seed: int, report) -> list:
    """The ops of `workload` for `seed`, in their canonical order."""
    if workload == "verify-grid":
        return _verify_grid(random.Random(f"{workload}:{seed}"), report)
    if workload == "profile-catalog":
        return _profile_catalog()
    expected = load_expected()
    if workload == "sweep-1d":
        return _sweep_1d(expected)
    if workload == "scan-c":
        return _scan_c(expected)
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
