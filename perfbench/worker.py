"""One workload in one fresh process: run passes, check outputs, report.

    PYTHONPATH=src python3 perfbench/worker.py --workload verify-grid \\
        --seed 1 --seconds 12 --trace 0

`perfbench/run.py` starts this once per workload, so module-level caches
and peak RSS never carry over between workloads, and a few more times
with --first-only for the median of `first_pass_s`.  The last line of
stdout is a JSON object with the workload's metrics (without `setup_s`
and `first_pass_s`, which `run.py` assembles); failed ops are listed on
stderr.

A pass runs every op of the workload once, in an order the seed shuffles
anew for each pass.  The first pass pays lazy set-up and gives
`first_pass_s`.  With --trace 0 warm passes follow until --seconds have
elapsed and at least MIN_BEYOND_P90 op samples lie beyond `op_ms.p90`.
With --trace 1 the warm time is split: untraced passes first, then
passes with the tracer installed; the per-layer metrics are per traced
pass, and `trace.overhead_s` is the traced median pass time minus the
untraced one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_BEYOND_P90 = 10


class Runner:
    """Times ops and counts the ones whose output the oracle rejects."""

    def __init__(self, ops, seed, report):
        self.ops = ops
        self.report = report
        self._rng = random.Random(seed)
        self.attempted = 0
        self.failures = []    # (op name, reason)
        self.op_names = {}    # op sequence number -> op name
        self.wall_passes = []  # raw wall time of every pass
        self.tracer = None

    def run_pass(self):
        """Run every op once in a fresh shuffled order.  Returns the pass
        time and the op times, in reference seconds (see hostspeed); the
        oracle and the probes are outside the timed regions.  The raw
        wall time of the pass is appended to `wall_passes`."""
        order = list(range(len(self.ops)))
        self._rng.shuffle(order)
        times, probes = [], [hostspeed.probe()]
        for i in order:
            op = self.ops[i]
            seq = self.attempted
            self.attempted += 1
            self.op_names[seq] = op.name
            if self.tracer is not None:
                self.tracer.op = seq
            out, reason = None, None
            t0 = time.perf_counter()
            try:
                out = op.run(self.report)
            except Exception as e:  # a failed op is counted, not fatal
                reason = f"raised {type(e).__name__}: {e}"
            times.append(time.perf_counter() - t0)
            probes.append(hostspeed.probe())
            if reason is None:
                try:
                    reason = op.judge(out)
                except Exception as e:
                    reason = f"oracle raised {type(e).__name__}: {e}"
            if reason is not None:
                self.failures.append((op.name, reason))
        self.wall_passes.append(sum(times))
        # op k ran between probes k and k + 1; take the two on each side
        scaled = [hostspeed.scale(t, probes[max(0, k - 1):k + 3])
                  for k, t in enumerate(times)]
        return sum(scaled), scaled


def passes_for(runner, seconds, min_beyond_p90=0):
    """Warm passes until `seconds` elapsed and `min_beyond_p90` op times
    lie beyond their p90 (at least one pass)."""
    pass_s, op_s = [], []
    t_end = time.perf_counter() + seconds
    while (not pass_s or time.perf_counter() < t_end
           or beyond_p90(op_s) < min_beyond_p90):
        p, ts = runner.run_pass()
        pass_s.append(p)
        op_s.extend(ts)
    return pass_s, op_s


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a weighted mean of the
    order statistics with Beta(q (n+1), (1-q) (n+1)) weights, taken here
    at bin midpoints.  Op times cluster by op, and profile-catalog has
    exactly half its ops under 6 ms; a single order statistic at such a
    gap jumps between the clusters' tails, the weighted mean does not."""
    s = sorted(values)
    n = len(s)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logw = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((i + 0.5) / n for i in range(n))]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    return sum(wi * si for wi, si in zip(w, s)) / sum(w)


def beyond_p90(values) -> int:
    """How many samples lie above their p90."""
    if not values:
        return 0
    p90 = quantile(values, 0.9)
    return sum(v > p90 for v in values)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(pass_s, op_s):
    """Warm-pass metrics of the child; run.py adds setup_s and
    first_pass_s.  op_ms.p50 is printed but not declared in
    BENCHMARK.json: see README.md."""
    return {
        "pass_s": _metric(statistics.median(pass_s), "s"),
        "op_ms.p90": _metric(quantile(op_s, 0.9) * 1e3, "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB"),
    }


# Span layers: each reports self_s, and calls unless it is in _SELF_ONLY;
# _COUNTS names the counters a layer reports besides.
_TIMED = ("report.run_check", "report.export_plot", "report.scan_c",
          "report.serialize", "curvature.ew_residual", "curvature.cotton",
          "curvature.metric_jets", "curvature.oneform_jets",
          "nearhorizon.profile", "nearhorizon.build",
          "nearhorizon.detect_period", "nearhorizon.periodicity_check",
          "pdeverify.residual", "pdeverify.alignment_defect",
          "specfun.hyp2f1", "specfun.wp_jet", "specfun.sn_jet",
          "odesolve.integrate", "odesolve.quad")
_SELF_ONLY = {"report.run_check", "report.export_plot", "report.scan_c",
              "report.serialize", "nearhorizon.build"}
_COUNTS = {"nearhorizon.profile": ("errors",),
           "odesolve.integrate": ("steps", "rhs_calls", "guard_stops")}


def per_layer(tracer, passes, untraced_pass_s, traced_pass_s):
    """Per-layer metrics, each per traced pass.  Metrics of an absent
    target are None."""
    st = spans.self_times(tracer.logs)
    counts = {}
    for log in tracer.logs:
        for k, v in log.counts.items():
            counts[k] = counts.get(k, 0) + v
    out = {}

    def put(layer, suffix, value, unit):
        absent = layer in tracer.absent
        out[f"{layer}.{suffix}"] = _metric(None if absent else value, unit)

    for layer in _TIMED:
        calls, self_ns = st.get(layer, (0, 0))
        if layer not in _SELF_ONLY:
            put(layer, "calls", calls / passes, "count")
        put(layer, "self_s", self_ns * 1e-9 / passes, "s")
        for suffix in _COUNTS.get(layer, ()):
            put(layer, suffix, counts.get(f"{layer}.{suffix}", 0) / passes,
                "count")
    for layer in ("jets.jet3_mul", "jets.jet1_mul"):
        put(layer, "calls", counts.get(layer, 0) / passes, "count")

    calls = st.get("nearhorizon.profile", (0, 0))[0]
    distinct = tracer.profile_distinct()
    put("nearhorizon.profile", "distinct_x", distinct / passes, "count")
    put("nearhorizon.profile", "calls_per_x",
        calls / distinct if distinct else 0.0, "ratio")

    threads = tracer.threads
    put("report.pool", "threads", threads, "count")
    put("report.pool", "busy_ratio",
        spans.busy_ratio(tracer.logs, threads) if threads else None, "ratio")

    untraced = statistics.median(untraced_pass_s)
    traced = statistics.median(traced_pass_s)
    out["trace.pass_s"] = _metric(traced, "s")
    out["trace.untraced_pass_s"] = _metric(untraced, "s")
    out["trace.overhead_s"] = _metric(traced - untraced, "s")
    return out


def _commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = root / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(report) -> dict:
    import numpy
    return {"thread_count": report.thread_count(),
            "EWH_THREADS": os.environ.get("EWH_THREADS"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "commit": _commit(ROOT)}


def measure(workload, seed, seconds, trace, report, first_only=False):
    """Run the workload and return the child's result object."""
    runner = Runner(workloads.build(workload, seed, report), seed, report)
    first_pass_s, _ = runner.run_pass()
    result = {"workload": workload, "seed": seed,
              "first_pass_s": first_pass_s, "metrics": {}, "passes": 1}
    if trace:
        untraced, _ = passes_for(runner, seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        runner.tracer = tracer
        try:
            traced, _ = passes_for(runner, seconds / 2)
        finally:
            tracer.uninstall()
            runner.tracer = None
        result["metrics"] = per_layer(tracer, len(traced), untraced, traced)
        result["passes"] += len(untraced) + len(traced)
        result["absent"] = sorted(tracer.absent)
        result["tracer"] = tracer
    elif not first_only:
        pass_s, op_s = passes_for(runner, seconds, MIN_BEYOND_P90)
        result["metrics"] = end_to_end(pass_s, op_s)
        result["passes"] += len(pass_s)
        result["pass_times"] = pass_s
        result["op_times"] = op_s
        result["wall_pass_s"] = statistics.median(runner.wall_passes[1:])
        result["beyond_p90"] = beyond_p90(op_s)
        result["op_ms.p50"] = quantile(op_s, 0.5) * 1e3
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    result["op_names"] = runner.op_names
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-only", action="store_true",
                    help="run only the first pass")
    args = ap.parse_args(argv)

    from ewhorizon import report
    src = (ROOT / "src").resolve()
    if src not in Path(report.__file__).resolve().parents:
        sys.stderr.write(f"perfbench: imported ewhorizon from "
                         f"{report.__file__}, not from {src}\n")
        return 2

    res = measure(args.workload, args.seed, args.seconds, args.trace, report,
                  first_only=args.first_only)
    for name, reason in res["failures"]:
        sys.stderr.write(f"perfbench: FAILED {name}: {reason}\n")
    tracer = res.pop("tracer", None)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}.jsonl"
        tracer.write_jsonl(path, res["op_names"])
        res["spans_file"] = str(path.relative_to(ROOT))
    res["failed"] = len(res.pop("failures"))
    del res["op_names"]
    res["env"] = environment(report)
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
