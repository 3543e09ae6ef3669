"""ewhorizon benchmark: time to verdict on four workloads.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 12 \\
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it print every metric by name with its unit, plus
fail_frac and the environment.  `--workload all` runs the four workloads
one after another and prints only the lines before the JSON.

Times are reported in reference seconds: wall time scaled by a host-speed
probe taken around each timed call (perfbench/hostspeed.py), so that the
slow phases of a shared host cancel out.  Raw wall medians are printed as
well.

Each workload runs in its own fresh child process (perfbench/worker.py)
with EWH_THREADS unset, as the program ships.  `setup_s` is measured
here: the median wall time of SETUP_SPAWNS sequential fresh
`python -m ewhorizon.cli --help` processes, after one untimed spawn.
`first_pass_s` is the median over fresh worker processes: the measuring
one plus first-pass-only ones, at least one and as many as it takes for
their first passes to add up to FIRST_PASS_TOTAL_S.  The ops of all of
them count in `attempted` and `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 5
FIRST_PASS_TOTAL_S = 1.5
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("EWH_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env) -> list:
    """Reference seconds (see hostspeed) of each timed spawn; the raw
    wall times are returned second."""
    cmd = [sys.executable, "-m", "ewhorizon.cli", "--help"]
    scaled, wall = [], []
    for i in range(SETUP_SPAWNS + 1):
        before = hostspeed.probe()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        dt = time.perf_counter() - t0
        after = hostspeed.probe()
        if proc.returncode != 0 or "usage: ewh" not in proc.stdout:
            raise BenchError(f"`{' '.join(cmd[1:])}` failed "
                             f"(exit {proc.returncode}): "
                             f"{proc.stderr.strip()[-500:]}")
        if i:
            scaled.append(hostspeed.scale(dt, (before, after)))
            wall.append(dt)
    return scaled, wall


def run_child(workload, seed, seconds, trace, env, first_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--first-only"] if first_only else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace) -> dict:
    env = child_env()
    if trace:
        return run_child(workload, seed, seconds, trace, env)
    setup, setup_wall = setup_seconds(env)
    extra = []
    while not extra or sum(r["first_pass_s"]
                           for r in extra) < FIRST_PASS_TOTAL_S:
        extra.append(run_child(workload, seed, seconds, trace, env,
                               first_only=True))
    res = run_child(workload, seed, seconds, trace, env)
    firsts = [res["first_pass_s"]] + [r["first_pass_s"] for r in extra]
    res["attempted"] += sum(r["attempted"] for r in extra)
    res["failed"] += sum(r["failed"] for r in extra)
    res["metrics"] = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "first_pass_s": {"value": statistics.median(firsts), "unit": "s"},
        **res["metrics"]}
    res["wall"] = {"setup_s": statistics.median(setup_wall),
                   "pass_s": res.pop("wall_pass_s")}
    return res


def describe(res) -> list:
    """Human-readable lines: every metric by name, value and unit."""
    w = res["workload"]
    lines = [f"# {w} seed={res['seed']} passes={res['passes']}"]
    if "op_times" in res:
        lines.append(f"# {w} op samples={len(res['op_times'])} "
                     f"beyond p90={res['beyond_p90']}")
        lines.append(f"# {w} warm pass times (reference s): "
                     + " ".join(f"{t:.4f}" for t in res["pass_times"]))
        lines.append(f"# {w} raw wall medians (s): setup_s "
                     f"{res['wall']['setup_s']:.4f} pass_s "
                     f"{res['wall']['pass_s']:.4f}")
    for name, m in res["metrics"].items():
        v = m["value"]
        text = "absent" if v is None else f"{v:.6g}"
        lines.append(f"{w:16s} {name:38s} {text:>14s} {m['unit']}")
    if "op_ms.p50" in res:
        lines.append(f"{w:16s} {'op_ms.p50':38s} {res['op_ms.p50']:>14.6g} ms "
                     f"(printed, not gated)")
    frac = res["failed"] / res["attempted"]
    lines.append(f"{w:16s} {'fail_frac':38s} {frac:>14.6g} ratio "
                 f"({res['failed']} of {res['attempted']} ops)")
    if res.get("absent"):
        lines.append(f"# {w} absent targets: {', '.join(res['absent'])}")
    if res.get("spans_file"):
        lines.append(f"# {w} spans: {res['spans_file']}")
    lines.append(f"# {w} env {json.dumps(res['env'], sort_keys=True)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ewhorizon" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ewhorizon sources under "
                         f"{ROOT / 'src'}; run from a full checkout\n")
        return 2
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(describe(res)), flush=True)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    if args.workload != "all":
        print(json.dumps({"correct": res["failed"] == 0,
                          "attempted": res["attempted"],
                          "failed": res["failed"],
                          "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
