"""Record the benchmark of a checkout into one BENCH_<rev>.json.

    python3 tools/bench_record.py --seed 7 --seconds 12
    python3 tools/bench_record.py --root ../other-checkout --seed 7 \\
        --seconds 12

For each workload that BENCHMARK.json declares, runs the declared
command (`python3 perfbench/run.py`) in the checkout as

    python3 perfbench/run.py --workload <w> --seed S --seconds N --trace 0

and keeps its `# <w> env {...}` line and its last line, the JSON result.
The file holds, per workload, the command, the env, `correct`,
`attempted`, `failed` and every metric; and, for the whole run, the
seed, the seconds, the checkout's commit and a sha256 of its sources
(src/ and perfbench/), which names the measured code even where those
sources differ from the commit.

`rev` is the commit's first 7 hex digits where the sources match it,
else "src-" and the first 12 of the sources' sha256.  The file goes to
--out, by default BENCH_<rev>.json at the root of the repository this
script is in.  Exits 1 (after writing the file) when a workload's
result is not `correct`, 2 when a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MEASURED = ("src", "perfbench")  # the sources a benchmark run depends on


class RecordError(Exception):
    pass


def sources_sha256(root: Path) -> str:
    """sha256 over the measured .py and .json files of `root`: each
    file's path relative to root, a NUL, its bytes and a NUL, in sorted
    path order."""
    digest = hashlib.sha256()
    files = sorted(p for d in MEASURED for p in (root / d).rglob("*")
                   if p.suffix in (".py", ".json") and p.is_file()
                   and "__pycache__" not in p.parts)
    for p in files:
        digest.update(p.relative_to(root).as_posix().encode() + b"\0")
        digest.update(p.read_bytes() + b"\0")
    return digest.hexdigest()


def _git(root: Path, *args) -> str:
    proc = subprocess.run(["git", "-C", str(root), *args],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def default_rev(root: Path, digest: str) -> str:
    """The commit's short hash where the measured sources are committed
    unchanged, else a name from their sha256."""
    commit = _git(root, "rev-parse", "--short=7", "HEAD")
    clean = commit and not _git(root, "status", "--porcelain", "--",
                                *MEASURED)
    return commit if clean else "src-" + digest[:12]


def run_workload(root: Path, command: list, workload: str, seed: int,
                 seconds: float) -> dict:
    """One workload's record: its command, env and result."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}", "--trace", "0"]
    # the declared interpreter is this one
    proc = subprocess.run([sys.executable] + argv[1:], cwd=root,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RecordError(f"{workload}: `{' '.join(argv)}` exited "
                          f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    prefix = f"# {workload} env "
    env = [json.loads(line[len(prefix):]) for line in lines
           if line.startswith(prefix)]
    if len(env) != 1:
        raise RecordError(f"{workload}: {len(env)} env lines, not one")
    result = json.loads(lines[-1])
    return {"command": argv, "env": env[0], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": result["metrics"]}


def record(root: Path, seed: int, seconds: float) -> dict:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    runs = {}
    for name in (w["name"] for w in bench["workloads"]):
        runs[name] = run_workload(root, bench["command"], name, seed,
                                  seconds)
        print(f"{name}: correct={runs[name]['correct']} "
              + " ".join(f"{k}={m['value']:.6g}"
                         for k, m in runs[name]["metrics"].items()),
              flush=True)
    return {"commit": next(iter(runs.values()))["env"]["commit"],
            "sources_sha256": sources_sha256(root), "seed": seed,
            "seconds": seconds, "workloads": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, default=REPO,
                    help="the checkout to measure (default: this one)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path,
                    help="the file to write (default: BENCH_<rev>.json at "
                         "the root of this repository)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    try:
        rec = record(root, args.seed, args.seconds)
    except RecordError as e:
        sys.stderr.write(f"bench_record: {e}\n")
        return 2
    rec = {"rev": default_rev(root, rec["sources_sha256"]), **rec}
    out = args.out or REPO / f"BENCH_{rec['rev']}.json"
    out.write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {out}")
    wrong = [w for w, r in rec["workloads"].items()
             if r["correct"] is not True]
    if wrong:
        sys.stderr.write(f"bench_record: the benchmark oracle rejected an "
                         f"op of {', '.join(wrong)}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
