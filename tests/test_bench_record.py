"""tools/bench_record.py --compare on two synthetic BENCH files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _record(path, **values):
    """A BENCH file whose every end-to-end metric reads 1.0, except
    those given as values["<workload>/<metric>"]."""
    runs = {}
    for w in (w["name"] for w in BENCH["workloads"]):
        runs[w] = {"metrics": {
            m["name"]: {"value": values.get(f"{w}/{m['name']}", 1.0),
                        "unit": m["unit"]}
            for m in BENCH["end_to_end"]}}
    path.write_text(json.dumps({"workloads": runs}))
    return str(path)


def _compare(tmp_path, capsys, **new):
    code = bench_record.main(["--compare", _record(tmp_path / "base.json"),
                              _record(tmp_path / "new.json", **new)])
    lines = capsys.readouterr().out.splitlines()[1:]
    return code, {tuple(ln.split()[:2]): ln for ln in lines}


def test_compare_flags_only_a_metric_worse_than_its_bound(tmp_path, capsys):
    # pass_s may rise 25%, peak_rss_mb 10%; a fall is never flagged
    code, rows = _compare(tmp_path, capsys, **{
        "verify-grid/pass_s": 1.2, "sweep-1d/peak_rss_mb": 1.11,
        "scan-c/op_ms.p90": 0.5})
    assert code == 1
    assert len(rows) == len(BENCH["workloads"]) * len(BENCH["end_to_end"])
    flagged = [k for k, ln in rows.items() if ln.endswith("PAST BOUND")]
    assert flagged == [("sweep-1d", "peak_rss_mb")]
    assert rows["verify-grid", "pass_s"].split()[2:6] == [
        "1", "1.2", "1.200", "25%"]
    assert rows["scan-c", "op_ms.p90"].split()[4] == "0.500"


def test_compare_within_every_bound_exits_0(tmp_path, capsys):
    code, rows = _compare(tmp_path, capsys, **{
        "verify-grid/pass_s": 0.7, "profile-catalog/setup_s": 1.25})
    assert code == 0
    assert not any(ln.endswith("PAST BOUND") for ln in rows.values())


def test_compare_names_a_missing_metric(tmp_path, capsys):
    base = _record(tmp_path / "base.json")
    rec = json.loads(Path(base).read_text())
    del rec["workloads"]["scan-c"]["metrics"]["pass_s"]
    new = tmp_path / "new.json"
    new.write_text(json.dumps(rec))
    assert bench_record.main(["--compare", base, str(new)]) == 2
    assert "scan-c pass_s: missing" in capsys.readouterr().err
