"""tools/bench_record.py --compare on two synthetic BENCH files."""

import importlib.util
import json
import py_compile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _record(path, bytecode=None, **values):
    """A BENCH file whose every end-to-end metric reads 1.0, except
    those given as values["<workload>/<metric>"], and whose workloads
    met the bytecode states of `bytecode` (workload -> state)."""
    runs = {}
    for w in (w["name"] for w in BENCH["workloads"]):
        runs[w] = {"metrics": {
            m["name"]: {"value": values.get(f"{w}/{m['name']}", 1.0),
                        "unit": m["unit"]}
            for m in BENCH["end_to_end"]}}
        if bytecode and w in bytecode:
            runs[w]["bytecode"] = bytecode[w]
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


def test_compare_warns_of_runs_in_different_bytecode_states(tmp_path,
                                                            capsys):
    # a workload that compiled its imports in one record and loaded valid
    # bytecode in the other is named on stderr; the exit code is the
    # metrics' alone, and a state only one file records reads unrecorded
    states = {w["name"]: "valid" for w in BENCH["workloads"]}
    base = _record(tmp_path / "base.json", bytecode=states)
    new_states = {**states, "verify-grid": "none"}
    del new_states["scan-c"]
    new = _record(tmp_path / "new.json", bytecode=new_states)
    assert bench_record.main(["--compare", base, new]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "bench_record: warning: scan-c met the package's bytecode valid in "
        "BASE, unrecorded in NEW; setup_s and peak_rss_mb move with it",
        "bench_record: warning: verify-grid met the package's bytecode "
        "valid in BASE, none in NEW; setup_s and peak_rss_mb move with it"]
    assert bench_record.main(["--compare", base, base]) == 0
    assert capsys.readouterr().err == ""


def test_bytecode_state_reads_what_an_import_would_load(tmp_path):
    # none, partial or valid: a module's cached bytecode counts where
    # its header matches the source (mtime and size, or its hash)
    pkg = tmp_path / bench_record.PACKAGE
    pkg.mkdir(parents=True)
    a, b = pkg / "a.py", pkg / "b.py"
    a.write_text("x = 1\n")
    b.write_text("y = 2\n")
    state = bench_record.bytecode_state
    assert state(tmp_path) == "none"
    py_compile.compile(a, importlib.util.cache_from_source(a))
    assert state(tmp_path) == "partial"
    py_compile.compile(b, importlib.util.cache_from_source(b),
                       invalidation_mode=py_compile.PycInvalidationMode
                       .CHECKED_HASH)
    assert state(tmp_path) == "valid"
    b.write_text("y = 3\n")  # same size and, maybe, mtime: the hash tells
    assert state(tmp_path) == "partial"
    a.write_text("x = 10\n")
    assert state(tmp_path) == "none"
