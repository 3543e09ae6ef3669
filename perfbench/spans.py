"""Outside-in tracing of ewhorizon: spans and counters recorded by
wrapping the package's public functions from the benchmark's own code.

Nothing inside `ewhorizon` is edited.  `Tracer.install` replaces each
target function at every module attribute bound to it (so
`curvature.ew_residual` and `report.ew_residual` are both traced), and
patches class attributes for methods.  `Tracer.uninstall` restores the
originals.  A target missing from the package is recorded as absent and
its metrics are reported as None, never as 0.

A span is (name, start_ns, end_ns, parent, op): `parent` is the index of
the enclosing span on the same thread (-1 at a thread's top level), and
`op` is the sequence number of the op the main thread was running when
the span opened, which is how spans on `_pmap` worker threads attach to
their op.  Spans stay in memory until `write_jsonl` is called.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field

# (layer metric, module, function) for plain spans.  Several functions
# may feed one layer.
FUNCTION_SPANS = (
    ("report.run_check", "ewhorizon.report", "run_check"),
    ("report.export_plot", "ewhorizon.report", "export_plot"),
    ("report.scan_c", "ewhorizon.report", "scan_c"),
    ("curvature.ew_residual", "ewhorizon.curvature", "ew_residual"),
    ("curvature.cotton", "ewhorizon.curvature", "cotton"),
    ("nearhorizon.build", "ewhorizon.nearhorizon", "build_family"),
    ("nearhorizon.build", "ewhorizon.nearhorizon", "thm1_F_field"),
    ("nearhorizon.build", "ewhorizon.nearhorizon", "F_flat_from_h"),
    ("nearhorizon.build", "ewhorizon.nearhorizon", "F_from_h_field"),
    ("nearhorizon.detect_period", "ewhorizon.nearhorizon", "detect_period"),
    ("nearhorizon.periodicity_check", "ewhorizon.nearhorizon",
     "periodicity_check"),
    ("pdeverify.residual", "ewhorizon.pdeverify", "dkp_residual"),
    ("pdeverify.residual", "ewhorizon.pdeverify", "hypercr_residual"),
    ("pdeverify.alignment_defect", "ewhorizon.pdeverify",
     "alignment_defect"),
    ("specfun.hyp2f1", "ewhorizon.specfun", "hyp2f1"),
    ("specfun.wp_jet", "ewhorizon.specfun", "wp_jet"),
    ("specfun.sn_jet", "ewhorizon.specfun", "sn_imaginary_modulus_jet"),
    ("odesolve.quad", "ewhorizon.odesolve", "quad"),
)

# (layer metric, module, class, method) for spans on methods.
METHOD_SPANS = (
    ("report.serialize", "ewhorizon.report", "ResidualReport", "to_json"),
    ("report.serialize", "ewhorizon.report", "ResidualReport", "to_csv"),
    ("report.serialize", "ewhorizon.report", "ResidualReport", "human"),
    ("curvature.metric_jets", "ewhorizon.curvature", "MetricField", "jets"),
    ("curvature.oneform_jets", "ewhorizon.curvature", "OneFormField",
     "jets"),
)

# (counter, module, class, method): counted, not timed.
METHOD_COUNTS = (
    ("jets.jet3_mul", "ewhorizon.jets", "Jet3", "__mul__"),
    ("jets.jet1_mul", "ewhorizon.jets", "Jet1", "__mul__"),
)

PROFILE = ("nearhorizon.profile", "ewhorizon.nearhorizon", "ScalarField1D",
           "__call__")
INTEGRATE = ("odesolve.integrate", "ewhorizon.odesolve", "integrate")
THREADS = ("report.pool", "ewhorizon.report", "thread_count")


@dataclass
class ThreadLog:
    """Spans, open-span stack and counters of one thread."""

    thread: int
    spans: list = field(default_factory=list)  # [name, t0, t1, parent, op]
    stack: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs = []        # ThreadLog per thread that recorded anything
        self.op = -1          # current op sequence number (main thread)
        self.absent = set()   # layer names with a missing target
        self.threads = None   # thread_count() at install time
        self._undo = []
        self._profile_keys = set()
        self._profile_alive = {}

    # -- recording -------------------------------------------------------

    def _log(self) -> ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = ThreadLog(threading.get_ident())
            with self._lock:
                self.logs.append(log)
            self._local.log = log
        return log

    def _open(self, name):
        log = self._log()
        span = [name, time.perf_counter_ns(), 0,
                log.stack[-1] if log.stack else -1, self.op]
        log.stack.append(len(log.spans))
        log.spans.append(span)
        return log, span

    @staticmethod
    def _close(log, span):
        span[2] = time.perf_counter_ns()
        log.stack.pop()

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            log, span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(log, span)

        return traced

    def _counted(self, name, fn):
        local = self._local

        def counted(*args):
            log = getattr(local, "log", None) or self._log()
            log.counts[name] = log.counts.get(name, 0) + 1
            return fn(*args)

        return counted

    def _profile(self, name, fn):
        def profile(field_, x):
            log, span = self._open(name)
            key = (self.op, id(field_), x)
            self._profile_alive[id(field_)] = field_  # keep ids unique
            self._profile_keys.add(key)
            try:
                return fn(field_, x)
            except Exception:
                log.count(name + ".errors")
                raise
            finally:
                self._close(log, span)

        return profile

    def _integrate(self, name, fn):
        def integrate(spec, *args, **kwargs):
            log, span = self._open(name)
            rhs = spec.rhs
            counts, key = log.counts, name + ".rhs_calls"

            def counting_rhs(x, y):
                counts[key] = counts.get(key, 0) + 1
                return rhs(x, y)

            spec.rhs = counting_rhs
            try:
                traj = fn(spec, *args, **kwargs)
                log.count(name + ".steps", len(traj.xs) - 1)
                if traj.status == "guard":
                    log.count(name + ".guard_stops")
                return traj
            finally:
                spec.rhs = rhs
                self._close(log, span)

        return integrate

    # -- patching --------------------------------------------------------

    def _rebind_function(self, name, module, attr, make):
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None)
        if orig is None:
            self.absent.add(name)
            return
        wrapper = make(name, orig)
        for mname, m in list(sys.modules.items()):
            if mname != "ewhorizon" and not mname.startswith("ewhorizon."):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)
                    self._undo.append((m, key, orig, True))

    def _patch_method(self, name, module, cls, meth, make):
        klass = getattr(sys.modules.get(module), cls, None)
        # look the method up in the class dicts: getattr would find
        # type.__call__ on any class
        orig = next((vars(k)[meth] for k in getattr(klass, "__mro__", ())
                     if meth in vars(k)), None)
        if orig is None:
            self.absent.add(name)
            return
        own = meth in vars(klass)
        setattr(klass, meth, make(name, orig))
        self._undo.append((klass, meth, orig, own))

    def install(self):
        """Wrap every target; the package must already be imported."""
        for name, module, attr in FUNCTION_SPANS:
            self._rebind_function(name, module, attr, self._span)
        self._rebind_function(*INTEGRATE, self._integrate)
        for name, module, cls, meth in METHOD_SPANS:
            self._patch_method(name, module, cls, meth, self._span)
        for name, module, cls, meth in METHOD_COUNTS:
            self._patch_method(name, module, cls, meth, self._counted)
        self._patch_method(*PROFILE, self._profile)
        name, module, attr = THREADS
        thread_count = getattr(sys.modules.get(module), attr, None)
        if thread_count is None:
            self.absent.add(name)
        else:
            self.threads = thread_count()

    def uninstall(self):
        for target, key, orig, own in reversed(self._undo):
            if own:
                setattr(target, key, orig)
            else:
                delattr(target, key)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def profile_distinct(self) -> int:
        """Distinct (op, field, x) triples seen by ScalarField1D.__call__."""
        return len(self._profile_keys)

    def write_jsonl(self, path, op_names):
        """One JSON object per span; `op_names` maps op sequence numbers
        to op names."""
        with open(path, "w") as f:
            for tno, log in enumerate(self.logs):
                for i, (name, t0, t1, parent, op) in enumerate(log.spans):
                    f.write(json.dumps({
                        "id": f"{tno}:{i}", "name": name, "start_ns": t0,
                        "end_ns": t1,
                        "parent": f"{tno}:{parent}" if parent >= 0 else None,
                        "thread": log.thread, "op": op,
                        "op_name": op_names.get(op)}) + "\n")


def self_times(logs) -> dict:
    """{name: [calls, self_ns]}: a span's self time is its duration minus
    the durations of its direct children on the same thread."""
    out = {}
    for log in logs:
        child = [0] * len(log.spans)
        for name, t0, t1, parent, _ in log.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, t0, t1, _, _), c in zip(log.spans, child):
            rec = out.setdefault(name, [0, 0])
            rec[0] += 1
            rec[1] += (t1 - t0) - c
    return out


def busy_ratio(logs, threads) -> float:
    """Sum of the child-span time of every run_check span, over all
    threads, divided by the sum of (run_check wall time x threads).
    Children are run_check's direct children on its own thread plus the
    top-level spans of other threads opened during the same op.  0.0 when
    no run_check span exists."""
    logs = list(logs)
    roots = {}   # op -> (thread index, span index, wall ns)
    for tno, log in enumerate(logs):
        for i, (name, t0, t1, _, op) in enumerate(log.spans):
            if name == "report.run_check":
                roots[op] = (tno, i, t1 - t0)
    if not roots:
        return 0.0
    busy = 0
    for tno, log in enumerate(logs):
        for name, t0, t1, parent, op in log.spans:
            if op not in roots:
                continue
            rt, ri, _ = roots[op]
            if (tno == rt and parent == ri) or (tno != rt and parent < 0):
                busy += t1 - t0
    wall = sum(w for _, _, w in roots.values())
    return busy / (wall * threads)
