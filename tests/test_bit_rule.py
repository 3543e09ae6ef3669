"""The bit rule of a batch, guarded statically and on a first pass.

A batch of x takes one pass, and entry k keeps the bits of the float
evaluation at x[k] (`ewhorizon.jets`): every `math` call of the float
path is mapped over the batch, and only + - * / run in numpy.  numpy's
own elementary functions round differently from the C library that
`math` calls.  Against `math` on the 2-vCPU Xeon host these figures were
measured on (Python 3.11.7, numpy 2.4.6), over 200 000 uniform samples
each, the numpy result differs in
- np.tanh: 27% of the samples on [-5, 5];
- np.arcsin: 8.5% on [-1, 1];
- np.exp: 4.7% on [-30, 30];
- x ** 3 (np.power): 5.3%, and even x ** 2: 0.08%, on [0.1, 10];
- np.tan 0.5%, np.arctan 0.13%, np.log 0.01%.
np.sin and np.cos matched there, but numpy picks their loops by CPU, so
they may differ elsewhere.  np.unique imports numpy.ma on its first
call, which adds to the first pass of every process (see below).
"""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ewhorizon"

_BANNED = {"exp", "log", "sin", "cos", "tan", "tanh", "arcsin", "arctan",
           "power", "float_power", "unique"}


def _numpy_calls(tree):
    """(line, name) of each call np.<name>(...) or numpy.<name>(...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in ("np", "numpy"):
            yield node.lineno, node.func.attr


def test_the_package_calls_no_numpy_function_that_rounds_its_own_way():
    found = [f"{path.name}:{line}: np.{name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in _numpy_calls(ast.parse(path.read_text()))
             if name in _BANNED]
    assert not found, found


def test_the_guard_sees_a_banned_call():
    tree = ast.parse("import numpy as np\ny = np.tanh(x) + np.sqrt(x)\n")
    assert [name for _, name in _numpy_calls(tree)] == ["tanh", "sqrt"]


# every check of the benchmark's verify-grid workload, and one sweep
_FIRST_PASS = """
import sys
from ewhorizon import report
checks = [("thm1", {"h": "zero"}), ("thm1", {"h": "sin"}),
          ("thm1", {"h": "sin", "perturb": 1.01}),
          *(("thm2-ode", {"family": f})
            for f in ("tanh", "rational", "jacobi", "tan", "numeric")),
          ("prop1-iff", {"h": "linear"}), ("prop1-iff", {"h": "sin"}),
          ("prop1-iff", {"F": "one"}), ("dkp", {}), ("hypercr-family", {}),
          ("prop4", {})]
for check, params in checks:
    report.run_check(check, params=params)
report.export_plot("thm1", params={"h": "sin"}, samples=40)
print("numpy.ma" in sys.modules)
"""


def test_a_first_pass_does_not_import_numpy_ma():
    # importing numpy.ma takes 9-17 ms and 1.3 MiB of memory on the host
    # above, against a first verify-grid pass of about 55 ms; np.unique
    # (and so a grouping of dense-output steps by it) imports it
    out = subprocess.run([sys.executable, "-c", _FIRST_PASS],
                         capture_output=True, text=True, timeout=120,
                         env={"PYTHONPATH": str(ROOT / "src"),
                              "PATH": ""})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
