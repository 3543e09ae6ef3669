"""The narrative scripts under demos/, which the README tells users to
run, run to completion and print their headline numbers."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["certify_thm1", "dkp_hypercr",
                                  "families_tour", "scan_c_demo"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
