"""Fixtures shared by the profile tests."""

import pytest

from ewhorizon import nearhorizon


@pytest.fixture
def attempts(monkeypatch):
    """The attempted steps of each integration nearhorizon runs from then
    on, in order."""
    counts, integrate = [], nearhorizon.integrate

    def counting(spec, x_end):
        traj = integrate(spec, x_end)
        counts.append(traj.attempts)
        return traj

    monkeypatch.setattr(nearhorizon, "integrate", counting)
    return counts


@pytest.fixture
def dense_solves(monkeypatch):
    """`solves(scale=1.0)`: from then on, every `_DenseSolve` nearhorizon
    makes has its rhs scaled by `scale` (1.0 keeps its bits) and is
    appended, in order, to the list it returns."""

    def solves(scale=1.0):
        made = []

        class Scaled(nearhorizon._DenseSolve):
            def __init__(self, rhs, *args):
                super().__init__(
                    lambda x, y: [scale * v for v in rhs(x, y)], *args)
                made.append(self)

        monkeypatch.setattr(nearhorizon, "_DenseSolve", Scaled)
        return made

    return solves
