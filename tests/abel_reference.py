"""Jets in y of the Abel reduction's parametric solution, the reference
the parametric tests differentiate h along x with (import it from a test
module as `abel_reference`)."""

from ewhorizon.errors import DomainError, PathBranchError
from ewhorizon.jets import Jet1
from ewhorizon.nearhorizon import _abel_exponent, _abel_q


def abel_parametric_jets(y: float, alpha: float, beta: float, gamma: float):
    """Jets in y of the parametric pair: (jet of h(y), jet of dx/dy).

    dx/dy is closed-form, so implicit derivatives of h along x
    (h' = h_y / x_y and so on) come out of plain jet arithmetic.
    """
    if y <= 0.0:
        raise DomainError("abel_parametric_jets needs y > 0")
    yj = Jet1.variable(y)
    qj = _abel_q(yj, alpha, beta)
    if abs(qj.value) < 1e-12 * (1.0 + y * y):
        raise PathBranchError(f"Q({y!r}) = 0: branch point")
    absq = qj if qj.value > 0.0 else -qj
    aj = _abel_exponent(yj, alpha, beta)
    hj = gamma * yj.sqrt() * aj.exp() * absq.powr(-0.25)
    xdot = -((-aj).exp() * absq.powr(0.25) / (yj.sqrt() * qj)) / gamma
    return hj, xdot
