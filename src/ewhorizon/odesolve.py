"""Adaptive ODE integration and quadrature.

`integrate` is the explicit Runge-Kutta pair DOP853 of Dormand and Prince
(Prince & Dormand, J. Comput. Appl. Math. 7 (1981) 67; Hairer, Norsett &
Wanner, Solving ODEs I, II.10): an 8th-order step of 12 stages whose
slope at the new state is the first stage of the next step (FSAL), an
error estimate that combines embedded 5th- and 3rd-order ones, a
proportional-integral step controller and 7th-order dense output, for
the smooth reduction ODEs handled here.  A user-supplied guard predicate
stops the integration cleanly ahead of singular loci (the solved-for
forms divide by powers of the solution): where a step passes its error
test but the guard rejects its new state, the crossing is located by
bisection on that step's dense output (whose forming costs 3 rhs calls)
and the step retried short of it, until the crossing lies within 64
least steps of the last knot (event location, Hairer, Norsett & Wanner,
Solving ODEs I, II.6).  The guard is therefore called at interpolated
states too, and must be a pure predicate.

The trial step runs in Python floats, in a step kernel generated for the
state's dimension on the first integration at that dim (`_step_kernel`),
and the dense output in a former generated on the first dense forming at
that dim (`_dense_former`): straight-line code with one name per stage
slope entry and no loop.  Every tableau sum (a stage point's increment,
y_new's, the two error estimates' and the dense-output coefficients') is
a literal sum of weight * slope, one term per nonzero weight, taken in
stage order and started from its first term; a stage point is then
y_j + hs * (that sum) per entry j.  With e5_j and e3_j the two estimates
over atol + rtol * max(|y_j|, |y_new_j|) (a NaN on either side of the
max kept), and e5^2, e3^2 the sums of their squares over the entries,
left to right, the error norm is |hs| e5^2 / sqrt((e5^2 + 0.01 e3^2)
dim): 0 where that denominator is 0 and inf where it is not finite.  A
step whose slope at y_new is not finite is rejected as well, since the
next step would start from it.  Python float operations are correctly
rounded IEEE-754 operations, so a trajectory has the same bits on any
IEEE-754 host, whatever its BLAS.  The generated code uses no `**`, so
an overflow gives inf (and a rejected step), never an OverflowError.

An accepted step stores only its step size and its 13 stage slopes, in
one flat array of floats.  Its dense output needs three more stages: the
first read of the trajectory on a step forms them and the step's
coefficients F_0, ..., F_6 per entry (3 rhs calls), and keeps those, so
y(x0 + t hs) = y0 + t (F_0 + s (F_1 + t (F_2 + s (F_3 + t (F_4
+ s (F_5 + t F_6)))))) with s = 1 - t.

`quad` is adaptive Gauss-Kronrod (G7, K15) with deterministic bisection.
"""

from __future__ import annotations

import functools
import math
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, StiffnessError
from .jets import one_pass

# The DOP853 tableau, transcribed from Hairer's dop853.f, as rows
# {stage: weight} with stages counted from 1.  Stages 1..12 make the
# step (stage 1 is the slope at the knot), stage 13 is the slope at
# y_new (stage 1 of the next step), and stages 14..16 serve only the
# dense output.  _C[i - 1] is stage i's abscissa, and _A[i - 1] the
# weights of its point.
_C = (0.0, 0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
      0.281649658092772603273242802490, 0.333333333333333333333333333333,
      0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6,
      0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2,
      0.777777777777777777777777777778)
_A = (
    {},
    {1: 5.26001519587677318785587544488e-2},
    {1: 1.97250569845378994544595329183e-2,
     2: 5.91751709536136983633785987549e-2},
    {1: 2.95875854768068491816892993775e-2,
     3: 8.87627564304205475450678981324e-2},
    {1: 2.41365134159266685502369798665e-1,
     3: -8.84549479328286085344864962717e-1,
     4: 9.24834003261792003115737966543e-1},
    {1: 3.7037037037037037037037037037e-2,
     4: 1.70828608729473871279604482173e-1,
     5: 1.25467687566822425016691814123e-1},
    {1: 3.7109375e-2, 4: 1.70252211019544039314978060272e-1,
     5: 6.02165389804559606850219397283e-2, 6: -1.7578125e-2},
    {1: 3.70920001185047927108779319836e-2,
     4: 1.70383925712239993810214054705e-1,
     5: 1.07262030446373284651809199168e-1,
     6: -1.53194377486244017527936158236e-2,
     7: 8.27378916381402288758473766002e-3},
    {1: 6.24110958716075717114429577812e-1,
     4: -3.36089262944694129406857109825,
     5: -8.68219346841726006818189891453e-1,
     6: 2.75920996994467083049415600797e1,
     7: 2.01540675504778934086186788979e1,
     8: -4.34898841810699588477366255144e1},
    {1: 4.77662536438264365890433908527e-1,
     4: -2.48811461997166764192642586468,
     5: -5.90290826836842996371446475743e-1,
     6: 2.12300514481811942347288949897e1,
     7: 1.52792336328824235832596922938e1,
     8: -3.32882109689848629194453265587e1,
     9: -2.03312017085086261358222928593e-2},
    {1: -9.3714243008598732571704021658e-1,
     4: 5.18637242884406370830023853209,
     5: 1.09143734899672957818500254654,
     6: -8.14978701074692612513997267357,
     7: -1.85200656599969598641566180701e1,
     8: 2.27394870993505042818970056734e1,
     9: 2.49360555267965238987089396762,
     10: -3.0467644718982195003823669022},
    {1: 2.27331014751653820792359768449,
     4: -1.05344954667372501984066689879e1,
     5: -2.00087205822486249909675718444,
     6: -1.79589318631187989172765950534e1,
     7: 2.79488845294199600508499808837e1,
     8: -2.85899827713502369474065508674,
     9: -8.87285693353062954433549289258,
     10: 1.23605671757943030647266201528e1,
     11: 6.43392746015763530355970484046e-1},
    # stage 13's point is y_new: these are the 8th-order weights
    {1: 5.42937341165687622380535766363e-2,
     6: 4.45031289275240888144113950566,
     7: 1.89151789931450038304281599044,
     8: -5.8012039600105847814672114227,
     9: 3.1116436695781989440891606237e-1,
     10: -1.52160949662516078556178806805e-1,
     11: 2.01365400804030348374776537501e-1,
     12: 4.47106157277725905176885569043e-2},
    {1: 5.61675022830479523392909219681e-2,
     7: 2.53500210216624811088794765333e-1,
     8: -2.46239037470802489917441475441e-1,
     9: -1.24191423263816360469010140626e-1,
     10: 1.5329179827876569731206322685e-1,
     11: 8.20105229563468988491666602057e-3,
     12: 7.56789766054569976138603589584e-3,
     13: -8.298e-3},
    {1: 3.18346481635021405060768473261e-2,
     6: 2.83009096723667755288322961402e-2,
     7: 5.35419883074385676223797384372e-2,
     8: -5.49237485713909884646569340306e-2,
     11: -1.08347328697249322858509316994e-4,
     12: 3.82571090835658412954920192323e-4,
     13: -3.40465008687404560802977114492e-4,
     14: 1.41312443674632500278074618366e-1},
    {1: -4.28896301583791923408573538692e-1,
     6: -4.69762141536116384314449447206,
     7: 7.68342119606259904184240953878,
     8: 4.06898981839711007970213554331,
     9: 3.56727187455281109270669543021e-1,
     13: -1.39902416515901462129418009734e-3,
     14: 2.9475147891527723389556272149,
     15: -9.15095847217987001081870187138},
)
_B = _A[12]
# The error estimates: the 8th-order weights less embedded 5th-order
# ones (_E5), and less the 3rd-order weights _BHH (_E3).
_E5 = {1: 0.1312004499419488073250102996e-1,
       6: -0.1225156446376204440720569753e+1,
       7: -0.4957589496572501915214079952,
       8: 0.1664377182454986536961530415e+1,
       9: -0.3503288487499736816886487290,
       10: 0.3341791187130174790297318841,
       11: 0.8192320648511571246570742613e-1,
       12: -0.2235530786388629525884427845e-1}
_BHH = {1: 0.244094488188976377952755905512,
        9: 0.733846688281611857341361741547,
        12: 0.220588235294117647058823529412e-1}
_E3 = {i: w - _BHH.get(i, 0.0) for i, w in _B.items()}
# Dense-output coefficients F_3..F_6 over the 16 stages, times hs.
_D = (
    {1: -0.84289382761090128651353491142e+1,
     6: 0.56671495351937776962531783590,
     7: -0.30689499459498916912797304727e+1,
     8: 0.23846676565120698287728149680e+1,
     9: 0.21170345824450282767155149946e+1,
     10: -0.87139158377797299206789907490,
     11: 0.22404374302607882758541771650e+1,
     12: 0.63157877876946881815570249290,
     13: -0.88990336451333310820698117400e-1,
     14: 0.18148505520854727256656404962e+2,
     15: -0.91946323924783554000451984436e+1,
     16: -0.44360363875948939664310572000e+1},
    {1: 0.10427508642579134603413151009e+2,
     6: 0.24228349177525818288430175319e+3,
     7: 0.16520045171727028198505394887e+3,
     8: -0.37454675472269020279518312152e+3,
     9: -0.22113666853125306036270938578e+2,
     10: 0.77334326684722638389603898808e+1,
     11: -0.30674084731089398182061213626e+2,
     12: -0.93321305264302278729567221706e+1,
     13: 0.15697238121770843886131091075e+2,
     14: -0.31139403219565177677282850411e+2,
     15: -0.93529243588444783865713862664e+1,
     16: 0.35816841486394083752465898540e+2},
    {1: 0.19985053242002433820987653617e+2,
     6: -0.38703730874935176555105901742e+3,
     7: -0.18917813819516756882830838328e+3,
     8: 0.52780815920542364900561016686e+3,
     9: -0.11573902539959630126141871134e+2,
     10: 0.68812326946963000169666922661e+1,
     11: -0.10006050966910838403183860980e+1,
     12: 0.77771377980534432092869265740,
     13: -0.27782057523535084065932004339e+1,
     14: -0.60196695231264120758267380846e+2,
     15: 0.84320405506677161018159903784e+2,
     16: 0.11992291136182789328035130030e+2},
    {1: -0.25693933462703749003312586129e+2,
     6: -0.15418974869023643374053993627e+3,
     7: -0.23152937917604549567536039109e+3,
     8: 0.35763911791061412378285349910e+3,
     9: 0.93405324183624310003907691704e+2,
     10: -0.37458323136451633156875139351e+2,
     11: 0.10409964950896230045147246184e+3,
     12: 0.29840293426660503123344363579e+2,
     13: -0.43533456590011143754432175058e+2,
     14: 0.96324553959188282948394950600e+2,
     15: -0.39177261675615439165231486172e+2,
     16: -0.14972683625798562581422125276e+3},
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXP = 1.0 / 8.0  # one over (the error estimate's order + 1)
# attempted steps (accepted, rejected, guard-shortened) integrate may take:
# a solution that needs more is too stiff for an explicit method
_MAX_STEPS = 100_000
# progress floor: after every _FLOOR_EVERY attempted steps the average
# pace must be at least _FLOOR_PACE of the pace that ends the span within
# _MAX_STEPS; slower, the budget would run out before a tenth of the span.
# The floor is that loose because many solutions start slowly and then
# speed up: at large |c| the c scan has sides that reach their end from
# below a sixth of that pace.  The first check comes after 2 000 steps,
# so a guard that stops a crawling solution sooner still gets to stop it.
_FLOOR_EVERY = 2_000
_FLOOR_PACE = 0.1


@dataclass
class IvpSpec:
    """An initial value problem y' = rhs(x, y) with solver settings.

    `rhs(x, y)` receives y as a list of len(y0) Python floats and returns
    a sequence of as many floats (a tuple, a list or an array): the step
    loop does its tableau sums in Python floats, in stage order (see the
    module docstring), so an rhs that unpacks y and does float
    arithmetic avoids numpy's per-call cost.  numpy scalars keep the
    same bits, at numpy's cost per operation.  The trajectory keeps the
    rhs, and calls it again (3 times per step) where it is first read
    on a step, to form that step's dense output.
    `guard(x, y)` receives the same list and returns False to stop.
    It is also called at states on a trial step's dense output, while
    `integrate` locates where it starts to fail, so it must be a pure
    predicate of (x, y); a caller tells which of its bounds stopped the
    integration from `Trajectory.rejected`.
    """

    rhs: object  # callable (x, y: list of floats) -> sequence of floats
    x0: float
    y0: object  # array-like, one entry per state component
    rtol: float = 1e-10
    atol: float = 1e-12
    guard: object = None  # callable (x, y) -> bool; False stops integration

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.ndim != 1 or self.y0.size == 0:
            raise ValueError("y0 must be a 1-D state of at least one entry")
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass
class Trajectory:
    """Accepted knots plus dense output between them.

    status is "ok" (reached the requested endpoint) or "guard" (the guard
    predicate stopped the integration; xs/ys hold the partial trajectory).
    On a "guard" stop, `rejected` is a state (x, y), y a list of floats,
    that the guard rejected within 64 least steps (64 * 1e-14 * max(|x0|,
    |x_end|, 1)) of the last knot, for the caller to tell which of its
    bounds stopped the integration.

    `_segs` holds, per accepted step, its signed size and then its 13
    stage slopes, stage by stage (1 + 13 * dim floats), and `_rhs` is
    the rhs, which forms a step's dense output (`_dense_former`).
    `attempts` counts the attempted steps (accepted, rejected and
    guard-shortened), and `rhs_calls` the rhs evaluations: 2 to choose
    the first step, then 12 per attempted step (the first stage is the
    last one's slope), plus 3 per dense forming: once per trial step the
    guard rejected (to locate the crossing), and once per step of the
    trajectory when it is first read there.
    """

    xs: np.ndarray
    ys: np.ndarray
    status: str
    reason: str = ""
    _segs: array = field(default_factory=lambda: array("d"), repr=False)
    rejected: tuple = None  # (x, y) the guard rejected, on a "guard" stop
    attempts: int = 0
    rhs_calls: int = 0
    _rhs: object = field(default=None, repr=False)

    def __post_init__(self):
        # Ascending search keys for the knots: a backward trajectory
        # searches -xs for -x.  Built once, not on every dense evaluation.
        xs = self.xs
        self._ascending = bool(xs[0] <= xs[-1])
        self._knots = xs.tolist()
        self._keys = self._knots if self._ascending else (-xs).tolist()
        self._span = (float(min(xs[0], xs[-1])), float(max(xs[0], xs[-1])))
        self._stride = 1 + 13 * self.ys.shape[1]
        self._formed = {}  # step index -> its dense-output coefficients

    @property
    def x_end(self):
        return float(self.xs[-1])

    @property
    def y_end(self):
        return self.ys[-1].copy()

    @one_pass
    def __call__(self, x):
        """Dense evaluation at a scalar x inside the covered span, an
        array of shape (dim,); or at each x of a 1-D array in one pass,
        an array of shape (dim, B) whose column k has the bits of the
        evaluation at x[k], each step the batch touches formed once."""
        lo, hi = self._span
        start, end = lo - 1e-12 * (1 + abs(lo)), hi + 1e-12 * (1 + abs(hi))
        if not isinstance(x, np.ndarray):
            if not start <= x <= end:
                raise ValueError(f"x={x!r} outside trajectory span "
                                 f"[{lo}, {hi}]")
            if len(self._segs) == 0:
                return self.ys[0].copy()
            # Find the step whose interval contains x (knots are monotone).
            idx = bisect_left(self._keys, x if self._ascending else -x)
            idx = min(max(idx - 1, 0), len(self._knots) - 2)
            return np.array(_dense_at(self.ys[idx].tolist(), self._form(idx),
                                      (x - self._knots[idx])
                                      / self._segs[idx * self._stride]))
        inside = (start <= x) & (x <= end)
        if not inside.all():  # as the first x outside raises alone
            raise ValueError(f"x={x[~inside][0].item()!r} outside trajectory "
                             f"span [{lo}, {hi}]")
        if len(self._segs) == 0:
            return np.repeat(self.ys[:1].T, len(x), axis=1)
        idx = np.searchsorted(self.xs if self._ascending else -self.xs,
                              x if self._ascending else -x)
        idx = np.clip(idx - 1, 0, len(self._knots) - 2)
        steps = list(dict.fromkeys(idx.tolist()))  # in the order first read
        row = dict(zip(steps, range(len(steps))))
        q = np.array([self._form(i) for i in steps]).reshape(
            len(steps), self.ys.shape[1], 7)[[row[i] for i in idx.tolist()]]
        t = (x - self.xs[idx]) / np.frombuffer(self._segs)[idx * self._stride]
        return np.array(_dense_at(self.ys[idx].T, q.transpose(1, 2, 0), t))

    def _form(self, idx):
        """The dense-output coefficients of step idx, one (F_0, ..., F_6)
        per entry, formed (3 rhs calls) on the first read of the step."""
        q = self._formed.get(idx)
        if q is None:
            start = idx * self._stride
            q = self._formed[idx] = _dense_former(self.ys.shape[1])(
                self._rhs, self._knots[idx], self.ys[idx].tolist(),
                self.ys[idx + 1].tolist(),
                self._segs[start:start + self._stride])
            self.rhs_calls += 3
        return q


def _dense_at(y, q, t):
    """A step's dense output at t in [0, 1] from y at its knot and its
    coefficients q (one (F_0, ..., F_6) per entry); or, each of them an
    array over a batch of reads, the output of each read:
    y + t (F_0 + s (F_1 + t (F_2 + ... + s (F_5 + t F_6)))), s = 1 - t."""
    s = 1.0 - t
    return [v + t * (f0 + s * (f1 + t * (f2 + s * (f3 + t * (f4 + s * (
        f5 + t * f6)))))) for v, (f0, f1, f2, f3, f4, f5, f6) in zip(y, q)]


def _rms_norm(e, scale):
    # A left-to-right float sum: numpy's pairwise sum runs in order below
    # 8 entries, so for the short states integrated here these are the
    # bits of np.mean, without its per-call overhead.
    total = 0.0
    for v in (e / scale).tolist():
        total += v * v
    return math.sqrt(total / len(e))


def _weighted_sum(row, j):
    """A tableau sum as source: weight * k<stage>_<j> for each stage of
    `row` ({stage: weight}) with a nonzero weight, in stage order,
    started from its first term.  A weight of 1 is the name, and a
    negative weight's term is subtracted, which rounds as adding it."""
    out = ""
    for i, w in sorted(row.items()):
        if w != 0.0:
            n = f"k{i}_{j}"
            term = n if abs(w) == 1.0 else f"{abs(w)!r} * {n}"
            out = (f"{out} {'-' if w < 0 else '+'} {term}" if out
                   else f"-{term}" if w < 0 else term)
    return out


def _entries(fmt, dim, sep=", "):
    """fmt formatted for each entry j of a state of dim entries, joined."""
    return sep.join(fmt.format(j=j) for j in range(dim))


def _names(fmt, dim):
    """An unpacking target, one name per entry."""
    return _entries(fmt + ",", dim, " ")


def _stage(i, dim, indent):
    """Source of k<i>_<j> = the rhs at stage i's point, for every j."""
    point = ", ".join(f"y{j} + hs * ({_weighted_sum(_A[i - 1], j)})"
                      for j in range(dim))
    at = "x + hs" if _C[i - 1] == 1.0 else f"x + {_C[i - 1]!r} * hs"
    return f"{indent}{_names(f'k{i}_{{j}}', dim)} = rhs({at}, [{point}])"


def _compiled(lines, name, filename, **scope):
    """The function `name` that the source lines define, in scope."""
    exec(compile("\n".join(lines) + "\n", filename, "exec"), scope)
    return scope[name]


@functools.cache
def _step_kernel(dim):
    """`bind` for states of dim entries, built on the first integration
    at dim as straight-line float code.

    `bind(rhs, atol, rtol)` returns `step(x, hs, y, y_abs, k1)`: the
    trial step of size hs from (x, y), |y| = y_abs and the slope k1 at
    the knot.  It returns y_new (a list), |y_new| (a list), the error
    norm, the slope at y_new (a tuple) and the step's record: hs and
    then its 13 stage slopes, stage by stage, as the packed bytes of
    1 + 13 * dim doubles.
    """
    slopes = ", ".join(f"k{i}_{j}" for i in range(1, 14) for j in range(dim))
    lines = [
        "def bind(rhs, atol, rtol):",
        "    def step(x, hs, y, y_abs, k1):",
        f"        {_names('y{j}', dim)} = y",
        f"        {_names('k1_{j}', dim)} = k1",
    ]
    lines += [_stage(i, dim, "        ") for i in range(2, 13)]
    lines += [
        "        y_new = [" + ", ".join(
            f"y{j} + hs * ({_weighted_sum(_B, j)})" for j in range(dim)) + "]",
        f"        {_names('k13_{j}', dim)} = rhs(x + hs, y_new)",
        f"        {_names('u{j}', dim)} = y_abs",
        f"        {_names('v{j}', dim)} = new_abs = "
        f"[{_entries('abs(y_new[{j}])', dim)}]",
    ]
    for j in range(dim):
        lines += [
            f"        w{j} = atol + rtol * (u{j} if u{j} >= v{j} or "
            f"u{j} != u{j} else v{j})",
            f"        a{j} = ({_weighted_sum(_E5, j)}) / w{j}",
            f"        b{j} = ({_weighted_sum(_E3, j)}) / w{j}",
        ]
    lines += [
        f"        e5 = {_entries('a{j} * a{j}', dim, ' + ')}",
        f"        den = (e5 + 0.01 * ({_entries('b{j} * b{j}', dim, ' + ')}))"
        f" * {dim}",
        "        err = (float(abs(hs) * e5 / sqrt(den)) if 0.0 < den < inf",
        "               else 0.0 if den == 0.0 else inf)",
        f"        if not {_entries('0.0 * k13_{j}', dim, ' + ')} == 0.0:",
        "            err = inf  # the slope at y_new is not finite",
        f"        return (y_new, new_abs, err, ({_entries('k13_{j}', dim)},), "
        f"pack(hs, {slopes}))",
        "",
        "    return step",
    ]
    return _compiled(lines, "bind", f"<integrate step, dim {dim}>",
                     sqrt=math.sqrt, inf=math.inf,
                     pack=struct.Struct(f"{1 + 13 * dim}d").pack)


@functools.cache
def _dense_former(dim):
    """`dense(rhs, x, y, y_new, record)` for states of dim entries, built
    on the first dense forming at dim as straight-line float code: for
    a step from (x, y) to y_new and its record (as a sequence of floats),
    it forms stages 14..16 (3 rhs calls) and returns the step's
    dense-output coefficients, one (F_0, ..., F_6) per entry.
    """
    slopes = ", ".join(f"k{i}_{j}" for i in range(1, 14) for j in range(dim))
    lines = [
        "def dense(rhs, x, y, y_new, record):",
        f"    hs, {slopes}, = record",
        f"    {_names('y{j}', dim)} = y",
        f"    {_names('z{j}', dim)} = y_new",
    ]
    lines += [_stage(i, dim, "    ") for i in range(14, 17)]
    lines += [f"    d{j} = z{j} - y{j}" for j in range(dim)]
    lines.append("    return [" + ", ".join(
        f"(d{j}, hs * k1_{j} - d{j}, 2.0 * d{j} - hs * (k13_{j} + k1_{j}), "
        + ", ".join(f"hs * ({_weighted_sum(row, j)})" for row in _D) + ")"
        for j in range(dim)) + "]")
    return _compiled(lines, "dense", f"<integrate dense output, dim {dim}>")


def _initial_step(rhs, x0, y0, f0, direction, rtol, atol, h_max):
    """Hairer-Norsett-Wanner starting step selection, at most h_max (the
    length of the span)."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms_norm(y0, scale)
    d1 = _rms_norm(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:  # an infinite (or NaN) starting slope
        raise StiffnessError(
            f"no starting step at x={x0!r}: slope norm {d1!r}")
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(x0 + h0 * direction, y1.tolist()), dtype=float)
    d2 = _rms_norm(f1 - f0, scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100 * h0, h1, h_max)


def integrate(spec: IvpSpec, x_end: float) -> Trajectory:
    """Integrate spec.rhs from spec.x0 to x_end with dense output.

    Raises ValueError when x0 or x_end is not finite, and
    StiffnessError when error control forces the step below the
    resolution floor, when the starting slope is too steep for any
    starting step, after _MAX_STEPS attempted steps, or earlier when its
    pace falls below the progress floor; a failing guard
    instead ends the trajectory early with status "guard", within 64
    least steps (64 * h_floor) of a state it rejects (`_locate`).  A step
    whose error estimate or slope at y_new is not finite (a NaN or an
    overflow in the rhs) is rejected like any other, since a smaller one
    may avoid it; if the step size then underflows, the error names the
    stage and the rhs component that first returned a non-finite slope,
    and the step.
    """
    rhs, guard, atol, rtol = spec.rhs, spec.guard, spec.atol, spec.rtol
    x = x0 = float(spec.x0)
    if not (math.isfinite(x0) and math.isfinite(x_end)):
        raise ValueError(f"integrate needs a finite x0 and x_end, not "
                         f"{x0!r} and {x_end!r}")
    y = spec.y0.tolist()
    dim = len(y)
    span = x_end - x
    if span == 0.0:
        return Trajectory(np.array([x]), np.array([y]), "ok")
    direction = 1.0 if span > 0 else -1.0
    if guard is not None and not guard(x, y):
        return Trajectory(np.array([x]), np.array([y]), "guard",
                          reason="guard failed at the initial point",
                          rejected=(x, y))

    k1 = rhs(x, y)  # FSAL: the slope at the current knot
    h = _initial_step(rhs, x, spec.y0, np.asarray(k1, dtype=float),
                      direction, rtol, atol, abs(span))
    h_floor = 1e-14 * max(abs(x), abs(x_end), 1.0)

    xs = [x]
    ys = y[:]  # the knots' entries, one after another
    segs = array("d")
    err_prev = 1.0
    step = _step_kernel(dim)(rhs, atol, rtol)
    y_abs = [abs(v) for v in y]
    status, reason, rejected = "ok", "", None
    attempts = formed = 0
    nonfinite = ""  # names the first non-finite slope since the last knot

    while (x_end - x) * direction > 0:
        if attempts == _MAX_STEPS:
            raise StiffnessError(f"step budget of {_MAX_STEPS} attempted "
                                 f"steps spent at x={x!r}; problem too stiff")
        if attempts % _FLOOR_EVERY == 0 and abs(x - x0) < \
                _FLOOR_PACE * abs(span) * (attempts / _MAX_STEPS):
            raise StiffnessError(
                f"{attempts} attempted steps covered {abs(x - x0)!r} of the "
                f"span {abs(span)!r} at x={x!r}: at that pace {_MAX_STEPS} "
                f"would not cover a tenth of it; problem too stiff")
        attempts += 1
        h = min(h, abs(x_end - x))
        if not h >= h_floor:  # a NaN step fails this too
            raise StiffnessError(f"step size underflow at x={x!r} (h={h!r})"
                                 + (nonfinite or "; problem too stiff"))
        hs = h * direction
        y_new, new_abs, err, k13, record = step(x, hs, y, y_abs, k1)

        if err <= 1.0:
            if guard is not None and not guard(x + hs, y_new):
                formed += 1
                q = _dense_former(dim)(rhs, x, y, y_new,
                                       array("d", record))
                lo, hi, state = _locate(guard, x, hs, y, q, 64 * h_floor,
                                        (x + hs, y_new))
                if hi * h <= 64 * h_floor:
                    status, reason = "guard", f"guard stopped integration at x={x!r}"
                    rejected = state
                    break
                # lo > 0, and lo * h is at least the bracket's width, which
                # its last halving left above 32 * h_floor: no underflow
                h *= lo
                continue
            segs.frombytes(record)
            x += hs
            y, y_abs, k1 = y_new, new_abs, k13  # FSAL: the new knot's slope
            xs.append(x)
            ys += y
            nonfinite = ""
            factor = _SAFETY * (err + 1e-300) ** (-0.7 / 8) * err_prev ** (0.4 / 8)
            err_prev = max(err, 1e-10)
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            if not nonfinite and not err < math.inf:
                nonfinite = _first_nonfinite(record, dim, x)
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-_ORDER_EXP))

    return Trajectory(np.array(xs), np.array(ys).reshape(-1, dim), status,
                      reason, segs, rejected, attempts,
                      2 + 12 * attempts + 3 * formed, rhs)


def _locate(guard, x, hs, y, q, reach, rejected):
    """Bracket the guard's crossing on a trial step's dense output
    (`_dense_at` of y and its coefficients q, which cost the caller 3
    rhs calls to form): the guard passes the knot at t = 0 and rejects
    the `rejected` state (x, y) at t = 1.  Bisects [lo, hi] until its
    fail end lies within `reach` of the knot or it is at most `reach`
    wide, and returns lo, hi and the state the guard rejected at hi."""
    lo, hi = 0.0, 1.0
    h = abs(hs)
    while hi * h > reach and (hi - lo) * h > reach:
        t = 0.5 * (lo + hi)
        state = (x + t * hs, _dense_at(y, q, t))
        if guard(*state):
            lo = t
        else:
            hi, rejected = t, state
    return lo, hi, rejected


def _first_nonfinite(record, dim, x):
    """Name, for a StiffnessError, the first stage slope of a trial step
    from x (its record, as `step` packs it) that the rhs returned
    non-finite, in the order the rhs was called; "" if none did."""
    hs, *slopes = array("d", record)
    for n, v in enumerate(slopes):
        if not abs(v) < math.inf:
            return (f": the rhs first returned a non-finite component "
                    f"{n % dim} at stage {n // dim + 1} of the step of "
                    f"h={hs!r} from x={x!r}")
    return ""


# --- adaptive Gauss-Kronrod quadrature --------------------------------------

_QUAD_TOL = 1e-10  # quad's absolute (split between halves) and relative
_QUAD_DEPTH = 50

# 15-point Kronrod extension of 7-point Gauss on [-1, 1], as Python
# floats: the rule's sums are then float arithmetic, the same IEEE
# operations in the same order as on numpy scalars, at less cost.
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
)


def _gk15(f, a, b):
    """(Kronrod 15, |K15 - G7|) on [a, b]."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fc = f(c)
    gauss = _WG[3] * fc
    kron = _WGK[7] * fc
    for j in range(7):
        x = hw * _XGK[j]
        fsum = f(c - x) + f(c + x)
        kron += _WGK[j] * fsum
        if j % 2 == 1:  # odd Kronrod indices are the Gauss nodes
            gauss += _WG[(j - 1) // 2] * fsum
    kron *= hw
    gauss *= hw
    return kron, abs(kron - gauss)


def quad(f, a: float, b: float) -> float:
    """Integral of f over [a, b], adaptive bisection on Gauss-Kronrod 15.

    Deterministic subdivision (always left half first, absolute tolerance
    split evenly); intervals still failing at _QUAD_DEPTH raise
    AccuracyError carrying the best estimate and its error bound, and so
    does, at once, an interval whose estimate is not finite (bisecting a
    NaN integrand would run to that depth on every branch).  Meant
    for smooth integrands; endpoint singularities need a substitution by
    the caller and otherwise surface as AccuracyError.
    """
    if a == b:
        return 0.0
    total = 0.0
    bad_err = 0.0
    failed = False
    stack = [(float(a), float(b), _QUAD_TOL, 0)]
    while stack:
        lo, hi, tol, depth = stack.pop()
        val, err = _gk15(f, lo, hi)
        if err <= max(tol, _QUAD_TOL * abs(val)):
            total += val
        elif not err < math.inf:  # a NaN or infinite estimate
            raise AccuracyError(
                f"quadrature on [{a}, {b}]: non-finite Gauss-Kronrod "
                f"estimate on [{lo}, {hi}]", estimate=val, error_bound=err)
        elif depth >= _QUAD_DEPTH:
            total += val
            bad_err += err
            failed = True
        else:
            mid = 0.5 * (lo + hi)
            # LIFO stack: push right first so the left half is processed next.
            stack.append((mid, hi, 0.5 * tol, depth + 1))
            stack.append((lo, mid, 0.5 * tol, depth + 1))
    if failed:
        raise AccuracyError(
            f"quadrature on [{a}, {b}] did not converge at depth {_QUAD_DEPTH}",
            estimate=total, error_bound=bad_err)
    return total
