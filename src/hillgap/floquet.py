"""Floquet oracle: monodromy, discriminant, and eigenvalue solvers.

Ground truth for the spectrum of -y'' + q y = lambda y with 1-periodic q comes
from transporting the fundamental solution matrix over one period and reading
the discriminant Delta(lambda) = y1(1) + y2'(1).  Periodic (n even) and
antiperiodic (n odd) eigenvalues solve Delta = (-1)^n 2; Sturm-Liouville
eigenvalues solve a boundary form built from one column.

Three integrator paths share the fixed-step, reproducible design:

  * classical RK4 in double precision (the default for ``monodromy``),
  * a fixed-step Taylor-series integrator in double precision whose error sits
    at the roundoff floor (1e-15 to 1e-14 on the trace) instead of the RK4
    truncation bias (~5e-11 at the default step rule),
  * the same Taylor scheme at arbitrary precision for gaps far below double
    resolution: the fixed-point ladder of hillgap.ladder, the one module
    that imports mpmath.  It is loaded where a solve first leaves doubles,
    to run at a set dps or to pick one, so a solve that stays in doubles
    loads neither.

Both double paths build the 2x2 propagator of every step at once with numpy
(each step is linear in the state) and multiply the propagators out pairwise.
Both read q off one table builder cached on the potential object, RK4 its
order-0 column at twice the steps (the step points and midpoints).

A real potential (``FourierPotential.is_real``: q_-k equal to conj(q_k)
bit for bit and a real mean) gets real tables on every path, summed from
the pairs 2 Re(q_k e^(2 pi i k x) (2 pi i k)^i / i!).  At real lambda such
a table keeps every imaginary part at zero: both double kernels return
entries with zero imaginary part, and the ladder runs its real loop, which
gives the same integers as its complex one.  Any other potential or lambda
runs the complex loop.  So the double critical point of a real potential
is exactly real, the high-precision solve it seeds stays on the real loop,
and the eigenvalue pairs come back with imaginary parts exactly 0.

The ladder transports only the solutions a form reads.  A Sturm-Liouville
form reads one, the solution from (-sin a, cos a); the trace of an exactly
even q (q_-k equal to q_k bit for bit, any mean) reads the column (1, 0)
alone, as y2'(1) = y1(1).  Evenness is bitwise like reality, so a cosine
translated off its symmetry centre keeps two columns, as do the public
monodromy and both double kernels, which multiply 2x2 step propagators.

Every kernel also carries a jet in lambda: for each column it transports
t_0..t_D, t_k = (1/k!) d^k/dlambda^k of the solution.  On the Taylor paths,
double and fixed point, the Taylor coefficients in x obey the variational
recurrence

    a_k[m+2] = (sum_i C_i a_k[m-i] - lambda a_k[m] - a_(k-1)[m]) / ((m+1)(m+2))

(Taylor integration with variational equations, Jorba & Zou, Experimental
Math. 14 (2005)).  An RK4 step is a polynomial in lambda already, since each
stage multiplies by q - lambda, so its jet is that polynomial, truncated.
The step propagators are then multiplied out as 2x2 matrices of truncated
polynomials in lambda.  Order 0 is the plain transport; an order-D jet
gives the monodromy as a polynomial in lambda around its centre.

Near a spectral gap the discriminant is almost a parabola touching +-2, so the
eigenvalue solver first locates the critical point by Newton on Delta', then
uses the quadratic model gamma = 2 sqrt(-2 D*/Delta'') to seed and polish the
two roots (the second deflated by the first).  Every path reads Delta,
Delta' and Delta'' off a jet by Horner, within a radius the jet's own
highest coefficients set, and builds a new jet only for a point outside it.
Every solve first finds the critical point (or a Sturm-Liouville root) in
doubles; a solve at a dps pinned under any method, or after an "auto"
escalation decided there before any root is polished, continues from it.
What tol_lam = tol max(1, n^2) asks of a critical point with dip D is a
noise floor: when D is resolved, roots within tol_lam / 10, so noise <=
tol_lam sqrt(2 |D Delta''|) / 100, as the root Newton stops at 10 noise on
a slope near sqrt(2 |D Delta''|); when it is not, a gap of tol_lam must
still read resolved, so noise <= |Delta''| tol_lam^2 / (8 margin), margin
being the resolve factor; and never coarser than the double noise over
that margin.  An escalation first tries the det rung, still in doubles:
near a gap Delta - 2s = -s det(M - sI) with s = +-1, and det(M - sI) =
(y1 - s)(y2' - s) - y2 y1' keeps the digits the trace cancels, since every
factor is small and carries only absolute roundoff (Magnus & Winkler,
Hill's Equation, 1966, ch. 2).  The rung reads that form off one jet of
the same table and kernel, runs Newton to the ulp of the critical point,
and takes as its floor the per-point model 1e-15 (|y1 - s| + |y2' - s| +
|y2| sqrt|lam| + |y1'| / sqrt|lam|) plus |Delta''| err^2 / 2 for the
critical point's own error.  When that floor meets what tol_lam asks of
the det dip, the pair ends in doubles on that form; otherwise the solve
runs on the ladder at the fewest digits whose noise meets what tol_lam
asks of the double trace dip (19 digits or more).  gap_record skips the
rung, since its delta needs tau at the gap's own scale.  A ladder jet
covers the double result's error, plus half the model gap when the double
dip is resolved, so one jet usually serves the whole solve.  A gap is
reported collapsed when the model separation falls
under the tolerance; when the dip D* drowns in integrator noise the pair
is returned at the model positions and flagged unresolved in the
diagnostics.
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import blockdecomp
from .seqspace import FourierPotential

# Step-count multipliers: the RK4 default keeps det(M) - 1 under 1e-10, the
# enforced minimum only resolves the oscillation.
RK4_STEP_FACTOR = 320
MIN_STEP_FACTOR = 64
_TAYLOR_ORDER = 22          # double path: series truncation below roundoff
_TAYLOR_NOISE = 1e-14       # double path: trace roundoff floor estimate
_RESOLVE_MARGIN = 100.0     # dip must exceed noise by this factor to count
_AUTO_DIP_FACTOR = 1e6      # auto keeps a double result only above this dip
_ENTRY_NOISE = 1e-15        # det rung: roundoff of one double monodromy entry
_DEFAULT_DPS = 45
_MAX_DPS = 300              # the ladder's noise floor, 1e-(dps-3), stays a normal double


class RootSearchError(blockdecomp.IterationError):
    """An eigenvalue Newton run stagnated or left its search region: a failed
    iteration, caught wherever blockdecomp's IterationError is."""


@dataclass(frozen=True)
class MonodromyMatrix:
    """Fundamental matrix at x = 1; columns start as (1, 0) and (0, 1)."""

    y1: complex
    dy1: complex
    y2: complex
    dy2: complex

    def trace(self) -> complex:
        return self.y1 + self.dy2

    def det(self) -> complex:
        return self.y1 * self.dy2 - self.y2 * self.dy1


@dataclass(frozen=True)
class GapRecord:
    """Oracle-level spectral data at one index n.

    gamma = lam_plus - lam_minus, taken at the working precision before the
    pair is rounded (``info["gamma"]`` of periodic_eigs_info), so gaps below
    the spacing of doubles near n^2 pi^2 stay resolved.  tau is the gap
    midpoint, sigma the Dirichlet eigenvalue, delta = sigma - tau, and
    triangle = |gamma| + |delta| measures the whole spectral triangle in the
    complex case.
    """

    n: int
    lam_minus: complex
    lam_plus: complex
    gamma: complex
    tau: complex
    sigma: complex
    delta: complex
    triangle: float


def default_steps(lam: complex, factor: int = RK4_STEP_FACTOR) -> int:
    """Fixed-step count scaled to the oscillation sqrt(lam) over one period."""
    return factor * max(1, math.ceil(math.sqrt(abs(lam)) / math.pi))


# ---------------------------------------------------------------------------
# double-precision kernels
#
# Each fixed step is linear in the state, so both kernels build the 2x2 step
# propagators for all steps at once, column by column from the unit states
# (1, 0) and (0, 1), and multiply them out.  Each kernel carries a lam-jet of
# order D: the propagator entries are truncated polynomials in lam - lam0,
# stored as P[k, c, r, j], the lam^k coefficient of row r (y or y') of
# column c of step j.  Flattened per k this is the order the kernels return
# the monodromy entries in: y1, y1', y2, y2'.


@lru_cache(maxsize=None)
def _toeplitz(terms: int):
    # index k - i and mask i <= k that lay a truncated polynomial L out as
    # T[k, i] = L[k - i], so that (L R)[k] = sum_i T[k, i] R[i]
    k, i = np.indices((terms, terms))
    return np.maximum(k - i, 0), (i <= k)[..., None, None, None]


def _chain(P):
    """Ordered product P[..., -1] ... P[..., 1] P[..., 0] of step propagators.

    Neighbours are multiplied pairwise, so the depth is log2(steps); each
    level is one einsum over the 2x2 entries and the Cauchy product of their
    lam-polynomials.  Returns the 4 (D + 1) entries of the product, order by
    order.
    """
    index, mask = _toeplitz(P.shape[0])
    while P.shape[-1] > 1:
        k = P.shape[-1] - P.shape[-1] % 2
        # (L R)[r, c] = sum_m L[r, m] R[m, c], stored column first
        Q = np.einsum("kimrp,icmp->kcrp", P[..., 1:k:2][index] * mask, P[..., 0:k:2])
        P = np.concatenate((Q, P[..., k:]), axis=-1) if k < P.shape[-1] else Q
    return tuple(P[..., 0].ravel().tolist())


def _rk4_kernel(qs, lam, order=0):
    # qs samples q at the step points and midpoints.  Every stage multiplies
    # by q - lam, which is linear in lam: on a truncated polynomial in
    # lam - lam0 that is a scale by q - lam0 and a shift up one degree, so
    # the jet needs no recurrence of its own
    steps = (len(qs) - 1) // 2
    h = 1.0 / steps
    a0 = qs[0:-1:2] - lam
    am = qs[1::2] - lam
    a1 = qs[2::2] - lam

    def times(a, f):
        g = a * f
        g[1:] -= f[:-1]
        return g

    def step(y, p):
        k1y = p
        k1p = times(a0, y)
        k2y = p + 0.5 * h * k1p
        k2p = times(am, y + 0.5 * h * k1y)
        k3y = p + 0.5 * h * k2p
        k3p = times(am, y + 0.5 * h * k2y)
        k4y = p + h * k3p
        k4p = times(a1, y + h * k3y)
        return (y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
                p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))

    one = np.zeros((order + 1, steps), dtype=np.complex128)
    one[0] = 1.0
    zero = np.zeros_like(one)
    return _chain(np.stack((np.stack(step(one, zero), 1), np.stack(step(zero, one), 1)), 1))


def _taylor_series(C, lam, order=0):
    # a[m, k, col, j], m <= C.shape[1] + 1 (real for real C and lam): m-th
    # Taylor coefficient at x = j/steps of t_k, the (1/k!) d^k/dlam^k of the
    # solution from unit state col there; t_k'' = (q - lam) t_k - t_(k-1) gives
    # a_k[m+2] = (sum_i C_i a_k[m-i] - lam a_k[m] - a_(k-1)[m]) / ((m+1)(m+2))
    steps, terms = C.shape[0], C.shape[1] - 1
    a = np.zeros((terms + 3, order + 1, 2, steps), dtype=np.result_type(C, lam))
    a[0, 0, 0] = 1.0
    a[1, 0, 1] = 1.0
    for m in range(terms + 1):
        s = np.einsum("ji,ikcj->kcj", C[:, :m + 1], a[m::-1]) - lam * a[m]
        s[1:] -= a[m, :-1]
        a[m + 2] = s / ((m + 1.0) * (m + 2.0))
    return a


def _taylor_kernel(C, lam, order=0):
    a, h = _taylor_series(C, lam, order), 1.0 / C.shape[0]
    terms = len(a) - 3
    y = a[terms + 2]
    yp = (terms + 2.0) * a[terms + 2]
    for m in range(terms + 1, 0, -1):
        y = y * h + a[m]
        yp = yp * h + m * a[m]
    y = y * h + a[0]
    return _chain(np.stack((y, yp), 2))


def _rk4_samples(q: FourierPotential, steps):
    # q at the step points and midpoints, mean included: the order-0 column
    # of the Taylor table at twice the steps, x = 1 closing the period
    c = _taylor_table(q, 2 * steps, 0)[:, 0]
    return np.append(c, c[0])


@lru_cache(maxsize=32)
def _taylor_table(q: FourierPotential, steps, order):
    # C[j, i] = i-th Taylor coefficient of q at x = j/steps; a real q sums
    # the pairs k, -k as 2 Re(...) over k > 0 and gets a real table
    K, mean, real = q.K, complex(q.mean), q.is_real
    modes = np.arange(1 if real else -K, K + 1)
    x = np.arange(steps) / steps
    phases = np.exp(2j * np.pi * np.outer(x, modes)) * q.data[K + modes]  # (steps, modes)
    z = 2j * np.pi * modes
    powers = np.ones((order + 1, len(modes)), dtype=np.complex128)
    for i in range(1, order + 1):
        powers[i] = powers[i - 1] * z / i
    C = phases @ powers.T
    if real:
        C, mean = 2.0 * C.real, mean.real
    C = np.ascontiguousarray(C)
    C[:, 0] += mean
    return C


def _taylor_steps(lam: complex) -> int:
    return max(16, int(math.ceil(math.sqrt(abs(lam)))) + 8)


# ---------------------------------------------------------------------------
# public integrator surface


def _path(method: str, dps: int | None):
    """(double path, finishing dps or None) by the rule periodic_eigs states.

    The one home of the method list; None means doubles, unless "auto"
    escalates a pair solve.
    """
    if method not in ("auto", "taylor", "rk4", "mp"):
        raise ValueError(f"unknown oracle method {method!r}")
    if dps and dps > _MAX_DPS:
        raise ValueError(f"dps = {dps} exceeds the limit of {_MAX_DPS} digits")
    if method == "mp" and not dps:
        dps = _DEFAULT_DPS
    return ("rk4" if method == "rk4" else "taylor"), dps


def monodromy(q: FourierPotential, lam: complex, steps: int | None = None,
              *, method: str = "rk4", dps: int | None = None) -> MonodromyMatrix:
    """Fundamental matrix of -y'' + q y = lam y over [0, 1].

    Args:
        q: potential; the mean participates in the integration.
        lam: spectral parameter, complex allowed.
        steps: fixed step count, at least 1, by default chosen per path;
            RK4 steps must respect the 64-per-pi minimum, and pinned ladder
            steps run the lowest Taylor order the ladder's series
            certificate accepts at them (the top order if none is).
        method, dps: read as in periodic_eigs.  "rk4" (default) is classical
            4th order, "taylor" and "auto" the series integrator at the
            double roundoff floor; ``dps`` or "mp" runs the series in mpmath.
    """
    disc = _disc(q, method, dps, lam, steps)
    if disc.name == "rk4" and steps is not None and steps < default_steps(lam, MIN_STEP_FACTOR):
        raise ValueError(f"steps = {steps} under-resolves the oscillation "
                         f"at |lam| = {abs(lam):.3g}")
    with disc.precision():
        return MonodromyMatrix(*map(complex, disc.jet(lam, 0)))


def discriminant(q: FourierPotential, lam: complex, steps: int | None = None,
                 *, method: str = "rk4", dps: int | None = None) -> complex:
    """Delta(lam) = y1(1) + y2'(1); equals 2 cos(sqrt(lam)) for q = 0."""
    return monodromy(q, lam, steps, method=method, dps=dps).trace()


# ---------------------------------------------------------------------------
# eigenvalue machinery
#
# A discriminant serves one linear functional ``form`` of the monodromy
# entries (the trace, or a boundary form).  The solvers ask it for
# g = (form(M(lam)) - const) / (lam - deflate) and its first lam-derivatives
# at a point; without deflate there is no division.  Every backend answers
# from a lam-jet of the form; the backends differ only in the kernel that
# transports the jet, the noise floor, and the arithmetic (doubles, or
# mpmath at the working precision).

_JET_MIN_ORDER = 3          # Delta'' and one coefficient past it for the radius
_JET_MAX_ORDER = 20


# A form maps a jet, the entries of each order k (y1, y1', y2, y2' of the
# lam^k coefficient, or (y, y') of the one column the ladder transported),
# to the coefficients of its own polynomial in lam, order by order.


def _trace(jet):
    # y1 + y2'; from the column (1, 0) alone, of an exactly even q, 2 y1
    return [e[0] + e[3] if len(e) == 4 else 2 * e[0] for e in jet]


def _boundary_form(alpha: float):
    # u solves the ODE with (u, u')(0) = (-sin a, cos a) = ``start``; the
    # form u(1) cos a + u'(1) sin a vanishes at the eigenvalue.  The ladder
    # transports u alone; the double kernels give both columns to combine
    sa, ca = math.sin(alpha), math.cos(alpha)

    def form(jet):
        out = []
        for e in jet:
            if len(e) == 4:
                y11, y12, y21, y22 = e
                e = (-sa * y11 + ca * y21, -sa * y12 + ca * y22)
            out.append(e[0] * ca + e[1] * sa)
        return out

    form.start = (-sa, ca)
    return form


def _gap_form(s: float):
    # Delta - 2s = -s det(M - sI) = -s ((y1 - s)(y2' - s) - y2 y1'), since
    # det M = 1, as Cauchy products of the entry polynomials of both
    # columns.  Near a small gap every factor is small and carries only
    # absolute roundoff, so the product keeps digits the trace loses
    # (Magnus & Winkler, Hill's Equation, 1966, ch. 2)
    def form(jet):
        y1, dy1, y2, dy2 = ([e[i] for e in jet] for i in range(4))
        y1[0] -= s
        dy2[0] -= s
        return [-s * sum(y1[i] * dy2[k - i] - y2[i] * dy1[k - i] for i in range(k + 1))
                for k in range(len(jet))]

    return form


# the arithmetic of a disc in doubles; ladder.working(dps) has the same fields
_DOUBLES = SimpleNamespace(dps=None, precision=contextlib.nullcontext, sqrt=cmath.sqrt,
                           number=complex)


def _jet_order(span: float, lam, eps: float) -> int:
    """Lowest jet order whose radius should reach ``span``.

    An order-D jet reports the radius rho eps^(1/(D+1)) (see _JetDisc).
    rho is modelled as 0.75 (D-1) s with s = sqrt|lam|: the free
    discriminant's coefficients (2s)^-k / k! give rho ~ 2 s (k!)^(1/k), and
    the trace jets of the cosine and of the complex K = 16 Gevrey draw report
    rho between 0.9 (D-1) s and 1.25 (D-1) s at D = 3..8, n = 3..24.  An
    optimistic model costs one re-centred jet, never accuracy.
    """
    s = max(1.0, math.sqrt(abs(complex(lam))))
    for order in range(_JET_MIN_ORDER, _JET_MAX_ORDER):
        if 0.75 * (order - 1) * s * eps ** (1.0 / (order + 1)) >= span:
            return order
    return _JET_MAX_ORDER


def _jet_radius(coeffs, eps: float):
    """(rho, radius) of a jet f_0..f_D by the rule _JetDisc states."""
    order = len(coeffs) - 1
    top = [float(abs(c)) for c in coeffs[-2:]]
    rho = min((t ** (-1.0 / k) for k, t in zip((order - 1, order), top) if t > 0),
              default=0.0)
    return rho, rho * eps ** (1.0 / (order + 1))


class _JetDisc:
    """Discriminant serving values and derivatives from a lam-jet.

    ``jet(lam, order)`` transports ``columns`` solutions (2: the monodromy),
    (y, y') of each and their lam-derivatives, 2 columns (order + 1)
    numbers order by order.  The disc holds one jet: the centre, the
    ``entries`` of each order, the coefficients f_0..f_D that its form
    reads off the whole jet, in powers of lam - centre, and a radius.
    Within the radius the value and the first two derivatives come from
    the jet polynomial by Horner; a point outside it gets a new jet
    centred there.  The radius is Jorba &
    Zou's step rule (Experimental Math. 14 (2005)): rho = min over
    k = D-1, D of |f_k|^(-1/k), the minimum over the two highest
    coefficients guarding against a vanishing last one; at distance
    rho eps^(1/(D+1)) the tail the jet drops stays near eps, a thousandth of
    the noise floor.  ``arith`` is the arithmetic the disc runs in:
    _DOUBLES, or ladder.working(dps), mpmath at dps digits.
    """

    def __init__(self, jet, noise: float, name: str, plan, arith=_DOUBLES, form=_trace,
                 columns: int = 2):
        self.jet = jet
        self.noise = noise
        self.eps = noise / 1000.0
        self.name, self.plan = name, plan
        self.arith, self.dps = arith, arith.dps
        self.form, self.columns = form, columns
        self.center = None
        self.transports = self.jet_order = 0

    def precision(self):
        return self.arith.precision()

    def sqrt(self, z):
        return self.arith.sqrt(z)

    def cover(self, lam, span) -> None:
        """Make the jet serve every point within ``span`` of lam; call before derivs."""
        if self.center is None or abs(lam - self.center) + span > self.radius:
            self._build(lam, span)

    def _build(self, lam, span) -> None:
        order = _jet_order(float(span), lam, self.eps)
        flat = self.jet(lam, order)
        self.center = self.arith.number(lam)
        w = 2 * self.columns
        self.entries = [flat[w * k:w * k + w] for k in range(order + 1)]
        self.coeffs = self.form(self.entries)
        self.rho, self.radius = _jet_radius(self.coeffs, self.eps)
        self.transports += 1
        self.jet_order += order

    def derivs(self, lam, order: int, const=0.0, deflate=None):
        if abs(lam - self.center) > self.radius:
            # a Newton step of length d on exact derivatives lands within
            # about d^2 / rho of its target, rho being the coefficient scale
            d = float(abs(lam - self.center))
            self._build(lam, min(d, d * d / self.rho) if self.rho > 0 else d)
        e = lam - self.center
        p, d1, d2 = self.coeffs[-1], 0, 0
        for c in reversed(self.coeffs[:-1]):
            d2 = d2 * e + d1
            d1 = d1 * e + p
            p = p * e + c
        out = [p - const, d1, 2 * d2][:order + 1]
        if deflate is not None:
            # Leibniz on g (lam - deflate) = f
            denom = lam - deflate
            if denom == 0:
                denom = self.noise
            for j in range(order + 1):
                out[j] = (out[j] - j * out[j - 1]) / denom if j else out[0] / denom
        return tuple(out)

    def kernels(self) -> dict:
        return {self.name: {"transports": self.transports, "jet_order": self.jet_order,
                            "order": self.plan[0], "steps": self.plan[1], "columns": self.columns}}


def _disc(q: FourierPotential, method: str, dps: int | None, center: complex,
          steps: int | None = None, form=None) -> _JetDisc:
    # the path _path picks: the ladder when it pins a precision, else doubles;
    # form None serves the whole monodromy and its trace
    path, dps = _path(method, dps)
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    if dps:
        # the one place this module loads the ladder, and with it mpmath
        from . import ladder

        plan = ladder._mp_plan(q, center, dps, _taylor_table, _taylor_series, steps)
        table = ladder._mp_table(q, plan[1], plan[0], dps)
        bits = ladder._fixed_bits(dps)
        # the ladder transports the one solution a form reads, where it reads
        # one: a boundary form's ``start``, and (1, 0) for the trace of a q
        # whose q_-k equal q_k exactly (bitwise, as is_real checks symmetry)
        one = form is not None and (form is not _trace or np.array_equal(q.data, q.data[::-1]))
        starts = (getattr(form, "start", (1, 0)),) if one else ((1, 0), (0, 1))
        return _JetDisc(lambda lam, order: ladder._fixed_kernel(table, lam, bits, order, starts),
                        ladder._mp_noise(dps), f"mp{dps}", plan, ladder.working(dps),
                        form or _trace, len(starts))
    form = form or _trace
    if path == "taylor":
        plan = (_TAYLOR_ORDER, steps or _taylor_steps(center))
        C = _taylor_table(q, plan[1], plan[0])
        return _JetDisc(lambda lam, order: _taylor_kernel(C, complex(lam), order),
                        _TAYLOR_NOISE, path, plan, form=form)
    plan = (4, steps or default_steps(center))
    qs = _rk4_samples(q, plan[1])
    # RK4 error is truncation bias, not roundoff
    return _JetDisc(lambda lam, order: _rk4_kernel(qs, complex(lam), order),
                    1e-9, path, plan, form=form)


def _newton_critical(disc, lam0, span: float, n: int, target: float, tol: float):
    """Newton on Delta' = 0 from lam0, at most 40 steps; returns (lam*,
    Delta(lam*) - target, Delta'', iters).

    The first jet is sized to cover ``span`` around lam0.  It stops once a
    step falls under tol or under the critical point's own error,
    noise / |Delta''|, below which the steps only follow the noise.
    """
    scale = max(1.0, float(n))
    clip = 6.0 * scale
    lam = lam0
    disc.cover(lam0, span)
    for it in range(1, 41):
        _, d1, d2 = disc.derivs(lam, 2)
        if d2 == 0:
            raise RootSearchError("flat discriminant curvature in critical-point search")
        step = d1 / d2
        if abs(step) > clip:
            step = step / abs(step) * clip
        lam = lam - step
        if abs(lam - lam0) > blockdecomp.STRIP_HALF_WIDTH * scale:
            raise RootSearchError("critical point escaped the search strip")
        if abs(step) <= max(tol, disc.noise / abs(d2)):
            return lam, disc.derivs(lam, 0, target)[0], d2, it
    raise RootSearchError("critical-point Newton did not converge")


def _newton_root(disc, const, seed, tol: float, scale: float, deflate=None):
    """Damped Newton on disc.form(M(lam)) = const, at most 30 steps; keeps the
    best residual seen.

    With ``deflate`` set, iterates on (form - const)/(lam - deflate) so the
    second root of a nearly-double pair does not slide back into the first.
    """
    lam = seed
    best = None
    floor = 10.0 * disc.noise
    for it in range(1, 31):
        f, d = disc.derivs(lam, 1, const, deflate)
        af = abs(f)
        if best is None or af < best[0]:
            best = (af, lam, it)
        if af <= floor:
            break
        if d == 0:
            break
        step = f / d
        if abs(step) > scale:
            step = step / abs(step) * scale
        lam = lam - step
        if abs(step) <= tol * 1e-2:
            f = disc.derivs(lam, 0, const, deflate)[0]
            if abs(f) < best[0]:
                best = (abs(f), lam, it)
            break
    return best[1], float(best[0]), best[2]


def _det_floor(disc, lam, s: float):
    """(g, g'', floor) of a det disc (form _gap_form(s)) at lam.

    The floor is the per-point roundoff model of the det form,
    1e-15 (|y1 - s| + |y2' - s| + |y2| sqrt|lam| + |y1'| / sqrt|lam|), with
    the entries read off the disc's jet at lam, plus |g''| err^2 / 2 for
    the error err of lam as a critical point: the Newton step still left
    there, |g' / g''|, and never less than the ulp of lam.  Without that
    term a missed critical point reads the parabola's rise as a dip.
    """
    g, d1, d2 = disc.derivs(lam, 2)
    e = lam - disc.center
    y1, dy1, y2, dy2 = (sum(c[i] * e ** k for k, c in enumerate(disc.entries))
                        for i in range(4))
    root = math.sqrt(abs(lam))
    err = max(math.ulp(abs(lam)), abs(d1 / d2))
    floor = (_ENTRY_NOISE * (abs(y1 - s) + abs(dy2 - s) + abs(y2) * root + abs(dy1) / root)
             + abs(d2) * err * err / 2)
    return g, d2, float(floor)


def _need(dip, d2, noise: float, tol_lam: float) -> float:
    """The noise tol_lam asks of a critical point that reads dip and d2
    against ``noise`` (module docstring): roots within tol_lam / 10 when
    the dip is resolved, else a gap of tol_lam that still reads resolved,
    and never coarser than the double noise over the resolve margin."""
    if abs(dip) >= _RESOLVE_MARGIN * noise:
        need = tol_lam * math.sqrt(2 * abs(dip * d2)) / 100
    else:
        need = abs(d2) * tol_lam ** 2 / (8 * _RESOLVE_MARGIN)
    return min(need, _TAYLOR_NOISE / _RESOLVE_MARGIN)


def _solve_pair(q: FourierPotential, n: int, tol: float, method: str,
                dps: int | None, steps: int | None, det: bool = True):
    """One gap: critical point, quadratic model, polished roots, diagnostics.

    The critical point is always found in doubles first, on _path's double
    path.  A pinned dps, or an "auto" run whose dip is too shallow to trust,
    continues from it at the working precision, with one jet sized to cover
    its error and half the model gap; ``info["dps"]`` is where it finished.
    An "auto" escalation first tries the det rung: the same double table and
    kernel, read through the det form, with its per-point floor
    (_det_floor) standing as the noise of the cheapest precision.  ``det``
    False skips the rung, for gap_record, whose delta needs tau at the
    gap's own scale, which a double pair cannot give.
    """
    path, dps = _path(method, dps)
    if n < 1:
        raise ValueError("gap index n must be >= 1")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    center = n * n * math.pi ** 2 + complex(q.mean)
    target = 2.0 if n % 2 == 0 else -2.0
    tol_lam = tol * max(1, n * n)
    disc = _disc(q, path, None, center, None if dps else steps)
    lam_star, dip, d2, its = _newton_critical(disc, center, 0.0, n, target, tol_lam)
    kernels = disc.kernels()
    # a dip barely above the resolve margin still costs relative accuracy
    # in the split; auto keeps the double result only when it is comfortable
    floor = _AUTO_DIP_FACTOR * _TAYLOR_NOISE
    escalated = None
    if method == "auto" and not dps and abs(dip) < floor:
        escalated = f"dip {abs(dip):.1g} < auto threshold {floor:.1g}"
    if dps or escalated:
        # one jet covers the double critical point's error and, when the
        # double dip is resolved, both model roots as well
        split = abs(dip) >= _RESOLVE_MARGIN * disc.noise
        span = float(disc.noise / abs(d2))
        if split:
            span += math.sqrt(abs(2 * dip / d2))
        if escalated:
            need = _need(dip, d2, disc.noise, tol_lam)
            if det:
                # the det rung: one jet at the double critical point, Newton
                # to its ulp, and the per-point floor read there, which
                # stands as the noise of the cheapest precision
                rung = _JetDisc(disc.jet, need, "det", disc.plan, form=_gap_form(target / 2))
                lam_d, _, _, its_d = _newton_critical(rung, lam_star, span, n, 0.0,
                                                      math.ulp(abs(lam_star)))
                dip_d, d2_d, noise = _det_floor(rung, lam_d, target / 2)
                kernels.update(rung.kernels())
                if noise <= _need(dip_d, d2_d, noise, tol_lam):
                    # the roots solve Delta - 2s = 0 on the det form
                    rung.noise, target = noise, 0.0
                    disc, lam_star, dip, d2, its = rung, lam_d, dip_d, d2_d, its_d
        if disc.name != "det":
            if escalated:
                from . import ladder

                dps = next(d for d in itertools.count(1) if ladder._mp_noise(d) <= need)
            disc = _disc(q, path, dps, center, steps if not escalated else None, _trace)
            with disc.precision():
                lam_star, dip, d2, its = _newton_critical(disc, lam_star, span, n, target,
                                                          tol_lam)
    with disc.precision():
        resolved = abs(dip) >= _RESOLVE_MARGIN * disc.noise
        gamma_model = 2 * disc.sqrt(-2 * dip / d2)
        info = {
            "method": disc.name,
            "dps": disc.dps,
            "resolved": bool(resolved),
            "critical": complex(lam_star),
            "critical_err": float(disc.noise / abs(complex(d2))),
            "dip": complex(dip),
            "curvature": complex(d2),
            "gamma_floor": 2.0 * math.sqrt(abs(2.0 * _RESOLVE_MARGIN * disc.noise
                                               / complex(d2))),
            "iters": its,
            "resid": float(abs(complex(dip))),
            "escalated": escalated,
        }
        # an unresolved dip is pure noise and would split the pair in a random
        # complex direction; the critical point itself stays accurate, so report
        # the gap as closed and leave the floor in the diagnostics
        if not resolved or abs(gamma_model) <= tol_lam:
            info["gamma"] = 0j
            info["kernels"] = {**kernels, **disc.kernels()}
            return lam_star, lam_star, info
        scale = max(1.0, float(n))
        disc.cover(lam_star, abs(gamma_model) / 2)
        r1, res1, it1 = _newton_root(disc, target, lam_star - gamma_model / 2, tol_lam, scale)
        r2, res2, it2 = _newton_root(disc, target, lam_star + gamma_model / 2, tol_lam, scale,
                                     deflate=r1)
        for r in (complex(r1), complex(r2)):
            if abs(r - center) > blockdecomp.STRIP_HALF_WIDTH * scale + 1.0:
                raise RootSearchError(f"gap root {r} escaped the strip around {center}")
        info["iters"] = its + it1 + it2
        info["resid"] = float(max(res1, res2 * abs(complex(r2) - complex(r1))))
        # order and subtract at the working precision, then round
        lm, lp = blockdecomp._lex_order(r1, r2)
        info["gamma"] = complex(lp - lm)
        info["kernels"] = {**kernels, **disc.kernels()}
        return lm, lp, info


def periodic_eigs(q: FourierPotential, n: int, tol: float = 1e-12,
                  *, method: str = "auto", dps: int | None = None,
                  steps: int | None = None):
    """The two eigenvalues lam_n^- <= lam_n^+ near n^2 pi^2 + mean.

    Solves Delta(lam) = (-1)^n 2 as described in the module docstring; the
    pair comes back in lexicographic order (real part, then imaginary part)
    and coincides when the gap is collapsed below tol * max(1, n^2) or not
    resolved above the integrator's noise floor.

    Every oracle entry point reads (method, dps) by one rule.  The double
    path is RK4 for "rk4" and Taylor for "taylor", "auto" and "mp".  ``dps``
    pins the precision the solve finishes at, for every method, and "mp"
    without it pins 45 digits.  Otherwise the solve ends in doubles, unless
    "auto" escalates because the dip is too close to the double roundoff
    floor to trust the split.  It then solves on the det form in doubles
    when that form's floor resolves the roots, or a gap, to
    tol * max(1, n^2), and otherwise at the fewest digits that do, by the
    rule the module docstring states (19 digits or more).  Other methods
    raise ValueError, and so does a tol that is not positive.
    Every arbitrary-precision solve starts from the double critical point.
    """
    lm, lp, _ = periodic_eigs_info(q, n, tol, method=method, dps=dps, steps=steps)
    return lm, lp


def periodic_eigs_info(q: FourierPotential, n: int, tol: float = 1e-12,
                       *, method: str = "auto", dps: int | None = None,
                       steps: int | None = None):
    """periodic_eigs with its diagnostics.

    Besides the critical point (with ``critical_err``, its error estimate:
    the path's noise floor over |Delta''|; on the det form, its per-point
    floor), dip, curvature, noise floors, Newton iterations and residual,
    the info dict records ``method``: the path the pair finished on
    ("taylor", "rk4", "det", "mp30", ...); ``kernels``: per path the
    lam-jets it transported, their summed order, the path's ``order`` and
    ``steps``, and the ``columns`` (solutions) it carried, 1 or 2; the
    double critical search that seeds every other path included, and the
    det rung also when its floor fell short and the ladder finished;
    ``dps``: the pair's finishing precision, None for doubles, chosen by
    the escalation rule when "auto" escalates to the ladder; and
    ``escalated``: why "auto" left the trace form in doubles, or None (also
    when ``dps`` or "mp" pinned the precision).
    """
    lm, lp, info = _solve_pair(q, n, tol, method, dps, steps)
    return complex(lm), complex(lp), info


def sturm_liouville_eig(q: FourierPotential, n: int, alpha: float = 0.0,
                        tol: float = 1e-12, *, method: str = "taylor",
                        dps: int | None = None) -> complex:
    """Eigenvalue near n^2 pi^2 + mean for y cos(a) + y' sin(a) = 0 at both ends.

    alpha = 0 is Dirichlet, alpha = pi/2 is Neumann.  These roots are simple,
    so a plain Newton run from the asymptotic center converges without any
    critical-point preparation.  (method, dps) read as in periodic_eigs, but
    "auto" never escalates: the root on the double path seeds a Newton run
    at the precision ``dps`` or "mp" pins.
    """
    return complex(_sturm_liouville_root(q, n, alpha, tol, method, dps))


def _sturm_liouville_root(q: FourierPotential, n: int, alpha: float, tol: float,
                          method: str, dps: int | None):
    # sturm_liouville_eig at the working precision: Newton in doubles from
    # the asymptotic center, then at the pinned dps from the double root
    path, dps = _path(method, dps)
    if n < 1:
        raise ValueError("index n must be >= 1")
    center = n * n * math.pi ** 2 + complex(q.mean)
    form = _boundary_form(alpha)
    scale = max(1.0, float(n))
    tol_lam = tol * max(1, n * n)
    disc = _disc(q, path, None, center, form=form)
    disc.cover(center, 0.0)
    root, _, _ = _newton_root(disc, 0.0, center, tol_lam, scale)
    if dps:
        # one jet covers the double root's own error, noise / |f'|, as
        # critical_err does for the pair
        span = float(disc.noise / abs(disc.derivs(root, 1)[1]))
        disc = _disc(q, path, dps, center, form=form)
        with disc.precision():
            disc.cover(root, span)
            root, _, _ = _newton_root(disc, 0.0, root, tol_lam, scale)
    if abs(complex(root) - center) > blockdecomp.STRIP_HALF_WIDTH * scale + 1.0:
        raise RootSearchError(f"boundary eigenvalue {complex(root)} escaped the strip")
    return root


def gap_record(q: FourierPotential, n: int, *, tol: float = 1e-12,
               method: str = "auto", dps: int | None = None) -> GapRecord:
    """Assemble the full oracle record (gap pair, midpoint, delta, triangle).

    sigma is the Dirichlet eigenvalue (sturm_liouville_eig at alpha = 0).
    tau and delta = sigma - tau are formed at the working precision before
    rounding, so delta keeps its digits when it falls below the spacing of
    doubles near n^2 pi^2.  (method, dps) read as in periodic_eigs, and
    sigma follows the pair: its double path, then a Newton run at the
    precision the pair finished at, if any (escalated, pinned or "mp").
    """
    lm, lp, info = _solve_pair(q, n, tol, method, dps, None, det=False)
    sigma = _sturm_liouville_root(q, n, 0.0, tol, method, info["dps"])
    # a pair that left doubles is mpmath numbers, which carry their context
    with lm.context.workdps(info["dps"]) if info["dps"] else contextlib.nullcontext():
        tau = (lm + lp) / 2
        delta = complex(sigma - tau)
    gamma = info["gamma"]
    return GapRecord(n, complex(lm), complex(lp), gamma, complex(tau), complex(sigma),
                     delta, abs(gamma) + abs(delta))

