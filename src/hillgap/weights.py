"""Weights on the half-integer lattice and the superexponential psi-function.

A normalized weight is a symmetric function w(n) = w(-n) >= 1 defined on all
half-integers n.  The parametric families provided here, with <n> = 1 + |n|,

    trivial         w(n) = 1
    polynomial      w(n) = <n>^r
    exponential     w(n) = <n>^r e^{a|n|}
    gevrey          w(n) = <n>^r e^{a|n|^sigma},          0 < sigma < 1
    log_tempered    w(n) = <n>^r e^{a|n|/(1 + log^alpha <n>)}
    superexp        w(n) = e^{|n|^sigma},                 sigma > 1
    tempered        w(n) = min(e^{eps|n|}, v(n))          for an inner weight v
    table           finite grid of stored values

are submultiplicative (w(n+m) <= w(n) w(m) for integers n, m) except superexp,
which grows too fast, and table, which carries no structure.  Tempering a
strictly subexponential weight restores submultiplicativity while keeping the
original growth on the tail.

Evaluation is done in the log domain throughout; plain evaluation returns +inf
once the log value passes an overflow threshold (superexponential weights leave
double range around |n| = 27 already for sigma = 2).

Each factory checks its own parameters and builds its weight whole: a
Weight carries its log-weight and its growth class, so nothing switches on
the kind to evaluate, validate or classify it.  The kinds and their config
fields are declared once, in KINDS.

The finite searches take their windows from their inputs: psi doubles its
window from 64 terms until its own tail bound certifies the minimum (at most
2^16 terms), and a table's growth class is sampled once, when the table is
built, on the run n = 1..N it stores, N <= 64.  The submultiplicativity check
reads n = 0..2N for the N its caller names.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

STRICTLY_SUBEXPONENTIAL = "strictly_subexponential"
EXPONENTIAL = "exponential"
SUPEREXPONENTIAL = "superexponential"
UNDETERMINED = "undetermined"

# Plain evaluation beyond this log value reports +inf instead of overflowing.
OVERFLOW_LOG = 700.0


class TableDomainError(KeyError):
    """A table weight was queried outside its stored grid."""


class CertificateError(ValueError):
    """The finite search could not certify a global minimum."""


class Weight(NamedTuple):
    """A weight as its factory built it; evaluate with w(n) or log_value(n).

    ``log`` maps |n| to log w(n), raising KeyError off a table's grid;
    ``growth`` is the class classify_growth returns, and ``sigma`` the
    exponent of a superexp weight (0 for every other kind).
    """

    kind: str
    log: Callable[[float], float]
    growth: str
    sigma: float = 0.0

    def log_value(self, n: float) -> float:
        """log w(n) for half-integer n; exact in the log domain, never overflows."""
        try:
            return self.log(abs(_half_integer(n)))
        except KeyError:  # only a table stores a finite grid
            raise TableDomainError(f"table weight has no entry at n = {n}") from None

    def __call__(self, n: float) -> float:
        """w(n) >= 1, or +inf once log w(n) exceeds OVERFLOW_LOG."""
        logw = self.log_value(n)
        return math.inf if logw > OVERFLOW_LOG else math.exp(logw)


def _half_integer(n: float) -> float:
    twice = 2.0 * float(n)
    if abs(twice - round(twice)) > 1e-9:
        raise ValueError(f"weights are defined on the half-integers; got n = {n}")
    return float(n)


def _nonnegative(**params: float) -> None:
    for name, value in params.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")


def trivial() -> Weight:
    return Weight("trivial", lambda x: 0.0, STRICTLY_SUBEXPONENTIAL)


def polynomial(r: float) -> Weight:
    _nonnegative(r=r)
    return Weight("polynomial", lambda x: r * math.log(1.0 + x), STRICTLY_SUBEXPONENTIAL)


def exponential(r: float, a: float) -> Weight:
    _nonnegative(r=r, a=a)
    return Weight("exponential", lambda x: r * math.log(1.0 + x) + a * x,
                  EXPONENTIAL if a > 0 else STRICTLY_SUBEXPONENTIAL)


def gevrey(r: float, a: float, sigma: float) -> Weight:
    _nonnegative(r=r, a=a)
    if not 0 < sigma < 1:
        raise ValueError("gevrey requires 0 < sigma < 1")
    return Weight("gevrey", lambda x: r * math.log(1.0 + x) + a * x ** sigma,
                  STRICTLY_SUBEXPONENTIAL)


def log_tempered(r: float, a: float, alpha: float) -> Weight:
    _nonnegative(r=r, a=a, alpha=alpha)

    def log(x: float) -> float:
        logb = math.log(1.0 + x)
        return r * logb + a * x / (1.0 + logb ** alpha)
    return Weight("log_tempered", log, STRICTLY_SUBEXPONENTIAL)


def superexp(sigma: float) -> Weight:
    if not sigma > 1:
        raise ValueError("superexp requires sigma > 1")
    return Weight("superexp", lambda x: x ** sigma, SUPEREXPONENTIAL, sigma)


def table_weight(values: dict[float, float]) -> Weight:
    """Weight from explicit samples {n: w(n)}; symmetric, half-integer keys.

    Its growth class is sampled here, once, from the run n = 1..N it stores
    (see classify_growth).  Two samples at one |n| are refused.
    """
    stored = {}  # w(n) by the doubled index 2|n|, so half-integers stay exact
    for n, v in values.items():
        key = round(2 * abs(_half_integer(n)))
        if key in stored:
            raise ValueError(f"table weight has two samples at |n| = {abs(n)}")
        stored[key] = float(v)
    if not stored:
        raise ValueError("table requires stored values")
    if any(v < 1.0 for v in stored.values()):
        raise ValueError("weights are normalized: all values must be >= 1")
    logs = {key: math.log(v) for key, v in stored.items()}
    return Weight("table", lambda x: logs[round(2 * x)], _sampled_growth(logs))


def temper(w: Weight, eps: float) -> Weight:
    """The tempered weight min(e^{eps|n|}, w(n)) as a first-class value.

    For strictly subexponential w this is again submultiplicative (verify with
    check_submultiplicative); for exponential w with rate >= eps it coincides
    with e^{eps|n|} everywhere.  The min with e^{eps|n|} caps any faster
    growth at exactly rate eps.
    """
    eps = float(eps)
    _nonnegative(eps=eps)
    if w is None or eps <= 0:
        raise ValueError("tempered requires eps > 0 and an inner weight")
    return Weight("tempered", lambda x: min(eps * x, w.log(x)),
                  EXPONENTIAL if w.growth == SUPEREXPONENTIAL else w.growth)


KINDS = {
    # kind -> (required fields, optional fields with defaults) of its config
    # object; the fields of the parametric kinds are their factory's parameters
    "trivial": ((), {}),
    "polynomial": (("r",), {}),
    "exponential": (("a",), {"r": 0.0}),
    "gevrey": (("a", "sigma"), {"r": 0.0}),
    "log_tempered": (("a", "alpha"), {"r": 0.0}),
    "superexp": (("sigma",), {}),
    "tempered": (("eps", "inner"), {}),
    "table": (("values",), {}),
}


class SubmultCheck(NamedTuple):
    ok: bool
    violation: tuple[int, int] | None


def check_submultiplicative(w: Weight, N: int) -> SubmultCheck:
    """Exhaustive test of w(n+m) <= w(n) w(m) (1 + 1e-12) over all |n|, |m| <= N.

    The relative slack absorbs floating-point rounding in the exponentials; the
    inequality itself is algebraically exact for the parametric kinds.  Returns
    the first violating pair (row-major scan from (-N, -N)) if any.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    logs = np.array([w.log_value(k) for k in range(2 * N + 1)])
    idx = np.arange(-N, N + 1)
    lhs = logs[np.abs(np.add.outer(idx, idx))]
    rhs = np.add.outer(logs[np.abs(idx)], logs[np.abs(idx)]) + math.log1p(1e-12)
    bad = np.argwhere(lhs > rhs)
    if bad.size == 0:
        return SubmultCheck(True, None)
    i, j = bad[0]
    return SubmultCheck(False, (int(idx[i]), int(idx[j])))


# Numeric classification thresholds for t_n = log w(n)/n on the sampled window.
# Heuristic by design: table weights carry no asymptotics, so the verdict
# compares the tail level against the mid-window level.
_DECAY_RATIO = 0.8
_FLOOR = 1e-12


def classify_growth(w: Weight) -> str:
    """Growth class of w from log w(n)/n: decay to 0, positive limit, or blow-up.

    Each factory sets the class: in closed form for the parametric kinds, and
    for a table by _sampled_growth when the table is built.  An alternative,
    purely operational route for the subexponential/not question is
    temper-then-check: temper(w, eps) followed by check_submultiplicative.
    """
    return w.growth


def _sampled_growth(logs: dict[int, float]) -> str:
    """A finite-window test on t_n = log w(n)/n for 1 <= n <= N, the longest
    run of integers from 1 in ``logs`` (keyed by 2n), cut at 64.  The verdict
    is heuristic, and a run shorter than 16 is ``undetermined``."""
    N = 0
    while N < 64 and 2 * (N + 1) in logs:
        N += 1
    if N < 16:
        return UNDETERMINED
    t = np.array([logs[2 * k] / k for k in range(1, N + 1)])
    mid = N // 2 - 1
    tail = t[mid:]
    if np.all(np.diff(tail) <= _FLOOR):
        if t[-1] <= _FLOOR or t[-1] <= _DECAY_RATIO * t[mid]:
            return STRICTLY_SUBEXPONENTIAL
        if t[-1] > _FLOOR:
            return EXPONENTIAL
    if np.all(np.diff(tail) >= -_FLOOR) and t[-1] >= np.max(t) - _FLOOR and t[-1] > t[mid] + _FLOOR:
        return SUPEREXPONENTIAL
    return UNDETERMINED


def psi(w: Weight, r: float) -> float:
    """min over integers m >= 1 of (log r + log w(m))/m for superexponential w.

    The search over m = 1..M is certified: since log r >= 0 and log w(m)/m
    is nondecreasing for the superexponential kinds, every m > M gives a
    candidate >= log w(M+1)/(M+1).  While that bound undercuts the found
    minimum, M doubles, from 64 up to 2^16; past that a CertificateError
    says the minimum lies out of reach.
    """
    if r < 1:
        raise ValueError("psi requires r >= 1")
    if classify_growth(w) != SUPEREXPONENTIAL:
        raise ValueError("psi is defined for superexponential weights")
    logr = math.log(r)
    logs = [0.0]  # logs[m] = log w(m)
    for M in (2 ** k for k in range(6, 17)):
        try:
            logs += [w.log_value(m) for m in range(len(logs), M + 2)]
        except TableDomainError as exc:
            raise TableDomainError(f"{exc.args[0]}; psi's certified search reads n = 1..{M + 1} "
                                   f"for its window M = {M} (64, doubling until certified)") from None
        value = min((logr + logs[m]) / m for m in range(1, M + 1))
        growth = [logs[m] / m for m in range(M // 2, M + 2)]
        if any(b < a - 1e-12 for a, b in zip(growth, growth[1:])):
            raise CertificateError("log w(m)/m is not nondecreasing on the window; "
                                   "the tail bound does not apply")
        if growth[-1] >= value - 1e-12:
            return value
    raise CertificateError(f"psi minimum not certified within {M} terms")


def psi_continuous(sigma: float, r: float) -> float:
    """Relaxation of psi over real m > 0 for w = superexp(sigma).

    Equals c_sigma (log r)^{1 - 1/sigma} with c_sigma = sigma/(sigma-1)^{1-1/sigma};
    the discrete psi always sits at or above this value, within the gap between
    the real minimizer and its integer neighbors.
    """
    if sigma <= 1:
        raise ValueError("requires sigma > 1")
    c = sigma / (sigma - 1.0) ** (1.0 - 1.0 / sigma)
    return c * math.log(r) ** (1.0 - 1.0 / sigma)
