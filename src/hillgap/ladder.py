"""The arbitrary-precision ladder: the Taylor scheme of the Floquet oracle
in fixed point, with its plan.  The one module that imports mpmath;
floquet loads it where a solve first leaves doubles.

The kernel runs the variational Taylor recurrence of floquet on fixed-point
numbers, Python ints scaled by 2^bits with bits ~ 3.33 dps plus guard bits,
and hands the monodromy back as mpmath numbers at the working precision.
It runs on step-scaled coefficients a[m] h^m, so every number stays near
2^bits, and packs all lanes of a step (columns x jet orders) into one int
at a fixed bit stride: one integer dot product per Taylor order serves
every lane, and the division by (m+1)(m+2) runs in two exact stages, a
shift that drops the table's 2^bits scale, then a multiply by the
reciprocal and a shift, each masking off its spill between lanes; so a
lane is only as wide as the reciprocal, the state and a majorant's bound
on one step's numerators.  Its Taylor coefficients of q are integer dot
products as well: (2 pi i k)^i / i! is built once per mode and
q_k e^(2 pi i k x) once per step point; only 2 pi and the roots of unity
come from mpmath.  A real potential (``FourierPotential.is_real``) gets a
real table, summed from the pairs 2 Re(q_k e^(2 pi i k x) (2 pi i k)^i / i!),
and at real lambda the kernel runs a real loop, one integer product sum
per order where the complex loop needs three, giving the same integers.

Its plan, the Taylor order and step count, is double arithmetic, one
rule at every precision: the cheapest plan whose computed series
certifies that the terms the kernel drops stay under the noise floor
(_mp_plan); pinned steps take the lowest order it certifies at them.  The
series is floquet's double Taylor series, which the caller passes in, so
this module imports nothing of floquet.

``working(dps)`` is the arithmetic a floquet jet disc runs in at dps
digits: its precision context, sqrt and the number type of its centre.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from operator import mul
from types import SimpleNamespace

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float, to_fixed

from .seqspace import FourierPotential

_FIXED_GUARD_BITS = 24      # fixed-point bits beyond the working precision


def working(dps: int) -> SimpleNamespace:
    """mpmath at dps digits, in the fields of floquet's _DOUBLES."""
    return SimpleNamespace(dps=dps, precision=partial(mp.workdps, dps), sqrt=mp.sqrt,
                           number=mp.mpc)


# ---------------------------------------------------------------------------
# plan: the Taylor order and step count at a working precision


def _mp_noise(dps: int) -> float:
    # trace noise floor the solvers assume at dps digits
    return 10.0 ** (-(dps - 3))


@lru_cache(maxsize=32)
def _mp_plan(q: FourierPotential, lam, dps: int, table, series,
             steps: int | None = None) -> tuple[int, int]:
    """(order, steps) of the ladder at lam: the cheapest plan the series certifies.

    A plan costs (order + 2)^2 steps, one dot product per order per step.
    Order p on S steps is certified when its tail, the last two terms the
    kernel keeps (Jorba & Zou, Experimental Math. 14 (2005)), is under a
    hundredth of the noise floor: S times the grid mean of max over columns
    of sum_(m=p+1,p+2) m |a[m]| (s/S)^m, a[m] being the double series of
    both unit-state solutions at max(32, 8K) points in units of
    s = sqrt|lam|: ``series`` run on the Taylor ``table`` of q, floquet's
    _taylor_series and _taylor_table.  The tail falls as S grows.  The
    orders are p = 8, 12, ..., up to about 0.55 dps + 56.  Pinned ``steps``
    take the lowest order they certify, or the top one.  Otherwise each
    order, from the top down, bisects for its fewest certified steps under
    the cheapest cost so far, and never takes fewer steps than keep the
    series' peak, near e^(s/S), 4 bits inside the _FIXED_GUARD_BITS.  The
    top order's search starts from a step count certified a priori: for
    S >= s the tail is at most A s (s/S)^p, A the largest m |a[m]| summed
    over both terms.
    """
    orders = range(8, max(28, int(0.55 * dps) + 8) + 49, 4)
    top = orders[-1]
    s = max(1.0, math.sqrt(abs(complex(lam))))
    z = complex(lam) / (s * s)
    C = table(q, max(32, 8 * q.K), top) / s ** np.arange(2.0, top + 3)
    w = np.abs(series(C, z.real if z.imag == 0 else z)[:, 0])
    w *= np.arange(top + 3)[:, None, None]
    eps = _mp_noise(dps) / 100

    def fits(p, S):
        return S * (w[p + 1] * (s / S) ** (p + 1)
                    + w[p + 2] * (s / S) ** (p + 2)).max(0).mean() <= eps

    if steps:
        return next((p for p in orders if fits(p, steps)), top), steps
    fewest = math.ceil(s / ((_FIXED_GUARD_BITS - 4) * math.log(2.0)))
    bound = max(1.0, float((w[top + 1] + w[top + 2]).max()) * s / eps) ** (1 / top)
    plan = (top, max(fewest, math.ceil(s * bound)))
    for p in reversed(orders):
        lo, hi = fewest, (plan[0] + 2) ** 2 * plan[1] // (p + 2) ** 2
        if hi < lo or not fits(p, hi):
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if fits(p, mid) else (mid + 1, hi)
        plan = (p, hi)
    return plan


# ---------------------------------------------------------------------------
# fixed-point kernel


def _fixed_bits(dps: int) -> int:
    return math.ceil(dps * math.log2(10.0)) + _FIXED_GUARD_BITS


@lru_cache(maxsize=8)
def _mp_table(q: FourierPotential, steps, order, dps):
    """Taylor coefficients of q at the step points, in fixed point.

    C[j][i] = sum_k E[j][k] P[k][i] with E[j][k] = q_k e^(2 pi i k j/steps)
    and P[k][i] = (2 pi i k)^i / i! = i^i p[k][i], p real.  p is built once
    per mode and E once per step, both as ints; E carries guard bits sized
    to max |p| and the mode count, so every entry is an integer dot product
    exact to about one unit of 2^-_fixed_bits(dps).

    Returns (real, rows).  Row j holds the step-scaled C[j][i] h^(i+2),
    h = 1/steps, that _fixed_kernel's recurrence on a[m] h^m runs on; the
    scaling divides the sums before they are rounded, so the high orders,
    small after scaling, keep a unit of 2^-_fixed_bits(dps).  Each row
    holds three int lists scaled by 2^_fixed_bits(dps): the real parts, the
    imaginary parts and their sums (the last feed the three-product complex
    dot product).  A real q sums its pairs k, -k as 2 Re(E P) over k > 0,
    so its imaginary parts are zero by construction and ``real`` is set.
    """
    K, coeffs, mean, real = q.K, q.data, complex(q.mean), q.is_real
    bits = _fixed_bits(dps)
    modes = [k for k in range(1 if real else -K, K + 1) if coeffs[K + k] != 0]
    top = max((abs(k) for k in modes), default=1)
    big = max(i * math.log2(2 * math.pi * top) - math.lgamma(i + 1) / math.log(2)
              for i in range(order + 1))
    hi = bits + max(0, math.ceil(big)) + len(modes).bit_length() + 1
    # p[i][k] = (2 pi k)^i / i!, run at 2^(hi + 8) so the error the
    # recurrence amplifies stays under 2^-bits, stored at 2^bits
    with mp.workprec(hi + 16):
        two_pi = to_fixed((2 * mp.pi)._mpf_, hi + 8)
        w = [(to_fixed(mp.cospi(mp.mpf(2 * r) / steps)._mpf_, hi),
              to_fixed(mp.sinpi(mp.mpf(2 * r) / steps)._mpf_, hi)) for r in range(steps)]
    p = []
    vals = [1 << (hi + 8)] * len(modes)
    for i in range(order + 1):
        p.append([v >> (hi + 8 - bits) for v in vals])
        vals = [v * (two_pi * k) // ((i + 1) << (hi + 8)) for v, k in zip(vals, modes)]
    q = [(to_fixed(from_float(z.real), hi), to_fixed(from_float(z.imag), hi))
         for z in (complex(coeffs[K + k]) for k in modes)]
    # h^(i+2) = steps^-(i+2) scales the mean and order i
    m_re, m_im = (to_fixed(from_float(v), bits) // (steps * steps) for v in (mean.real, mean.imag))
    scales = [steps ** (i + 2) << hi for i in range(order + 1)]
    rows = []
    for j in range(steps):
        er, ei = [], []
        for k, (qr, qi) in zip(modes, q):
            wr, wi = w[k * j % steps]
            er.append((qr * wr - qi * wi) >> hi)
            ei.append((qr * wi + qi * wr) >> hi)
        if real:
            # 2 Re(i^i E p): even orders need only Re E, odd ones only Im E
            re = []
            for i in range(order + 1):
                d = 2 * sum(map(mul, ei if i % 2 else er, p[i])) // scales[i]
                re.append((d, -d, -d, d)[i % 4])
            re[0] += m_re
            rows.append((re, [0] * len(re), re))
            continue
        re, im = [], []
        for i in range(order + 1):
            dr, di = sum(map(mul, er, p[i])) // scales[i], sum(map(mul, ei, p[i])) // scales[i]
            # multiply dr + i di by i^i
            re.append((dr, -di, -dr, di)[i % 4])
            im.append((di, dr, -di, -dr)[i % 4])
        re[0] += m_re
        im[0] += m_im
        rows.append((re, im, [a + b for a, b in zip(re, im)]))
    return real, rows


def _lane_growth(rows, lam_h2, h2, bits) -> tuple[int, int]:
    """(grow, head): bits by which one Taylor step's new state, and its
    numerators, can outgrow the largest lane of its state.

    With A the largest sum of |C_i h^(i+2)| over a row, plus |lam h^2| and
    h^2, every lane obeys |b[m+2]| <= A max_(j<=m) |b[j]| / ((m+1)(m+2)),
    the order coupling included.  So the majorant u[0] = u[1] = 1,
    u[m+2] = A max(u[:m+1]) / ((m+1)(m+2)) bounds every coefficient of the
    step and its new state, y = sum b[m] and h y' = sum m b[m], in units of
    the state's largest lane; one bit more covers the rounding.  A max(u)
    bounds the numerators, the first quotient of the division (_Lanes).
    """
    A = (max(sum(map(abs, row[0])) + sum(map(abs, row[1])) for row in rows)
         + lam_h2 + h2) / (1 << bits)
    u = [1.0, 1.0]
    for m in range(len(rows[0][0])):
        u.append(A * max(u[:m + 1]) / ((m + 1) * (m + 2)))
    return (math.ceil(math.log2(max(sum(u), sum(map(mul, range(len(u)), u))))) + 1,
            math.ceil(math.log2(A * max(u))))


class _Lanes:
    """``count`` signed lanes of ``width`` bits packed into one Python int.

    Lane l holds v_l at bit l * width, so a sum of packed ints, or one times
    an int, acts on every lane at once.  Shifting a packed int right by s
    leaves each lane's quotient in its low bits and its remainder in the top
    s bits of the lane below, under 2^width; a bias and a mask clear it
    exactly if every quotient stays under 2^(width - s - 1) in magnitude.
    ``divide(x, r)`` does so twice: it drops the table scale first
    (shifts[0] = bits), then multiplies by the reciprocal r and shifts by
    shifts[1] = G.  So for a state that ``fits`` under 2^top a lane holds
    numerators ``head`` bits above it (_lane_growth), G bits and a sign bit,
    width G + top + head + 1; a quotient, at most half its numerator as
    (m+1)(m+2) >= 2, leaves its rounding a bit, and one step's growth of
    the state stays far under G.
    """

    def __init__(self, count: int, shifts: tuple, head: int, top: int, columns: int):
        self.count, self.shifts = count, shifts
        self.width = w = shifts[1] + top + head + 1
        self.couple = columns * w     # jet order k - 1 lies ``columns`` lanes below k
        self.unit = unit = ((1 << (count * w)) - 1) // ((1 << w) - 1)   # a 1 in every lane
        bits, g = shifts
        (b1, m1), (b2, m2) = ((unit << (w - s - 1), unit * ((1 << (w - s)) - 1)) for s in shifts)

        def divide(x, r):   # each stage clears the remainders its shift spills
            x = (((x >> bits) + b1) & m1) - b1
            return (((x * r >> g) + b2) & m2) - b2
        self.divide = divide
        # (x + low) & high == 0 iff every lane lies in [-2^top, 2^top): only
        # then does no lane borrow from, or carry into, the bits above top
        self.low, self.high = unit << top, unit * ((1 << w) - (2 << top))

    def fits(self, state) -> bool:
        return not any((x + self.low) & self.high for x in state)

    def pack(self, values) -> int:
        return sum(v << (l * self.width) for l, v in enumerate(values))

    def unpack(self, x) -> list:
        half, mask = 1 << (self.width - 1), (1 << self.width) - 1
        x += self.unit * half
        return [((x >> (l * self.width)) & mask) - half for l in range(self.count)]


def _lane_step_real(row, lam_h2, state, h2, recips, lanes):
    """One Taylor step of every lane: real table at real lam, one product per order."""
    c = [row[0][0] - lam_h2] + row[0][1:]
    couple, divide = lanes.couple, lanes.divide
    b = list(state)               # y, h y'
    window = [b[0]]               # b[m], ..., b[0], newest first
    for m, r in enumerate(recips):
        b.append(divide(sum(map(mul, c, window)) - (h2 * window[0] << couple), r))
        window.insert(0, b[m + 1])
    return sum(b), sum(map(mul, range(len(b)), b))


def _lane_step(row, lam_h2, state, h2, recips, lanes):
    """_lane_step_real in complex fixed point: three products per order."""
    c0r, c0i = row[0][0] - lam_h2[0], row[1][0] - lam_h2[1]
    cr, ci, cs = ([c0] + r[1:] for c0, r in zip((c0r, c0i, c0r + c0i), row))
    couple, divide = lanes.couple, lanes.divide
    yr, yi, pr, pi = state
    br, bi = [yr, pr], [yi, pi]
    wr, wi, ws = [yr], [yi], [yr + yi]
    for m, r in enumerate(recips):
        t1 = sum(map(mul, cr, wr))
        t2 = sum(map(mul, ci, wi))
        t3 = sum(map(mul, cs, ws))
        br.append(divide(t1 - t2 - (h2 * wr[0] << couple), r))
        bi.append(divide(t3 - t1 - t2 - (h2 * wi[0] << couple), r))
        wr.insert(0, br[m + 1])
        wi.insert(0, bi[m + 1])
        ws.insert(0, br[m + 1] + bi[m + 1])
    ms = range(len(br))
    return sum(br), sum(bi), sum(map(mul, ms, br)), sum(map(mul, ms, bi))


def _fixed_kernel(table, lam, bits, order=0, starts=((1, 0), (0, 1))):
    """Solutions from the states (y, y')(0) in ``starts``, with their lam-jet.

    Returns 2 len(starts) (order + 1) mpmath numbers, order by order: t_k of
    (y, y')(1) of each solution, by default the monodromy's (y1, y1', y2,
    y2'), t_k being (1/k!) d^k/dlam^k at lam up to ``order``.  The caller
    holds the working precision; lam enters and the entries leave at it, so
    mpmath Newton iterates keep their digits.

    On the step-scaled table (_mp_table) the recurrence runs on
    b[m] = a[m] h^m,

        b_k[m+2] = (sum_i C_i h^(i+2) b_k[m-i] - lam h^2 b_k[m] - h^2 b_(k-1)[m])
                   / ((m+1)(m+2)),

    and a step ends at y = sum b[m], h y' = sum m b[m], so every lane stays
    near 2^bits.  The C (order + 1) lanes, lane l = Ck + c for jet order k
    and solution c of C, share one packed int (_Lanes), and one integer dot
    product per Taylor order serves them all.  The order coupling is b[m]
    shifted up C lanes; the division (_Lanes) is a right shift by bits that
    drops the table scale, then a multiply by floor(2^G / ((m+1)(m+2))) and
    a right shift by G, G = bits + bit_length(terms (terms + 1)), whose
    relative error stays under 2^-bits beyond the floor.  The lanes stay
    packed from step to step; before each step the state is checked against
    the lane width, which widens when the solution outgrows it.  No lane's
    integers depend on the width or on the lanes above it, so the order-0
    lanes of a jet are the plain transport, and a run from one start gives
    that start's lanes of a run from more, bit for bit.  A real table at
    real lam keeps every imaginary part at zero, so it runs the real loop,
    which gives the same integers as the complex one.
    """
    real, rows = table
    steps, terms = len(rows), len(rows[0][0])
    lam = mp.mpc(lam)
    real = real and lam.imag == 0
    h2 = (1 << bits) // (steps * steps)
    lr, li = (to_fixed(v._mpf_, bits) // (steps * steps) for v in (lam.real, lam.imag))
    g = bits + (terms * (terms + 1)).bit_length()
    recips = [(1 << g) // ((m + 1) * (m + 2)) for m in range(terms)]
    grow, head = _lane_growth(rows, abs(lr) + abs(li), h2, bits)
    columns = len(starts)
    count = columns * (order + 1)
    lanes = _Lanes(count, (bits, g), head, (1 << bits).bit_length() + grow, columns)
    # y and h y' of every lane; solution c starts at starts[c], t_k = 0 for k > 0
    fixed = [[to_fixed(from_float(float(v)), bits) for v in s] for s in starts]
    state = [lanes.pack(y for y, _ in fixed), lanes.pack(p // steps for _, p in fixed)]
    if real:
        step, lam_h2 = _lane_step_real, lr
    else:
        step, lam_h2 = _lane_step, (lr, li)
        state = [state[0], 0, state[1], 0]
    for row in rows:
        if not lanes.fits(state):
            values = [lanes.unpack(x) for x in state]
            top = max(abs(v) for vs in values for v in vs).bit_length()
            lanes = _Lanes(count, lanes.shifts, head, top + grow, columns)
            state = [lanes.pack(vs) for vs in values]
        state = step(row, lam_h2, state, h2, recips, lanes)
    values = [lanes.unpack(x) for x in state]
    if real:
        values = [values[0], [0] * count, values[1], [0] * count]
    yr, yi, pr, pi = values
    return tuple(mp.mpc(mp.mpf((re, -bits)), mp.mpf((im, -bits))) for l in range(count)
                 for re, im in ((yr[l], yi[l]), (pr[l] * steps, pi[l] * steps)))
