"""Monodromy integrators, discriminant roots, and the oracle gap records."""

import cmath
import inspect
import math
import random
import sys
import warnings
from functools import lru_cache
from operator import mul

import mpmath as mp
import numpy as np
import pytest

from hillgap import floquet, ladder
from hillgap.floquet import (
    default_steps,
    discriminant,
    gap_record,
    monodromy,
    periodic_eigs,
    periodic_eigs_info,
    sturm_liouville_eig,
)
from hillgap.seqspace import make_fourier, make_gasymov, make_mathieu, make_random
from hillgap.weights import gevrey

PI2 = math.pi ** 2

FREE = make_fourier({}, K=1)

# real K = 16 draw whose top modes the default step counts once under-resolved
WIDE = make_random(gevrey(0, 1, 0.5), seed=202, K=16)
# the complex K = 16 draw of the wideband_complex benchmark, whose rows 15
# and 16 escalate
WIDEBAND = make_random(gevrey(0, 1, 0.5), seed=11, K=16, real=False)
COSINE = make_mathieu(1.0)


@lru_cache(maxsize=None)
def _pair60(q, n):
    # the 60-digit pair and info of a reference solve, at a tol that
    # resolves every gap it is asked for here
    return periodic_eigs_info(q, n, tol=1e-26, dps=60)


def _plan(q, lam, dps):
    # the ladder's default (order, steps) at lam
    return ladder._mp_plan(q, lam, dps)


def _free_entries(lam):
    # y1 = cos(s x), y2 = sin(s x)/s with s = sqrt(lam); branch-independent
    s = cmath.sqrt(lam)
    return cmath.cos(s), cmath.sin(s) / s, -s * cmath.sin(s), cmath.cos(s)


def _model_gamma(info):
    return 2 * cmath.sqrt(-2 * info["dip"] / info["curvature"])


def test_free_monodromy_entries():
    # rk4 carries its h^4 global error; the series integrator sits at roundoff
    for lam in (1.0, 10.0, 100.0, -4.0, 2.0 + 3.0j):
        y1, y2, dy1, dy2 = _free_entries(lam)
        for method, tol in (("rk4", 1e-8), ("taylor", 1e-12)):
            m = monodromy(FREE, lam, method=method)
            assert m.y1 == pytest.approx(y1, abs=tol)
            assert m.y2 == pytest.approx(y2, abs=tol)
            assert m.dy1 == pytest.approx(dy1, abs=10 * tol)
            assert m.dy2 == pytest.approx(dy2, abs=tol)


def test_free_discriminant_sample_grid():
    for k in range(20):
        lam = 0.5 + 7.5 * k
        expect = 2 * cmath.cos(cmath.sqrt(lam))
        assert discriminant(FREE, lam, method="rk4") == pytest.approx(expect, abs=1e-8)
        assert discriminant(FREE, lam, method="taylor") == pytest.approx(expect, abs=1e-10)


def test_determinant_is_one():
    q = make_mathieu(1.0)
    g = make_gasymov([1.0, 0.5j])
    for lam in (2.0, 40.0, 250.0, -7.0, 30.0 + 11.0j):
        for method in ("rk4", "taylor"):
            assert abs(monodromy(q, lam, method=method).det() - 1.0) < 1e-10
            assert abs(monodromy(g, lam, method=method).det() - 1.0) < 1e-10


def test_rk4_step_halving_on_trace():
    q = make_mathieu(1.0)
    lam = 20.0
    traces = [monodromy(q, lam, steps, method="rk4").trace()
              for steps in (128, 256, 512, 4096)]
    e1 = abs(traces[0] - traces[3])
    e2 = abs(traces[1] - traces[3])
    e3 = abs(traces[2] - traces[3])
    assert math.log2(e1 / e2) > 3.5
    assert math.log2(e2 / e3) > 3.5


def test_taylor_matches_rk4():
    q = make_mathieu(1.0)
    g = make_gasymov([1.0, 0.5])
    for lam in (3.0, 97.2, 200.5, 15.0 - 4.0j):
        assert discriminant(q, lam, method="taylor") == pytest.approx(
            discriminant(q, lam, method="rk4"), abs=1e-8)
        assert discriminant(g, lam, method="taylor") == pytest.approx(
            discriminant(g, lam, method="rk4"), abs=1e-8)


def test_mp_matches_double():
    assert discriminant(FREE, 100.0, dps=30) == pytest.approx(2 * math.cos(10.0), abs=1e-13)
    q = make_mathieu(1.0)
    assert discriminant(q, 50.5, dps=30) == pytest.approx(
        discriminant(q, 50.5, method="taylor"), abs=1e-10)


def _rk4_loop(qs, lam, steps):
    # classical RK4 stepping each column's state in turn, one step at a time
    h = 1.0 / steps
    out = []
    for y, p in ((1.0 + 0j, 0j), (0j, 1.0 + 0j)):
        for j in range(steps):
            a0, am, a1 = (qs[2 * j + i] - lam for i in range(3))
            k1y, k1p = p, a0 * y
            k2y, k2p = p + 0.5 * h * k1p, am * (y + 0.5 * h * k1y)
            k3y, k3p = p + 0.5 * h * k2p, am * (y + 0.5 * h * k2y)
            k4y, k4p = p + h * k3p, a1 * (y + h * k3y)
            y, p = (y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
                    p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))
        out += [y, p]
    return out


def _taylor_loop(C, lam, steps, order):
    # the series recurrence and Horner sum applied to each column's state
    h = 1.0 / steps
    out = []
    for y, p in ((1.0 + 0j, 0j), (0j, 1.0 + 0j)):
        for j in range(steps):
            a = [y, p] + [0j] * (order + 1)
            for m in range(order + 1):
                s = -lam * a[m] + sum(C[j, i] * a[m - i] for i in range(m + 1))
                a[m + 2] = s / ((m + 1.0) * (m + 2.0))
            y, p = a[order + 2], (order + 2.0) * a[order + 2]
            for m in range(order + 1, 0, -1):
                y, p = y * h + a[m], p * h + m * a[m]
            y = y * h + a[0]
        out += [y, p]
    return out


def test_batched_kernels_match_step_loops():
    # the propagator products reorder the double arithmetic, so agreement is
    # to a roundoff allowance relative to the largest entry, not bitwise
    g = make_gasymov([1.0, 0.5j])
    for lam in (40.0, 90.0 - 6.0j):
        steps = default_steps(lam)
        qs = floquet._rk4_samples(g, steps)
        got = floquet._rk4_kernel(qs, lam)
        ref = _rk4_loop(qs, lam, steps)
        scale = max(abs(v) for v in ref)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12 * scale
        steps = floquet._taylor_steps(lam)
        C = floquet._taylor_table(g, steps, floquet._TAYLOR_ORDER)
        got = floquet._taylor_kernel(C, lam)
        ref = _taylor_loop(C, lam, steps, floquet._TAYLOR_ORDER)
        scale = max(abs(v) for v in ref)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12 * scale


def _mp_step_coeffs(q, x0, order):
    # Taylor coefficients of q at x0, one mpmath series per mode
    c = [mp.mpc(q.mean)] + [mp.mpc(0)] * order
    for k, qk in q.modes():
        z = 2j * mp.pi * k
        term = mp.mpc(qk) * mp.exp(z * x0)
        for i in range(order + 1):
            c[i] += term
            term = term * z / (i + 1)
    return c


def _mp_taylor_monodromy(q, lam, steps, order):
    # the Taylor scheme in plain mpmath arithmetic at the caller's precision:
    # coefficients of q at each step point, the series recurrence for both
    # columns, and the series summed at h = 1/steps
    h = mp.mpf(1) / steps
    cols = [[mp.mpc(1), mp.mpc(0)], [mp.mpc(0), mp.mpc(1)]]
    for j in range(steps):
        c = _mp_step_coeffs(q, j * h, order)
        for col in cols:
            a = col + [mp.mpc(0)] * (order + 1)
            for m in range(order + 1):
                s = -lam * a[m] + mp.fsum(c[i] * a[m - i] for i in range(m + 1))
                a[m + 2] = s / ((m + 1) * (m + 2))
            col[:] = [mp.fsum(a[m] * h ** m for m in range(order + 3)),
                      mp.fsum(m * a[m] * h ** (m - 1) for m in range(1, order + 3))]
    return [v for col in cols for v in col]


def test_fixed_point_ladder_matches_mpmath():
    # complex potential at a complex lam whose digits run past double
    # precision; the integer kernel must agree to the noise floor the
    # eigenvalue solvers assume, 10^-(dps - 3)
    g = make_gasymov([1.0, 0.5j])
    for dps in (30, 60):
        with mp.workdps(dps):
            lam = mp.mpc(88 + mp.pi, 7 / mp.e)
            disc = floquet._disc(g, "mp", dps, lam)
            got = disc.jet(lam, 0)
            ref = _mp_taylor_monodromy(g, lam, disc.plan[1], disc.plan[0])
            assert max(abs(a - b) for a, b in zip(got, ref)) <= mp.mpf(10) ** -(dps - 3)


def _mp_table_reference(q, steps, order, dps, scaled=True):
    # the coefficient table from per-step mpmath series, in the row layout
    # of ladder._mp_table, step-scaled (C_i h^(i+2)) unless asked for the
    # plain C_i, flagged complex, with its scale
    bits = ladder._fixed_bits(dps)
    rows = []
    with mp.workdps(dps):
        for j in range(steps):
            c = _mp_step_coeffs(q, mp.mpf(j) / steps, order)
            if scaled:
                c = [v / mp.mpf(steps) ** (i + 2) for i, v in enumerate(c)]
            re = [mp.libmp.to_fixed(v.real._mpf_, bits) for v in c]
            im = [mp.libmp.to_fixed(v.imag._mpf_, bits) for v in c]
            rows.append((re, im, [a + b for a, b in zip(re, im)]))
    return False, rows, bits


def test_integer_table_matches_mpmath_build():
    # the integer build against the per-step mpmath series it replaced; the
    # real draw at real lam runs the real loop on the integer table
    cases = [(make_gasymov([1.0, 0.5j]), 30), (make_gasymov([1.0, 0.5j]), 60), (WIDE, 30)]
    for q, dps in cases:
        with mp.workdps(dps):
            lam = mp.mpf(88) + mp.pi if q is WIDE else mp.mpc(88 + mp.pi, 7 / mp.e)
            order, steps = _plan(q, lam, dps)
            table = ladder._mp_table(q, steps, order, dps)
            assert table[0] == (q is WIDE)
            got = ladder._fixed_kernel(table, lam)
            ref = ladder._fixed_kernel(_mp_table_reference(q, steps, order, dps), lam)
            assert max(abs(a - b) for a, b in zip(got, ref)) <= mp.mpf(10) ** -(dps - 3)


def test_real_loop_matches_complex_loop_bitwise():
    for q in (make_mathieu(1.0), WIDE):
        for dps in (30, 60):
            with mp.workdps(dps):
                lam = mp.mpf(64) * mp.pi ** 2 + mp.mpf(1) / 3
                order, steps = _plan(q, lam, dps)
                real, rows, bits = ladder._mp_table(q, steps, order, dps)
                assert real
                # an order-1 jet: the plain transport and its lam-derivative
                fast = ladder._fixed_kernel((True, rows, bits), lam, 1)
                assert fast == ladder._fixed_kernel((False, rows, bits), lam, 1)
                assert all(v.imag == 0 for v in fast)


def _plain_step(row, lr, li, state, steps, bits):
    # the fixed-point Taylor step as it stood before it carried a lam-jet:
    # one column (y, y') in complex fixed point, order 0 only
    cr, ci, cs = row
    yr, yi, dyr, dyi = state
    ar, ai = [yr, dyr], [yi, dyi]
    rr, ri, rs = [yr], [yi], [yr + yi]
    for m in range(len(cr)):
        t1 = sum(map(mul, cr, rr))
        t2 = sum(map(mul, ci, ri))
        t3 = sum(map(mul, cs, rs))
        xr, xi = rr[0], ri[0]
        d = ((m + 1) * (m + 2)) << bits
        ar.append((t1 - t2 - lr * xr + li * xi) // d)
        ai.append((t3 - t1 - t2 - lr * xi - li * xr) // d)
        rr.insert(0, ar[m + 1])
        ri.insert(0, ai[m + 1])
        rs.insert(0, ar[m + 1] + ai[m + 1])
    top = len(ar) - 1
    yr, yi = ar[top], ai[top]
    dyr, dyi = top * yr, top * yi
    for m in range(top - 1, 0, -1):
        yr = yr // steps + ar[m]
        yi = yi // steps + ai[m]
        dyr = dyr // steps + m * ar[m]
        dyi = dyi // steps + m * ai[m]
    return yr // steps + ar[0], yi // steps + ai[0], dyr, dyi


def _plain_step_real(cr, lr, state, steps, bits):
    y, dy = state
    a = [y, dy]
    r = [y]
    for m in range(len(cr)):
        a.append((sum(map(mul, cr, r)) - lr * r[0]) // (((m + 1) * (m + 2)) << bits))
        r.insert(0, a[m + 1])
    top = len(a) - 1
    y = a[top]
    dy = top * y
    for m in range(top - 1, 0, -1):
        y = y // steps + a[m]
        dy = dy // steps + m * a[m]
    return y // steps + a[0], dy


def test_jet_order_zero_is_the_plain_step():
    # the packed kernel against the per-lane steps it replaced, which run the
    # unscaled recurrence on the unscaled table, to the noise floor; and the
    # order-0 part of a higher jet is the plain transport, bit for bit
    dps = 30
    bits = ladder._fixed_bits(dps)
    for q, lam in ((make_gasymov([1.0, 0.5j]), 88.5 + 2.25j), (WIDE, 4 * PI2 + 0.5)):
        order, steps = _plan(q, lam, dps)
        real, rows, _ = ladder._mp_table(q, steps, order, dps)
        plain_rows = _mp_table_reference(q, steps, order, dps, scaled=False)[1]
        lr, li = (mp.libmp.to_fixed(mp.mpf(v)._mpf_, bits) for v in (lam.real, lam.imag))
        ref = ((1 << bits, 0, 0, 0), (0, 0, 1 << bits, 0))
        for row in plain_rows:
            ref = tuple(_plain_step(row, lr, li, c, steps, bits) for c in ref)
        refs = [ref]
        if real:
            ref = ((1 << bits, 0), (0, 1 << bits))
            for row in plain_rows:
                ref = tuple(_plain_step_real(row[0], lr, c, steps, bits) for c in ref)
            refs.append(tuple((y, 0, dy, 0) for y, dy in ref))
        with mp.workdps(dps):
            plain = ladder._fixed_kernel((real, rows, bits), lam)
            for ref in refs:
                want = [mp.mpc(mp.mpf((re, -bits)), mp.mpf((im, -bits)))
                        for c in ref for re, im in (c[:2], c[2:])]
                assert max(abs(a - b) for a, b in zip(plain, want)) <= mp.mpf(10) ** -(dps - 3)
            assert ladder._fixed_kernel((real, rows, bits), lam, 3)[:4] == plain


def _lane_transcription(table, lam, order):
    # _fixed_kernel's step-scaled arithmetic one lane at a time, in the
    # direct complex form, without packing: lane l = 2k + c is jet order k
    # of column c, and lane l - 2 feeds it through the order coupling
    _, rows, bits = table
    steps, terms = len(rows), len(rows[0][0])
    lam = mp.mpc(lam)
    lr, li = (mp.libmp.to_fixed(v._mpf_, bits) // steps ** 2 for v in (lam.real, lam.imag))
    h2 = (1 << bits) // steps ** 2
    g = bits + (terms * (terms + 1)).bit_length()
    one = 1 << bits
    state = [(one, 0, 0, 0), (0, 0, one // steps, 0)] + [(0, 0, 0, 0)] * (2 * order)
    for cr, ci, _ in rows:
        series = []
        for lane, (yr, yi, pr, pi) in enumerate(state):
            br, bi = [yr, pr], [yi, pi]
            for m in range(terms):
                sr = sum(cr[i] * br[m - i] - ci[i] * bi[m - i] for i in range(m + 1))
                si = sum(cr[i] * bi[m - i] + ci[i] * br[m - i] for i in range(m + 1))
                sr -= lr * br[m] - li * bi[m]
                si -= lr * bi[m] + li * br[m]
                if lane >= 2:
                    sr -= h2 * series[lane - 2][0][m]
                    si -= h2 * series[lane - 2][1][m]
                r = (1 << g) // ((m + 1) * (m + 2))
                br.append((sr >> bits) * r >> g)
                bi.append((si >> bits) * r >> g)
            series.append((br, bi))
        state = [(sum(br), sum(bi), sum(map(mul, range(len(br)), br)),
                  sum(map(mul, range(len(bi)), bi))) for br, bi in series]
    return tuple(mp.mpc(mp.mpf((re, -bits)), mp.mpf((im, -bits)))
                 for yr, yi, pr, pi in state
                 for re, im in ((yr, yi), (pr * steps, pi * steps)))


def test_packed_lanes_match_the_lane_transcription_bitwise():
    # an order-4 jet: ten lanes in one int, on the real loop (real table at
    # real lam) and on the complex one
    dps = 30
    for q, lam in ((make_mathieu(1.0), mp.mpf(4 * PI2 + 0.5)),
                   (make_gasymov([1.0, 0.5j]), mp.mpc(4 * PI2 + 0.5, 2.25))):
        with mp.workdps(dps):
            order, steps = _plan(q, lam, dps)
            table = ladder._mp_table(q, steps, order, dps)
            got = ladder._fixed_kernel(table, lam, 4)
            want = _lane_transcription(table, lam, 4)
            assert got == want


def test_lanes_widen_for_a_growing_solution(monkeypatch):
    # at lam = 1e4 i the solution grows like e^(Im sqrt(lam)) ~ 2^102 over
    # the period, past the headroom the first lane width leaves; the lanes
    # must widen instead of wrapping, and the transport still match plain
    # mpmath to the noise floor relative to its largest entry
    widths = []
    lanes = ladder._Lanes

    def spy(*args):
        out = lanes(*args)
        widths.append(out.width)
        return out

    monkeypatch.setattr(ladder, "_Lanes", spy)
    g = make_gasymov([1.0, 0.5j])
    dps = 30
    with mp.workdps(dps):
        lam = mp.mpc(0, 10 ** 4)
        disc = floquet._disc(g, "mp", dps, lam)
        got = disc.jet(lam, 0)
        ref = _mp_taylor_monodromy(g, lam, disc.plan[1], disc.plan[0])
        big = max(abs(v) for v in ref)
        assert big > 2 ** 100
        assert max(abs(a - b) for a, b in zip(got, ref)) <= mp.mpf(10) ** -(dps - 3) * big
    assert len(widths) > 1 and widths == sorted(widths)


def test_lane_division_matches_lanewise_floor_division():
    # both stages of the division at the bounds the width declares, against
    # each lane's floor quotients: numerators under 2^(bits + top + head),
    # whose first quotients, under 2^(top + head), go through r = 2^G (the
    # second stage at its own bound) and the largest reciprocal,
    # floor(2^G / 2); a lane above ``count`` (where the order coupling
    # spills) must not leak
    rng = random.Random(20261019)
    for _ in range(300):
        bits = rng.randrange(28, 240)
        g = bits + rng.randrange(1, 14)
        top, head = bits + rng.randrange(1, 40), rng.randrange(-20, 30)
        count = rng.randrange(1, 16)
        lanes = ladder._Lanes(count, (bits, g), head, top, rng.randrange(1, 3))
        assert lanes.width == g + top + head + 1
        bound = 1 << (bits + top + head)
        edges = (-bound, bound - 1, -1, 0)
        for r in (1 << g, (1 << g) // 2):
            values = [rng.choice(edges) if rng.random() < 0.3 else rng.randrange(-bound, bound)
                      for _ in range(count + 1)]
            got = lanes.unpack(lanes.divide(lanes.pack(values), r))
            assert got == [(v >> bits) * r >> g for v in values[:count]]


@pytest.mark.parametrize("q, n", [(make_mathieu(1.0), 16), (make_mathieu(1.0), 18),
                                  (WIDEBAND, 15)],
                         ids=["cosine-16", "cosine-18", "wideband-15"])
def test_widest_lanes_match_a_higher_precision_transport(q, n):
    # the largest per-step A of the 30-digit plans on the perfbench
    # potentials: the cosine on plans (72, 5) and (76, 5), h sqrt(lam) ~ 10
    # and 11, whose numerators stand 19 and 23 bits above the state (the
    # real loop), and the complex K = 16 draw at n = 15 on (44, 38) (the
    # complex loop); the order-3 jets on the default plan against 60 digits
    # on its own default plan, with y1' divided by s = sqrt|lam| and y2
    # multiplied by it
    lam = n * n * PI2 + complex(q.mean)
    s = math.sqrt(abs(lam))
    with mp.workdps(30):
        disc = floquet._disc(q, "mp", 30, lam)
        got = disc.jet(lam, 3)
    assert disc.plan == {16: (72, 5), 18: (76, 5), 15: (44, 38)}[n]
    with mp.workdps(60):
        ref = floquet._disc(q, "mp", 60, lam).jet(lam, 3)
        err = max(abs(a - b) * w for a, b, w in zip(got, ref, (1, 1 / s, s, 1) * 4))
    assert err <= ladder._mp_noise(30)


# exactly even (q_-1 = q_1 bit for bit) yet complex, with a complex mean
EVEN_COMPLEX = make_fourier({1: 0.5 + 0.25j, -1: 0.5 + 0.25j}, mean=0.3 - 0.2j)


def test_one_column_is_that_column_of_the_two_column_kernel_bitwise():
    # no lane depends on the lanes above it, so a run from one unit state
    # gives the integers of the matching column of the two-column run: on
    # the real loop (the cosine at real lam) and the complex one (an even
    # complex q at complex lam)
    dps = 30
    for q, lam, real in ((make_mathieu(1.0), mp.mpf(9 * PI2 + 0.5), True),
                         (EVEN_COMPLEX, mp.mpc(9 * PI2 + 0.5, 2.25), False)):
        order, steps = _plan(q, lam, dps)
        with mp.workdps(dps):
            table = ladder._mp_table(q, steps, order, dps)
            assert table[0] is real
            both = ladder._fixed_kernel(table, lam, 3)
            for c, start in enumerate(((1, 0), (0, 1))):
                one = ladder._fixed_kernel(table, lam, 3, (start,))
                assert one == tuple(v for k in range(4) for v in both[4 * k + 2 * c:4 * k + 2 * c + 2])


@pytest.mark.parametrize("dps", [30, 60])
def test_one_column_forms_match_a_higher_precision_transport(dps):
    # the even trace 2 y1 and the boundary form at alpha = 0.3, each from
    # one transported solution, against both columns 30 digits finer: the
    # order-3 jets and the boundary root, to the noise floor
    alpha = 0.3
    forms = (floquet._trace, floquet._boundary_form(alpha))
    for q, n in ((make_mathieu(1.0), 3), (make_mathieu(1.0), 8), (EVEN_COMPLEX, 5)):
        lam = n * n * PI2 + complex(q.mean)
        with mp.workdps(dps):
            discs = [floquet._disc(q, "mp", dps, lam, form=f) for f in forms]
            got = [d.form([d.jet(lam, 3)[2 * k:2 * k + 2] for k in range(4)]) for d in discs]
            root = floquet._sturm_liouville_root(q, n, alpha, 1e-12, "mp", dps)
        assert [d.columns for d in discs] == [1, 1]
        with mp.workdps(dps + 30):
            ref = floquet._disc(q, "mp", dps + 30, lam).jet(lam, 3)
            for f, jet in zip(forms, got):
                want = f([ref[4 * k:4 * k + 4] for k in range(4)])
                assert max(abs(a - b) for a, b in zip(jet, want)) <= ladder._mp_noise(dps)
            finer = floquet._sturm_liouville_root(q, n, alpha, 1e-12, "mp", dps + 30)
            assert abs(root - finer) <= ladder._mp_noise(dps)


def test_ladder_transports_the_columns_its_form_reads(monkeypatch):
    # D + 1 lanes for the trace of an exactly even q and for a boundary
    # form, 2 (D + 1) for a cosine translated off its symmetry centre, for
    # one even only within 1e-14, and for the public monodromy
    counts = []
    lanes = ladder._Lanes

    def spy(*args):
        counts.append(args[0])
        return lanes(*args)

    monkeypatch.setattr(ladder, "_Lanes", spy)
    cosine = make_mathieu(1.0)
    turn = cmath.exp(0.2j * math.pi)
    translated = make_fourier({1: 0.5 * turn, -1: 0.5 * turn.conjugate()})
    near = make_fourier({1: 0.5, -1: 0.5 + 1e-15})
    assert not near.is_real and translated.is_real
    lam = 25 * PI2
    cases = [(cosine, floquet._trace, 1), (EVEN_COMPLEX, floquet._trace, 1),
             (translated, floquet._boundary_form(0.0), 1), (near, floquet._boundary_form(1.2), 1),
             (translated, floquet._trace, 2), (near, floquet._trace, 2), (cosine, None, 2)]
    for q, form, columns in cases:
        counts.clear()
        disc = floquet._disc(q, "mp", 30, lam, form=form)
        with disc.precision():
            assert len(disc.jet(lam, 3)) == 2 * columns * 4
        assert disc.columns == columns and set(counts) == {columns * 4}
    counts.clear()
    monodromy(cosine, lam, dps=30)
    assert set(counts) == {2}
    # the ledger reports the columns of every path
    for q, columns in ((cosine, 1), (translated, 2)):
        kernels = periodic_eigs_info(q, 5, dps=30)[2]["kernels"]
        assert kernels["mp30"]["columns"] == columns and kernels["taylor"]["columns"] == 2


def test_jet_matches_central_differences():
    # t_1 and t_2 of the 30-digit jet against central differences of
    # 60-digit transports; with h = 1e-12 the differences are good to 1e-27
    for q, lam in ((make_gasymov([1.0, 0.5j]), mp.mpc(88.5, 2.25)), (WIDE, mp.mpf(4 * PI2 + 0.5))):
        steps = _plan(q, 90.0, 60)[1]
        with mp.workdps(30):
            jet = floquet._disc(q, "mp", 30, lam, steps).jet(lam, 2)
        with mp.workdps(60):
            h = mp.mpf(10) ** -12
            transport = floquet._disc(q, "mp", 60, lam, steps).jet
            fp, f0, fm = (transport(lam + s * h, 0) for s in (1, 0, -1))
            for i in range(4):
                assert abs(jet[4 + i] - (fp[i] - fm[i]) / (2 * h)) <= 1e-26
                assert abs(jet[8 + i] - (fp[i] - 2 * f0[i] + fm[i]) / (2 * h * h)) <= 1e-26


def test_jet_polynomial_at_its_radius_edge():
    # a jet sized for a span serves points out to its radius: there the
    # polynomial must match a direct transport to the noise floor
    for q, dps in ((make_mathieu(1.0), 30), (make_mathieu(1.0), 60),
                   (make_gasymov([1.0, 0.5j]), 30)):
        center = 25 * PI2
        disc = floquet._disc(q, "mp", dps, center)
        steps = disc.plan[1]
        with mp.workdps(dps):
            disc.cover(mp.mpf(center) + mp.mpf(1) / 7, 1e-4)
            assert disc.transports == 1 and disc.radius >= 1e-4
            for direction in (1, -1, 1j):
                lam = disc.center + direction * disc.radius * (1 - 1e-9)
                got = disc.derivs(lam, 0)[0]
                assert disc.transports == 1
                m = floquet._disc(q, "mp", dps, lam, steps).jet(lam, 0)
                assert abs(got - (m[0] + m[3])) <= mp.mpf(10) ** -(dps - 3)


def test_double_jets_match_the_fixed_point_jet():
    # t_1 and t_2 of the double Taylor jet against the 30-digit jet, to a
    # roundoff allowance relative to the largest entry of each order, and of
    # the RK4 jet to its truncation bias; then the RK4 jet, truncated by the
    # disc's radius rule, against a direct RK4 transport at its radius edge,
    # where the dropped tail is about eps
    for q, lam in ((make_gasymov([1.0, 0.5j]), 88.5 + 2.25j), (make_mathieu(1.0), 4 * PI2 + 0.5)):
        C = floquet._taylor_table(q, floquet._taylor_steps(lam), floquet._TAYLOR_ORDER)
        qs = floquet._rk4_samples(q, default_steps(lam))
        with mp.workdps(30):
            ref = [complex(v) for v in floquet._disc(q, "mp", 30, lam).jet(lam, 2)]
        for jet, rel in ((floquet._taylor_kernel(C, lam, 2), 1e-12),
                         (floquet._rk4_kernel(qs, lam, 2), 1e-8)):
            for k in (1, 2):
                scale = max(abs(v) for v in ref[4 * k:4 * k + 4])
                assert max(abs(a - b) for a, b in zip(jet[4 * k:4 * k + 4], ref[4 * k:4 * k + 4])) \
                    <= rel * scale
        disc = floquet._disc(q, "rk4", None, lam)
        disc.cover(lam, 0.0)
        assert disc.radius >= 1e-3
        for direction in (1, -1, 1j):
            edge = disc.center + direction * disc.radius * (1 - 1e-9)
            m = floquet._rk4_kernel(qs, edge)
            assert abs(disc.derivs(edge, 0)[0] - (m[0] + m[3])) <= 10 * disc.eps
        assert disc.transports == 1


def test_double_critical_point_is_exact_to_the_integrator():
    # Newton on exact lam-derivatives converges to the RK4 critical point of
    # the free potential, which sits at the RK4 truncation bias from n^2 pi^2
    # (about 1.6e-10 relative); and a tolerance under the double noise floor
    # still ends the critical search, at the floor
    for n in (4, 5):
        lm, lp = periodic_eigs(FREE, n, method="rk4")
        assert lm == lp
        assert abs(lm - n * n * PI2) <= 3e-10 * n * n * PI2
    for n in (1, 2):
        _, _, info = periodic_eigs_info(make_mathieu(1.0), n, 1e-26, method="taylor")
        assert info["resolved"]


def test_jet_radius_guards_a_vanishing_last_coefficient():
    # a last coefficient that happens to sit near zero must not stretch the
    # radius: the one before it bounds rho
    eps = 1e-30
    rho, radius = floquet._jet_radius([1.0, 0.5, 0.25, 1e-40], eps)
    assert rho == pytest.approx(2.0, rel=1e-12)
    assert radius == pytest.approx(2.0 * eps ** 0.25, rel=1e-12)
    assert floquet._jet_radius([1.0, 0.5, 0.0, 0.0], eps) == (0.0, 0.0)


def test_solve_ledger_counts_transports():
    # a collapsed cosine gap escalates and is served by one det jet at the
    # default tol, and below the det floor by one jet at the precision the
    # escalation picks; the complex K = 16 draw at n = 15 needs one jet
    # covering both roots on either rung
    for tol, rung in ((1e-12, "det"), (1e-20, "mp")):
        _, _, info = periodic_eigs_info(make_mathieu(1.0), 10, tol)
        assert info["method"] == (rung if rung == "det" else f"mp{info['dps']}")
        assert info["kernels"]["taylor"]["transports"] > 0
        assert info["kernels"]["det"]["transports"] == 1
        assert info["kernels"][info["method"]]["transports"] == 1
        assert info["escalated"].startswith("dip ")
        assert info["escalated"].endswith(" < auto threshold 1e-08")
        _, _, info = periodic_eigs_info(WIDEBAND, 15, tol)
        last = info["kernels"][info["method"]]
        assert info["resolved"] and info["method"].startswith(rung)
        assert last["transports"] <= 2
        assert last["transports"] + last["jet_order"] <= 12
    _, _, info = periodic_eigs_info(make_mathieu(1.0), 1)
    assert info["escalated"] is None and list(info["kernels"]) == ["taylor"]


@pytest.mark.parametrize("n", range(5, 9))
def test_pinned_precision_continues_from_the_double_critical_point(n):
    # a pinned 60-digit solve starts from the double critical point, so one
    # jet sized to cover its error and both model roots serves the whole solve
    _, _, info = periodic_eigs_info(make_mathieu(1.0), n, tol=1e-26, method="mp", dps=60)
    assert info["kernels"]["mp60"]["transports"] == 1
    assert info["kernels"]["taylor"]["transports"] >= 1
    assert info["escalated"] is None


@pytest.mark.parametrize("method", ["taylor", "rk4"])
def test_dps_pins_the_precision_for_every_method(method):
    # dps pins the precision the solve finishes at whatever the method; the
    # double path only seeds it, so the 2e-21 gap at n = 8 stays resolved
    q = make_mathieu(1.0)
    _, _, ref = periodic_eigs_info(q, 8, tol=1e-26, method="mp", dps=60)
    _, _, info = periodic_eigs_info(q, 8, tol=1e-26, method=method, dps=60)
    assert info["method"] == "mp60" and info["dps"] == ref["dps"] == 60
    assert info["gamma"] == pytest.approx(ref["gamma"], rel=1e-12, abs=0)
    assert periodic_eigs_info(q, 8, method=method)[2]["dps"] is None


# Dirichlet eigenvalues of the cosine at 45 digits, rounded to doubles, as a
# Newton run started cold at n^2 pi^2 finds them
SIGMA_45 = {3: 88.82800274480948, 4: 157.9145147367753, 5: 246.7406377426335,
            6: 355.30612030086394, 7: 483.6108795107305, 8: 631.6548827038578}


@pytest.mark.parametrize("n", range(3, 9))
def test_seeded_boundary_root_keeps_every_bit(n):
    # the 45-digit Newton run starts from the double Taylor root; seeding
    # must not move the rounded eigenvalue off the cold-start value
    assert sturm_liouville_eig(make_mathieu(1.0), n, dps=45) == complex(SIGMA_45[n], 0.0)


@pytest.mark.parametrize("n", range(3, 9))
def test_boundary_root_takes_one_high_precision_jet(monkeypatch, n):
    # the 60-digit jet is sized to the double root's own error, noise / |f'|,
    # so the Newton run stays inside it; a jet of span 0 needed two at n = 8
    built = []
    build = floquet._JetDisc._build

    def spy(self, lam, span):
        build(self, lam, span)
        built.append(self.name)

    monkeypatch.setattr(floquet._JetDisc, "_build", spy)
    sturm_liouville_eig(make_mathieu(1.0), n, dps=60)
    assert built.count("mp60") == 1


def test_boundary_eigenvalue_reads_the_method_rule():
    # "auto" never escalates a boundary root, so it is the Taylor value; an
    # unknown method raises before any solve
    q = make_mathieu(1.0)
    for n in (2, 5):
        taylor = sturm_liouville_eig(q, n, method="taylor")
        assert sturm_liouville_eig(q, n, method="auto") == taylor
    with pytest.raises(ValueError, match="unknown oracle method"):
        sturm_liouville_eig(q, 4, method="midpoint")
    with pytest.raises(ValueError, match="unknown oracle method"):
        gap_record(q, 4, method="midpoint")


def test_real_potentials_give_exactly_real_pairs():
    # the real tables keep every imaginary part at zero, on the double path
    # and on the fixed-point ladder alike
    for q, ns in ((make_mathieu(1.0), (1, 2, 3)), (WIDE, (1, 2))):
        for n in ns:
            for kw in ({"method": "taylor"}, {"dps": 30}):
                lm, lp, info = periodic_eigs_info(q, n, **kw)
                assert info["method"] == kw.get("method", "mp30")
                assert lm.imag == lp.imag == info["gamma"].imag == info["critical"].imag == 0
                assert lm.real < lp.real


def test_real_potentials_give_exactly_real_rk4_pairs():
    # RK4 samples q off the real Taylor table, so its pairs are real as well
    q = make_random(gevrey(0, 1, 0.5), seed=202, K=8)
    for n in range(1, 5):
        lm, lp, info = periodic_eigs_info(q, n, method="rk4")
        assert info["method"] == "rk4"
        assert lm.imag == lp.imag == info["gamma"].imag == 0
        assert lm.real < lp.real


def test_rk4_samples_match_a_direct_fourier_sum():
    # the Taylor table's order-0 column against q summed mode by mode at the
    # step points and midpoints: the monodromy moves only by roundoff
    for q in (make_gasymov([1.0, 0.5j]), WIDEBAND):
        for lam in (1.0, 40.0, 90.0 - 6.0j, 225 * PI2 + 0.3):
            steps = default_steps(lam)
            x = np.arange(2 * steps + 1) * (0.5 / steps)
            modes = np.arange(-q.K, q.K + 1)
            qs = np.exp(2j * np.pi * np.outer(x, modes)) @ q.data + q.mean
            ref = floquet._rk4_kernel(qs, complex(lam))
            m = monodromy(q, lam, method="rk4")
            scale = max(abs(v) for v in ref)
            assert max(abs(a - b) for a, b in zip((m.y1, m.dy1, m.y2, m.dy2), ref)) \
                <= 1e-14 * scale


def test_near_real_potential_takes_complex_loop(monkeypatch):
    # conjugate-symmetric only to rounding, so not real: the tables stay
    # complex and the real loop never runs
    near = make_fourier({1: 0.5, -1: 0.5 + 1e-16j})
    assert not near.is_real
    calls = []
    real_step = ladder._lane_step_real

    def spy(*args):
        calls.append(1)
        return real_step(*args)

    monkeypatch.setattr(ladder, "_lane_step_real", spy)
    lam = 4 * PI2 + 0.5
    assert floquet._taylor_table(near, 16, floquet._TAYLOR_ORDER).dtype.kind == "c"
    m = monodromy(near, lam, dps=30)
    assert not calls and m.y1.imag != 0
    exact = monodromy(make_mathieu(1.0), lam, dps=30)
    assert calls and exact.y1.imag == 0
    assert m.trace() == pytest.approx(exact.trace(), abs=1e-14)


def test_mp_steps_resolve_the_top_mode():
    # at lam = 4 pi^2 + 0.5 a step count read off lam alone is 16, under
    # which mode 16 turns a full period per step; the series certificate
    # must resolve it, both on its default plan and on 16 pinned steps,
    # against a 64-step transport at the working precision
    lam = 4 * PI2 + 0.5
    with mp.workdps(30):
        ref = floquet._disc(WIDE, "mp", 30, lam, 64).jet(lam, 0)
        for steps in (None, 16):
            got = floquet._disc(WIDE, "mp", 30, lam, steps).jet(lam, 0)
            assert abs((got[0] + got[3]) - (ref[0] + ref[3])) <= mp.mpf(10) ** -26


def test_default_plan_matches_a_higher_precision_transport():
    # the ladder's default plan against a transport 30 digits finer; with
    # s = sqrt|lam|, y1' (about s) is divided by s and y2 (about 1/s)
    # multiplied by it
    cases = ([(make_mathieu(1.0), n * n * PI2, 30) for n in (1, 3, 12, 24)]
             + [(make_mathieu(1.0), n * n * PI2, 60) for n in (3, 12)]
             + [(make_gasymov([1.0, 0.5j]), complex(25 * PI2, 3.0), 60)])
    for q, lam, dps in cases:
        s = math.sqrt(abs(lam))
        order, steps = _plan(q, lam, dps)
        # the series peaks near e^(h s), which the guard bits must absorb
        assert s / steps * math.log2(math.e) < ladder._FIXED_GUARD_BITS
        with mp.workdps(dps):
            got = floquet._disc(q, "mp", dps, lam).jet(lam, 0)
        with mp.workdps(dps + 30):
            ref = floquet._disc(q, "mp", dps + 30, lam).jet(lam, 0)
            err = max(abs(g - r) * w for g, r, w in zip(got, ref, (1, 1 / s, s, 1)))
        assert err <= ladder._mp_noise(dps)


# the two-mode even potential cos 2 pi x + 0.2 cos 4 pi x and a complex
# even variant, whose plans once stopped short of the truncation floor
TWO_MODE = make_fourier({1: 0.5, -1: 0.5, 2: 0.1, -2: 0.1})
TWO_MODE_COMPLEX = make_fourier({1: 0.5 + 0.25j, -1: 0.5 + 0.25j, 2: 0.1 - 0.05j, -2: 0.1 - 0.05j})


@pytest.mark.parametrize("q, lam, dps, steps", [
    (WIDE, 16 * PI2 + 0.3, 60, None),
    (WIDEBAND, 16 * PI2 + 0.3, 60, None),
    (TWO_MODE, 9 * PI2, 60, None),
    (TWO_MODE_COMPLEX, 9 * PI2, 60, None),
    (make_gasymov([1.0, 0.5j]), None, 60, None),
    (WIDEBAND, 225 * PI2 + 0.3, 21, None),
    (WIDEBAND, 225 * PI2 + 0.3, 29, None),
    (make_mathieu(1.0), 64 * PI2, 30, 16),
    (make_gasymov([1.0, 0.5j]), None, 60, 20),
    (make_mathieu(1.0), 441 * PI2, 250, None),
    (make_mathieu(1.0), 441 * PI2, 300, None),
], ids=["wide-60", "wideband-60", "two-mode-60", "two-mode-complex-60", "gasymov-60",
        "wideband-21", "wideband-29", "cosine-30-steps16", "gasymov-60-steps20",
        "cosine-250", "cosine-300"])
def test_ladder_plans_meet_the_floor_against_a_finer_transport(q, lam, dps, steps):
    # the order-0 transport on the default plan, or on pinned steps at the
    # order the certificate picks for them, against one 40 digits finer,
    # relative to its largest entry; None stands for the complex lam
    # 88 + pi + 7i/e, taken at the working precision.  Past 200 digits the
    # plans reach orders past 170, where a finer reference on its own plan
    # would share a fault of the plan rule; there the reference takes twice
    # the plan's steps, and at the limit of 300 digits the same precision.
    with mp.workdps(dps):
        if lam is None:
            lam = mp.mpc(88 + mp.pi, 7 / mp.e)
        disc = floquet._disc(q, "mp", dps, lam, steps)
        got = disc.jet(lam, 0)
    fine = min(dps + 40, floquet._MAX_DPS)
    with mp.workdps(fine):
        ref = floquet._disc(q, "mp", fine, lam, 2 * disc.plan[1] if dps > 200 else None)
        ref = ref.jet(lam, 0)
        err = max(abs(g - r) for g, r in zip(got, ref)) / max(abs(r) for r in ref)
    assert err <= ladder._mp_noise(dps)


@pytest.mark.parametrize("dps", [19, 60, 150, 230, 250, 300])
def test_ladder_plans_stay_in_the_double_range(dps):
    # the plan's series and its table scale stay inside the doubles: at
    # large lam and high precision, powers of sqrt|lam| would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (8, 20, 30, 55):
            order, steps = _plan(COSINE, n * n * PI2, dps)
            assert 8 <= order and steps >= 1


def test_solve_ledger_reports_the_ladder_plan():
    # at a tol below the det floor, the escalated solves of the cosine at
    # n = 12 and of the complex K = 16 draw at n = 15 report the plan the
    # series certificate picks at their precision, beside the double
    # critical search's fixed Taylor order
    for q, n in ((make_mathieu(1.0), 12), (WIDEBAND, 15)):
        _, _, info = periodic_eigs_info(q, n, tol=1e-20)
        mp = info["kernels"][info["method"]]
        lam = n * n * PI2 + complex(q.mean)
        assert (mp["order"], mp["steps"]) == _plan(q, lam, info["dps"])
        assert info["kernels"]["taylor"]["order"] == floquet._TAYLOR_ORDER


def test_monodromy_validation():
    for dps in (None, 30):
        with pytest.raises(ValueError):
            monodromy(FREE, 10.0, method="midpoint", dps=dps)
    with pytest.raises(ValueError):
        # 16 steps under-resolve the oscillation at lam = 400
        monodromy(FREE, 400.0, 16, method="rk4")
    assert default_steps(400.0) == 320 * 7


@pytest.mark.parametrize("steps", [0, -3])
def test_steps_below_one_raise_on_every_path(steps):
    # one ValueError on the double paths, the ladder and "auto", where 0
    # once meant the default step count and -3 failed with a ZeroDivisionError
    for method, dps in (("rk4", None), ("taylor", None), ("auto", None), ("taylor", 30),
                        ("mp", None)):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            monodromy(COSINE, 10.0, steps, method=method, dps=dps)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            periodic_eigs(COSINE, 3, steps=steps, method=method, dps=dps)


def test_a_precision_past_the_limit_raises_on_every_path():
    # one ValueError wherever a precision is set, where 400 digits once ended
    # in a ZeroDivisionError: the floor 1e-(dps - 3) underflows near 327
    # digits, and the limit keeps it, and the plan's hundredth of it, normal
    assert ladder._mp_noise(floquet._MAX_DPS) / 100 >= sys.float_info.min
    floquet._path("mp", floquet._MAX_DPS)
    dps = floquet._MAX_DPS + 1
    for method in ("rk4", "taylor", "auto", "mp"):
        with pytest.raises(ValueError, match=f"dps = {dps} exceeds the limit"):
            monodromy(COSINE, 10.0, method=method, dps=dps)
        with pytest.raises(ValueError, match=f"dps = {dps} exceeds the limit"):
            periodic_eigs(COSINE, 3, method=method, dps=dps)
        with pytest.raises(ValueError, match=f"dps = {dps} exceeds the limit"):
            sturm_liouville_eig(COSINE, 3, method=method, dps=dps)


@pytest.mark.parametrize("dps", [-5, 0, 9, 18])
def test_a_precision_under_the_floor_raises(dps):
    # one ValueError below 19 digits, where a pinned solve once finished on a
    # disc no finer than the double one (gamma_2 read 0 at 10 digits) and a
    # negative dps ran the ladder at the default precision
    with pytest.raises(ValueError, match=f"dps = {dps} is under the floor of 19 digits"):
        monodromy(COSINE, 10.0, dps=dps)
    with pytest.raises(ValueError, match="under the floor"):
        periodic_eigs_info(COSINE, 2, dps=10)
    assert abs(monodromy(COSINE, 10.0, dps=19).trace() - monodromy(COSINE, 10.0).trace()) < 1e-8


# each entry point by the integer arguments it takes, at n = 2 and lam = 4 pi^2
_INTEGER_ARGUMENTS = {
    "periodic_eigs": lambda n=2, steps=None, dps=None: periodic_eigs(
        COSINE, n, method="taylor", steps=steps, dps=dps),
    "sturm_liouville_eig": lambda n=2, dps=None: sturm_liouville_eig(COSINE, n, dps=dps),
    "gap_record": lambda n=2, dps=None: gap_record(COSINE, n, dps=dps),
    "monodromy": lambda steps=None, dps=None: monodromy(COSINE, 4 * PI2, steps,
                                                        method="taylor", dps=dps),
}


@pytest.mark.parametrize("name", list(_INTEGER_ARGUMENTS))
def test_n_steps_and_dps_are_read_as_integers(name):
    # a float is refused, not rounded or run as given, where n = 2.5 once
    # returned the n = 3 pair, 16.5 steps a lambda_2^- between those of 16
    # and 17, and dps = 30.5 a solve reported as "mp30.5"; numpy integers pass
    solve = _INTEGER_ARGUMENTS[name]
    args = inspect.signature(solve).parameters
    for arg in args:
        error = floquet.PrecisionError if arg == "dps" else ValueError
        for value in (2.5, 30.0, "30"):
            with pytest.raises(error, match=f"{arg} must be an integer, got {value!r}"):
                solve(**{arg: value})
        given = {"n": 2, "steps": 17, "dps": 30}[arg]
        assert solve(**{arg: np.int64(given)}) == solve(**{arg: given})


def test_the_precision_range_starts_where_an_escalation_can_ask():
    # the floor is the first dps whose noise 1e-(dps - 3) is under the least
    # that _need asks, so auto's digit search starts there and never below
    floor = floquet._TAYLOR_NOISE / floquet._RESOLVE_MARGIN
    lo = floquet._DPS[0]
    assert lo == 19 and floquet._DPS[-1] == floquet._MAX_DPS
    assert ladder._mp_noise(lo) <= floor < ladder._mp_noise(lo - 1)
    floquet._path("auto", lo)


def test_a_tol_past_the_precision_range_raises_one_typed_error():
    # at tol = 1e-320 auto's digit search would need over 300 digits: one
    # PrecisionError that names the tol, where a traceback once named dps 327
    for solve in (periodic_eigs_info, gap_record):
        with pytest.raises(floquet.PrecisionError, match="tol = 1e-320 needs more than 300"):
            solve(COSINE, 3, tol=1e-320)
    assert issubclass(floquet.PrecisionError, ValueError)


def test_rk4_steps_under_the_minimum_raise_on_every_solve():
    # the 64-per-pi minimum at the solve's lambda holds for the pair as for
    # monodromy: 8 steps once returned lambda^- off by 1.98, reported resolved
    with pytest.raises(ValueError, match="steps = 8 under-resolves"):
        periodic_eigs(COSINE, 2, method="rk4", steps=8)
    with pytest.raises(ValueError, match="steps = 8 under-resolves"):
        monodromy(COSINE, 10.0, 8, method="rk4")
    # a pinned precision runs the ladder, where the RK4 minimum does not apply
    periodic_eigs(COSINE, 2, method="rk4", steps=8, dps=30)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_a_dirichlet_root_refuses_a_tol_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        sturm_liouville_eig(COSINE, 3, tol=tol)


def test_free_eigenvalues_both_integrators():
    for n in range(1, 13):
        for method in ("taylor", "rk4"):
            lm, lp = periodic_eigs(FREE, n, method=method)
            assert lm == lp
            assert abs(lm - n * n * PI2) <= 1e-9 * n * n * PI2


def test_mean_shift():
    q = make_fourier({}, mean=5.0, K=1)
    lm, lp = periodic_eigs(q, 2, method="taylor")
    assert lm == pytest.approx(4 * PI2 + 5.0, rel=1e-9)
    assert lm == lp


def test_free_boundary_eigenvalues():
    for n in range(1, 7):
        for alpha in (0.0, math.pi / 2):
            sigma = sturm_liouville_eig(FREE, n, alpha)
            assert sigma == pytest.approx(n * n * PI2, rel=1e-9)


def test_index_validation():
    with pytest.raises(ValueError):
        periodic_eigs(FREE, 0)
    with pytest.raises(ValueError):
        sturm_liouville_eig(FREE, 0)


def test_mathieu_first_pair_frozen():
    q = make_mathieu(1.0)
    lm, lp = periodic_eigs(q, 1, dps=45)
    assert lm.real == pytest.approx(9.366458121553913, rel=1e-12)
    assert lp.real == pytest.approx(10.366418022026322, rel=1e-12)
    assert lm.imag == 0.0 and lp.imag == 0.0


def test_mathieu_deep_gaps_frozen():
    # the returned pair is rounded to doubles, so once a gap falls near the
    # ulp of n^2 pi^2 the subtraction loses digits; the dip model keeps them
    frozen = {
        3: 4.009948292201571e-05,
        4: 5.6431406037943405e-08,
        5: 4.4669922667839324e-11,
    }
    q = make_mathieu(1.0)
    for n, gamma in frozen.items():
        lm, lp, info = periodic_eigs_info(q, n, dps=45)
        assert info["resolved"]
        assert info["gamma_floor"] < 1e-17
        assert _model_gamma(info) == pytest.approx(gamma, rel=1e-9)
    # pair subtraction still carries the leading digits of the widest one
    assert (lp - lm).real == pytest.approx(frozen[5], rel=1e-2)


def test_gamma_at_working_precision():
    # gamma_8 ~ 2.1e-21 sits under the ulp of 64 pi^2, so the rounded pair
    # coincides; info["gamma"] is taken before rounding
    q = make_mathieu(1.0)
    lm, lp, info = periodic_eigs_info(q, 8, tol=1e-26, dps=60)
    assert info["resolved"] and lp == lm
    assert info["gamma"] == pytest.approx(_model_gamma(info), rel=1e-6)
    assert info["gamma"].real > 0 and info["gamma"].imag == 0


def test_collapse_below_tolerance():
    # gamma_6 ~ 2.3e-14 sits under tol * n^2, so the pair is reported closed
    q = make_mathieu(1.0)
    lm, lp = periodic_eigs(q, 6, tol=1e-12, dps=45)
    assert lm == lp


def test_auto_escalation_policy():
    # n = 1 stays on the trace form; n = 3 escalates, and resolves in
    # doubles on the det form unless tol n^2 lies below that form's floor
    q = make_mathieu(1.0)
    _, _, info1 = periodic_eigs_info(q, 1)
    assert info1["method"] == "taylor" and info1["resolved"]
    _, _, info3 = periodic_eigs_info(q, 3)
    assert info3["escalated"] and info3["dps"] is None
    assert info3["method"] == "det" and info3["resolved"]
    _, _, info3 = periodic_eigs_info(q, 3, tol=1e-20)
    assert info3["dps"] and info3["method"] == f"mp{info3['dps']}" and info3["resolved"]


@pytest.mark.parametrize("q, n", [(WIDEBAND, 15), (WIDEBAND, 16), (COSINE, 3), (COSINE, 4),
                                  (COSINE, 5)],
                         ids=["wideband-15", "wideband-16", "cosine-3", "cosine-4", "cosine-5"])
def test_escalation_precision_meets_tol(q, n):
    # an escalated row puts its edges within tol n^2 / 10 of a 60-digit
    # solve: on the det form at the default tol, and at tol = 1e-20, below
    # that form's floor, on the ladder at the fewest digits that put its gap
    # within tol n^2 of the 60-digit one; the wideband rows need fewer than 30
    lm, lp, info = periodic_eigs_info(q, n)
    ref_lm, ref_lp, ref = _pair60(q, n)
    assert info["escalated"] and info["method"] == "det"
    assert max(abs(lm - ref_lm), abs(lp - ref_lp)) <= 1e-12 * n * n / 10
    _, _, info = periodic_eigs_info(q, n, tol=1e-20)
    assert info["escalated"] and info["method"] == f"mp{info['dps']}"
    assert abs(info["gamma"] - ref["gamma"]) <= 1e-20 * n * n
    if q is WIDEBAND:
        assert info["dps"] < 30


@pytest.mark.parametrize("q, n", [(COSINE, n) for n in range(3, 25)]
                         + [(WIDEBAND, 15), (WIDEBAND, 16)],
                         ids=[f"cosine-{n}" for n in range(3, 25)] + ["wideband-15", "wideband-16"])
def test_det_rung_resolves_escalated_rows_in_doubles(q, n):
    # every row that auto escalates at the default tol ends on the det form:
    # edges within tol n^2 / 10 and gamma within tol n^2 of a 60-digit
    # solve, with no ladder transport
    lm, lp, info = periodic_eigs_info(q, n)
    ref_lm, ref_lp, ref = _pair60(q, n)
    tol_lam = 1e-12 * n * n
    assert info["escalated"] and info["method"] == "det" and info["dps"] is None
    assert set(info["kernels"]) == {"taylor", "det"}
    assert max(abs(lm - ref_lm), abs(lp - ref_lp)) <= tol_lam / 10
    assert abs(info["gamma"] - ref["gamma"]) <= tol_lam


def test_det_floor_counts_the_critical_points_own_error():
    # gamma_22 is about 1e-60.  Read 1e-7 off the critical point, the det
    # form's rise |g''| (1e-7)^2 / 2 looks like a dip some 1e5 times its
    # roundoff model; the floor's |g''| err^2 / 2 term must keep it
    # unresolved, while at the critical point the floor meets what tol n^2
    # asks of it
    n, s = 22, 1.0
    lam = periodic_eigs_info(COSINE, n)[2]["critical"]
    trace = floquet._disc(COSINE, "taylor", None, n * n * PI2)
    rung = floquet._JetDisc(trace.jet, 1e-30, "det", trace.plan, form=floquet._gap_form(s))
    rung.cover(lam, 1e-7)
    dip, d2, floor = floquet._det_floor(rung, lam, s)
    assert abs(dip) < floquet._RESOLVE_MARGIN * floor
    assert floor <= floquet._need(dip, d2, floor, 1e-12 * n * n)
    dip, d2, floor = floquet._det_floor(rung, lam + 1e-7, s)
    assert abs(dip) >= abs(d2) * 1e-14 / 4
    assert abs(dip) < floquet._RESOLVE_MARGIN * floor
    assert rung.transports == 1


def test_escalation_precision_honours_a_small_tol():
    # gamma_8 ~ 2.06e-21 is 32 times tol n^2 at tol = 1e-24: auto must
    # escalate far enough to resolve it, not report the gap closed
    q = make_mathieu(1.0)
    _, _, ref = periodic_eigs_info(q, 8, tol=1e-26, dps=60)
    _, _, info = periodic_eigs_info(q, 8, tol=1e-24)
    assert info["escalated"] and info["resolved"]
    assert abs(info["gamma"] - ref["gamma"]) <= 1e-24 * 64
    with pytest.raises(ValueError, match="tol must be positive"):
        periodic_eigs_info(q, 8, tol=0.0)


def test_discriminant_at_gap_roots():
    q = make_mathieu(1.0)
    for n, target in ((1, -2.0), (2, 2.0)):
        lm, lp = periodic_eigs(q, n)
        assert discriminant(q, lm, method="taylor") == pytest.approx(target, abs=1e-8)
        assert discriminant(q, lp, method="taylor") == pytest.approx(target, abs=1e-8)


def test_gasymov_gap_closes():
    g = make_gasymov([1.0])
    lm, lp, info = periodic_eigs_info(g, 2)
    assert info["dps"] and info["method"] == f"mp{info['dps']}"
    assert not info["resolved"]
    assert abs(lp - lm) <= 1e-7


def test_scipy_mathieu_cross_check():
    special = pytest.importorskip("scipy.special")
    # -y'' + mu cos(2 pi x) y = lam y maps onto the Mathieu standard form
    # with parameter mu / (2 pi^2) and eigenvalues lam / pi^2
    q = make_mathieu(1.0)
    par = 1.0 / (2 * PI2)
    for n in range(1, 5):
        lm, lp = periodic_eigs(q, n)
        assert lm.real == pytest.approx(PI2 * special.mathieu_b(n, par), rel=1e-9)
        assert lp.real == pytest.approx(PI2 * special.mathieu_a(n, par), rel=1e-9)


def test_conjugation_covariance():
    q = make_fourier({1: 0.3 + 0.4j, -1: 0.1 - 0.2j, 2: 0.05j, -2: -0.02 + 0j})
    qs = make_fourier({1: 0.1 + 0.2j, -1: 0.3 - 0.4j, 2: -0.02 + 0j, -2: -0.05j})
    lam = 3.0 + 0.7j
    left = discriminant(qs, lam.conjugate(), method="taylor")
    right = discriminant(q, lam, method="taylor").conjugate()
    assert left == pytest.approx(right, abs=1e-12)


def test_gap_record_consistency():
    q = make_mathieu(0.5)
    for n in (1, 2):
        rec = gap_record(q, n)
        _, _, info = periodic_eigs_info(q, n)
        # gamma is the difference taken before rounding; it agrees with the
        # difference of the rounded endpoints to a few ulps of n^2 pi^2
        assert rec.gamma == info["gamma"]
        assert abs(rec.gamma - (rec.lam_plus - rec.lam_minus)) <= (
            4 * math.ulp(n * n * math.pi ** 2))
        assert rec.tau == (rec.lam_plus + rec.lam_minus) / 2
        assert rec.delta == rec.sigma - rec.tau
        assert rec.triangle == abs(rec.gamma) + abs(rec.delta)
        # real potential: the Dirichlet eigenvalue sits inside the closed gap
        assert rec.lam_minus.real - 1e-9 <= rec.sigma.real <= rec.lam_plus.real + 1e-9
        assert abs(rec.sigma.imag) < 1e-9


def test_gap_record_keeps_gaps_below_double_spacing():
    # at n = 7 the gap, 7.96e-18, is far below the spacing of doubles near
    # 49 pi^2 (5.7e-14): both endpoints round to the same double.  For an
    # even potential the Dirichlet eigenvalue is a gap edge, so |delta| is
    # gamma / 2, which needs sigma - tau taken before rounding
    for n, gamma in ((6, 2.263e-14), (7, 7.96e-18), (8, 2.058e-21)):
        rec = gap_record(make_mathieu(1.0), n, tol=1e-26, method="mp", dps=60)
        if n > 6:
            assert rec.lam_plus == rec.lam_minus
        assert rec.gamma.real == pytest.approx(gamma, rel=1e-2, abs=0)
        assert abs(rec.delta) == pytest.approx(abs(rec.gamma) / 2, rel=1e-3, abs=0)
        assert rec.triangle == abs(rec.gamma) + abs(rec.delta)


@pytest.mark.parametrize("n", range(5, 9))
def test_auto_gap_record_takes_sigma_at_the_pair_precision(n):
    # these pairs escalate; a double Dirichlet root would put |delta| at its
    # own error, about 1e-13 / |f'|, far above the true |delta| (1e-21 at n = 8)
    q = make_mathieu(1.0)
    rec = gap_record(q, n)
    ref = gap_record(q, n, tol=1e-26, method="mp", dps=60)
    assert abs(rec.delta) == pytest.approx(abs(ref.delta), rel=1e-2, abs=0)


def test_gap_record_takes_sigma_and_tau_at_the_pinned_precision():
    # "taylor" with dps = 60 runs the same solves as "mp"; a double pair
    # against a 60-digit sigma put delta at -4.7e-14 here, not -1.13e-14
    q = make_mathieu(1.0)
    ref = gap_record(q, 6, tol=1e-26, method="mp", dps=60)
    assert gap_record(q, 6, tol=1e-26, method="taylor", dps=60).delta == ref.delta


def test_auto_gap_record_forms_delta_at_the_pair_precision():
    # at tol = 1e-48 the n = 12 pair escalates past the 45 digits a pinned
    # "mp" run defaults to; tau, and with it delta = sigma - tau, must be
    # formed at the digits the pair finished at, as a record pinned there is
    q = make_mathieu(1.0)
    dps = floquet._solve_pair(q, 12, 1e-48, "auto", None, None, det=False)[2]["dps"]
    assert dps > floquet._DEFAULT_DPS
    rec = gap_record(q, 12, tol=1e-48)
    ref = gap_record(q, 12, tol=1e-48, dps=dps)
    assert rec.delta == pytest.approx(ref.delta, rel=1e-12, abs=0)
