"""Reduced 2x2 block: resolvent solves, adapted coefficients, the map Phi."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from hillgap import blockdecomp
from hillgap.blockdecomp import (
    NU_CAP,
    ContractionError,
    DomainError,
    SolveInfo,
    adapted_defaults,
    adapted_map,
    alpha_fixed_point,
    apply_Tn,
    c_series_terms,
    coeff_an_cn,
    gap_block,
    invert_adapted_map,
    n_gap_approximant,
    resolve_hat_Tn,
    _support_cut,
)
from hillgap.floquet import periodic_eigs
from hillgap.seqspace import (
    FourierPotential,
    ParityVector,
    make_fourier,
    make_gasymov,
    make_mathieu,
    make_random,
    multiply_by_potential,
    truncate,
    unit_vector,
    wnorm,
    zero_vector,
)
from hillgap.weights import gevrey, polynomial, trivial

PI2 = math.pi ** 2

FREE = make_fourier({}, K=1)


def _wdiff(q1, q2, w):
    total = abs(complex(q1.mean) - complex(q2.mean)) ** 2
    for n in range(1, max(q1.K, q2.K) + 1):
        for s in (n, -n):
            total += (w(s) * abs(q1.coeff(s) - q2.coeff(s))) ** 2
    return math.sqrt(total)


def test_apply_Tn_ladder():
    # potential mode k shifts a lattice mode by 2k; the resonant pair is
    # zeroed before the division, everything else is divided by lam - m^2 pi^2
    q = make_mathieu(2.0)
    lam = 4 * PI2 + 0.3
    out = apply_Tn(q, 2, lam, unit_vector(4, 10))
    assert out.coeff(2) == pytest.approx(1.0 / (lam - 16 * PI2), rel=1e-14)
    assert out.coeff(6) == pytest.approx(1.0 / (lam - 16 * PI2), rel=1e-14)
    assert out.coeff(4) == 0.0
    assert out.coeff(-2) == 0.0
    resonant = apply_Tn(q, 2, lam, unit_vector(2, 10))
    assert np.all(resonant.data == 0)
    mirrored = apply_Tn(q, 2, lam, unit_vector(-2, 10))
    assert np.all(mirrored.data == 0)


@pytest.mark.parametrize("mcut", [3, 11], ids=["short_of_n", "reaching_n"])
def test_apply_Tn_divides_mode_by_mode(mcut):
    # the quotient formed one mode at a time: f_m / (lam - m^2 pi^2), the
    # pair +-n zeroed only where the window holds it
    q = make_random(polynomial(2.0), seed=3, K=3, real=False)
    n, lam = 5, 25 * PI2 + 0.4 - 0.2j
    rng = np.random.default_rng(7)
    f = ParityVector(1, mcut, rng.standard_normal(mcut + 1) + 1j * rng.standard_normal(mcut + 1))
    quotient = [0j if abs(m) == n else z / (lam - int(m) ** 2 * PI2)
                for m, z in zip(f.modes(), f.data)]
    out = apply_Tn(q, n, lam, f)
    ref = multiply_by_potential(q, ParityVector(1, mcut, np.array(quotient)))
    assert out.mcut == ref.mcut == mcut + 2 * q.K
    np.testing.assert_allclose(out.data, ref.data, rtol=1e-14, atol=1e-17)
    # whatever f holds at +-n leaves no trace
    g = f.data.copy()
    if n <= mcut:
        g[[f.index(n), f.index(-n)]] = 1e6
    assert np.array_equal(apply_Tn(q, n, lam, ParityVector(1, mcut, g)).data, out.data)


def test_apply_Tn_singular_guard(monkeypatch):
    # the nearest off-resonant modes |n - 2| and n + 2 lie outside the strip,
    # so the guard only trips once the strip is widened past them; at n = 1
    # mode |n - 2| = 1 is resonant and exact resonance passes
    q = make_mathieu(1.0)
    apply_Tn(q, 1, PI2, unit_vector(1, 5))
    monkeypatch.setattr(blockdecomp, "STRIP_HALF_WIDTH", 1e3)
    apply_Tn(q, 1, PI2, unit_vector(1, 5))
    for n, m in ((1, 3), (2, 0), (2, 4), (5, 3), (5, 7)):
        with pytest.raises(DomainError, match="near-singular"):
            apply_Tn(q, n, m * m * PI2, unit_vector(n, n + 4))


def test_apply_Tn_guards():
    q = make_mathieu(1.0)
    with pytest.raises(DomainError):
        apply_Tn(make_fourier({1: 0.5, -1: 0.5}, mean=1.0), 2, 4 * PI2, unit_vector(4, 8))
    with pytest.raises(DomainError):
        apply_Tn(q, 2, 4 * PI2, unit_vector(3, 8))  # wrong parity
    with pytest.raises(DomainError):
        apply_Tn(q, 2, 4 * PI2 + 100.0, unit_vector(4, 8))  # outside the strip
    with pytest.raises(DomainError):
        apply_Tn(q, 0, 0.0, unit_vector(0, 8))


def test_operator_norm_envelope():
    q = make_mathieu(1.0)
    n, lam = 5, 25 * PI2 + 0.2
    bound = 2.0 * q.l2() / n
    for mode in (7, 9, -3, -11):
        f = unit_vector(mode, abs(mode))
        assert apply_Tn(q, n, lam, f).l2() <= bound * f.l2()


def test_resolve_contract():
    q = make_mathieu(1.0)
    n, lam = 4, 16 * PI2 + 0.1
    rhs = multiply_by_potential(q, unit_vector(4, 4))
    g, info = resolve_hat_Tn(q, n, lam, rhs)
    # T_n g is 2K wider than g: the residual is taken on its window
    tg = apply_Tn(q, n, lam, g)
    residual = np.linalg.norm(
        g.resized(tg.mcut).data - tg.data - rhs.resized(tg.mcut).data)
    assert residual <= 1e-12 * rhs.l2()
    assert info.resid == pytest.approx(residual, rel=1e-6)
    assert info.rate <= 2.0 * q.l2() / n
    assert info.iters >= 2
    # one 2K widening per round, from the support of rhs
    assert g.mcut == _support_cut(rhs) + 2 * q.K * info.iters


def test_resolve_refuses_without_margin():
    q = make_mathieu(4.0)  # ||q|| = 2 sqrt(2)
    rhs = multiply_by_potential(q, unit_vector(5, 5))
    with pytest.raises(ContractionError):
        resolve_hat_Tn(q, 5, 25 * PI2, rhs)


def test_resolve_guards_precede_the_zero_shortcut():
    # a zero rhs returns at once, but only inside the domain of T_n: outside
    # the strip or at the wrong parity it is refused like any other rhs
    q = make_mathieu(1.0).without_mean()
    outside = 16 * PI2 + 500.0
    for rhs in (zero_vector(0, 40), unit_vector(4, 40)):
        with pytest.raises(DomainError):
            resolve_hat_Tn(q, 4, outside, rhs)
    for rhs in (zero_vector(1, 41), unit_vector(3, 41)):
        with pytest.raises(DomainError):
            resolve_hat_Tn(q, 4, 16 * PI2, rhs)
    g, info = resolve_hat_Tn(q, 4, 16 * PI2 + 0.1, zero_vector(0, 40))
    assert info == SolveInfo(0, 0.0, 0.0)
    assert g.parity == 0 and not g.data.any()


def test_c_series_terms_mathieu():
    # every multiplication moves the mode by +-2, so reaching -n from n
    # takes n steps: the first n - 1 series terms vanish identically
    q = make_mathieu(1.0)
    lam = 9 * PI2 + 0.2
    terms = c_series_terms(q, 3, lam, 6)
    assert terms[0] == 0.0 and terms[1] == 0.0
    # the single shortest path 3 -> 1 -> -1 -> -3 with two inner divisions
    assert terms[2] == pytest.approx(0.125 / (lam - PI2) ** 2, rel=1e-12)
    _, c_plus, _ = coeff_an_cn(q, 3, lam)
    assert sum(terms) == pytest.approx(c_plus, rel=1e-10)
    with pytest.raises(DomainError):
        c_series_terms(q, 3, lam, -1)


def test_gasymov_entries_exactly_zero():
    # one-sided potentials only climb the ladder: nothing returns to mode n
    g = make_gasymov([1.0])
    lam = 9 * PI2 + 0.1
    a_n, c_plus, c_minus = coeff_an_cn(g, 3, lam)
    assert a_n == 0.0
    assert c_plus == 0.0
    assert c_minus == pytest.approx(1.0 / (lam - PI2) ** 2, rel=1e-12)


def test_alpha_fixed_point():
    # a_n vanishes identically for one-sided potentials, so alpha_n = sigma_n
    assert alpha_fixed_point(make_gasymov([1.0, 0.5]), 4) == pytest.approx(
        16 * PI2, rel=1e-15)
    q = make_mathieu(1.0)
    alpha = alpha_fixed_point(q, 2)
    assert abs(alpha.imag) < 1e-12
    assert abs(alpha - 4 * PI2) < 1.0
    shifted = alpha_fixed_point(make_fourier({1: 0.5, -1: 0.5}, mean=2.0), 2)
    assert shifted == pytest.approx(alpha + 2.0, rel=1e-12)


def test_gap_block_free_and_gasymov():
    b = gap_block(FREE, 1)
    assert b.xi_minus == b.xi_plus == b.alpha_n == PI2
    assert b.gamma_n == 0.0
    assert b.diagnostics.collapsed
    g = gap_block(make_gasymov([1.0]), 3)
    assert g.diagnostics.collapsed
    assert g.gamma_n == 0.0
    assert g.p_minus == 0.0
    assert g.p_plus == pytest.approx(1.0 / (8 * PI2) ** 2, rel=1e-10)


def test_gap_block_matches_oracle():
    q = make_mathieu(0.5)
    lm, lp = periodic_eigs(q, 2)
    b = gap_block(q, 2)
    assert abs(b.xi_minus - lm) < 1e-9
    assert abs(b.xi_plus - lp) < 1e-9
    assert b.gamma_n == pytest.approx(lp - lm, rel=1e-6)


def test_real_potential_symmetry():
    q = make_mathieu(1.0)
    for n in (2, 3, 4, 5):
        b = gap_block(q, n)
        assert abs(b.p_minus - b.p_plus.conjugate()) < 1e-10
        assert abs(b.gamma_n.imag) < 1e-10
        assert abs(b.xi_minus.imag) < 1e-10
        # real case: the gap length is twice the adapted coefficient modulus
        # to first order, and the skew ratio stays pinned near 4
        ratio = abs(b.gamma_n) ** 2 / abs(b.p_plus * b.p_minus)
        assert 1.0 < ratio < 9.0
        assert ratio == pytest.approx(4.0, rel=0.01)


@pytest.mark.parametrize("q", [make_mathieu(1.0), make_random(gevrey(0, 1, 0.5), seed=202, K=16)],
                         ids=["cosine", "gevrey_K16_real"])
def test_real_potential_reads_the_reduced_matrix_off_one_solve(q):
    # real q at real lam: the e_n solve gives a real a_n and c_-n = conj(c_n)
    # bit for bit, with no -0 cell; the e_-n solve that a complex q needs
    # agrees within the solver tolerance
    n, lam = 6, complex(36 * PI2 + 0.3)
    a_n, c_plus, c_minus = coeff_an_cn(q, n, lam)
    assert a_n.imag == 0 and c_minus == c_plus.conjugate()
    assert not (c_minus.imag == 0 and math.copysign(1.0, c_minus.imag) < 0)
    rhs = multiply_by_potential(q, unit_vector(-n, n))
    g, _ = resolve_hat_Tn(q, n, lam, rhs)
    assert abs(g.coeff(n) - c_minus) <= 1e-11 * rhs.l2()
    assert abs(g.coeff(-n) - a_n) <= 1e-11 * rhs.l2()
    one = blockdecomp._reduced_entries(q, n, lam, 1e-12)[3]
    two = blockdecomp._reduced_entries(q, n, lam + 1e-9j, 1e-12)[3]
    assert 0 < one.iters < two.iters


@pytest.mark.parametrize("q, ns", [
    (make_mathieu(1.0), range(3, 6)),
    (make_random(gevrey(0, 1, 0.5), seed=202, K=16), range(2, 9)),
    (make_random(gevrey(0, 1, 0.5), seed=202, K=16, real=False), range(2, 9)),
], ids=["cosine", "gevrey_K16_real", "gevrey_K16_complex"])
def test_gap_roots_zero_the_reduced_factors(q, ns):
    # each root is a fixed point of lam <- sigma_n + a_n(lam) + s phi_n(lam),
    # one for s = +1 and one for s = -1, with phi_n on one continuous branch
    tol = 1e-12
    q0 = q.without_mean()
    mean = complex(q.mean)
    for n in ns:
        b = gap_block(q, n, tol)
        assert not b.diagnostics.collapsed
        signs = []
        phi_ref = None
        for xi in (b.xi_minus - mean, b.xi_plus - mean):
            a_n, c_plus, c_minus = coeff_an_cn(q0, n, xi, tol)
            phi = cmath.sqrt(c_plus * c_minus)
            if phi_ref is not None and abs(phi - phi_ref) > abs(phi + phi_ref):
                phi = -phi
            phi_ref = phi
            factors = {s: abs(xi - n * n * PI2 - a_n - s * phi) for s in (1, -1)}
            s = min(factors, key=factors.get)
            assert factors[s] <= tol * n * n, (n, factors)
            signs.append(s)
        assert sorted(signs) == [-1, 1], n


def test_block_mean_shift():
    base = gap_block(make_mathieu(1.0), 3)
    shifted = gap_block(make_fourier({1: 0.5, -1: 0.5}, mean=1.5), 3)
    assert shifted.alpha_n == pytest.approx(base.alpha_n + 1.5, rel=1e-12)
    assert shifted.xi_minus == pytest.approx(base.xi_minus + 1.5, rel=1e-12)
    assert shifted.gamma_n == pytest.approx(base.gamma_n, rel=1e-9)


def test_adapted_map_zero_and_low_modes():
    p = adapted_map(FREE)
    assert p.l2() == 0.0 and p.mean == 0
    q = make_random(polynomial(2), seed=11, K=12)
    p = adapted_map(q)
    for n in range(1, 8):
        for s in (n, -n):
            assert p.coeff(s) == q.coeff(s)
    assert p.mean == q.mean
    assert _wdiff(p, q, trivial()) < 0.2 * q.l2()
    assert _wdiff(p, q, trivial()) > 0.0


def test_adapted_map_guards_and_diagnostics():
    with pytest.raises(ContractionError):
        adapted_map(make_mathieu(2.0), m=1)
    with pytest.raises(DomainError):
        adapted_map(make_mathieu(0.5), m=2, M_thresh=2)
    diag = {}
    p = adapted_map(make_mathieu(0.5), K_out=17, diagnostics=diag)
    assert p.K == 17
    assert sorted(diag) == list(range(8, 18))
    for info in diag.values():
        assert info.resid <= 1e-11
        assert 0.0 <= info.rate < 1.0
    # for a sparse potential the whole band sits below the solve tolerance
    # and computes to exact zero; a full-support potential populates it
    assert all(p.coeff(k) == 0.0 for k in range(8, 18))
    p2 = adapted_map(make_random(polynomial(2), seed=11, K=12), K_out=14)
    assert p2.K == 14
    assert p2.coeff(9) != 0.0
    assert p2.coeff(13) != 0.0


def test_adapted_defaults_fill_only_what_is_missing():
    # ||q|| = 1 / sqrt(2) for the unit cosine: m = ceil(2.83) = 3, the
    # threshold is the floor 8, and the window reaches 8 + 7
    q = make_mathieu(1.0)
    assert adapted_defaults(q) == (3, 8, 15)
    assert adapted_defaults(q, 9) == (9, 10, 17)
    assert adapted_defaults(q, 5, 12, 40) == (5, 12, 40)
    wide = make_random(polynomial(2), seed=11, K=40)
    assert adapted_defaults(wide)[2] == 40


def test_deep_ladder_needs_tight_tolerance():
    # the l2 break criterion stops the Neumann rounds long before the mode
    # ladder of a sparse potential reaches +-n; shrinking tol buys the extra
    # rounds and the entries come out as clean single-path products
    q = make_mathieu(1.0)
    alpha = alpha_fixed_point(q, 8)
    _, c_plus, c_minus = coeff_an_cn(q, 8, alpha)
    assert c_plus == 0.0 and c_minus == 0.0
    _, c_plus, c_minus = coeff_an_cn(q, 8, alpha, tol=1e-30)
    ladder = 0.5 ** 8
    for m in range(-6, 7, 2):
        ladder /= (alpha - m * m * PI2).real
    assert abs(c_minus) == pytest.approx(ladder, rel=1e-3)
    assert c_plus == pytest.approx(c_minus, rel=1e-10)
    # oracle gap against the adapted product: the skew ratio is pinned at 4
    gamma8 = 2.0578328623923165e-21
    assert gamma8 ** 2 / abs(c_plus * c_minus) == pytest.approx(4.0, rel=1e-3)


def test_round_trip_and_norm_equivalence():
    for q in (make_mathieu(0.5), make_random(polynomial(2), seed=3, K=12)):
        p = adapted_map(q)
        result = invert_adapted_map(p)
        assert result.rate <= 0.2
        assert _wdiff(result.q, q, trivial()) <= 1e-10
        for w in (trivial(), gevrey(0, 1, 0.5)):
            assert 0.5 * wnorm(q, w) <= wnorm(p, w) <= 2.0 * wnorm(q, w)


def test_n_gap_approximant():
    q = make_random(polynomial(2), seed=7, K=12)
    with pytest.raises(DomainError):
        n_gap_approximant(q, 5)
    qN = n_gap_approximant(q, 9)
    assert _wdiff(qN, q, trivial()) < 0.5 * q.l2()
    # defining property: the adapted coefficients above N are gone
    p2 = adapted_map(qN, K_out=15)
    for k in range(10, 16):
        assert abs(p2.coeff(k)) <= 1e-9
        assert abs(p2.coeff(-k)) <= 1e-9
    for k in (10, 11, 12):
        assert abs(gap_block(qN, k).gamma_n) <= 1e-9


def test_n_gap_approximant_of_a_real_potential_is_real():
    # reality is read off the coefficients, however the potential was made:
    # at tol 1e-25 the inverse map takes one round on Mathieu mu = 3, and the
    # modes it returns stay exactly conjugate-symmetric
    q = n_gap_approximant(make_mathieu(3.0), 10, tol=1e-25)
    assert q.is_real and np.array_equal(q.data, np.conj(q.data[::-1]))
    # the map reads c_-n = conj(c_n) off one solve, so a real potential with
    # modes of both signs and uneven phases stays exactly real as well
    assert n_gap_approximant(make_fourier({1: 0.3, -1: 0.3, 2: 0.1, -2: 0.1}), 8).is_real
    for seed in range(6):
        assert n_gap_approximant(make_random(polynomial(3), seed, K=3), 8).is_real, seed


def test_truncate_respects_threshold():
    q = make_random(polynomial(2), seed=7, K=12)
    p = adapted_map(q)
    # sanity for the approximant plumbing: truncation keeps the low block
    t = truncate(p, 9)
    for n in range(1, 10):
        assert t.coeff(n) == p.coeff(n)
    assert t.coeff(10) == 0.0


# The Neumann loop as it ran before the window grew with the iterate: every
# round on the full window of rhs.  Reference for the growing-window solver;
# rhs must come padded to a window no round outgrows, so that cropping each
# product back to it drops only zeros.
def _full_window_resolve(q, n, lam, rhs, tol=1e-12):
    rhs_norm = rhs.l2()
    g = rhs
    for it in range(1, 129):
        tg = _cropped(apply_Tn(q, n, lam, g), rhs.mcut)
        g_new = ParityVector(g.parity, g.mcut, rhs.data + tg.data)
        d = float(np.linalg.norm(g_new.data - g.data))
        g = g_new
        if d <= tol * rhs_norm:
            break
    tg = _cropped(apply_Tn(q, n, lam, g), rhs.mcut)
    resid = float(np.linalg.norm(g.data - tg.data - rhs.data))
    return g, it, resid


def _cropped(f, mcut):
    """f on the window mcut, which must hold every nonzero entry of f."""
    assert _support_cut(f) <= mcut
    return f.resized(mcut)


def _padded(q, rhs):
    """rhs on the widest window NU_CAP rounds can reach from it."""
    return rhs.resized(rhs.mcut + 2 * q.K * (NU_CAP + 1))


WIDE = make_random(gevrey(0, 1, 0.5), seed=5, K=64, real=False)


@pytest.mark.parametrize("q, n", [(WIDE, 8), (make_mathieu(1.0), 4)],
                         ids=["gevrey_K64", "mathieu"])
def test_growing_window_matches_full_window(q, n):
    lam = n * n * PI2 + 0.3 + 0.1j
    for s in (n, -n):
        rhs = _padded(q, multiply_by_potential(q, unit_vector(s, n)))
        ref, ref_iters, ref_resid = _full_window_resolve(q, n, lam, rhs)
        g, info = resolve_hat_Tn(q, n, lam, rhs)
        assert g.mcut < rhs.mcut
        # the far edge of the iterate is summed in another order by the
        # shorter convolutions; the resonant entries are interior and exact
        assert np.max(np.abs(g.resized(ref.mcut).data - ref.data)) <= 1e-15 * ref.l2()
        assert (g.coeff(n), g.coeff(-n)) == (ref.coeff(n), ref.coeff(-n))
        assert info.iters == ref_iters
        assert info.resid == pytest.approx(ref_resid, rel=1e-6, abs=1e-15 * ref.l2())
    # the reduced entries, built from columns convolved on their support only
    h, _, _ = _full_window_resolve(
        q, n, lam, _padded(q, multiply_by_potential(q, unit_vector(n, n))))
    g, _, _ = _full_window_resolve(
        q, n, lam, _padded(q, multiply_by_potential(q, unit_vector(-n, n))))
    assert coeff_an_cn(q, n, lam) == (h.coeff(n), h.coeff(-n), g.coeff(n))


def test_growing_window_work(monkeypatch):
    # every convolution runs on its input's support, with no padding, and
    # the whole reduced-entry solve costs a small part of rounds on the
    # widest window NU_CAP allows
    q, n = WIDE, 8
    widest = _support_cut(blockdecomp._column(q, n)) + 2 * q.K * (NU_CAP + 1)
    calls = []
    spied = blockdecomp.multiply_by_potential

    def spy(q_, f):
        calls.append((f.mcut, _support_cut(f), len(q_.data) * len(f.data)))
        return spied(q_, f)

    monkeypatch.setattr(blockdecomp, "multiply_by_potential", spy)
    blockdecomp._reduced_entries(q, n, n * n * PI2 + 0.3, 1e-12)
    assert len(calls) >= 6
    for mcut, support, _ in calls:
        assert mcut == support
    full = len(calls) * len(q.data) * (widest + 1)
    assert sum(madds for _, _, madds in calls) <= full / 4


def test_reduced_entries_allocate_under_a_megabyte():
    # nothing is allocated ahead of the iterate: the entries of WIDE at
    # n = 8 peak under 1 MB of traced heap
    tracemalloc.start()
    try:
        coeff_an_cn(WIDE, 8, 64 * PI2 + 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
