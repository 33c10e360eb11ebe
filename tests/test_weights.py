"""Weight families: pointwise values, submultiplicativity, growth, psi."""

import math

import pytest

from hillgap.weights import (
    EXPONENTIAL,
    STRICTLY_SUBEXPONENTIAL,
    SUPEREXPONENTIAL,
    UNDETERMINED,
    CertificateError,
    TableDomainError,
    check_submultiplicative,
    classify_growth,
    exponential,
    gevrey,
    log_tempered,
    polynomial,
    psi,
    psi_continuous,
    superexp,
    table_weight,
    temper,
    trivial,
)


def test_pointwise_values():
    assert trivial()(100) == 1.0
    # log-domain evaluation: closed forms hold to roundoff, not bit-exactly
    assert polynomial(2)(3) == pytest.approx(16.0, rel=1e-14)
    assert polynomial(2)(-3) == pytest.approx(16.0, rel=1e-14)
    assert gevrey(0, 1, 0.5)(4) == pytest.approx(math.e ** 2, rel=1e-14)
    assert exponential(1, 0.5)(2) == pytest.approx(3 * math.e, rel=1e-14)
    assert log_tempered(0, 1, 1)(1) == pytest.approx(
        math.exp(1.0 / (1.0 + math.log(2.0))), rel=1e-14)
    assert superexp(2)(3) == pytest.approx(math.e ** 9, rel=1e-12)


def test_normalization_and_symmetry():
    ws = [trivial(), polynomial(3), exponential(2, 0.7), gevrey(1, 2, 0.3),
          log_tempered(0, 1, 2), superexp(1.5), temper(superexp(2), 0.1)]
    for w in ws:
        assert w(0) == 1.0
        for n in (1, 2, 7, 31, 1.5, 10.5):
            assert w(n) == w(-n)
            assert w(n) >= 1.0


def test_half_integer_domain():
    w = gevrey(0, 1, 0.5)
    assert w(1.5) == pytest.approx(math.exp(1.5 ** 0.5), rel=1e-14)
    with pytest.raises(ValueError):
        w(1.3)


def test_overflow_signals_inf():
    w = superexp(2)
    assert w(100) == math.inf
    # the log stays exact where the value overflows
    assert w.log_value(100) == 10000.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        gevrey(0, 1, 1.0)
    with pytest.raises(ValueError):
        superexp(1.0)
    with pytest.raises(ValueError):
        polynomial(-1)
    with pytest.raises(ValueError):
        temper(trivial(), 0.0)


def test_table_weight_lookup():
    w = table_weight({0: 1.0, 1: 2.0, 1.5: 2.5, 2: 4.0})
    assert w(1) == pytest.approx(2.0)
    assert w(-1.5) == pytest.approx(2.5)
    with pytest.raises(TableDomainError):
        w(3)
    with pytest.raises(ValueError):
        table_weight({0: 0.5})


def test_submultiplicative_families():
    for w in (trivial(), polynomial(2), polynomial(5), exponential(1, 1),
              gevrey(0, 1, 0.5), gevrey(2, 1.5, 0.8), log_tempered(0, 1, 1)):
        assert check_submultiplicative(w, 64).ok


def test_polynomial_submultiplicative_wide():
    assert check_submultiplicative(polynomial(2), 200).ok


def test_superexp_violates():
    res = check_submultiplicative(superexp(2), 50)
    assert not res.ok
    n, m = res.violation
    w = superexp(2)
    assert w.log_value(n + m) > w.log_value(n) + w.log_value(m)


def test_temper_is_pointwise_min():
    w = gevrey(0, 1, 0.5)
    v = temper(w, 0.1)
    for n in range(0, 60):
        assert v.log_value(n) == pytest.approx(
            min(0.1 * n, w.log_value(n)), abs=1e-15)


def test_temper_exponential_is_envelope():
    # for an exponential weight with rate >= eps the minimum is the envelope
    v = temper(exponential(0, 1.0), 0.1)
    for n in range(0, 40):
        assert v.log_value(n) == pytest.approx(0.1 * n, abs=1e-15)


def test_temper_trivial_stays_trivial():
    v = temper(trivial(), 0.3)
    for n in range(0, 20):
        assert v(n) == 1.0


def test_tempering_preserves_submultiplicativity():
    for w in (gevrey(0, 1, 0.5), log_tempered(0, 1, 1)):
        for eps in (0.2, 0.1, 0.05):
            assert check_submultiplicative(temper(w, eps), 200).ok
    assert check_submultiplicative(temper(gevrey(0, 1, 0.5), 0.01), 200).ok


def test_temper_caps_superexp():
    assert check_submultiplicative(temper(superexp(2), 0.2), 64).ok


def _crossover(w, eps, limit=500):
    for n in range(1, limit + 1):
        if eps * n >= w.log_value(n):
            return n
    return None


def test_crossover_indices():
    # the exponential envelope rules an initial segment, the weight beyond
    assert _crossover(gevrey(0, 1, 0.5), 0.2) == 25
    assert _crossover(gevrey(0, 1, 0.5), 0.05) == 400
    assert _crossover(log_tempered(0, 1, 1), 0.2) == 54


def test_classify_parametric():
    assert classify_growth(trivial()) == STRICTLY_SUBEXPONENTIAL
    assert classify_growth(polynomial(5)) == STRICTLY_SUBEXPONENTIAL
    assert classify_growth(gevrey(0, 1, 0.5)) == STRICTLY_SUBEXPONENTIAL
    assert classify_growth(log_tempered(0, 1, 1)) == STRICTLY_SUBEXPONENTIAL
    assert classify_growth(exponential(0, 1)) == EXPONENTIAL
    assert classify_growth(exponential(2, 0)) == STRICTLY_SUBEXPONENTIAL
    assert classify_growth(superexp(2)) == SUPEREXPONENTIAL


def test_classify_tempered():
    assert classify_growth(temper(superexp(2), 0.2)) == EXPONENTIAL
    assert classify_growth(temper(gevrey(0, 1, 0.5), 0.2)) == STRICTLY_SUBEXPONENTIAL


def test_classify_table_numeric():
    # sampled tables exercise the finite-window heuristic
    poly = table_weight({n: (1.0 + n) ** 4 for n in range(0, 65)})
    assert classify_growth(poly) == STRICTLY_SUBEXPONENTIAL
    expo = table_weight({n: math.exp(1.0 * n) for n in range(0, 65)})
    assert classify_growth(expo) == EXPONENTIAL
    fast = table_weight({n: math.exp(n ** 1.2) for n in range(0, 65)})
    assert classify_growth(fast) == SUPEREXPONENTIAL


def test_classify_table_samples_its_own_run():
    # the window is the run n = 1..N the table stores, N <= 64: 40 entries
    # classify, a run under 16 or a run broken at n = 5 gets no verdict, and
    # none of them is read off its grid
    assert classify_growth(table_weight({n: math.exp(n ** 1.2) for n in range(41)})) \
        == SUPEREXPONENTIAL
    assert classify_growth(table_weight({n: 1.0 + n for n in range(7)})) == UNDETERMINED
    broken = table_weight({n: 1.0 + n for n in range(65) if n != 5})
    assert classify_growth(broken) == UNDETERMINED
    assert classify_growth(temper(broken, 0.1)) == UNDETERMINED


def test_psi_examples():
    assert psi(superexp(2), math.e ** 4) == pytest.approx(4.0, rel=1e-14)
    assert psi(superexp(2), 1.0) == pytest.approx(1.0, rel=1e-14)
    # minimum at m = 2: (8 + 2^3)/2
    assert psi(superexp(3), math.e ** 8) == pytest.approx(8.0, rel=1e-14)


def test_psi_matches_brute_force():
    for sigma in (1.5, 2.0, 3.0):
        w = superexp(sigma)
        for r in (1.0, math.e, math.e ** 4, math.e ** 8, 1e6):
            brute = min((math.log(r) + w.log_value(m)) / m
                        for m in range(1, 65))
            assert psi(w, r) == pytest.approx(brute, rel=1e-14)


def test_psi_monotone_in_r():
    w = superexp(2)
    values = [psi(w, r) for r in (1.0, 2.0, 10.0, 1e3, 1e6, 1e9)]
    assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))


def test_psi_against_continuous_relaxation():
    for sigma in (1.5, 2.0, 3.0):
        w = superexp(sigma)
        for r in (math.e, math.e ** 4, math.e ** 8, 1e5):
            disc = psi(w, r)
            cont = psi_continuous(sigma, r)
            assert disc >= cont - 1e-12
            # slack bounded by the candidate at the rounded real minimizer
            logr = math.log(r)
            m_c = (logr / (sigma - 1.0)) ** (1.0 / sigma)
            upper = min((logr + m ** sigma) / m
                        for m in {max(1, math.floor(m_c)),
                                  max(1, math.ceil(m_c))})
            assert disc <= upper + 1e-12


def test_psi_continuous_constant():
    # c_2 = 2 and c_3 = 3 / 2^(2/3)
    assert psi_continuous(2, math.e ** 4) == pytest.approx(4.0, rel=1e-14)
    assert psi_continuous(3, math.e ** 8) == pytest.approx(
        3.0 / 2.0 ** (2.0 / 3.0) * 4.0, rel=1e-14)


def test_psi_domain_errors():
    with pytest.raises(ValueError):
        psi(superexp(2), 0.5)
    with pytest.raises(ValueError):
        psi(gevrey(0, 1, 0.5), 10.0)


def test_psi_certificate_failure():
    # the minimizer for sigma near 1 sits beyond the largest window, 2^16
    with pytest.raises(CertificateError):
        psi(superexp(1.001), math.exp(200.0))


def test_psi_window_grows_until_certified():
    # sigma = 1.01 at r = 1.3 minimizes at m = 25 but certifies only once
    # the window passes 64; sigma = 1.1 at r = e^200 needs 4,096 terms
    w = superexp(1.01)
    brute = min((math.log(1.3) + w.log_value(m)) / m for m in range(1, 20000))
    assert psi(w, 1.3) == pytest.approx(brute, rel=1e-14)
    w = superexp(1.1)
    brute = min((200.0 + w.log_value(m)) / m for m in range(1, 8193))
    assert psi(w, math.exp(200.0)) == pytest.approx(brute, rel=1e-14)
