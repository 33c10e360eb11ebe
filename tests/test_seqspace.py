"""Potentials, parity vectors, weighted norms, and the convolution operator."""

import math

import numpy as np
import pytest

from hillgap.seqspace import (
    FourierPotential,
    ParityVector,
    make_fourier,
    make_gasymov,
    make_mathieu,
    make_random,
    multiply_by_potential,
    tail,
    truncate,
    unit_vector,
    wnorm,
)
from hillgap.weights import gevrey, polynomial, trivial


def test_make_mathieu():
    q = make_mathieu(2.0)
    assert q.coeff(1) == 1.0
    assert q.coeff(-1) == 1.0
    assert q.coeff(2) == 0.0
    assert q.mean == 0.0
    assert q.is_real
    assert make_mathieu(0.0).l2() == 0.0


def test_make_gasymov():
    q = make_gasymov([1.0, 0.5, 0.25])
    assert q.coeff(1) == 1.0
    assert q.coeff(2) == 0.5
    assert q.coeff(3) == 0.25
    assert q.coeff(-1) == 0.0
    assert not q.is_real
    assert make_gasymov([]).l2() == 0.0


def test_make_fourier_mean_folding():
    q = make_fourier({0: 2.0 + 1.0j, 2: 1.0})
    assert q.mean == 2.0 + 1.0j
    # mode 0 reads back as the mean, the window slot stays empty
    assert q.coeff(0) == 2.0 + 1.0j
    assert q.without_mean().coeff(0) == 0.0
    assert q.coeff(2) == 1.0


def test_make_fourier_reality_detection():
    assert make_fourier({1: 1.0, -1: 1.0}).is_real
    assert not make_fourier({1: 1.0j, -1: 1.0j}).is_real
    assert not make_fourier({1: 1.0}).is_real


def test_is_real_is_exact_conjugate_symmetry_and_a_real_mean():
    # one definition, read off the coefficients: symmetry to rounding is not
    # enough, a complex mean is not real, and derived potentials answer anew
    assert not make_fourier({1: 0.5, -1: 0.5 + 1e-16j}).is_real
    assert not make_fourier({1: 0.5, -1: 0.5}, mean=1e-300j).is_real
    assert make_fourier({1: 0.5, -1: 0.5}, mean=2.0).is_real
    one_sided = make_fourier({1: 0.5, 2: 0.25, -2: 0.25})
    assert not one_sided.is_real and tail(one_sided, 2).is_real
    assert truncate(make_fourier({1: 0.5, -1: 0.5, 2: 1j}), 1).is_real
    assert make_fourier({1: 0.5, -1: 0.5}, mean=1j).without_mean().is_real
    assert make_gasymov([]).is_real and not make_gasymov([1.0]).is_real


def test_coefficients_are_a_read_only_copy():
    # the object fixes its coefficients, as the oracle's tables are cached
    # on it: q.data refuses writes, and the array given stays the caller's
    data = np.array([0.5, 0.0, 0.5], dtype=np.complex128)
    q = FourierPotential(1, data)
    with pytest.raises(ValueError, match="read-only"):
        q.data[0] = 1.0
    data[0] = 1.0
    assert q.coeff(-1) == 0.5 and data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        make_mathieu(1.0).data[0] = 0.0


def test_wnorm_examples():
    q = make_mathieu(1.0)
    assert wnorm(q, trivial()) == pytest.approx(1.0 / math.sqrt(2), rel=1e-14)
    # w(+-1) = 2 under the first-order polynomial weight
    assert wnorm(q, polynomial(1)) == pytest.approx(math.sqrt(2), rel=1e-13)
    assert wnorm(make_mathieu(0.0), gevrey(0, 1, 0.5)) == 0.0


def test_wnorm_includes_mean():
    q = make_fourier({1: 1.0}, mean=3.0)
    assert wnorm(q, trivial()) == pytest.approx(math.sqrt(10.0), rel=1e-14)


def test_parseval_consistency():
    q = make_random(polynomial(2), 7, 12)
    assert wnorm(q, trivial()) == pytest.approx(q.l2(), rel=1e-14)


def test_tail_and_truncate():
    q = make_mathieu(1.0)
    assert tail(q, 2).l2() == 0.0
    t1 = tail(q, 1)
    assert t1.coeff(1) == 0.5 and t1.coeff(-1) == 0.5
    g = make_gasymov([1.0, 1.0, 1.0])
    t3 = tail(g, 3)
    assert t3.coeff(3) == 1.0 and t3.coeff(2) == 0.0 and t3.coeff(1) == 0.0
    # truncation keeps the low modes and the mean; the tail drops the mean
    q2 = make_fourier({1: 1.0, 3: 1.0}, mean=2.0)
    tr = truncate(q2, 2)
    assert tr.coeff(1) == 1.0 and tr.coeff(3) == 0.0 and tr.mean == 2.0
    assert tail(q2, 2).mean == 0.0


def test_random_potential_determinism():
    a = make_random(polynomial(3), 12345, 32)
    b = make_random(polynomial(3), 12345, 32)
    assert np.array_equal(a.data, b.data)
    c = make_random(polynomial(3), 54321, 32)
    assert not np.array_equal(a.data, c.data)


def test_random_potential_decay_and_reality():
    w = polynomial(3)
    q = make_random(w, 99, 16)
    assert q.is_real
    for n in range(1, 17):
        assert abs(q.coeff(-n) - q.coeff(n).conjugate()) < 1e-15
        # unit-disc draw scaled by 1/w(n)
        assert abs(q.coeff(n)) <= 1.0 / w(n) + 1e-15
    z = make_random(w, 99, 16, real=False)
    assert not z.is_real


def test_parity_vector_layout():
    f = unit_vector(3, 9)
    assert f.parity == 1
    assert f.coeff(3) == 1.0
    assert f.coeff(5) == 0.0
    assert list(f.modes()) == list(range(-9, 10, 2))
    assert ParityVector(0, 8, np.zeros(9, dtype=complex)).l2() == 0.0


def test_resized_pads_and_crops():
    f = ParityVector(1, 3, np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))
    wide = f.resized(8)              # fitted to the odd cap 7
    assert wide.mcut == 7
    assert [wide.coeff(m) for m in (-7, -5, -3, -1, 1, 3, 5, 7)] == [0, 0, 1, 2, 3, 4, 0, 0]
    assert f.resized(3) is f
    back = wide.resized(3)
    assert np.array_equal(back.data, f.data)
    # narrowing drops the edge modes, whatever they hold
    narrow = f.resized(1)
    assert narrow.mcut == 1
    assert [narrow.coeff(m) for m in (-1, 1)] == [2, 3]


def _brute_convolution(q, f):
    out = {}
    ks = list(range(-q.K, q.K + 1))
    for m in f.modes():
        for k in ks:
            c = q.mean if k == 0 else q.coeff(k)
            if c != 0:
                out[m + 2 * k] = out.get(m + 2 * k, 0j) + c * f.coeff(m)
    return out


def test_multiply_examples():
    q = make_mathieu(2.0)
    f = unit_vector(3, 9)
    g = multiply_by_potential(q, f)
    assert g.coeff(1) == pytest.approx(1.0)
    assert g.coeff(5) == pytest.approx(1.0)
    assert g.coeff(3) == 0.0
    z = multiply_by_potential(make_mathieu(0.0), f)
    assert z.l2() == 0.0


def test_multiply_matches_brute_force():
    q = make_random(polynomial(2), 11, 4, real=False)
    rng = np.random.default_rng(5)
    data = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    f = ParityVector(0, 12, data)
    g = multiply_by_potential(q, f)
    brute = _brute_convolution(q, f)
    # the whole product, edge modes included, on the window widened by 2K
    assert g.mcut == f.mcut + 2 * q.K
    assert set(brute) <= set(g.modes())
    for m in g.modes():
        assert g.coeff(m) == pytest.approx(brute.get(m, 0j), abs=1e-13)


def test_multiply_with_mean_term():
    q = make_fourier({1: 0.5, -1: 0.5}, mean=2.0)
    f = unit_vector(3, 9)
    g = multiply_by_potential(q, f)
    assert g.coeff(3) == pytest.approx(2.0)
    assert g.coeff(1) == pytest.approx(0.5)


def test_multiply_keeps_the_edge_image():
    q = make_mathieu(2.0)
    f = unit_vector(9, 9)
    # the m = 11 image lies past f's window and is kept there
    g = multiply_by_potential(q, f)
    assert g.mcut == 11
    assert g.coeff(7) == pytest.approx(1.0)
    assert g.coeff(11) == pytest.approx(1.0)
    assert g.l2() == pytest.approx(math.sqrt(2.0), rel=1e-15)


def _shift(f, i):
    mcut = f.mcut + abs(i)
    data = np.zeros(mcut + 1, dtype=complex)
    for m, c in zip(f.modes(), f.data):
        data[(m + i + mcut) // 2] = c
    return ParityVector((f.parity + i) % 2, mcut, data)


def test_multiplication_commutes_with_shift():
    # (Vf) e_i = V(f e_i), coefficient-wise on every mode of the product
    q = make_random(polynomial(2), 17, 3, real=False)
    rng = np.random.default_rng(8)
    data = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    f = ParityVector(1, 7, data)
    for i in (1, 2, -3):
        lhs = multiply_by_potential(q, _shift(f, i))
        rhs = _shift(multiply_by_potential(q, f), i)
        assert lhs.mcut == rhs.mcut == f.mcut + abs(i) + 2 * q.K
        for m in lhs.modes():
            assert lhs.coeff(m) == pytest.approx(rhs.coeff(m), abs=1e-13)


def test_real_potential_preserves_conjugate_symmetry():
    q = make_random(polynomial(2), 23, 4)
    mcut = 10
    rng = np.random.default_rng(13)
    half = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    data = np.zeros(mcut + 1, dtype=complex)
    for j, c in enumerate(half):
        m = 2 * j + 2
        data[(m + mcut) // 2] = c
        data[(-m + mcut) // 2] = c.conjugate()
    data[mcut // 2] = 1.0
    f = ParityVector(0, mcut, data)
    g = multiply_by_potential(q, f)
    for m in g.modes():
        assert g.coeff(-m) == pytest.approx(g.coeff(m).conjugate(), abs=1e-13)


def test_parity_mismatch_layout_guard():
    with pytest.raises(ValueError):
        ParityVector(0, 9, np.zeros(10, dtype=complex))
