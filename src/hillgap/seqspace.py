"""Potentials as Fourier windows and 2-periodic coefficient vectors.

A potential q = sum_n q_n e^{2 pi i n x} lives on the integer modes inside a
finite window |n| <= K, with the mean q_0 stored separately (the block solver
works with mean-zero potentials and the mean shifts the whole spectrum).  The
2-periodic side uses modes e_m = e^{i pi m x}; multiplication by q shifts m by
2k, so the even and odd sublattices never mix and a coefficient vector carries
a fixed parity.  Weighted norms follow ||q||_w^2 = sum w(n)^2 |q_n|^2, with
half-integer weight arguments (m/2) on the 2-periodic side.

A potential is real when its window is exactly conjugate-symmetric,
q_{-n} = conj(q_n) bit for bit, and its mean is real.  ``is_real`` reads this
off the coefficients, so a potential answers alike however it was made; one
that is symmetric only to rounding is complex.

All values are immutable in use, and a potential's coefficients are a
read-only copy, so the object fixes them; the oracle caches its tables on
it, by identity.  Multiplication by a potential is exact: the product comes
back on the input's window widened by 2K, so nothing is dropped at an edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import Weight


@dataclass(frozen=True, eq=False)
class FourierPotential:
    """1-periodic potential on modes e^{2 pi i n x}, |n| <= K, mean kept aside.

    ``data[K + n]`` holds q_n; the n = 0 slot stays zero and ``mean`` carries
    q_0.  ``data`` is a read-only copy of the array given.
    """

    K: int
    data: np.ndarray
    mean: complex = 0j

    def __post_init__(self) -> None:
        if self.K < 0:
            raise ValueError("window size K must be >= 0")
        if self.data.shape != (2 * self.K + 1,):
            raise ValueError("coefficient array must have length 2K+1")
        if abs(self.data[self.K]) != 0.0:
            raise ValueError("mode 0 belongs in the mean field")
        object.__setattr__(self, "data", np.array(self.data))
        self.data.flags.writeable = False

    @property
    def is_real(self) -> bool:
        """q is real: q_{-n} = conj(q_n) exactly, bit for bit, and a real mean."""
        return complex(self.mean).imag == 0 and bool(
            np.array_equal(self.data, np.conj(self.data[::-1])))

    def coeff(self, n: int) -> complex:
        """q_n, with q_0 = mean and 0 outside the window."""
        if n == 0:
            return complex(self.mean)
        if abs(n) > self.K:
            return 0j
        return complex(self.data[self.K + n])

    def modes(self):
        """Yield (n, q_n) over nonzero windowed coefficients, n ascending."""
        for j, z in enumerate(self.data):
            if z != 0:
                yield j - self.K, complex(z)

    def without_mean(self) -> "FourierPotential":
        if self.mean == 0:
            return self
        return FourierPotential(self.K, self.data, 0j)

    def l2(self) -> float:
        """Plain l2 norm including the mean term."""
        return math.sqrt(float(np.sum(np.abs(self.data) ** 2)) + abs(self.mean) ** 2)


def make_fourier(coeffs: dict[int, complex], mean: complex = 0j,
                 K: int | None = None) -> FourierPotential:
    """Potential from a mode map {n: q_n}.

    Args:
        coeffs: nonzero modes, any n != 0 (a 0 key is folded into the mean).
        mean: q_0.
        K: window size; defaults to the largest |n| present.
    """
    coeffs = dict(coeffs)
    mean = complex(mean) + complex(coeffs.pop(0, 0j))
    span = max((abs(n) for n in coeffs), default=0)
    if K is None:
        K = span
    elif K < span:
        raise ValueError(f"window K = {K} cannot hold mode {span}")
    data = np.zeros(2 * K + 1, dtype=np.complex128)
    for n, z in coeffs.items():
        data[K + n] = complex(z)
    return FourierPotential(K, data, mean)


def make_mathieu(mu: float) -> FourierPotential:
    """q = mu cos(2 pi x): the two modes q_{+-1} = mu/2."""
    if mu == 0:
        return make_fourier({}, K=1)
    return make_fourier({1: mu / 2, -1: mu / 2})


def make_gasymov(coeffs: list[complex]) -> FourierPotential:
    """One-sided potential sum_{n>=1} q_n e^{2 pi i n x}; every gap collapses."""
    modes = {n: complex(z) for n, z in enumerate(coeffs, start=1) if z != 0}
    return make_fourier(modes, K=len(coeffs) if coeffs else 0)


def make_random(decay: Weight, seed: int, K: int, real: bool = True) -> FourierPotential:
    """Random potential q_n = zeta_n / decay(n), zeta_n uniform on the unit disc.

    Draws run over n = 1..K in order (two uniforms per mode, radius then angle;
    the negative side draws after the positive one when not conjugate-forced),
    so a seed pins the potential bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    modes: dict[int, complex] = {}
    for n in range(1, K + 1):
        zeta = _disc_point(rng)
        modes[n] = zeta / decay(n)
        if real:
            modes[-n] = np.conj(modes[n])
        else:
            modes[-n] = _disc_point(rng) / decay(n)
    return make_fourier(modes, K=K)


def _disc_point(rng: np.random.Generator) -> complex:
    radius = math.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * complex(math.cos(angle), math.sin(angle))


def wnorm(q: FourierPotential, w: Weight) -> float:
    """||q||_w = (sum w(n)^2 |q_n|^2)^{1/2}, mean term included at n = 0."""
    total = abs(q.mean) ** 2  # w(0) = 1
    for n, z in q.modes():
        wn = w(n)
        if math.isinf(wn):
            return math.inf
        total += (wn * abs(z)) ** 2
    return math.sqrt(total)


def tail(q: FourierPotential, N: int) -> FourierPotential:
    """High-mode part sum_{|n| >= N} q_n e^{2 pi i n x} (drops the mean for N >= 1)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    data = q.data.copy()
    lo = max(0, q.K - (N - 1))
    hi = min(2 * q.K + 1, q.K + N)
    data[lo:hi] = 0
    return FourierPotential(q.K, data)


def truncate(q: FourierPotential, N: int) -> FourierPotential:
    """Low-mode part: keeps |n| <= N (and the mean), zeroes the rest."""
    if N < 0:
        raise ValueError("N must be >= 0")
    data = q.data.copy()
    data[:max(0, q.K - N)] = 0
    data[q.K + N + 1:] = 0
    return FourierPotential(q.K, data, q.mean)


@dataclass(frozen=True, eq=False)
class ParityVector:
    """Coefficients f_m on e_m = e^{i pi m x} for m of one parity, |m| <= mcut.

    ``data[j]`` holds the mode m = -mcut + 2j, so the array has mcut + 1
    entries; ``mcut`` always matches the parity.
    """

    parity: int
    mcut: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if self.mcut < 0 or self.mcut % 2 != self.parity:
            raise ValueError("mcut must be >= 0 and match the parity")
        if self.data.shape != (self.mcut + 1,):
            raise ValueError("coefficient array must have length mcut + 1")

    def index(self, m: int) -> int:
        if abs(m) % 2 != self.parity:
            raise ValueError(f"mode {m} has the wrong parity")
        if abs(m) > self.mcut:
            raise ValueError(f"mode {m} outside the window")
        return (m + self.mcut) // 2

    def coeff(self, m: int) -> complex:
        if abs(m) > self.mcut:
            return 0j
        return complex(self.data[self.index(m)])

    def modes(self) -> np.ndarray:
        """The mode indices m, aligned with data."""
        return np.arange(-self.mcut, self.mcut + 1, 2)

    def l2(self) -> float:
        return float(np.linalg.norm(self.data))

    def resized(self, mcut: int) -> "ParityVector":
        """The same coefficients on the window of cap mcut (parity-fitted).

        Widening pads zeros at both ends; narrowing drops the edge modes.
        """
        mcut = _fit_parity(self.parity, mcut)
        if mcut == self.mcut:
            return self
        if mcut > self.mcut:
            pad = (mcut - self.mcut) // 2
            data = np.zeros(mcut + 1, dtype=self.data.dtype)
            data[pad:pad + self.mcut + 1] = self.data
            return ParityVector(self.parity, mcut, data)
        cut = (self.mcut - mcut) // 2
        return ParityVector(self.parity, mcut, self.data[cut:cut + mcut + 1].copy())


def unit_vector(m: int, mcut: int) -> ParityVector:
    """The basis vector e_m inside a window of cap mcut."""
    parity = abs(m) % 2
    mcut = _fit_parity(parity, mcut)
    data = np.zeros(mcut + 1, dtype=np.complex128)
    data[(m + mcut) // 2] = 1.0
    return ParityVector(parity, mcut, data)


def _fit_parity(parity: int, mcut: int) -> int:
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return mcut if mcut % 2 == parity else mcut - 1


def multiply_by_potential(q: FourierPotential, f: ParityVector) -> ParityVector:
    """(V f)_m = sum_k q_k f_{m-2k} (k = 0 contributes mean * f_m), exactly.

    The product lives on f's window widened by 2K, one lattice step per k,
    and comes back whole.
    """
    kernel = q.data
    if q.mean != 0:
        kernel = kernel.copy()
        kernel[q.K] = q.mean
    return ParityVector(f.parity, f.mcut + 2 * q.K, np.convolve(kernel, f.data))
