"""Block decomposition of the eigenvalue problem at one gap index.

Working on the half-integer lattice e_m = e^{i pi m x}, the eigenvalue
equation -f'' + qf = lam f splits at index n into a 2-dimensional part on
span{e_n, e_{-n}} and an infinite remainder handled by contraction.  The
remainder operator is

    T_n f = V A_lam^{-1} Q_n f,

multiplication by q after inverting f -> lam f + f'' away from the resonant
modes +-n, with ||T_n|| <= 2 ||q|| / n on the weighted spaces.  Its Neumann
resolvent turns the eigenvalue condition into the singularity of a 2x2 matrix
with diagonal lam - sigma_n - a_n(lam) (sigma_n = n^2 pi^2) and off-diagonal
entries c_{+-n}(lam).

The Neumann series is summed on a mode window that grows with the iterate:
each application of V moves a mode by at most 2K (K the bandwidth of q), so
after nu rounds the iterate lives on the support of the right-hand side
widened by 2K nu, and the rounds convolve only that.  Every product is
exact, so no mode is ever dropped, and NU_CAP is the only bound: the window
never exceeds the support of the right-hand side widened by 2K (NU_CAP + 1).
Nothing is kept between solves: each round divides by lam - m^2 pi^2 on its
own window, and each lam builds the columns V e_{+-n} that it solves.

Everything downstream lives at the point alpha_n where the diagonal vanishes:
the adapted coefficients p_{+-n} = c_{-+n}(alpha_n), the gap roots xi_-+, and
the map q -> Phi(q) that replaces high Fourier modes by adapted coefficients.
alpha_n and both roots are fixed points of one contraction,

    lam <- sigma_n + a_n(lam) + s phi_n(lam),   phi_n = sqrt(c_n c_{-n}),

with s = 0 for alpha_n and s = +-1 for xi_+-.  a_n and phi_n change slowly
in lam (|a_n'| <= 1/4; Djakov & Mityagin, Russian Math. Surveys 61 (2006)),
so the map contracts and no lam-derivative is needed.  Phi is a
near-identity diffeomorphism on a ball, inverted here by direct iteration,
which also yields potentials with collapsed gaps beyond a prescribed index
(N-gap approximants).

All operators act on zero-mean potentials; the public entry points strip the
mean and add it back to every returned spectral quantity.  An index that is
not an integer (_integer) or a tol not > 0 raises DomainError.  The records
returned (SolveInfo, AdaptedInfo, BlockDiagnostics, BlockData, MapResult)
are NamedTuples: immutable, equal by value, and made without generated code.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import NamedTuple

import numpy as np

from .seqspace import (
    FourierPotential,
    ParityVector,
    make_fourier,
    multiply_by_potential,
    truncate,
    unit_vector,
)

PI2 = math.pi ** 2
STRIP_HALF_WIDTH = 12.0   # |Re lam - n^2 pi^2| <= 12 n admits lam
NU_CAP = 128              # Neumann round cap; also bounds the window (+2K a round)
COLLAPSE_PRODUCT = 1e-24  # |c_+ c_-| below this counts as a collapsed gap
_INVERSE_ROUNDS = 48      # invert_adapted_map gives up after this many rounds


class DomainError(ValueError):
    """Argument outside the operator's admissible region."""


class ContractionError(RuntimeError):
    """No usable contraction factor at this gap index."""


class IterationError(RuntimeError):
    """An iteration failed to converge or left its certified region."""


def _integer(value, name: str, error=ValueError, least: int | None = None) -> int:
    """Every integer argument, floquet's and the config's too, by operator.index: a numpy
    integer passes; a float, even 16.0, a bool or one under ``least`` raises ``error``."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or (least is not None and n < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return n


def _tolerance(tol: float) -> None:
    if not tol > 0:  # a NaN too
        raise DomainError(f"tol must be > 0, got {tol!r}")


class SolveInfo(NamedTuple):
    """Diagnostics of one resolvent solve: iterations, final residual, last
    observed contraction ratio."""

    iters: int
    resid: float
    rate: float

    def __add__(self, other: SolveInfo) -> SolveInfo:
        """Tallies of both solves: iterations summed, residual and ratio maxed."""
        return SolveInfo(self.iters + other.iters, max(self.resid, other.resid),
                         max(self.rate, other.rate))


class AdaptedInfo(NamedTuple):
    """Tallies of one adapted index, as SolveInfo's, with its fixed point
    alpha_n (mean added)."""

    iters: int
    resid: float
    rate: float
    alpha: complex


class BlockDiagnostics(NamedTuple):
    """Tallies of one gap block: resolvent rounds over every solve, the
    iterations of the two root loops (``newton_iters``; the loops are
    fixed-point iterations, the name is kept for existing readers), the
    SolveInfo maxima, and whether the roots collapsed onto alpha_n."""

    solver_iters: int
    newton_iters: int
    resid: float
    rate: float
    collapsed: bool


class BlockData(NamedTuple):
    """Reduced 2x2 data of one gap: fixed point, adapted coefficients, roots.

    xi_minus precedes xi_plus lexicographically (real part, then imaginary
    part) and gamma_n = xi_plus - xi_minus.  The mean of the potential is
    already added back into alpha_n and xi_-+.
    """

    n: int
    alpha_n: complex
    a_n_at_alpha: complex
    p_plus: complex
    p_minus: complex
    xi_minus: complex
    xi_plus: complex
    gamma_n: complex
    diagnostics: BlockDiagnostics


class MapResult(NamedTuple):
    """Outcome of inverting the adapted-coefficient map."""

    q: FourierPotential
    resid: float
    iters: int
    rate: float


def _require_admissible(q: FourierPotential, n: int, lam: complex,
                        parity: int) -> None:
    """Domain of T_n: zero-mean q, an integer n >= 1, lam in the strip, and
    parity n mod 2.  The strip keeps lam off every denominator lam - m^2 pi^2
    but the resonant pair: |lam - m^2 pi^2| > 15 at the nearest other modes
    m = n + 2 and m = n - 2 >= 0."""
    _integer(n, "gap index n", DomainError, least=1)
    if q.mean != 0:
        raise DomainError("operator requires a zero-mean potential; "
                          "use q.without_mean() and shift eigenvalues")
    if abs(lam.real - n * n * PI2) > STRIP_HALF_WIDTH * n:
        raise DomainError(f"lam = {lam} outside the admissible strip at n = {n}")
    if parity != n % 2:
        raise DomainError(f"parity {parity} vector at gap index {n}")


def _quotient(n: int, lam: complex, f: np.ndarray) -> np.ndarray:
    """Q_n A_lam^{-1} f on f's own window: f_m / (lam - m^2 pi^2), 0 at +-n."""
    mcut = len(f) - 1
    den = lam - PI2 * np.arange(-mcut, mcut + 1, 2, dtype=np.float64) ** 2
    if n > mcut:
        return f / den
    lo, hi = (mcut - n) // 2, (mcut + n) // 2
    den[lo] = den[hi] = 1.0
    g = f / den
    g[lo] = g[hi] = 0
    return g


def _pad(f: np.ndarray, k: int) -> np.ndarray:
    """f widened by k zeros at each end."""
    out = np.zeros(len(f) + 2 * k, dtype=f.dtype)
    out[k:k + len(f)] = f
    return out


def apply_Tn(q: FourierPotential, n: int, lam: complex,
             f: ParityVector) -> ParityVector:
    """One application of T_n: zero the +-n modes, divide by lam - m^2 pi^2,
    multiply by the potential.

    Requires mean(q) = 0, lam in the admissible strip, and parity(f) = n mod 2.
    """
    _require_admissible(q, n, lam, f.parity)
    return multiply_by_potential(q, ParityVector(_quotient(n, lam, f.data)))


def resolve_hat_Tn(q: FourierPotential, n: int, lam: complex, rhs: ParityVector,
                   tol: float = 1e-12) -> tuple[ParityVector, SolveInfo]:
    """Solve (I - T_n) g = rhs by the Neumann iteration g <- rhs + T_n g.

    Refuses arguments outside the domain of T_n whatever rhs holds, and
    refuses when 2 ||q|| >= n, where the operator-norm bound gives no
    contraction at all; below that the measured ratio decides convergence.
    The residual in SolveInfo comes from a final direct application of
    I - T_n, so the contract ||(I - T_n) g - rhs|| <= tol ||rhs|| is checked,
    not inferred.

    The iteration runs on a window that grows with the iterate: it starts at
    the support of rhs, and each application of T_n widens it by 2K, exactly.
    The result comes back on the last iterate's window, which holds every
    mode the solve reached.  A tol that is not > 0 is refused.
    """
    _tolerance(tol)
    _require_admissible(q, n, lam, rhs.parity)
    nq = q.l2()
    if 2.0 * nq >= n:
        raise ContractionError(f"2 ||q|| = {2 * nq:.6g} >= n = {n}: "
                               "resolvent series need not converge")
    rhs = rhs.resized(_support_cut(rhs))
    rhs_norm = rhs.l2()
    if rhs_norm == 0.0:
        return rhs, SolveInfo(0, 0.0, 0.0)
    g = padded = rhs.data
    d, rate = math.inf, 2.0 * nq / n
    # one application of T_n per pass; the pass after the converging round
    # checks the residual instead of making a new iterate
    for it in range(NU_CAP + 1):
        f = ParityVector(_quotient(n, lam, g))
        tg = multiply_by_potential(q, f).data
        wide, padded = _pad(g, q.K), _pad(padded, q.K)
        if d <= tol * rhs_norm:
            resid = float(np.linalg.norm(wide - tg - padded))
            return ParityVector(g), SolveInfo(it, resid, rate)
        if it == NU_CAP:
            raise IterationError(f"resolvent at n = {n} not converged after "
                                 f"{NU_CAP} rounds; last ratio {rate:.3g}")
        new = padded + tg
        d_prev, d = d, float(np.linalg.norm(new - wide))
        g, rate = new, d / (d_prev if it else rhs_norm)


def _support_cut(f: ParityVector) -> int:
    """Smallest window cap of f's parity that holds every nonzero entry."""
    nz = np.flatnonzero(f.data)
    if nz.size == 0:
        return f.parity
    return max(f.mcut - 2 * int(nz[0]), 2 * int(nz[-1]) - f.mcut)


def coeff_an_cn(q: FourierPotential, n: int, lam: complex,
                tol: float = 1e-12) -> tuple[complex, complex, complex]:
    """Entries of the reduced 2x2 matrix at lam.

    a_n is mode n of the resolvent applied to V e_n; c_plus is mode -n of the
    same solve, and c_minus is mode n of the solve with data V e_{-n}.  Mode
    extraction equals the L^2 pairing because distinct lattice modes of one
    parity are orthonormal over the period.
    """
    a_n, c_plus, c_minus, _ = _reduced_entries(q, n, lam, tol)
    return a_n, c_plus, c_minus


def _column(q: FourierPotential, m: int) -> ParityVector:
    """V e_m, the data of one solve."""
    return multiply_by_potential(q, unit_vector(m, abs(m)))


def _reduced_entries(q: FourierPotential, n: int, lam: complex, tol: float,
                     both: bool = True):
    """(a_n, c_+, c_-, tally) at lam, each solve from a column built here.

    For a real q at real lam, T_n commutes with f_m -> conj f_{-m}, which
    maps V e_n to V e_{-n}, and the reduced matrix is Hermitian: the e_n
    solve alone gives a real a_n and c_- = conj c_+, and V e_{-n} is never
    built.  Otherwise ``both`` False skips the e_{-n} solve and returns None
    for c_-.
    """
    _require_admissible(q, n, lam, n % 2)  # n is read before _column takes it
    h, tally = resolve_hat_Tn(q, n, lam, _column(q, n), tol)
    a_n, c_plus = h.coeff(n), h.coeff(-n)
    if q.is_real and lam.imag == 0:
        # 0.0 - imag keeps a zero imaginary part at +0
        return complex(a_n.real), c_plus, complex(c_plus.real, 0.0 - c_plus.imag), tally
    if not both:
        return a_n, c_plus, None, tally
    g, info = resolve_hat_Tn(q, n, lam, _column(q, -n), tol)
    return a_n, c_plus, g.coeff(n), tally + info


def alpha_fixed_point(q: FourierPotential, n: int, tol: float = 1e-12) -> complex:
    """The point alpha_n where the reduced diagonal lam - sigma_n - a_n vanishes.

    Direct iteration alpha <- sigma_n + a_n(alpha) from sigma_n = n^2 pi^2.
    The iterate must stay in the disc |alpha - sigma_n| <= n, and once
    n >= ceil(4 ||q||) the sharper radius m^2 / 4n with m = ceil(4 ||q||) is
    checked after convergence.  The mean of q shifts the returned value.
    """
    q0 = q.without_mean()
    alpha, _, _ = _fixed_point(q0, n, tol)
    return alpha + complex(q.mean)


def _fixed_point(q0: FourierPotential, n: int, tol: float, sign: int = 0,
                 seed: complex | None = None, phi: complex = 0j):
    """Fixed point of lam <- sigma_n + a_n(lam) + sign phi_n(lam) in the
    zero-mean frame; returns (lam, iterations, tally).

    sign = 0 gives alpha_n from sigma_n, solving only the e_n column, and
    checks the certified radius; sign = +-1 gives a gap root from ``seed``,
    the branch of phi_n following ``phi`` by continuity.  Leaving the disc
    |lam - sigma_n| <= n or missing tol n^2 in 48 steps raises.  For a real
    q0 from a real seed, a_n and phi_n are real, so lam stays real.
    """
    sigma = n * n * PI2
    tol_lam = tol * max(1, n * n)
    lam = complex(sigma) if seed is None else seed
    tally = None
    for it in range(1, 49):
        a_n, c_plus, c_minus, info = _reduced_entries(q0, n, lam, tol, both=bool(sign))
        new = sigma + a_n
        if sign:
            root = cmath.sqrt(c_plus * c_minus)
            phi = root if abs(root - phi) <= abs(root + phi) else -root
            new += sign * phi
        tally = info if tally is None else tally + info
        step = new - lam
        lam = new
        if abs(lam - sigma) > n:
            raise IterationError(f"fixed point left the disc |lam - {sigma:.6g}|"
                                 f" <= {n}")
        if abs(step) <= tol_lam:
            break
    else:
        raise IterationError(f"fixed-point iteration at n = {n} not converged")
    m = math.ceil(4.0 * q0.l2())
    if not sign and n >= m and abs(lam - sigma) > m * m / (4.0 * n) + tol_lam:
        raise IterationError(f"fixed point outside the certified radius at n = {n}")
    return lam, it, tally


def _at_alpha(q0: FourierPotential, n: int, tol: float):
    """alpha_n and the reduced entries there: (alpha, a_n, c_+, c_-, tally)."""
    alpha, _, tally = _fixed_point(q0, n, tol)
    a_n, c_plus, c_minus, info = _reduced_entries(q0, n, alpha, tol)
    return alpha, a_n, c_plus, c_minus, tally + info


def _lex_order(a, b):
    """(a, b) by (re, im) rounded to complex, ties broken at working precision."""
    def key(z):
        return complex(z).real, complex(z).imag, z.real, z.imag
    return (a, b) if key(a) <= key(b) else (b, a)


def gap_block(q: FourierPotential, n: int, tol: float = 1e-12) -> BlockData:
    """Assemble the reduced data and gap roots at index n.

    The roots are the fixed points of the alpha_n map plus -+phi_n,
    lam <- sigma_n + a_n(lam) -+ phi_n(lam), iterated from
    alpha_n -+ phi_n(alpha_n); when |c_n c_{-n}| falls under COLLAPSE_PRODUCT
    both collapse onto alpha_n instead (the branch of the square root stops
    being trackable there, and the roots agree to far better than solver
    tolerance anyway).
    """
    q0 = q.without_mean()
    mean = complex(q.mean)
    alpha, a_alpha, c_plus, c_minus, tally = _at_alpha(q0, n, tol)
    # V e_{-n} carries the ascending coefficient ladder, so its solve holds
    # the mode +n entry whose leading term is q_{+n}; the e_n solve leads
    # with q_{-n}.  p_{+-n} must lead with q_{+-n} or the map below would
    # not be near-identity.
    p_plus, p_minus = c_minus, c_plus
    prod = c_plus * c_minus
    root_iters = 0
    collapsed = abs(prod) < COLLAPSE_PRODUCT
    if collapsed:
        xi_a = xi_b = alpha
    else:
        phi0 = cmath.sqrt(prod)
        xi_a, it_a, info_a = _fixed_point(q0, n, tol, 1, alpha + phi0, phi0)
        xi_b, it_b, info_b = _fixed_point(q0, n, tol, -1, alpha - phi0, phi0)
        root_iters = it_a + it_b
        tally = tally + info_a + info_b
    xi_minus, xi_plus = _lex_order(xi_a, xi_b)
    diag = BlockDiagnostics(tally.iters, root_iters, tally.resid,
                            tally.rate, collapsed)
    return BlockData(n, alpha + mean, a_alpha, p_plus, p_minus,
                     xi_minus + mean, xi_plus + mean, xi_plus - xi_minus, diag)


def adapted_defaults(q: FourierPotential, m: int | None = None,
                     M_thresh: int | None = None,
                     K_out: int | None = None) -> tuple[int, int, int]:
    """The adapted map's (m, M_thresh, K_out), each one not given defaulted.

    From ||q|| with the mean removed: the ball size m = max(1, ceil(4 ||q||)),
    the threshold M_thresh = max(m + 1, 8) just past the ball, and the output
    window K_out = max(K, M_thresh + 7), which keeps an adapted band present
    for trigonometric polynomials.  The one check of the three: an m under
    4 ||q|| raises ContractionError, an M_thresh inside the ball or a K_out
    short of a mode below M_thresh DomainError.
    """
    nq = q.without_mean().l2()
    if m is None:
        m = max(1, math.ceil(4.0 * nq))
    if M_thresh is None:
        M_thresh = max(m + 1, 8)
    if K_out is None:
        K_out = max(q.K, M_thresh + 7)
    if 4.0 * nq > m:
        raise ContractionError(f"4 ||q|| = {4 * nq:.6g} exceeds the ball size m = {m}")
    if M_thresh < m + 1:
        raise DomainError(f"threshold {M_thresh} sits inside the ball of size {m}")
    kept = max((abs(k) for k, _ in q.modes() if abs(k) < M_thresh), default=0)
    if K_out < kept:
        raise DomainError(f"K_out = {K_out} cannot hold mode {kept} of the potential, "
                          f"below M_thresh = {M_thresh}")
    return m, M_thresh, K_out


def adapted_map(q: FourierPotential, m: int | None = None,
                M_thresh: int | None = None, tol: float = 1e-12, *,
                K_out: int | None = None,
                diagnostics: dict[int, AdaptedInfo] | None = None) -> FourierPotential:
    """Replace the Fourier modes |n| >= M_thresh by adapted coefficients.

    Returns p with p_n = q_n for |n| < M_thresh and p_{+-n} = c_{-+n}(alpha_n)
    above.  m is the ball parameter (4 ||q|| <= m required) and the threshold
    must sit past the ball.  K_out widens the output window past the support
    of q, so the adapted band is present even for trigonometric polynomials.
    All three default and are checked as adapted_defaults says.  Pass
    ``diagnostics`` a dict to collect per-index solver tallies and the fixed
    points alpha_n.  A tol that is not > 0 is refused.
    """
    _tolerance(tol)
    q0 = q.without_mean()
    m, M_thresh, K_out = adapted_defaults(q, m, M_thresh, K_out)
    coeffs = {k: z for k, z in q0.modes() if abs(k) < M_thresh}
    for nn in range(M_thresh, K_out + 1):
        alpha, _, c_plus, c_minus, info = _at_alpha(q0, nn, tol)
        # same ladder fact as in gap_block: the e_{-n} solve leads with q_{+n}
        coeffs[nn] = c_minus
        coeffs[-nn] = c_plus
        if diagnostics is not None:
            diagnostics[nn] = AdaptedInfo(*info, alpha + complex(q.mean))
    return make_fourier(coeffs, mean=q.mean, K=K_out)


def invert_adapted_map(p: FourierPotential, m: int | None = None,
                       M_thresh: int | None = None, tol: float = 1e-12) -> MapResult:
    """Invert the adapted-coefficient map by iterating q <- q - (Phi(q) - p).

    The derivative of Phi stays within 1/8 of the identity on the admissible
    ball, so the iteration contracts at about that rate; a measured rate above
    0.9 aborts, and so do 48 rounds without convergence.  m and M_thresh must
    match the forward map; by default adapted_defaults takes them from ||p||.
    """
    m, M_thresh, _ = adapted_defaults(p, m, M_thresh)
    q, prev, rate = p, None, 0.0
    for it in range(_INVERSE_ROUNDS):
        phi = adapted_map(q, m, M_thresh, tol, K_out=p.K)
        diff = phi.data - p.data
        diff_mean = complex(phi.mean) - complex(p.mean)
        resid = math.sqrt(float(np.sum(np.abs(diff) ** 2)) + abs(diff_mean) ** 2)
        if prev is not None:
            rate = resid / prev
            if rate > 0.9 and resid > 10.0 * tol:
                raise IterationError(f"inverse iteration diverging: rate {rate:.3g}")
        if resid <= tol:
            return MapResult(q, resid, it, rate)
        q = FourierPotential(q.data - diff, complex(q.mean) - diff_mean)
        prev = resid
    raise IterationError(f"inverse iteration not converged in {_INVERSE_ROUNDS} rounds")


def n_gap_approximant(q: FourierPotential, N: int, m: int | None = None,
                      M_thresh: int | None = None, tol: float = 1e-12, *,
                      K_out: int | None = None) -> FourierPotential:
    """A nearby potential whose gaps above index N are collapsed.

    Pushes q through the adapted map, truncates to |n| <= N, and inverts.
    N must reach the adapted threshold; below it the map keeps plain Fourier
    modes and truncating there would not close any gap.
    """
    m, M_thresh, K_out = adapted_defaults(q, m, M_thresh, K_out)
    N = _integer(N, "N", DomainError, least=M_thresh)
    p = adapted_map(q, m, M_thresh, tol, K_out=K_out)
    return invert_adapted_map(truncate(p, N), m, M_thresh, tol).q


def c_series_terms(q: FourierPotential, n: int, lam: complex,
                   nu_max: int) -> list[complex]:
    """First nu_max + 1 series terms of the off-diagonal entry: the mode -n
    coefficients of T_n^nu V e_n for nu = 0..nu_max.

    Partial sums approach the resolvent value c_plus geometrically in the
    contraction factor.  Every term is exact: each product widens the window.
    """
    _require_admissible(q, n, lam, n % 2)
    _integer(nu_max, "nu_max", DomainError, least=0)
    f = multiply_by_potential(q, unit_vector(n, n))
    terms = [f.coeff(-n)]
    for _ in range(nu_max):
        f = apply_Tn(q, n, lam, f)
        terms.append(f.coeff(-n))
    return terms
