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
widened by 2K nu, and the rounds convolve only that.  mode_cutoff bounds
this window and is never allocated; once the window reaches it, the mass
pushed past the edge is tallied as ``lost``.  Each index n builds its columns
V e_{+-n} once, and each lam one table of denominators lam - m^2 pi^2, which
the solves of both columns share.

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
mean and add it back to every returned spectral quantity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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
NU_CAP = 128              # Neumann iteration cap; also sizes the window cap
COLLAPSE_PRODUCT = 1e-24  # |c_+ c_-| below this counts as a collapsed gap
_SINGULAR_TOL = 1e-12
_INVERSE_ROUNDS = 48      # invert_adapted_map gives up after this many rounds


class DomainError(ValueError):
    """Argument outside the operator's admissible region."""


class ContractionError(RuntimeError):
    """No usable contraction factor at this gap index."""


class IterationError(RuntimeError):
    """An iteration failed to converge or left its certified region."""


@dataclass(frozen=True)
class SolveInfo:
    """Diagnostics of one resolvent solve: iterations, final residual, last
    observed contraction ratio, accumulated window-truncation loss."""

    iters: int
    resid: float
    rate: float
    lost: float

    def __add__(self, other: SolveInfo) -> SolveInfo:
        """Tallies of both solves: iterations and loss summed, residual and
        ratio maxed."""
        return SolveInfo(self.iters + other.iters, max(self.resid, other.resid),
                         max(self.rate, other.rate), self.lost + other.lost)


@dataclass(frozen=True)
class AdaptedInfo(SolveInfo):
    """Tallies of one adapted index, with its fixed point alpha_n (mean added)."""

    alpha: complex


@dataclass(frozen=True)
class BlockDiagnostics:
    """Tallies of one gap block: resolvent rounds over every solve, the
    iterations of the two root loops (``newton_iters``; the loops are
    fixed-point iterations, the name is kept for existing readers), the
    SolveInfo maxima and loss, and whether the roots collapsed onto alpha_n."""

    solver_iters: int
    newton_iters: int
    resid: float
    rate: float
    lost: float
    collapsed: bool


@dataclass(frozen=True)
class BlockData:
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


@dataclass(frozen=True)
class MapResult:
    """Outcome of inverting the adapted-coefficient map."""

    q: FourierPotential
    resid: float
    iters: int
    rate: float


def mode_cutoff(q: FourierPotential, n: int) -> int:
    """Window cap for the resolvent iteration at index n.

    Each application of T_n widens the support by 2K, so NU_CAP rounds need
    this much room before truncation loss can appear.  It is a bound, never
    an array: the iterate and its denominators live on the iterate's support
    widened by 2K, which reaches the cap only after about NU_CAP rounds.
    """
    return 2 * q.K * NU_CAP + n + 8


def _require_admissible(q: FourierPotential, n: int, lam: complex,
                        parity: int) -> None:
    """Domain of T_n: zero-mean q, n >= 1, lam in the strip, parity n mod 2."""
    if q.mean != 0:
        raise DomainError("operator requires a zero-mean potential; "
                          "use q.without_mean() and shift eigenvalues")
    if n < 1:
        raise DomainError("gap index n must be >= 1")
    if abs(lam.real - n * n * PI2) > STRIP_HALF_WIDTH * n:
        raise DomainError(f"lam = {lam} outside the admissible strip at n = {n}")
    if parity != n % 2:
        raise DomainError(f"parity {parity} vector at gap index {n}")


class _Denominators:
    """lam - m^2 pi^2 on the modes of n's parity at one lam, shared by every
    solve there.  The table doubles when a window outgrows it, never past the
    cap; the resonant pair +-n holds 1 and quotient() zeroes its entries."""

    def __init__(self, n: int, lam: complex, cap: int):
        self.n, self.lam, self.cap = n, lam, cap - (cap - n) % 2
        self.mcut, self.table = -1, None

    def quotient(self, f: ParityVector) -> np.ndarray:
        """Q_n A_lam^{-1} f on f's window: f_m / (lam - m^2 pi^2), 0 at +-n."""
        if f.mcut > self.mcut:
            self.mcut = min(self.cap, 2 * f.mcut - f.parity)
            m = np.arange(-self.mcut, self.mcut + 1, 2)
            self.table = self.lam - PI2 * m.astype(np.float64) ** 2
            resonant = np.abs(m) == self.n
            # cannot trip for admissible lam (the gap to the nearest
            # off-resonant mode exceeds the strip width), but guard anyway
            if np.any((np.abs(self.table) < _SINGULAR_TOL) & ~resonant):
                raise DomainError(f"lam = {self.lam} is near-singular off +-n")
            self.table[resonant] = 1.0
        cut = (self.mcut - f.mcut) // 2
        g = f.data / self.table[cut:cut + f.mcut + 1]
        if self.n <= f.mcut:
            g[(f.mcut - self.n) // 2] = g[(f.mcut + self.n) // 2] = 0
        return g


def apply_Tn(q: FourierPotential, n: int, lam: complex,
             f: ParityVector) -> ParityVector:
    """One application of T_n: zero the +-n modes, divide by lam - m^2 pi^2,
    multiply by the potential.

    Requires mean(q) = 0, lam in the admissible strip, and parity(f) = n mod 2.
    """
    _require_admissible(q, n, lam, f.parity)
    g = _Denominators(n, lam, f.mcut).quotient(f)
    return multiply_by_potential(q, ParityVector(f.parity, f.mcut, g, f.lost))


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
    the support of rhs and widens by 2K before each application of T_n, so
    nothing is dropped until it reaches rhs.mcut, the cap, where edge mass
    goes into ``lost``.  The cap is only a bound: nothing is allocated past
    the windows the iterate reaches.  The result comes back on rhs's window.
    """
    _require_admissible(q, n, lam, rhs.parity)
    g, info = _neumann(q, n, rhs.resized(_support_cut(rhs)),
                       _Denominators(n, lam, rhs.mcut), tol)
    return g.resized(rhs.mcut), info


def _neumann(q: FourierPotential, n: int, rhs: ParityVector, den: _Denominators,
             tol: float) -> tuple[ParityVector, SolveInfo]:
    """The rounds past the domain guards: rhs on its support, g on its last window."""
    nq = q.l2()
    if 2.0 * nq >= n:
        raise ContractionError(f"2 ||q|| = {2 * nq:.6g} >= n = {n}: "
                               "resolvent series need not converge")
    rhs_norm = rhs.l2()
    if rhs_norm == 0.0:
        return rhs, SolveInfo(0, 0.0, 0.0, rhs.lost)
    g, d, rate = rhs, math.inf, 2.0 * nq / n
    # one application of T_n per pass; the pass after the converging round
    # checks the residual instead of making a new iterate
    for it in range(NU_CAP + 1):
        g = g.resized(min(den.cap, g.mcut + 2 * q.K))
        tg = multiply_by_potential(
            q, ParityVector(g.parity, g.mcut, den.quotient(g), g.lost))
        padded = rhs.resized(g.mcut).data
        if d <= tol * rhs_norm:
            resid = float(np.linalg.norm(g.data - tg.data - padded))
            return g, SolveInfo(it, resid, rate, g.lost)
        if it == NU_CAP:
            raise IterationError(f"resolvent at n = {n} not converged after "
                                 f"{NU_CAP} rounds; last ratio {rate:.3g}")
        new = ParityVector(g.parity, g.mcut, padded + tg.data, tg.lost)
        d_prev, d = d, float(np.linalg.norm(new.data - g.data))
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


def _columns(q: FourierPotential, n: int):
    """(cap, real, V e_n, V e_{-n}), built once per n and reused at every lam
    of the alpha_n and root loops.  A real q reads its e_{-n} solve off the
    e_n one at real lam, so its V e_{-n} is None, built where a complex lam
    needs it."""
    cap = mode_cutoff(q, n)
    real = q.is_real
    return cap, real, _column(q, n, cap), None if real else _column(q, -n, cap)


def _column(q: FourierPotential, m: int, cap: int) -> ParityVector:
    """V e_m on its own support."""
    col = multiply_by_potential(q, unit_vector(m, min(cap, abs(m) + 2 * q.K)))
    return col.resized(_support_cut(col))


def _reduced_entries(q: FourierPotential, n: int, lam: complex, tol: float,
                     cols=None, both: bool = True):
    """(a_n, c_+, c_-, tally) at lam; both solves share one denominator table.

    For a real q at real lam, T_n commutes with f_m -> conj f_{-m}, which
    maps V e_n to V e_{-n}, and the reduced matrix is Hermitian: the e_n
    solve alone gives a real a_n and c_- = conj c_+.  Otherwise ``both``
    False skips the e_{-n} solve and returns None for c_-.
    """
    cap, real, col_plus, col_minus = cols or _columns(q, n)
    _require_admissible(q, n, lam, n % 2)
    den = _Denominators(n, lam, cap)
    h, tally = _neumann(q, n, col_plus, den, tol)
    a_n, c_plus = h.coeff(n), h.coeff(-n)
    if real and lam.imag == 0:
        # 0.0 - imag keeps a zero imaginary part at +0
        return complex(a_n.real), c_plus, complex(c_plus.real, 0.0 - c_plus.imag), tally
    if not both:
        return a_n, c_plus, None, tally
    if col_minus is None:
        col_minus = _column(q, -n, cap)
    g, info = _neumann(q, n, col_minus, den, tol)
    return a_n, c_plus, g.coeff(n), tally + info


def alpha_fixed_point(q: FourierPotential, n: int, tol: float = 1e-12) -> complex:
    """The point alpha_n where the reduced diagonal lam - sigma_n - a_n vanishes.

    Direct iteration alpha <- sigma_n + a_n(alpha) from sigma_n = n^2 pi^2.
    The iterate must stay in the disc |alpha - sigma_n| <= n, and once
    n >= ceil(4 ||q||) the sharper radius m^2 / 4n with m = ceil(4 ||q||) is
    checked after convergence.  The mean of q shifts the returned value.
    """
    q0 = q.without_mean()
    alpha, _, _ = _fixed_point(q0, n, tol, _columns(q0, n))
    return alpha + complex(q.mean)


def _fixed_point(q0: FourierPotential, n: int, tol: float, cols, sign: int = 0,
                 seed: complex | None = None, phi: complex = 0j):
    """Fixed point of lam <- sigma_n + a_n(lam) + sign phi_n(lam) in the
    zero-mean frame, from the columns ``cols`` of _columns; returns
    (lam, iterations, tally).

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
        a_n, c_plus, c_minus, info = _reduced_entries(q0, n, lam, tol, cols, both=bool(sign))
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


def _at_alpha(q0: FourierPotential, n: int, tol: float, cols):
    """alpha_n and the reduced entries there: (alpha, a_n, c_+, c_-, tally)."""
    alpha, _, tally = _fixed_point(q0, n, tol, cols)
    a_n, c_plus, c_minus, info = _reduced_entries(q0, n, alpha, tol, cols)
    return alpha, a_n, c_plus, c_minus, tally + info


def _lex_order(a: complex, b: complex) -> tuple[complex, complex]:
    if (a.real, a.imag) <= (b.real, b.imag):
        return a, b
    return b, a


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
    cols = _columns(q0, n)
    alpha, a_alpha, c_plus, c_minus, tally = _at_alpha(q0, n, tol, cols)
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
        xi_a, it_a, info_a = _fixed_point(q0, n, tol, cols, 1, alpha + phi0, phi0)
        xi_b, it_b, info_b = _fixed_point(q0, n, tol, cols, -1, alpha - phi0, phi0)
        root_iters = it_a + it_b
        tally = tally + info_a + info_b
    xi_minus, xi_plus = _lex_order(xi_a, xi_b)
    diag = BlockDiagnostics(tally.iters, root_iters, tally.resid,
                            tally.rate, tally.lost, collapsed)
    return BlockData(n, alpha + mean, a_alpha, p_plus, p_minus,
                     xi_minus + mean, xi_plus + mean, xi_plus - xi_minus, diag)


def gap_roots(q: FourierPotential, n: int,
              tol: float = 1e-12) -> tuple[complex, complex, complex]:
    """Roots xi_-+ of the reduced determinant near sigma_n, lexicographically
    ordered, and the gap length gamma_n = xi_+ - xi_-."""
    block = gap_block(q, n, tol)
    return block.xi_minus, block.xi_plus, block.gamma_n


def adapted_defaults(q: FourierPotential, m: int | None = None,
                     M_thresh: int | None = None,
                     K_out: int | None = None) -> tuple[int, int, int]:
    """The adapted map's (m, M_thresh, K_out), each one not given defaulted.

    From ||q|| with the mean removed: the ball size m = max(1, ceil(4 ||q||)),
    the threshold M_thresh = max(m + 1, 8) just past the ball, and the output
    window K_out = max(K, M_thresh + 7), which keeps an adapted band present
    for trigonometric polynomials.
    """
    if m is None:
        m = max(1, math.ceil(4.0 * q.without_mean().l2()))
    if M_thresh is None:
        M_thresh = max(m + 1, 8)
    if K_out is None:
        K_out = max(q.K, M_thresh + 7)
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
    All three default as adapted_defaults says.  Pass ``diagnostics`` a dict
    to collect per-index solver tallies and the fixed points alpha_n.
    """
    q0 = q.without_mean()
    nq = q0.l2()
    m, M_thresh, K_out = adapted_defaults(q, m, M_thresh, K_out)
    if 4.0 * nq > m:
        raise ContractionError(f"4 ||q|| = {4 * nq:.6g} exceeds the ball size m = {m}")
    if M_thresh < m + 1:
        raise DomainError(f"threshold {M_thresh} sits inside the ball of size {m}")
    coeffs: dict[int, complex] = {}
    for nn in range(1, M_thresh):
        for s in (nn, -nn):
            z = q0.coeff(s)
            if z != 0:
                coeffs[s] = z
    for nn in range(M_thresh, K_out + 1):
        alpha, _, c_plus, c_minus, info = _at_alpha(q0, nn, tol, _columns(q0, nn))
        # same ladder fact as in gap_block: the e_{-n} solve leads with q_{+n}
        coeffs[nn] = c_minus
        coeffs[-nn] = c_plus
        if diagnostics is not None:
            diagnostics[nn] = AdaptedInfo(info.iters, info.resid, info.rate,
                                          info.lost, alpha + complex(q.mean))
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
    q = p
    prev = None
    rate = 0.0
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
        q = FourierPotential(q.K, q.data - diff, complex(q.mean) - diff_mean)
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
    if N < M_thresh:
        raise DomainError(f"N = {N} below the adapted threshold {M_thresh}")
    p = adapted_map(q, m, M_thresh, tol, K_out=K_out)
    return invert_adapted_map(truncate(p, N), m, M_thresh, tol).q


def c_series_terms(q: FourierPotential, n: int, lam: complex,
                   nu_max: int) -> list[complex]:
    """First nu_max + 1 series terms of the off-diagonal entry: the mode -n
    coefficients of T_n^nu V e_n for nu = 0..nu_max.

    Partial sums approach the resolvent value c_plus geometrically in the
    contraction factor.  The window is sized so every term is held exactly.
    """
    _require_admissible(q, n, lam, n % 2)
    if nu_max < 0:
        raise DomainError("nu_max must be >= 0")
    mcut = n + 2 * q.K * (nu_max + 1) + 8
    f = multiply_by_potential(q, unit_vector(n, mcut))
    terms = [f.coeff(-n)]
    for _ in range(nu_max):
        f = apply_Tn(q, n, lam, f)
        terms.append(f.coeff(-n))
    return terms
