"""Independent spectra for the benchmark checks.

Neither hillgap solver is used here.  The periodic (n even) and antiperiodic
(n odd) eigenvalues of -y'' + q y come from the truncated Fourier (Hill)
matrix on the modes e^{i pi m x}, m = n mod 2, as in Deconinck & Kutz,
J. Comput. Phys. 219 (2006):

    H[m, m'] = pi^2 m^2 delta(m, m') + q_{(m - m')/2}.

For the cosine potential mu cos(2 pi x) the matrix splits into an even
(cosine) and an odd (sine) tridiagonal block; each is solved at high
precision by Newton on its characteristic polynomial, so that gaps far
below double spacing stay resolved.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

PI2 = math.pi ** 2
PAD = 24          # Hill-matrix modes kept beyond the couplings of n
COSINE_DPS = 50   # digits of the cosine edges
COSINE_EXTRA = 40  # tridiagonal modes kept beyond n, in steps of 2


def hill_pairs(coeffs: dict[int, complex], ns) -> dict:
    """{n: (lam_minus, lam_plus, ratio)} of the mean-zero potential with
    Fourier coefficients ``coeffs`` (k != 0 -> q_k), for each index in ns.

    The edges are the two Hill-matrix eigenvalues nearest n^2 pi^2, in
    lexicographic order (real part, then imaginary part).  ratio is
    |u_n / u_{-n}|^2 for the eigenvector u of lam_plus; the reduced 2x2
    equations (lam - sigma_n - a_n) u_{+-n} = p_{+-n} u_{-+n} make it equal
    to |p_{+n} / p_{-n}|.  One matrix per parity serves every n; its window
    |m| <= max(ns) + 2 K + 2 PAD holds every direct coupling of the resonant
    modes plus a margin that, for the decaying potentials used here, puts
    the truncation error far below double precision.
    """
    K = max(abs(k) for k in coeffs)
    out = {}
    for parity in (0, 1):
        want = [n for n in ns if n % 2 == parity]
        if not want:
            continue
        top = max(want) + 2 * K + 2 * PAD
        modes = np.arange(-top, top + 1, 2)
        H = np.diag(PI2 * modes.astype(float) ** 2 + 0j)
        for k, z in coeffs.items():
            # q_k e^{2 pi i k x} e^{i pi m x} = q_k e^{i pi (m + 2k) x}
            H += z * np.eye(len(modes), k=-k)
        ev, vecs = np.linalg.eig(H)
        for n in want:
            near = np.argsort(np.abs(ev - n * n * PI2))[:2]
            lo, hi = sorted(near, key=lambda i: (ev[i].real, ev[i].imag))
            u = vecs[:, hi]
            ratio = abs(u[(top + n) // 2]) ** 2 / abs(u[(top - n) // 2]) ** 2
            out[n] = (complex(ev[lo]), complex(ev[hi]), float(ratio))
    return out


def _tridiagonal_root(diag, off, seed, dps):
    """Root near ``seed`` of det(T - lam) for the symmetric tridiagonal T."""
    with mp.workdps(dps + 10):
        lam = mp.mpf(seed)
        for _ in range(60):
            p0, p1 = mp.mpf(1), diag[0] - lam
            d0, d1 = mp.mpf(0), mp.mpf(-1)
            for j in range(1, len(diag)):
                e2 = off[j - 1] ** 2
                p0, p1 = p1, (diag[j] - lam) * p1 - e2 * p0
                d0, d1 = d1, (diag[j] - lam) * d1 - p0 - e2 * d0
            step = p1 / d1
            lam -= step
            if abs(step) <= abs(lam) * mp.mpf(10) ** (-dps - 5):
                break
        else:
            raise ArithmeticError("tridiagonal Newton did not converge")
        return +lam


def cosine_edges(mu: float, n: int):
    """(lam_minus, lam_plus) of mu cos(2 pi x) at index n, to COSINE_DPS digits.

    The cosine block holds cos(pi m x), the sine block sin(pi m x), m = n mod 2
    up to n + 2 COSINE_EXTRA.  Coupling to m +- 2 is mu/2; the lowest modes
    carry the reflection: cos 0 couples with weight mu/sqrt 2, and cos(pi x)
    / sin(pi x) pick up +-mu/2 on the diagonal.  Returns mpmath numbers,
    smaller first.
    """
    dps = COSINE_DPS
    with mp.workdps(dps + 10):
        half = mp.mpf(mu) / 2
        pi2 = mp.pi ** 2
        odd = n % 2
        cos_m = list(range(odd, n + 2 * COSINE_EXTRA + 1, 2))
        sin_m = [m for m in cos_m if m > 0]
        cos_d = [pi2 * m * m for m in cos_m]
        sin_d = [pi2 * m * m for m in sin_m]
        cos_e = [half] * (len(cos_m) - 1)
        sin_e = [half] * (len(sin_m) - 1)
        if odd:
            cos_d[0] += half
            sin_d[0] -= half
        else:
            cos_e[0] = mp.sqrt(2) * half
        edges = []
        for d, e in ((cos_d, cos_e), (sin_d, sin_e)):
            seed = _double_eig(d, e, n * n * math.pi ** 2)
            edges.append(_tridiagonal_root(d, e, seed, dps))
        return tuple(sorted(edges))


def _double_eig(diag, off, center):
    T = (np.diag([float(x) for x in diag])
         + np.diag([float(x) for x in off], 1) + np.diag([float(x) for x in off], -1))
    ev = np.linalg.eigvalsh(T)
    return float(ev[np.argmin(np.abs(ev - center))])


def mathieu_edges(mu: float, n: int) -> tuple[float, float]:
    """The same pair from scipy's Mathieu characteristic values, in doubles:
    lam = pi^2 a_n(mu / (2 pi^2)) and pi^2 b_n(mu / (2 pi^2))."""
    from scipy.special import mathieu_a, mathieu_b

    qm = mu / (2 * PI2)
    return tuple(sorted((PI2 * float(mathieu_b(n, qm)), PI2 * float(mathieu_a(n, qm)))))
