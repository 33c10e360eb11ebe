"""Acceptance checks: twelve end-to-end criteria, one verdict line each.

The suite crosses both eigenvalue solvers, the named potential families,
the weighted tail bounds, the adapted-coefficient map, and the
reproducibility contract.  Two session fixtures keep the expensive oracle
sweeps to a single pass: `test_set` carries gap records for the four
shared potentials, `deep_gaps` the high-precision gap models of the unit
cosine potential whose gaps fall below double-precision spacing.
"""

import cmath
import collections
import math
import time

import pytest

from hillgap import blockdecomp, floquet, harness, seqspace, weights
from hillgap.verify import (
    COLLAPSED_GAP_TOL,
    INDIVIDUAL_DELTA_FACTOR,
    INDIVIDUAL_GAMMA_FACTOR,
    THEOREM1_FACTORS,
)
from hillgap.seqspace import tail, wnorm

FREE = seqspace.make_fourier({}, K=1)
PI2 = math.pi ** 2

TRIVIAL = weights.trivial()
POLY2 = weights.polynomial(2)
GEVREY = weights.gevrey(0, 1, 0.5)
NORM_WEIGHTS = ((TRIVIAL, "trivial"), (POLY2, "polynomial"), (GEVREY, "gevrey"))

Rec = collections.namedtuple("Rec", "gamma ceiling resolved delta")


@pytest.fixture(scope="session", autouse=True)
def _warm():
    # table caches and mp context setup land here so the timed checks
    # below see steady-state costs only
    q = seqspace.make_mathieu(0.25)
    floquet.discriminant(q, 5.0, method="taylor")
    floquet.discriminant(q, 5.0, method="rk4")
    floquet.periodic_eigs(q, 3, dps=30)
    blockdecomp.gap_block(q, 2)


def _window_floor(q):
    return max(1, math.ceil(4.0 * q.without_mean().l2()))


def _survey(q, lo, hi):
    out = {}
    for n in range(lo, hi + 1):
        lm, lp, info = floquet.periodic_eigs_info(q, n)
        sigma = floquet.sturm_liouville_eig(q, n)
        gamma = lp - lm
        ceiling = abs(gamma) if info["resolved"] else max(abs(gamma),
                                                          info["gamma_floor"])
        out[n] = Rec(gamma, ceiling, info["resolved"], sigma - (lm + lp) / 2.0)
    return out


def _wdiff(q1, q2, w):
    span = max(q1.K, q2.K)
    total = abs(complex(q1.mean) - complex(q2.mean)) ** 2
    for k in range(1, span + 1):
        total += w(k) ** 2 * (abs(q1.coeff(k) - q2.coeff(k)) ** 2
                              + abs(q1.coeff(-k) - q2.coeff(-k)) ** 2)
    return math.sqrt(total)


@pytest.fixture(scope="session")
def test_set():
    """Gap and Dirichlet records for the shared potentials: the unit cosine
    plus three seeded random real potentials.  Two of the random draws decay
    like exp(-sqrt(n)); the third decays like exp(-n) so the polynomial
    weight admits in-window tail indices."""
    sets = []
    q = seqspace.make_mathieu(1.0)
    sets.append(("mathieu", q, _survey(q, _window_floor(q), 10)))
    for seed, decay in ((202, GEVREY), (303, GEVREY),
                        (7, weights.exponential(0, 1.0))):
        q = seqspace.make_random(decay, seed=seed, K=16)
        sets.append((f"random-{seed}", q, _survey(q, _window_floor(q), 16)))
    return sets


@pytest.fixture(scope="session")
def deep_gaps():
    """|gamma_n| of the unit cosine for n = 3..8 from the dip model.

    The eigenvalue pair itself rounds to doubles, so gaps below the double
    spacing near n^2 pi^2 are read from the critical-point diagnostics
    rather than the endpoint difference."""
    q = seqspace.make_mathieu(1.0)
    out = {}
    for n in range(3, 9):
        _, _, info = floquet.periodic_eigs_info(q, n, tol=1e-26,
                                                method="mp", dps=60)
        assert info["resolved"]
        out[n] = abs(2.0 * cmath.sqrt(-2.0 * info["dip"] / info["curvature"]))
    return out


def test_zero_potential_exactness(verdict):
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        target = n * n * PI2
        for method in ("taylor", "rk4"):
            lm, lp = floquet.periodic_eigs(FREE, n, method=method)
            worst = max(worst, abs(lm - target) / target,
                        abs(lp - target) / target)
        b = blockdecomp.gap_block(FREE, n)
        worst = max(worst, abs(b.xi_minus - target) / target,
                    abs(b.xi_plus - target) / target)
    disc = 0.0
    for k in range(20):
        lam = 0.5 + 7.5 * k
        target = 2.0 * cmath.cos(cmath.sqrt(lam))
        for method in ("taylor", "rk4"):
            disc = max(disc, abs(floquet.discriminant(FREE, lam,
                                                      method=method) - target))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and disc <= 1e-8 and elapsed < 1.0
    verdict("AC1 zero-potential exactness", ok,
            f"rel {worst:.1e}, disc {disc:.1e}, {elapsed:.2f} s")


def test_oracle_block_equivalence(verdict):
    t0 = time.perf_counter()
    worst_xi = worst_conj = 0.0
    for mu in (0.25, 0.5, 1.0):
        q = seqspace.make_mathieu(mu)
        for n in range(_window_floor(q), 11):
            lm, lp = floquet.periodic_eigs(q, n)
            blk = blockdecomp.gap_block(q, n)
            allowance = 1e-6 * n * n
            worst_xi = max(worst_xi, abs(blk.xi_minus - lm) / allowance,
                           abs(blk.xi_plus - lp) / allowance)
            worst_conj = max(worst_conj,
                             abs(blk.p_minus - blk.p_plus.conjugate()))
    elapsed = time.perf_counter() - t0
    ok = worst_xi <= 1.0 and worst_conj <= 1e-10 and elapsed < 30.0
    verdict("AC2 oracle/block equivalence", ok,
            f"xi at {worst_xi:.1e} of allowance, conj {worst_conj:.1e}, "
            f"{elapsed:.1f} s")


def test_one_sided_gaps_collapse(verdict):
    worst = 0.0
    ok = True
    for coeffs in ([[1.0, 0.0]], [[1.0, 0.0], [0.5, 0.0]]):
        cfg = harness.parse_config({
            "kind": "gasymov",
            "potential": {"type": "gasymov", "coeffs": coeffs},
            "n_range": [3, 6],
        })
        rep = harness.run_verify(cfg)
        ok = ok and rep["pass"]
        for item in rep["items"]:
            worst = max(worst, item["gamma_ceiling"])
            ok = ok and item["collapsed"] and item.get("exact_zero", False)
    ok = ok and worst <= 1e-7
    verdict("AC3 one-sided potentials close every gap", ok,
            f"worst ceiling {worst:.1e}, block entries exactly zero")


def test_cosine_gap_asymptotics(verdict, deep_gaps):
    mu = 1.0
    devs = []
    ok = True
    for n in range(3, 7):
        predicted = 8.0 * PI2 * (mu / (8.0 * PI2)) ** n \
            / math.factorial(n - 1) ** 2
        ratio = deep_gaps[n] / predicted
        ok = ok and 0.85 <= ratio <= 1.15
        devs.append(abs(ratio - 1.0))
    # the deviation itself decays quadratically across the range
    for a, b, n in zip(devs, devs[1:], range(3, 6)):
        ok = ok and b <= a * (n / (n + 1.0)) ** 2 * 1.15
    verdict("AC4 cosine gap asymptotics", ok,
            "deviations " + ", ".join(f"{d:.1e}" for d in devs))


def test_tail_inequality(verdict, test_set):
    c_tail, c_norm = THEOREM1_FACTORS
    counts = {name: 0 for _, name in NORM_WEIGHTS}
    worst = math.inf
    ok = True
    for _, q, rec in test_set:
        hi = max(rec)
        for w, name in NORM_WEIGHTS:
            nw = wnorm(q, w)
            for N in range(max(min(rec), math.ceil(4.0 * nw)), hi + 1):
                lhs = sum(w(n) ** 2 * rec[n].ceiling ** 2
                          for n in range(N, hi + 1))
                rhs = c_tail * wnorm(tail(q, N), w) ** 2 + c_norm / N * nw ** 4
                worst = min(worst, rhs - lhs)
                counts[name] += 1
                ok = ok and rhs - lhs > 0.0
    ok = ok and all(c > 0 for c in counts.values())
    verdict("AC5 weighted tail inequality", ok,
            f"{sum(counts.values())} admissible N, worst margin {worst:.3g}")


def test_individual_bounds(verdict, test_set):
    ok = True
    onsets = []
    for _, q, rec in test_set:
        ns = sorted(rec)
        for w, _ in NORM_WEIGHTS:
            nw = wnorm(q, w)
            for n in ns:
                if n >= 4.0 * nw:
                    ok = ok and w(n) * rec[n].ceiling \
                        <= INDIVIDUAL_GAMMA_FACTOR * nw
            onset = next((c for c in ns
                          if all(w(n) * abs(rec[n].delta)
                                 <= INDIVIDUAL_DELTA_FACTOR * nw
                                 for n in ns if n >= c)), None)
            ok = ok and onset is not None
            onsets.append(onset)
    verdict("AC6 individual gap and Dirichlet bounds", ok,
            f"delta bound onsets {sorted(set(onsets))}")


def test_skew_product_bound(verdict, test_set, deep_gaps):
    lo_ratio, hi_ratio = math.inf, 0.0
    checked = 0
    for label, q, rec in test_set:
        if label == "mathieu":
            continue
        for n in sorted(rec):
            if not rec[n].resolved:
                continue
            blk = blockdecomp.gap_block(q, n)
            prod = blk.p_plus * blk.p_minus
            if prod == 0 or not 0.25 <= abs(blk.p_plus / blk.p_minus) <= 4.0:
                continue
            ratio = abs(rec[n].gamma) ** 2 / abs(prod)
            lo_ratio, hi_ratio = min(lo_ratio, ratio), max(hi_ratio, ratio)
            checked += 1
    # cosine gaps sit below double spacing; the model gap and a tightened
    # coefficient ladder recover both sides of the product
    q = seqspace.make_mathieu(1.0)
    for n in range(3, 9):
        alpha = blockdecomp.alpha_fixed_point(q, n)
        _, c_plus, c_minus = blockdecomp.coeff_an_cn(q, n, alpha, tol=1e-30)
        if not 0.25 <= abs(c_plus / c_minus) <= 4.0:
            continue
        ratio = deep_gaps[n] ** 2 / abs(c_plus * c_minus)
        lo_ratio, hi_ratio = min(lo_ratio, ratio), max(hi_ratio, ratio)
        checked += 1
    ok = checked >= 30 and 1.0 <= lo_ratio and hi_ratio <= 9.0
    verdict("AC7 two-sided skew product bound", ok,
            f"ratio range [{lo_ratio:.4f}, {hi_ratio:.4f}] over {checked} gaps")


def test_adapted_map_diffeomorphism(verdict):
    worst_rate = worst_trip = 0.0
    norms_ok = True
    pots = (seqspace.make_mathieu(0.5),
            seqspace.make_random(GEVREY, seed=202, K=16),
            seqspace.make_random(weights.exponential(0, 1.0), seed=7, K=16))
    for q in pots:
        m = _window_floor(q)
        thresh = max(m + 1, 8)
        p = blockdecomp.adapted_map(q, m, thresh)
        back = blockdecomp.invert_adapted_map(p, m, thresh)
        worst_rate = max(worst_rate, back.rate)
        for w, _ in NORM_WEIGHTS:
            worst_trip = max(worst_trip, _wdiff(back.q, q, w))
            nq = wnorm(q, w)
            norms_ok = norms_ok and 0.5 * nq <= wnorm(p, w) <= 2.0 * nq
    ok = worst_trip <= 1e-10 and norms_ok and worst_rate <= 0.2
    verdict("AC8 adapted map is a tame diffeomorphism", ok,
            f"round trip {worst_trip:.1e}, rate {worst_rate:.2g}")


def test_finite_gap_density(verdict):
    cfg = harness.parse_config({
        "kind": "dense",
        "potential": {"type": "mathieu", "mu": 0.5},
        "weight": {"kind": "polynomial", "r": 2},
        "m": 2, "M_thresh": 3, "N_values": [3, 4, 5], "span": 4,
        # the inverse iteration has to land well inside the smallest
        # Lipschitz bound or the distance check saturates at the solver floor
        "tol": 1e-14,
    })
    rep = harness.run_verify(cfg)
    distances = [item["distance"] for item in rep["items"]]
    ceilings = [c["gamma_ceiling"] for item in rep["items"]
                for c in item["collapsed"]]
    ok = rep["pass"] and all(b < a for a, b in zip(distances, distances[1:])) \
        and max(ceilings) <= COLLAPSED_GAP_TOL
    verdict("AC9 truncated-map potentials approach the target", ok,
            "distances " + ", ".join(f"{d:.1e}" for d in distances))


def test_tempered_submultiplicative(verdict):
    cfg = harness.parse_config({
        "kind": "weights_check",
        "weights": [{"kind": "gevrey", "r": 0, "a": 1, "sigma": 0.5},
                    {"kind": "log_tempered", "r": 0, "a": 1, "alpha": 1}],
        "N": 200,
        "eps_list": [0.2, 0.1, 0.05],
    })
    rep = harness.run_verify(cfg)
    tempered = [t for item in rep["items"] for t in item["tempered"]]
    ok = rep["pass"] and len(tempered) == 6 \
        and all(t["ok"] and t["violation"] is None for t in tempered)
    verdict("AC10 tempered weights stay submultiplicative", ok,
            f"crossovers {[t['crossover'] for t in tempered]}")


def test_superexponential_decay(verdict):
    cfg = harness.parse_config({
        "kind": "theorem5",
        "potential": {"type": "mathieu", "mu": 0.5},
        "weight": {"kind": "superexp", "sigma": 2},
        "n_range": [4, 12],
        "a": 1.0,
    })
    rep = harness.run_verify(cfg)
    headroom = min(item["bound"] / item["gamma_ceiling"]
                   for item in rep["items"])
    ok = rep["pass"] \
        and all(item["holds"] and item.get("psi_slack_ok", True)
                and item.get("individual_ok", True) for item in rep["items"])
    verdict("AC11 superexponential gap decay", ok,
            f"min bound/ceiling {headroom:.2g}")


def test_numerical_hygiene(verdict):
    worst_det = 0.0
    for q in (FREE, seqspace.make_mathieu(1.0),
              seqspace.make_gasymov([1.0, 0.5j])):
        for lam in (0.3, 47.1, 200.0 + 11.0j):
            for method in ("taylor", "rk4"):
                m = floquet.monodromy(q, lam, method=method)
                worst_det = max(worst_det, abs(m.det() - 1.0))

    q = seqspace.make_mathieu(1.0)
    ref = floquet.periodic_eigs(q, 2, method="taylor")
    errs = []
    for steps in (128, 256, 512):
        lm, lp = floquet.periodic_eigs(q, 2, method="rk4", steps=steps)
        errs.append(max(abs(lm - ref[0]), abs(lp - ref[1])))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]

    raw = {
        "kind": "oracle",
        "potential": {"type": "random", "seed": 17, "K": 8,
                      "decay": {"kind": "gevrey", "r": 0, "a": 1,
                                "sigma": 0.5}},
        "n_range": [1, 4],
        "oracle": {"method": "taylor"},
    }
    csv_a = harness.rows_to_csv(harness.run_table(harness.parse_config(raw))[0])
    csv_b = harness.rows_to_csv(harness.run_table(harness.parse_config(raw))[0])
    csv_c = harness.rows_to_csv(harness.run_table(harness.parse_config(raw))[0])

    ok = worst_det <= 1e-10 and all(o >= 3.5 for o in orders) \
        and csv_a == csv_b == csv_c
    verdict("AC12 numerical hygiene", ok,
            f"det {worst_det:.1e}, observed orders "
            + ", ".join(f"{o:.2f}" for o in orders) + ", csv stable")
