"""Verification kinds as claims over gap records, and the one evaluator.

Each kind that ``hillgap verify`` runs is a result of the paper, declared in
CLAIMS: the indices it admits, the quantity it reads off each harness.Gap,
its bound, its pass rule, its charge for an unresolved value and its summary
line.  evaluate sweeps the gaps through harness._gap, the one solver call,
into a report that carries the measured preconditions (weighted norms,
admissibility thresholds), so a FAIL is never confused with an inadmissible
input.  A one-sided bound charges an unresolved gap at its noise ceiling
(CEILING), a two-sided one fails the item (FAIL), and one note names the
indices.  harness loads this module for a verification run only.
"""

from __future__ import annotations

import math
from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

from . import blockdecomp, weights
from .harness import ConfigError, ExperimentConfig, _gap, build_weight
from .seqspace import FourierPotential, tail, truncate, wnorm
from .weights import Weight

# verification constants fixed across configs
COLLAPSED_GAP_TOL = 1e-7
THEOREM1_FACTORS = (9.0, 576.0)
THEOREM4_FACTORS = (4.0, 256.0)
INDIVIDUAL_GAMMA_FACTOR = 6.0
INDIVIDUAL_DELTA_FACTOR = 4.0

# the charge for an unresolved value, as the head of the note that names it
CEILING = "gaps charged at the noise ceiling"          # one-sided: the ceiling bounds it
FAIL = "gaps below the oracle resolution floor, failed"  # two-sided: the item fails


class Claim(NamedTuple):
    """What a verification kind asserts.  ``item(n, value, ctx)`` is the
    report item at index n (for a tail, value is (lhs, rhs, ||tail||_w) at
    N), ``verdict(items)`` is (pass, notes, extra report fields), and
    ``line(item)`` the item's summary line.  ``quantity(gap)``
    is (value, resolved); a claim over weights reads none.  ``subjects(ctx)``
    sweeps several potentials, (head, q, indices) each, which ``group(head,
    entries)`` makes one item each; else the sweep is ``config.n_range``."""

    item: Callable[[int, Any, SimpleNamespace], dict]
    verdict: Callable[[list], tuple[bool, list, dict]]
    line: Callable[[dict], str]
    quantity: Callable | None = attrgetter("ceiling", "resolved")
    charge: str = CEILING
    tail: tuple[float, float] | None = None  # (f0, f1) of a weighted tail bound
    admissible: bool = False                  # n >= 4 ||q||_w only
    source: str = "oracle"                    # the _gap source of the quantity
    setup: Callable[[ExperimentConfig], dict] | None = None  # checks before any solve
    subjects: Callable[[SimpleNamespace], Any] | None = None
    group: Callable[[dict, list], dict] | None = None


def evaluate(config: ExperimentConfig) -> dict:
    """The report of a verification kind: its claim checked over its sweep."""
    claim = _claim(config.kind, config.echo)
    ctx = SimpleNamespace(config=config, **(claim.setup(config) if claim.setup else {}))
    if claim.quantity is None:  # a claim over weights: no potential, no gap
        items = [claim.item(spec, None, ctx) for spec in config.weight_specs]
        return _report(config, claim.verdict(items), {}, items, [])
    q = config.potential
    ctx.nw = _finite_wnorm(q, config.weight, "potential")
    ctx.pre = {"norm_q_w": ctx.nw, "four_norm_q_w": 4.0 * ctx.nw,
               "norm_q_l2": q.l2(), "block_floor": 2.0 * q.without_mean().l2()}
    notes, subjects = [], claim.subjects(ctx) if claim.subjects else None
    if subjects is None:
        lo, hi = config.n_range
        first = max(lo, math.ceil(4.0 * ctx.nw)) if claim.admissible else lo
        if claim.tail and first > lo:  # no tail from these N is claimed
            notes.append(f"N < 4||q||_w skipped: {list(range(lo, min(first, hi + 1)))}")
        if first > hi:
            nothing = f"no admissible {'N' if claim.tail else 'n'} in range"
            return _report(config, (False, [nothing], {}), ctx.pre, [], notes)
        subjects = [(None, q, range(first, hi + 1))]
    items, unresolved = [], []
    for head, q_s, indices in subjects:
        read = {n: claim.quantity(_gap(q_s, n, config, claim.source)) for n in indices}
        missed = [n for n, (_, resolved) in read.items() if not resolved]
        values = {n: value for n, (value, _) in read.items()}
        if claim.tail:
            values = _tail_sums(ctx, values, claim.tail)
        entries = [claim.item(n, value, ctx) for n, value in values.items()]
        for entry in entries if claim.charge is FAIL else ():
            entry["holds"] = entry["holds"] and entry["n"] not in missed
        items += entries if head is None else [claim.group(head, entries)]
        if missed:
            unresolved.append(f"N = {head['N']}: n = {missed}" if head else f"n = {missed}")
    charged = [f"{claim.charge}: " + "; ".join(unresolved)] if unresolved else []
    return _report(config, claim.verdict(items), ctx.pre, items, notes, charged)


def _claim(kind: str, echo: dict) -> Claim:
    # Mathieu at mu = 0 is the free potential: its claim is that every gap closes
    free = kind == "mathieu" and float(echo["potential"]["mu"]) == 0.0
    return _FREE if free else CLAIMS[kind]


def _report(config: ExperimentConfig, verdict: tuple, preconditions: dict, items: list,
            notes: list[str], charged=()) -> dict:
    """The report: the notes of sweep, verdict and charge, then the verdict's fields."""
    ok, more, extra = verdict
    return {"kind": config.kind, "pass": bool(ok), "config": config.echo,
            "preconditions": preconditions, "items": items,
            "notes": [*notes, *more, *charged], **extra}


def _finite_wnorm(q: FourierPotential, w: Weight, label: str) -> float:
    value = wnorm(q, w)
    if not math.isfinite(value):
        raise ConfigError(f"{label} has infinite weighted norm under this weight")
    return value


def _tail_sums(ctx: SimpleNamespace, values: dict, factors: tuple[float, float]) -> dict:
    """N -> (lhs, rhs, ||tail||_w) for each index N of ``values``, in order:
    lhs sums (w(n) v_n)^2 over N <= n <= the last index, and
    rhs = f0 ||tail||_w^2 + (f1 / N) ||q||_w^4."""
    w, hi = ctx.config.weight, max(values)
    tails = {N: wnorm(tail(ctx.config.potential, N), w) for N in values}
    return {N: (sum((w(n) * values[n]) ** 2 for n in range(N, hi + 1)),
                factors[0] * t ** 2 + (factors[1] / N) * ctx.nw ** 4, t)
            for N, t in tails.items()}


def _every(holds: Callable[[dict], bool]):
    """The pass rule that every item holds."""
    return lambda items: (all(map(holds, items)), [], {})


def _ok(holds: bool) -> str:
    return "ok" if holds else "violated"


def summary(report: dict) -> str:
    """The verdict, preconditions, notes and one line per item, as the report's claim writes it."""
    lines = [f"{report['kind']}: {'PASS' if report['pass'] else 'FAIL'}"]
    pre = report["preconditions"]
    if pre:
        lines.append("  " + ", ".join(f"{k} = {v:.6g}" for k, v in pre.items()))
    lines += [f"  note: {note}" for note in report["notes"]]
    claim = _claim(report["kind"], report["config"])  # the kind and config it echoes
    lines += ["  " + claim.line(item) for item in report["items"]]
    return "\n".join(lines) + "\n"


def _onset(items: list) -> tuple[bool, list, dict]:
    """Theorem 4's admissible onset is empirical: the first N where the
    inequality holds, and it must keep holding from there on."""
    onset = next((item["N"] for item in items if item["holds"]), None)
    notes = [f"empirical onset N = {onset}" if onset is not None
             else "inequality never holds in range"]
    ok = onset is not None and all(item["holds"] for item in items if item["N"] >= onset)
    return ok, notes, {"onset": onset}


def _theorem5_setup(config: ExperimentConfig) -> dict:
    if weights.classify_growth(config.weight) != weights.SUPEREXPONENTIAL:
        raise ConfigError("this verification needs a superexponential weight")
    w_exp = weights.exponential(0.0, config.a)
    return {"w_exp": w_exp, "nw_exp": _finite_wnorm(config.potential, w_exp, "potential")}


def _theorem5_item(n: int, ceiling: float, ctx) -> dict:
    """|gamma_n| <= 2n exp(-n psi(n~)), n~ = n / (4 ||q||_w); for the
    superexp weight, psi against its continuous relaxation; and past its own
    floor, the estimate w_a(n) |gamma_n| <= 6 ||q||_{w_a} under e^{a |n|}."""
    w = ctx.config.weight
    ntilde = n / (4.0 * ctx.nw)
    psi_val = weights.psi(w, ntilde)
    bound = 2.0 * n * math.exp(-n * psi_val)
    item = {"n": n, "ntilde": ntilde, "psi": psi_val, "bound": bound,
            "gamma_ceiling": ceiling, "holds": ceiling <= bound}
    if w.kind == "superexp":
        psi_c = weights.psi_continuous(w.sigma, ntilde)
        item["psi_continuous"] = psi_c
        item["psi_slack_ok"] = _psi_slack_ok(w, ntilde, psi_val, psi_c)
    if n >= 4.0 * ctx.nw_exp:
        item["individual_ok"] = ctx.w_exp(n) * ceiling <= INDIVIDUAL_GAMMA_FACTOR * ctx.nw_exp
    return item


def _psi_slack_ok(w: Weight, r: float, psi_val: float, psi_c: float) -> bool:
    """The discrete minimum sits between the continuous relaxation and the
    relaxation evaluated at the rounded continuous minimizer."""
    if r <= 1.0:
        return psi_val >= psi_c - 1e-12
    m_c = (math.log(r) / (w.sigma - 1.0)) ** (1.0 / w.sigma)
    upper = min((math.log(r) + m ** w.sigma) / m
                for m in {max(1, math.floor(m_c)), max(1, math.ceil(m_c))})
    return psi_c - 1e-12 <= psi_val <= upper + 1e-12


def _mathieu_item(n: int, gamma: float, ctx) -> dict:
    """The ratio to the two-mode asymptotics 8 pi^2 (mu / 8 pi^2)^n / ((n-1)!)^2
    sits in the band 1 -+ c/n^2, and within [0.85, 1.15] for n >= 3 at mu <= 1."""
    mu, eight = float(ctx.config.echo["potential"]["mu"]), 8.0 * math.pi ** 2
    formula = eight * (mu / eight) ** n / math.factorial(n - 1) ** 2
    ratio, band = gamma / formula, ctx.config.c / (n * n)
    holds = abs(ratio - 1.0) <= band and (n < 3 or mu > 1.0 or 0.85 <= ratio <= 1.15)
    return {"n": n, "gamma": gamma, "formula": formula, "ratio": ratio, "band": band,
            "holds": holds}


def _collapsed(n: int, ceiling: float, ctx) -> dict:
    return {"n": n, "gamma_ceiling": ceiling, "collapsed": ceiling <= COLLAPSED_GAP_TOL}


def _gasymov_item(n: int, ceiling: float, ctx) -> dict:
    """A one-sided potential's gaps collapse, and past the block floor its
    reduced entries a_n, c_n are exactly zero (no lattice path returns)."""
    item = _collapsed(n, ceiling, ctx)
    if n > ctx.pre["block_floor"]:
        # the roots collapse onto alpha_n, so the block costs one alpha loop
        b = _gap(ctx.config.potential, n, ctx.config, "block")
        item.update(a_n=b.a_n, c_n=b.pm, exact_zero=(b.a_n == 0 and b.pm == 0))
    return item


def _approximants(ctx):
    """(head, q_N, N < n <= N + span) for each N: q_N inverts the truncated
    adapted coefficients of q, and the head carries ||q_N - q||_w and the
    inverse-Lipschitz bound 2 ||above-N part of Phi(q)||_w."""
    c = ctx.config
    p = blockdecomp.adapted_map(c.potential, c.m, c.M_thresh, c.tol, K_out=c.K_out)
    for N in sorted(c.N_values):
        q_n = blockdecomp.invert_adapted_map(truncate(p, N), c.m, c.M_thresh, c.tol).q
        head = {"N": N, "distance": _wnorm_diff(q_n, c.potential, c.weight),
                "lipschitz_bound": 2.0 * wnorm(tail(p, N + 1), c.weight)}
        yield head, q_n, range(N + 1, N + c.span + 1)


def _wnorm_diff(q1: FourierPotential, q2: FourierPotential, w: Weight) -> float:
    """||q1 - q2||_w across possibly different windows."""
    total = abs(complex(q1.mean) - complex(q2.mean)) ** 2
    for n in range(1, max(q1.K, q2.K) + 1):
        for s in (n, -n):
            d = abs(q1.coeff(s) - q2.coeff(s))
            if d:
                total += (w(s) * d) ** 2
    return math.sqrt(total)


def _dense_item(head: dict, entries: list) -> dict:
    holds = (head["distance"] <= head["lipschitz_bound"] + 1e-12
             and all(entry["collapsed"] for entry in entries))
    return {**head, "collapsed": entries, "holds": holds}


def _monotone(items: list) -> tuple[bool, list, dict]:
    """Every approximant holds, and the distances do not grow with N."""
    distances = [item["distance"] for item in items]
    monotone = all(b <= a + 1e-15 for a, b in zip(distances, distances[1:]))
    return (all(item["holds"] for item in items) and monotone,
            [] if monotone else ["distances are not monotone in N"], {})


def _weights_item(spec: dict, _, ctx) -> dict:
    """Submultiplicativity and growth class of a weight, and for every eps
    the violations of its tempering min(e^{eps |n|}, w) over the window,
    with the first n where e^{eps n} overtakes w."""
    N = ctx.config.submult_N
    w = build_weight(spec)
    try:
        base = weights.check_submultiplicative(w, N)
    except weights.TableDomainError as exc:
        raise ConfigError(f"{exc.args[0]}; the submultiplicativity check reads "
                          f"n = 0..{2 * N} (2N)") from None
    item = {"weight": spec, "base_ok": base.ok,
            "violation": list(base.violation) if base.violation else None,
            "growth_class": weights.classify_growth(w), "tempered": []}
    for eps in ctx.config.eps_list:
        res = weights.check_submultiplicative(weights.temper(w, eps), N)
        item["tempered"].append({
            "eps": eps, "ok": res.ok, "violation": list(res.violation) if res.violation else None,
            "crossover": next((n for n in range(1, N + 1) if eps * n >= w.log_value(n)), None)})
    return item


def _sum_line(i: dict) -> str:
    return f"N = {i['N']}: lhs = {i['lhs']:.6g}, rhs = {i['rhs']:.6g}, margin = {i['margin']:.6g}"


def _ceiling_line(i: dict) -> str:
    zero = f", reduced entries exactly zero: {i['exact_zero']}" if "exact_zero" in i else ""
    return f"n = {i['n']}: |gamma| <= {i['gamma_ceiling']:.6g}" + zero


def _weights_line(i: dict) -> str:
    tempered = ", ".join(f"eps = {t['eps']:g}: {_ok(t['ok'])} (crossover {t['crossover']})"
                         for t in i["tempered"])
    return (f"{i['weight']['kind']}: class {i['growth_class']}, submultiplicative {i['base_ok']}"
            + (f"; tempered {tempered}" if tempered else ""))


CLAIMS = {
    # sum of w(n)^2 |gamma_n|^2 over N <= n <= n_hi, for every admissible N,
    # stays under 9 ||tail||_w^2 + (576/N) ||q||_w^4
    "theorem1": Claim(lambda N, t, ctx: {"N": N, "lhs": t[0], "rhs": t[1], "margin": t[1] - t[0],
                                         "tail_norm": t[2]},
                      _every(lambda item: item["margin"] >= 0.0), _sum_line,
                      tail=THEOREM1_FACTORS, admissible=True),
    # the same for delta_n = sigma_n - tau_n with factors 4 and 256/N; delta
    # is read as returned, for gap_record flags no unresolved delta
    "theorem4": Claim(lambda N, t, ctx: {"N": N, "lhs": t[0], "rhs": t[1], "margin": t[1] - t[0],
                                         "holds": t[1] - t[0] >= 0.0},
                      _onset, _sum_line, lambda g: (abs(g.delta), True),
                      tail=THEOREM4_FACTORS, source="dirichlet"),
    "theorem5": Claim(_theorem5_item,
                      _every(lambda item: item["holds"] and item.get("psi_slack_ok", True)
                             and item.get("individual_ok", True)),
                      lambda i: (f"n = {i['n']}: |gamma| <= {i['gamma_ceiling']:.6g}, "
                                 f"bound = {i['bound']:.6g}, {_ok(i['holds'])}"),
                      admissible=True, setup=_theorem5_setup),
    "mathieu": Claim(_mathieu_item, _every(lambda item: item["holds"]),
                     lambda i: (f"n = {i['n']}: ratio = {i['ratio']:.9g} (band {i['band']:.3g}), "
                                f"{_ok(i['holds'])}"),
                     lambda g: (abs(g.gamma), g.resolved), FAIL),
    "gasymov": Claim(_gasymov_item,
                     _every(lambda item: item["collapsed"] and item.get("exact_zero", True)),
                     _ceiling_line),
    # each approximant within its bound, its gaps N < n <= N + span collapsed
    "dense": Claim(_collapsed, _monotone,
                   lambda i: (f"N = {i['N']}: distance = {i['distance']:.6g}, "
                              f"bound = {i['lipschitz_bound']:.6g}, {_ok(i['holds'])}"),
                   subjects=_approximants, group=_dense_item),
    # the tempered weights pass where eps_list names any, else the weight itself
    "weights_check": Claim(_weights_item,
                           _every(lambda item: all(t["ok"] for t in item["tempered"])
                                  if item["tempered"] else item["base_ok"]),
                           _weights_line, None),
}
_FREE = Claim(lambda n, ceiling, ctx: {"n": n, "gamma_ceiling": ceiling},
              lambda items: (all(item["gamma_ceiling"] <= COLLAPSED_GAP_TOL for item in items),
                             ["mu = 0: spectrum is free, all gaps collapsed"], {}),
              _ceiling_line)
