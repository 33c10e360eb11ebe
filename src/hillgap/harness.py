"""Experiment runner: JSON configs in, CSV tables and verification reports out.

A config names one experiment kind.  Each kind is declared once, in KINDS,
with its runner and the config keys it takes.  Table kinds (TABLE_KINDS:
"gaps", "adapted", "oracle") sweep gap indices and emit one CSV row per index
per method; the verification kinds evaluate an inequality or asymptotic
family and return a report dict with per-item margins.

Three rules keep runs reproducible and auditable:

  * configs are validated strictly (unknown keys are errors) and echoed back
    into every report with all defaults filled in;
  * reports carry the measured preconditions (weighted norms, admissibility
    thresholds, contraction data), so a FAIL is never confused with an
    inadmissible input;
  * CSV output uses a fixed column order and 17-significant-digit formatting,
    and identical configs produce bit-identical files.

Where the spectral oracle cannot resolve a gap against its integrator noise,
the verifiers charge the inequality with the noise ceiling instead of the
returned value and say so in the report notes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from . import blockdecomp, floquet, weights
from .seqspace import (
    FourierPotential,
    make_fourier,
    make_gasymov,
    make_mathieu,
    make_random,
    tail,
    wnorm,
)
from .weights import Weight

CSV_COLUMNS = ("n", "method", "re_lm", "im_lm", "re_lp", "im_lp",
               "re_gamma", "im_gamma", "re_alpha", "im_alpha",
               "re_pp", "im_pp", "re_pm", "im_pm", "resid", "iters")

# verification constants fixed across configs
COLLAPSED_GAP_TOL = 1e-7
THEOREM1_FACTORS = (9.0, 576.0)
THEOREM4_FACTORS = (4.0, 256.0)
INDIVIDUAL_GAMMA_FACTOR = 6.0
INDIVIDUAL_DELTA_FACTOR = 4.0


class ConfigError(ValueError):
    """Config rejected: unknown key, missing field, or bad value."""


@dataclass
class ExperimentConfig:
    """A validated config.  Each kind sets the fields it reads; the others keep
    their defaults.  ``echo`` is the config as reports show it."""

    kind: str
    out: str | None
    echo: dict[str, Any]
    potential: FourierPotential | None = None
    weight: Weight | None = None
    n_range: tuple[int, int] | None = None
    tol: float = 1e-12
    oracle_method: str = "auto"
    oracle_dps: int | None = None
    oracle_steps: int | None = None
    m: int | None = None
    M_thresh: int | None = None
    K_out: int | None = None
    N_values: list[int] = field(default_factory=list)
    span: int = 4
    c: float = 0.5
    a: float = 1.0
    weight_specs: list[dict] = field(default_factory=list)
    submult_N: int = 200
    eps_list: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# config parsing

_WEIGHT_PARAMS = {
    # kind -> (required fields, optional fields with defaults)
    "trivial": ((), {}),
    "polynomial": (("r",), {}),
    "exponential": (("a",), {"r": 0.0}),
    "gevrey": (("a", "sigma"), {"r": 0.0}),
    "log_tempered": (("a", "alpha"), {"r": 0.0}),
    "superexp": (("sigma",), {}),
}


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def build_weight(spec) -> Weight:
    """Weight from its config sub-schema, e.g. {"kind": "gevrey", "a": 1.0,
    "sigma": 0.5}; field names match the factory parameters.  A "tempered"
    kind takes "eps" and an "inner" sub-spec."""
    if not isinstance(spec, dict):
        raise ConfigError(f"weight spec must be an object, got {spec!r}")
    work = dict(spec)
    kind = work.pop("kind", None)
    if kind == "tempered":
        if "eps" not in work or "inner" not in work:
            raise ConfigError("tempered weight needs 'eps' and 'inner'")
        eps = _number(work.pop("eps"), "weight.eps")
        inner = build_weight(work.pop("inner"))
        if work:
            raise ConfigError(f"unknown weight fields {sorted(work)}")
        return weights.temper(inner, eps)
    if kind == "table":
        raw = work.pop("values", None)
        if not isinstance(raw, list) or not raw:
            raise ConfigError("table weight needs 'values' as [[n, w], ...]")
        pairs = {}
        for entry in raw:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ConfigError(f"table entries are [n, w], got {entry!r}")
            pairs[_number(entry[0], "table n")] = _number(entry[1], "table w")
        if work:
            raise ConfigError(f"unknown weight fields {sorted(work)}")
        return weights.table_weight(pairs)
    if kind not in _WEIGHT_PARAMS:
        raise ConfigError(f"unknown weight kind {kind!r}")
    required, optional = _WEIGHT_PARAMS[kind]
    args = {}
    for name in required:
        if name not in work:
            raise ConfigError(f"weight kind {kind!r} needs field {name!r}")
        args[name] = _number(work.pop(name), f"weight.{name}")
    for name, default in optional.items():
        args[name] = _number(work.pop(name, default), f"weight.{name}")
    if work:
        raise ConfigError(f"unknown weight fields {sorted(work)}")
    factory = getattr(weights, kind)
    return factory(**args)


def build_potential(spec) -> FourierPotential:
    """Potential from its config sub-schema (types mathieu, fourier, gasymov,
    random)."""
    if not isinstance(spec, dict):
        raise ConfigError(f"potential spec must be an object, got {spec!r}")
    work = dict(spec)
    ptype = work.pop("type", None)
    if ptype == "mathieu":
        if "mu" not in work:
            raise ConfigError("mathieu potential needs 'mu'")
        mu = _number(work.pop("mu"), "potential.mu")
        _done(work)
        return make_mathieu(mu)
    if ptype == "fourier":
        raw = work.pop("coeffs", None)
        if not isinstance(raw, list):
            raise ConfigError("fourier potential needs 'coeffs' as a list")
        coeffs: dict[int, complex] = {}
        for entry in raw:
            if not (isinstance(entry, list) and len(entry) == 3):
                raise ConfigError(f"fourier coeff entries are [n, re, im], got {entry!r}")
            n = _integer(entry[0], "coeff index")
            coeffs[n] = complex(_number(entry[1], "re"), _number(entry[2], "im"))
        mean = 0j
        if "mean" in work:
            pair = work.pop("mean")
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError("potential.mean is [re, im]")
            mean = complex(_number(pair[0], "mean.re"), _number(pair[1], "mean.im"))
        _done(work)
        return make_fourier(coeffs, mean=mean)
    if ptype == "gasymov":
        raw = work.pop("coeffs", None)
        if not isinstance(raw, list):
            raise ConfigError("gasymov potential needs 'coeffs' as a list")
        vals = []
        for entry in raw:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ConfigError(f"gasymov coeff entries are [re, im], got {entry!r}")
            vals.append(complex(_number(entry[0], "re"), _number(entry[1], "im")))
        _done(work)
        return make_gasymov(vals)
    if ptype == "random":
        if "decay" not in work or "seed" not in work or "K" not in work:
            raise ConfigError("random potential needs 'decay', 'seed', 'K'")
        decay = build_weight(work.pop("decay"))
        seed = _integer(work.pop("seed"), "potential.seed")
        K = _integer(work.pop("K"), "potential.K")
        if K < 1:
            raise ConfigError("potential.K must be >= 1")
        real = work.pop("real", True)
        if not isinstance(real, bool):
            raise ConfigError("potential.real must be a boolean")
        _done(work)
        return make_random(decay, seed, K, real)
    raise ConfigError(f"unknown potential type {ptype!r}")


def _done(work: dict) -> None:
    if work:
        raise ConfigError(f"unknown fields {sorted(work)}")


def parse_config(raw: dict, default_kind: str | None = None) -> ExperimentConfig:
    """Validate a raw config dict and resolve every default.

    The echo field of the result is the fully-defaulted config as it will
    appear in reports.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    work = dict(raw)
    kind = work.pop("kind", default_kind)
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    keys = KINDS[kind].keys
    unknown = set(work) - set(keys) - {"out"}
    if unknown:
        raise ConfigError(f"unknown config keys for kind {kind!r}: {sorted(unknown)}")

    out = work.pop("out", None)
    if out is not None and not isinstance(out, str):
        raise ConfigError("'out' must be a path string")
    echo: dict[str, Any] = {"kind": kind}

    if "weights" in keys:
        specs = work.pop("weights", None)
        if not isinstance(specs, list) or not specs:
            raise ConfigError("weights_check needs a nonempty 'weights' list")
        for spec in specs:
            build_weight(spec)  # validation only; rebuilt per check
        submult_N = _integer(work.pop("N", 200), "N")
        if submult_N < 1:
            raise ConfigError("N must be >= 1")
        eps_list = work.pop("eps_list", [0.2, 0.1, 0.05])
        if not isinstance(eps_list, list):
            raise ConfigError("eps_list must be a list of numbers")
        eps_list = [_number(e, "eps_list entry") for e in eps_list]
        echo.update(weights=specs, N=submult_N, eps_list=eps_list, out=out)
        return ExperimentConfig(kind, out, echo, weight_specs=specs,
                                submult_N=submult_N, eps_list=eps_list)

    if "potential" not in work:
        raise ConfigError("missing required field 'potential'")
    pot_spec = work.pop("potential")
    potential = build_potential(pot_spec)
    if kind == "mathieu" and pot_spec.get("type") != "mathieu":
        raise ConfigError("mathieu verification needs a mathieu potential")

    weight_spec = work.pop("weight", {"kind": "trivial"})
    weight = build_weight(weight_spec)

    n_range = None
    pair = work.pop("n_range", None)
    if kind != "dense":  # dense sweeps N_values and ignores n_range
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError("'n_range' is required and has the form [lo, hi]")
        lo = _integer(pair[0], "n_range[0]")
        hi = _integer(pair[1], "n_range[1]")
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad n_range [{lo}, {hi}]")
        n_range = (lo, hi)

    tol = _number(work.pop("tol", 1e-12), "tol")
    if tol <= 0:
        raise ConfigError("tol must be positive")

    oracle = work.pop("oracle", {})
    if not isinstance(oracle, dict):
        raise ConfigError("'oracle' must be an object")
    osub = dict(oracle)
    method = osub.pop("method", "auto")
    try:
        floquet._path(method, None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    dps = osub.pop("dps", None)
    if dps is not None:
        dps = _integer(dps, "oracle.dps")
        if dps < 10:
            raise ConfigError("oracle.dps must be >= 10")
    steps = osub.pop("steps", None)
    if steps is not None:
        steps = _integer(steps, "oracle.steps")
        if steps < 1:
            raise ConfigError("oracle.steps must be >= 1")
    _done(osub)

    # kind-specific keys: each one is a config field and an echo entry
    extras: dict[str, Any] = {}
    if "m" in keys:
        m, M_thresh, K_out = (_integer(work.pop(k), k) if k in work else None
                              for k in ("m", "M_thresh", "K_out"))
        extras["m"], extras["M_thresh"], extras["K_out"] = \
            blockdecomp.adapted_defaults(potential, m, M_thresh, K_out)
    if "N_values" in keys:
        raw_n = work.pop("N_values", [extras["M_thresh"] + i for i in range(3)])
        if not (isinstance(raw_n, list) and raw_n):
            raise ConfigError("N_values must be a nonempty list of integers")
        extras["N_values"] = [_integer(v, "N_values entry") for v in raw_n]
        extras["span"] = _integer(work.pop("span", 4), "span")
        if extras["span"] < 1:
            raise ConfigError("span must be >= 1")
    if "c" in keys:
        extras["c"] = _number(work.pop("c", 0.5), "c")
    if "a" in keys:
        extras["a"] = _number(work.pop("a", 1.0), "a")
        if extras["a"] <= 0:
            raise ConfigError("'a' must be positive")
    _done(work)

    echo.update(potential=pot_spec, weight=weight_spec, tol=tol, out=out,
                oracle={"method": method, "dps": dps, "steps": steps})
    if n_range is not None:
        echo["n_range"] = list(n_range)
    echo.update(extras)
    return ExperimentConfig(kind, out, echo, potential=potential, weight=weight,
                            n_range=n_range, tol=tol, oracle_method=method,
                            oracle_dps=dps, oracle_steps=steps, **extras)


# ---------------------------------------------------------------------------
# shared machinery


def _oracle_gap(q: FourierPotential, n: int, config: ExperimentConfig):
    """Gap pair with a noise ceiling: |gamma| when resolved, else the
    integrator's resolution floor."""
    lm, lp, info = floquet.periodic_eigs_info(
        q, n, config.tol, method=config.oracle_method,
        dps=config.oracle_dps, steps=config.oracle_steps)
    gamma = info["gamma"]
    if info["resolved"]:
        ceiling = abs(gamma)
    else:
        ceiling = max(abs(gamma), info["gamma_floor"])
    return lm, lp, gamma, ceiling, info


def _finite_wnorm(q: FourierPotential, w: Weight, label: str) -> float:
    value = wnorm(q, w)
    if not math.isfinite(value):
        raise ConfigError(f"{label} has infinite weighted norm under this weight")
    return value


def _wnorm_diff(q1: FourierPotential, q2: FourierPotential, w: Weight) -> float:
    """||q1 - q2||_w across possibly different windows."""
    total = abs(complex(q1.mean) - complex(q2.mean)) ** 2
    for n in range(1, max(q1.K, q2.K) + 1):
        for s in (n, -n):
            d = abs(q1.coeff(s) - q2.coeff(s))
            if d:
                total += (w(s) * d) ** 2
    return math.sqrt(total)


def _preconditions(q: FourierPotential, w: Weight, nw: float) -> dict:
    q0 = q.without_mean()
    return {"norm_q_w": nw, "four_norm_q_w": 4.0 * nw,
            "norm_q_l2": q.l2(), "block_floor": 2.0 * q0.l2()}


# ---------------------------------------------------------------------------
# table experiments


def _blank_row(n: int, method: str) -> dict:
    row = {col: "" for col in CSV_COLUMNS}
    row["n"] = n
    row["method"] = method
    return row


def _error_row(n: int, method: str) -> dict:
    row = _blank_row(n, method + "!")
    for col in CSV_COLUMNS[2:-1]:
        row[col] = math.nan
    row["iters"] = 0
    return row


def _oracle_row(q: FourierPotential, n: int, config: ExperimentConfig) -> dict:
    try:
        lm, lp, gamma, _, info = _oracle_gap(q, n, config)
    except (floquet.RootSearchError, ValueError):
        return _error_row(n, "oracle")
    row = _blank_row(n, "oracle")
    row.update(re_lm=lm.real, im_lm=lm.imag, re_lp=lp.real, im_lp=lp.imag,
               re_gamma=gamma.real, im_gamma=gamma.imag,
               re_alpha=info["critical"].real, im_alpha=info["critical"].imag,
               resid=info["resid"], iters=info["iters"])
    return row


def _block_row(q: FourierPotential, n: int, config: ExperimentConfig) -> dict:
    try:
        b = blockdecomp.gap_block(q, n, config.tol)
    except (blockdecomp.DomainError, blockdecomp.ContractionError,
            blockdecomp.IterationError):
        return _error_row(n, "block")
    row = _blank_row(n, "block")
    row.update(re_lm=b.xi_minus.real, im_lm=b.xi_minus.imag,
               re_lp=b.xi_plus.real, im_lp=b.xi_plus.imag,
               re_gamma=b.gamma_n.real, im_gamma=b.gamma_n.imag,
               re_alpha=b.alpha_n.real, im_alpha=b.alpha_n.imag,
               re_pp=b.p_plus.real, im_pp=b.p_plus.imag,
               re_pm=b.p_minus.real, im_pm=b.p_minus.imag,
               resid=b.diagnostics.resid, iters=b.diagnostics.solver_iters)
    return row


def run_gaps(config: ExperimentConfig):
    """Oracle rows per index; kind "gaps" adds block rows where n >= 4 ||q||.

    Returns (rows, failed): failed marks any row-level numerical error
    (its method cell ends in '!').
    """
    q = config.potential
    lo, hi = config.n_range
    floor = 4.0 * q.without_mean().l2() if config.kind == "gaps" else math.inf

    rows = []
    for n in range(lo, hi + 1):
        rows.append(_oracle_row(q, n, config))
        if n >= floor:
            rows.append(_block_row(q, n, config))
    return rows, any(row["method"].endswith("!") for row in rows)


def run_adapted(config: ExperimentConfig):
    """Adapted-coefficient rows: p_{+-n} in the pp/pm columns, alpha_n where
    the adapted band starts; plain Fourier modes below the threshold.

    The map always runs over its full window; n_range selects the reported
    rows and is clamped to the window edge."""
    q = config.potential
    diag: dict[int, blockdecomp.AdaptedInfo] = {}
    try:
        p = blockdecomp.adapted_map(q, config.m, config.M_thresh, config.tol,
                                    K_out=config.K_out, diagnostics=diag)
    except (blockdecomp.DomainError, blockdecomp.ContractionError,
            blockdecomp.IterationError):
        return [_error_row(0, "adapted")], True
    lo, hi = config.n_range
    rows = []
    for n in range(lo, min(hi, p.K) + 1):
        row = _blank_row(n, "adapted")
        row.update(re_pp=p.coeff(n).real, im_pp=p.coeff(n).imag,
                   re_pm=p.coeff(-n).real, im_pm=p.coeff(-n).imag)
        if n in diag:
            info = diag[n]
            row.update(re_alpha=info.alpha.real, im_alpha=info.alpha.imag,
                       resid=info.resid, iters=info.iters)
        rows.append(row)
    return rows, False


def run_table(config: ExperimentConfig):
    """(rows, failed) of a table kind."""
    if config.kind not in TABLE_KINDS:
        raise ConfigError(f"kind {config.kind!r} is not a table experiment")
    return KINDS[config.kind].runner(config)


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return "%.17g" % value


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt_cell(row[col]) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(rows, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))


# ---------------------------------------------------------------------------
# verification experiments


def _report(config: ExperimentConfig, ok: bool, preconditions: dict,
            items: list, notes: list[str]) -> dict:
    return {"kind": config.kind, "pass": bool(ok), "config": config.echo,
            "preconditions": preconditions, "items": items, "notes": notes}


def _gap_sweep(q, lo, hi, config):
    """Gap ceilings over an index range, in order, and the report notes that
    name the unresolved indices."""
    ceilings, unresolved = {}, []
    for n in range(lo, hi + 1):
        _, _, _, ceilings[n], info = _oracle_gap(q, n, config)
        if not info["resolved"]:
            unresolved.append(n)
    if unresolved:
        return ceilings, [f"gaps charged at the noise ceiling: n = {unresolved}"]
    return ceilings, []


def verify_theorem1(config: ExperimentConfig) -> dict:
    """Weighted gap-sum inequality: for every admissible N up to the window
    edge, sum of w(n)^2 |gamma_n|^2 over N <= n <= n_hi stays under
    9 ||tail||_w^2 + (576/N) ||q||_w^4."""
    q, w = config.potential, config.weight
    lo, hi = config.n_range
    nw = _finite_wnorm(q, w, "potential")
    n_min = max(lo, math.ceil(4.0 * nw))
    notes = []
    skipped = list(range(lo, n_min))
    if skipped:
        notes.append(f"N < 4||q||_w skipped: {skipped}")
    if n_min > hi:
        return _report(config, False, _preconditions(q, w, nw), [],
                       notes + ["no admissible N in range"])
    ceilings, sweep_notes = _gap_sweep(q, n_min, hi, config)
    items = []
    ok = True
    for N, lhs, rhs, tail_norm in _tail_sums(q, w, nw, ceilings, THEOREM1_FACTORS):
        items.append({"N": N, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
                      "tail_norm": tail_norm})
        ok = ok and rhs - lhs >= 0.0
    return _report(config, ok, _preconditions(q, w, nw), items, notes + sweep_notes)


def _tail_sums(q: FourierPotential, w: Weight, nw: float, gaps: dict,
               factors: tuple[float, float]):
    """(N, lhs, rhs, ||tail||_w) for each index N of ``gaps``, in order: lhs
    sums (w(n) g_n)^2 over N <= n <= the last index, and
    rhs = f0 ||tail||_w^2 + (f1 / N) ||q||_w^4."""
    hi = max(gaps)
    for N in gaps:
        lhs = sum((w(n) * gaps[n]) ** 2 for n in range(N, hi + 1))
        tail_norm = wnorm(tail(q, N), w)
        rhs = factors[0] * tail_norm ** 2 + (factors[1] / N) * nw ** 4
        yield N, lhs, rhs, tail_norm


def verify_theorem4(config: ExperimentConfig) -> dict:
    """Same shape for the alternate gap lengths delta_n = sigma_n - tau_n,
    with factors 4 and 256/N; the admissible onset is empirical, so the
    report marks the first N where the inequality holds and requires it to
    keep holding from there on."""
    q, w = config.potential, config.weight
    lo, hi = config.n_range
    nw = _finite_wnorm(q, w, "potential")

    deltas = {}
    for n in range(lo, hi + 1):
        rec = floquet.gap_record(q, n, 0.0, config.tol,
                                 method=config.oracle_method,
                                 dps=config.oracle_dps)
        deltas[n] = abs(rec.delta)
    items = []
    onset = None
    ok_from_onset = True
    for N, lhs, rhs, _ in _tail_sums(q, w, nw, deltas, THEOREM4_FACTORS):
        holds = rhs - lhs >= 0.0
        items.append({"N": N, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
                      "holds": holds})
        if holds and onset is None:
            onset = N
        if onset is not None and not holds:
            ok_from_onset = False
    notes = [f"empirical onset N = {onset}" if onset is not None
             else "inequality never holds in range"]
    ok = onset is not None and ok_from_onset
    report = _report(config, ok, _preconditions(q, w, nw), items, notes)
    report["onset"] = onset
    return report


def verify_theorem5(config: ExperimentConfig) -> dict:
    """Superexponential gap decay: |gamma_n| <= 2n exp(-n psi(n~)) with
    n~ = n / (4 ||q||_w), for admissible n.

    En route this also checks the individual estimate under the exponential
    weight e^{a |n|}: w_a(n) |gamma_n| <= 6 ||q||_{w_a} past its own
    admissibility floor, and compares psi with its continuous relaxation
    c_sigma log^{1 - 1/sigma} at integer-minimizer slack.
    """
    q, w = config.potential, config.weight
    lo, hi = config.n_range
    if weights.classify_growth(w) != weights.SUPEREXPONENTIAL:
        raise ConfigError("this verification needs a superexponential weight")
    nw = _finite_wnorm(q, w, "potential")
    w_exp = weights.exponential(0.0, config.a)
    nw_exp = _finite_wnorm(q, w_exp, "potential")
    n_min = max(lo, math.ceil(4.0 * nw))
    if n_min > hi:
        return _report(config, False, _preconditions(q, w, nw), [],
                       ["no admissible n in range"])
    ceilings, notes = _gap_sweep(q, n_min, hi, config)
    items = []
    ok = True
    for n in range(n_min, hi + 1):
        ntilde = n / (4.0 * nw)
        psi_val = weights.psi(w, ntilde)
        bound = 2.0 * n * math.exp(-n * psi_val)
        holds = ceilings[n] <= bound
        item = {"n": n, "ntilde": ntilde, "psi": psi_val, "bound": bound,
                "gamma_ceiling": ceilings[n], "holds": holds}
        if w.kind == "superexp":
            psi_c = weights.psi_continuous(w.sigma, ntilde)
            item["psi_continuous"] = psi_c
            item["psi_slack_ok"] = _psi_slack_ok(w, ntilde, psi_val, psi_c)
            ok = ok and item["psi_slack_ok"]
        individual_ok = True
        if n >= 4.0 * nw_exp:
            individual_ok = w_exp(n) * ceilings[n] <= INDIVIDUAL_GAMMA_FACTOR * nw_exp
            item["individual_ok"] = individual_ok
        items.append(item)
        ok = ok and holds and individual_ok
    return _report(config, ok, _preconditions(q, w, nw), items, notes)


def _psi_slack_ok(w: Weight, r: float, psi_val: float, psi_c: float) -> bool:
    """The discrete minimum sits between the continuous relaxation and the
    relaxation evaluated at the rounded continuous minimizer."""
    if r <= 1.0:
        return psi_val >= psi_c - 1e-12
    m_c = (math.log(r) / (w.sigma - 1.0)) ** (1.0 / w.sigma)
    upper = math.inf
    for m in {max(1, math.floor(m_c)), max(1, math.ceil(m_c))}:
        upper = min(upper, (math.log(r) + m ** w.sigma) / m)
    return psi_c - 1e-12 <= psi_val <= upper + 1e-12


def verify_mathieu(config: ExperimentConfig) -> dict:
    """Oracle gaps against the classical two-mode asymptotics
    8 pi^2 (mu / 8 pi^2)^n / ((n-1)!)^2: the ratio must sit in the band
    1 -+ c/n^2, and within [0.85, 1.15] for n >= 3 at mu <= 1."""
    q = config.potential
    lo, hi = config.n_range
    mu = float(config.echo["potential"]["mu"])
    w = config.weight
    nw = wnorm(q, w)
    items = []
    notes = []
    ok = True
    if mu == 0.0:
        notes.append("mu = 0: spectrum is free, all gaps collapsed")
        ceilings, _ = _gap_sweep(q, lo, hi, config)
        for n in range(lo, hi + 1):
            items.append({"n": n, "gamma_ceiling": ceilings[n]})
            ok = ok and ceilings[n] <= COLLAPSED_GAP_TOL
        return _report(config, ok, _preconditions(q, w, nw), items, notes)
    eight = 8.0 * math.pi ** 2
    results = [_oracle_gap(q, n, config) for n in range(lo, hi + 1)]
    for n, (lm, lp, gamma, ceiling, info) in zip(range(lo, hi + 1), results):
        formula = eight * (mu / eight) ** n / math.factorial(n - 1) ** 2
        ratio = abs(gamma) / formula
        band = config.c / (n * n)
        holds = abs(ratio - 1.0) <= band
        if n >= 3 and mu <= 1.0:
            holds = holds and 0.85 <= ratio <= 1.15
        if not info["resolved"]:
            holds = False
            notes.append(f"n = {n}: gap below the oracle resolution floor")
        items.append({"n": n, "gamma": abs(gamma), "formula": formula,
                      "ratio": ratio, "band": band, "holds": holds})
        ok = ok and holds
    return _report(config, ok, _preconditions(q, w, nw), items, notes)


def verify_gasymov(config: ExperimentConfig) -> dict:
    """One-sided potentials: oracle gaps collapse below 1e-7 and the reduced
    matrix entries a_n, c_n vanish exactly (the coefficient ladder never
    returns to the starting mode)."""
    q, w = config.potential, config.weight
    lo, hi = config.n_range
    nw = wnorm(q, w)
    ceilings, notes = _gap_sweep(q, lo, hi, config)
    block_floor = 2.0 * q.without_mean().l2()
    items = []
    ok = True
    for n in range(lo, hi + 1):
        item = {"n": n, "gamma_ceiling": ceilings[n],
                "collapsed": ceilings[n] <= COLLAPSED_GAP_TOL}
        ok = ok and item["collapsed"]
        if n > block_floor:
            # the roots collapse onto alpha_n, so the block costs one alpha loop
            b = blockdecomp.gap_block(q, n, config.tol)
            item["a_n"] = b.a_n_at_alpha
            item["c_n"] = b.p_minus
            item["exact_zero"] = (b.a_n_at_alpha == 0 and b.p_minus == 0)
            ok = ok and item["exact_zero"]
        items.append(item)
    return _report(config, ok, _preconditions(q, w, nw), items, notes)


def verify_dense(config: ExperimentConfig) -> dict:
    """N-gap approximants: distances ||q_N - q||_w nonincreasing in N, each
    within the inverse-Lipschitz bound 2 ||above-N part of Phi(q)||_w, and
    the oracle finds the gaps of q_N collapsed for N < n <= N + span."""
    q, w = config.potential, config.weight
    nw = _finite_wnorm(q, w, "potential")
    p = blockdecomp.adapted_map(q, config.m, config.M_thresh, config.tol,
                                K_out=config.K_out)
    items = []
    distances = []
    ok = True
    notes = []
    for N in sorted(config.N_values):
        q_n = blockdecomp.n_gap_approximant(q, N, config.m, config.M_thresh,
                                            config.tol, K_out=config.K_out)
        dist = _wnorm_diff(q_n, q, w)
        bound = 2.0 * wnorm(tail(p, N + 1), w)
        collapsed = []
        for n in range(N + 1, N + config.span + 1):
            _, _, _, ceiling, _ = _oracle_gap(q_n, n, config)
            collapsed.append({"n": n, "gamma_ceiling": ceiling,
                              "collapsed": ceiling <= COLLAPSED_GAP_TOL})
        item_ok = dist <= bound + 1e-12 and all(c["collapsed"] for c in collapsed)
        items.append({"N": N, "distance": dist, "lipschitz_bound": bound,
                      "collapsed": collapsed, "holds": item_ok})
        distances.append(dist)
        ok = ok and item_ok
    monotone = all(b <= a + 1e-15 for a, b in zip(distances, distances[1:]))
    if not monotone:
        notes.append("distances are not monotone in N")
    ok = ok and monotone
    return _report(config, ok, _preconditions(q, w, nw), items, notes)


def verify_weights(config: ExperimentConfig) -> dict:
    """Submultiplicativity, growth class, and tempering for each configured
    weight: min(e^{eps |n|}, w) must show zero violations over the window for
    every eps."""
    items = []
    ok = True
    for spec in config.weight_specs:
        w = build_weight(spec)
        base = weights.check_submultiplicative(w, config.submult_N)
        item = {"weight": spec, "base_ok": base.ok,
                "violation": list(base.violation) if base.violation else None,
                "growth_class": weights.classify_growth(w),
                "tempered": []}
        tempered_ok = True
        for eps in config.eps_list:
            wt = weights.temper(w, eps)
            res = weights.check_submultiplicative(wt, config.submult_N)
            crossover = _temper_crossover(w, eps, config.submult_N)
            item["tempered"].append({"eps": eps, "ok": res.ok,
                                     "violation": list(res.violation)
                                     if res.violation else None,
                                     "crossover": crossover})
            tempered_ok = tempered_ok and res.ok
        items.append(item)
        ok = ok and (tempered_ok if config.eps_list else base.ok)
    return _report(config, ok, {}, items, [])


def _temper_crossover(w: Weight, eps: float, N: int) -> int | None:
    """First n where the exponential envelope e^{eps n} overtakes w."""
    for n in range(1, N + 1):
        if eps * n >= w.log_value(n):
            return n
    return None


def run_verify(config: ExperimentConfig) -> dict:
    """The report of a verification kind."""
    if config.kind in TABLE_KINDS:
        raise ConfigError(f"kind {config.kind!r} is not a verification "
                          "experiment")
    return KINDS[config.kind].runner(config)


# ---------------------------------------------------------------------------
# experiment kinds


class Kind(NamedTuple):
    runner: Callable[[ExperimentConfig], Any]
    keys: tuple[str, ...]  # config keys besides "kind" and "out"


_SPECTRAL_KEYS = ("potential", "weight", "n_range", "tol", "oracle")
_ADAPTED_KEYS = ("m", "M_thresh", "K_out")

KINDS = {
    "gaps": Kind(run_gaps, _SPECTRAL_KEYS),
    "adapted": Kind(run_adapted, _SPECTRAL_KEYS + _ADAPTED_KEYS),
    "oracle": Kind(run_gaps, _SPECTRAL_KEYS),
    "theorem1": Kind(verify_theorem1, _SPECTRAL_KEYS),
    "theorem4": Kind(verify_theorem4, _SPECTRAL_KEYS),
    "theorem5": Kind(verify_theorem5, _SPECTRAL_KEYS + ("a",)),
    "mathieu": Kind(verify_mathieu, _SPECTRAL_KEYS + ("c",)),
    "gasymov": Kind(verify_gasymov, _SPECTRAL_KEYS),
    "dense": Kind(verify_dense, _SPECTRAL_KEYS + _ADAPTED_KEYS + ("N_values", "span")),
    "weights_check": Kind(verify_weights, ("weights", "N", "eps_list")),
}
# kinds whose runner returns (rows, failed) for a CSV table; the rest return a report
TABLE_KINDS = ("gaps", "adapted", "oracle")
