"""Experiment runner: JSON configs in, CSV tables and verification reports out.

A config names one experiment kind.  Each kind is declared once, in KINDS,
with its runner, the summary line of a report item, and the config keys
that runner reads, the optional ones with their defaults; each potential
type and weight kind likewise.  Table kinds (TABLE_KINDS: "gaps",
"adapted", "oracle") sweep gap indices and emit one CSV row per index per
method; the verification kinds evaluate an inequality or asymptotic family
and return a report dict with per-item margins.  run takes a parsed config
to its outputs: it checks the out path, runs the kind, and renders and
writes every output, for the CLI to print and exit with.

Three rules keep runs reproducible and auditable:

  * configs are read strictly (an undeclared or missing field, a non-finite
    number, a negative seed or a repeated entry is an error) and echoed back
    into every report with all defaults filled in;
  * reports carry the measured preconditions (weighted norms, admissibility
    thresholds, contraction data), so a FAIL is never confused with an
    inadmissible input;
  * CSV output uses a fixed column order and 17-significant-digit formatting,
    and identical configs produce bit-identical files.

Where the spectral oracle cannot resolve a gap against its integrator noise,
the verifiers charge the inequality with the noise ceiling instead of the
returned value and say so in the report notes.

Every table row and verifier that reads gamma_n solves it through _gap, into
one record, Gap, from the Floquet oracle or the block reduction.  The oracle
loads where _gap or verify_theorem4 first calls it, or a config names an
oracle method or dps to check, so the adapted map and weights run without it.
The config reader checks an oracle method and dps with floquet._path and the
adapted window with blockdecomp.adapted_defaults, keeping no rule of its own;
their refusals, and a tol the oracle needs over 300 digits for, are ConfigErrors.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

from . import blockdecomp, weights
from .seqspace import (
    FourierPotential,
    make_fourier,
    make_gasymov,
    make_mathieu,
    make_random,
    tail,
    truncate,
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

# the numerical failures a table row records and the CLI reports with exit 1;
# floquet's RootSearchError is an IterationError
FAILURES = (blockdecomp.DomainError, blockdecomp.ContractionError,
            blockdecomp.IterationError)


class ConfigError(ValueError):
    """Config rejected: unknown key, missing field, or bad value."""


@dataclass
class ExperimentConfig:
    """A validated config.  Each kind sets the fields it reads, defaults
    resolved as KINDS declares them; the others hold None.  ``echo`` is the
    config as reports show it."""

    kind: str
    out: str | None
    echo: dict[str, Any]
    potential: FourierPotential | None = None
    weight: Weight | None = None
    n_range: tuple[int, int] | None = None
    tol: float | None = None
    oracle_method: str | None = None
    oracle_dps: int | None = None
    m: int | None = None
    M_thresh: int | None = None
    K_out: int | None = None
    N_values: list[int] | None = None
    span: int | None = None
    c: float | None = None
    a: float | None = None
    weight_specs: list[dict] | None = None
    submult_N: int | None = None
    eps_list: list[float] | None = None


# ---------------------------------------------------------------------------
# config parsing: every object of a config is read by _fields against its
# declaration, which ends in (required fields, optional fields with defaults)

_POTENTIALS = {
    # type -> (required fields, optional fields with defaults)
    "mathieu": (("mu",), {}),
    "fourier": (("coeffs",), {"mean": [0.0, 0.0]}),
    "gasymov": (("coeffs",), {}),
    "random": (("decay", "seed", "K"), {"real": True}),
}

_WEIGHTS = {
    # kind -> (required fields, optional fields with defaults); the fields of
    # the parametric kinds are the parameters of their weights factory
    "trivial": ((), {}),
    "polynomial": (("r",), {}),
    "exponential": (("a",), {"r": 0.0}),
    "gevrey": (("a", "sigma"), {"r": 0.0}),
    "log_tempered": (("a", "alpha"), {"r": 0.0}),
    "superexp": (("sigma",), {}),
    "tempered": (("eps", "inner"), {}),
    "table": (("values",), {}),
}


def _fields(obj, where: str, required: tuple, optional: dict) -> dict:
    """obj's fields: each required one, each optional one or its default, no other."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown {where} fields {unknown}")
    for name in required:
        if name not in obj:
            raise ConfigError(f"{where} needs field {name!r}")
    return {**copy.deepcopy(optional), **obj}


def _declared(obj, where: str, tag: str, table: dict, default=None):
    """(name, fields) of an object whose ``tag`` names its declaration in ``table``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    name = obj.get(tag, default)
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {where} {tag} {name!r}")
    required, optional = table[name][-2:]
    return name, _fields(obj, f"{name} {where}", required, {tag: name, **optional})


def _number(value, where: str, positive: bool = False) -> float:
    """A finite number (JSON admits NaN and Infinity); with ``positive``, > 0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max
            or (positive and value <= 0)):
        raise ConfigError(f"{where} must be a {'positive' if positive else 'finite'} "
                          f"number, got {value!r}")
    return float(value)


def _integer(value, where: str, least: int | None = None) -> int:
    if (isinstance(value, bool) or not isinstance(value, int)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{where} must be an integer{bound}, got {value!r}")
    return value


def _list(value, where: str, read, nonempty: bool = False, key=None) -> list:
    """A list, each entry read by ``read``; with ``key`` set, no two entries
    may share a key."""
    if not isinstance(value, list) or (nonempty and not value):
        raise ConfigError(f"{where} must be a {'nonempty ' * nonempty}list, got {value!r}")
    entries = [read(entry, f"{where}[{i}]") for i, entry in enumerate(value)]
    keys = [key(entry) for entry in entries] if key else []
    repeat = next((i for i, k in enumerate(keys) if k in keys[:i]), None)
    if repeat is not None:
        raise ConfigError(f"{where}[{repeat}] repeats the n of an earlier entry")
    return entries


def _entry(form: str, *cells):
    """Reader of a fixed-size entry such as [n, re, im] (``form``), each cell
    read by its own reader."""
    names = form.strip("[]").split(", ")

    def read(value, where: str) -> tuple:
        if not (isinstance(value, list) and len(value) == len(cells)):
            raise ConfigError(f"{where} must be {form}, got {value!r}")
        return tuple(cell(v, f"{where}.{name}") for cell, name, v in zip(cells, names, value))
    return read


_MODE = _entry("[n, re, im]", _integer, _number, _number)
_COMPLEX = _entry("[re, im]", _number, _number)
_SAMPLE = _entry("[n, w]", _number, _number)
_N_RANGE = _entry("[lo, hi]", partial(_integer, least=1), _integer)


def build_weight(spec) -> Weight:
    """Weight from its config sub-schema, e.g. {"kind": "gevrey", "a": 1.0,
    "sigma": 0.5}; field names match the factory parameters.  A "tempered"
    kind takes "eps" and an "inner" sub-spec.  Parameters the factory
    refuses (sigma outside (0, 1) for gevrey, a table value under 1, ...)
    are a ConfigError."""
    return _weight(spec, "weight")


def _weight(spec, where: str) -> Weight:
    kind, fields = _declared(spec, where, "kind", _WEIGHTS)
    try:
        if kind == "tempered":
            eps = _number(fields["eps"], f"{where}.eps")
            return weights.temper(_weight(fields["inner"], f"{where}.inner"), eps)
        if kind == "table":
            # w is even, so n and -n name one sample
            samples = _list(fields["values"], f"{where}.values", _SAMPLE,
                            nonempty=True, key=lambda s: abs(s[0]))
            return weights.table_weight(dict(samples))
        return getattr(weights, kind)(**{name: _number(value, f"{where}.{name}")
                                         for name, value in fields.items() if name != "kind"})
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"weight {spec!r}: {exc}") from None


def build_potential(spec) -> FourierPotential:
    """Potential from its config sub-schema: type mathieu, fourier, gasymov or random."""
    ptype, fields = _declared(spec, "potential", "type", _POTENTIALS)
    if ptype == "mathieu":
        return make_mathieu(_number(fields["mu"], "potential.mu"))
    if ptype == "fourier":
        modes = _list(fields["coeffs"], "potential.coeffs", _MODE, key=lambda m: m[0])
        return make_fourier({n: complex(re, im) for n, re, im in modes},
                            mean=complex(*_COMPLEX(fields["mean"], "potential.mean")))
    if ptype == "gasymov":
        return make_gasymov([complex(*z) for z in
                             _list(fields["coeffs"], "potential.coeffs", _COMPLEX)])
    if not isinstance(fields["real"], bool):
        raise ConfigError("potential.real must be a boolean")
    return make_random(_weight(fields["decay"], "potential.decay"),
                       _integer(fields["seed"], "potential.seed", least=0),
                       _integer(fields["K"], "potential.K", least=1), fields["real"])


def parse_config(raw: dict, default_kind: str | None = None) -> ExperimentConfig:
    """Validate a raw config dict and resolve every default.

    The echo field of the result is the fully-defaulted config as it will
    appear in reports.
    """
    kind, fields = _declared(raw, "config", "kind", KINDS, default_kind)
    out = fields["out"]
    if out is not None and not isinstance(out, str):
        raise ConfigError("'out' must be a path string")

    if kind == "weights_check":
        _list(fields["weights"], "weights", _weight, nonempty=True)  # rebuilt per check
        submult_N = _integer(fields["N"], "N", least=1)
        eps_list = _list(fields["eps_list"], "eps_list", partial(_number, positive=True))
        echo = dict(kind=kind, weights=fields["weights"], N=submult_N, eps_list=eps_list, out=out)
        return ExperimentConfig(kind, out, echo, weight_specs=fields["weights"],
                                submult_N=submult_N, eps_list=eps_list)

    potential = build_potential(fields["potential"])
    if kind == "mathieu" and fields["potential"]["type"] != "mathieu":
        raise ConfigError("mathieu verification needs a mathieu potential")
    weight = build_weight(fields["weight"]) if "weight" in fields else None

    n_range = None
    if "n_range" in fields:
        lo, hi = _N_RANGE(fields["n_range"], "n_range")
        n_range = (lo, _integer(hi, "n_range.hi", least=lo))
    tol = _number(fields["tol"], "tol", positive=True)

    method = dps = oracle = None
    if "oracle" in fields:
        given = _fields(fields["oracle"], "oracle", (), KINDS[kind].optional["oracle"])
        method = given["method"]
        dps = None if given["dps"] is None else _integer(given["dps"], "oracle.dps")
        if method != _ORACLE["method"] or dps is not None:
            # floquet, home of the method list and the dps range, loads only to check them
            from . import floquet
            try:
                floquet._path(method, dps)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        oracle = {"method": method, "dps": dps}

    # kind-specific keys, in fields when declared: each a config field and an echo entry
    extras: dict[str, Any] = {}
    if "m" in fields:
        adapted = ("m", "M_thresh", "K_out")
        given = (None if fields[k] is None else _integer(fields[k], k) for k in adapted)
        try:
            extras.update(zip(adapted, blockdecomp.adapted_defaults(potential, *given)))
        except (blockdecomp.ContractionError, blockdecomp.DomainError) as exc:
            raise ConfigError(str(exc)) from None
    if "N_values" in fields:
        M = extras["M_thresh"]  # an N below it would close no gap
        N_values = [M, M + 1, M + 2] if fields["N_values"] is None else fields["N_values"]
        extras["N_values"] = _list(N_values, "N_values", partial(_integer, least=M), nonempty=True)
        extras["span"] = _integer(fields["span"], "span", least=1)
    if "c" in fields:
        extras["c"] = _number(fields["c"], "c")
    if "a" in fields:
        extras["a"] = _number(fields["a"], "a", positive=True)

    # the echo holds the keys its kind declares, each as read
    read = dict(potential=fields["potential"], weight=fields.get("weight"), tol=tol, out=out,
                oracle=oracle, n_range=n_range and list(n_range), **extras)
    echo = dict(kind=kind, **{key: value for key, value in read.items() if key in fields})
    return ExperimentConfig(kind, out, echo, potential=potential, weight=weight,
                            n_range=n_range, tol=tol, oracle_method=method,
                            oracle_dps=dps, **extras)


# ---------------------------------------------------------------------------
# shared machinery


@dataclass(frozen=True)
class Gap:
    """The n-th gap from ``source``, "oracle" or "block", as rows and verifiers
    read it; ``alpha`` is the oracle's critical point or the block's alpha_n.
    ``ceiling`` is |gamma| if ``resolved``, else max(|gamma|, gamma_floor).  A
    block gap is resolved at |gamma| (no verifier reads either field of it
    yet) and carries p_+-n (``pp``, ``pm``) and a_n(alpha_n) (``a_n``)."""

    n: int
    source: str
    lm: complex
    lp: complex
    gamma: complex
    ceiling: float
    resolved: bool
    alpha: complex
    resid: float
    iters: int
    pp: complex | None = None
    pm: complex | None = None
    a_n: complex | None = None


def _gap(q: FourierPotential, n: int, config: ExperimentConfig, source: str = "oracle") -> Gap:
    """The one call that solves a gap; both solvers are looked up when called."""
    if source == "block":
        b = blockdecomp.gap_block(q, n, config.tol)
        return Gap(n, source, b.xi_minus, b.xi_plus, b.gamma_n, abs(b.gamma_n), True,
                   b.alpha_n, b.diagnostics.resid, b.diagnostics.solver_iters,
                   b.p_plus, b.p_minus, b.a_n_at_alpha)
    from . import floquet

    try:
        lm, lp, info = floquet.periodic_eigs_info(
            q, n, config.tol, method=config.oracle_method, dps=config.oracle_dps)
    except floquet.PrecisionError as exc:
        raise ConfigError(str(exc)) from None
    gamma, resolved = info["gamma"], info["resolved"]
    ceiling = abs(gamma) if resolved else max(abs(gamma), info["gamma_floor"])
    return Gap(n, source, lm, lp, gamma, ceiling, resolved, info["critical"],
               info["resid"], info["iters"])


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
    return {"norm_q_w": nw, "four_norm_q_w": 4.0 * nw,
            "norm_q_l2": q.l2(), "block_floor": 2.0 * q.without_mean().l2()}


# ---------------------------------------------------------------------------
# table experiments


def _row(n: int, method: str, resid="", iters="", **complex_cells) -> dict:
    """A CSV row; each complex cell, lm=z say, fills re_lm and im_lm, and
    every cell not given stays blank."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(n=n, method=method, resid=resid, iters=iters)
    for name, z in complex_cells.items():
        row["re_" + name], row["im_" + name] = z.real, z.imag
    return row


def _error_row(n: int, method: str) -> dict:
    nan = complex(math.nan, math.nan)
    return _row(n, method + "!", math.nan, 0,
                **{col[3:]: nan for col in CSV_COLUMNS if col.startswith("re_")})


def _gap_row(q: FourierPotential, n: int, config: ExperimentConfig, source: str) -> dict:
    try:
        g = _gap(q, n, config, source)
    except FAILURES:
        return _error_row(n, source)
    block = {} if g.pp is None else {"pp": g.pp, "pm": g.pm}
    return _row(n, source, g.resid, g.iters, lm=g.lm, lp=g.lp, gamma=g.gamma,
                alpha=g.alpha, **block)


def run_gaps(config: ExperimentConfig):
    """Oracle rows per index; kind "gaps" adds block rows where n >= 4 ||q||.

    Returns (rows, failed): failed marks any row-level numerical error
    (its method cell ends in '!').
    """
    q = config.potential
    lo, hi = config.n_range
    floor = 4.0 * q.without_mean().l2() if config.kind == "gaps" else math.inf

    rows = [_gap_row(q, n, config, source) for n in range(lo, hi + 1)
            for source in ("oracle", "block") if source == "oracle" or n >= floor]
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
    except FAILURES:
        return [_error_row(0, "adapted")], True
    lo, hi = config.n_range
    rows = []
    for n in range(lo, min(hi, p.K) + 1):
        info = diag.get(n)
        band = {} if info is None else {"alpha": info.alpha, "resid": info.resid,
                                        "iters": info.iters}
        rows.append(_row(n, "adapted", pp=p.coeff(n), pm=p.coeff(-n), **band))
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


# ---------------------------------------------------------------------------
# verification experiments


def _report(config: ExperimentConfig, ok: bool, preconditions: dict,
            items: list, notes: list[str]) -> dict:
    return {"kind": config.kind, "pass": bool(ok), "config": config.echo,
            "preconditions": preconditions, "items": items, "notes": notes}


def _gap_sweep(q, lo, hi, config):
    """The oracle gaps over an index range, by index in order, and the report
    notes that name the unresolved ones."""
    gaps = {n: _gap(q, n, config) for n in range(lo, hi + 1)}
    unresolved = [n for n, g in gaps.items() if not g.resolved]
    return gaps, [f"gaps charged at the noise ceiling: n = {unresolved}"] if unresolved else []


def verify_theorem1(config: ExperimentConfig) -> dict:
    """Weighted gap-sum inequality: for every admissible N up to the window
    edge, sum of w(n)^2 |gamma_n|^2 over N <= n <= n_hi stays under
    9 ||tail||_w^2 + (576/N) ||q||_w^4."""
    q, w = config.potential, config.weight
    lo, hi = config.n_range
    nw = _finite_wnorm(q, w, "potential")
    n_min = max(lo, math.ceil(4.0 * nw))
    notes = [f"N < 4||q||_w skipped: {list(range(lo, n_min))}"] if n_min > lo else []
    if n_min > hi:
        return _report(config, False, _preconditions(q, w, nw), [],
                       notes + ["no admissible N in range"])
    gaps, sweep_notes = _gap_sweep(q, n_min, hi, config)
    ceilings = {n: g.ceiling for n, g in gaps.items()}
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
    from . import floquet

    q, w = config.potential, config.weight
    lo, hi = config.n_range
    nw = _finite_wnorm(q, w, "potential")

    oracle = dict(tol=config.tol, method=config.oracle_method, dps=config.oracle_dps)
    try:
        deltas = {n: abs(floquet.gap_record(q, n, **oracle).delta) for n in range(lo, hi + 1)}
    except floquet.PrecisionError as exc:
        raise ConfigError(str(exc)) from None
    items = [{"N": N, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs, "holds": rhs - lhs >= 0.0}
             for N, lhs, rhs, _ in _tail_sums(q, w, nw, deltas, THEOREM4_FACTORS)]
    onset = next((item["N"] for item in items if item["holds"]), None)
    notes = [f"empirical onset N = {onset}" if onset is not None
             else "inequality never holds in range"]
    ok = onset is not None and all(item["holds"] for item in items if item["N"] >= onset)
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
    gaps, notes = _gap_sweep(q, n_min, hi, config)
    items = []
    ok = True
    for n, g in gaps.items():
        ntilde = n / (4.0 * nw)
        psi_val = weights.psi(w, ntilde)
        bound = 2.0 * n * math.exp(-n * psi_val)
        holds = g.ceiling <= bound
        item = {"n": n, "ntilde": ntilde, "psi": psi_val, "bound": bound,
                "gamma_ceiling": g.ceiling, "holds": holds}
        if w.kind == "superexp":
            psi_c = weights.psi_continuous(w.sigma, ntilde)
            item["psi_continuous"] = psi_c
            item["psi_slack_ok"] = _psi_slack_ok(w, ntilde, psi_val, psi_c)
            ok = ok and item["psi_slack_ok"]
        individual_ok = True
        if n >= 4.0 * nw_exp:
            individual_ok = w_exp(n) * g.ceiling <= INDIVIDUAL_GAMMA_FACTOR * nw_exp
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
    q, w = config.potential, config.weight
    lo, hi = config.n_range
    mu = float(config.echo["potential"]["mu"])
    nw = wnorm(q, w)
    items = []
    notes = []
    ok = True
    gaps, _ = _gap_sweep(q, lo, hi, config)
    if mu == 0.0:
        notes.append("mu = 0: spectrum is free, all gaps collapsed")
        items = [{"n": n, "gamma_ceiling": g.ceiling} for n, g in gaps.items()]
        ok = all(g.ceiling <= COLLAPSED_GAP_TOL for g in gaps.values())
        return _report(config, ok, _preconditions(q, w, nw), items, notes)
    eight = 8.0 * math.pi ** 2
    for n, g in gaps.items():
        formula = eight * (mu / eight) ** n / math.factorial(n - 1) ** 2
        ratio = abs(g.gamma) / formula
        band = config.c / (n * n)
        holds = abs(ratio - 1.0) <= band
        if n >= 3 and mu <= 1.0:
            holds = holds and 0.85 <= ratio <= 1.15
        if not g.resolved:
            holds = False
            notes.append(f"n = {n}: gap below the oracle resolution floor")
        items.append({"n": n, "gamma": abs(g.gamma), "formula": formula,
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
    gaps, notes = _gap_sweep(q, lo, hi, config)
    block_floor = 2.0 * q.without_mean().l2()
    items = []
    ok = True
    for n, g in gaps.items():
        item = {"n": n, "gamma_ceiling": g.ceiling, "collapsed": g.ceiling <= COLLAPSED_GAP_TOL}
        ok = ok and item["collapsed"]
        if n > block_floor:
            # the roots collapse onto alpha_n, so the block costs one alpha loop
            b = _gap(q, n, config, "block")
            item["a_n"], item["c_n"] = b.a_n, b.pm
            item["exact_zero"] = (b.a_n == 0 and b.pm == 0)
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
    for N in sorted(config.N_values):
        q_n = blockdecomp.invert_adapted_map(truncate(p, N), config.m, config.M_thresh,
                                             config.tol).q
        dist = _wnorm_diff(q_n, q, w)
        bound = 2.0 * wnorm(tail(p, N + 1), w)
        gaps, _ = _gap_sweep(q_n, N + 1, N + config.span, config)
        collapsed = [{"n": n, "gamma_ceiling": g.ceiling,
                      "collapsed": g.ceiling <= COLLAPSED_GAP_TOL} for n, g in gaps.items()]
        item_ok = dist <= bound + 1e-12 and all(c["collapsed"] for c in collapsed)
        items.append({"N": N, "distance": dist, "lipschitz_bound": bound,
                      "collapsed": collapsed, "holds": item_ok})
        distances.append(dist)
        ok = ok and item_ok
    monotone = all(b <= a + 1e-15 for a, b in zip(distances, distances[1:]))
    notes = [] if monotone else ["distances are not monotone in N"]
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
        try:
            base = weights.check_submultiplicative(w, config.submult_N)
        except weights.TableDomainError as exc:
            raise ConfigError(f"{exc.args[0]}; the submultiplicativity check reads "
                              f"n = 0..{2 * config.submult_N} (2N)") from None
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


# a kind declares only the keys its runner reads, and the default of "oracle"
# declares the fields of that object
_ORACLE = {"method": "auto", "dps": None}
_GAPS = {"out": None, "tol": 1e-12, "oracle": _ORACLE}
_SPECTRAL = {"out": None, "weight": {"kind": "trivial"}, "tol": 1e-12, "oracle": _ORACLE}
_WINDOW = {"m": None, "M_thresh": None, "K_out": None}  # None: adapted_defaults


def _sum_line(item: dict, config: ExperimentConfig) -> str:
    return (f"N = {item['N']}: lhs = {item['lhs']:.6g}, "
            f"rhs = {item['rhs']:.6g}, margin = {item['margin']:.6g}")


def _theorem5_line(item: dict, config: ExperimentConfig) -> str:
    return (f"n = {item['n']}: |gamma| <= {item['gamma_ceiling']:.6g}, "
            f"bound = {item['bound']:.6g}, {'ok' if item['holds'] else 'violated'}")


def _ceiling_line(item: dict, config: ExperimentConfig) -> str:
    # only the items past the block floor read the reduced entries
    tail = (f", reduced entries exactly zero: {item['exact_zero']}"
            if "exact_zero" in item else "")
    return f"n = {item['n']}: |gamma| <= {item['gamma_ceiling']:.6g}" + tail


def _mathieu_line(item: dict, config: ExperimentConfig) -> str:
    if float(config.echo["potential"]["mu"]) == 0.0:  # free: no ratio to read
        return _ceiling_line(item, config)
    return (f"n = {item['n']}: ratio = {item['ratio']:.9g} (band {item['band']:.3g}), "
            f"{'ok' if item['holds'] else 'violated'}")


def _dense_line(item: dict, config: ExperimentConfig) -> str:
    return (f"N = {item['N']}: distance = {item['distance']:.6g}, "
            f"bound = {item['lipschitz_bound']:.6g}, {'ok' if item['holds'] else 'violated'}")


def _weights_line(item: dict, config: ExperimentConfig) -> str:
    tempered = ", ".join(f"eps = {t['eps']:g}: {'ok' if t['ok'] else 'violated'}"
                         f" (crossover {t['crossover']})" for t in item["tempered"])
    head = (f"{item['weight']['kind']}: class {item['growth_class']}, "
            f"submultiplicative {item['base_ok']}")
    return head + ("; tempered " + tempered if tempered else "")


class Kind(NamedTuple):
    runner: Callable[[ExperimentConfig], Any]
    line: Callable[[dict, ExperimentConfig], str] | None = None  # a report item as text
    required: tuple[str, ...] = ("potential", "n_range")
    optional: dict[str, Any] = _SPECTRAL  # config key -> default; "kind" aside


KINDS = {
    "gaps": Kind(run_gaps, optional=_GAPS),
    "adapted": Kind(run_adapted, optional={"out": None, "tol": 1e-12, **_WINDOW}),
    "oracle": Kind(run_gaps, optional=_GAPS),
    "theorem1": Kind(verify_theorem1, _sum_line),
    "theorem4": Kind(verify_theorem4, _sum_line),
    "theorem5": Kind(verify_theorem5, _theorem5_line, optional={**_SPECTRAL, "a": 1.0}),
    "mathieu": Kind(verify_mathieu, _mathieu_line, optional={**_SPECTRAL, "c": 0.5}),
    "gasymov": Kind(verify_gasymov, _ceiling_line),
    "dense": Kind(verify_dense, _dense_line, ("potential",),
                  {**_SPECTRAL, **_WINDOW, "N_values": None, "span": 4}),
    "weights_check": Kind(verify_weights, _weights_line, ("weights",),
                          {"out": None, "N": 200, "eps_list": [0.2, 0.1, 0.05]}),
}
# kinds whose runner returns (rows, failed) for a CSV table; the rest return a report
TABLE_KINDS = ("gaps", "adapted", "oracle")


# ---------------------------------------------------------------------------
# the run path: a config's outputs, rendered and written


def run(config: ExperimentConfig, out: str | None = None, as_json: bool = False):
    """(stdout text, text written to the out path or None, exit status 0 or 1)
    of a run.  ``out``, or else the config's "out", is checked before any
    solve and gets a table's CSV or a report as indented JSON; stdout gets,
    with ``as_json``, the compact table JSON or the report, else the CSV
    when there is no out path, or the report's summary lines."""
    import json  # here, so a library import of hillgap loads no JSON codec

    out = out or config.out
    write = _writer(out) if out else None
    if config.kind in TABLE_KINDS:
        rows, failed = run_table(config)
        text, code = rows_to_csv(rows), 1 if failed else 0
        table = {"kind": config.kind, "failed": failed, "rows": rows}
        shown = json.dumps(_jsonable(table)) + "\n" if as_json else "" if out else text
    else:
        report = run_verify(config)
        text, code = json.dumps(_jsonable(report), indent=2) + "\n", 0 if report["pass"] else 1
        shown = text if as_json else _summary(report, config)
    if write:
        write(text)
    return shown, text if write else None, code


def _writer(path: str) -> Callable[[str], None]:
    """write(text) to ``path``, checked here, before any solve.  A FIFO or a
    device is written in place, with no old contents for a rename to
    protect, and needs only to be writable itself.  Any other path must sit
    in a writable directory and not be one; it is written through a
    temporary file and os.replace, so a failed write leaves no partial file
    and an older one as it was.  A refused path or failed write is a ConfigError."""
    in_place = os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path))
    parent = os.path.dirname(path) or "."
    writable = (os.access(path, os.W_OK) if in_place else not os.path.isdir(path)
                and os.path.isdir(parent) and os.access(parent, os.W_OK))
    if not writable:
        raise ConfigError(f"cannot write {path!r}: not a file in a writable directory")
    tmp = None if in_place else os.path.join(parent,
                                             f".{os.path.basename(path)}.{os.getpid()}.tmp")

    def write(text: str) -> None:
        try:
            with open(tmp or path, "w", newline="") as fh:
                fh.write(text)
            if tmp:
                os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc}") from exc
        finally:
            if tmp:  # left only by a failed or interrupted write
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)
    return write


def _jsonable(obj):
    if isinstance(obj, complex):
        return _jsonable([obj.real, obj.imag])
    if isinstance(obj, float) and not -sys.float_info.max <= obj <= sys.float_info.max:
        return None  # strict JSON has no NaN or Infinity; the CSV keeps nan
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _summary(report: dict, config: ExperimentConfig) -> str:
    """The verdict, preconditions, notes and one line per item, as the kind declares."""
    lines = [f"{report['kind']}: {'PASS' if report['pass'] else 'FAIL'}"]
    pre = report["preconditions"]
    if pre:
        lines.append("  " + ", ".join(f"{k} = {v:.6g}" for k, v in pre.items()))
    lines += [f"  note: {note}" for note in report["notes"]]
    lines += ["  " + KINDS[config.kind].line(item, config) for item in report["items"]]
    return "\n".join(lines) + "\n"
