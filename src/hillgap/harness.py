"""Experiment runner: JSON configs in, CSV tables and verification reports out.

A config names one experiment kind, declared once in KINDS with the config
keys it reads, the optional ones with their defaults; each potential type
likewise, and each weight kind in weights.KINDS.  The table kinds
(TABLE_KINDS: "gaps", "adapted", "oracle") emit one CSV row per index per
method.  Every other kind is a claim of hillgap.verify, which loads for it
alone and returns a report.  run takes a parsed config to its outputs: it
checks the out path, runs the kind, and renders and writes every output,
for the CLI to print and exit with.

Configs are read strictly (an undeclared or missing field, a non-finite
number, a negative seed or a repeated entry is an error) and echoed into
every report with all defaults filled in.  CSV output has a fixed column
order and 17 significant digits, so identical configs give identical files.

Every gap a table row or a claim reads is solved by _gap, into one record,
Gap: from the Floquet oracle, its Dirichlet record, or the block reduction.
The oracle loads where _gap first calls it, or where a config names an
oracle method or dps to check; weights where _weight reads a weight or decay.
The config reader checks those with floquet._path and the adapted
window with blockdecomp.adapted_defaults, keeping no rule of its own; their
refusals, and a tol the oracle needs over 300 digits for, are ConfigErrors.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import math
import os
import sys
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from . import blockdecomp
from .seqspace import (
    FourierPotential,
    make_fourier,
    make_gasymov,
    make_mathieu,
    make_random,
)

if TYPE_CHECKING:
    from .weights import Weight

CSV_COLUMNS = ("n", "method", "re_lm", "im_lm", "re_lp", "im_lp",
               "re_gamma", "im_gamma", "re_alpha", "im_alpha",
               "re_pp", "im_pp", "re_pm", "im_pm", "resid", "iters")

# the numerical failures a table row records and the CLI reports with exit 1;
# floquet's RootSearchError is an IterationError
FAILURES = (blockdecomp.DomainError, blockdecomp.ContractionError,
            blockdecomp.IterationError)


class ConfigError(ValueError):
    """Config rejected: unknown key, missing field, or bad value."""


class ExperimentConfig(NamedTuple):
    """A validated config, immutable.  Each kind sets the fields it reads,
    defaults resolved as KINDS declares them; the others hold None.  ``echo``
    is the config as reports show it."""

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
# declaration, (required fields, optional fields with defaults)

_POTENTIALS = {
    # type -> (required fields, optional fields with defaults)
    "mathieu": (("mu",), {}),
    "fourier": (("coeffs",), {"mean": [0.0, 0.0]}),
    "gasymov": (("coeffs",), {}),
    "random": (("decay", "seed", "K"), {"real": True}),
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
    required, optional = table[name]
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
    return blockdecomp._integer(value, where, ConfigError, least)


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
    from . import weights  # here, so a run that names no weight or decay loads none

    kind, fields = _declared(spec, where, "kind", weights.KINDS)
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
# the gap record


class Gap(NamedTuple):
    """The n-th gap from ``source`` as table rows and claims read it: "oracle",
    floquet's pair, ``alpha`` its critical point, ``ceiling`` |gamma| if
    ``resolved``, else max(|gamma|, gamma_floor); "block", ``alpha`` = alpha_n,
    with p_+-n (``pp``, ``pm``) and a_n(alpha_n) (``a_n``); "dirichlet",
    floquet.gap_record's pair with ``delta`` = sigma_n - tau_n.  The last two
    are resolved at |gamma|, as returned: no claim reads either field of them."""

    n: int
    source: str
    lm: complex
    lp: complex
    gamma: complex
    ceiling: float
    resolved: bool
    alpha: complex | None = None
    resid: float | None = None
    iters: int | None = None
    pp: complex | None = None
    pm: complex | None = None
    a_n: complex | None = None
    delta: complex | None = None


def _gap(q: FourierPotential, n: int, config: ExperimentConfig, source: str = "oracle") -> Gap:
    """The one call that solves a gap; both solvers are looked up when called."""
    if source == "block":
        b = blockdecomp.gap_block(q, n, config.tol)
        return Gap(n, source, b.xi_minus, b.xi_plus, b.gamma_n, abs(b.gamma_n), True,
                   b.alpha_n, b.diagnostics.resid, b.diagnostics.solver_iters,
                   b.p_plus, b.p_minus, b.a_n_at_alpha)
    from . import floquet

    oracle = {"method": config.oracle_method, "dps": config.oracle_dps}
    try:
        if source == "dirichlet":
            r = floquet.gap_record(q, n, tol=config.tol, **oracle)
            return Gap(n, source, r.lam_minus, r.lam_plus, r.gamma, abs(r.gamma), True,
                       delta=r.delta)
        lm, lp, info = floquet.periodic_eigs_info(q, n, config.tol, **oracle)
    except floquet.PrecisionError as exc:
        raise ConfigError(str(exc)) from None
    gamma, resolved = info["gamma"], info["resolved"]
    ceiling = abs(gamma) if resolved else max(abs(gamma), info["gamma_floor"])
    return Gap(n, source, lm, lp, gamma, ceiling, resolved, info["critical"],
               info["resid"], info["iters"])


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
    return (run_adapted if config.kind == "adapted" else run_gaps)(config)


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


def run_verify(config: ExperimentConfig) -> dict:
    """The report of a verification kind, its claim evaluated by hillgap.verify."""
    if config.kind in TABLE_KINDS:
        raise ConfigError(f"kind {config.kind!r} is not a verification experiment")
    from . import verify

    return verify.evaluate(config)


# ---------------------------------------------------------------------------
# experiment kinds


# a kind declares only the keys its table or claim reads, and the default of "oracle"
# declares the fields of that object
_ORACLE = {"method": "auto", "dps": None}
_GAPS = {"out": None, "tol": 1e-12, "oracle": _ORACLE}
_SPECTRAL = {"out": None, "weight": {"kind": "trivial"}, "tol": 1e-12, "oracle": _ORACLE}
_WINDOW = {"m": None, "M_thresh": None, "K_out": None}  # None: adapted_defaults


class Kind(NamedTuple):
    required: tuple[str, ...] = ("potential", "n_range")
    optional: dict[str, Any] = _SPECTRAL  # config key -> default; "kind" aside


KINDS = {
    "gaps": Kind(optional=_GAPS),
    "adapted": Kind(optional={"out": None, "tol": 1e-12, **_WINDOW}),
    "oracle": Kind(optional=_GAPS),
    "theorem1": Kind(),
    "theorem4": Kind(),
    "theorem5": Kind(optional={**_SPECTRAL, "a": 1.0}),
    "mathieu": Kind(optional={**_SPECTRAL, "c": 0.5}),
    "gasymov": Kind(),
    "dense": Kind(("potential",), {**_SPECTRAL, **_WINDOW, "N_values": None, "span": 4}),
    "weights_check": Kind(("weights",), {"out": None, "N": 200, "eps_list": [0.2, 0.1, 0.05]}),
}
# the table kinds, whose rows run_table returns; each other kind is a claim of hillgap.verify
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
        from . import verify

        report = run_verify(config)
        text, code = json.dumps(_jsonable(report), indent=2) + "\n", 0 if report["pass"] else 1
        shown = text if as_json else verify.summary(report)
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
