"""Command-line front end.

    hillgap gaps   -c config.json [--out table.csv] [--json]
    hillgap oracle -c config.json [--out table.csv] [--json]
    hillgap verify SUITE -c config.json [--out report.json] [--json]

``gaps`` runs every kind of harness.TABLE_KINDS and ``oracle`` only its own.
SUITE names one of the other kinds of harness.KINDS; the suite "weights"
runs the kind "weights_check".

Exit status: 0 on success, 1 when a check fails or a table row records a
numerical error, 2 on config errors (among them an --out or config "out"
that is a directory, or whose directory is missing or not writable, and a
write to it that fails anyway, as on a full disk, with the OS error named),
and 141 (128 + SIGPIPE, as a shell reports a pipe's reader closing early)
when stdout closes before the output is written, as in ``| head``.  An
--out file is written through a temporary file and a rename, so a failed
run leaves none.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import harness, weights

_WEIGHTS_SUITE, _WEIGHTS_KIND = "weights", "weights_check"
_EXIT_BROKEN_PIPE = 141
_SUITES = [_WEIGHTS_SUITE if kind == _WEIGHTS_KIND else kind
           for kind in harness.KINDS if kind not in harness.TABLE_KINDS]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-c", "--config", required=True, help="JSON config path")
    p.add_argument("--out", help="write the CSV table or JSON report here")
    p.add_argument("--json", action="store_true",
                   help="emit the result as JSON on stdout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hillgap",
        description="spectral gap tables and verification suites for "
                    "Hill's operator with periodic potential")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("gaps", help="oracle and block gap table"))
    _add_common(sub.add_parser("oracle", help="oracle-only gap table"))
    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=_SUITES)
    _add_common(pv)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            kind = _WEIGHTS_KIND if args.suite == _WEIGHTS_SUITE else args.suite
            fits, misfit = (kind,), f"does not match suite {args.suite!r}"
        else:
            kind = args.command
            fits = harness.TABLE_KINDS if args.command == "gaps" else (kind,)
            misfit = f"does not fit subcommand {args.command!r}"
        config = harness.parse_config(raw, kind)
        if config.kind not in fits:
            raise harness.ConfigError(f"config kind {config.kind!r} {misfit}")
        out = args.out or config.out
        parent = os.path.dirname(out or "") or "."
        # refused before any solve, so a long run cannot end unwritten
        if out and (os.path.isdir(out) or not os.path.isdir(parent)
                    or not os.access(parent, os.W_OK)):
            raise harness.ConfigError(f"cannot write {out!r}: not a file in a writable directory")
        run = _run_verify if args.command == "verify" else _run_table
        code = run(config, args, out)
        # flushed here, so a closed stdout raises below, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's note on SIGPIPE: point stdout at devnull so the flush at
        # exit does not raise again (a stdout without a descriptor needs none)
        with contextlib.suppress(OSError, ValueError):
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        return _EXIT_BROKEN_PIPE
    except (harness.ConfigError, weights.TableDomainError, weights.CertificateError) as exc:
        # a table weight queried off its grid and a psi search that cannot
        # certify its minimum are faults of the config too
        print(f"config error: {exc.args[0]}", file=sys.stderr)
        return 2
    except harness.FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def _run_table(config: harness.ExperimentConfig, args, out: str | None) -> int:
    rows, failed = harness.run_table(config)
    if out:
        _write(out, harness.rows_to_csv(rows))
    if args.json:
        print(json.dumps({"kind": config.kind, "failed": failed,
                          "rows": _jsonable(rows)}))
    elif not out:
        sys.stdout.write(harness.rows_to_csv(rows))
    return 1 if failed else 0


def _run_verify(config: harness.ExperimentConfig, args, out: str | None) -> int:
    report = harness.run_verify(config)
    text = json.dumps(_jsonable(report), indent=2)
    if out:
        _write(out, text + "\n")
    if args.json:
        print(text)
    else:
        _print_summary(report)
    return 0 if report["pass"] else 1


def _write(out: str, text: str) -> None:
    # a write that fails although the path passed its check (a full disk,
    # say) ends as that check does: one line, exit 2
    try:
        harness.write_text(out, text)
    except OSError as exc:
        raise harness.ConfigError(f"cannot write {out!r}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _print_summary(report: dict) -> None:
    print(f"{report['kind']}: {'PASS' if report['pass'] else 'FAIL'}")
    pre = report["preconditions"]
    if pre:
        print("  " + ", ".join(f"{k} = {v:.6g}" for k, v in pre.items()))
    for note in report["notes"]:
        print(f"  note: {note}")
    for item in report["items"]:
        print("  " + _item_line(item))


def _item_line(item: dict) -> str:
    # the fields an item carries name its suite; dense items carry
    # "collapsed" too, so "distance" is tested first, and a bare
    # "gamma_ceiling" is a collapsed gap of a free (mu = 0) Mathieu run
    if "lhs" in item:
        return (f"N = {item['N']}: lhs = {item['lhs']:.6g}, "
                f"rhs = {item['rhs']:.6g}, margin = {item['margin']:.6g}")
    if "bound" in item:
        return (f"n = {item['n']}: |gamma| <= {item['gamma_ceiling']:.6g}, "
                f"bound = {item['bound']:.6g}, "
                f"{'ok' if item['holds'] else 'violated'}")
    if "ratio" in item:
        return (f"n = {item['n']}: ratio = {item['ratio']:.9g} "
                f"(band {item['band']:.3g}), "
                f"{'ok' if item['holds'] else 'violated'}")
    if "distance" in item:
        return (f"N = {item['N']}: distance = {item['distance']:.6g}, "
                f"bound = {item['lipschitz_bound']:.6g}, "
                f"{'ok' if item['holds'] else 'violated'}")
    if "gamma_ceiling" in item:
        tail = ""
        if "exact_zero" in item:
            tail = f", reduced entries exactly zero: {item['exact_zero']}"
        return (f"n = {item['n']}: |gamma| <= {item['gamma_ceiling']:.6g}"
                + tail)
    if "growth_class" in item:
        spec = item["weight"]
        tempered = ", ".join(
            f"eps = {t['eps']:g}: {'ok' if t['ok'] else 'violated'}"
            f" (crossover {t['crossover']})" for t in item["tempered"])
        head = (f"{spec.get('kind', '?')}: class {item['growth_class']}, "
                f"submultiplicative {item['base_ok']}")
        return head + ("; tempered " + tempered if tempered else "")
    return json.dumps(_jsonable(item))


if __name__ == "__main__":
    sys.exit(main())
