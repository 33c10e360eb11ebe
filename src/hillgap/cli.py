"""Command-line front end.

    hillgap gaps   -c config.json [--out table.csv] [--json]
    hillgap oracle -c config.json [--out table.csv] [--json]
    hillgap verify SUITE -c config.json [--out report.json] [--json]

``gaps`` runs every kind of harness.TABLE_KINDS and ``oracle`` only its own.
SUITE names one of the other kinds of harness.KINDS; the suite "weights"
runs the kind "weights_check".  harness.run checks the --out path, runs the
config, and renders and writes every output.

Exit status: 0 on success, 1 when a check fails or a table row records a
numerical error, 2 on config errors (among them an --out or config "out"
that harness.run refuses, and a write to it that fails anyway, as on a full
disk, with the OS error named), and 141 (128 + SIGPIPE, as a shell reports
a pipe's reader closing early) when stdout closes before the output is
written, as in ``| head``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import harness

_WEIGHTS_SUITE, _WEIGHTS_KIND = "weights", "weights_check"
_SUITES = [_WEIGHTS_SUITE if kind == _WEIGHTS_KIND else kind
           for kind in harness.KINDS if kind not in harness.TABLE_KINDS]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hillgap",
        description="spectral gap tables and verification suites for "
                    "Hill's operator with periodic potential")
    sub = parser.add_subparsers(dest="command", required=True)
    gaps = sub.add_parser("gaps", help="oracle and block gap table")
    oracle = sub.add_parser("oracle", help="oracle-only gap table")
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=_SUITES)
    for p in (gaps, oracle, verify):
        p.add_argument("-c", "--config", required=True, help="JSON config path")
        p.add_argument("--out", help="write the CSV table or JSON report here")
        p.add_argument("--json", action="store_true", help="emit the result as JSON on stdout")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        shown, _, code = harness.run(config, args.out, args.json)
        sys.stdout.write(shown)
        # flushed here, so a closed stdout raises below, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's note on SIGPIPE: point stdout at devnull so the flush at
        # exit does not raise again (a stdout without a descriptor needs none)
        with contextlib.suppress(OSError, ValueError):
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        return 141
    except (harness.ConfigError, *_weight_faults()) as exc:
        print(f"config error: {exc.args[0]}", file=sys.stderr)
        return 2
    except harness.FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def _weight_faults() -> tuple:
    # a table weight queried off its grid and a psi search that cannot certify its minimum
    # are config faults too, raised only once weights has loaded, so a run without one loads none
    weights = sys.modules.get("hillgap.weights")
    return (weights.TableDomainError, weights.CertificateError) if weights else ()


if __name__ == "__main__":
    sys.exit(main())
