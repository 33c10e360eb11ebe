"""Work the benchmark runs in a child process of its own.

    python3 child.py ready  CONFIG
    python3 child.py cli    ARGS...
    python3 child.py trace  CONFIG OUT_CSV SPANS_JSON
    python3 child.py kernel CONFIG N

hillgap must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).  Each mode prints one JSON line on stdout.

``ready`` imports the CLI and runs ``cli.main`` up to the point where it
hands the parsed config to ``harness.run_table``, and prints the monotonic
clock there; the parent subtracts its own clock at spawn time to get the
set-up time.

``cli`` runs ``cli.main(ARGS)``, exits with its code, and prints that code
and this process's peak resident memory, VmHWM from /proc/self/status.
exec gives the process a fresh address space whose high-water mark starts
at zero, so the figure holds none of the parent's memory.  The rusage
``ru_maxrss`` of the child also counts the address space it had before
exec, a copy of the parent's: on cosine_escalated it read 59 MB where VmHWM
reads 40 MB.

``trace`` replaces public functions of each layer with timing wrappers and
runs ``cli.main`` in-process.  Spans stay in memory, go to SPANS_JSON at the
end, and are folded into the per-layer counts and times printed on stdout.

``kernel`` times direct calls to the public ``floquet.monodromy`` at
lam = n^2 pi^2 in a fresh process, so the first high-precision call pays
for its coefficient table.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time

# warm high-precision kernel calls timed; the Taylor kernel gets four times as many
WARM_CALLS = 5


class _Ready(Exception):
    pass


def ready(config: str) -> None:
    from hillgap import cli, harness

    def stop(_config):
        raise _Ready(time.monotonic())

    harness.run_table = stop
    try:
        cli.main(["gaps", "-c", config])
    except _Ready as mark:
        print(json.dumps({"ready": mark.args[0]}))
        return
    raise SystemExit("the CLI returned before reaching run_table")


def run_cli(argv: list[str]) -> int:
    from hillgap import cli

    code = cli.main(argv)
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(json.dumps({"exit": code, "peak_rss_mb": kb / 1024.0}))
    return code


class Tracer:
    """Spans [name, start, end, parent, attrs] around wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own


def _rows_note(args, kwargs, result):
    return {"rows": len(result[0])}


def _solve_note(args, kwargs, result):
    info = result[2]
    return {"method": info["method"], "iters": info["iters"]}


def _block_note(args, kwargs, result):
    d = result.diagnostics
    return {"rounds": d.solver_iters, "newton": d.newton_iters}


def _map_note(args, kwargs, result):
    diag = kwargs.get("diagnostics") or {}
    return {"rounds": sum(info.iters for info in diag.values())}


def _conv_note(args, kwargs, result):
    q, f = args
    # np.convolve of the full kernel with the vector: one complex
    # multiply-add per pair of entries
    return {"madds": len(q.data) * len(f.data)}


def trace(config: str, out_csv: str, spans_json: str) -> None:
    from hillgap import blockdecomp, cli, floquet, harness

    tr = Tracer()
    tr.wrap(cli, "main", "cli")
    tr.wrap(harness, "run_table", "harness", _rows_note)
    tr.wrap(floquet, "periodic_eigs_info", "floquet.solve", _solve_note)
    tr.wrap(blockdecomp, "gap_block", "blockdecomp.gap_block", _block_note)
    tr.wrap(blockdecomp, "adapted_map", "blockdecomp.adapted_map", _map_note)
    tr.wrap(blockdecomp, "alpha_fixed_point", "blockdecomp.alpha_fixed_point")
    tr.wrap(blockdecomp, "multiply_by_potential", "seqspace.convolution", _conv_note)
    code = cli.main(["gaps", "-c", config, "--out", out_csv])
    with open(spans_json, "w") as fh:
        json.dump(tr.spans, fh)
    print(json.dumps({"exit": code, "layers": summarize(tr)}))


def summarize(tr: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced run."""
    own = tr.self_times()
    m = {key: 0 for key in (
        "harness.rows", "floquet.solves", "floquet.escalated", "floquet.newton_iters",
        "blockdecomp.gap_blocks", "blockdecomp.resolvent_rounds",
        "blockdecomp.root_newton_iters", "blockdecomp.alpha_fixed_point_calls",
        "seqspace.convolutions", "seqspace.conv_madds")}
    m.update({key: 0.0 for key in (
        "cli.self_s", "harness.sweep_s", "harness.self_s",
        "floquet.mp_solve_s", "floquet.double_solve_s",
        "blockdecomp.gap_block_s", "blockdecomp.adapted_map_s",
        "blockdecomp.alpha_fixed_point_s", "blockdecomp.self_s",
        "seqspace.convolution_s")})
    for (name, start, end, _, attrs), self_s in zip(tr.spans, own):
        took = end - start
        if name == "cli":
            m["cli.self_s"] += self_s
        elif name == "harness":
            m["harness.rows"] += attrs["rows"]
            m["harness.sweep_s"] += took
            m["harness.self_s"] += self_s
        elif name == "floquet.solve":
            m["floquet.solves"] += 1
            m["floquet.newton_iters"] += attrs["iters"]
            if attrs["method"].startswith("mp"):
                m["floquet.escalated"] += 1
                m["floquet.mp_solve_s"] += took
            else:
                m["floquet.double_solve_s"] += took
        elif name == "seqspace.convolution":
            m["seqspace.convolutions"] += 1
            m["seqspace.conv_madds"] += attrs["madds"]
            m["seqspace.convolution_s"] += took
        else:
            m["blockdecomp.self_s"] += self_s
            if name == "blockdecomp.gap_block":
                m["blockdecomp.gap_blocks"] += 1
                m["blockdecomp.gap_block_s"] += took
                m["blockdecomp.resolvent_rounds"] += attrs["rounds"]
                m["blockdecomp.root_newton_iters"] += attrs["newton"]
            elif name == "blockdecomp.adapted_map":
                m["blockdecomp.adapted_map_s"] += took
                m["blockdecomp.resolvent_rounds"] += attrs["rounds"]
            else:
                m["blockdecomp.alpha_fixed_point_calls"] += 1
                m["blockdecomp.alpha_fixed_point_s"] += took
    return m


def kernel(config: str, n: int) -> None:
    from hillgap import floquet, harness

    with open(config) as fh:
        q = harness.parse_config(json.load(fh), "gaps").potential
    lam = n * n * math.pi ** 2

    def timed(**kw) -> float:
        start = time.perf_counter()
        floquet.monodromy(q, lam, **kw)
        return 1e3 * (time.perf_counter() - start)

    cold = timed(dps=30)
    warm = statistics.median(timed(dps=30) for _ in range(WARM_CALLS))
    timed(method="taylor")
    taylor = statistics.median(timed(method="taylor") for _ in range(4 * WARM_CALLS))
    print(json.dumps({"floquet.mp30_kernel_ms": warm,
                      "floquet.mp30_table_ms": cold - warm,
                      "floquet.taylor_kernel_ms": taylor}))


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "ready":
        ready(*rest)
    elif mode == "cli":
        sys.exit(run_cli(rest))
    elif mode == "trace":
        trace(*rest)
    elif mode == "kernel":
        kernel(rest[0], int(rest[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
