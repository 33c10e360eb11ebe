"""Layer timings of hillgap before and after a change, from one interleaved run.

    python3 bench/run.py --base REV [--repeat R]

Compares the ``src`` of revision REV, extracted with ``git archive`` into a
temporary directory, with this checkout's ``src`` (the working tree, edits
included), and writes BENCH_<base>_<change>.json at the repo root, each side
named by its short hash; the change's name ends in "-dirty" when its ``src``
differs from HEAD's.  ``--base HEAD`` on a clean tree runs a revision against
itself, so its ratios show the noise of the method.  R defaults to 10.

The run is R pairs.  Each pair starts a fresh worker process per tree,
``python3 -c`` with that tree's ``src`` as its PYTHONPATH, which loads this
script by path, imports only its own hillgap, reports ``hillgap.__file__``
and then times the rows below, this script's, on request; the tree whose
worker starts first alternates from pair to pair, so no row leans one way
for the life of one process.  Row by row, each worker makes a first call,
then each takes one warm sample, both in the order the workers started;
the last pair also reports each row's details, untimed.  A warm sample
repeats the call back to back until 10 ms have passed and reports the mean
per call, so a sample of a sub-millisecond row is not a single timer
reading; a slower row's sample is one call.  A worker looks up the public
functions the rows call when it starts and every private name when a row
runs.  The file records:

  * the two revisions (``revs``), the hillgap each side imported, relative
    to its tree, R, the date and the machine facts: CPU count, platform,
    Python, numpy and mpmath versions, mpmath's arithmetic backend, and
    whether numba and gmpy2 import;
  * for each row and side, the median over pairs of the first call and of
    the warm sample, with the warm quartiles, in ms (``first_ms``,
    ``warm_ms``, ``warm_q_ms``), and the row's details; a row that one side
    cannot run, such as one that reads a private name an older tree lacks,
    records that side's ``error``, and the run goes on;
  * for each row that both sides ran, the median over pairs of the ratio
    change / base with its quartiles (``ratio``, ``ratio_q``) and the pairs
    the change won (``wins`` of ``pairs``; a tie counts for neither side).

The rows, their details in parentheses:

  * ``startup/import_cli``: ``import hillgap.cli`` after numpy in a fresh
    interpreter, timed by that interpreter (``loads``: for each perfbench
    config, the layers that load only where a route reaches them, the
    Floquet oracle, its fixed-point ladder, mpmath and the weights, that a
    fresh process running ``hillgap gaps`` on it has loaded by its exit);
  * ``monodromy/*``: one monodromy evaluation per backend (taylor, rk4,
    mp30, mp60) on the Mathieu potential cos(2 pi x) at lam = n^2 pi^2,
    n = 3 and 10 (for mp30 and mp60 the ladder's ``plan``, its (order,
    steps), and ``plan_ms``, the time of a cold plan call, its cache and the
    double tables cleared); the order-3 mp30 trace jet at n = 10, the jet a
    ladder escalation builds (``mp30_jet3_n10``), the same jet on the
    cosine translated by theta = 0.1, which is not even and so keeps both
    columns (``mp30_jet3_n10_translated``), and the two-column order-6 mp30
    jet of the complex K = 16 Gevrey draw of the wideband_complex workload
    at n = 15 (``wideband_mp30_jet6_n15``), whose first call also builds
    the discriminant (``plan``, ``plan_ms``, the ``columns`` transported and
    the widest lane ``width`` in bits the ladder packed); and the 60-digit
    Dirichlet eigenvalue at n = 8, seeded by its double root
    (``mp60_dirichlet_n8``);
  * ``periodic_eigs_info/*``: one solve (method "auto") on that potential
    at n = 3 and 10 and on the K = 16 draw at n = 15, each at the default
    tol, where trees with the det rung resolve the escalated gap in
    doubles, and at tol = 1e-20 (``*_tol1e-20``), below that rung's floor,
    where the escalation still runs the ladder (the path taken as
    ``method``, its finishing precision ``dps``, None for doubles, the
    Newton ``iters``, and the solve ledger ``kernels`` and ``escalated``
    when the tree reports them);
  * ``gap_block/*``: ``gap_block`` on that potential at n = 3, on the real
    K = 16 Gevrey draw (seed 202) at n = 4 and 15, and on the complex
    K = 64 draw of the adapted_wide workload at n = 8 and 32 (the resolvent
    rounds ``solver_iters`` and the root-loop ``newton_iters``), and
    ``adapted_map`` with its defaults on the K = 64 draw
    (``adapted_map_K64``, its resolvent rounds summed over its indices);
  * ``high_precision/*``: on that potential at n = 8 with tol = 1e-26,
    method "mp" and dps = 60, ``periodic_eigs_info`` (its ``kernels``, which
    serve ``gap_record`` too) and ``gap_record``; ``periodic_eigs_info`` on
    the K = 16 draw at n = 15, method "mp", dps = 60 and the default tol
    (``wideband_mp60_n15``, with ``kernels``), the slowest path a user can
    ask for; and the pinned-precision sweep, ``gap_record`` at n = 3..8 with
    the cosine's settings (``gap_record_sweep_n3_8``, the ``kernels`` at
    each n).

The CLI end to end is timed by perfbench/run.py, not here.
"""

import argparse
import cmath
import contextlib
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_WORKER = "import runpy, sys; runpy.run_path(sys.argv[1])['serve']()"


def machine() -> dict:
    import mpmath
    import numpy as np

    found = {name: importlib.util.find_spec(name) is not None for name in ("numba", "gmpy2")}
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND, **found}


def _plan(q, lam, dps: int) -> dict:
    """The ladder's (order, steps) at lam and the time of a cold call, its
    own cache and the oracle's double tables cleared."""
    from hillgap import floquet, ladder

    ladder._mp_plan.cache_clear()
    floquet._taylor_table.cache_clear()
    start = time.perf_counter()
    plan = ladder._mp_plan(q, lam, dps)
    return {"plan": list(plan), "plan_ms": 1e3 * (time.perf_counter() - start)}


def _lane_width(fn) -> int:
    """The widest lane width, in bits, that fn packs on the fixed-point ladder."""
    from hillgap import ladder

    lanes, packed = ladder._Lanes, []
    ladder._Lanes = lambda *args: packed.append(lanes(*args)) or packed[-1]
    try:
        fn()
    finally:
        ladder._Lanes = lanes
    return max(lane.width for lane in packed)


def _kept(fn, details=lambda result: {}):
    """A row: call() times fn() and keeps its result, details() reads it."""
    kept = []

    def call():
        start = time.perf_counter()
        kept[:] = [fn()]
        return time.perf_counter() - start

    return call, lambda: details(kept[0])


def _fresh(code: str, *args: str) -> str:
    """stdout of ``python3 -c code args``, with this process's PYTHONPATH."""
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True, timeout=120).stdout


_IMPORT_CLI = ("import time, numpy; start = time.perf_counter(); import hillgap.cli; "
               "print(time.perf_counter() - start)")
_LOADS = ("import json, sys; from hillgap import cli; cli.main(sys.argv[1:]); "
          "layers = ('hillgap.floquet', 'hillgap.ladder', 'mpmath', 'hillgap.weights'); "
          "print(json.dumps([m for m in layers if m in sys.modules]))")


def _loads() -> dict:
    configs, loads = os.path.join(ROOT, "perfbench", "configs"), {}
    for name in sorted(os.listdir(configs)):
        lines = _fresh(_LOADS, "gaps", "-c", os.path.join(configs, name)).splitlines()
        loads[name[:-len(".json")]] = json.loads(lines[-1])
    return {"loads": loads}


def _jet_row(q, n: int, order: int):
    """The mp30 trace jet at lam = n^2 pi^2 that an escalated solve asks for;
    the first call also builds its discriminant."""
    from hillgap import floquet

    lam, discs = n * n * math.pi ** 2, []

    def jet():
        discs[:] = discs or [floquet._disc(q, "mp", 30, lam, form=floquet._trace)]
        with discs[0].precision():
            discs[0].jet(lam, order)

    return _kept(jet, lambda _: {**_plan(q, lam, 30), "width": _lane_width(jet),
                                 "columns": getattr(discs[0], "columns", 2)})


def rows() -> dict:
    """Every row, in a worker: name -> (call, details), where call() returns
    the seconds of one call and details() describes the row, untimed."""
    from hillgap import blockdecomp, floquet, make_fourier, make_mathieu, make_random
    from hillgap.weights import gevrey

    cosine = make_mathieu(1.0)
    # the complex K = 16 Gevrey draw of the wideband_complex workload
    wideband = make_random(gevrey(0, 1, 0.5), seed=11, K=16, real=False)
    wide = make_random(gevrey(0, 1, 0.5), seed=202, K=16)
    k64 = make_random(gevrey(0, 1, 0.5), seed=11, K=64, real=False)
    turn = cmath.exp(0.2j * math.pi)
    translated = make_fourier({1: 0.5 * turn, -1: 0.5 * turn.conjugate()})
    table = {"startup/import_cli": (lambda: float(_fresh(_IMPORT_CLI)), _loads)}

    def monodromy(lam, **kw):
        return _kept(partial(floquet.monodromy, cosine, lam, **kw),
                     lambda _: _plan(cosine, lam, kw["dps"]) if "dps" in kw else {})

    def info(*keys):
        return lambda result: {key: result[2].get(key) for key in keys}

    for n in (3, 10):
        for name, kw in (("taylor", {"method": "taylor"}), ("rk4", {"method": "rk4"}),
                         ("mp30", {"dps": 30}), ("mp60", {"dps": 60})):
            table[f"monodromy/{name}_n{n}"] = monodromy(n * n * math.pi ** 2, **kw)
    for name, q, n, order in (("mp30_jet3_n10", cosine, 10, 3),
                              ("mp30_jet3_n10_translated", translated, 10, 3),
                              ("wideband_mp30_jet6_n15", wideband, 15, 6)):
        table[f"monodromy/{name}"] = _jet_row(q, n, order)
    table["monodromy/mp60_dirichlet_n8"] = _kept(
        partial(floquet.sturm_liouville_eig, cosine, 8, dps=60))
    for name, q, n in (("cosine_n3", cosine, 3), ("cosine_n10", cosine, 10),
                       ("wideband_n15", wideband, 15)):
        for tol, suffix in ((1e-12, ""), (1e-20, "_tol1e-20")):
            table[f"periodic_eigs_info/{name}{suffix}"] = _kept(
                partial(floquet.periodic_eigs_info, q, n, tol),
                info("method", "dps", "iters", "kernels", "escalated"))
    for name, q, n in (("cosine_n3", cosine, 3), ("gevrey202_n4", wide, 4),
                       ("gevrey202_n15", wide, 15), ("gevrey11_K64_n8", k64, 8),
                       ("gevrey11_K64_n32", k64, 32)):
        table[f"gap_block/{name}"] = _kept(partial(blockdecomp.gap_block, q, n), lambda block: {
            key: getattr(block.diagnostics, key) for key in ("solver_iters", "newton_iters")})
    diag = {}
    table["gap_block/adapted_map_K64"] = _kept(
        partial(blockdecomp.adapted_map, k64, diagnostics=diag),
        lambda _: {"solver_iters": sum(block.iters for block in diag.values())})
    kw, sweep = {"tol": 1e-26, "method": "mp", "dps": 60}, range(3, 9)
    ledger = partial(floquet.periodic_eigs_info, cosine, **kw)
    table["high_precision/periodic_eigs_info_n8"] = _kept(partial(ledger, 8), info("kernels"))
    table["high_precision/gap_record_n8"] = _kept(partial(floquet.gap_record, cosine, 8, **kw))
    table["high_precision/wideband_mp60_n15"] = _kept(
        partial(floquet.periodic_eigs_info, wideband, 15, method="mp", dps=60), info("kernels"))
    table["high_precision/gap_record_sweep_n3_8"] = _kept(
        lambda: [floquet.gap_record(cosine, n, **kw) for n in sweep],
        lambda _: {"kernels": {n: ledger(n)[2].get("kernels") for n in sweep}})
    return table


def serve() -> None:
    """A worker's loop: each stdin line ["first" | "warm" | "details", row] is
    answered on one stdout line with {"s": seconds}, the details or {"error": ...}."""
    table = rows()  # which imports hillgap from this worker's tree
    print(json.dumps({"hillgap": sys.modules["hillgap"].__file__, "rows": list(table)}), flush=True)
    for line in sys.stdin:
        step, name = json.loads(line)
        call, details = table[name]
        try:
            if step == "details":
                reply = details()
            else:
                # a fast row's warm sample is a mean, not one timer reading
                spent, calls = call(), 1
                while step == "warm" and spent < 0.01:
                    spent, calls = spent + call(), calls + 1
                reply = {"s": spent / calls}
        except Exception as exc:  # the row fails on this side; the run goes on
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(reply, default=repr), flush=True)


def _spread(values) -> tuple[float, list]:
    """The median of values and their quartiles [q1, q3]."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return median, [q1, q3]


def pair_stats(base: list, change: list) -> dict:
    """The median ratio change / base over pairs of times, its quartiles,
    and the pairs the change won; a tie counts for neither side."""
    pairs = list(zip(base, change))
    ratio, ratio_q = _spread([c / b for b, c in pairs])
    return {"ratio": ratio, "ratio_q": ratio_q, "wins": sum(c < b for b, c in pairs),
            "pairs": len(pairs)}


def _ask(worker: subprocess.Popen, step: str, name: str) -> dict:
    worker.stdin.write(json.dumps([step, name]) + "\n")
    worker.stdin.flush()
    return json.loads(worker.stdout.readline())


def _worker(tree: str) -> subprocess.Popen:
    """A fresh worker on tree's ``src``; it answers once it has imported its hillgap."""
    return subprocess.Popen([sys.executable, "-c", _WORKER, os.path.abspath(__file__)],
                            env={**os.environ, "PYTHONPATH": os.path.join(tree, "src")},
                            cwd=tree, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def _pair(trees: dict, order: list, names, rows: dict, samples: dict, last: bool) -> dict:
    """One pair on a fresh worker per tree, started in ``order``.  Row by
    row, a first call on each side, then a warm sample on each, both in
    that order, go into samples[row][side]; a side's error, and on the
    ``last`` pair its details, into rows[row][side].  Returns each side's
    greeting."""
    with contextlib.ExitStack() as stack:
        workers = {side: stack.enter_context(_worker(trees[side])) for side in order}
        hello = {side: json.loads(worker.stdout.readline()) for side, worker in workers.items()}
        for name in names or hello["change"]["rows"]:
            row = rows.setdefault(name, {side: {} for side in trees})
            times = samples.setdefault(name, {side: {"first": [], "warm": []} for side in trees})
            for step in ("first", "warm"):
                for side, worker in workers.items():
                    if "error" not in row[side]:
                        reply = _ask(worker, step, name)
                        times[side][step] += [1e3 * reply.pop("s")] if "s" in reply else []
                        row[side].update(reply)
            for side, worker in workers.items() if last else ():
                if "error" not in row[side]:
                    row[side].update(_ask(worker, "details", name))
    return hello


def compare(trees: dict, repeat: int, names=None) -> dict:
    """The rows (all, or those named) on trees {"base": dir, "change": dir}:
    ``repeat`` pairs, each on a fresh worker per tree, the tree whose
    worker starts first alternating from pair to pair."""
    rows, samples = {}, {}
    for i in range(repeat):
        order = sorted(trees, reverse=i % 2 == 1)
        hello = _pair(trees, order, names, rows, samples, i == repeat - 1)
    report = {side: {"hillgap": os.path.relpath(hello[side]["hillgap"], trees[side])}
              for side in sorted(trees)}
    for name, row in rows.items():
        times = samples[name]
        for side in trees:
            if times[side]["warm"]:
                warm, quartiles = _spread(times[side]["warm"])
                row[side] = {"first_ms": statistics.median(times[side]["first"]), "warm_ms": warm,
                             "warm_q_ms": quartiles, **row[side]}
        if times["base"]["warm"] and times["change"]["warm"]:
            row.update(pair_stats(times["base"]["warm"], times["change"]["warm"]))
    return {**report, "rows": rows}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare this checkout with")
    parser.add_argument("--repeat", type=int, default=10,
                        help="pairs, each on a fresh worker per tree")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    revs = {"base": _git("rev-parse", "--short", args.base),
            "change": _git("rev-parse", "--short", "HEAD")
            + ("-dirty" if _git("status", "--porcelain", "--", "src") else "")}
    with tempfile.TemporaryDirectory() as base:
        archive = subprocess.run(["git", "archive", revs["base"], "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        report = {"revs": revs, "repeat": args.repeat, "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                  "machine": machine(), **compare({"base": base, "change": ROOT}, args.repeat)}
    path = os.path.join(ROOT, f"BENCH_{revs['base']}_{revs['change']}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
