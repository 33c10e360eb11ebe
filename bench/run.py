"""Layer timings of hillgap, written to BENCH_<label>.json at the repo root.

    python3 bench/run.py --label NAME [--repeat R]

Run from anywhere; hillgap is imported from this checkout's ``src``.  The
file records:

  * machine facts: CPU count, platform, Python, numpy and mpmath versions,
    mpmath's arithmetic backend, and whether numba and gmpy2 import;
  * one monodromy evaluation per backend (taylor, rk4, mp30, mp60) on the
    Mathieu potential cos(2 pi x) at lam = n^2 pi^2, n = 3 and 10: the
    first call (which builds the coefficient table) and the median of R
    warm calls, in ms, and for mp30 and mp60 the ladder's plan, its
    (order, steps); next to them, the order-3 mp30 trace jet at n = 10, the
    jet an escalated solve builds (``mp30_jet3_n10``), the same jet on the
    cosine translated by theta = 0.1, which is not even and so keeps both
    columns (``mp30_jet3_n10_translated``), and the two-column order-6 mp30
    jet of the complex K = 16 Gevrey draw of the wideband_complex workload
    at n = 15 (``wideband_mp30_jet6_n15``), each with its plan, the columns
    it transported and the widest lane ``width`` (bits) the ladder packed,
    and the 60-digit Dirichlet eigenvalue at n = 8, seeded by its double
    root (``mp60_dirichlet_n8``);
  * one ``periodic_eigs_info`` solve (method "auto") on that potential at
    n = 3 and 10 and on the complex K = 16 Gevrey draw of the
    wideband_complex workload at n = 15: first and median warm wall time,
    with the path taken, the Newton iterations, and the solve ledger
    (transports and summed jet order per path) when the code reports one;
  * one ``gap_block`` on that potential at n = 3, on the real K = 16
    Gevrey draw (seed 202) at n = 4 and 15, and on the complex K = 64 draw
    of the adapted_wide workload at n = 8 and 32: first and median warm
    wall time, the resolvent rounds (``solver_iters``) and the root-loop
    iterations (``newton_iters``); next to them, ``adapted_map`` with its
    defaults on the K = 64 draw (``adapted_map_K64``), with the resolvent
    rounds summed over its indices;
  * the high-precision solves on that potential at n = 8 with tol = 1e-26,
    method "mp" and dps = 60: ``periodic_eigs_info`` and ``gap_record``,
    first and median warm wall time, and the pair's solve ledger; and
    ``periodic_eigs_info`` on the K = 16 draw at n = 15, method "mp" and
    dps = 60 at the default tol (``wideband_mp60_n15``), the slowest path a
    user can ask for, with its ledger;
  * the pinned-precision sweep: ``gap_record`` on that potential at
    n = 3..8 with the same settings, first and median warm wall time of the
    whole sweep, and the pair's solve ledger at each n;
  * start-up: the median time of ``import hillgap.cli`` after numpy over
    max(R, 5) fresh interpreters (``import_cli_ms``), and for each perfbench config
    the heavy modules (the Floquet oracle, its fixed-point ladder, mpmath)
    that a fresh process running ``hillgap gaps`` on it has loaded by its
    exit (``loads``).

The CLI end to end is timed by perfbench/run.py, not here.  Every time
(a key ending in _s or _ms) is rescaled to perfbench's reference speed the
way its Speed class does it: ``calibrate()`` from perfbench/run.py (loaded
by path, read only) runs before and after each section, and the section's
times are multiplied by 2 * REFERENCE_CAL_S / (before + after).  The
calibration seconds and the scale of each section are recorded under
"calibration".  Counts are reported as measured.  Even so, compare files
written on the same machine.
"""

from __future__ import annotations

import argparse
import cmath
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, SRC)

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

from hillgap import (blockdecomp, floquet, ladder, make_fourier, make_mathieu,  # noqa: E402
                     make_random)
from hillgap.weights import gevrey  # noqa: E402

# the complex K = 16 Gevrey draw of the wideband_complex workload
WIDEBAND = make_random(gevrey(0, 1, 0.5), seed=11, K=16, real=False)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numba": importlib.util.find_spec("numba") is not None,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def _perfbench_run():
    """perfbench/run.py as a module, for its calibrate() and Speed."""
    sys.path.insert(0, PERFBENCH)  # for the modules it imports
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  os.path.join(PERFBENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rescaled(obj, scale: float):
    """obj with every time (a key ending in _s or _ms) multiplied by scale."""
    if not isinstance(obj, dict):
        return obj
    return {k: v * scale if isinstance(k, str) and k.endswith(("_s", "_ms"))
            else _rescaled(v, scale) for k, v in obj.items()}


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _first_and_warm(fn, repeat: int) -> tuple[float, float]:
    first = _timed(fn)
    return first, statistics.median(_timed(fn) for _ in range(repeat))


def _plan(q, lam, dps: int) -> list:
    # (order, steps) of the ladder at lam, on the oracle's double series
    return list(ladder._mp_plan(floquet._key(q), lam, dps, floquet._taylor_table,
                                floquet._taylor_series))


def _lane_width(fn) -> int:
    """The widest lane width, in bits, that fn packs on the fixed-point ladder."""
    lanes, widths = ladder._Lanes, []

    def spy(*args):
        out = lanes(*args)
        widths.append(out.width)
        return out

    ladder._Lanes = spy
    try:
        fn()
    finally:
        ladder._Lanes = lanes
    return max(widths)


def monodromy_times(repeat: int) -> dict:
    q = make_mathieu(1.0)
    out = {}
    for n in (3, 10):
        lam = n * n * math.pi ** 2
        for name, kw in (("taylor", {"method": "taylor"}), ("rk4", {"method": "rk4"}),
                         ("mp30", {"dps": 30}), ("mp60", {"dps": 60})):
            first, warm = _first_and_warm(lambda: floquet.monodromy(q, lam, **kw), repeat)
            out[f"{name}_n{n}"] = {"first_ms": 1e3 * first, "warm_ms": 1e3 * warm}
            if "dps" in kw:
                out[f"{name}_n{n}"]["plan"] = _plan(q, lam, kw["dps"])
    turn = cmath.exp(0.2j * math.pi)
    translated = make_fourier({1: 0.5 * turn, -1: 0.5 * turn.conjugate()})
    for name, potential, n, order in (("mp30_jet3_n10", q, 10, 3),
                                      ("mp30_jet3_n10_translated", translated, 10, 3),
                                      ("wideband_mp30_jet6_n15", WIDEBAND, 15, 6)):
        # the trace form an escalated solve asks for; checkouts whose ladder
        # reads it from one column do so on the even cosine only
        lam = n * n * math.pi ** 2
        disc = floquet._disc(potential, "mp", 30, lam, form=floquet._trace)

        def jet():
            with disc.precision():
                disc.jet(lam, order)

        first, warm = _first_and_warm(jet, repeat)
        out[name] = {"first_ms": 1e3 * first, "warm_ms": 1e3 * warm,
                     "plan": list(disc.plan), "columns": getattr(disc, "columns", 2),
                     "width": _lane_width(jet)}
    first, warm = _first_and_warm(lambda: floquet.sturm_liouville_eig(q, 8, dps=60), repeat)
    out["mp60_dirichlet_n8"] = {"first_ms": 1e3 * first, "warm_ms": 1e3 * warm}
    return out


def solve_times(repeat: int) -> dict:
    cosine = make_mathieu(1.0)
    out = {}
    for name, q, n in (("cosine_n3", cosine, 3), ("cosine_n10", cosine, 10),
                       ("wideband_n15", WIDEBAND, 15)):
        result = []

        def solve():
            result[:] = [floquet.periodic_eigs_info(q, n)[2]]

        first, warm = _first_and_warm(solve, repeat)
        info = result[0]
        out[name] = {"first_s": first, "warm_s": warm, "method": info["method"],
                     "iters": info["iters"], "kernels": info.get("kernels"),
                     "escalated": info.get("escalated")}
    return out


def block_times(repeat: int) -> dict:
    cosine = make_mathieu(1.0)
    wide = make_random(gevrey(0, 1, 0.5), seed=202, K=16)
    k64 = make_random(gevrey(0, 1, 0.5), seed=11, K=64, real=False)
    out = {}
    for name, q, n in (("cosine_n3", cosine, 3), ("gevrey202_n4", wide, 4),
                       ("gevrey202_n15", wide, 15), ("gevrey11_K64_n8", k64, 8),
                       ("gevrey11_K64_n32", k64, 32)):
        result = []

        def solve():
            result[:] = [blockdecomp.gap_block(q, n).diagnostics]

        first, warm = _first_and_warm(solve, repeat)
        diag = result[0]
        out[name] = {"first_s": first, "warm_s": warm,
                     "solver_iters": diag.solver_iters, "newton_iters": diag.newton_iters}
    diag = {}
    first, warm = _first_and_warm(lambda: blockdecomp.adapted_map(k64, diagnostics=diag),
                                  repeat)
    out["adapted_map_K64"] = {"first_s": first, "warm_s": warm,
                              "solver_iters": sum(info.iters for info in diag.values())}
    return out


def high_precision_times(repeat: int) -> dict:
    q = make_mathieu(1.0)
    kw = {"tol": 1e-26, "method": "mp", "dps": 60}
    out = {}
    for name, fn in (("periodic_eigs_info_n8", floquet.periodic_eigs_info),
                     ("gap_record_n8", floquet.gap_record)):
        first, warm = _first_and_warm(lambda: fn(q, 8, **kw), repeat)
        out[name] = {"first_s": first, "warm_s": warm}
    # gap_record solves the same pair, so one ledger serves both entries
    out["kernels"] = floquet.periodic_eigs_info(q, 8, **kw)[2].get("kernels")
    result = []

    def wideband():
        result[:] = [floquet.periodic_eigs_info(WIDEBAND, 15, method="mp", dps=60)[2]]

    first, warm = _first_and_warm(wideband, repeat)
    out["wideband_mp60_n15"] = {"first_s": first, "warm_s": warm,
                                "kernels": result[0].get("kernels")}
    sweep = range(3, 9)
    first, warm = _first_and_warm(lambda: [floquet.gap_record(q, n, **kw) for n in sweep],
                                  repeat)
    out["gap_record_sweep_n3_8"] = {
        "first_s": first, "warm_s": warm,
        "kernels": {n: floquet.periodic_eigs_info(q, n, **kw)[2].get("kernels") for n in sweep}}
    return out


def _fresh(code: str, *args: str) -> str:
    """stdout of ``python3 -c code args`` with this checkout's src on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


_IMPORT_CLI = ("import time, numpy\n"
               "start = time.perf_counter()\n"
               "import hillgap.cli\n"
               "print(time.perf_counter() - start)")
_LOADS = ("import json, sys\n"
          "from hillgap import cli\n"
          "cli.main(sys.argv[1:])\n"
          "layers = ('hillgap.floquet', 'hillgap.ladder', 'mpmath')\n"
          "print(json.dumps([m for m in layers if m in sys.modules]))")


def startup_times(repeat: int) -> dict:
    imports = [float(_fresh(_IMPORT_CLI)) for _ in range(max(repeat, 5))]
    out = {"import_cli_ms": 1e3 * statistics.median(imports), "loads": {}}
    configs = os.path.join(PERFBENCH, "configs")
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(os.listdir(configs)):
            argv = ["gaps", "-c", os.path.join(configs, name), "--out", os.path.join(tmp, "t.csv")]
            out["loads"][name[:-len(".json")]] = json.loads(_fresh(_LOADS, *argv))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--repeat", type=int, default=5,
                        help="warm calls per layer timing")
    args = parser.parse_args(argv)
    perfbench = _perfbench_run()
    report = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine(),
        "calibration": {"reference_s": perfbench.REFERENCE_CAL_S},
    }
    speed = perfbench.Speed()
    for name, section in (("startup", startup_times),
                          ("monodromy", monodromy_times),
                          ("periodic_eigs_info", solve_times),
                          ("gap_block", block_times),
                          ("high_precision", high_precision_times)):
        before = speed.last
        times = section(args.repeat)
        scale = speed.scale()
        report[name] = _rescaled(times, scale)
        report["calibration"][name] = {"before_s": before, "after_s": speed.last,
                                       "scale": scale}
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
