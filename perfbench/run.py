"""hillgap benchmark: the CLI on three workloads, checked against independent
spectra.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; hillgap is taken from its ``src``.  The seed
picks a translation of the workload's committed potential (see
workloads.py); the translated config goes to ``.perfbench/`` and the
reference spectra are computed before any timing starts.

--trace 0: for T seconds, a set-up probe (child.py ready) and a CLI run as a
process of its own (child.py cli) alternate; every table is checked.  Prints
the end-to-end metrics setup_s, wall_s and peak_rss_mb (medians).

Every time is rescaled to a reference speed: run times by the calibration
runs around them (see Speed), set-up time by an interpreter start
(setup_run).  Counts and memory are reported as measured.

--trace 1: for T seconds, plain and traced CLI runs alternate; the traced
ones wrap the public functions of each layer (child.py).  Then one fresh
process times the Floquet kernels, on the workloads that call them.
Prints the per-layer metrics (medians over traced runs) and the tracing
overhead against the plain runs.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Each checked table row is one operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from operator import mul
from typing import NamedTuple

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_PY = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 120.0
KERNEL_METRICS = ("floquet.mp30_kernel_ms", "floquet.mp30_table_ms",
                  "floquet.taylor_kernel_ms")

# calibrate() and the bare interpreter start in setup_run() at this
# machine's median speed; times are reported at it
REFERENCE_CAL_S = 0.25
REFERENCE_PROBE_S = 0.25
_INTS = [pow(3, 79 + k, 1 << 125) for k in range(30)]
_KERNEL = np.exp(1j * np.arange(129.0))
_SIGNAL = np.exp(0.5j * np.arange(8000.0))


def calibrate() -> float:
    """Seconds for a fixed mix of the program's kinds of work: small-int
    bytecode, 125-bit integer dot products (the fixed-point ladder) and
    numpy convolution (the block solver)."""
    start = time.perf_counter()
    x = 1
    for _ in range(400_000):
        x = (x * 1103515245 + 12345) % (1 << 61)
    for _ in range(16_000):
        x += sum(map(mul, _INTS, reversed(_INTS))) >> 100
    for _ in range(160):
        np.convolve(_KERNEL, _SIGNAL)
    return time.perf_counter() - start


class Speed:
    """Rescales times measured between two calibrations to the reference
    speed: the CPU speed of a shared machine drifts by a factor of up to 1.7
    in phases that outlast a run, and calibrations before and after each
    measurement track part of it."""

    def __init__(self) -> None:
        self.last = calibrate()

    def scale(self) -> float:
        before, self.last = self.last, calibrate()
        return 2.0 * REFERENCE_CAL_S / (before + self.last)


class Result(NamedTuple):
    start: float      # monotonic clock just before the spawn
    wall: float       # seconds from spawn to exit
    stdout: str


def _declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Child:
    """Runs one child process with the checkout's hillgap on its path and
    records its wall time and output."""

    def __init__(self, work: str):
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("HILLGAP_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.env.get("PYTHONPATH")) if p)

    def run(self, argv: list[str], ok=(0,)) -> Result:
        """Runs ``python3 argv``; raises on an exit code not in ok."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=err, env=self.env, cwd=self.work)
            try:
                proc.wait(CHILD_TIMEOUT_S)
            finally:
                proc.kill()
                proc.wait()
            wall = time.monotonic() - start
        if proc.returncode not in ok:
            with open(err_path) as fh:
                raise RuntimeError(f"{argv} exited {proc.returncode}: {fh.read()[-2000:]}")
        with open(out_path) as fh:
            return Result(start, wall, fh.read())


class Tally:
    """Checks each CLI table against the reference and counts operations."""

    def __init__(self, name: str, config: dict, coeffs: dict, ref: dict):
        self.name, self.config, self.coeffs, self.ref = name, config, coeffs, ref
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict = {}

    def check(self, csv_path: str) -> None:
        text = ""
        if os.path.exists(csv_path):
            with open(csv_path) as fh:
                text = fh.read()
            os.remove(csv_path)
        attempted, failures = workloads.check_rows(
            self.config, self.coeffs, self.ref, text)
        self.attempted += attempted
        self.failed += len(failures)
        self.unexpected.update(workloads.unexpected(self.name, failures))


def _scaled(metrics: dict, scale: float) -> dict:
    """Times (names ending in _s or _ms) at the reference speed; counts as they are."""
    return {k: v * scale if k.endswith(("_s", "_ms")) else v for k, v in metrics.items()}


def setup_run(child: Child, config: str) -> tuple[float, float]:
    """Seconds from spawning the CLI until it is ready to solve, and the
    factor that rescales them: an interpreter start that imports only the
    program's dependencies, since set-up is process creation and imports,
    which drift apart from the compute speed that calibrate() follows."""
    res = child.run([CHILD_PY, "ready", config])
    probe = child.run(["-c", "import numpy, mpmath"])
    return json.loads(res.stdout)["ready"] - res.start, REFERENCE_PROBE_S / probe.wall


def plain_run(child: Child, config: str, csv_path: str) -> tuple[Result, float]:
    """One CLI process: its result and peak resident memory in MB."""
    # exit 1 marks error rows, which the check counts as failed
    res = child.run([CHILD_PY, "cli", "gaps", "-c", config, "--out", csv_path],
                    ok=(0, 1))
    return res, json.loads(res.stdout.splitlines()[-1])["peak_rss_mb"]


def untraced(child: Child, config: str, seconds: float, tally: Tally) -> dict:
    """Set-up probe and CLI run in turn; the runs between two calibrations
    share one rescaling.  The medians of the measured times, before
    rescaling, go to stderr."""
    csv_path = os.path.join(child.work, "table.csv")
    speed = Speed()
    setups, walls, rss = [], [], []
    start = time.monotonic()
    while not walls or time.monotonic() - start < seconds:
        setup, setup_scale = setup_run(child, config)
        res, peak = plain_run(child, config, csv_path)
        scale = speed.scale()
        tally.check(csv_path)
        setups.append((setup, setup * setup_scale))
        walls.append((res.wall, res.wall * scale))
        rss.append(peak)
    unscaled = {"setup_s": statistics.median(s for s, _ in setups),
                "wall_s": statistics.median(w for w, _ in walls), "runs": len(walls)}
    print("unscaled " + json.dumps(unscaled), file=sys.stderr)
    return {"setup_s": statistics.median(s for _, s in setups),
            "wall_s": statistics.median(w for _, w in walls),
            "peak_rss_mb": statistics.median(rss)}


def traced(child: Child, config: str, seconds: float, tally: Tally,
           kernel_n: int | None) -> dict:
    """Plain and traced CLI run in turn; each pair shares one rescaling."""
    csv_path = os.path.join(child.work, "table.csv")
    spans_path = os.path.join(child.work, "spans.json")
    speed = Speed()
    plain, walls, layers = [], [], []
    start = time.monotonic()
    while not walls or time.monotonic() - start < seconds:
        wall = plain_run(child, config, csv_path)[0].wall
        tally.check(csv_path)
        res = child.run([CHILD_PY, "trace", config, csv_path, spans_path], ok=(0, 1))
        scale = speed.scale()
        tally.check(csv_path)
        plain.append(wall * scale)
        walls.append(res.wall * scale)
        layers.append(_scaled(json.loads(res.stdout)["layers"], scale))
    metrics = {key: statistics.median(run[key] for run in layers) for key in layers[0]}
    if kernel_n is None:
        metrics.update(dict.fromkeys(KERNEL_METRICS, 0.0))
    else:
        res = child.run([CHILD_PY, "kernel", config, str(kernel_n)])
        metrics.update(_scaled(json.loads(res.stdout), speed.scale()))
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(walls) / statistics.median(plain) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hillgap", "cli.py")):
        print(f"no hillgap sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config, coeffs = workloads.build_input(args.workload, args.seed)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    tally = Tally(args.workload, config, coeffs,
                  workloads.build_reference(config, coeffs))

    units = _declared(args.trace)
    child = Child(work)
    if args.trace:
        metrics = traced(child, config_path, args.seconds, tally,
                         workloads.KERNEL_N.get(args.workload))
    else:
        metrics = untraced(child, config_path, args.seconds, tally)

    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)}, declared {sorted(units)}")
    for key, misses in sorted(tally.unexpected.items()):
        print(f"row {key}: error over tolerance {misses}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
