"""The benchmark's workloads: their inputs, references and output checks.

Each workload starts from a committed config in ``configs/``.  The run seed
picks a translation x -> x + theta of its potential, q_k -> q_k e^{2 pi i k
theta} (half periods only for the cosine, see ``theta``).  Translation
leaves the periodic spectrum, the gap lengths, |p_{+-n}| and every weighted
norm unchanged, so the references, the amount of work and the failing rows
are the same on every seed, while the coefficients the program reads
differ.

References are computed from the translated coefficients by ``reference``,
never by hillgap, and never copied from an earlier run of the program.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os

import numpy as np

import reference

HERE = os.path.dirname(os.path.abspath(__file__))

# Why each workload is there: BENCHMARK.json and README.md.
WORKLOADS = ("cosine_escalated", "wideband_complex", "adapted_wide")

EDGE_REL = 1e-9        # edge accuracy the double path is held to (AC1)
# adapted rows; each measured at <= 2e-6 on n = 8..64
PRODUCT_REL = 1e-4     # |gamma^2 / (4 p+ p-) - 1|
ALPHA_REL = 1e-4       # |alpha - tau| / |gamma|
RATIO_REL = 1e-4       # |p+/p-| against the Hill eigenvector ratio

# Rows that fail on every seed because of a fault in the program, with the
# largest miss accepted as that fault: check -> error over its tolerance.
# A larger miss, another failed check, or a missing or error row is
# unexpected.
# - wideband_complex, n = 1, 2: the double Taylor step count ignores the
#   bandwidth K, so its 16 steps cannot resolve mode 16; the edges miss by
#   4e-7 to 6e-7 relative (400-600 EDGE_REL), accepted up to 1e-5.
# - cosine_escalated, n = 2: the auto oracle keeps the double-path result,
#   whose gap misses tol n^2 by 4.3x (q_1 = 0.5) and 4.0x (q_1 = -0.5),
#   accepted up to 20x.
KNOWN_FAULTS = {
    "wideband_complex": {(1, "oracle"): {"edge": 1e4}, (2, "oracle"): {"edge": 1e4}},
    "cosine_escalated": {(2, "oracle"): {"gamma": 20.0}},
}

# Index whose lam = n^2 pi^2 the kernel timings use: an escalated row.
# adapted_wide makes no Floquet call and reports its kernel metrics as 0.
KERNEL_N = {"cosine_escalated": 8, "wideband_complex": 15}


def theta(name: str, seed: int) -> float:
    """Translation, in periods, that the seed picks for the workload.

    The cosine workload takes only half periods, q_1 -> +-q_1, which keep
    its coefficients exact: its n = 2 gap misses tol n^2 on those, but on
    other translations it passes or fails with the rounding of q_1 (it
    passes for q_1 = -0.5i), and the share of failed rows must not depend on
    the seed.
    """
    rng = np.random.default_rng(seed)
    if name == "cosine_escalated":
        return int(rng.integers(2)) / 2
    return float(rng.uniform())


def _phase(turns: float) -> complex:
    """e^{2 pi i turns}, exact at whole and half turns."""
    if 2 * turns == round(2 * turns):
        return complex((-1) ** round(2 * turns))
    return cmath.exp(2j * math.pi * turns)


def load_config(name: str) -> dict:
    with open(os.path.join(HERE, "configs", name + ".json")) as fh:
        return json.load(fh)


def build_input(name: str, seed: int) -> tuple[dict, dict[int, complex]]:
    """(config, coefficients) of the workload translated by theta(name, seed).

    Exact conjugate pairs stay exact, so a real potential stays real.
    """
    config = load_config(name)
    base = {k: complex(re, im) for k, re, im in config["potential"]["coeffs"]}
    shift = theta(name, seed)
    coeffs = {k: z * _phase(k * shift) for k, z in base.items()}
    for k, z in base.items():
        if k > 0 and base.get(-k) == z.conjugate():
            coeffs[-k] = coeffs[k].conjugate()
    config["potential"]["coeffs"] = [[k, z.real, z.imag]
                                     for k, z in sorted(coeffs.items())]
    return config, coeffs


def expected_rows(config: dict, coeffs: dict[int, complex]) -> list[tuple[int, str]]:
    """The (n, method) rows the CLI must print for this config."""
    lo, hi = config["n_range"]
    l2 = math.sqrt(sum(abs(z) ** 2 for z in coeffs.values()))
    if config["kind"] == "adapted":
        return [(n, "adapted") for n in range(lo, min(hi, max(coeffs)) + 1)]
    rows = []
    for n in range(lo, hi + 1):
        rows.append((n, "oracle"))
        if n >= 4.0 * l2:
            rows.append((n, "block"))
    return rows


def build_reference(config: dict, coeffs: dict[int, complex]) -> dict:
    """Reference data per index n, from the translated coefficients."""
    lo, hi = config["n_range"]
    if config["kind"] == "adapted":
        pairs = reference.hill_pairs(coeffs, range(lo, min(hi, max(coeffs)) + 1))
        return {n: dict(zip(("lm", "lp", "ratio"), pair)) for n, pair in pairs.items()}
    if set(coeffs) == {-1, 1} and coeffs[-1] == coeffs[1].conjugate():
        mu = 2.0 * abs(coeffs[1])
        ref = {}
        for n in range(lo, hi + 1):
            lm, lp = reference.cosine_edges(mu, n)
            s_lm, s_lp = reference.mathieu_edges(mu, n)
            # two independent computations of the same pair must agree
            if max(abs(float(lm) - s_lm), abs(float(lp) - s_lp)) > 1e-12 * n * n * math.pi ** 2:
                raise ArithmeticError(f"cosine references disagree at n = {n}")
            ref[n] = {"lm": complex(lm), "lp": complex(lp), "gamma": complex(lp - lm)}
        return ref
    pairs = reference.hill_pairs(coeffs, range(lo, hi + 1))
    return {n: {"lm": lm, "lp": lp} for n, (lm, lp, _) in pairs.items()}


def parse_csv(text: str) -> dict[tuple[int, str], dict]:
    """CSV table -> {(n, method): row}, numeric cells as floats (None if empty)."""
    rows = {}
    for raw in csv.DictReader(io.StringIO(text)):
        row = {k: (float(v) if v else None) for k, v in raw.items()
               if k not in ("n", "method")}
        rows[int(raw["n"]), raw["method"]] = row
    return rows


def _z(row: dict, col: str) -> complex:
    return complex(row["re_" + col], row["im_" + col])


def check_rows(config: dict, coeffs: dict[int, complex], ref: dict,
               text: str) -> tuple[int, dict[tuple[int, str], dict[str, float]]]:
    """(attempted, failures) of one CLI table against the reference.

    Every expected row is one operation, and so is any other row printed.
    ``failures`` maps each failed row to its misses: check name -> error
    over the check's tolerance (inf for a row that is missing or not
    expected).  An error row (method ending in '!') stands for its expected
    row, which counts as missing.
    """
    rows = parse_csv(text)
    want = expected_rows(config, coeffs)
    extra = {(n, m) for n, m in set(rows) - set(want)
             if (n, m.rstrip("!")) not in want}
    failures = {key: {"unexpected row": math.inf} for key in extra}
    tol = config.get("tol", 1e-12)
    for key in want:
        n, method = key
        row = rows.get(key)
        if row is None:
            misses = {"missing (error rows end in '!')": math.inf}
        elif method == "adapted":
            misses = _check_adapted(n, row, coeffs, ref[n])
        else:
            misses = _check_gap(row, ref[n], tol * n * n)
        misses = {check: miss for check, miss in misses.items() if not miss <= 1.0}
        if misses:
            failures[key] = misses
    return len(want) + len(extra), failures


def unexpected(name: str, failures: dict) -> dict:
    """The failures that are not a known fault within its measured size."""
    known = KNOWN_FAULTS.get(name, {})
    return {key: misses for key, misses in failures.items()
            if not all(miss <= known.get(key, {}).get(check, 0.0)
                       for check, miss in misses.items())}


def _check_gap(row: dict, ref: dict, floor: float) -> dict[str, float]:
    misses = {"edge": max(abs(_z(row, col) - ref[col]) / (EDGE_REL * abs(ref[col]))
                          for col in ("lm", "lp"))}
    if "gamma" in ref:
        # real potential with a high-precision reference: every imaginary
        # part and the gap itself are held to floor = tol n^2
        misses["imag"] = max(abs(row[col]) for col in ("im_lm", "im_lp", "im_gamma")) / floor
        misses["gamma"] = abs(_z(row, "gamma") - ref["gamma"]) / floor
    return misses


def _check_adapted(n: int, row: dict, coeffs: dict[int, complex],
                   ref: dict) -> dict[str, float]:
    pp, pm = _z(row, "pp"), _z(row, "pm")
    if row["re_alpha"] is None:
        # below the adapted threshold the map keeps the Fourier modes
        same = (pp, pm) == (coeffs.get(n, 0j), coeffs.get(-n, 0j))
        return {"plain Fourier mode": 0.0 if same else math.inf}
    gamma = ref["lp"] - ref["lm"]
    tau = (ref["lp"] + ref["lm"]) / 2
    return {
        "gamma^2 / (4 p+ p-)": abs(gamma * gamma / (4 * pp * pm) - 1) / PRODUCT_REL,
        "alpha - tau": abs(_z(row, "alpha") - tau) / abs(gamma) / ALPHA_REL,
        "|p+/p-|": abs(abs(pp / pm) / ref["ratio"] - 1) / RATIO_REL,
    }
