"""The benchmark's checks accept hillgap's tables and reject perturbed ones.

Each test runs the program in-process on a short index range of a workload,
checks the table against the independent reference, then perturbs it.
"""

import math

import pytest

import workloads
from hillgap import harness


def _run(name, seed, n_range, **extra):
    config, coeffs = workloads.build_input(name, seed)
    config["n_range"] = n_range
    config.update(extra)
    ref = workloads.build_reference(config, coeffs)
    rows, _ = harness.run_table(harness.parse_config(config, "gaps"))
    return config, coeffs, ref, rows


def _failures(name, config, coeffs, ref, rows):
    """(every failed row, the rows not accepted as a known fault)."""
    _, failures = workloads.check_rows(config, coeffs, ref, harness.rows_to_csv(rows))
    return set(failures), set(workloads.unexpected(name, failures))


def _row(rows, n, method):
    return next(r for r in rows if r["n"] == n and r["method"] == method)


def test_wideband_rejects_perturbed_edges():
    run = _run("wideband_complex", 7, [1, 4])
    known = set(workloads.KNOWN_FAULTS["wideband_complex"])
    # the rows of the known double-path fault fail, within its size
    assert _failures("wideband_complex", *run) == (known, set())
    rows = run[3]
    _row(rows, 3, "block")["re_lp"] *= 1 + 1e-7
    _row(rows, 4, "oracle")["re_lm"] *= 1 - 1e-7
    assert _failures("wideband_complex", *run)[1] == {(3, "block"), (4, "oracle")}


def test_wideband_rejects_a_known_fault_row_beyond_its_size():
    run = _run("wideband_complex", 7, [1, 2])
    rows = run[3]
    _row(rows, 2, "oracle")["re_lp"] *= 1 + 1e-4
    assert _failures("wideband_complex", *run)[1] == {(2, "oracle")}
    rows.remove(_row(rows, 1, "oracle"))
    assert _failures("wideband_complex", *run)[1] == {(1, "oracle"), (2, "oracle")}


@pytest.mark.parametrize("seed", [1, 2])
def test_cosine_gap_fault_at_n2_is_known_and_bounded(seed):
    run = _run("cosine_escalated", seed, [2, 2])
    assert _failures("cosine_escalated", *run) == ({(2, "oracle")}, set())
    # a gap off by 1e-10, 25 tol n^2, exceeds the fault's measured size
    _row(run[3], 2, "oracle")["re_gamma"] += 1e-10
    assert _failures("cosine_escalated", *run)[1] == {(2, "oracle")}


def test_cosine_escalated_edges_and_gaps():
    run = _run("cosine_escalated", 3, [6, 8])
    assert _failures("cosine_escalated", *run) == (set(), set())
    rows = run[3]
    _row(rows, 6, "oracle")["re_lp"] *= 1 + 1e-7
    # gamma_8 = 2.1e-21: a split of 1e-9 is far above tol n^2 = 6.4e-11
    _row(rows, 8, "block")["re_gamma"] = 1e-9
    assert _failures("cosine_escalated", *run)[1] == {(6, "oracle"), (8, "block")}


def test_adapted_rejects_swapped_pairs():
    run = _run("adapted_wide", 5, [1, 12], K_out=12)
    assert _failures("adapted_wide", *run) == (set(), set())
    config, coeffs, ref, rows = run
    band = [r for r in rows if not isinstance(r["re_alpha"], str)]
    for r in band:
        r["re_pp"], r["im_pp"], r["re_pm"], r["im_pm"] = (
            r["re_pm"], r["im_pm"], r["re_pp"], r["im_pp"])
    skewed = {(r["n"], "adapted") for r in band
              if abs(math.log(ref[r["n"]]["ratio"])) > 10 * workloads.RATIO_REL}
    assert len(skewed) >= len(band) // 2
    assert skewed <= _failures("adapted_wide", *run)[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_translates_without_changing_the_spectrum(name):
    _, a = workloads.build_input(name, 1)
    _, b = workloads.build_input(name, 2)
    assert a != b
    assert all(math.isclose(abs(a[k]), abs(b[k]), rel_tol=1e-15) for k in a)
