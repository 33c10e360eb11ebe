"""Config parsing, table runs, verification reports, and the CLI."""

import io
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import hillgap
from hillgap import blockdecomp, cli, harness
from hillgap.harness import (
    CSV_COLUMNS,
    KINDS,
    TABLE_KINDS,
    ConfigError,
    build_potential,
    build_weight,
    parse_config,
    rows_to_csv,
    run_table,
    run_verify,
)

MATHIEU_HALF = {"type": "mathieu", "mu": 0.5}


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_config({"kind": "gaps", "potential": MATHIEU_HALF,
                      "n_range": [1, 2], "bogus": 1})
    with pytest.raises(ConfigError):
        parse_config({"kind": "weights_check", "weights": [{"kind": "trivial"}],
                      "potential": MATHIEU_HALF})
    with pytest.raises(ConfigError):
        parse_config({"kind": "gaps", "n_range": [1, 2]})
    with pytest.raises(ConfigError):
        parse_config({"kind": "banded"})
    with pytest.raises(ConfigError):
        parse_config({"potential": MATHIEU_HALF})  # no kind, no default


def test_parse_config_validation():
    base = {"kind": "gaps", "potential": MATHIEU_HALF}
    with pytest.raises(ConfigError):
        parse_config({**base, "n_range": [0, 3]})
    with pytest.raises(ConfigError):
        parse_config({**base, "n_range": [4, 2]})
    with pytest.raises(ConfigError):
        parse_config({**base, "n_range": [1, 2], "tol": 0.0})
    with pytest.raises(ConfigError):
        parse_config({**base, "n_range": [1, 2], "oracle": {"method": "euler"}})
    with pytest.raises(ConfigError):
        parse_config({"kind": "mathieu", "n_range": [1, 2],
                      "potential": {"type": "gasymov", "coeffs": [[1.0, 0.0]]}})


def test_parse_config_echo_fills_defaults():
    config = parse_config({"kind": "gaps", "potential": MATHIEU_HALF,
                           "n_range": [1, 3]})
    assert config.echo["oracle"] == {"method": "auto", "dps": None}
    assert config.echo["n_range"] == [1, 3]
    assert config.tol == 1e-12
    assert config.oracle_method == "auto" and config.oracle_dps is None
    adapted = parse_config({"kind": "adapted", "potential": MATHIEU_HALF,
                            "n_range": [1, 15]})
    # ||q|| = 1/(2 sqrt 2): ball size 2, threshold 8, window 15
    assert (adapted.m, adapted.M_thresh, adapted.K_out) == (2, 8, 15)


def test_build_weight_specs():
    assert build_weight({"kind": "trivial"})(7) == 1.0
    w = build_weight({"kind": "gevrey", "a": 1.0, "sigma": 0.5})
    assert w(4) == pytest.approx(math.e ** 2, rel=1e-14)
    w = build_weight({"kind": "tempered", "eps": 0.2,
                      "inner": {"kind": "superexp", "sigma": 2.0}})
    assert math.log(w(100)) == pytest.approx(20.0, rel=1e-12)
    w = build_weight({"kind": "table", "values": [[0, 1.0], [1, 3.0]]})
    assert w(-1) == pytest.approx(3.0, rel=1e-14)
    for bad in ({"kind": "nope"}, {"kind": "polynomial"},
                {"kind": "polynomial", "r": 2, "zzz": 1},
                {"kind": "tempered", "eps": 0.2}, "gevrey"):
        with pytest.raises(ConfigError):
            build_weight(bad)


def test_build_potential_specs():
    q = build_potential({"type": "fourier", "coeffs": [[1, 0.5, 0.0], [-1, 0.5, 0.0]],
                         "mean": [2.0, 0.0]})
    assert q.coeff(1) == 0.5 and q.mean == 2.0
    g = build_potential({"type": "gasymov", "coeffs": [[1.0, 0.0], [0.0, 0.5]]})
    assert g.coeff(2) == 0.5j and g.coeff(-1) == 0.0
    r = build_potential({"type": "random", "seed": 9, "K": 6,
                         "decay": {"kind": "polynomial", "r": 2.0}})
    assert r.K == 6 and r.is_real
    for bad in ({"type": "delta"}, {"type": "mathieu"},
                {"type": "mathieu", "mu": 0.5, "junk": 1},
                {"type": "random", "seed": 1, "K": 0,
                 "decay": {"kind": "trivial"}}):
        with pytest.raises(ConfigError):
            build_potential(bad)


def test_zero_potential_table():
    config = parse_config({"kind": "gaps",
                           "potential": {"type": "mathieu", "mu": 0.0},
                           "n_range": [1, 2],
                           "oracle": {"method": "taylor"}})
    rows, failed = run_table(config)
    assert not failed
    # an oracle row and a block row per index, gaps exactly closed
    assert [r["method"] for r in rows] == ["oracle", "block", "oracle", "block"]
    for row in rows:
        assert row["re_gamma"] == 0.0 and row["im_gamma"] == 0.0
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5
    assert lines[1].split(",")[6] == "0"  # re_gamma renders bare


def test_csv_deterministic_across_threads():
    raw = {"kind": "gaps", "potential": MATHIEU_HALF, "n_range": [1, 3],
           "oracle": {"method": "taylor"}}
    first = rows_to_csv(run_table(parse_config(raw))[0])
    second = rows_to_csv(run_table(parse_config(raw))[0])
    assert first == second
    third = rows_to_csv(run_table(parse_config(raw))[0])
    assert first == third


def test_escalating_csv_ignores_thread_setting():
    # at a tol below the det form's floor, n = 3..5 escalate to the
    # fixed-point ladder, whose mpmath precision is process-wide state; a
    # thread pool over these solves once changed the digits of the n = 3, 4
    # rows from run to run.  The sweep is serial; the short switch interval
    # would expose such a race if threads came back.
    raw = {"kind": "oracle", "potential": {"type": "mathieu", "mu": 1.0},
           "n_range": [3, 5], "tol": 1e-20}
    for n in range(3, 6):
        assert hillgap.periodic_eigs_info(hillgap.make_mathieu(1.0), n, 1e-20)[2]["dps"]
    rows, failed = run_table(parse_config(raw))
    assert not failed and all(row["method"] == "oracle" for row in rows)
    first = rows_to_csv(rows)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):
            assert rows_to_csv(run_table(parse_config(raw))[0]) == first
    finally:
        sys.setswitchinterval(interval)


def test_adapted_table_band_layout():
    config = parse_config({"kind": "adapted", "potential": MATHIEU_HALF,
                           "n_range": [1, 15]})
    rows, failed = run_table(config)
    assert not failed
    assert len(rows) == 15
    assert all(row["method"] == "adapted" for row in rows)
    assert rows[0]["re_pp"] == 0.25 and rows[0]["re_alpha"] == ""
    assert isinstance(rows[8]["resid"], float) and rows[8]["iters"] >= 1


def test_adapted_rows_carry_the_map_fixed_points():
    # the alpha cells come from adapted_map itself and must equal a separate
    # fixed-point solve bit for bit, mean included
    potential = {"type": "fourier", "coeffs": [[1, 0.25, 0.1], [-1, 0.2, -0.05]],
                 "mean": [0.75, 0.0]}
    config = parse_config({"kind": "adapted", "potential": potential, "n_range": [1, 12]})
    rows, failed = run_table(config)
    assert not failed
    band = [row for row in rows if row["re_alpha"] != ""]
    assert len(band) >= 4
    for row in band:
        alpha = blockdecomp.alpha_fixed_point(config.potential, row["n"], config.tol)
        assert (row["re_alpha"], row["im_alpha"]) == (alpha.real, alpha.imag)


def test_verify_weights_report():
    report = run_verify(parse_config({
        "kind": "weights_check", "N": 60, "eps_list": [0.2],
        "weights": [{"kind": "gevrey", "a": 1.0, "sigma": 0.5}]}))
    assert report["pass"]
    item = report["items"][0]
    assert item["growth_class"] == "strictly_subexponential"
    assert item["base_ok"]
    assert item["tempered"][0]["crossover"] == 25


def test_verify_gasymov_report():
    report = run_verify(parse_config({
        "kind": "gasymov", "n_range": [3, 4],
        "potential": {"type": "gasymov", "coeffs": [[1.0, 0.0]]}}))
    assert report["pass"]
    for item in report["items"]:
        assert item["gamma_ceiling"] <= 1e-7
        assert item["exact_zero"]


def test_verify_mathieu_zero_mu():
    report = run_verify(parse_config({
        "kind": "mathieu", "n_range": [1, 2],
        "potential": {"type": "mathieu", "mu": 0.0}}))
    assert report["pass"]
    assert any("free" in n for n in report["notes"])


def test_verify_theorem1_random_potential():
    report = run_verify(parse_config({
        "kind": "theorem1", "n_range": [1, 8],
        "potential": {"type": "random", "seed": 5, "K": 8,
                      "decay": {"kind": "gevrey", "a": 1.0, "sigma": 0.5}}}))
    assert report["pass"]
    assert report["items"]
    for item in report["items"]:
        assert item["margin"] > 0.0


def test_cli_theorem1_skips_only_the_indices_in_range(tmp_path, capsys):
    # 4 ||q||_w = 11.3 lies past n_range [1, 3]: the note names 1..3, no more
    cfg = _write(tmp_path / "t1.json", {"kind": "theorem1", "n_range": [1, 3],
                                        "potential": {"type": "mathieu", "mu": 4.0}})
    proc = _cli_run(["verify", "theorem1"], cfg, capsys)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (
        "theorem1: FAIL\n"
        "  norm_q_w = 2.82843, four_norm_q_w = 11.3137, norm_q_l2 = 2.82843, "
        "block_floor = 5.65685\n"
        "  note: N < 4||q||_w skipped: [1, 2, 3]\n"
        "  note: no admissible N in range\n")


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_gaps_to_file_and_stdout(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json",
                 {"potential": {"type": "mathieu", "mu": 0.0},
                  "n_range": [1, 1], "oracle": {"method": "taylor"}})
    out = tmp_path / "t.csv"
    assert cli.main(["gaps", "-c", cfg, "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(CSV_COLUMNS))
    assert cli.main(["oracle", "-c", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(",".join(CSV_COLUMNS))


def test_cli_json_mode(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json",
                 {"potential": {"type": "mathieu", "mu": 0.0},
                  "n_range": [1, 1], "oracle": {"method": "taylor"}})
    assert cli.main(["oracle", "-c", cfg, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "oracle" and not payload["failed"]
    assert payload["rows"][0]["n"] == 1


def test_cli_verify_summary_and_report_file(tmp_path, capsys):
    cfg = _write(tmp_path / "w.json",
                 {"weights": [{"kind": "gevrey", "a": 1.0, "sigma": 0.5}],
                  "N": 40, "eps_list": [0.2]})
    out = tmp_path / "report.json"
    assert cli.main(["verify", "weights", "-c", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] and report["kind"] == "weights_check"
    assert "PASS" in capsys.readouterr().out


def test_cli_verify_mathieu_resolves_gaps_below_double_ulp(tmp_path):
    # gamma_6..8 fall under the ulp of n^2 pi^2; the 60-digit solve still
    # resolves them, and the verify ratio must use that gamma
    cfg = _write(tmp_path / "m.json",
                 {"potential": {"type": "mathieu", "mu": 1.0}, "n_range": [3, 8],
                  "oracle": {"method": "mp", "dps": 60}, "tol": 1e-26})
    assert cli.main(["verify", "mathieu", "-c", cfg]) == 0


def test_cli_config_errors_exit_2(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["gaps", "-c", str(broken)]) == 2
    assert cli.main(["gaps", "-c", str(tmp_path / "missing.json")]) == 2
    cfg = _write(tmp_path / "bad.json",
                 {"potential": MATHIEU_HALF, "n_range": [1, 2], "bogus": 1})
    assert cli.main(["gaps", "-c", str(cfg)]) == 2
    mismatched = _write(tmp_path / "mismatch.json",
                        {"kind": "gasymov", "n_range": [3, 3],
                         "potential": {"type": "gasymov", "coeffs": [[1.0, 0.0]]}})
    assert cli.main(["verify", "mathieu", "-c", mismatched]) == 2


def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path):
    # a UTF-16 byte order mark: the config read refuses it with one line
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(b"\xff\xfe" + '{"n_range": [1, 2]}'.encode("utf-16-le"))
    proc = _cli_process(["gaps"], str(cfg))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1


def test_cli_numerical_failure_exit_1(tmp_path, monkeypatch):
    # an adapted map that fails to converge; the adapted table reports the error
    def fail(*args, **kwargs):
        raise blockdecomp.IterationError("stub failure")

    monkeypatch.setattr(blockdecomp, "adapted_map", fail)
    cfg = _write(tmp_path / "c.json",
                 {"kind": "adapted", "potential": {"type": "mathieu", "mu": 2.0},
                  "n_range": [1, 8]})
    assert cli.main(["gaps", "-c", cfg]) == 1


# one tiny config per kind; every one runs to exit 0
_KIND_CONFIGS = {
    "gaps": {"kind": "gaps", "potential": {"type": "mathieu", "mu": 0.0},
             "n_range": [1, 1], "oracle": {"method": "taylor"}},
    "adapted": {"kind": "adapted", "potential": MATHIEU_HALF, "n_range": [1, 10]},
    "oracle": {"kind": "oracle", "potential": MATHIEU_HALF, "n_range": [1, 2]},
    "theorem1": {"kind": "theorem1", "potential": MATHIEU_HALF, "n_range": [1, 3]},
    "theorem4": {"kind": "theorem4", "potential": MATHIEU_HALF, "n_range": [1, 2]},
    "theorem5": {"kind": "theorem5", "potential": MATHIEU_HALF, "n_range": [4, 4],
                 "weight": {"kind": "superexp", "sigma": 2.0}, "a": 1.5},
    "mathieu": {"kind": "mathieu", "potential": MATHIEU_HALF, "n_range": [1, 2],
                "c": 0.6},
    "gasymov": {"kind": "gasymov", "n_range": [2, 3],
                "potential": {"type": "gasymov", "coeffs": [[1.0, 0.0]]}},
    "dense": {"kind": "dense", "potential": MATHIEU_HALF, "N_values": [8], "span": 1},
    "weights_check": {"kind": "weights_check", "N": 20, "eps_list": [0.2],
                      "weights": [{"kind": "gevrey", "a": 1.0, "sigma": 0.5}]},
}


def _ok(holds):
    return "ok" if holds else "violated"


# the summary line of a report item, per verification kind, as the CLI
# prints it without --json
_ITEM_LINES = {
    "theorem1": lambda i: (f"N = {i['N']}: lhs = {i['lhs']:.6g}, rhs = {i['rhs']:.6g}, "
                           f"margin = {i['margin']:.6g}"),
    "theorem5": lambda i: (f"n = {i['n']}: |gamma| <= {i['gamma_ceiling']:.6g}, "
                           f"bound = {i['bound']:.6g}, {_ok(i['holds'])}"),
    "mathieu": lambda i: (f"n = {i['n']}: ratio = {i['ratio']:.9g} (band {i['band']:.3g}), "
                          f"{_ok(i['holds'])}"),
    # only the indices past the block floor, 2 ||q|| = 2 here, carry the reduced entries
    "gasymov": lambda i: (f"n = {i['n']}: |gamma| <= {i['gamma_ceiling']:.6g}"
                          + (f", reduced entries exactly zero: {i['exact_zero']}"
                             if i["n"] > 2 else "")),
    "dense": lambda i: (f"N = {i['N']}: distance = {i['distance']:.6g}, "
                        f"bound = {i['lipschitz_bound']:.6g}, {_ok(i['holds'])}"),
    "weights_check": lambda i: (
        f"{i['weight']['kind']}: class {i['growth_class']}, submultiplicative {i['base_ok']}; "
        "tempered " + ", ".join(f"eps = {t['eps']:g}: {_ok(t['ok'])} (crossover {t['crossover']})"
                                for t in i["tempered"])),
}
_ITEM_LINES["theorem4"] = _ITEM_LINES["theorem1"]


def _summary_lines(report):
    lines = [f"{report['kind']}: {'PASS' if report['pass'] else 'FAIL'}"]
    if report["preconditions"]:
        lines.append("  " + ", ".join(f"{k} = {v:.6g}" for k, v in report["preconditions"].items()))
    lines += [f"  note: {note}" for note in report["notes"]]
    return lines + ["  " + _ITEM_LINES[report["kind"]](item) for item in report["items"]]


@pytest.mark.parametrize("kind", list(KINDS))
def test_cli_route_of_every_kind(kind, tmp_path, capsys):
    raw = _KIND_CONFIGS[kind]
    cfg = _write(tmp_path / "c.json", raw)
    table = kind in TABLE_KINDS
    if table:
        route = ["oracle" if kind == "oracle" else "gaps"]
    else:
        route = ["verify", "weights" if kind == "weights_check" else kind]
    assert cli.main([*route, "-c", cfg, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == kind
    if table:
        assert not payload["failed"] and payload["rows"]
    else:
        # the report echoes the parsed config, key order included
        assert json.dumps(payload["config"]) == json.dumps(parse_config(raw).echo)
        # without --json the route prints the report's summary, one line per item
        assert payload["items"]
        assert cli.main([*route, "-c", cfg]) == 0
        assert capsys.readouterr().out.splitlines() == _summary_lines(payload)
    # table routes and verify routes refuse each other's kinds, and the
    # oracle route takes its own kind only
    refused = [["verify", "dense"]] if table else [["gaps"], ["oracle"]]
    if kind in ("gaps", "adapted"):
        refused.append(["oracle"])
    for other in refused:
        assert cli.main([*other, "-c", cfg]) == 2
    assert "config error" in capsys.readouterr().err


# the echo of each _KIND_CONFIGS entry, values and key order, as `verify
# --json` prints it under "config"
_SPECTRAL_ECHO = ('"weight": {"kind": "trivial"}, "tol": 1e-12, "out": null, '
                  '"oracle": {"method": "auto", "dps": null}')
_HALF = '"potential": {"type": "mathieu", "mu": 0.5}'
_GOLDEN_ECHO = {
    "gaps": '{"kind": "gaps", "potential": {"type": "mathieu", "mu": 0.0}, '
            '"tol": 1e-12, "out": null, '
            '"oracle": {"method": "taylor", "dps": null}, "n_range": [1, 1]}',
    "adapted": '{"kind": "adapted", ' + _HALF + ', "tol": 1e-12, "out": null'
               ', "n_range": [1, 10], "m": 2, "M_thresh": 8, "K_out": 15}',
    "oracle": '{"kind": "oracle", ' + _HALF + ', "tol": 1e-12, "out": null, '
              '"oracle": {"method": "auto", "dps": null}, "n_range": [1, 2]}',
    "theorem1": '{"kind": "theorem1", ' + _HALF + ", " + _SPECTRAL_ECHO + ', "n_range": [1, 3]}',
    "theorem4": '{"kind": "theorem4", ' + _HALF + ", " + _SPECTRAL_ECHO + ', "n_range": [1, 2]}',
    "theorem5": '{"kind": "theorem5", ' + _HALF + ', "weight": {"kind": "superexp", '
                '"sigma": 2.0}, "tol": 1e-12, "out": null, "oracle": {"method": "auto", '
                '"dps": null}, "n_range": [4, 4], "a": 1.5}',
    "mathieu": '{"kind": "mathieu", ' + _HALF + ", " + _SPECTRAL_ECHO
               + ', "n_range": [1, 2], "c": 0.6}',
    "gasymov": '{"kind": "gasymov", "potential": {"type": "gasymov", "coeffs": [[1.0, 0.0]]}, '
               + _SPECTRAL_ECHO + ', "n_range": [2, 3]}',
    "dense": '{"kind": "dense", ' + _HALF + ", " + _SPECTRAL_ECHO
             + ', "m": 2, "M_thresh": 8, "K_out": 15, "N_values": [8], "span": 1}',
    "weights_check": '{"kind": "weights_check", "weights": [{"kind": "gevrey", "a": 1.0, '
                     '"sigma": 0.5}], "N": 20, "eps_list": [0.2], "out": null}',
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_echo_keeps_its_values_and_key_order(kind):
    assert json.dumps(parse_config(_KIND_CONFIGS[kind]).echo) == _GOLDEN_ECHO[kind]


@pytest.mark.parametrize("kind", list(KINDS))
def test_echo_parses_back_to_itself(kind):
    # an echo is a config with every default filled in, so it is accepted
    # as one and comes back unchanged
    echo = parse_config(_KIND_CONFIGS[kind]).echo
    assert json.dumps(parse_config(json.loads(json.dumps(echo))).echo) == json.dumps(echo)


_TABLE = {"kind": "table", "values": [[0, 1.0], [1, 3.0]]}


def _python(*args):
    # a fresh interpreter with this checkout's hillgap on its path
    src = str(Path(hillgap.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _cli_process(route, cfg):
    # the CLI as a process of its own, so an uncaught error shows as a
    # traceback and exit 1
    return _python("-m", "hillgap.cli", *route, "-c", cfg)


class _Run(NamedTuple):
    returncode: int
    stderr: str
    stdout: str


def _cli_run(route, cfg, capsys) -> _Run:
    # the CLI in this process: an exception that escapes main fails the test
    capsys.readouterr()
    code = cli.main([*route, "-c", cfg])
    out, err = capsys.readouterr()
    return _Run(code, err, out)


@pytest.mark.parametrize("route, raw", [
    (["verify", "weights"], {"weights": [_TABLE], "N": 40}),
    (["verify", "theorem1"], {"kind": "theorem1", "potential": MATHIEU_HALF,
                              "n_range": [1, 3],
                              "weight": {"kind": "table", "values": [[0, 1.0]]}}),
    # superexponential on n = 0..64, so psi's tail bound reads w(65)
    (["verify", "theorem5"], {"kind": "theorem5", "potential": MATHIEU_HALF,
                              "n_range": [4, 5],
                              "weight": {"kind": "table",
                                         "values": [[n, math.exp(n ** 1.2)] for n in range(65)]}}),
    (["gaps"], {"n_range": [1, 2],
                "potential": {"type": "random", "seed": 1, "K": 4,
                              "decay": {"kind": "table",
                                        "values": [[0, 1.0], [1, 2.0]]}}}),
], ids=["weights", "theorem1", "theorem5", "gaps"])
def test_cli_table_weight_off_its_grid_is_a_config_error(route, raw, tmp_path, capsys):
    proc = _cli_run(route, _write(tmp_path / "c.json", raw), capsys)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: table weight has no entry at n = ")


@pytest.mark.parametrize("route, raw, message", [
    (["verify", "theorem1"], {"kind": "theorem1", "potential": MATHIEU_HALF, "n_range": [1, 3],
                              "weight": {"kind": "gevrey", "a": 1, "sigma": 2}},
     "gevrey requires 0 < sigma < 1"),
    (["gaps"], {"n_range": [1, 2],
                "potential": {"type": "random", "seed": 1, "K": 4,
                              "decay": {"kind": "polynomial", "r": -1}}},
     "r must be nonnegative"),
    (["verify", "weights"], {"weights": [{"kind": "table", "values": [[0, 1.0], [1, 0.5]]}],
                             "N": 40},
     "all values must be >= 1"),
], ids=["theorem1", "gaps", "weights"])
def test_cli_weight_the_factory_refuses_is_a_config_error(route, raw, message, tmp_path,
                                                         capsys):
    # the factories' own checks raise ValueError; the CLI must print one
    # config error line and exit 2
    proc = _cli_run(route, _write(tmp_path / "c.json", raw), capsys)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: weight ")
    assert proc.stderr.rstrip().endswith(message) and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("route, raw", [
    (["gaps"], {"potential": MATHIEU_HALF, "n_range": [1, 2]}),
    (["verify", "mathieu"], {"kind": "mathieu", "potential": MATHIEU_HALF, "n_range": [1, 2]}),
], ids=["gaps", "verify"])
def test_cli_unwritable_out_is_a_config_error_before_any_solve(route, raw, tmp_path, capsys,
                                                               monkeypatch):
    # a missing directory, a file in its place, or a directory as the output
    # itself, given by --out or by the config's "out", exits 2 with one
    # config error line and runs nothing
    def solve(config):
        raise AssertionError("solved before the output was checked")

    monkeypatch.setattr(harness, "run_table", solve)
    monkeypatch.setattr(harness, "run_verify", solve)
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing" / "x", tmp_path / "file" / "x", tmp_path):
        for flag, config in ((["--out", str(out)], raw), ([], {**raw, "out": str(out)})):
            proc = _cli_run([*route, *flag], _write(tmp_path / "c.json", config), capsys)
            assert proc.returncode == 2
            assert proc.stderr == (f"config error: cannot write {str(out)!r}: "
                                   "not a file in a writable directory\n")


class _ClosedStdout:
    # a stdout whose reader has gone: the write (a large output) or the
    # flush (a small one, still buffered) meets the broken pipe
    def __init__(self, on):
        self.on = on

    def write(self, text):
        if self.on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        raise io.UnsupportedOperation("fileno")


@pytest.mark.parametrize("on", ["write", "flush"])
@pytest.mark.parametrize("route, raw", [
    (["gaps"], {"potential": MATHIEU_HALF, "n_range": [1, 2]}),
    (["verify", "weights", "--json"], {"weights": [{"kind": "polynomial", "r": 1.0}], "N": 8}),
], ids=["gaps", "weights"])
def test_cli_closed_stdout_exits_without_a_traceback(route, raw, on, tmp_path, capsys,
                                                     monkeypatch):
    # `hillgap ... | head` closes stdout early: the CLI exits 141, as a shell
    # reports SIGPIPE, with nothing on stderr
    cfg = _write(tmp_path / "c.json", raw)
    monkeypatch.setattr(sys, "stdout", _ClosedStdout(on))
    proc = _cli_run(route, cfg, capsys)
    assert proc == (141, "", "")


@pytest.mark.parametrize("route, raw", [
    (["gaps"], {"potential": MATHIEU_HALF, "n_range": [1, 2]}),
    (["verify", "weights"], {"weights": [{"kind": "polynomial", "r": 1.0}], "N": 8}),
], ids=["gaps", "weights"])
def test_out_write_failing_midway_leaves_no_file(route, raw, tmp_path, monkeypatch, capsys):
    # the disk fills halfway through the --out write: no partial file and no
    # temporary file is left, an older output stays as it was, and the run
    # exits 2 with one line naming the path and the OS error
    real_open = open

    class Full:
        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    cfg = _write(tmp_path / "c.json", raw)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.setattr(harness, "open", Full, raising=False)
    out = out_dir / "result"
    full = (2, f"config error: cannot write {str(out)!r}: [Errno 28] No space left on device\n")
    proc = _cli_run([*route, "--out", str(out)], cfg, capsys)
    assert (proc.returncode, proc.stderr) == full
    assert list(out_dir.iterdir()) == []
    out.write_text("older\n")
    proc = _cli_run([*route, "--out", str(out)], cfg, capsys)
    assert (proc.returncode, proc.stderr) == full
    assert list(out_dir.iterdir()) == [out] and out.read_text() == "older\n"
    monkeypatch.undo()
    assert cli.main([*route, "-c", cfg, "--out", str(out)]) == 0
    assert list(out_dir.iterdir()) == [out] and out.read_text() != "older\n"


def test_out_to_a_fifo_is_written_in_place(tmp_path, capsys):
    # a FIFO, like a device, holds no old contents for a rename to protect:
    # the CSV goes through it and it stays a FIFO, where a rename once put a
    # regular file in its place; the read end is open, and non-blocking, so
    # the write neither waits for a reader nor can hang the test
    cfg = _write(tmp_path / "c.json", {"potential": MATHIEU_HALF, "n_range": [1, 2]})
    table = _cli_run(["oracle"], cfg, capsys).stdout
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        proc = _cli_run(["oracle", "--out", str(fifo)], cfg, capsys)
        received = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert proc == (0, "", "")
    assert received == table and table.startswith(",".join(CSV_COLUMNS))
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "fifo"]


def test_dense_maps_its_potential_once(monkeypatch):
    # Phi(q) serves the Lipschitz bound and every approximant q_N, where each
    # N once mapped q again
    mapped = []

    def spy(q, *args, **kwargs):
        mapped.append(q)
        return adapted_map(q, *args, **kwargs)

    adapted_map = blockdecomp.adapted_map
    monkeypatch.setattr(blockdecomp, "adapted_map", spy)
    config = parse_config({"kind": "dense", "potential": MATHIEU_HALF})
    assert run_verify(config)["pass"] and len(config.N_values) == 3
    assert sum(q is config.potential for q in mapped) == 1


def test_dense_defaults_move_a_potential_that_truncation_changes():
    # the real K = 16 draw has modes above M_thresh, so each q_N differs from
    # q and the Lipschitz bound is tested at a positive distance; on Mathieu
    # mu = 0.5 every distance and bound read 0
    config = parse_config({"kind": "dense", "potential": {
        "type": "random", "seed": 202, "K": 16,
        "decay": {"kind": "gevrey", "a": 1.0, "sigma": 0.5}}})
    report = run_verify(config)
    assert report["pass"] and [item["N"] for item in report["items"]] == [8, 9, 10]
    for item in report["items"]:
        assert 0 < item["distance"] <= item["lipschitz_bound"]


def _fail_at(n_bad, solve, error):
    # ``solve`` with its index-n_bad call raising ``error``
    def failing(q, n, *args, **kwargs):
        if n == n_bad:
            raise error(f"stub failure at n = {n}")
        return solve(q, n, *args, **kwargs)
    return failing


_MATHIEU_ONE_TO_3 = {"potential": {"type": "mathieu", "mu": 1.0}, "n_range": [1, 3]}
_ERROR_CELLS = ",".join(["nan"] * 13) + ",0"


def test_cli_oracle_row_failure_prints_an_error_row(tmp_path, capsys, monkeypatch):
    # a failed solve at n = 2 becomes the row 2,oracle!,nan,... between the
    # intact rows 1 and 3, and the table exits 1
    from hillgap import floquet

    cfg = _write(tmp_path / "c.json", _MATHIEU_ONE_TO_3)
    intact = _cli_run(["oracle"], cfg, capsys)
    monkeypatch.setattr(floquet, "periodic_eigs_info",
                        _fail_at(2, floquet.periodic_eigs_info, floquet.RootSearchError))
    proc = _cli_run(["oracle"], cfg, capsys)
    assert intact.returncode == 0 and proc.returncode == 1 and proc.stderr == ""
    rows, before = proc.stdout.splitlines(), intact.stdout.splitlines()
    assert len(rows) == 4 and rows[2] == "2,oracle!," + _ERROR_CELLS
    assert [rows[i] for i in (0, 1, 3)] == [before[i] for i in (0, 1, 3)]


def test_cli_json_writes_a_failed_row_as_strict_json(tmp_path, capsys, monkeypatch):
    # NaN and Infinity are no JSON: the error row's cells read null under
    # --json, while the CSV keeps nan
    from hillgap import floquet

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    monkeypatch.setattr(floquet, "periodic_eigs_info",
                        _fail_at(2, floquet.periodic_eigs_info, floquet.RootSearchError))
    cfg = _write(tmp_path / "c.json", _MATHIEU_ONE_TO_3)
    proc = _cli_run(["oracle", "--json"], cfg, capsys)
    rows = json.loads(proc.stdout, parse_constant=refuse)["rows"]
    assert proc.returncode == 1 and [row["method"] for row in rows] == ["oracle", "oracle!",
                                                                        "oracle"]
    assert rows[1]["resid"] is None and rows[1]["re_lm"] is None and rows[1]["iters"] == 0
    assert all(isinstance(rows[0][col], float) for col in ("re_lm", "re_gamma", "resid"))
    assert _cli_run(["oracle"], cfg, capsys).stdout.splitlines()[2] == "2,oracle!," + _ERROR_CELLS


def test_cli_block_row_failure_prints_error_rows(tmp_path, capsys, monkeypatch):
    # every block row whose solve fails prints as block!, next to its intact
    # oracle row, and the table exits 1
    def fail(q, n, *args, **kwargs):
        raise blockdecomp.IterationError(f"stub failure at n = {n}")

    monkeypatch.setattr(blockdecomp, "gap_block", fail)
    cfg = _write(tmp_path / "c.json", {**_MATHIEU_ONE_TO_3, "n_range": [1, 4]})
    proc = _cli_run(["gaps"], cfg, capsys)
    rows = [row.split(",", 2) for row in proc.stdout.splitlines()[1:]]
    assert proc.returncode == 1 and proc.stderr == ""
    # block rows start at n >= 4 ||q|| = 2 sqrt(2)
    assert [row[:2] for row in rows] == [["1", "oracle"], ["2", "oracle"], ["3", "oracle"],
                                         ["3", "block!"], ["4", "oracle"], ["4", "block!"]]
    assert all(row[2] == _ERROR_CELLS for row in rows if row[1] == "block!")


def test_cli_verify_numerical_failure_is_one_line(tmp_path, capsys, monkeypatch):
    # a suite that meets a failed solve exits 1 with one numerical failure
    # line and no traceback
    from hillgap import floquet

    monkeypatch.setattr(floquet, "periodic_eigs_info",
                        _fail_at(2, floquet.periodic_eigs_info, floquet.RootSearchError))
    cfg = _write(tmp_path / "c.json", {"kind": "gasymov", "n_range": [1, 3],
                                       "potential": {"type": "gasymov", "coeffs": [[1.0, 0.0]]}})
    proc = _cli_run(["verify", "gasymov"], cfg, capsys)
    assert proc.returncode == 1
    assert proc.stderr == "numerical failure: stub failure at n = 2\n"


def test_cli_verify_mathieu_prints_free_gaps_as_lines(tmp_path, capsys):
    # mu = 0 items carry only gamma_ceiling; they print as summary lines,
    # not as raw JSON, and the free gaps, below the oracle's resolution
    # floor, are named as charged at their ceiling
    cfg = _write(tmp_path / "m.json", {"kind": "mathieu", "n_range": [1, 2],
                                       "potential": {"type": "mathieu", "mu": 0.0}})
    out = tmp_path / "report.json"
    assert cli.main(["verify", "mathieu", "-c", cfg, "--out", str(out)]) == 0
    items = json.loads(out.read_text())["items"]
    assert [sorted(item) for item in items] == [["gamma_ceiling", "n"]] * 2
    assert capsys.readouterr().out.splitlines() == [
        "mathieu: PASS",
        "  norm_q_w = 0, four_norm_q_w = 0, norm_q_l2 = 0, block_floor = 0",
        "  note: mu = 0: spectrum is free, all gaps collapsed",
        "  note: gaps charged at the noise ceiling: n = [1, 2]",
        f"  n = 1: |gamma| <= {items[0]['gamma_ceiling']:.6g}",
        f"  n = 2: |gamma| <= {items[1]['gamma_ceiling']:.6g}",
    ]


def _gaps(**fields):
    return {"kind": "gaps", "potential": MATHIEU_HALF, "n_range": [1, 2], **fields}


def _with_potential(potential):
    return _gaps(potential=potential)


def _with_weight(weight):
    return {"kind": "weights_check", "weights": [weight], "N": 20}


_RANDOM = {"type": "random", "seed": 1, "K": 3, "decay": {"kind": "polynomial", "r": 2.0}}
_FOURIER = {"type": "fourier", "coeffs": [[1, 0.5, 0.0], [-1, 0.5, 0.0]]}
_GASYMOV = {"type": "gasymov", "coeffs": [[1.0, 0.0]]}
_WEIGHTS = [{"kind": "trivial"}, {"kind": "polynomial", "r": 1.0},
            {"kind": "exponential", "a": 0.5}, {"kind": "gevrey", "a": 1.0, "sigma": 0.5},
            {"kind": "log_tempered", "a": 1.0, "alpha": 2.0}, {"kind": "superexp", "sigma": 2.0},
            {"kind": "tempered", "eps": 0.2, "inner": {"kind": "superexp", "sigma": 2.0}},
            {"kind": "table", "values": [[0, 1.0], [1, 3.0]]}]


def _refusals():
    """(id, route, config, a part of the message naming the fault) of configs
    the CLI must refuse with exit 2."""
    weights = ["verify", "weights"]
    yield "config-undeclared", ["gaps"], _gaps(bogus=1), "['bogus']"
    yield "oracle-undeclared", ["gaps"], _gaps(oracle={"method": "taylor", "bogus": 1}), \
        "unknown oracle fields ['bogus']"
    # each object with a field too many, and without its first required one
    for p in (MATHIEU_HALF, _FOURIER, _GASYMOV, _RANDOM):
        yield f"{p['type']}-undeclared", ["gaps"], _with_potential({**p, "bogus": 1}), \
            f"unknown {p['type']} potential fields ['bogus']"
        first = list(p)[1]
        yield f"{p['type']}-without-{first}", ["gaps"], _with_potential(
            {k: v for k, v in p.items() if k != first}), f"needs field {first!r}"
    for w in _WEIGHTS:
        yield f"{w['kind']}-undeclared", weights, _with_weight({**w, "bogus": 1}), \
            f"unknown {w['kind']} weights[0] fields ['bogus']"
        if len(w) > 1:
            first = list(w)[1]
            yield f"{w['kind']}-without-{first}", weights, _with_weight(
                {k: v for k, v in w.items() if k != first}), f"needs field {first!r}"
    yield "tempered-inner-undeclared", weights, _with_weight(
        {"kind": "tempered", "eps": 0.2, "inner": {"kind": "superexp", "sigma": 2.0, "r": 0}}), \
        "weights[0].inner fields ['r']"
    yield "config-without-potential", ["gaps"], {"kind": "gaps", "n_range": [1, 2]}, \
        "needs field 'potential'"
    yield "config-without-n_range", ["gaps"], {"kind": "gaps", "potential": MATHIEU_HALF}, \
        "needs field 'n_range'"
    yield "config-without-weights", weights, {"kind": "weights_check", "N": 20}, \
        "needs field 'weights'"
    yield "tol-nan", ["gaps"], _gaps(tol=math.nan), "tol must be"
    yield "mu-infinity", ["gaps"], _with_potential({"type": "mathieu", "mu": math.inf}), \
        "potential.mu must be"
    yield "c-nan", ["verify", "mathieu"], {"kind": "mathieu", "potential": MATHIEU_HALF,
                                           "n_range": [1, 2], "c": math.nan}, "c must be"
    yield "mu-bool", ["gaps"], _with_potential({"type": "mathieu", "mu": True}), \
        "potential.mu must be"
    yield "seed-negative", ["gaps"], _with_potential({**_RANDOM, "seed": -1}), \
        "potential.seed must be"
    yield "coeffs-repeated", ["gaps"], _with_potential(
        {"type": "fourier", "coeffs": [[1, 0.5, 0], [-1, 0.5, 0], [1, 0.25, 0]]}), \
        "potential.coeffs[2] repeats"
    # w is even: w(1) and w(-1) are one entry
    table = {"kind": "table", "values": [[0, 1.0], [1, 5.0], [-1, 2.0]]}
    yield "table-repeated", ["gaps"], _with_potential({**_RANDOM, "K": 1, "decay": table}), \
        "potential.decay.values[2] repeats"
    # each oracle path picks its own step count, so no kind declares oracle.steps
    yield "theorem4-steps", ["verify", "theorem4"], {
        "kind": "theorem4", "potential": MATHIEU_HALF, "n_range": [1, 2],
        "oracle": {"steps": 3}}, "unknown oracle fields ['steps']"
    # the adapted map reads neither key, so neither is declared
    adapted = {"kind": "adapted", "potential": MATHIEU_HALF, "n_range": [1, 2]}
    yield "adapted-oracle", ["gaps"], {**adapted, "oracle": {"method": "rk4"}}, \
        "unknown adapted config fields ['oracle']"
    yield "adapted-weight", ["gaps"], {**adapted, "weight": {"kind": "trivial"}}, \
        "unknown adapted config fields ['weight']"
    # run_gaps reads no weight, and dense sweeps N_values, not n_range
    yield "gaps-weight", ["gaps"], _gaps(weight={"kind": "trivial"}), \
        "unknown gaps config fields ['weight']"
    yield "oracle-weight", ["oracle"], _gaps(kind="oracle", weight={"kind": "trivial"}), \
        "unknown oracle config fields ['weight']"
    yield "dense-n_range", ["verify", "dense"], {
        "kind": "dense", "potential": MATHIEU_HALF, "n_range": [1, 2]}, \
        "unknown dense config fields ['n_range']"
    # superexponential on n = 0..64, one entry short of psi's first window
    yield "table-short-of-psi-window", ["verify", "theorem5"], {
        "kind": "theorem5", "potential": MATHIEU_HALF, "n_range": [4, 5],
        "weight": {"kind": "table", "values": [[n, math.exp(n ** 1.2)] for n in range(65)]}}, \
        "table weight has no entry at n = 65; psi's certified search reads n = 1..65 " \
        "for its window M = 64 (64, doubling until certified)"
    # n = 0..6 covers the submultiplicativity window n = 0..2N at N = 3 only
    short = {"kind": "table", "values": [[n, 1.0 + n] for n in range(7)]}
    yield "table-short-of-window", weights, {"weights": [short], "N": 4}, \
        "table weight has no entry at n = 7; the submultiplicativity check reads n = 0..8"
    # the adapted map keeps the modes below M_thresh, so K_out must hold them
    mathieu = {"type": "mathieu", "mu": 1.0}
    for K_out in (0, -2):
        named = f"K_out = {K_out} cannot hold mode 1 of the potential, below M_thresh = 8"
        yield f"adapted-K_out-{K_out}", ["gaps"], {
            "kind": "adapted", "potential": mathieu, "n_range": [1, 3], "K_out": K_out}, named
        yield f"dense-K_out-{K_out}", ["verify", "dense"], {
            "kind": "dense", "potential": mathieu, "K_out": K_out}, named
    draw = {"type": "random", "seed": 202, "K": 16,
            "decay": {"kind": "gevrey", "a": 1.0, "sigma": 0.5}}
    yield "adapted-K_out-under-draw", ["gaps"], {
        "kind": "adapted", "potential": draw, "n_range": [1, 3], "K_out": 3}, \
        "K_out = 3 cannot hold mode 7 of the potential"
    # the ladder's floor stays a normal double only up to the precision limit
    yield "oracle-dps-past-limit", ["oracle"], _gaps(kind="oracle", oracle={
        "method": "mp", "dps": 400}), "dps = 400 exceeds the limit of 300 digits"
    # below 19 digits a pinned solve is no finer than the double one
    yield "oracle-dps-under-floor", ["oracle"], _gaps(kind="oracle", oracle={
        "method": "mp", "dps": 15}), "dps = 15 is under the floor of 19 digits"
    # a tol that auto could meet only past the limit, on a table and on theorem4
    yield "oracle-tol-past-limit", ["oracle"], {
        "kind": "oracle", "potential": mathieu, "n_range": [3, 3], "tol": 1e-320}, \
        "tol = 1e-320 needs more than 300 digits"
    yield "theorem4-tol-past-limit", ["verify", "theorem4"], {
        "kind": "theorem4", "potential": mathieu, "n_range": [3, 3], "tol": 1e-320}, \
        "tol = 1e-320 needs more than 300 digits"
    # the adapted window: a ball under 4 ||q|| = 2.83, a threshold inside
    # it, and (dense) an N below the threshold, which would close no gap
    for m in (0, 1):
        yield f"adapted-m-{m}", ["gaps"], {
            "kind": "adapted", "potential": mathieu, "n_range": [1, 3], "m": m}, \
            f"4 ||q|| = 2.82843 exceeds the ball size m = {m}"
    yield "adapted-M_thresh-0", ["gaps"], {
        "kind": "adapted", "potential": mathieu, "n_range": [1, 3], "M_thresh": 0}, \
        "threshold 0 sits inside the ball of size 3"
    yield "dense-m-0", ["verify", "dense"], {"kind": "dense", "potential": mathieu, "m": 0}, \
        "exceeds the ball size m = 0"
    yield "dense-M_thresh-2", ["verify", "dense"], {
        "kind": "dense", "potential": MATHIEU_HALF, "M_thresh": 2}, \
        "threshold 2 sits inside the ball of size 2"
    yield "dense-N_values-under-threshold", ["verify", "dense"], {
        "kind": "dense", "potential": MATHIEU_HALF, "N_values": [3]}, \
        "N_values[0] must be an integer >= 8, got 3"
    # sigma this near 1 puts psi's minimum beyond 2^16 terms
    yield "psi-uncertified", ["verify", "theorem5"], {
        "kind": "theorem5", "potential": {"type": "mathieu", "mu": 0.1}, "n_range": [1, 2],
        "weight": {"kind": "superexp", "sigma": 1.00001}}, \
        "psi minimum not certified within 65536 terms"
    # psi, which theorem5 reads, is defined for superexponential weights only
    yield "theorem5-gevrey", ["verify", "theorem5"], {
        "kind": "theorem5", "potential": {"type": "mathieu", "mu": 1.0}, "n_range": [1, 3],
        "weight": {"kind": "gevrey", "a": 1.0, "sigma": 0.5}}, \
        "this verification needs a superexponential weight"
    # e^{n^2} leaves double range past |n| = 26, under the K = 30 modes of the draw
    yield "theorem1-infinite-norm", ["verify", "theorem1"], {
        "kind": "theorem1", "potential": {**_RANDOM, "K": 30}, "n_range": [1, 3],
        "weight": {"kind": "superexp", "sigma": 2.0}}, \
        "potential has infinite weighted norm under this weight"


_REFUSALS = list(_refusals())


def test_refusal_table_covers_every_declared_object():
    ids = {case[0] for case in _REFUSALS}
    for name in (*(p["type"] for p in (MATHIEU_HALF, _FOURIER, _GASYMOV, _RANDOM)),
                 *(w["kind"] for w in _WEIGHTS), "config", "oracle", "tempered-inner"):
        assert f"{name}-undeclared" in ids
    assert sorted(w["kind"] for w in _WEIGHTS) == sorted(hillgap.weights.KINDS)
    assert {"mathieu", "fourier", "gasymov", "random"} == set(harness._POTENTIALS)


@pytest.mark.parametrize("name, route, raw, named", _REFUSALS,
                         ids=[case[0] for case in _REFUSALS])
def test_cli_refuses_a_bad_config_with_one_line(name, route, raw, named, tmp_path, capsys):
    # json.dumps writes NaN and Infinity, which json.load accepts
    proc = _cli_run(route, _write(tmp_path / f"{name}.json", raw), capsys)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
    assert named in proc.stderr


def test_module_entry_point_refuses_a_bad_config_with_one_line(tmp_path):
    # one refusal through python -m hillgap.cli, a process of its own
    name, route, raw, named = next(case for case in _REFUSALS if case[0] == "tol-nan")
    proc = _cli_process(route, _write(tmp_path / f"{name}.json", raw))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
    assert named in proc.stderr


def test_cli_theorem5_grows_the_psi_window(tmp_path, capsys):
    # at sigma = 1.01, psi at n~ = 1.3 certifies its minimum only once its
    # window has grown past 64 terms
    cfg = _write(tmp_path / "t5.json", {
        "kind": "theorem5", "potential": {"type": "mathieu", "mu": 0.1}, "n_range": [1, 3],
        "weight": {"kind": "superexp", "sigma": 1.01}})
    assert cli.main(["verify", "theorem5", "-c", cfg, "--json"]) == 0
    items = json.loads(capsys.readouterr().out)["items"]
    assert [item["n"] for item in items] == [1, 2, 3]
    assert all(item["holds"] and item["psi_slack_ok"] for item in items)


def test_cli_verify_weights_on_a_table_as_short_as_its_window(tmp_path, capsys):
    # n = 0..6 under N = 3: the submultiplicativity window is n = 0..6, and
    # the growth class samples n = 1..6, too short for a verdict
    table = {"kind": "table", "values": [[n, 1.0 + n] for n in range(7)]}
    cfg = _write(tmp_path / "w.json", {"weights": [table], "N": 3})
    assert cli.main(["verify", "weights", "-c", cfg, "--json"]) == 0
    item = json.loads(capsys.readouterr().out)["items"][0]
    assert item["base_ok"] and item["growth_class"] == "undetermined"
    assert all(t["ok"] for t in item["tempered"])


_MATHIEU_ONE = {"type": "mathieu", "mu": 1.0}
# (config, the (n, source) pairs its run solves, in any order)
_SOLVED = {
    "gaps": ({"kind": "gaps", "potential": _MATHIEU_ONE, "n_range": [1, 4]},
             [(1, "oracle"), (2, "oracle"), (3, "oracle"), (3, "block"), (4, "oracle"),
              (4, "block")]),
    # admissible from 4 ||q||_w = 2.83
    "theorem1": ({"kind": "theorem1", "potential": _MATHIEU_ONE, "n_range": [1, 5]},
                 [(n, "oracle") for n in (3, 4, 5)]),
    # admissible from 4 ||q||_w = 7.69
    "theorem5": ({"kind": "theorem5", "potential": _MATHIEU_ONE, "n_range": [1, 9],
                  "weight": {"kind": "superexp", "sigma": 2.0}}, [(8, "oracle"), (9, "oracle")]),
    "mathieu-0": ({"kind": "mathieu", "potential": {"type": "mathieu", "mu": 0.0},
                   "n_range": [1, 3]}, [(n, "oracle") for n in (1, 2, 3)]),
    "mathieu-1": ({"kind": "mathieu", "potential": _MATHIEU_ONE, "n_range": [1, 5]},
                  [(n, "oracle") for n in range(1, 6)]),
    # the block entries past 2 ||q|| = 2.24
    "gasymov": ({"kind": "gasymov", "potential": {"type": "gasymov", "coeffs": [[1, 0], [0, 0.5]]},
                 "n_range": [1, 6]},
                [(n, "oracle") for n in range(1, 7)] + [(n, "block") for n in range(3, 7)]),
    # the gaps of q_N for N = 8, 9, 10, each a potential of its own
    "dense": ({"kind": "dense", "potential": MATHIEU_HALF},
              [(n, "oracle") for N in (8, 9, 10) for n in range(N + 1, N + 5)]),
}


@pytest.mark.parametrize("name", list(_SOLVED))
def test_each_gap_is_solved_once_and_only_through_gap(name, monkeypatch):
    # a table and every verifier that reads gamma ask _gap for each
    # (potential, n, source) once, and nothing else calls either solver
    from hillgap import floquet

    calls, callers, held = [], set(), []

    def spy(source, solve):
        def solved(q, n, *args, **kwargs):
            held.append(q)  # so no potential's id is reused within the run
            calls.append((id(q), n, source))
            callers.add(sys._getframe(1).f_code.co_name)
            return solve(q, n, *args, **kwargs)
        return solved

    monkeypatch.setattr(floquet, "periodic_eigs_info", spy("oracle", floquet.periodic_eigs_info))
    monkeypatch.setattr(blockdecomp, "gap_block", spy("block", blockdecomp.gap_block))
    raw, solved = _SOLVED[name]
    config = parse_config(raw)
    (run_table if config.kind in TABLE_KINDS else run_verify)(config)
    assert len(set(calls)) == len(calls)
    assert sorted((n, source) for _, n, source in calls) == sorted(solved)
    assert callers == {"_gap"}


@pytest.mark.parametrize("kind", [kind for kind in KINDS if kind not in TABLE_KINDS])
def test_gap_is_the_only_solver_call(kind, monkeypatch):
    # every verification kind, theorem4's Dirichlet records included, solves
    # its gaps through harness._gap: each solver fails when called without it
    # on the stack
    from hillgap import floquet

    calls = []

    def guarded(solve):
        def solved(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not harness._gap.__code__:
                frame = frame.f_back
            assert frame is not None, f"{solve.__name__} called outside harness._gap"
            calls.append(solve.__name__)
            return solve(*args, **kwargs)
        return solved

    for module, name in ((floquet, "periodic_eigs_info"), (floquet, "gap_record"),
                         (blockdecomp, "gap_block")):
        monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    assert run_verify(parse_config(_KIND_CONFIGS[kind]))["pass"]
    assert bool(calls) == (kind != "weights_check")


@pytest.mark.parametrize("raw, passes, note", [
    ({"kind": "mathieu", "potential": {"type": "mathieu", "mu": 0.0}, "n_range": [1, 3]}, True,
     "gaps charged at the noise ceiling: n = [1, 2, 3]"),
    ({"kind": "dense", "potential": MATHIEU_HALF, "N_values": [8, 9], "span": 2}, True,
     "gaps charged at the noise ceiling: N = 8: n = [9, 10]; N = 9: n = [10, 11]"),
    ({"kind": "gasymov", "potential": _GASYMOV, "n_range": [2, 3]}, True,
     "gaps charged at the noise ceiling: n = [2, 3]"),
    ({"kind": "mathieu", "potential": _MATHIEU_ONE, "n_range": [4, 7]}, False,
     "gaps below the oracle resolution floor, failed: n = [6, 7]"),
], ids=["mathieu-0", "dense", "gasymov", "mathieu-1"])
def test_every_report_names_its_unresolved_gaps(raw, passes, note):
    # one note, the last, names the indices the oracle did not resolve: the
    # one-sided claims read the noise ceiling there, and the Mathieu ratio,
    # two-sided, fails those items
    report = run_verify(parse_config(raw))
    assert report["pass"] == passes and report["notes"][-1] == note
    if not passes:
        assert [item["n"] for item in report["items"] if not item["holds"]] == [6, 7]


def test_gap_records_charge_an_unresolved_oracle_gap_at_its_floor():
    # the free potential's gaps sit below the oracle's resolution floor,
    # which the record charges; a block record is resolved at |gamma|
    from hillgap import floquet

    config = parse_config({"kind": "gaps", "potential": {"type": "mathieu", "mu": 0.0},
                           "n_range": [1, 3]})
    for n in (1, 2, 3):
        gap = harness._gap(config.potential, n, config)
        lm, lp, info = floquet.periodic_eigs_info(config.potential, n, config.tol)
        assert (gap.n, gap.source, gap.resolved, gap.lm, gap.lp) == (n, "oracle", False, lm, lp)
        assert gap.ceiling == max(abs(gap.gamma), info["gamma_floor"]) > abs(gap.gamma)
    mathieu = parse_config({"kind": "gaps", "potential": _MATHIEU_ONE, "n_range": [3, 3]})
    block = harness._gap(mathieu.potential, 3, mathieu, "block")
    assert (block.source, block.resolved) == ("block", True)
    assert block.ceiling == abs(block.gamma) > 0


def test_unread_config_attributes_hold_none():
    # each default is declared once, in KINDS; a kind that does not read a
    # field leaves its attribute at None
    check = parse_config(_KIND_CONFIGS["weights_check"])
    assert (check.tol, check.oracle_method, check.potential, check.n_range) == (None,) * 4
    assert (check.submult_N, check.eps_list) == (20, [0.2])
    gaps = parse_config(_KIND_CONFIGS["gaps"])
    assert (gaps.weight, gaps.c, gaps.a, gaps.span, gaps.submult_N, gaps.N_values,
            gaps.eps_list, gaps.weight_specs) == (None,) * 8
    assert (gaps.tol, gaps.oracle_method) == (KINDS["gaps"].optional["tol"], "taylor")
    theorem5 = parse_config({k: v for k, v in _KIND_CONFIGS["theorem5"].items() if k != "a"})
    assert theorem5.a == KINDS["theorem5"].optional["a"] and theorem5.c is None
    dense = parse_config(_KIND_CONFIGS["dense"])
    assert dense.span == 1 and dense.n_range is None and dense.a is None
    adapted = parse_config(_KIND_CONFIGS["adapted"])
    assert (adapted.weight, adapted.oracle_method) == (None, None)


# which of the heavy layers a CLI run leaves in sys.modules, in a process of its own
_LOADED = ("import json, sys\n"
           "from hillgap import cli\n"
           "code = cli.main(sys.argv[1:])\n"
           "layers = ('hillgap.floquet', 'hillgap.ladder', 'mpmath', 'hillgap.verify',\n"
           "          'hillgap.weights', 'dataclasses')\n"
           "print(json.dumps([code, [m for m in layers if m in sys.modules]]))")
_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
_ADAPTED_WIDE = str(_CONFIGS / "adapted_wide.json")
_ORACLE_MATHIEU = {"potential": {"type": "mathieu", "mu": 1.0}, "n_range": [1, 2]}
_WEIGHT_LAYERS = ["hillgap.weights"]


@pytest.mark.parametrize("route, raw, loaded", [
    (["gaps"], _ADAPTED_WIDE, []),
    (["gaps"], str(_CONFIGS / "cosine_escalated.json"), ["hillgap.floquet"]),
    (["gaps"], str(_CONFIGS / "wideband_complex.json"), ["hillgap.floquet"]),
    (["verify", "weights"], {"weights": [{"kind": "gevrey", "a": 1.0, "sigma": 0.5}], "N": 20},
     ["hillgap.verify", *_WEIGHT_LAYERS]),
    (["oracle"], _ORACLE_MATHIEU, ["hillgap.floquet"]),
    (["oracle"], {**_ORACLE_MATHIEU, "oracle": {"method": "mp", "dps": 30}},
     ["hillgap.floquet", "hillgap.ladder", "mpmath"]),
    (["oracle"], {"potential": _RANDOM, "n_range": [1, 2]}, ["hillgap.floquet", *_WEIGHT_LAYERS]),
    (["verify", "theorem4"], {"kind": "theorem4", **_ORACLE_MATHIEU},
     ["hillgap.floquet", "hillgap.verify", *_WEIGHT_LAYERS]),
    (["verify", "mathieu"], {"kind": "mathieu", **_ORACLE_MATHIEU},
     ["hillgap.floquet", "hillgap.verify", *_WEIGHT_LAYERS]),
], ids=["adapted_wide", "cosine_escalated", "wideband_complex", "weights", "oracle", "oracle_mp",
        "oracle_random", "theorem4", "mathieu"])
def test_each_route_loads_only_the_layers_it_reaches(route, raw, loaded, tmp_path):
    # the block reduction and the weights never load the Floquet oracle; an
    # oracle solve that stays in doubles, gap_record's tau and delta
    # included, loads it without the ladder and mpmath, as do the gaps that
    # auto escalates and the det form resolves at the default tol; one at a
    # set precision loads all three; only a verification run loads the
    # claims; the weights layer loads for a random potential's decay and for
    # every verification, and for no table whose config names no weight; no
    # route loads dataclasses
    cfg = raw if isinstance(raw, str) else _write(tmp_path / "c.json", raw)
    proc = _python("-c", _LOADED, *route, "-c", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, loaded]


def test_every_public_name_resolves_and_is_listed():
    # the floquet and weights names resolve on first access; each is its layer's own
    names = dir(hillgap)
    for layer, layer_names in {
        "floquet": ("GapRecord", "MonodromyMatrix", "RootSearchError", "discriminant",
                    "gap_record", "monodromy", "periodic_eigs", "periodic_eigs_info",
                    "sturm_liouville_eig"),
        "weights": ("Weight", "check_submultiplicative", "classify_growth", "exponential",
                    "gevrey", "log_tempered", "polynomial", "psi", "psi_continuous",
                    "superexp", "table_weight", "temper", "trivial"),
    }.items():
        module = getattr(hillgap, layer)
        assert layer in names and module is sys.modules[f"hillgap.{layer}"]
        for name in layer_names:
            assert name in names and getattr(hillgap, name) is getattr(module, name)
    for name in names:
        getattr(hillgap, name)
    with pytest.raises(AttributeError):
        hillgap.no_such_name


def test_records_are_immutable_and_the_arrays_keep_identity():
    # every record is a NamedTuple: a field cannot be set, and SolveInfo's
    # tallies add (iterations summed, residual and ratio maxed) rather than
    # concatenate; the two array types refuse assignment and deletion and
    # hash by identity, so an equal copy is another lru_cache key
    import copy
    from functools import lru_cache

    import numpy as np

    from hillgap import floquet
    from hillgap.seqspace import FourierPotential, ParityVector

    config = parse_config({"kind": "gaps", "potential": MATHIEU_HALF, "n_range": [3, 3]})
    q = config.potential
    block = blockdecomp.gap_block(q, 3)
    records = [config, harness._gap(q, 3, config, "block"), block, block.diagnostics,
               blockdecomp.SolveInfo(1, 0.0, 0.0), blockdecomp.AdaptedInfo(1, 0.0, 0.0, 0j),
               blockdecomp.MapResult(q, 0.0, 0, 0.0), floquet.monodromy(q, 10.0),
               floquet.gap_record(q, 1)]
    for record in records:
        assert isinstance(record, tuple)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    tally = blockdecomp.SolveInfo(2, 1e-13, 0.1) + blockdecomp.SolveInfo(3, 1e-14, 0.2)
    assert tally == blockdecomp.SolveInfo(5, 1e-13, 0.2)

    vector = ParityVector(np.ones(3, dtype=complex))
    for value in (q, vector):
        with pytest.raises(AttributeError, match="immutable"):
            value.data = value.data
        with pytest.raises(AttributeError, match="immutable"):
            del value.data
        with pytest.raises(AttributeError):
            value.extra = 1
    twin = FourierPotential(q.data, q.mean)
    copied = copy.copy(q)
    assert np.array_equal(twin.data, q.data) and np.array_equal(copied.data, q.data)
    assert twin != q and copied != q and copied.mean == q.mean

    seen = []

    @lru_cache(maxsize=None)
    def keyed(potential):
        seen.append(potential)
        return len(seen)

    assert (keyed(q), keyed(q), keyed(twin)) == (1, 1, 2)


def test_failures_catch_a_root_search_error_and_the_default_method_is_valid():
    # harness.FAILURES lists blockdecomp's three types and still catches the
    # oracle's; the config reader checks only a method a config names
    from hillgap import floquet

    with pytest.raises(harness.FAILURES):
        raise floquet.RootSearchError("stalled")
    assert issubclass(floquet.RootSearchError, blockdecomp.IterationError)
    floquet._path(KINDS["gaps"].optional["oracle"]["method"], None)
    with pytest.raises(ConfigError, match="unknown oracle method"):
        parse_config({"potential": MATHIEU_HALF, "n_range": [1, 2], "oracle": {"method": "rk5"}},
                     "gaps")
